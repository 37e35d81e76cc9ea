"""Hecke algebras of type A, their even subalgebras, and tableau representations.

The package is organized bottom-up:

- ``scalars``: exact values in the field Q(q) of rational functions, built
  in lowest terms by their producers, plus admissibility checks and
  parsing for numeric values of q.
- ``tableaux``: Young diagrams and their standard tableaux, in the
  canonical basis order.
- ``word_algebra``: words in the generators, the normal word basis of the
  Hecke algebra, and the exact rewriting engine for the even subalgebra.
- ``hecke_rep``: irreducible representation matrices (g-form, f-form, and
  the q = 1 orthogonal form) built from standard tableaux.
- ``alt_decompose``: restriction to the even subalgebra, commutants read
  off the tableau graph, splitting of self-conjugate restrictions,
  classification, and induction multiplicities.
- ``cli``: command-line front end with deterministic JSON output.
"""

__version__ = "0.1.0"
