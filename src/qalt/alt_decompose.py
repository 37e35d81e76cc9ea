"""Restriction of Hecke-algebra irreducibles to the even subalgebra, and
their classification.

Restricting the f-form representation of shape λ to the even subalgebra
means taking the matrices of y_i = f_1 f_{i+1}, i = 1..n-2.  The questions
answered here are numeric-linear-algebra questions about those matrices:

  - irreducibility: the commutant {X : X Y_i = Y_i X for all i} is
    one-dimensional exactly for the irreducible restrictions;
  - equivalence: a nonzero solution of X Y_i = Y'_i X is an intertwiner.
    A shape and its transpose have a known one, the signed permutation
    of hecke_rep.transpose_witness, whose residual classify checks;
  - splitting: on a self-conjugate shape that witness commutes with the
    restriction and squares to eps = (-1)^((n - k)/2) times the identity
    (k the diagonal length; the sign of A_n's associate characters,
    James-Kerber 2.5), so its +-sqrt(eps) eigenspaces, spanned by pair
    sums (v_T +- sqrt(eps) s v_T') / sqrt(2), are two invariant halves.

classify() assembles the complete list of irreducibles: one label per
transpose pair {λ, ^tλ}, two labels (plus/minus) per self-conjugate λ,
with the dimension count Σ dim² = n!/2 checked on the way out.  Induction
multiplicities back up to the full algebra are read off the
classification, and per-entry transpose-symmetry deviations of the
restricted matrices are reported with signs (only absolute values are
asserted; the off-diagonal signs depend on the square-root convention).

The commutant of a shape restriction is the one system solved here, by
the index-2 split and without forming the d^2-column Kronecker matrix.
A_n(q) has index 2 in H_n(q), and X -> F1_μ X F1_λ (F1_λ the matrix of
f_1 on V_λ) is an involution of Hom_A(Res V_λ, Res V_μ) whose +1 part is
Hom_H(V_λ, V_μ) and whose -1 part is Hom_H(V_λ, V_μ (x) sgn),
sgn: f -> -f (Clifford theory of an index-2 subalgebra).  So Hom = 0
unless μ is λ or ^tλ: restrictions of shapes of different transpose
pairs, and the labels they carry, are inequivalent.  On Young's
seminormal basis, the Jucys-Murphy eigenbasis (Ram 1997), an element of
the +1 part is diagonal and one of the -1 part is the transpose
permutation P times a diagonal.  For μ = λ, _commutant solves
X F_i = F_i X for diagonal X and, when λ is self-conjugate,
X F_i = -F_i X for X = P diag(x), each a sparse system in d unknowns,
and checks each solution's residual against the Y_i.

classify needs one commutant solve per transpose pair and none for the
halves or for the pairwise inequivalences, and the induction
multiplicities are read off its report.  Every rank or nullity decision
goes through hecke_rep.numeric_rank or hecke_rep.nullspace, whose
singular-value threshold has an explicit gap guard: a spectrum without a
clear gap raises IndeterminateRankError instead of guessing.  Residuals
(of each commutant solution, of the transpose witness, and of the
split halves' invariance) are tested against tol times the larger of 1
and the generators' largest norm bound, since their rounding error grows
with the entries, which reach about 4e4 near q = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hecke_rep import (
    IndeterminateRankError,
    Representation,
    build_representation,
    nullspace,
    sup_norm,
    transpose_witness,
)
from .scalars import q_to_text
from .tableaux import YoungDiagram, enumerate_diagrams, transpose

__all__ = [
    "IndeterminateRankError",
    "RestrictedRep",
    "DecompositionReport",
    "restrict",
    "commutant_dimension",
    "split_self_conjugate",
    "classify",
    "induction_multiplicities",
    "induction_table",
    "transpose_symmetry_report",
    "n3_spectrum_report",
]


@dataclass(frozen=True)
class RestrictedRep:
    """Even-subalgebra generator matrices Y_i = F_1 F_{i+1} of one shape.

    source is the shape's f-form representation, whose F_i the commutant
    solve works on.  The stacked Y_i and their norm_bounds are computed on
    first use and live as long as the record: no q-dependent record is
    cached across requests.  Only the q-independent skeleton of the shape
    (its tableau basis, generator patterns and transpose witness, see
    hecke_rep._skeleton) is kept for the process.
    """

    source: Representation
    y_matrices: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.source.dim

    @cached_property
    def stacked(self) -> np.ndarray:
        return np.stack(self.y_matrices)

    @cached_property
    def norm_bounds(self) -> np.ndarray:
        return _norm_bounds(self.stacked)


def restrict(rep: Representation) -> RestrictedRep:
    """Matrices of y_i = f_1 f_{i+1}; empty generator list for n = 2."""
    if rep.form != "f":
        raise ValueError("restriction needs the f-form")
    mats = rep.generator_matrices
    ys = tuple(mats[0] @ mats[i] for i in range(1, rep.n - 1))
    return RestrictedRep(rep, ys)


# ---------------------------------------------------------------------------
# the commutant solve

def _norm_bounds(m: np.ndarray) -> np.ndarray:
    """sqrt(|M|_1 |M|_inf) for each stacked matrix, a bound of its |M|_2."""
    absm = np.abs(m)
    return np.sqrt(absm.sum(axis=1).max(axis=1) * absm.sum(axis=2).max(axis=1))


def _residual_limit(tol: float, *sides: RestrictedRep) -> float:
    """tol times the larger of 1 and the sides' largest generator norm bound.

    The rounding error of a product with the generators grows with their
    size, which reaches about 4e4 near q = -1.
    """
    return tol * max(1.0, *(float(side.norm_bounds.max()) for side in sides))


def _split_system(f, index: np.ndarray, sign: int) -> np.ndarray:
    """The system X F_i = sign F_i X in the unknowns x of X = P diag(x),
    P the permutation with P[index[k], k] = 1.

    Entry (index[k], l) of the equation reads
    F_i[k, l] x_k - sign F_i[index[k], index[l]] x_l = 0; there is one
    row for each (i, k, l) where either matrix has a nonzero entry, so a
    row has at most two nonzeros and the rows number at most 2(n-1)d.
    """
    blocks = []
    for a in f:
        b = a[np.ix_(index, index)]
        ks, ls = np.nonzero((a != 0) | (b != 0))
        rows = np.arange(ks.size)
        block = np.zeros((ks.size, len(a)), dtype=a.dtype)
        block[rows, ks] = a[ks, ls]
        block[rows, ls] -= sign * b[ks, ls]
        blocks.append(block)
    return np.vstack(blocks)


def _commutant(r: RestrictedRep, tol: float) -> np.ndarray:
    """Orthonormal basis rows of {X : X Y_i = Y_i X}, X flattened, by the
    index-2 split.

    The +1 part is solved on diagonal X and, for a self-conjugate shape,
    the -1 part on X = P diag(x), P the transpose permutation of
    hecke_rep.transpose_witness.  No tableau is its own transpose, so the
    two parts have disjoint supports and the rows are orthonormal.  A
    solution whose residual max_i |Y_i X - X Y_i| exceeds
    _residual_limit(tol) raises IndeterminateRankError.
    """
    rep = r.source
    parts = [(np.arange(rep.dim), 1)]
    if rep.shape.is_self_conjugate:
        parts.append((transpose_witness(rep, rep)[0], -1))
    limit = _residual_limit(tol, r)
    rows = []
    for index, sign in parts:
        system = _split_system(rep.generator_matrices, index, sign)
        for x in nullspace(system):
            residual = _permutation_residual(index, x, r, r)
            if not residual <= limit:
                raise IndeterminateRankError(
                    f"a split-route solution in the commutant of "
                    f"{rep.shape.text()} has residual {residual:.3e}, above "
                    f"the tolerance {limit:.1e}")
            x_matrix = np.zeros((rep.dim, rep.dim), dtype=x.dtype)
            x_matrix[index, np.arange(rep.dim)] = x
            rows.append(x_matrix.ravel())
    return np.array(rows).reshape(len(rows), rep.dim ** 2)


def commutant_dimension(r, tol: float = 1e-10) -> int:
    """Dimension of {X : X commutes with every generator matrix}.

    r must be a shape restriction; anything else raises ValueError.  1
    means irreducible, and a self-conjugate shape gives 2.  The solve is
    _commutant(r, tol), so a solution whose residual exceeds
    _residual_limit(tol) raises IndeterminateRankError.  Without
    generators (n = 2, where every representation is one-dimensional) the
    answer is 1.  A solve that returns no solution at all has lost the
    identity, which always commutes, and raises IndeterminateRankError.
    """
    if not isinstance(r, RestrictedRep):
        raise ValueError("a commutant solve takes shape restrictions, not "
                         "raw matrix sequences")
    if not r.y_matrices:
        return 1
    dim = len(_commutant(r, tol))
    if dim == 0:
        raise IndeterminateRankError(
            f"the commutant solve of a dimension-{r.dim} restriction "
            f"found no solution, not even the identity")
    return dim


# ---------------------------------------------------------------------------
# the transpose witness: equivalence of transpose pairs, self-conjugate split

def _permutation_residual(index: np.ndarray, x: np.ndarray,
                          r1: RestrictedRep, r2: RestrictedRep) -> float:
    """max_i |Y2_i X - X Y1_i| for X = P diag(x), P[index[k], k] = 1,
    without forming X: the transpose witness, or a commutant solution."""
    a, b = r1.stacked, r2.stacked
    xa = np.empty(a.shape, dtype=np.result_type(a, b, x))
    xa[:, index] = x[:, None] * a
    return sup_norm(b[:, :, index] * x - xa)


def split_self_conjugate(r: RestrictedRep, tol: float = 1e-10):
    """Two invariant halves of a self-conjugate restriction.

    Returns (plus_basis, minus_basis, report): orthonormal column bases of
    the +sqrt(eps) and -sqrt(eps) eigenspaces of the transpose witness X,
    which commutes with every Y_i and squares to eps times the identity.
    No tableau is its own transpose, so each pair {T, T'} of transposed
    tableaux gives each half one column (v_T +- sqrt(eps) s v_T') / sqrt(2),
    s the reading sign of T.  eps = -1 makes the halves complex.  The split
    passes when the halves' invariance residual is below _residual_limit(tol)
    of r.
    """
    shape = r.source.shape
    if not shape.is_self_conjugate:
        raise ValueError(f"shape {shape.text()} is not self-conjugate")
    dim = r.dim
    index, signs = transpose_witness(r.source, r.source)
    ks = np.flatnonzero(np.arange(dim) < index)
    mates = index[ks]
    root = 1.0 if signs[ks[0]] * signs[mates[0]] > 0 else 1j

    def half(mu) -> np.ndarray:
        basis = np.zeros((dim, ks.size), dtype=np.result_type(mu, r.stacked))
        cols = np.arange(ks.size)
        basis[ks, cols] = 1 / math.sqrt(2)
        basis[mates, cols] = mu * signs[mates] / math.sqrt(2)
        return basis

    def invariance_residual(basis: np.ndarray) -> float:
        comp = np.eye(dim) - basis @ basis.conj().T
        return max((sup_norm(comp @ (y @ basis)) for y in r.y_matrices),
                   default=0.0)

    halves = half(root), half(-root)
    residual = max(map(invariance_residual, halves))
    report = {
        "shape": shape.text(),
        "dim": dim,
        "method": "transpose witness eigenspaces",
        "split_dims": [ks.size, ks.size],
        "invariance_residual": residual,
        "pass": residual < _residual_limit(tol, r),
    }
    return *halves, report


# ---------------------------------------------------------------------------
# classification

@dataclass
class DecompositionReport:
    """Complete list of irreducibles of the even subalgebra at one q."""

    n: int
    q_value: object
    labels: list[dict]
    equivalences: list[list[str]]
    checks: dict
    # the restriction of every shape, keyed by its text
    restrictions: dict[str, RestrictedRep] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "q": q_to_text(self.q_value),
            "labels": [dict(label) for label in self.labels],
            "equivalences": [list(pair) for pair in self.equivalences],
            "checks": dict(self.checks),
        }


def _label_key(shape_text: str, tag: str) -> str:
    return shape_text if tag == "whole" else f"{shape_text}:{tag}"


def classify(n: int, q, tol: float = 1e-10) -> DecompositionReport:
    """All irreducible representations of the even subalgebra at q.

    One label per transpose pair of shapes (anchored at the shape with the
    larger rows, the first in enumeration order), two labels per
    self-conjugate shape.  Verifies, per anchor, the commutant dimension
    of its restriction: 1, or 2 for a self-conjugate shape (a solution
    with residual above _residual_limit(tol) raises
    IndeterminateRankError).  Verifies the transpose-pair equivalences (the transpose
    witness's residual within _residual_limit(tol) of the pair), the split
    of each self-conjugate shape, and Σ dim² = n!/2.  No other system is
    solved.  A commutant of 2 that holds the projectors of a passing
    split is C x C, so each half has commutant 1 and the two halves are
    inequivalent; otherwise a half's commutant_dim is None.  A half
    label's dim is its split_dims entry.  Labels of different transpose
    pairs are inequivalent because their shapes' restrictions have
    Hom = 0 (see the module docstring).
    """
    if n < 3:
        raise ValueError("classify needs n >= 3")
    diagrams = enumerate_diagrams(n)
    restrictions = {shape.text(): restrict(build_representation(shape, q, "f"))
                    for shape in diagrams}
    q_value = next(iter(restrictions.values())).source.q_value

    equivalences: list[list[str]] = []
    labels: list[dict] = []
    all_pass = True

    def add_label(text: str, tag: str, dim: int, cdim) -> None:
        labels.append({"shape": text, "tag": tag,
                       "dim": dim, "commutant_dim": cdim})

    for shape in diagrams:
        if not shape.is_transpose_anchor:
            continue
        text = shape.text()
        r = restrictions[text]
        cdim = commutant_dimension(r, tol)
        if shape.is_self_conjugate:
            split_report = split_self_conjugate(r, tol)[2]
            simple = cdim == 2 and split_report["pass"]
            all_pass = all_pass and simple
            for tag, dim in zip(("plus", "minus"),
                                split_report["split_dims"]):
                add_label(text, tag, dim, 1 if simple else None)
        else:
            all_pass = all_pass and cdim == 1
            add_label(text, "whole", r.dim, cdim)
            partner = transpose(shape).text()
            r2 = restrictions[partner]
            residual = _permutation_residual(
                *transpose_witness(r.source, r2.source), r, r2)
            all_pass = all_pass and residual <= _residual_limit(tol, r, r2)
            equivalences.append([text, partner])

    total = sum(label["dim"] ** 2 for label in labels)
    expected = math.factorial(n) // 2
    all_pass = all_pass and total == expected
    checks = {"sum_dim_sq": total, "pass": bool(all_pass)}

    return DecompositionReport(n=n, q_value=q_value, labels=labels,
                               equivalences=equivalences, checks=checks,
                               restrictions=restrictions)


# ---------------------------------------------------------------------------
# induction multiplicities

def induction_multiplicities(label: str, n: int, q,
                             report: DecompositionReport | None = None) -> dict:
    """Multiplicity of one label inside the restriction of each V_mu.

    label is a shape text, optionally tagged ("2,2:plus").  The numbers
    are read off the classification, with no solve: a whole label of λ is
    Res V_λ ≅ Res V_^tλ, so it occurs once in those two and in no other
    restriction (Hom = 0 between shapes of different transpose pairs); a
    half of a self-conjugate λ occurs once in Res V_λ only.  By
    reciprocity they are the multiplicities of each V_mu in the module
    induced from the label, so they must satisfy the index-2 dimension
    identity sum(mult * dim V_mu) = 2 * dim(label).  The row passes when
    that identity and the classification both pass.
    """
    if report is None:
        report = classify(n, q)
    label_dims = {_label_key(entry["shape"], entry["tag"]): entry["dim"]
                  for entry in report.labels}
    if label not in label_dims:
        raise ValueError(f"unknown label {label!r}")
    shape, _, tag = label.partition(":")
    label_dim = label_dims[label]
    partners = {} if tag else dict(report.equivalences)
    hosts = {shape, partners.get(shape, shape)}

    multiplicities = {}
    total = 0
    for text, r in report.restrictions.items():
        mult = int(text in hosts)
        multiplicities[text] = mult
        total += mult * r.dim
    induced = 2 * label_dim
    return {
        "label": label,
        "n": n,
        "q": q_to_text(report.q_value),
        "multiplicities": multiplicities,
        "induced_dimension": induced,
        "dimension_identity": {"sum": total, "expected": induced,
                               "pass": total == induced},
        "pass": total == induced and report.checks["pass"],
    }


def induction_table(n: int, q) -> dict:
    """Induction multiplicities for every label of classify(n, q)."""
    report = classify(n, q)
    rows = []
    for entry in report.labels:
        key = _label_key(entry["shape"], entry["tag"])
        rows.append(induction_multiplicities(key, n, q, report))
    return {
        "n": n,
        "q": q_to_text(report.q_value),
        "rows": rows,
        "pass": all(row["pass"] for row in rows),
    }


# ---------------------------------------------------------------------------
# transpose symmetry of restricted matrix entries

def transpose_symmetry_report(shape: YoungDiagram, q,
                              tol: float = 1e-10) -> dict:
    """Entrywise comparison of Y-matrices for a shape and its transpose.

    Compares the matrix coefficient at (T, T') with the one at
    (^tT, ^tT') in the transposed shape's restriction.  Absolute values
    must agree within tol; signed deviations are reported without a
    verdict, because the off-diagonal sign depends on the square-root
    convention fixed by the anchoring rule.
    """
    r1 = restrict(build_representation(shape, q, "f"))
    r2 = restrict(build_representation(transpose(shape), q, "f"))
    perm, _ = transpose_witness(r1.source, r2.source)

    generators = []
    all_pass = True
    for i, (y1, y2) in enumerate(zip(r1.y_matrices, r2.y_matrices), start=1):
        remapped = y2[np.ix_(perm, perm)]
        signed = remapped - y1
        absolute = np.abs(remapped) - np.abs(y1)
        entry = {
            "generator": f"y{i}",
            "max_signed_deviation": sup_norm(signed),
            "max_abs_deviation": sup_norm(absolute),
            "signed_deviations": signed,
            "pass": sup_norm(absolute) < tol,
        }
        all_pass = all_pass and entry["pass"]
        generators.append(entry)
    return {
        "shape": shape.text(),
        "transpose": transpose(shape).text(),
        "n": shape.n,
        "q": q_to_text(r1.source.q_value),
        "tol": tol,
        "generators": generators,
        "note": "absolute deviations are asserted; signed deviations are "
                "reported without a verdict",
        "pass": bool(all_pass),
    }


# ---------------------------------------------------------------------------
# the smallest nontrivial spectrum

def n3_spectrum_report(q, tol: float = 1e-10) -> dict:
    """Spectrum of y_1 on the 2-dimensional restriction at n = 3.

    The eigenvalues are the two roots of z^2 + (1 + c^2) z + 1 with
    c = (q-1)/(q+1); for real q > 0 they are a unimodular complex-conjugate
    pair.  A real-valued expression obtained if the square root is taken
    before forming the product is evaluated alongside for comparison, but
    not asserted.
    """
    shape = YoungDiagram((2, 1))
    r = restrict(build_representation(shape, q, "f"))
    y = r.y_matrices[0]
    eigenvalues = np.linalg.eigvals(y)
    qv = r.source.q_value
    qn = complex(qv)
    c = (qn - 1) / (qn + 1)
    c2 = c * c
    roots = np.roots([1.0, 1.0 + c2, 1.0])

    # match computed eigenvalues to predicted roots, best assignment of two
    direct = max(abs(eigenvalues[0] - roots[0]), abs(eigenvalues[1] - roots[1]))
    swapped = max(abs(eigenvalues[0] - roots[1]), abs(eigenvalues[1] - roots[0]))
    root_deviation = float(min(direct, swapped))
    unimodularity = float(max(abs(abs(z) - 1.0) for z in eigenvalues))

    s = np.emath.sqrt(qn * (1 + qn + qn * qn))
    real_branch = [complex((1 + qn * qn - 2 * s) / (1 + qn) ** 2),
                   complex((1 + qn * qn + 2 * s) / (1 + qn) ** 2)]

    real_positive = not isinstance(qv, complex) and qv > 0
    passed = root_deviation < tol and (not real_positive or unimodularity < 1e-8)
    return {
        "n": 3,
        "shape": shape.text(),
        "q": q_to_text(qv),
        "eigenvalues": [{"re": float(z.real), "im": float(z.imag)}
                        for z in eigenvalues],
        "predicted_roots": [{"re": float(z.real), "im": float(z.imag)}
                            for z in roots],
        "max_root_deviation": root_deviation,
        "unimodularity_deviation": unimodularity,
        "real_branch_values": [{"re": float(z.real), "im": float(z.imag)}
                               for z in real_branch],
        "real_branch_note": "values of the expression with the square root "
                            "taken before forming the product; shown for "
                            "comparison, not asserted",
        "pass": bool(passed),
    }
