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

The commutant of a shape restriction is read off the tableau graph, with
no linear solve.  A_n(q) has index 2 in H_n(q), and X -> F1_μ X F1_λ
(F1_λ the matrix of f_1 on V_λ) is an involution of
Hom_A(Res V_λ, Res V_μ) whose +1 part is Hom_H(V_λ, V_μ) and whose -1
part is Hom_H(V_λ, V_μ (x) sgn), sgn: f -> -f (Clifford theory of an
index-2 subalgebra).  So Hom = 0 unless μ is λ or ^tλ, and labels of
different transpose pairs are inequivalent.  On Young's seminormal
basis, the Jucys-Murphy eigenbasis (Ram 1997), the +1 part is diagonal
and the -1 part is the transpose permutation P times a diagonal.  A
diagonal X commutes with every F_i exactly when x_a = x_b on each mixed
pair (a, b): the +1 part has one row per component of the graph of the
mixed pairs, which is connected (each standard tableau reaches the
row-reading one by s_i that keep it standard).  The -1 part is fixed
along the same edges up to scale, so the transpose witness spans it.  A
mixed pair is an edge unless its entries are exactly 0 (_edges): its
entry B_d is a quotient of q-integers, nonzero at every admissible q, so
no cutoff judges it, neither near q = -1, where the diagonal entries grow
like 1/(1+q)^2, nor at large q, where B/A is about 2/sqrt(q).  The
witness residuals are tested against tol times the larger of 1 and the
generators' largest norm bound, since their rounding error grows with
the entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hecke_rep import (
    IndeterminateRankError,
    Representation,
    _components,
    _skeleton,
    build_representation,
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

    source is the shape's f-form representation, on whose F_i the
    commutant and the witness residuals are taken.  The Y_i and the
    norm_bounds are computed on first use and live as long as the record;
    only the q-independent skeleton (hecke_rep._skeleton) is kept for the
    process.
    """

    source: Representation

    @property
    def dim(self) -> int:
        return self.source.dim

    @cached_property
    def y_matrices(self) -> tuple[np.ndarray, ...]:
        mats = self.source.generator_matrices
        return tuple(mats[0] @ mats[i] for i in range(1, len(mats)))

    @cached_property
    def norm_bounds(self) -> np.ndarray:
        """sqrt(|F|_1 |F|_inf) >= |F|_2 for each F_i; they bound the Y_i
        too, which are the F_i up to signs since F_1 = diag(+-1)."""
        return _norm_bounds(self.source.generator_matrices)


def restrict(rep: Representation) -> RestrictedRep:
    """Matrices of y_i = f_1 f_{i+1}; empty generator list for n = 2."""
    if rep.form != "f":
        raise ValueError("restriction needs the f-form")
    return RestrictedRep(rep)


# ---------------------------------------------------------------------------
# the commutant from the tableau graph

def _norm_bounds(mats) -> np.ndarray:
    return np.array([math.sqrt(m.sum(0).max() * m.sum(1).max())
                     for m in map(np.abs, mats)])


def _residual_limit(tol: float, *sides: RestrictedRep) -> float:
    """tol times the larger of 1 and the sides' largest generator norm bound:
    rounding errors grow with the entries, about 4e4 near q = -1."""
    return tol * max(1.0, *(float(side.norm_bounds.max()) for side in sides))


def _edges(rep: Representation) -> np.ndarray:
    """Which mixed pairs (a, b) of the skeleton are edges: those where
    F_i[a,b] or F_i[b,a] is nonzero.  B_d is a quotient of q-integers, so
    at an admissible q it is computed to full relative precision, however
    small next to the diagonal; only a hand-edited matrix has an exact 0."""
    gen, anchor, partner = _skeleton(rep.shape).pairs
    edges = np.empty(gen.size, dtype=bool)
    for i, f in enumerate(rep.generator_matrices):
        here = gen == i
        a, b = anchor[here], partner[here]
        edges[here] = (f[a, b] != 0) | (f[b, a] != 0)
    return edges


def _witness_residual(rep: Representation, onto: Representation) -> float:
    """max_i |onto(F_i) X + X rep(F_i)| for the transpose witness X =
    P diag(signs), P[index[k], k] = 1, without forming X: row index[k] of
    the sum is onto(F_i)[index[k], index] signs + signs[k] rep(F_i)[k]."""
    index, signs = transpose_witness(rep, onto)
    grid = np.ix_(index, index)
    return max((sup_norm(b[grid] * signs + signs[:, None] * a) for a, b
                in zip(rep.generator_matrices, onto.generator_matrices)),
               default=0.0)


def _commutant(r: RestrictedRep, tol: float) -> np.ndarray:
    """Orthonormal basis rows of {X : X Y_i = Y_i X}, X flattened: one
    row diag(1_C) / sqrt|C| per component C of the graph of the nonzero
    mixed pairs (_edges), which commutes with every F_i exactly, and on a
    self-conjugate shape the transpose witness P diag(signs) / sqrt(d) if
    its residual on the F_i is within _residual_limit(tol).  No tableau is
    its own transpose: the supports are disjoint."""
    rep = r.source
    dim, k = rep.dim, np.arange(rep.dim)
    skeleton = _skeleton(rep.shape)
    edges = _edges(rep)
    labels = skeleton.components if edges.all() else _components(
        dim, *skeleton.pairs[1:, edges])
    sizes = np.bincount(labels)
    rows = np.zeros((sizes.size + rep.shape.is_self_conjugate, dim, dim))
    rows[labels, k, k] = 1 / np.sqrt(sizes[labels])
    if rep.shape.is_self_conjugate:
        index, signs = transpose_witness(rep, rep)
        rows[-1, index, k] = signs / math.sqrt(dim)
        if not _witness_residual(rep, rep) <= _residual_limit(tol, r):
            rows = rows[:-1]
    return rows.reshape(len(rows), dim * dim)


def commutant_dimension(r, tol: float = 1e-10) -> int:
    """Dimension of {X : X commutes with every generator matrix}.

    r must be a shape restriction; anything else raises ValueError.  1
    means irreducible, and a self-conjugate shape gives 2.  It counts the
    rows of _commutant(r, tol).  Without generators (n <= 2) the answer
    is 1.
    """
    if not isinstance(r, RestrictedRep):
        raise ValueError("the commutant is read off a shape restriction, "
                         "not raw matrix sequences")
    if r.source.n < 3:
        return 1
    return len(_commutant(r, tol))


# ---------------------------------------------------------------------------
# the transpose witness: equivalence of transpose pairs, self-conjugate split

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
        basis = np.zeros((dim, ks.size),
                         dtype=np.result_type(mu, r.y_matrices[0]))
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
    of its restriction, read off the tableau graph: 1, or 2 for a
    self-conjugate shape.  Verifies the transpose-pair equivalences (the
    transpose witness's residual on the F_i within _residual_limit(tol)
    of the pair), the split of each self-conjugate shape (the one check
    that forms Y_i), and Σ dim² = n!/2.  No linear system is solved.  A
    commutant of 2 that holds the projectors of a passing split is C x C,
    so each half has commutant 1 and the two halves are inequivalent;
    otherwise a half's commutant_dim is None.  A half label's dim is its
    split_dims entry.  Labels of different transpose pairs are
    inequivalent because their shapes' restrictions have Hom = 0 (see the
    module docstring).
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
            residual = _witness_residual(r.source, r2.source)
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
