"""Irreducible matrix representations of the Hecke algebra on tableau bases.

For each Young diagram λ with n boxes, the space with orthonormal basis
{v_T : T a standard tableau of shape λ} carries an irreducible
representation of H_n(q).  The generator g_i acts on v_T by

    q v_T                if i and i+1 share a row of T,
    -v_T                 if i and i+1 share a column of T,
    a 2x2 block          otherwise, on span{v_T, v_{s_i T}}.

The involutive generators f_i = (2 g_i - (q-1))/(q+1) act by +1, -1 and a
symmetric involution block respectively.  Every mixed pair {T, s_i T} is
handled once, anchored at the member whose axial distance d is positive
(then d >= 2), and the anchored f-block in (anchor, partner) order is

    [[-A, B], [B, A]],   A = (1 + q^d) / ((1+q) [d]_q),
                         B = 2 sqrt(q [d-1]_q [d+1]_q) / ((1+q) [d]_q),

with the principal square root, so B > 0 for real q > 0.  A^2 + B^2 = 1
identically, making the block a reflection.  Writing the entries in terms
of q-integers leaves no removable singularity at q = 1, where the f-form
degenerates to the classical orthogonal form of the symmetric group
(A -> 1/d); that limit is exposed as form "sym" and as q = 1.

Also here: the direct sum over all shapes of n (total dimension n!), and a
numeric rank certificate showing that the images of the n!/2 even words
span a space of full dimension n!/2, which pins down the dimension of the
even subalgebra.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import QPoint, Scalar, is_admissible, q_to_text
from .tableaux import (
    StandardTableau,
    YoungDiagram,
    apply_transposition,
    axial_distance,
    enumerate_diagrams,
    enumerate_standard_tableaux,
)

__all__ = [
    "FORMS",
    "RANK_THRESHOLD",
    "GAP_GUARD",
    "IndeterminateRankError",
    "Representation",
    "build_representation",
    "evaluate_word",
    "verify_relations",
    "direct_sum",
    "dimension_certificate",
    "numeric_rank",
    "nullspace",
    "sup_norm",
    "representation_to_jsonable",
]

FORMS = ("g", "f", "sym")

# Singular values below RANK_THRESHOLD * sigma_max count as zero; a ratio
# below GAP_GUARD between the smallest kept and largest dropped singular
# value means the rank cannot be read off reliably.
RANK_THRESHOLD = 1e-8
GAP_GUARD = 1e2


class IndeterminateRankError(RuntimeError):
    """Numeric rank is ambiguous: no clear gap in the singular spectrum."""


def sup_norm(matrix: np.ndarray) -> float:
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(matrix)))


def _guarded_rank(svals: np.ndarray, scale: float | None = None) -> int:
    """Number of singular values above RANK_THRESHOLD * scale.

    scale defaults to sigma_max of svals; a caller that has reduced a
    system to a subspace passes the largest singular value of the full
    system instead.  Raises IndeterminateRankError when the smallest kept
    and the largest dropped value are less than GAP_GUARD apart.
    """
    if scale is None:
        scale = svals[0] if svals.size else 0.0
    top = float(scale)
    if top == 0.0:
        return 0
    rank = int(np.sum(svals > RANK_THRESHOLD * top))
    if 0 < rank < svals.size:
        dropped = float(svals[rank])
        if dropped > 0.0 and float(svals[rank - 1]) / dropped < GAP_GUARD:
            raise IndeterminateRankError(
                f"singular values {svals[rank - 1]:.3e} and {dropped:.3e} "
                f"straddle the cutoff without a {GAP_GUARD:.0e} gap")
    return rank


# Block size of the Cholesky full-rank test and its norm.
_CHOLESKY_BLOCK = 256


def numeric_rank(matrix: np.ndarray) -> int:
    """Rank by singular values, refusing to guess near the threshold.

    A clearly full rank is read from the Gram matrix G of the short side
    (p x p, the long side having k entries) without its spectrum: forming
    G moves its eigenvalues by at most about (p + k) p eps lambda_max, and
    when that bound is at most 1e-2 GAP_GUARD RANK_THRESHOLD, p is
    returned if G - 2 GAP_GUARD RANK_THRESHOLD ||G||_1 I has a Cholesky
    factor.  ||G||_1 >= lambda_max, and the factor 2 covers the Cholesky
    backward error of about p^2 eps ||G||, so success means lambda_min >=
    GAP_GUARD RANK_THRESHOLD lambda_max: sigma_min / sigma_max is about
    1e-3 or more, and the SVD would return p without reaching the gap
    check.  Every other matrix goes to the SVD and _guarded_rank.
    """
    if matrix.size == 0:
        return 0
    short, long = sorted(matrix.shape)
    eps = np.finfo(matrix.dtype if matrix.dtype.kind in "fc" else float).eps
    if (short + long) * short * eps <= 1e-2 * GAP_GUARD * RANK_THRESHOLD:
        wide = matrix if matrix.shape[0] == short else matrix.T
        gram = wide @ wide.conj().T
        # ||G||_1 by column blocks, without a full-size |G| temporary
        norm1 = max(np.abs(gram[:, k:k + _CHOLESKY_BLOCK]).sum(axis=0).max()
                    for k in range(0, short, _CHOLESKY_BLOCK))
        gram.flat[::short + 1] -= 2 * GAP_GUARD * RANK_THRESHOLD * norm1
        if _has_cholesky_factor(gram):
            return short
        del gram        # freed before the SVD copies the matrix
    return _guarded_rank(np.linalg.svd(matrix, compute_uv=False))


def _has_cholesky_factor(gram: np.ndarray) -> bool:
    """Whether the Hermitian matrix gram has a Cholesky factor.

    Right-looking block Cholesky that overwrites the upper triangle of
    gram: np.linalg.cholesky runs on the diagonal blocks only, so the
    temporaries are a few block rows instead of the two full copies that
    np.linalg.cholesky of the whole matrix would hold beside it.
    """
    p = gram.shape[0]
    for k in range(0, p, _CHOLESKY_BLOCK):
        e = min(k + _CHOLESKY_BLOCK, p)
        try:
            factor = np.linalg.cholesky(gram[k:e, k:e])
        except np.linalg.LinAlgError:
            return False
        # L21^H = L11^{-1} A12; the trailing block loses L21 L21^H
        panel = np.linalg.solve(factor, gram[k:e, e:])
        for r in range(e, p, _CHOLESKY_BLOCK):
            c = r - e
            gram[r:r + _CHOLESKY_BLOCK, r:] -= \
                panel[:, c:c + _CHOLESKY_BLOCK].conj().T @ panel[:, c:]
    return True


def nullspace(matrix: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal rows v with matrix @ v = 0, by the numeric_rank rule.

    The SVD is taken of the square R factor of the matrix, which has the
    same singular values and right singular vectors; R is square only for
    systems with at least as many rows as columns, and every Hom-space
    system of alt_decompose is one.  scale is passed on to the rank rule.
    An all-zero system returns a full orthonormal basis.
    """
    if matrix.shape[0] < matrix.shape[1]:
        raise ValueError("nullspace needs at least as many rows as columns")
    _, svals, vh = np.linalg.svd(np.linalg.qr(matrix, mode="r"))
    # rows of vh are conjugate transposes of the right singular vectors
    return vh[_guarded_rank(svals, scale):].conj()


# ---------------------------------------------------------------------------
# entry formulas

def _qint_value(d: int, q):
    """[d]_q = 1 + q + ... + q^{d-1} for d >= 1, at a numeric q."""
    acc = q * 0 + 1
    power = acc
    for _ in range(d - 1):
        power = power * q
        acc = acc + power
    return acc


def _sqrt(value):
    # principal branch; exact nonnegative input stays a real float
    if isinstance(value, complex):
        return cmath.sqrt(value)
    if value >= 0:
        return math.sqrt(value)
    return cmath.sqrt(complex(value))


def _block_entries(d: int, q, form: str):
    """(anchor diagonal, partner diagonal, off-diagonal) for a mixed pair."""
    if form == "sym":
        eta = 1.0 / d
        return -eta, eta, math.sqrt(1.0 - eta * eta)
    ld = _qint_value(d, q)
    if form == "f":
        a = (1 + q ** d) / ((1 + q) * ld)
        b = 2 * _sqrt(q * _qint_value(d - 1, q) * _qint_value(d + 1, q)) \
            / ((1 + q) * ld)
        return -a, a, b
    # g-form
    return (-1 / ld, q ** d / ld,
            _sqrt(q * _qint_value(d - 1, q) * _qint_value(d + 1, q)) / ld)


def _diagonal_entry(same_row: bool, q, form: str):
    if form == "g":
        return q if same_row else -1
    return 1 if same_row else -1


# ---------------------------------------------------------------------------
# representations

@dataclass(frozen=True)
class Representation:
    """Generator matrices of one irreducible, on the canonical tableau basis.

    generator_matrices[i-1] is the matrix of the i-th generator (g_i, f_i,
    or the transposition s_i, depending on form), i = 1..n-1.  q_value is
    None for the symmetric-group form.
    """

    shape: YoungDiagram
    basis: tuple[StandardTableau, ...]
    generator_matrices: tuple[np.ndarray, ...]
    q_value: Scalar | None
    form: str

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def dim(self) -> int:
        return len(self.basis)


def _coerce_q(q, n: int):
    if isinstance(q, QPoint):
        q = q.value
    if isinstance(q, int):
        q = Fraction(q)
    if isinstance(q, Fraction) and q == 1:
        # the regularized limit point: every entry formula is finite here
        return q
    ok, reason = is_admissible(q, n)
    if not ok:
        raise ValueError(f"inadmissible q for n = {n}: {reason}")
    return q


def build_representation(shape: YoungDiagram, q, form: str = "f") -> Representation:
    """Build the generator matrices for shape at q.

    form "f" gives the involution generators, "g" the quadratic ones, and
    "sym" the symmetric-group orthogonal form (q is ignored and may be
    None).  q may be a QPoint, an exact Fraction (q = 1 meaning the
    regularized limit), a float, or a complex number.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if form == "sym":
        qv = None
    else:
        if q is None:
            raise ValueError("q is required for the g and f forms")
        qv = _coerce_q(q, shape.n)

    basis = tuple(enumerate_standard_tableaux(shape))
    index = {t.entries: k for k, t in enumerate(basis)}
    n, dim = shape.n, len(basis)
    use_complex = isinstance(qv, complex) or (qv is not None and qv < 0)
    dtype = np.complex128 if use_complex else np.float64

    matrices = []
    for i in range(1, n):
        mat = np.zeros((dim, dim), dtype=dtype)
        for k, t in enumerate(basis):
            partner = apply_transposition(t, i)
            if partner is None:
                row_i = t.position_of(i)[0]
                same_row = row_i == t.position_of(i + 1)[0]
                mat[k, k] = complex(_diagonal_entry(same_row, qv, form)) \
                    if use_complex else float(_diagonal_entry(same_row, qv, form))
            else:
                d = axial_distance(t, i, i + 1)
                if d < 0:
                    continue  # filled from the anchor side of the orbit
                b = index[partner.entries]
                anchor_diag, partner_diag, off = _block_entries(d, qv, form)
                if use_complex:
                    anchor_diag, partner_diag, off = (
                        complex(anchor_diag), complex(partner_diag), complex(off))
                else:
                    anchor_diag, partner_diag, off = (
                        float(anchor_diag), float(partner_diag), float(off))
                mat[k, k] = anchor_diag
                mat[b, b] = partner_diag
                mat[k, b] = off
                mat[b, k] = off
        mat.setflags(write=False)
        matrices.append(mat)
    return Representation(shape, basis, tuple(matrices), qv, form)


def evaluate_word(rep: Representation, word: Sequence[int]) -> np.ndarray:
    """Ordered product of generator matrices; the empty word is identity."""
    dtype = rep.generator_matrices[0].dtype if rep.generator_matrices \
        else np.float64
    acc = np.eye(rep.dim, dtype=dtype)
    for i in word:
        if not 1 <= i <= rep.n - 1:
            raise ValueError(f"generator index {i} out of range for n = {rep.n}")
        acc = acc @ rep.generator_matrices[i - 1]
    return acc


def verify_relations(rep: Representation, tol: float = 1e-10) -> dict:
    """Residuals of the defining relations for this representation's form.

    Relation classes: quadratic (involution for f/sym, the quadratic rule
    for g), braid (with the c^2 correction term for f), and distant
    commutation.  For the real symmetric forms, symmetry and orthogonality
    of the generator matrices are included.
    """
    mats = rep.generator_matrices
    dim = rep.dim
    eye = np.eye(dim, dtype=mats[0].dtype if mats else np.float64)
    qv = rep.q_value
    qn = None if qv is None else \
        (complex(qv) if isinstance(qv, complex) else float(qv))
    residuals: dict[str, float] = {}

    quad = 0.0
    for m in mats:
        if rep.form == "g":
            quad = max(quad, sup_norm(m @ m - (qn - 1) * m - qn * eye))
        else:
            quad = max(quad, sup_norm(m @ m - eye))
    residuals["quadratic"] = quad

    braid = 0.0
    if rep.form == "f":
        c = (qn - 1) / (qn + 1)
        c2 = c * c
    else:
        c2 = 0.0
    for i in range(len(mats) - 1):
        a, b = mats[i], mats[i + 1]
        braid = max(braid, sup_norm(a @ b @ a - b @ a @ b - c2 * (b - a)))
    residuals["braid"] = braid

    comm = 0.0
    for i in range(len(mats)):
        for j in range(i + 2, len(mats)):
            comm = max(comm, sup_norm(mats[i] @ mats[j] - mats[j] @ mats[i]))
    residuals["commuting"] = comm

    real_symmetric = rep.form == "sym" or (
        rep.form == "f" and qv is not None
        and not isinstance(qv, complex) and qv > 0)
    if real_symmetric:
        sym = max((sup_norm(m - m.T) for m in mats), default=0.0)
        orth = max((sup_norm(m.T @ m - eye) for m in mats), default=0.0)
        residuals["symmetric"] = sym
        residuals["orthogonal"] = orth

    worst = max(residuals.values(), default=0.0)
    return {
        "shape": rep.shape.text(),
        "form": rep.form,
        "q": None if qv is None else q_to_text(qv),
        "n": rep.n,
        "dim": dim,
        "tol": tol,
        "residuals": residuals,
        "max_residual": worst,
        "pass": worst < tol,
    }


def direct_sum(n: int, q, form: str = "f"):
    """One representation per shape of n, plus the total-dimension check."""
    reps = [build_representation(shape, q, form)
            for shape in enumerate_diagrams(n)]
    total = sum(rep.dim ** 2 for rep in reps)
    expected = math.factorial(n)
    checks = {"sum_dim_sq": total, "expected": expected,
              "pass": total == expected}
    return reps, checks


# ---------------------------------------------------------------------------
# dimension certificate for the even subalgebra

def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def dimension_certificate(n: int, q=Fraction(2)) -> dict:
    """Rank certificate: even words span a space of dimension n!/2.

    Walks all descent-vector words of even length, multiplies out their
    f-form images, and computes the numeric rank of the (n!/2)-row matrix
    of their entries.  Combined with the exact even-word count this pins
    the dimension of the even subalgebra from both sides.

    The columns are those of the direct sum of all irreducibles, reduced
    by transpose pairs.  On the transposed shape, rho'(f_i) = -E P rho(f_i)
    P^T E with P the tableau transpose and E = diag((-1)^l(T)), so an even
    word's image there is a signed permutation of its image on the shape.
    One shape per pair (the anchor of classify, with the larger rows)
    therefore stands for both with weight sqrt(2), and each self-conjugate
    shape keeps weight 1: the matrix M has the same M M^H as the full
    direct sum, hence the same singular values.  numeric_rank reads a
    clearly full rank from a Cholesky test of the Gram matrix and takes
    the SVD otherwise.

    Raises ValueError before allocating when the word matrix and the
    rank solve's peak would exceed physical memory.  The peak is bounded
    by a copy of the matrix beside the Gram matrix: the conjugate a
    complex Gram product is formed from, or, since the Gram matrix is
    freed first, the SVD's copy; the block Cholesky test adds only a few
    block rows to the Gram matrix.
    """
    if n < 2:
        raise ValueError("dimension_certificate needs n >= 2")
    blocks = [(build_representation(shape, q, "f"),
               1.0 if shape.is_self_conjugate else math.sqrt(2.0))
              for shape in enumerate_diagrams(n)
              if shape.is_self_conjugate
              or shape.rows > shape.transpose().rows]
    rows = math.factorial(n) // 2
    cols = sum(rep.dim ** 2 for rep, _ in blocks)
    dtype = np.result_type(*(rep.generator_matrices[0].dtype
                             for rep, _ in blocks))
    need = (2 * rows * cols + min(rows, cols) ** 2) * np.dtype(dtype).itemsize
    budget = _physical_memory()
    if budget is not None and need > budget:
        raise ValueError(
            f"the dimension certificate at n = {n} needs about "
            f"{need / 1e9:.1f} GB (a {rows} x {cols} word matrix and its "
            f"rank solve), more than the {budget / 1e9:.1f} GB of "
            f"physical memory")
    big = np.zeros((rows, cols), dtype=dtype)

    col = 0
    for rep, weight in blocks:
        dim = rep.dim
        mats = rep.generator_matrices
        row_counter = 0

        def walk(stage: int, mat: np.ndarray, parity: int) -> None:
            nonlocal row_counter
            if stage > n:
                if parity == 0:
                    big[row_counter, col:col + dim * dim] = weight * mat.ravel()
                    row_counter += 1
                return
            walk(stage + 1, mat, parity)
            cur = mat
            for d in range(1, stage):
                cur = cur @ mats[stage - d - 1]
                walk(stage + 1, cur, (parity + d) % 2)

        walk(2, np.eye(dim, dtype=dtype), 0)
        assert row_counter == rows
        col += dim * dim

    rank = numeric_rank(big)
    return {"even_words": rows, "rank": rank, "expected": rows,
            "pass": rank == rows}


# ---------------------------------------------------------------------------
# serialization

def _matrix_to_jsonable(matrix: np.ndarray) -> list:
    out = []
    for row in matrix:
        out.append([{"re": float(np.real(v)), "im": float(np.imag(v))}
                    for v in row])
    return out


def representation_to_jsonable(rep: Representation) -> dict:
    return {
        "shape": rep.shape.text(),
        "form": rep.form,
        "q": None if rep.q_value is None else q_to_text(rep.q_value),
        "n": rep.n,
        "dim": rep.dim,
        "basis": [t.text() for t in rep.basis],
        "generator_matrices": [_matrix_to_jsonable(m)
                               for m in rep.generator_matrices],
    }
