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

Only the block entries depend on q, and only through d.  Everything else
in a shape's matrices is its skeleton (_skeleton), built once per process
and shape: the tableau basis, the cells where i and i+1 share a row or a
column, the anchor/partner cells of each mixed pair with the index of
its d among the shape's distinct distances, the transpose witness, and
the connected components of the graph whose edges are the mixed pairs.
build_representation evaluates the two diagonal values and one block per
distinct d (memoized per process by _block_values) and fills the
skeleton's cells by index arrays.

Also here: the relation residuals of a representation, and a rank
certificate that the images of the n!/2 even words span a space of
dimension n!/2, which pins down the dimension of the even subalgebra.  It
is one verdict per square of the branching factorization
(_branching_squares): by singular values in floats, and where they fall
short, exactly mod a prime in Young's rational form (dimension_certificate).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache

import numpy as np

from .scalars import Scalar, exact_parts, is_admissible, q_to_text
from .tableaux import (
    StandardTableau,
    YoungDiagram,
    enumerate_diagrams,
    enumerate_standard_tableaux,
    transpose,
)

__all__ = [
    "FORMS",
    "RANK_THRESHOLD",
    "GAP_GUARD",
    "IndeterminateRankError",
    "Representation",
    "build_representation",
    "transpose_witness",
    "verify_relations",
    "dimension_certificate",
    "sup_norm",
    "representation_to_jsonable",
]

FORMS = ("g", "f", "sym")

# The rank rule: singular values below RANK_THRESHOLD * sigma_max count as
# zero, and a ratio below GAP_GUARD between the smallest kept and largest
# dropped one leaves the rank undecided.  The dimension certificate takes
# a square as nonsingular in floats when sigma_min / sigma_max is at least
# GAP_GUARD * RANK_THRESHOLD, where the rule reads full rank with room.
RANK_THRESHOLD = 1e-8
GAP_GUARD = 1e2


class IndeterminateRankError(RuntimeError):
    """A rank that neither the singular values nor exact arithmetic decide."""


def sup_norm(matrix: np.ndarray) -> float:
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(matrix)))


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


def _complex_entries(qv) -> bool:
    # negative q takes the square root of a negative number in the blocks
    return isinstance(qv, complex) or (qv is not None and qv < 0)


@lru_cache(maxsize=256, typed=True)
def _block_values(d: int, q, form: str, zero_signs) -> tuple:
    """_block_entries(d, q, form) cast to the matrix scalar, once per process.

    typed=True keeps Fraction(2) and 2.0 apart: they compare and hash
    equal, but the exact entries rounded once differ in the last bit from
    the float ones.  zero_signs, the signs of a complex q's parts, only
    keys the cache: == ignores the sign of a zero part, the square root's
    branch does not ((-2+0j) and (-2-0j) give B of opposite signs).  An
    entry that overflows comes back as inf.
    """
    cast = complex if _complex_entries(q) else float
    try:
        return tuple(map(cast, _block_entries(d, q, form)))
    except OverflowError:   # raised by a float or complex q^d
        return (math.inf,) * 3


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
    if isinstance(q, int):
        q = Fraction(q)
    if isinstance(q, Fraction) and q == 1:
        # the regularized limit point: every entry formula is finite here
        return q
    ok, reason = is_admissible(q, n)
    if not ok:
        raise ValueError(f"inadmissible q for n = {n}: {reason}")
    return q


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """What a shape's generator matrices hold independently of q and form.

    Cells are flat indices into the n-1 stacked dim x dim generator
    matrices, cell (i-1, k, l) of generator i.  same_row and same_column
    are the diagonal cells (i-1, k, k) where i and i+1 share a row or a
    column of basis[k].  Column j of blocks holds the cells (a, a), (b, b),
    (a, b), (b, a) of the j-th mixed pair of a generator i: a is the
    anchor, whose axial distance d of i and i+1 is positive, and b its
    partner s_i a; column j of pairs is (i - 1, a, b).  distances are the
    distinct d of the shape, ascending, and distance_index[j] is the
    position of the j-th pair's d in them.  Every array is read-only.

    branches lists (mu, start, stop) for each shape mu = shape minus the
    box of n, in basis order: the basis is sorted by the position of n
    first, so basis[start:stop] are the tableaux with n in that box, in
    the order of mu's basis, and on H_{n-1} the rows and columns
    start:stop carry mu's representation.
    """

    shape: YoungDiagram
    basis: tuple[StandardTableau, ...]
    distances: tuple[int, ...]
    same_row: np.ndarray
    same_column: np.ndarray
    blocks: np.ndarray
    pairs: np.ndarray
    distance_index: np.ndarray
    branches: tuple[tuple[YoungDiagram, int, int], ...]

    @cached_property
    def witness(self) -> tuple[np.ndarray, np.ndarray]:
        """(index, signs) of transpose_witness, from the entry tuples."""
        onto = _skeleton(transpose(self.shape))
        position = {t.entries: k for k, t in enumerate(onto.basis)}
        index, signs = [], []
        for t in self.basis:
            columns = tuple(tuple(row[j] for row in t.entries if len(row) > j)
                            for j in range(len(t.entries[0])))
            index.append(position[columns])
            signs.append(_reading_sign(columns))
        return (_read_only(np.array(index, dtype=np.intp)),
                _read_only(np.array(signs, dtype=float)))

    @cached_property
    def components(self) -> np.ndarray:
        """Component of each tableau in the graph of all mixed pairs."""
        return _read_only(_components(len(self.basis), *self.pairs[1:]))


def _components(dim: int, anchors, partners) -> np.ndarray:
    """Labels 0, 1, ... of the connected components of the graph on dim
    vertices with edges (anchors[j], partners[j]), in the order of their
    least vertices: a union-find whose roots are those least vertices."""
    root = list(range(dim))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for a, b in zip(anchors.tolist(), partners.tolist()):
        a, b = find(a), find(b)
        root[max(a, b)] = min(a, b)
    return np.unique([find(v) for v in range(dim)], return_inverse=True)[1]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@cache
def _skeleton(shape: YoungDiagram) -> _Skeleton:
    """The shape's skeleton, built once per process: one entry per shape."""
    basis = tuple(enumerate_standard_tableaux(shape))
    n, dim = shape.n, len(basis)
    # the box of each value v in each tableau, by row reading order
    box_row = np.repeat(np.arange(len(shape.rows)), shape.rows)
    box_col = np.concatenate([np.arange(r) for r in shape.rows])
    readings = np.array([[v for row in t.entries for v in row]
                         for t in basis], dtype=np.intp)
    box = np.argsort(readings, axis=1)      # box[k, v - 1]
    row, col = box_row[box], box_col[box]
    # [i - 1, k] for generator i: i and i+1 in basis[k]
    same_row = (row[:, :-1] == row[:, 1:]).T
    same_column = (col[:, :-1] == col[:, 1:]).T
    distance = ((col - row)[:, :-1] - (col - row)[:, 1:]).T
    gen, anchor = np.nonzero(~same_row & ~same_column & (distance > 0))
    # the partner s_i T: the row word of T with i and i+1 swapped
    position = {w: k for k, w in enumerate(map(tuple, row.tolist()))}
    words = row[anchor]
    picks = np.arange(len(anchor))
    words[picks, gen], words[picks, gen + 1] = \
        row[anchor, gen + 1], row[anchor, gen]
    partner = np.array([position[w] for w in map(tuple, words.tolist())],
                       dtype=np.intp)
    distances, distance_index = np.unique(distance[gen, anchor],
                                          return_inverse=True)

    def cells(g, k, l):
        return (g * dim + k) * dim + l

    def diagonal(mask):
        g, k = np.nonzero(mask)
        return _read_only(cells(g, k, k))

    blocks = np.stack([cells(gen, anchor, anchor), cells(gen, partner, partner),
                       cells(gen, anchor, partner), cells(gen, partner, anchor)])
    branches = []
    if n > 1:
        corner_rows, starts = np.unique(row[:, -1], return_index=True)
        for r, start, stop in zip(corner_rows, starts, [*starts[1:], dim]):
            rows = list(shape.rows)
            rows[r] -= 1
            branches.append((YoungDiagram(tuple(filter(None, rows))),
                             int(start), int(stop)))
    return _Skeleton(shape, basis, tuple(distances.tolist()),
                     diagonal(same_row), diagonal(same_column),
                     _read_only(blocks),
                     _read_only(np.stack([gen, anchor, partner])),
                     _read_only(distance_index),
                     tuple(branches))


def build_representation(shape: YoungDiagram, q, form: str = "f") -> Representation:
    """Build the generator matrices for shape at q.

    form "f" gives the involution generators, "g" the quadratic ones, and
    "sym" the symmetric-group orthogonal form (q is ignored and may be
    None).  q may be an exact Fraction or int (q = 1 meaning the
    regularized limit), a float, or a complex number.  The shape's
    skeleton (_skeleton) is refilled with the two diagonal values and one
    block of entries per distinct axial distance; the matrices are
    read-only.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if form == "sym":
        qv = None
    else:
        if q is None:
            raise ValueError("q is required for the g and f forms")
        qv = _coerce_q(q, shape.n)

    skeleton = _skeleton(shape)
    n, dim = shape.n, len(skeleton.basis)
    use_complex = _complex_entries(qv)
    dtype = np.complex128 if use_complex else np.float64
    cast = complex if use_complex else float
    same_row, same_column = (cast(_diagonal_entry(same, qv, form))
                             for same in (True, False))
    zero_signs = (math.copysign(1, qv.real), math.copysign(1, qv.imag)) \
        if isinstance(qv, complex) else None
    blocks = np.array([_block_values(d, qv, form, zero_signs)
                       for d in skeleton.distances], dtype=dtype).reshape(-1, 3)
    # B overflows at large q before q^d does
    if not np.isfinite(blocks).all():
        raise OverflowError(
            f"a seminormal entry is not finite at "
            f"q = {q_to_text(qv)}, n = {n}")

    stacked = np.zeros((n - 1, dim, dim), dtype=dtype)
    flat = stacked.reshape(-1)
    flat[skeleton.same_row] = same_row
    flat[skeleton.same_column] = same_column
    # anchor diagonal, partner diagonal and the off-diagonal twice
    flat[skeleton.blocks] = blocks[skeleton.distance_index][:, [0, 1, 2, 2]].T
    return Representation(shape, skeleton.basis, tuple(_read_only(stacked)),
                          qv, form)


def _reading_sign(entries: tuple[tuple[int, ...], ...]) -> int:
    """(-1)^(inversions of the row reading word of a tableau's entries)."""
    word = [v for row in entries for v in row]
    inversions = sum(a > b for k, a in enumerate(word) for b in word[k + 1:])
    return -1 if inversions % 2 else 1


def transpose_witness(rep: Representation,
                      onto: Representation) -> tuple[np.ndarray, np.ndarray]:
    """The signed permutation X with onto(f_i) X = -X rep(f_i) for all i.

    onto is rep's form (f or sym) on the transposed shape at the same q.
    Column k of X is signs[k] times onto's basis vector index[k], the
    transpose of rep's k-th tableau; signs[k] is the reading sign
    (-1)^(inversions of the row reading word) of that tableau.  The
    anchoring rule fixes the sign: transposing negates axial distances,
    so anchor and partner trade places (A and -A swap), B keeps its value
    and branch, and s_i flips the reading sign.  X thus intertwines the
    even subalgebra's restrictions exactly.  For a self-conjugate shape
    (onto = rep), X^2 = eps I with eps = signs[k] signs[index[k]] for all k.
    X depends on the shape only: both arrays are the skeleton's, computed
    once per process and read-only.
    """
    if (rep.form == "g" or onto.form != rep.form
            or onto.shape != transpose(rep.shape)):
        raise ValueError(
            f"no transpose witness from the {rep.form}-form of "
            f"{rep.shape.text()} to the {onto.form}-form of "
            f"{onto.shape.text()}")
    return _skeleton(rep.shape).witness


# products that overflow at an extreme q leave inf or nan in the residuals
@np.errstate(over="ignore", invalid="ignore")
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


# ---------------------------------------------------------------------------
# dimension certificate for the even subalgebra

# Primes p = 1 mod 4 below 2^21, each with a square root of -1 mod p: a
# product of two residues stays below 2^42, so int64 sums of them are
# exact, and a Gaussian rational q has a residue through i -> root.
_PRIMES = ((2097133, 498487), (2097097, 1012280), (2097041, 713535),
           (2097013, 296876))


def _branching_squares(m: int, q, p: int | None = None) -> dict:
    """The square S_mu of each shape mu of m-1, keyed by mu: in the f-form
    at q, or, given a prime p, in _rational_generators(shape, q, p).

    Write F_m for the matrix of all m! descent-vector words of H_m, one
    row per word, against every shape of m.  A word of level m is h c, h
    a word of level m-1 and c one of the m coset factors 1, f_{m-1},
    f_{m-1} f_{m-2}, ..., f_{m-1} ... f_1.  On the seminormal basis
    rho_lambda(h) is block diagonal, one block rho_mu(h) per mu = lambda
    minus a box (_Skeleton.branches), so
    rho_lambda(h c)[k, l] = sum_j rho_mu(h)[k, j] rho_lambda(c)[T_j, l],
    T_j the tableau of lambda that restricts to mu's j-th one.  Hence
    F_m = (I_m (x) F_{m-1}) K_m up to permutations, with K_m the direct
    sum over mu of d_mu copies of S_mu: rows (c, j), columns (lambda, l)
    and entries rho_lambda(c)[T_j, l].  S_mu is square because the lambda
    above mu have sum d_lambda = m d_mu.  So F_n, F_1 = (1), is
    nonsingular exactly when every S_mu of every level m = 2..n is.
    """
    squares = {mu: [] for mu in enumerate_diagrams(m - 1)}
    for shape in enumerate_diagrams(m):
        mats = build_representation(shape, q, "f").generator_matrices \
            if p is None else _rational_generators(shape, q, p)
        cosets = [np.eye(len(mats[0]), dtype=mats[0].dtype)]
        for f in reversed(mats):
            product = cosets[-1] @ f
            cosets.append(product if p is None else product % p)
        cosets = np.stack(cosets)
        for mu, start, stop in _skeleton(shape).branches:
            squares[mu].append(cosets[:, start:stop])
    return {mu: np.concatenate(parts, axis=2).reshape(-1, m * len(parts[0][0]))
            for mu, parts in squares.items()}


def _rational_generators(shape: YoungDiagram, q: int, p: int) -> np.ndarray:
    """The stacked f_i of shape in Young's rational form, mod p.

    q is q's residue mod p.  The diagonal is that of the f-form, and on
    each mixed pair the block in (anchor, partner) order is
    [[-A, 1], [1 - A^2, A]], the f-form's [[-A, B], [B, A]] with the
    partner scaled by 1/B (1 - A^2 = B^2).  The rule is local, as in the
    f-form, so these matrices are the f-form conjugated by one diagonal
    matrix per shape (Young's rational form; Hoefsmit 1974 for H_n(q)),
    and their branching squares are nonsingular exactly when the
    f-form's are.
    """
    skeleton = _skeleton(shape)
    dim = len(skeleton.basis)
    a = np.array([(1 + pow(q, d, p)) * pow((1 + q) * _qint_value(d, q), -1, p)
                  % p for d in skeleton.distances], dtype=np.int64)
    blocks = np.stack([-a % p, a, np.ones_like(a), (1 - a * a) % p], axis=1)
    stacked = np.zeros((shape.n - 1, dim, dim), dtype=np.int64)
    flat = stacked.reshape(-1)
    flat[skeleton.same_row] = 1
    flat[skeleton.same_column] = p - 1
    flat[skeleton.blocks] = blocks[skeleton.distance_index].T
    return stacked


def _residues(n: int, q):
    """(p, residue of q) for each prime of _PRIMES that suits q at n.

    q's exact value, a Gaussian rational for a complex q, maps to F_p
    with i -> the prime's root of -1.  A prime is skipped where a
    denominator of q, q itself, 1 + q or some [d]_q, d <= n, vanishes
    mod p: the entries of _rational_generators need those inverses.
    """
    x, y, b = exact_parts(q)
    for p, root in _PRIMES:
        # b^(p-2) is 1/b mod p, and 0 for a denominator that skips p
        r = (x + root * y) * pow(b, p - 2, p) % p
        if b % p and all(
                r * (1 + r) * _qint_value(d, r) % p for d in range(2, n + 1)):
            yield p, r


def _nonsingular_mod(matrix: np.ndarray, p: int) -> bool:
    """Whether a square int64 matrix with entries in [0, p) is invertible
    mod the prime p, by Gaussian elimination with row swaps.

    Only the pivot column and row are reduced mod p at each step; the
    rest of the block grows by less than p^2 < 2^42 per step, so int64
    holds it exactly below 2^21 rows.
    """
    a = matrix.copy()
    for k in range(len(a)):
        column = a[k:, k] % p
        pivots = np.flatnonzero(column)
        if not pivots.size:
            return False
        r = int(pivots[0])
        a[[k, k + r], k:] = a[[k + r, k], k:]
        column[[0, r]] = column[[r, 0]]
        row = a[k, k + 1:] % p * pow(int(column[0]), -1, p) % p
        a[k + 1:, k + 1:] -= np.multiply.outer(column[1:], row)
    return True


def dimension_certificate(n: int, q=Fraction(2)) -> dict:
    """Rank certificate: even words span a space of dimension n!/2.

    The certified rank is that of the (n!/2)-row matrix of the f-form
    images of all descent-vector words of even length on all shapes.
    Combined with the exact even-word count this pins the dimension of
    the even subalgebra from both sides.  These are the even rows of
    F_n (_branching_squares), so they have full rank n!/2 when F_n is
    nonsingular, that is when every square S_mu is, mu a shape of m-1
    for m = 2..n.  The word matrix of one shape per transpose pair,
    weighted sqrt(2), and of each self-conjugate shape has the same
    M M^H as these rows (the even word images on lambda' are X W X^T,
    X of transpose_witness), so the same rank.

    Each square gets its own verdict.  In floats it passes when
    sigma_min / sigma_max >= GAP_GUARD RANK_THRESHOLD = 1e-6.  A square
    below that is built again in Young's rational form at q's exact
    value (a float is a dyadic rational), reduced mod each prime of
    _PRIMES that suits q (_residues), and passes when it is invertible
    mod one of them: its determinant is then nonzero, a proof.  Every
    admissible q makes H_n(q) semisimple, so the true rank is n!/2; a
    square singular mod every prime raises IndeterminateRankError,
    naming n, q and mu.
    """
    if n < 2:
        raise ValueError("dimension_certificate needs n >= 2")
    for m in range(2, n + 1):
        pending = []
        for mu, square in _branching_squares(m, q).items():
            svals = np.linalg.svd(square, compute_uv=False)
            if svals[-1] < GAP_GUARD * RANK_THRESHOLD * svals[0]:
                pending.append(mu)
        if pending:
            qv = _coerce_q(q, n)
            for p, r in _residues(n, qv):
                exact = _branching_squares(m, r, p)
                pending = [mu for mu in pending
                           if not _nonsingular_mod(exact[mu], p)]
                if not pending:
                    break
            else:
                raise IndeterminateRankError(
                    f"the branching square of {pending[0].text()} at n = {n}, "
                    f"q = {q_to_text(qv)} is below 1e-06 in floats and "
                    f"singular mod every prime tried")
    rows = math.factorial(n) // 2
    return {"even_words": rows, "rank": rows, "expected": rows, "pass": True}


# ---------------------------------------------------------------------------
# serialization

def representation_to_jsonable(rep: Representation) -> dict:
    """The CLI report of one representation; each generator matrix is a
    complex ndarray, also in a real form."""
    return {
        "shape": rep.shape.text(),
        "form": rep.form,
        "q": None if rep.q_value is None else q_to_text(rep.q_value),
        "n": rep.n,
        "dim": rep.dim,
        "basis": [t.text() for t in rep.basis],
        "generator_matrices": [np.asarray(m, dtype=complex)
                               for m in rep.generator_matrices],
    }
