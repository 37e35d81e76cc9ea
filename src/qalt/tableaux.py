"""Young diagrams and standard tableaux, with the combinatorics the
representation matrices are built from.

A diagram is a weakly decreasing tuple of positive row lengths; boxes are
addressed (row, column), 1-based.  A standard tableau is a filling with
1..n, strictly increasing along rows and down columns.  Each entry k
carries a class alpha_k = column - row, and the axial distance between
entries k and l is alpha_k - alpha_l; these two numbers drive every 2x2
block in the matrix constructions.

The canonical tableau order fixes the basis order everywhere downstream:
tableaux are sorted by the sequence of positions of n, n-1, ..., 2, with
positions compared as (row, column) pairs.

The fillings of each shape are computed once per process (_fillings is
memoized per row tuple, so every sub-shape of the recursion is filled
once) and are standard by construction, so enumerate_standard_tableaux
wraps them without validating them again.  Every other way to a
StandardTableau (the constructor, parse_tableau, transpose,
apply_transposition) validates its entries.

>>> [d.text() for d in enumerate_diagrams(3)]
['3', '2,1', '1,1,1']
>>> [t.text() for t in enumerate_standard_tableaux(YoungDiagram((2, 1)))]
['1,3/2', '1,2/3']
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

__all__ = [
    "YoungDiagram",
    "StandardTableau",
    "enumerate_diagrams",
    "enumerate_standard_tableaux",
    "transpose",
    "axial_distance",
    "apply_transposition",
    "parse_shape",
    "parse_tableau",
]


@dataclass(frozen=True)
class YoungDiagram:
    """Partition of n as weakly decreasing row lengths."""

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("diagram needs at least one row")
        if any(r < 1 for r in rows):
            raise ValueError("row lengths must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("row lengths must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.rows)

    def transpose(self) -> "YoungDiagram":
        cols = tuple(sum(1 for r in self.rows if r >= j)
                     for j in range(1, self.rows[0] + 1))
        return YoungDiagram(cols)

    @property
    def is_self_conjugate(self) -> bool:
        return self.transpose() == self

    @property
    def is_transpose_anchor(self) -> bool:
        """True for the shape of each transpose pair with the larger rows,
        the first in enumerate_diagrams order, and for a self-conjugate
        shape: the one shape that stands for its pair."""
        return self.rows >= self.transpose().rows

    def corners(self) -> list[tuple[int, int]]:
        """Removable boxes (i, j), 1-based."""
        out = []
        for i, r in enumerate(self.rows, start=1):
            below = self.rows[i] if i < len(self.rows) else 0
            if r > below:
                out.append((i, r))
        return out

    def text(self) -> str:
        return ",".join(str(r) for r in self.rows)

    def __str__(self) -> str:
        return self.text()


def parse_shape(text: str) -> YoungDiagram:
    """Parse a diagram from text like "3,1"."""
    try:
        rows = tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise ValueError(f"cannot parse diagram from {text!r}") from None
    return YoungDiagram(rows)


def enumerate_diagrams(n: int) -> list[YoungDiagram]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def parts(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    return [YoungDiagram(p) for p in parts(n, n)]


@dataclass(frozen=True)
class StandardTableau:
    """Standard filling of a Young diagram with 1..n."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(int(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        shape = tuple(len(row) for row in entries)
        YoungDiagram(shape)  # validates partition shape
        n = sum(shape)
        values = [v for row in entries for v in row]
        if sorted(values) != list(range(1, n + 1)):
            raise ValueError("entries must be a bijection onto 1..n")
        for row in entries:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError("rows must increase left to right")
        for i in range(len(entries) - 1):
            for j in range(len(entries[i + 1])):
                if entries[i][j] >= entries[i + 1][j]:
                    raise ValueError("columns must increase top to bottom")

    @classmethod
    def _standard(cls, entries: tuple[tuple[int, ...], ...]):
        """Wrap entries known to be a standard filling, without validation."""
        t = object.__new__(cls)
        object.__setattr__(t, "entries", entries)
        return t

    @property
    def shape(self) -> YoungDiagram:
        return YoungDiagram(tuple(len(row) for row in self.entries))

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.entries)

    @cached_property
    def _positions(self) -> dict[int, tuple[int, int]]:
        # value -> (row, column), 1-based
        pos = {}
        for i, row in enumerate(self.entries, start=1):
            for j, v in enumerate(row, start=1):
                pos[v] = (i, j)
        return pos

    def position_of(self, k: int) -> tuple[int, int]:
        return self._positions[k]

    def class_of(self, k: int) -> int:
        """The class of entry k: column - row of its box."""
        i, j = self._positions[k]
        return j - i

    def transpose(self) -> "StandardTableau":
        cols = self.shape.transpose().rows
        new_rows = []
        for j in range(1, len(cols) + 1):
            new_rows.append(tuple(self.entries[i - 1][j - 1]
                                  for i in range(1, cols[j - 1] + 1)))
        return StandardTableau(tuple(new_rows))

    def text(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.entries)

    def __str__(self) -> str:
        return self.text()


def parse_tableau(text: str) -> StandardTableau:
    """Parse a tableau from text like "1,2/3"."""
    try:
        rows = tuple(tuple(int(v) for v in part.split(","))
                     for part in text.strip().split("/"))
    except ValueError:
        raise ValueError(f"cannot parse tableau from {text!r}") from None
    return StandardTableau(rows)


def transpose(x):
    """Transpose a diagram or a tableau; an involution either way."""
    return x.transpose()


def axial_distance(t: StandardTableau, k: int, l: int) -> int:
    """Difference of classes of entries k and l; antisymmetric in (k, l)."""
    return t.class_of(k) - t.class_of(l)


def apply_transposition(t: StandardTableau, i: int):
    """Swap entries i and i+1 if the result is standard, else None.

    The swap fails to be standard exactly when i and i+1 share a row or a
    column.
    """
    if not 1 <= i <= t.n - 1:
        raise ValueError(f"transposition index {i} out of range for n = {t.n}")
    ri, ci = t.position_of(i)
    rj, cj = t.position_of(i + 1)
    if ri == rj or ci == cj:
        return None
    rows = [list(row) for row in t.entries]
    rows[ri - 1][ci - 1] = i + 1
    rows[rj - 1][cj - 1] = i
    return StandardTableau(tuple(tuple(row) for row in rows))


@cache
def _fillings(shape: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # Remove the largest entry from a corner and recurse.  Memoized: one
    # entry per shape and sub-shape touched, each a standard filling.
    n = sum(shape)
    if n == 1:
        return (((1,),),)
    out = []
    diagram = YoungDiagram(shape)
    for i, j in diagram.corners():
        rows = list(shape)
        rows[i - 1] -= 1
        if rows[i - 1] == 0:
            rows.pop()
        for smaller in _fillings(tuple(rows)):
            grid = [list(row) for row in smaller]
            if i - 1 == len(grid):
                grid.append([])
            grid[i - 1].append(n)
            out.append(tuple(tuple(row) for row in grid))
    return tuple(out)


def enumerate_standard_tableaux(shape: YoungDiagram) -> list[StandardTableau]:
    """All standard tableaux of the given shape, in canonical order.

    The order (ascending by the position sequence of n, n-1, ..., 2) is
    frozen: every matrix and report downstream indexes its basis by it.
    _fillings yields it without a sort: it visits the corners, which lie
    in distinct rows, in ascending row order, so the position of n
    ascends, and by induction the fillings of each smaller shape come in
    the order of the positions of n-1, ..., 2.  The fillings are standard
    by construction and are not validated again.
    """
    return [StandardTableau._standard(f) for f in _fillings(shape.rows)]
