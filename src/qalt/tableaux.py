"""Young diagrams and their standard tableaux, in the canonical order
that every representation basis downstream is indexed by.

A diagram is a weakly decreasing tuple of positive row lengths; boxes are
addressed (row, column), 1-based.  A standard tableau is a filling with
1..n, strictly increasing along rows and down columns.  The matrix
constructions read each tableau's boxes, classes (column - row) and
axial distances off its entries, all at once per shape (see
hecke_rep._skeleton).

The canonical tableau order fixes the basis order everywhere downstream:
tableaux are sorted by the sequence of positions of n, n-1, ..., 2, with
positions compared as (row, column) pairs.

The fillings of each shape are computed once per process (_fillings is
memoized per row tuple, so every sub-shape of the recursion is filled
once) and are standard by construction; enumerate_standard_tableaux is
the one way to a StandardTableau, and a StandardTableau does not check
its entries.

>>> [d.text() for d in enumerate_diagrams(3)]
['3', '2,1', '1,1,1']
>>> [t.text() for t in enumerate_standard_tableaux(YoungDiagram((2, 1)))]
['1,3/2', '1,2/3']
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

__all__ = [
    "YoungDiagram",
    "StandardTableau",
    "enumerate_diagrams",
    "enumerate_standard_tableaux",
    "transpose",
    "parse_shape",
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
    """Standard filling of a Young diagram with 1..n, rows top to bottom.

    The entries are taken as they are: enumerate_standard_tableaux builds
    every StandardTableau from fillings standard by construction.
    """

    entries: tuple[tuple[int, ...], ...]

    def text(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.entries)

    def __str__(self) -> str:
        return self.text()


def transpose(x: YoungDiagram) -> YoungDiagram:
    """Transpose a diagram; an involution."""
    return x.transpose()


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
    by construction.
    """
    return [StandardTableau(f) for f in _fillings(shape.rows)]
