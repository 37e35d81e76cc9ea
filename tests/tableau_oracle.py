"""Tableau combinatorics entry by entry, as a reference for the tests.

The package reads every tableau's boxes, classes and axial distances at
once per shape (hecke_rep._skeleton) and builds its tableaux only from
fillings that are standard by construction.  The functions here do the
same one tableau and one entry at a time, and `tableau` checks that its
entries are a standard filling: they are the reference of the per-entry
matrix build and of the enumeration order in the tests.
"""

from qalt.tableaux import StandardTableau, YoungDiagram


def tableau(entries) -> StandardTableau:
    """entries as a StandardTableau, or ValueError unless they are a
    standard filling of a diagram with 1..n."""
    entries = tuple(tuple(int(v) for v in row) for row in entries)
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
    return StandardTableau(entries)


def parse_tableau(text: str) -> StandardTableau:
    """Parse a tableau from text like "1,2/3"."""
    try:
        rows = tuple(tuple(int(v) for v in part.split(","))
                     for part in text.strip().split("/"))
    except ValueError:
        raise ValueError(f"cannot parse tableau from {text!r}") from None
    return tableau(rows)


def position_of(t: StandardTableau, k: int) -> tuple[int, int]:
    """The box (row, column) of entry k, 1-based."""
    for i, row in enumerate(t.entries, start=1):
        if k in row:
            return i, row.index(k) + 1
    raise KeyError(k)


def class_of(t: StandardTableau, k: int) -> int:
    """The class of entry k: column - row of its box."""
    i, j = position_of(t, k)
    return j - i


def axial_distance(t: StandardTableau, k: int, l: int) -> int:
    """Difference of classes of entries k and l; antisymmetric in (k, l)."""
    return class_of(t, k) - class_of(t, l)


def transpose_tableau(t: StandardTableau) -> StandardTableau:
    """The tableau reflected in its main diagonal."""
    columns = YoungDiagram(tuple(len(row) for row in t.entries)).transpose()
    return tableau(tuple(t.entries[i][j] for i in range(length))
                   for j, length in enumerate(columns.rows))


def apply_transposition(t: StandardTableau, i: int):
    """Swap entries i and i+1 if the result is standard, else None.

    The swap fails to be standard exactly when i and i+1 share a row or a
    column.
    """
    n = sum(len(row) for row in t.entries)
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} out of range for n = {n}")
    ri, ci = position_of(t, i)
    rj, cj = position_of(t, i + 1)
    if ri == rj or ci == cj:
        return None
    rows = [list(row) for row in t.entries]
    rows[ri - 1][ci - 1] = i + 1
    rows[rj - 1][cj - 1] = i
    return tableau(rows)
