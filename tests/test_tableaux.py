"""Tests for diagrams and standard tableaux, and for the per-entry
tableau combinatorics the tests use as a reference."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tableau_oracle import (
    apply_transposition,
    axial_distance,
    parse_tableau,
    position_of,
    tableau,
    transpose_tableau,
)

from qalt.tableaux import (
    YoungDiagram,
    enumerate_diagrams,
    enumerate_standard_tableaux,
    parse_shape,
    transpose,
)


# -- oracles ------------------------------------------------------------------

def brute_force_standard_fillings(rows):
    """All standard fillings by filtering every permutation of 1..n."""
    n = sum(rows)
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    found = []
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {}
        for cell, value in zip(cells, perm):
            grid[cell] = value
        ok = all(grid[(i, j)] < grid[(i, j + 1)]
                 for (i, j) in cells if (i, j + 1) in grid)
        ok = ok and all(grid[(i, j)] < grid[(i + 1, j)]
                        for (i, j) in cells if (i + 1, j) in grid)
        if ok:
            found.append(tuple(tuple(grid[(i, j)] for j in range(r))
                               for i, r in enumerate(rows)))
    return found


def hook_length_count(rows):
    """Tableau count n! / prod(hooks), an independent closed form."""
    n = sum(rows)
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    prod = 1
    for i, r in enumerate(rows):
        for j in range(r):
            prod *= (r - j) + (cols[j] - i) - 1
    return math.factorial(n) // prod


@st.composite
def partitions(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = []
    remaining, cap = n, n
    while remaining:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        rows.append(part)
        cap = part
        remaining -= part
    return YoungDiagram(tuple(rows))


# -- diagrams -----------------------------------------------------------------

def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
    with pytest.raises(ValueError):
        YoungDiagram(())


def test_enumerate_diagrams_counts():
    # partition numbers p(1)..p(8)
    expected = [1, 2, 3, 5, 7, 11, 15, 22]
    assert [len(enumerate_diagrams(n)) for n in range(1, 9)] == expected


def test_enumerate_diagrams_order_and_text():
    assert [d.text() for d in enumerate_diagrams(3)] == ["3", "2,1", "1,1,1"]
    assert [d.text() for d in enumerate_diagrams(4)] == [
        "4", "3,1", "2,2", "2,1,1", "1,1,1,1"]


@given(partitions())
def test_transpose_involution(shape):
    assert transpose(transpose(shape)) == shape
    assert transpose(shape).n == shape.n


def test_self_conjugate_detection():
    assert parse_shape("2,1").is_self_conjugate
    assert parse_shape("3,1,1").is_self_conjugate
    assert not parse_shape("3,1").is_self_conjugate


def test_transpose_anchor_is_first_of_its_pair_in_enumeration_order():
    for n in range(1, 13):
        first = set()
        for shape in enumerate_diagrams(n):
            if transpose(shape) not in first:
                first.add(shape)
        assert {shape for shape in enumerate_diagrams(n)
                if shape.is_transpose_anchor} == first


def test_parse_shape_round_trip():
    for text in ("3,1", "2,2", "1,1,1,1", "7"):
        assert parse_shape(text).text() == text
    with pytest.raises(ValueError):
        parse_shape("1,2")
    with pytest.raises(ValueError):
        parse_shape("")


# -- standard tableaux ---------------------------------------------------------

def test_tableau_validation():
    with pytest.raises(ValueError):
        tableau(((1, 3), (2, 4), (5, 5)))  # not a bijection
    with pytest.raises(ValueError):
        tableau(((2, 1), (3,)))  # row not increasing
    with pytest.raises(ValueError):
        tableau(((1, 2), (4,), (3,)))  # column not increasing


def test_enumeration_matches_brute_force():
    for rows in [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1)]:
        got = {t.entries for t in
               enumerate_standard_tableaux(YoungDiagram(rows))}
        assert got == set(brute_force_standard_fillings(rows))


@given(partitions(max_n=7))
@settings(max_examples=40, deadline=None)
def test_enumeration_count_matches_hook_lengths(shape):
    assert len(enumerate_standard_tableaux(shape)) == hook_length_count(shape.rows)


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 8):
        total = sum(len(enumerate_standard_tableaux(d)) ** 2
                    for d in enumerate_diagrams(n))
        assert total == math.factorial(n)


def test_canonical_order_pinned():
    assert [t.text() for t in enumerate_standard_tableaux(parse_shape("2,1"))] \
        == ["1,3/2", "1,2/3"]
    assert [t.text() for t in enumerate_standard_tableaux(parse_shape("2,2"))] \
        == ["1,3/2,4", "1,2/3,4"]
    assert [t.text() for t in enumerate_standard_tableaux(parse_shape("3,1"))] \
        == ["1,3,4/2", "1,2,4/3", "1,2,3/4"]


def test_enumeration_order_is_sorted_by_positions_of_n_down_to_2():
    # the canonical order comes out of the corner recursion without a sort
    for n in range(1, 9):
        for shape in enumerate_diagrams(n):
            tabs = enumerate_standard_tableaux(shape)
            assert tabs == sorted(tabs, key=lambda t: tuple(
                position_of(t, v) for v in range(n, 1, -1)))


def test_enumerated_tableaux_pass_validation():
    # the memoized fillings are not checked as they are wrapped; each must
    # still be a standard tableau, and a caller's list is its own
    for n in range(1, 9):
        for shape in enumerate_diagrams(n):
            tabs = enumerate_standard_tableaux(shape)
            assert [tableau(t.entries) for t in tabs] == tabs
            tabs.clear()
            assert len(enumerate_standard_tableaux(shape)) == \
                hook_length_count(shape.rows)


def test_parse_tableau_round_trip():
    t = parse_tableau("1,3/2,4")
    assert t.entries == ((1, 3), (2, 4))
    assert t.text() == "1,3/2,4"
    with pytest.raises(ValueError):
        parse_tableau("1,1/2")


@given(partitions(max_n=6))
@settings(max_examples=30, deadline=None)
def test_tableau_transpose_is_bijection(shape):
    tabs = enumerate_standard_tableaux(shape)
    flipped = {t.entries for t in map(transpose_tableau, tabs)}
    expected = {t.entries for t in enumerate_standard_tableaux(transpose(shape))}
    assert flipped == expected


# -- axial distance and adjacent swaps -----------------------------------------

def test_axial_distance_signs():
    t = parse_tableau("1,2/3")
    assert axial_distance(t, 1, 2) == -1   # same row
    assert axial_distance(t, 2, 3) == 2    # mixed pair
    assert axial_distance(t, 3, 2) == -2
    u = parse_tableau("1,3/2")
    assert axial_distance(u, 1, 2) == 1    # same column


def test_axial_distance_adjacent_never_small_when_mixed():
    # for every tableau with n <= 7: same row gives -1, same column +1,
    # and a swappable pair always has |distance| >= 2
    for n in range(2, 8):
        for shape in enumerate_diagrams(n):
            for t in enumerate_standard_tableaux(shape):
                for i in range(1, n):
                    d = axial_distance(t, i, i + 1)
                    other = apply_transposition(t, i)
                    if other is None:
                        assert d in (-1, 1)
                    else:
                        assert abs(d) >= 2


def test_axial_distance_flips_under_transpose():
    for n in range(2, 7):
        for shape in enumerate_diagrams(n):
            for t in enumerate_standard_tableaux(shape):
                tt = transpose_tableau(t)
                for i in range(1, n):
                    assert axial_distance(tt, i, i + 1) == \
                        -axial_distance(t, i, i + 1)


def test_apply_transposition_involution():
    for shape in enumerate_diagrams(5):
        for t in enumerate_standard_tableaux(shape):
            for i in range(1, 5):
                other = apply_transposition(t, i)
                if other is not None:
                    assert other.entries != t.entries
                    back = apply_transposition(other, i)
                    assert back is not None and back.entries == t.entries


def test_apply_transposition_range_check():
    t = parse_tableau("1,2/3")
    with pytest.raises(ValueError):
        apply_transposition(t, 0)
    with pytest.raises(ValueError):
        apply_transposition(t, 3)
