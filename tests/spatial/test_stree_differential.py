"""Differential tests: the flat S-tree against two independent answers.

Ids are checked against :class:`LinearScanMatcher` (points) and a brute
force overlap scan (regions).  The per-query work counters are checked
against :func:`reference_descent`, a node-at-a-time recursive descent
that reads only the tree's structure (``_ref``, ``_is_leaf``,
``_count``) and derives every MBR from the original rectangles, so a
wrong slab, pad row or counter in the level-synchronous loop shows up.

The generator over-samples the cases the half-open ``(low, high]``
semantics make delicate: query coordinates on rectangle endpoints and
their ``nextafter`` neighbours, infinite rays and coordinates,
zero-width intervals, duplicate rectangles, 1-D and 6-D tables, tiny
branch factors (deep, unbalanced trees) and one-rectangle trees whose
root is a leaf.  Set ``HYPOTHESIS_PROFILE=ci`` for a longer run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import LinearScanMatcher, STree, STreeParams

# An empty interval at infinity, e.g. ``(-inf, -inf]``, has a packing
# volume of 0 * inf during binarization; the NaN only weakens that
# split's score, and the ids and counters below are still checked.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"
)

GRID = [-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]
coordinate = st.one_of(
    st.sampled_from(GRID),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
low_end = st.one_of(coordinate, st.just(-np.inf))
high_end = st.one_of(coordinate, st.just(np.inf))


@st.composite
def tables(draw):
    """``(lows, highs, params)`` for a 1-D to 6-D table."""
    ndim = draw(st.sampled_from([1, 2, 3, 6]))
    k = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=60)))
    lows = np.empty((k, ndim))
    highs = np.empty((k, ndim))
    for i in range(k):
        if i and draw(st.integers(0, 4)) == 0:  # duplicate an earlier row
            j = draw(st.integers(0, i - 1))
            lows[i], highs[i] = lows[j], highs[j]
            continue
        for d in range(ndim):
            a, b = draw(low_end), draw(high_end)
            lows[i, d], highs[i, d] = min(a, b), max(a, b)
            if draw(st.integers(0, 9)) == 0:  # zero-width interval
                highs[i, d] = lows[i, d]
    params = STreeParams(
        branch_factor=draw(st.integers(min_value=2, max_value=5))
    )
    return lows, highs, params


@st.composite
def query_coordinates(draw, lows, highs):
    """One coordinate per axis, mostly on or next to an endpoint."""
    point = []
    for d in range(lows.shape[1]):
        endpoints = np.concatenate([lows[:, d], highs[:, d]])
        base = float(draw(st.sampled_from(endpoints.tolist())))
        kind = draw(st.sampled_from(["on", "below", "above", "inf", "any"]))
        if kind == "below":
            base = float(np.nextafter(base, -np.inf))
        elif kind == "above":
            base = float(np.nextafter(base, np.inf))
        elif kind == "inf":
            base = draw(st.sampled_from([-np.inf, np.inf]))
        elif kind == "any":
            base = draw(coordinate)
        point.append(base)
    return np.array(point)


@st.composite
def point_cases(draw):
    lows, highs, params = draw(tables())
    points = draw(
        st.lists(query_coordinates(lows, highs), min_size=1, max_size=8)
    )
    return lows, highs, params, np.array(points)


@st.composite
def region_cases(draw):
    lows, highs, params = draw(tables())
    regions = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        a = draw(query_coordinates(lows, highs))
        b = draw(query_coordinates(lows, highs))
        regions.append((np.minimum(a, b), np.maximum(a, b)))
    return lows, highs, params, regions


def contains(lo, hi, point):
    return bool(np.all((lo < point) & (point <= hi)))


def region_overlaps(q_lo, q_hi):
    return lambda lo, hi: bool(
        np.all(np.maximum(lo, q_lo) < np.minimum(hi, q_hi))
    )


def reference_descent(tree, lows, highs, test, node=0):
    """Recursive node-at-a-time descent: ``(ids, [nodes, leaves, entries])``.

    Ids are row indices into ``lows``/``highs``; every MBR is recomputed
    from the rectangles under it instead of read from the slabs.
    """
    count = int(tree._count[node])
    slots = tree._ref[node, :count].tolist()
    if tree._is_leaf[node]:
        ids = [i for i in slots if test(lows[i], highs[i])]
        return ids, [0, 1, count]
    ids, work = [], [1, 0, 0]
    for child in slots:
        under = subtree_ids(tree, child)
        if test(lows[under].min(axis=0), highs[under].max(axis=0)):
            child_ids, child_work = reference_descent(
                tree, lows, highs, test, child
            )
            ids += child_ids
            work = [a + b for a, b in zip(work, child_work)]
    return sorted(ids), work


def subtree_ids(tree, node):
    count = int(tree._count[node])
    slots = tree._ref[node, :count].tolist()
    if tree._is_leaf[node]:
        return slots
    return [i for child in slots for i in subtree_ids(tree, child)]


def work_of(stats):
    return [stats.nodes_visited, stats.leaves_visited, stats.entries_tested]


def delta(after, before):
    return [a - b for a, b in zip(after, before)]


@settings(deadline=None)
@given(point_cases())
def test_match_equals_linear_scan_and_reference(case):
    lows, highs, params, points = case
    tree = STree.build(lows, highs, params=params)
    linear = LinearScanMatcher.build(lows, highs)
    assert sorted(subtree_ids(tree, 0)) == list(range(len(lows)))
    for point in points:
        before = work_of(tree.stats)
        ids = tree.match(point)
        assert ids == linear.match(point)
        expected_ids, expected_work = reference_descent(
            tree, lows, highs, lambda lo, hi: contains(lo, hi, point)
        )
        assert ids == expected_ids
        assert delta(work_of(tree.stats), before) == expected_work
    assert tree.stats.queries == len(points)


@settings(deadline=None)
@given(point_cases())
def test_match_many_equals_linear_scan_and_reference(case):
    lows, highs, params, points = case
    tree = STree.build(lows, highs, params=params)
    linear = LinearScanMatcher.build(lows, highs)
    assert tree.match_many(points) == linear.match_many(points)
    expected_work = [0, 0, 0]
    for point in points:
        _, work = reference_descent(
            tree, lows, highs, lambda lo, hi: contains(lo, hi, point)
        )
        expected_work = [a + b for a, b in zip(expected_work, work)]
    assert work_of(tree.stats) == expected_work


@settings(deadline=None)
@given(region_cases())
def test_region_query_equals_brute_force_and_reference(case):
    lows, highs, params, regions = case
    tree = STree.build(lows, highs, params=params)
    for q_lo, q_hi in regions:
        brute = np.all(
            np.maximum(lows, q_lo) < np.minimum(highs, q_hi), axis=1
        )
        before = work_of(tree.stats)
        ids = tree.region_query(q_lo, q_hi)
        assert ids == np.flatnonzero(brute).tolist()
        expected_ids, expected_work = reference_descent(
            tree, lows, highs, region_overlaps(q_lo, q_hi)
        )
        assert ids == expected_ids
        assert delta(work_of(tree.stats), before) == expected_work


def test_one_rectangle_root_is_a_leaf():
    tree = STree.build(np.array([[0.0, -np.inf]]), np.array([[1.0, 2.0]]))
    assert tree.shape().leaf_nodes == 1 and tree.shape().height == 0
    assert tree.match([1.0, -np.inf]) == []
    assert tree.match([1.0, -1e300]) == [0]
    assert tree.match([np.nan, 0.0]) == []
    assert work_of(tree.stats) == [0, 3, 3]
