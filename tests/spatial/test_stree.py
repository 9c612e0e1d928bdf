"""Unit tests for the S-tree."""

import math

import numpy as np
import pytest

from repro.core import SubscriptionTable
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.geometry import Interval, Rectangle
from repro.io import canonical_digest
from repro.spatial import LinearScanMatcher, STree, STreeParams
from repro.spatial.stree import TreeShape
from repro.workload.subscriptions import StockSubscriptionGenerator


def brute_force(lows, highs, point):
    mask = np.all((lows < point) & (point <= highs), axis=1)
    return sorted(np.flatnonzero(mask).tolist())


class TestParams:
    def test_defaults_match_paper(self):
        params = STreeParams()
        assert params.branch_factor == 40
        assert params.skew_factor == pytest.approx(0.3)
        assert params.effective_sweep_increment == 40

    def test_branch_factor_validation(self):
        with pytest.raises(ValueError):
            STreeParams(branch_factor=1)

    def test_skew_factor_range(self):
        STreeParams(skew_factor=0.5)  # boundary is legal
        with pytest.raises(ValueError):
            STreeParams(skew_factor=0.0)
        with pytest.raises(ValueError):
            STreeParams(skew_factor=0.6)

    def test_sweep_increment_validation(self):
        with pytest.raises(ValueError):
            STreeParams(sweep_increment=0)

    def test_split_dimension_validation(self):
        with pytest.raises(ValueError):
            STreeParams(split_dimension="widest")


class TestConstruction:
    def test_single_rectangle(self):
        tree = STree.build(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert tree.match([0.5, 0.5]) == [0]
        assert tree.match([2.0, 2.0]) == []

    def test_small_set_becomes_single_leaf(self):
        lows = np.zeros((5, 2))
        highs = np.ones((5, 2)) * np.arange(1, 6)[:, None]
        tree = STree.build(lows, highs)
        shape = tree.shape()
        assert shape.leaf_nodes == 1
        assert shape.height == 0
        assert shape.entries == 5

    def test_every_entry_reachable(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        assert tree.shape().entries == len(lows)

    def test_branch_factor_respected(self, workload):
        lows, highs, _ = workload
        params = STreeParams(branch_factor=8)
        tree = STree.build(lows, highs, params=params)
        internal = ~tree._is_leaf
        assert tree._count.max() <= 8
        assert tree._count[internal].min() >= 2
        assert tree._lo.shape[2] <= 8

    def test_custom_ids_reported(self):
        lows = np.zeros((3, 1))
        highs = np.ones((3, 1))
        tree = STree.build(lows, highs, ids=[10, 20, 30])
        assert tree.match([0.5]) == [10, 20, 30]

    def test_identical_rectangles(self):
        # Degenerate data: every rectangle the same.
        lows = np.zeros((200, 2))
        highs = np.ones((200, 2))
        tree = STree.build(lows, highs, params=STreeParams(branch_factor=10))
        assert tree.match([0.5, 0.5]) == list(range(200))
        assert tree.match([1.5, 0.5]) == []

    def test_build_input_validation(self):
        with pytest.raises(ValueError):
            STree.build(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            STree.build(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            STree.build(
                np.full((2, 2), np.nan), np.ones((2, 2))
            )
        with pytest.raises(ValueError):
            STree.build(np.zeros((2, 2)), np.ones((2, 2)), ids=[1])

    def test_from_rectangles(self):
        rects = [
            Rectangle.from_intervals([Interval(0, 1), Interval(0, 1)]),
            Rectangle.from_intervals([Interval(2, 3), Interval(2, 3)]),
        ]
        tree = STree.from_rectangles(rects)
        assert tree.match([0.5, 0.5]) == [0]
        assert tree.match([2.5, 2.5]) == [1]


class TestCorrectness:
    def test_matches_brute_force(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        for point in points:
            assert tree.match(point) == brute_force(lows, highs, point)

    def test_matches_brute_force_bounded(self, bounded_workload):
        lows, highs, points = bounded_workload
        tree = STree.build(lows, highs)
        for point in points:
            assert tree.match(point) == brute_force(lows, highs, point)

    def test_longest_dimension_variant_correct(self, workload):
        lows, highs, points = workload
        tree = STree.build(
            lows, highs, params=STreeParams(split_dimension="longest")
        )
        for point in points[:50]:
            assert tree.match(point) == brute_force(lows, highs, point)

    def test_half_open_semantics_at_boundaries(self):
        lows = np.array([[0.0, 0.0]])
        highs = np.array([[1.0, 1.0]])
        tree = STree.build(lows, highs)
        assert tree.match([0.0, 0.5]) == []
        assert tree.match([1.0, 1.0]) == [0]

    def test_unbounded_rectangle_matches_far_points(self):
        lows = np.array([[0.0, -np.inf]])
        highs = np.array([[np.inf, 0.0]])
        tree = STree.build(lows, highs)
        assert tree.match([1e9, -1e9]) == [0]
        assert tree.match([-1.0, -1.0]) == []

    def test_count(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        for point in points[:20]:
            assert tree.count(point) == len(
                brute_force(lows, highs, point)
            )

    def test_wrong_point_arity(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        with pytest.raises(ValueError):
            tree.match([1.0])


class TestRegionQuery:
    def test_region_matches_bruteforce(self, workload, rng):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        for _ in range(30):
            q_lo = rng.uniform(-2, 18, size=4)
            q_hi = q_lo + rng.uniform(0.5, 6, size=4)
            expected = sorted(
                np.flatnonzero(
                    np.all(
                        np.maximum(lows, q_lo) < np.minimum(highs, q_hi),
                        axis=1,
                    )
                ).tolist()
            )
            assert tree.region_query(q_lo, q_hi) == expected

    def test_region_covering_everything(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        result = tree.region_query([-1e9] * 4, [1e9] * 4)
        assert result == list(range(len(lows)))

    def test_region_arity_validation(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        with pytest.raises(ValueError):
            tree.region_query([0.0], [1.0])


class TestShapeAndStats:
    def test_shape_consistency(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs, params=STreeParams(branch_factor=10))
        shape = tree.shape()
        assert shape.entries == len(lows)
        assert shape.min_leaf_depth <= shape.max_leaf_depth == shape.height
        assert shape.skewness >= 0
        assert shape.mean_branch_factor > 1.0

    def test_higher_skew_factor_balances_tree(self, rng):
        from .conftest import make_workload

        lows, highs, _ = make_workload(rng, k=3000, unbounded=False)
        loose = STree.build(
            lows, highs, params=STreeParams(branch_factor=8, skew_factor=0.1)
        ).shape()
        tight = STree.build(
            lows, highs, params=STreeParams(branch_factor=8, skew_factor=0.5)
        ).shape()
        assert tight.skewness <= loose.skewness + 1

    def test_stats_accumulate(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        assert tree.stats.queries == 0
        tree.match(points[0])
        tree.match(points[1])
        assert tree.stats.queries == 2
        assert tree.stats.entries_tested > 0
        tree.stats.reset()
        assert tree.stats.queries == 0

    def test_pruning_beats_linear_scan(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        linear = LinearScanMatcher.build(lows, highs)
        for point in points:
            tree.match(point)
            linear.match(point)
        assert (
            tree.stats.entries_per_query < linear.stats.entries_per_query
        )

    def test_len_and_ndim(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        assert len(tree) == len(lows)
        assert tree.ndim == 4


# -- pinned figures of merit -------------------------------------------------
#
# The query layout may change; the tree the paper's binarization and
# compression build, and the work a point query does on it, may not.
# These figures were taken from the object-graph descent and any other
# query layout must reproduce them exactly.

PINNED = {
    1000: (
        TreeShape(
            height=1, internal_nodes=1, leaf_nodes=39, entries=1000,
            min_leaf_depth=1, max_leaf_depth=1, mean_branch_factor=39.0,
        ),
        (2000, 8515, 225747),
        "7c00361b899c7411260884d239f0d9ee",
    ),
    10000: (
        TreeShape(
            height=2, internal_nodes=15, leaf_nodes=403, entries=10000,
            min_leaf_depth=1, max_leaf_depth=2, mean_branch_factor=27.8,
        ),
        (6359, 70388, 1797795),
        "007bdfe53d96e2fc6a3a3cafdd6b390b",
    ),
}


@pytest.fixture(scope="module")
def default_testbed():
    return build_testbed(ExperimentConfig())


@pytest.mark.parametrize("subscriptions", sorted(PINNED))
def test_pinned_default_testbed_tree(default_testbed, subscriptions):
    """Shape, summed work and per-event ids over 2,000 9-mode events."""
    config = default_testbed.config
    if subscriptions == config.num_subscriptions:
        table = default_testbed.table
    else:
        placed = StockSubscriptionGenerator(
            default_testbed.topology, seed=config.seed + 1
        ).generate(subscriptions)
        table = SubscriptionTable.from_placed(placed)
    points, _ = default_testbed.publications(9, count=2000)
    tree = STree.build(*table.to_arrays())
    ids = [tree.match(point) for point in points]

    shape, work, digest = PINNED[subscriptions]
    stats = tree.stats
    assert tree.shape() == shape
    assert stats.queries == len(points)
    assert (
        stats.nodes_visited, stats.leaves_visited, stats.entries_tested
    ) == work
    assert canonical_digest(ids) == digest
