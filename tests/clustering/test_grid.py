"""Unit tests for the event grid."""

import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import EventGrid, UniformCellProbability
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.geometry import Interval, Rectangle
from repro.geometry.gridmath import covered_cell_range
from repro.io import canonical_digest
from repro.workload import nine_mode_distribution


def rect2(x0, x1, y0, y1):
    return Rectangle.from_intervals([Interval(x0, x1), Interval(y0, y1)])


@pytest.fixture()
def simple_grid():
    """Two subscribers in a 4x4 grid over (0,4]x(0,4]."""
    rectangles = [
        rect2(0.0, 2.0, 0.0, 2.0),   # subscriber 100, lower-left block
        rect2(2.0, 4.0, 2.0, 4.0),   # subscriber 200, upper-right block
        rect2(1.0, 3.0, 1.0, 3.0),   # subscriber 100 again, center
    ]
    return EventGrid(
        rectangles,
        [100, 200, 100],
        cells_per_dim=4,
        frame=((0.0, 0.0), (4.0, 4.0)),
    )


class TestConstruction:
    def test_subscriber_indexing(self, simple_grid):
        assert simple_grid.subscribers == [100, 200]
        assert simple_grid.num_subscribers == 2

    def test_cells_have_membership(self, simple_grid):
        # Cell (0,0) covers (0,1]x(0,1]: only the first rectangle.
        cell = simple_grid.cells[(0, 0)]
        assert simple_grid.members_of(cell.members) == [100]
        # Cell (3,3): only subscriber 200.
        cell = simple_grid.cells[(3, 3)]
        assert simple_grid.members_of(cell.members) == [200]
        # Cell (1,1) covers (1,2]x(1,2]: only subscriber 100's
        # rectangles reach it — (2,4]x(2,4] is half-open and starts
        # strictly after 2.
        cell = simple_grid.cells[(1, 1)]
        assert simple_grid.members_of(cell.members) == [100]
        # Cell (2,2) covers (2,3]x(2,3]: touched by subscriber 200's
        # block and by 100's center rectangle (1,3]x(1,3].
        cell = simple_grid.cells[(2, 2)]
        assert simple_grid.members_of(cell.members) == [100, 200]

    def test_member_count_and_weight(self, simple_grid):
        cell = simple_grid.cells[(2, 2)]
        assert cell.member_count == 2
        assert cell.weight == pytest.approx(
            cell.probability * cell.member_count
        )

    def test_uniform_density_by_default(self, simple_grid):
        # 16 equal cells, uniform density: 1/16 each.
        for cell in simple_grid.cells.values():
            assert cell.probability == pytest.approx(1.0 / 16.0)

    def test_cell_rectangle(self, simple_grid):
        cell = simple_grid.cells[(0, 0)]
        assert cell.rectangle().contains_point((0.5, 0.5))
        assert not cell.rectangle().contains_point((1.5, 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            EventGrid([], [])
        with pytest.raises(ValueError):
            EventGrid([rect2(0, 1, 0, 1)], [1, 2])
        with pytest.raises(ValueError):
            EventGrid([rect2(0, 1, 0, 1)], [1], cells_per_dim=0)
        with pytest.raises(ValueError):
            EventGrid(
                [rect2(0, 1, 0, 1)],
                [1],
                frame=((0.0,), (1.0,)),
            )
        with pytest.raises(ValueError):
            EventGrid(
                [rect2(0, 1, 0, 1)],
                [1],
                frame=((0.0, 0.0), (0.0, 1.0)),
            )

    def test_mixed_dimensions_rejected(self):
        three_d = Rectangle((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(
            ValueError, match="rectangle 1 has 3 dimensions, grid has 2"
        ):
            EventGrid([rect2(0, 1, 0, 1), three_d, rect2(0, 1, 0, 1)], [1, 2, 3])

    def test_empty_rectangle_ignored(self):
        grid = EventGrid(
            [rect2(1.0, 0.0, 0.0, 1.0), rect2(0.0, 1.0, 0.0, 1.0)],
            [1, 2],
            cells_per_dim=2,
            frame=((0.0, 0.0), (2.0, 2.0)),
        )
        cell = grid.cells[(0, 0)]
        assert grid.members_of(cell.members) == [2]

    def test_unbounded_rectangle_clipped_to_frame(self):
        grid = EventGrid(
            [
                Rectangle.from_intervals(
                    [Interval(1.0, np.inf), Interval(-np.inf, np.inf)]
                )
            ],
            [7],
            cells_per_dim=4,
            frame=((0.0, 0.0), (4.0, 4.0)),
        )
        # Covers x-cells 1..3 in every y.
        assert (0, 0) not in grid.cells
        for x in (1, 2, 3):
            for y in range(4):
                assert grid.members_of(grid.cells[(x, y)].members) == [7]

    def test_fitted_frame_covers_data(self):
        grid = EventGrid(
            [rect2(-5.0, 5.0, 10.0, 30.0)], [1], cells_per_dim=3
        )
        assert grid.frame_lo[0] <= -5.0
        assert grid.frame_hi[1] >= 30.0


class TestLocate:
    def test_locate_interior(self, simple_grid):
        assert simple_grid.locate((0.5, 0.5)) == (0, 0)
        assert simple_grid.locate((3.5, 1.5)) == (3, 1)

    def test_locate_half_open_boundaries(self, simple_grid):
        # A point on a cell's high edge belongs to that cell.
        assert simple_grid.locate((1.0, 1.0)) == (0, 0)
        # The frame's low edge is outside.
        assert simple_grid.locate((0.0, 0.5)) is None
        # The frame's high edge is in the last cell.
        assert simple_grid.locate((4.0, 4.0)) == (3, 3)

    def test_locate_outside(self, simple_grid):
        assert simple_grid.locate((5.0, 1.0)) is None
        assert simple_grid.locate((-1.0, 1.0)) is None

    def test_locate_arity(self, simple_grid):
        with pytest.raises(ValueError):
            simple_grid.locate((1.0,))

    def test_locate_agrees_with_cell_bounds(self, simple_grid, rng):
        for _ in range(100):
            point = rng.uniform(0.01, 4.0, size=2)
            index = simple_grid.locate(point)
            cell = simple_grid._make_cell(index)
            assert cell.rectangle().contains_point(tuple(point))


class TestTopCells:
    def test_ordering(self, simple_grid):
        top = simple_grid.top_cells(100)
        weights = [c.weight for c in top]
        assert weights == sorted(weights, reverse=True)

    def test_count_limit(self, simple_grid):
        assert len(simple_grid.top_cells(3)) == 3

    def test_only_occupied_cells(self):
        grid = EventGrid(
            [rect2(0.0, 1.0, 0.0, 1.0)],
            [1],
            cells_per_dim=4,
            frame=((0.0, 0.0), (4.0, 4.0)),
        )
        assert len(grid.top_cells(100)) == grid.num_occupied_cells == 1

    def test_density_weighting_changes_ranking(self):
        rectangles = [rect2(0.0, 1.0, 0.0, 1.0), rect2(3.0, 4.0, 3.0, 4.0)]
        # Density concentrated near the origin.
        class CornerDensity:
            def cell_probability(self, lows, highs):
                return 1.0 if highs[0] <= 2.0 else 0.001

        grid = EventGrid(
            rectangles,
            [1, 2],
            density=CornerDensity(),
            cells_per_dim=4,
            frame=((0.0, 0.0), (4.0, 4.0)),
        )
        top = grid.top_cells(2)
        assert top[0].index == (0, 0)


class TestMembersOf:
    def test_roundtrip(self, simple_grid):
        mask = (1 << 0) | (1 << 1)
        assert simple_grid.members_of(mask) == [100, 200]
        assert simple_grid.members_of(0) == []


class TestUniformCellProbability:
    def test_normalizes(self):
        density = UniformCellProbability([0.0, 0.0], [4.0, 2.0])
        assert density.cell_probability([0, 0], [4, 2]) == pytest.approx(1.0)
        assert density.cell_probability([0, 0], [2, 1]) == pytest.approx(
            0.25
        )

    def test_clips_to_frame(self):
        density = UniformCellProbability([0.0], [10.0])
        assert density.cell_probability([-5.0], [5.0]) == pytest.approx(0.5)

    def test_zero_volume_frame_rejected(self):
        with pytest.raises(ValueError):
            UniformCellProbability([0.0, 0.0], [1.0, 0.0])

    def test_per_dimension_masses(self):
        density = UniformCellProbability([0.0, 0.0], [4.0, 4.0])
        edges = [np.array([0.0, 2.0, 4.0]), np.array([0.0, 1.0, 4.0])]
        masses = density.per_dimension_masses(edges)
        assert np.allclose(masses[0], [0.5, 0.5])
        assert np.allclose(masses[1], [0.25, 0.75])


class TestFastPathConsistency:
    def test_mixture_fast_path_equals_direct(self, small_table):
        density = nine_mode_distribution()
        grid = EventGrid(
            small_table.rectangles(),
            [s.subscriber for s in small_table],
            density=density,
            cells_per_dim=5,
        )
        for cell in list(grid.cells.values())[:40]:
            assert cell.probability == pytest.approx(
                density.cell_probability(cell.lows, cell.highs), abs=1e-12
            )


def _grid_digest(grid):
    """Digest of every cell in dict order: index, mask, p(g), bounds."""
    return canonical_digest(
        [
            [list(c.index), c.members, c.probability, list(c.lows), list(c.highs)]
            for c in grid.cells.values()
        ]
    )


def _golden_3d_rectangles():
    """Seeded 3-D rectangles with boundary-aligned, unbounded and empty sides."""
    rng = random.Random(13)
    coords = [-1.0, 0.0, 0.5, 1.0, 1.3, 2.0, 2.5, 3.0, 3.7, 4.0, 5.0]
    rectangles, subscribers = [], []
    for row in range(24):
        lows, highs = [], []
        for _ in range(3):
            lo, hi = sorted(rng.sample(coords, 2))
            if rng.random() < 0.15:
                lo = -math.inf
            if rng.random() < 0.15:
                hi = math.inf
            lows.append(lo)
            highs.append(hi)
        if row % 17 == 0:
            lows[1], highs[1] = highs[1], lows[1]  # empty side
        rectangles.append(Rectangle(tuple(lows), tuple(highs)))
        subscribers.append(rng.randrange(25))
    return rectangles, subscribers


class TestPinnedDigest:
    """The grid, cell for cell and in dict order, is pinned bit for bit."""

    def test_paper_testbed_grid(self):
        config = ExperimentConfig()
        testbed = build_testbed(config)
        grid = EventGrid(
            testbed.table.rectangles(),
            [s.subscriber for s in testbed.table],
            density=testbed.density(9),
            cells_per_dim=config.cells_per_dim,
        )
        assert len(grid.cells) == 9169
        assert _grid_digest(grid) == "86f872cee9e99c0cf56c55da5f2eff54"

    def test_3d_grid_with_explicit_frame(self):
        rectangles, subscribers = _golden_3d_rectangles()
        grid = EventGrid(
            rectangles,
            subscribers,
            cells_per_dim=4,
            frame=((0.0, 0.0, 0.0), (4.0, 4.0, 4.0)),
        )
        assert len(grid.cells) == 64
        assert _grid_digest(grid) == "b4bfa8a6e03f3490112c20dea3d8843a"


def _reference_cells(rectangles, subscriber_ids, grid):
    """Per-candidate build: ordered ``{index: [members, p, lows, highs]}``.

    The straightforward loop over every (rectangle, candidate cell)
    pair with an exact half-open overlap test per cell, on the frame
    and bit positions of ``grid``.
    """
    frame_lo, frame_hi, c = grid.frame_lo, grid.frame_hi, grid.cells_per_dim
    width = (frame_hi - frame_lo) / c
    bit_of = {sid: bit for bit, sid in enumerate(sorted(set(subscriber_ids)))}
    edges = [frame_lo[d] + width[d] * np.arange(c + 1) for d in range(grid.ndim)]
    masses = grid.density.per_dimension_masses(edges)
    cells = {}
    for rect, sid in zip(rectangles, subscriber_ids):
        lows, highs = np.asarray(rect.lows), np.asarray(rect.highs)
        if np.any(highs <= lows):
            continue
        lo = np.maximum(np.where(np.isfinite(lows), lows, frame_lo), frame_lo)
        hi = np.minimum(np.where(np.isfinite(highs), highs, frame_hi), frame_hi)
        if np.any(hi <= lo):
            continue
        first, last = covered_cell_range(lo, hi, frame_lo, width, c)
        for index in product(*(range(f, l + 1) for f, l in zip(first, last))):
            cell_lo = frame_lo + np.asarray(index) * width
            cell_hi = cell_lo + width
            if not np.all(np.maximum(lo, cell_lo) < np.minimum(hi, cell_hi)):
                continue
            if index not in cells:
                p = 1.0
                for d, i in enumerate(index):
                    p *= float(masses[d][i])
                bounds = [tuple(map(float, cell_lo)), tuple(map(float, cell_hi))]
                cells[index] = [0, p, *bounds]
            cells[index][0] |= 1 << bit_of[sid]
    return cells


def _built_cells(grid):
    return {
        c.index: [c.members, c.probability, c.lows, c.highs]
        for c in grid.cells.values()
    }


@st.composite
def grid_inputs(draw):
    """Rectangles over-sampling cell boundaries, ±inf, empty and
    out-of-frame sides, shared subscribers and more than 64 of them."""
    ndim = draw(st.sampled_from([1, 1, 2, 3, 5]))
    c = draw(st.integers(1, 3 if ndim == 5 else 6))
    frame_lo = draw(st.sampled_from([0.0, -1.3, 0.1]))
    span = draw(st.sampled_from([float(c), 0.6, 7.0]))
    width = span / c
    boundaries = [frame_lo + i * width for i in range(c + 1)]
    coordinate = st.one_of(
        st.sampled_from(boundaries),
        st.sampled_from(boundaries).map(lambda x: np.nextafter(x, np.inf)),
        st.sampled_from(boundaries).map(lambda x: np.nextafter(x, -np.inf)),
        st.floats(frame_lo - span, frame_lo + 2 * span),
        st.sampled_from([-math.inf, math.inf]),
    )
    count = draw(st.one_of(st.integers(1, 12), st.integers(65, 80)))
    rectangles = []
    for _ in range(count):
        sides = [sorted(draw(st.lists(coordinate, min_size=2, max_size=2)))
                 for _ in range(ndim)]
        if draw(st.integers(0, 9)) == 0:
            sides[0].reverse()  # empty side
        lows, highs = zip(*sides)
        rectangles.append(Rectangle(tuple(lows), tuple(highs)))
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    else:
        ids = list(range(100, 100 + count))  # distinct: >64 bits for big counts
    frame = None
    if draw(st.booleans()):
        frame = ((frame_lo,) * ndim, (frame_lo + span,) * ndim)
    return rectangles, ids, c, frame


class TestDifferentialBuild:
    """The array build equals the per-candidate reference, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(grid_inputs())
    def test_matches_reference_builder(self, inputs):
        rectangles, ids, c, frame = inputs
        grid = EventGrid(rectangles, ids, cells_per_dim=c, frame=frame)
        reference = _reference_cells(rectangles, ids, grid)
        built = _built_cells(grid)
        assert list(built) == list(reference)
        assert built == reference

    @settings(max_examples=100, deadline=None)
    @given(grid_inputs(), st.integers(1, 80))
    def test_incremental_matches_one_shot(self, inputs, k):
        rectangles, ids, c, frame = inputs
        ndim = rectangles[0].ndim
        frame = frame or ((-5.0,) * ndim, (20.0,) * ndim)
        k = min(k, len(rectangles))
        whole = EventGrid(rectangles, ids, cells_per_dim=c, frame=frame)
        grown = EventGrid(rectangles[:k], ids[:k], cells_per_dim=c, frame=frame)
        for rect, sid in zip(rectangles[k:], ids[k:]):
            one = _reference_cells([rect], [sid], whole)
            assert grown.add_subscription(rect, sid) == list(one)

        def member_sets(grid):
            return {
                index: set(grid.members_of(cell.members))
                for index, cell in grid.cells.items()
            }

        assert member_sets(grown) == member_sets(whole)
