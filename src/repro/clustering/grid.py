"""The regular grid over the event space (Appendix A.2, Step 0).

All three subscription-clustering algorithms operate on cells of a
regular grid ``G = {g_x}`` imposed on the event space: each dimension
is cut into at most ``C`` adjacent, equal-length, half-open intervals
such that the grid covers every interest rectangle ``b_ij`` (unbounded
subscription sides are covered up to a finite frame derived from the
data, which is the only possible reading on a computer and matches the
paper's finite-domain assumption in Section 1).

For every cell the grid records:

- ``l(g)`` — the set of subscribers with a subscription intersecting
  the cell, stored as a bitmask over compact subscriber indices so
  unions and difference counts during clustering are single integer
  operations;
- ``p(g)`` — the publication probability mass of the cell under the
  event distribution ``p_p(.)``;
- the cell's *weight* ``p(g) * n(g)`` with ``n(g) = |l(g)|``, used to
  pick the ``T`` highest-weight cells the algorithms work on.

The build is array-based.  A rectangle overlaps a box of cells, the
product of its per-dimension ranges from
:func:`repro.geometry.gridmath.overlapped_cell_range` (computed for all
rectangles at once), so its membership is one slice ``|=`` into a dense
uint64 array of shape ``(C,)*N + (ceil(S/64),)`` for ``S`` distinct
subscribers.  That array takes ``C^N * ceil(S/64)`` words: about
0.7 MB at ``C=10``, ``N=4``, ``S=541``.  ``C^N`` is also the number of
cells one full-frame (for instance, fully unbounded) rectangle covers.
Cells enter :attr:`EventGrid.cells` in the order a per-rectangle,
per-cell enumeration creates them: by the first rectangle touching
them, then in C order of the index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..geometry.gridmath import locate_cell, overlapped_cell_range
from ..geometry.rectangle import Rectangle

__all__ = ["CellProbability", "UniformCellProbability", "GridCell", "EventGrid"]

DEFAULT_CELLS_PER_DIM = 10


class CellProbability(Protocol):
    """Anything that can integrate the event density over a box."""

    def cell_probability(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> float:
        """Probability that a publication lands in ``(lows, highs]``."""
        ...


class UniformCellProbability:
    """Uniform event density over a bounded frame (a neutral default)."""

    def __init__(self, frame_lo: Sequence[float], frame_hi: Sequence[float]):
        self.frame_lo = np.asarray(frame_lo, dtype=np.float64)
        self.frame_hi = np.asarray(frame_hi, dtype=np.float64)
        volume = float(np.prod(self.frame_hi - self.frame_lo))
        if volume <= 0:
            raise ValueError("frame must have positive volume")
        self._volume = volume

    def cell_probability(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> float:
        lo = np.maximum(np.asarray(lows, dtype=np.float64), self.frame_lo)
        hi = np.minimum(np.asarray(highs, dtype=np.float64), self.frame_hi)
        extent = np.clip(hi - lo, 0.0, None)
        return float(np.prod(extent) / self._volume)

    def per_dimension_masses(
        self, edges: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Product-form fast path (see the same method on the mixtures)."""
        masses: List[np.ndarray] = []
        for d, edge in enumerate(edges):
            clipped = np.clip(
                np.asarray(edge, dtype=np.float64),
                self.frame_lo[d],
                self.frame_hi[d],
            )
            span = self.frame_hi[d] - self.frame_lo[d]
            masses.append(np.diff(clipped) / span)
        return masses


@dataclass
class GridCell:
    """One grid cell with its clustering attributes."""

    index: Tuple[int, ...]
    lows: Tuple[float, ...]
    highs: Tuple[float, ...]
    members: int = 0  # bitmask over compact subscriber indices
    probability: float = 0.0

    @property
    def member_count(self) -> int:
        """``n(g)`` — number of interested subscribers."""
        return self.members.bit_count()

    @property
    def weight(self) -> float:
        """``p(g) * n(g)`` — the top-T ranking key."""
        return self.probability * self.member_count

    def rectangle(self) -> Rectangle:
        """The cell as a half-open rectangle."""
        return Rectangle(self.lows, self.highs)


class EventGrid:
    """Regular grid with membership lists and publication probabilities.

    Parameters
    ----------
    rectangles:
        All subscription rectangles ``b_ij``.
    subscriber_ids:
        For each rectangle, the identity of its subscriber (typically
        the network node).  Distinct values are mapped onto compact
        bit positions; several rectangles may share a subscriber.
    density:
        Event density used for ``p(g)``; ``None`` means uniform over
        the fitted frame.
    cells_per_dim:
        The grid resolution ``C``.
    frame:
        Optional explicit bounding box ``(lows, highs)``; by default a
        frame is fitted over the finite coordinates of the data.
    """

    def __init__(
        self,
        rectangles: Sequence[Rectangle],
        subscriber_ids: Sequence[int],
        density: Optional[CellProbability] = None,
        cells_per_dim: int = DEFAULT_CELLS_PER_DIM,
        frame: Optional[tuple[Sequence[float], Sequence[float]]] = None,
    ):
        if len(rectangles) != len(subscriber_ids):
            raise ValueError("one subscriber id per rectangle required")
        if not rectangles:
            raise ValueError("need at least one rectangle")
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be positive")
        self.cells_per_dim = cells_per_dim
        self.ndim = rectangles[0].ndim
        for position, rectangle in enumerate(rectangles):
            if rectangle.ndim != self.ndim:
                raise ValueError(
                    f"rectangle {position} has {rectangle.ndim} dimensions, "
                    f"grid has {self.ndim}"
                )

        # Compact subscriber indexing (bit positions).
        unique_ids = sorted(set(int(s) for s in subscriber_ids))
        self.subscribers: List[int] = unique_ids
        self._bit_of: Dict[int, int] = {
            sid: bit for bit, sid in enumerate(unique_ids)
        }

        lows = np.array([r.lows for r in rectangles], dtype=np.float64)
        highs = np.array([r.highs for r in rectangles], dtype=np.float64)
        if frame is not None:
            self.frame_lo = np.asarray(frame[0], dtype=np.float64)
            self.frame_hi = np.asarray(frame[1], dtype=np.float64)
            if self.frame_lo.shape != (self.ndim,) or self.frame_hi.shape != (
                self.ndim,
            ):
                raise ValueError("frame bounds must match dimensionality")
            if np.any(self.frame_hi <= self.frame_lo):
                raise ValueError("frame must have positive extent")
        else:
            self.frame_lo, self.frame_hi = _fit_frame(lows, highs)
        self._width = (self.frame_hi - self.frame_lo) / cells_per_dim
        # Per-dimension cell bounds: cell i of dimension d spans
        # (_cell_lows[d][i], _cell_highs[d][i]].
        cell_lo = self.frame_lo + np.arange(cells_per_dim)[:, None] * (
            self._width
        )
        self._cell_lows: List[List[float]] = cell_lo.T.tolist()
        self._cell_highs: List[List[float]] = (
            (cell_lo + self._width).T.tolist()
        )

        if density is None:
            density = UniformCellProbability(self.frame_lo, self.frame_hi)
        self.density = density

        self.cells: Dict[Tuple[int, ...], GridCell] = {}
        self._populate(lows, highs, subscriber_ids)

    # -- construction ------------------------------------------------------

    def _populate(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        subscriber_ids: Sequence[int],
    ) -> None:
        """Fill ``l(g)`` with one slice ``|=`` per rectangle (see the
        module docstring), then ``p(g)``."""
        c = self.cells_per_dim
        shape = (c,) * self.ndim
        lo, hi = self._clip_to_frame(lows, highs)
        start, stop = overlapped_cell_range(
            lo, hi, self.frame_lo, self._width, c
        )
        empty = np.any(highs <= lows, axis=1) | np.any(stop <= start, axis=1)
        words = -(-len(self.subscribers) // 64)
        cover = np.zeros(shape + (words,), dtype=np.uint64)
        no_row = lows.shape[0]
        first_row = np.full(shape, no_row, dtype=np.int64)
        # Walk backwards so the last write to first_row is the first row.
        for row in np.flatnonzero(~empty)[::-1].tolist():
            box = tuple(map(slice, start[row].tolist(), stop[row].tolist()))
            bit = self._bit_of[int(subscriber_ids[row])]
            cover[box + (bit >> 6,)] |= np.uint64(1 << (bit & 63))
            first_row[box] = row

        flat_first = first_row.ravel()
        occupied = np.flatnonzero(flat_first < no_row)
        occupied = occupied[np.argsort(flat_first[occupied], kind="stable")]
        masks = cover.reshape(-1, words)[occupied].astype("<u8").tobytes()
        step = 8 * words
        coords = np.unravel_index(occupied, shape)
        for k, index in enumerate(zip(*(a.tolist() for a in coords))):
            cell = self._make_cell(index)
            cell.members = int.from_bytes(
                masks[k * step : (k + 1) * step], "little"
            )
            self.cells[index] = cell

        self._assign_probabilities()

    def _clip_to_frame(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rectangle bounds with unbounded sides and overhangs cut off."""
        lo = np.maximum(
            np.where(np.isfinite(lows), lows, self.frame_lo), self.frame_lo
        )
        hi = np.minimum(
            np.where(np.isfinite(highs), highs, self.frame_hi), self.frame_hi
        )
        return lo, hi

    def _assign_probabilities(self) -> None:
        """Fill ``p(g)`` for every occupied cell.

        Densities exposing ``per_dimension_masses`` (product-form joint
        distributions — the mixtures of Section 5 and the uniform
        default) get a fast path: ``C`` masses per dimension computed
        once, each cell a product lookup.  Anything else falls back to
        one ``cell_probability`` call per cell.
        """
        per_dim = getattr(self.density, "per_dimension_masses", None)
        if per_dim is not None:
            edges = [
                self.frame_lo[d]
                + self._width[d] * np.arange(self.cells_per_dim + 1)
                for d in range(self.ndim)
            ]
            masses = per_dim(edges)
            for index, cell in self.cells.items():
                probability = 1.0
                for d, i in enumerate(index):
                    probability *= float(masses[d][i])
                cell.probability = probability
        else:
            for cell in self.cells.values():
                cell.probability = self.density.cell_probability(
                    cell.lows, cell.highs
                )

    def _make_cell(self, index: Tuple[int, ...]) -> GridCell:
        return GridCell(
            index=index,
            lows=tuple(lo[i] for lo, i in zip(self._cell_lows, index)),
            highs=tuple(hi[i] for hi, i in zip(self._cell_highs, index)),
        )

    # -- incremental maintenance ---------------------------------------------

    def add_subscription(
        self, rectangle: Rectangle, subscriber: int
    ) -> List[Tuple[int, ...]]:
        """Fold one new subscription into the membership lists.

        Registers the subscriber (allocating a new bit position if it
        is unseen), marks every covered cell — creating cells as
        needed, with their probability filled from the density — and
        returns the affected cell indices so callers (the space
        partition) can refresh the corresponding multicast groups.

        This is the *incremental* half of churn maintenance; removing
        a subscription requires recomputing the affected masks from
        the surviving rectangles, i.e. a rebuild (see
        :meth:`repro.core.dynamic.DynamicPubSubBroker.unsubscribe`).
        """
        if rectangle.ndim != self.ndim:
            raise ValueError(
                f"rectangle has {rectangle.ndim} dimensions, grid has "
                f"{self.ndim}"
            )
        subscriber = int(subscriber)
        bit_index = self._bit_of.get(subscriber)
        if bit_index is None:
            bit_index = len(self.subscribers)
            self.subscribers.append(subscriber)
            self._bit_of[subscriber] = bit_index
        bit = 1 << bit_index

        lows = np.asarray(rectangle.lows, dtype=np.float64)
        highs = np.asarray(rectangle.highs, dtype=np.float64)
        if np.any(highs <= lows):
            return []
        lo, hi = self._clip_to_frame(lows, highs)
        start, stop = overlapped_cell_range(
            lo, hi, self.frame_lo, self._width, self.cells_per_dim
        )
        affected: List[Tuple[int, ...]] = []
        for index in product(*map(range, start.tolist(), stop.tolist())):
            cell = self.cells.get(index)
            if cell is None:
                cell = self._make_cell(index)
                cell.probability = self.density.cell_probability(
                    cell.lows, cell.highs
                )
                self.cells[index] = cell
            cell.members |= bit
            affected.append(index)
        return affected

    # -- queries --------------------------------------------------------------

    def locate(self, point: Sequence[float]) -> Optional[Tuple[int, ...]]:
        """Grid coordinates of a point, or ``None`` outside the frame.

        Half-open convention: a point exactly on the frame's low edge
        is outside; one on the high edge is in the last cell.
        """
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.ndim,):
            raise ValueError("point dimensionality mismatch")
        coords = locate_cell(
            p, self.frame_lo, self.frame_hi, self._width, self.cells_per_dim
        )
        if coords is None:
            return None
        return tuple(int(x) for x in coords)

    def quantize(self, point: Sequence[float]) -> Tuple[int, ...]:
        """Unclamped grid coordinates of *any* point, even out of frame.

        Applies the same ceil quantization as :meth:`locate` but never
        clips: points beyond the frame get coordinates below 0 or at or
        above ``cells_per_dim``.  A pure function of the grid geometry —
        the sharding router uses it to hash out-of-frame (catchall)
        publications onto a stable pseudo-cell.
        """
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.ndim,):
            raise ValueError("point dimensionality mismatch")
        coords = np.ceil((p - self.frame_lo) / self._width).astype(int) - 1
        return tuple(int(x) for x in coords)

    @property
    def cell_width(self) -> np.ndarray:
        """Per-dimension cell extent (frame span / ``cells_per_dim``)."""
        return self._width

    def top_cells(self, count: int) -> List[GridCell]:
        """The ``T`` highest-weight cells (``p(g)*n(g)``), best first.

        Ties break deterministically on the cell index.
        """
        occupied = [c for c in self.cells.values() if c.member_count > 0]
        occupied.sort(key=lambda cell: (-cell.weight, cell.index))
        return occupied[:count]

    def members_of(self, mask: int) -> List[int]:
        """Translate a membership bitmask back into subscriber ids."""
        result: List[int] = []
        bit = 0
        while mask:
            if mask & 1:
                result.append(self.subscribers[bit])
            mask >>= 1
            bit += 1
        return result

    @property
    def num_occupied_cells(self) -> int:
        """Cells intersected by at least one subscription."""
        return sum(1 for c in self.cells.values() if c.member_count > 0)

    @property
    def num_subscribers(self) -> int:
        return len(self.subscribers)


def _fit_frame(
    lows: np.ndarray, highs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounding frame over the finite coordinates, slightly padded.

    The padding keeps rectangle edges off the frame boundary so the
    half-open cell arithmetic never loses the extremes.
    """
    finite_lo = np.where(np.isfinite(lows), lows, np.nan)
    finite_hi = np.where(np.isfinite(highs), highs, np.nan)
    stacked = np.concatenate([finite_lo, finite_hi], axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lo = np.nanmin(stacked, axis=0)
        hi = np.nanmax(stacked, axis=0)
    lo = np.where(np.isfinite(lo), lo, 0.0)
    hi = np.where(np.isfinite(hi), hi, 1.0)
    span = np.maximum(hi - lo, 1e-9)
    return lo - 0.01 * span, hi + 0.01 * span
