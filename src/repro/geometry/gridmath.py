"""Shared, rounding-safe grid-cell arithmetic.

Both regular grids in the library (the clustering grid of Appendix A.2
and the grid-bucket matcher) must answer the same two questions:

- which cells does a half-open rectangle ``(lo, hi]`` intersect, and
- which cell contains a point?

The subtlety is floating-point rounding at cell boundaries: an
endpoint one ulp away from a boundary can quantize *onto* it, which —
with exact-arithmetic formulas — silently shifts the first/last
covered cell by one and loses matches.  Correctness is preserved by
being conservative in rectangle registration: whenever a quantized
endpoint lands exactly on a boundary, the range is widened by one cell
in that direction.  Spurious extra candidates are removed by
:func:`overlapped_cell_range`, which narrows the candidates to the
cells a rectangle truly overlaps; missing candidates can never be
recovered, so the asymmetry is deliberate.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["covered_cell_range", "overlapped_cell_range", "locate_cell"]


def covered_cell_range(
    lo: np.ndarray,
    hi: np.ndarray,
    frame_lo: np.ndarray,
    cell_width: np.ndarray,
    cells_per_dim: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-dimension ``[first, last]`` cell coordinates for ``(lo, hi]``.

    Cell ``i`` covers ``(frame_lo + i*w, frame_lo + (i+1)*w]``.  The
    range is computed with the *same* quantization as
    :func:`locate_cell` — ``cell(x) = ceil((x - frame_lo)/w) - 1`` —
    applied to both endpoints.  Because float division and ceil are
    monotone, every point ``p`` with ``lo < p <= hi`` then locates
    inside ``[cell(lo), cell(hi)]`` *by construction*, regardless of
    rounding; exact-arithmetic formulas (``floor`` on the low side)
    can shift by one when an endpoint sits within an ulp of a
    boundary and silently lose matches.

    The price is that an endpoint lying exactly on a boundary admits
    the neighbouring cell as a candidate even though the half-open
    overlap is empty; callers that need tight membership (the
    clustering grid, the shard router) use
    :func:`overlapped_cell_range` instead, and candidate-bucket
    callers (the grid matcher) simply carry the extra candidate.
    """
    t = (lo - frame_lo) / cell_width
    u = (hi - frame_lo) / cell_width
    first = np.ceil(t).astype(int) - 1
    last = np.ceil(u).astype(int) - 1
    first = np.clip(first, 0, cells_per_dim - 1)
    last = np.clip(last, 0, cells_per_dim - 1)
    return first, np.maximum(last, first)


def overlapped_cell_range(
    lo: np.ndarray,
    hi: np.ndarray,
    frame_lo: np.ndarray,
    cell_width: np.ndarray,
    cells_per_dim: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-dimension ``[start, stop)`` of the cells ``(lo, hi]`` overlaps.

    The :func:`covered_cell_range` candidates, narrowed to the cells
    ``(cell_lo, cell_hi]`` with ``cell_lo = frame_lo + i*w`` and
    ``cell_hi = cell_lo + w`` whose half-open overlap with the
    rectangle is non-empty: ``max(lo, cell_lo) < min(hi, cell_hi)``.
    ``cell_lo`` and ``cell_hi`` are monotone in ``i``, so within a
    dimension the test keeps a prefix intersected with a suffix — one
    contiguous range — and the cells the rectangle overlaps are the
    product of its per-dimension ranges.  A dimension with no
    overlapped cell (an empty side, or one outside the frame) gets
    ``start == stop == 0``.

    ``lo`` and ``hi`` have shape ``(..., N)``: many rectangles are
    handled in one call, over an ``(..., C, N)`` intermediate.
    """
    first, last = covered_cell_range(
        lo, hi, frame_lo, cell_width, cells_per_dim
    )
    i = np.arange(cells_per_dim)[:, None]
    cell_lo = frame_lo + i * cell_width
    cell_hi = cell_lo + cell_width
    lo = np.expand_dims(lo, -2)
    hi = np.expand_dims(hi, -2)
    overlaps = (
        (np.maximum(lo, cell_lo) < np.minimum(hi, cell_hi))
        & (i >= np.expand_dims(first, -2))
        & (i <= np.expand_dims(last, -2))
    )
    hit = overlaps.any(axis=-2)
    start = overlaps.argmax(axis=-2)
    stop = cells_per_dim - overlaps[..., ::-1, :].argmax(axis=-2)
    return np.where(hit, start, 0), np.where(hit, stop, 0)


def locate_cell(
    point: np.ndarray,
    frame_lo: np.ndarray,
    frame_hi: np.ndarray,
    cell_width: np.ndarray,
    cells_per_dim: int,
) -> np.ndarray | None:
    """Cell coordinates of a point, or ``None`` outside the frame.

    Half-open convention: a point exactly on the frame's low edge is
    outside; one exactly on a cell's high boundary belongs to that
    cell (``ceil - 1``).
    """
    if np.any(point <= frame_lo) or np.any(point > frame_hi):
        return None
    coords = np.ceil((point - frame_lo) / cell_width).astype(int) - 1
    return np.clip(coords, 0, cells_per_dim - 1)
