"""The S-tree: an unbalanced spatial index packed for point queries.

This is the paper's matching structure (Section 3), following
Aggarwal, Wolf, Yu and Epelman, *Using unbalanced trees for indexing
multidimensional objects* (KAIS 1999).  Leaf and internal node records
look exactly like R-tree records — ``(MBR, subscription-id)`` at the
leaves and ``(MBR, child)`` internally — but the packing is different
and the tree is deliberately *not* height balanced.

Construction proceeds in the paper's two stages:

1. **Binarization** — a top-down recursive split.  A node holding
   ``N_A`` objects becomes a leaf when ``N_A <= M``.  Otherwise we take
   the node's minimum bounding rectangle, choose its *longest*
   dimension, order the objects by their centers along that dimension,
   and sweep candidate split positions ``q`` with
   ``p*N_A <= q <= (1-p)*N_A`` in increments of ``M`` (``p`` is the
   *skew factor*, typically 0.3).  The split minimizing the sum of the
   two child MBR volumes wins; ties go to the smaller total perimeter.

2. **Compression** — turn the binary tree into an M-ary tree.  First,
   every deepest internal node whose number of *leaf-node* descendants
   is at most ``M`` (while its parent's exceeds ``M``) swallows all
   internal nodes beneath it, becoming a *penultimate* node that
   directly parents its leaves.  Then, walking the remaining internal
   nodes top-down (breadth-first), each parent repeatedly collapses
   with its non-leaf child of highest *leaf number* (descendant object
   count) — growing its branch factor one child at a time — until the
   branch factor reaches ``M`` or all children are leaves.

Volumes of unbounded subscriptions (``volume >= 1000`` has an infinite
side) are measured against a bounded *packing frame* derived from the
finite coordinates present in the data, so the sweep objective stays
informative; query-time MBRs always use the true, unclipped bounds, so
correctness never depends on the frame.

The compressed tree is not kept as objects.  It is numbered
breadth-first into flat arrays: per node, a padded slab of its
``M`` child MBRs (or leaf rectangles) and a table of child node indices
(or subscription ids).  A query descends one tree level per step: it
tests every slot of every node on the current frontier in one
vectorized comparison, reports the hits of leaf slots, and makes the
hits of internal slots the next frontier.  It visits exactly the nodes
and tests exactly the entries a node-at-a-time descent would.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..geometry.arrays import (
    bulk_centers,
    running_mbr_backward,
    running_mbr_forward,
)
from .base import PointMatcher

__all__ = ["STree", "STreeParams", "TreeShape"]

#: Default maximum branch factor ("about 40" in the paper).
DEFAULT_BRANCH_FACTOR = 40
#: Default skew factor ("typically p is chosen to be about 0.3").
DEFAULT_SKEW_FACTOR = 0.3
#: The first frontier of every descent: node 0, the root.
_ROOT = np.zeros(1, dtype=np.int64)
_ROOT.flags.writeable = False
#: Relative margin added around the data when deriving the packing frame.
_FRAME_MARGIN = 0.5


@dataclass(frozen=True)
class STreeParams:
    """Build-time knobs of the S-tree.

    Parameters
    ----------
    branch_factor:
        Maximum fanout ``M`` (also the leaf capacity).
    skew_factor:
        ``p ∈ (0, 1/2]``; smaller values allow more skew.
    sweep_increment:
        Stride of the binarization sweep.  ``None`` uses the paper's
        choice of ``M``; 1 evaluates every legal split (slower, used by
        the ablation benchmark).
    split_dimension:
        ``"best"`` (default) sweeps every dimension and keeps the
        globally volume-minimizing split; ``"longest"`` is the ICDCS
        text's literal heuristic — sweep only the dimension in which
        the node's MBR is longest.  On workloads mixing wildcards and
        rays into a few wide dimensions, ``"longest"`` spends every
        level on those dimensions and prunes poorly; the ablation
        benchmark quantifies the gap.
    """

    branch_factor: int = DEFAULT_BRANCH_FACTOR
    skew_factor: float = DEFAULT_SKEW_FACTOR
    sweep_increment: Optional[int] = None
    split_dimension: str = "best"

    def __post_init__(self) -> None:
        if self.branch_factor < 2:
            raise ValueError("branch_factor must be at least 2")
        if not 0.0 < self.skew_factor <= 0.5:
            raise ValueError("skew_factor must lie in (0, 1/2]")
        if self.sweep_increment is not None and self.sweep_increment < 1:
            raise ValueError("sweep_increment must be positive")
        if self.split_dimension not in ("best", "longest"):
            raise ValueError(
                "split_dimension must be 'best' or 'longest', got "
                f"{self.split_dimension!r}"
            )

    @property
    def effective_sweep_increment(self) -> int:
        """The stride actually used (defaults to the branch factor)."""
        return self.sweep_increment or self.branch_factor


@dataclass(frozen=True)
class TreeShape:
    """Structural summary of a built tree (for benchmarks and tests)."""

    height: int
    internal_nodes: int
    leaf_nodes: int
    entries: int
    min_leaf_depth: int
    max_leaf_depth: int
    mean_branch_factor: float

    @property
    def skewness(self) -> int:
        """Depth spread between the shallowest and deepest leaf."""
        return self.max_leaf_depth - self.min_leaf_depth


class _BinaryNode:
    """Intermediate node used during binarization and compression."""

    __slots__ = ("children", "indices", "leaf_number")

    def __init__(
        self,
        indices: Optional[np.ndarray] = None,
        children: Optional[List["_BinaryNode"]] = None,
        leaf_number: int = 0,
    ):
        self.indices = indices  # set only on leaves
        self.children = children if children is not None else []
        self.leaf_number = leaf_number

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None

    def collect_leaves(self) -> List[_BinaryNode]:
        """All leaf nodes in this subtree, left to right."""
        if self.is_leaf:
            return [self]
        result: List[_BinaryNode] = []
        for child in self.children:
            result.extend(child.collect_leaves())
        return result


class STree(PointMatcher):
    """Point-query index over subscription rectangles (paper Section 3)."""

    def __init__(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        ids: np.ndarray,
        params: Optional[STreeParams] = None,
    ):
        super().__init__(lows, highs, ids)
        self.params = params or STreeParams()
        pack_lows, pack_highs = _packing_frame_clip(lows, highs)
        self._pack_lows = pack_lows
        self._pack_highs = pack_highs
        # Centers of the *clipped* rectangles drive the sweep ordering.
        # On the finite domains the S-tree paper assumes, a half-open
        # ray's center is the midpoint of its clipped extent — far from
        # the bounded population — so rays and wildcards sort to the
        # edges and get segregated into their own subtrees instead of
        # poisoning every leaf MBR with an unbounded side.
        self._pack_centers = bulk_centers(pack_lows, pack_highs)
        binary_root = self._binarize(np.arange(self.size, dtype=np.int64))
        _compress(binary_root, self.params.branch_factor)
        self._flatten(binary_root)

    # -- binarization -------------------------------------------------------

    def _binarize(self, indices: np.ndarray) -> _BinaryNode:
        """Recursively split ``indices`` per the sweep rule."""
        count = len(indices)
        if count <= self.params.branch_factor:
            return _BinaryNode(indices=indices, leaf_number=count)
        left_idx, right_idx = self._best_split(indices)
        left = self._binarize(left_idx)
        right = self._binarize(right_idx)
        return _BinaryNode(children=[left, right], leaf_number=count)

    def _best_split(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One binarization step.

        Sweeps candidate split positions (respecting the skew bounds,
        in strides of the sweep increment) along each candidate
        dimension's center order, and returns the split minimizing the
        summed child-MBR volumes, ties broken by total perimeter.
        """
        lows = self._pack_lows[indices]
        highs = self._pack_highs[indices]
        count = len(indices)

        if self.params.split_dimension == "longest":
            extents = highs.max(axis=0) - lows.min(axis=0)
            dims = [int(np.argmax(extents))]
        else:
            dims = list(range(self.ndim))

        p = self.params.skew_factor
        q_min = max(1, math.ceil(p * count))
        q_max = min(count - 1, math.floor((1 - p) * count))
        if q_min > q_max:
            q_min = q_max = count // 2
        step = self.params.effective_sweep_increment
        candidates = np.arange(q_min, q_max + 1, step, dtype=np.int64)
        if candidates[-1] != q_max:
            # Always consider the last legal split so the sweep covers
            # the whole admissible range regardless of the stride.
            candidates = np.append(candidates, q_max)

        best_key = None
        best_q = 0
        best_order: Optional[np.ndarray] = None
        for dim in dims:
            order = np.argsort(
                self._pack_centers[indices, dim], kind="stable"
            )
            lo = lows[order]
            hi = highs[order]
            fwd_lo, fwd_hi = running_mbr_forward(lo, hi)
            bwd_lo, bwd_hi = running_mbr_backward(lo, hi)
            left_ext = fwd_hi[candidates - 1] - fwd_lo[candidates - 1]
            right_ext = bwd_hi[candidates] - bwd_lo[candidates]
            volumes = np.prod(left_ext, axis=1) + np.prod(right_ext, axis=1)
            perimeters = left_ext.sum(axis=1) + right_ext.sum(axis=1)
            pick = int(np.lexsort((perimeters, volumes))[0])
            key = (float(volumes[pick]), float(perimeters[pick]))
            if best_key is None or key < best_key:
                best_key = key
                best_q = int(candidates[pick])
                best_order = order
        sorted_indices = indices[best_order]
        return sorted_indices[:best_q], sorted_indices[best_q:]

    # -- flattening ----------------------------------------------------------

    def _flatten(self, root: _BinaryNode) -> None:
        """Lay the compressed tree out as breadth-first node arrays.

        Node ``i`` owns row ``i`` of every array.  Its slot ``j`` holds
        child ``j``'s MBR (internal node) or entry ``j``'s rectangle
        (leaf) in ``_lo[i, :, j]`` / ``_hi[i, :, j]``, and the child's
        node index or the entry's subscription id in ``_ref[i, j]``.
        Slots past ``_count[i]`` are padding with ``lo = +inf`` and
        ``hi = -inf``, which no point or region can overlap.

        The slabs are ``(n_nodes, N, M)`` with ``M`` the widest node's
        slot count (at most the branch factor), dimension-major within a
        node: reducing a frontier's hit test over the ``N`` axes then
        ANDs ``N`` contiguous rows of ``M`` slots instead of reducing
        ``M`` runs of ``N`` bytes, which halves the test's cost.
        """
        nodes = [root]
        depth = [0]
        first_child = []
        for i, node in enumerate(nodes):  # grows as it goes: breadth-first
            first_child.append(len(nodes))
            nodes.extend(node.children)
            depth.extend([depth[i] + 1] * len(node.children))
        n_nodes = len(nodes)
        is_leaf = np.array([node.is_leaf for node in nodes])
        count = np.array(
            [len(node.indices) if node.is_leaf else len(node.children)
             for node in nodes],
            dtype=np.int64,
        )
        width = int(count.max())
        lo = np.full((n_nodes, self.ndim, width), np.inf)
        hi = np.full((n_nodes, self.ndim, width), -np.inf)
        ref = np.zeros((n_nodes, width), dtype=np.int64)

        leaves = np.flatnonzero(is_leaf)
        rows = np.concatenate([nodes[i].indices for i in leaves])
        leaf_of = np.repeat(leaves, count[leaves])
        slot_of = np.concatenate([np.arange(count[i]) for i in leaves])
        lo[leaf_of, :, slot_of] = self._lows[rows]
        hi[leaf_of, :, slot_of] = self._highs[rows]
        ref[leaf_of, slot_of] = self._ids[rows]

        # Every non-root node is slot (i - first_child[parent]) of its
        # parent; children sit one level deeper, so filling parent
        # slots deepest level first sees every child's slab complete.
        parent = np.repeat(np.arange(n_nodes), np.where(is_leaf, 0, count))
        child = np.arange(1, n_nodes)
        slot = child - np.asarray(first_child)[parent]
        ref[parent, slot] = child
        depth_of = np.asarray(depth)
        for level in range(int(depth_of.max()), 0, -1):
            at = depth_of[child] == level
            lo[parent[at], :, slot[at]] = lo[child[at]].min(axis=2)
            hi[parent[at], :, slot[at]] = hi[child[at]].max(axis=2)

        self._lo = lo
        self._hi = hi
        self._ref = ref
        self._is_leaf = is_leaf
        self._count = count
        self._depth = depth_of

    # -- queries --------------------------------------------------------------------

    def _descend(
        self, overlaps: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Level-synchronous descent; ids of every entry reached.

        ``overlaps(lo, hi)`` maps the gathered ``(F, N, M)`` slabs of a
        frontier of ``F`` nodes to an ``(F, M)`` hit mask.  Hit slots of
        leaves are results; hit slots of internal nodes form the next
        frontier.  The visit counters are the ones a node-at-a-time
        descent would record: each frontier node is visited once, and a
        leaf tests exactly its ``count`` entries.
        """
        stats = self.stats
        found: List[np.ndarray] = []
        frontier = _ROOT
        while frontier.size:
            hit = overlaps(self._lo[frontier], self._hi[frontier])
            refs = self._ref[frontier]
            leaf = self._is_leaf[frontier]
            leaves = int(np.count_nonzero(leaf))
            stats.nodes_visited += frontier.size - leaves
            stats.leaves_visited += leaves
            if leaves:
                stats.entries_tested += int(self._count[frontier[leaf]].sum())
                found.append(refs[hit & leaf[:, None]])
                hit &= ~leaf[:, None]
            frontier = refs[hit]
        # With no leaf reached, the empty last frontier is the answer.
        return np.concatenate(found) if found else frontier

    def _match_ids(self, point: np.ndarray) -> List[int]:
        p = point[:, None]
        return self._descend(
            lambda lo, hi: ((lo < p) & (p <= hi)).all(axis=1)
        ).tolist()

    def region_query(self, lows: Sequence[float], highs: Sequence[float]) -> List[int]:
        """All rectangle ids intersecting the query rectangle ``(lows, highs]``.

        Runs the point query's descent with the overlap test
        ``max(lo, q_lo) < min(hi, q_hi)`` on every axis, so a
        zero-width query overlaps nothing.  Nothing in the pipeline
        calls it: the clustering grid computes cell membership with
        :func:`repro.geometry.gridmath.overlapped_cell_range`.
        """
        q_lo = np.asarray(lows, dtype=np.float64)
        q_hi = np.asarray(highs, dtype=np.float64)
        if q_lo.shape != (self.ndim,) or q_hi.shape != (self.ndim,):
            raise ValueError("query bounds must have one value per dimension")
        self.stats.queries += 1
        q_lo = q_lo[:, None]
        q_hi = q_hi[:, None]
        result = self._descend(
            lambda lo, hi: (
                np.maximum(lo, q_lo) < np.minimum(hi, q_hi)
            ).all(axis=1)
        ).tolist()
        result.sort()
        return result

    # -- introspection ----------------------------------------------------------------

    def shape(self) -> TreeShape:
        """Structural summary (height, node counts, balance)."""
        leaf = self._is_leaf
        internal = int(np.count_nonzero(~leaf))
        leaf_depths = self._depth[leaf]
        return TreeShape(
            height=int(leaf_depths.max()),
            internal_nodes=internal,
            leaf_nodes=int(np.count_nonzero(leaf)),
            entries=int(self._count[leaf].sum()),
            min_leaf_depth=int(leaf_depths.min()),
            max_leaf_depth=int(leaf_depths.max()),
            mean_branch_factor=(
                int(self._count[~leaf].sum()) / internal if internal else 0.0
            ),
        )


def _packing_frame_clip(
    lows: np.ndarray, highs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clip bounds to a finite frame for packing-geometry purposes.

    The frame spans the finite coordinates present in the data,
    extended by a relative margin so clipped unbounded sides remain
    strictly larger than any bounded side they dominate.
    """
    finite_lo = np.where(np.isfinite(lows), lows, np.nan)
    finite_hi = np.where(np.isfinite(highs), highs, np.nan)
    stacked = np.concatenate([finite_lo, finite_hi], axis=0)
    with warnings.catch_warnings():
        # Dimensions with no finite coordinate yield all-NaN slices;
        # they are patched to a unit frame right below.
        warnings.simplefilter("ignore", RuntimeWarning)
        frame_lo = np.nanmin(stacked, axis=0)
        frame_hi = np.nanmax(stacked, axis=0)
    # Dimensions with no finite coordinate at all get a unit frame.
    missing = ~np.isfinite(frame_lo)
    frame_lo[missing] = 0.0
    frame_hi[missing] = 1.0
    span = np.maximum(frame_hi - frame_lo, 1.0)
    frame_lo = frame_lo - _FRAME_MARGIN * span
    frame_hi = frame_hi + _FRAME_MARGIN * span
    return np.maximum(lows, frame_lo), np.minimum(highs, frame_hi)


def _compress(root: _BinaryNode, branch_factor: int) -> None:
    """Compression stage: binary tree -> M-ary tree, in place."""
    if root.is_leaf:
        return
    _form_penultimate_nodes(root, branch_factor)
    _collapse_top_down(root, branch_factor)


def _form_penultimate_nodes(root: _BinaryNode, branch_factor: int) -> None:
    """First compression pass (bottom-up one level).

    Every highest node whose subtree contains at most ``M`` leaf nodes
    swallows all internal structure beneath it and directly parents its
    leaves.
    """
    def visit(node: _BinaryNode) -> int:
        """Return the subtree's leaf-node count, collapsing when <= M."""
        if node.is_leaf:
            return 1
        count = sum(visit(child) for child in node.children)
        if count <= branch_factor and any(
            not child.is_leaf for child in node.children
        ):
            node.children = node.collect_leaves()
        return count

    visit(root)


def _collapse_top_down(root: _BinaryNode, branch_factor: int) -> None:
    """Second compression pass: grow branch factors toward ``M``.

    Processes internal nodes in breadth-first order; each repeatedly
    splices in the non-leaf child with the highest leaf number, one
    child at a time, while its branch factor stays within ``M``.
    """
    queue: List[_BinaryNode] = [root]
    while queue:
        node = queue.pop(0)
        if node.is_leaf:
            continue
        while len(node.children) < branch_factor:
            eligible = [
                child
                for child in node.children
                if not child.is_leaf
                and len(node.children) - 1 + len(child.children)
                <= branch_factor
            ]
            if not eligible:
                break
            best = max(eligible, key=lambda c: c.leaf_number)
            position = node.children.index(best)
            node.children[position : position + 1] = best.children
        queue.extend(child for child in node.children if not child.is_leaf)
