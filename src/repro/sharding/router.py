"""Routed publish and scattered subscriptions over K shard brokers.

**Routing** is the paper's O(N) point resolution reused as a shard
key: :meth:`ShardRouter.resolve` locates a publication's subset via
:class:`~repro.clustering.groups.SpacePartition` (grid cell lookup +
one dict probe) and maps the subset to its owning shard; catchall
publications map cell-wise through the consistent-hash ring, with
out-of-frame points quantized onto a stable pseudo-cell first.

**Scatter** keeps shard-local matching exact: a subscription is
registered on *every* shard owning a cell its rectangle overlaps.  The
correctness invariant is geometric — an event in subset ``S_q`` lands
in a cell of ``S_q``, so any matching rectangle overlaps that cell and
was therefore scattered to the owner.  Rectangles escaping the grid
frame (any side beyond it, including infinite ones) may match
out-of-frame points anywhere, so they scatter to **all** shards.

**Dedup** falls out of the global id space: every shard registers
subscriptions under their *global* ``subscription_id`` and maps its
local matcher output back, so a shard's :class:`MatchResult` is
identical to the unsharded broker's — one delivery per interested
subscriber, no matter how many subsets the subscription spans (the
delivery layer's receiver dedup then guards the wire).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.broker import PubSubBroker
from ..core.distribution import DistributionDecision
from ..core.event import Event
from ..core.matching import MatchingEngine, MatchResult
from ..core.subscription import Subscription, SubscriptionTable
from ..geometry.gridmath import overlapped_cell_range
from ..geometry.rectangle import Rectangle
from ..telemetry.base import Telemetry, or_null
from .map import ShardMap

__all__ = ["ShardBroker", "ShardRouter", "RoutedPublish"]

_EMPTY_MATCH = MatchResult(subscription_ids=(), subscribers=())


@dataclass(frozen=True)
class RoutedPublish:
    """One publication's routing outcome: who owns it, what it matched."""

    q: int
    shard: int
    epoch: int
    match: MatchResult
    decision: DistributionDecision


class ShardBroker:
    """One shard's matching service over its scattered subscriptions.

    Keeps entries keyed by **global** subscription id and rebuilds a
    local positional table + matching engine lazily after changes; the
    local→global id mapping makes :meth:`match` return globally
    comparable results.
    """

    def __init__(self, shard_id: int, home: int, ndim: int):
        self.shard_id = int(shard_id)
        #: Network node hosting this shard (a transit/broker node).
        self.home = int(home)
        self.ndim = int(ndim)
        self._entries: Dict[int, Tuple[int, Rectangle]] = {}
        self._ids: List[int] = []
        self._engine: Optional[MatchingEngine] = None
        self._dirty = True
        #: Optional taps for durability/replication layers: called after
        #: an entry is admitted / removed, with the mutation already
        #: visible in ``_entries``.  ``on_register(gid, subscriber,
        #: rectangle)`` / ``on_withdraw(gid)``.
        self.on_register: Optional[Callable[[int, int, Rectangle], None]] = None
        self.on_withdraw: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def subscription_ids(self) -> List[int]:
        return sorted(self._entries)

    def register(self, subscription: Subscription) -> bool:
        """Admit one subscription; False if it was already here (dedup)."""
        gid = int(subscription.subscription_id)
        if gid in self._entries:
            return False
        self._entries[gid] = (
            int(subscription.subscriber),
            subscription.rectangle,
        )
        self._dirty = True
        if self.on_register is not None:
            self.on_register(
                gid, int(subscription.subscriber), subscription.rectangle
            )
        return True

    def withdraw(self, global_ids: Sequence[int]) -> int:
        """Drop subscriptions this shard no longer owns; returns count."""
        removed = 0
        for gid in global_ids:
            if self._entries.pop(int(gid), None) is not None:
                removed += 1
                if self.on_withdraw is not None:
                    self.on_withdraw(int(gid))
        if removed:
            self._dirty = True
        return removed

    def _rebuild(self) -> None:
        ids = sorted(self._entries)
        self._ids = ids
        if not ids:
            self._engine = None
        else:
            table = SubscriptionTable(self.ndim)
            for gid in ids:
                subscriber, rectangle = self._entries[gid]
                table.add(subscriber, rectangle)
            self._engine = MatchingEngine(table)
        self._dirty = False

    def match(self, event: Event) -> MatchResult:
        """Local match, reported in global subscription ids (sorted)."""
        if self._dirty:
            self._rebuild()
        if self._engine is None:
            return _EMPTY_MATCH
        local = self._engine.match(event)
        return MatchResult(
            subscription_ids=tuple(
                sorted(self._ids[i] for i in local.subscription_ids)
            ),
            subscribers=local.subscribers,
        )


class ShardRouter:
    """Resolve publications to shards; scatter subscriptions onto them.

    ``homes`` maps shard id → hosting network node; without one, shard
    ids double as node ids (enough for in-process tests).  ``down``
    tracks dead shards: subset ownership moves off them only through an
    explicit migration (the rebalancer's job), but catchall cells
    redistribute immediately via ring exclusion — call
    :meth:`mark_down` to trigger the re-scatter that keeps the
    survivors' matching exact.
    """

    def __init__(
        self,
        broker: PubSubBroker,
        shard_map: ShardMap,
        homes: Optional[Dict[int, int]] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.broker = broker
        self.partition = broker.partition
        self.map = shard_map
        self.telemetry = or_null(telemetry)
        self.down: Set[int] = set()
        self.scattered = 0
        ndim = broker.table.ndim
        homes = homes or {k: k for k in range(shard_map.num_shards)}
        self.shards: Dict[int, ShardBroker] = {
            k: ShardBroker(k, homes[k], ndim)
            for k in range(shard_map.num_shards)
        }
        for subscription in broker.table:
            self.scatter(subscription)

    # -- subscription scatter -------------------------------------------------

    def cells_of_rectangle(
        self, rectangle: Rectangle
    ) -> Optional[List[Tuple[int, ...]]]:
        """Grid cells a rectangle overlaps, or ``None`` if it escapes.

        ``None`` means the rectangle extends beyond the grid frame on
        some side — it may match out-of-frame publications, so no cell
        enumeration can bound where it must live.
        """
        grid = self.partition.grid
        lo = np.asarray(rectangle.lows, dtype=np.float64)
        hi = np.asarray(rectangle.highs, dtype=np.float64)
        if np.any(hi <= lo):
            return []  # empty rectangle: matches nothing anywhere
        if np.any(lo < grid.frame_lo) or np.any(hi > grid.frame_hi):
            return None
        start, stop = overlapped_cell_range(
            lo, hi, grid.frame_lo, grid.cell_width, grid.cells_per_dim
        )
        return list(product(*map(range, start.tolist(), stop.tolist())))

    def shards_of_rectangle(self, rectangle: Rectangle) -> List[int]:
        """Every shard that must hold this subscription (sorted)."""
        cells = self.cells_of_rectangle(rectangle)
        if cells is None:
            # Frame-escaping rectangle: an out-of-frame publication can
            # hash to any shard, so the subscription lives everywhere.
            return list(range(self.map.num_shards))
        owners: Set[int] = set()
        for index in cells:
            q = self.partition.group_of_cell(index)
            if q > 0:
                owners.add(self.map.owner_of_subset(q))
            else:
                owners.add(self.map.owner_of_cell(index, exclude=self.down))
        return sorted(owners)

    def subsets_of_rectangle(self, rectangle: Rectangle) -> List[int]:
        """Real subsets (``q >= 1``) a rectangle overlaps (sorted)."""
        cells = self.cells_of_rectangle(rectangle)
        if cells is None:
            return sorted(g.q for g in self.partition.groups)
        return sorted(
            {
                q
                for q in (
                    self.partition.group_of_cell(index) for index in cells
                )
                if q > 0
            }
        )

    def scatter(self, subscription: Subscription) -> int:
        """Register one subscription on every owning shard."""
        added = 0
        for shard in self.shards_of_rectangle(subscription.rectangle):
            if shard in self.down:
                continue
            if self.shards[shard].register(subscription):
                added += 1
        self.scattered += added
        if added and self.telemetry.enabled:
            self.telemetry.counter(
                "sharding.scattered",
                help="shard-level subscription registrations",
            ).inc(added)
        return added

    def subscriptions_of_subset(self, q: int) -> List[Subscription]:
        """Subscriptions that must follow subset ``q`` in a migration."""
        return [
            subscription
            for subscription in self.broker.table
            if int(q) in self.subsets_of_rectangle(subscription.rectangle)
        ]

    def refresh_shard(self, shard_id: int) -> int:
        """Drop entries a shard no longer owns under the current map.

        Idempotent: a second call finds nothing stale and changes
        nothing (returns 0).
        """
        shard = self.shards[int(shard_id)]
        stale = [
            gid
            for gid in shard.subscription_ids
            if shard.shard_id
            not in self.shards_of_rectangle(self.broker.table[gid].rectangle)
        ]
        return shard.withdraw(stale)

    def mark_down(self, shard_id: int) -> int:
        """Exclude a dead shard from catchall ownership and re-scatter.

        Subset ownership moves only via explicit migration; catchall
        cells redistribute by ring exclusion, so the survivors must
        pick up the subscriptions overlapping the cells they just
        inherited.  Returns the registrations added.

        Idempotent: marking a shard that is already down is a no-op —
        re-scattering again would double-count ``scattered`` and churn
        the survivors' engines for nothing.
        """
        if int(shard_id) in self.down:
            return 0
        self.down.add(int(shard_id))
        added = 0
        for subscription in self.broker.table:
            for shard in self.shards_of_rectangle(subscription.rectangle):
                if shard in self.down:
                    continue
                if self.shards[shard].register(subscription):
                    added += 1
        self.scattered += added
        return added

    # -- publication routing --------------------------------------------------

    def resolve(self, point: Sequence[float]) -> Tuple[int, int]:
        """``(q, shard)`` for one publication point — O(N) + dict probes."""
        q = self.partition.locate(point)
        if q > 0:
            return q, self.map.owner_of_subset(q)
        grid = self.partition.grid
        cell = grid.locate(point)
        if cell is None:
            cell = grid.quantize(point)
        return 0, self.map.owner_of_cell(cell, exclude=self.down)

    def catchall_cell(self, point: Sequence[float]) -> Tuple[int, ...]:
        """The (pseudo-)cell a catchall publication hashes through."""
        grid = self.partition.grid
        cell = grid.locate(point)
        if cell is None:
            cell = grid.quantize(point)
        return cell

    def route(self, event: Event) -> RoutedPublish:
        """Resolve, match at the owner, and decide the delivery method."""
        q, shard = self.resolve(event.point)
        match = self.shards[shard].match(event)
        group_size = self.partition.group(q).size if q > 0 else 0
        decision = self.broker.policy.decide(
            interested=match.num_subscribers,
            group_size=group_size,
            group=q,
        )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "sharding.routed",
                help="publications routed to their owning shard",
                shard=str(shard),
            ).inc()
        return RoutedPublish(
            q=q,
            shard=shard,
            epoch=self.map.epoch,
            match=match,
            decision=decision,
        )

    # -- diagnostics ----------------------------------------------------------

    def shard_stats(self) -> List[Dict[str, object]]:
        """One row per shard for the CLI tables."""
        loads = self.map.shard_loads()
        return [
            {
                "shard": k,
                "home": self.shards[k].home,
                "subsets": self.map.subsets_of(k),
                "subscriptions": len(self.shards[k]),
                "planned_load": loads[k],
                "down": k in self.down,
            }
            for k in range(self.map.num_shards)
        ]
