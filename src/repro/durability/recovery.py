"""Crash recovery: snapshot + WAL tail → the broker that crashed.

The restart sequence (deterministic — a pure function of the stored
bytes):

1. load the newest *valid* snapshot (torn/corrupt snapshot files are
   skipped by the store);
2. scan the WAL front to back, stopping at the first torn or
   CRC-invalid record; physically truncate the damaged tail
   (:meth:`~repro.durability.wal.WriteAheadLog.repair`) so the log is
   clean for the next epoch — never replay garbage;
3. replay the surviving records: SUBSCRIBE/UNSUBSCRIBE at or past the
   snapshot's ``checkpoint_lsn`` mutate the table, while PUBLISH /
   DELIVER pairs (at any retained LSN) reconstruct the **in-flight
   set** — every (event, target) whose publish intent was journaled
   but whose delivery completion never was;
4. :func:`restore_broker` then rebuilds the derived state the paper's
   preprocessing produced — the grid, the restored space partition,
   and a freshly packed S-tree via the existing
   :class:`~repro.core.dynamic.DynamicMatchingEngine` machinery — and
   the caller re-hands the in-flight set to the reliable transport,
   whose receiver-side dedup turns redelivery into exactly-once.

Malformed-but-CRC-valid records (impossible under this writer, cheap
insurance against future format skew) are skipped and counted, never
raised on: recovery's contract is that it always terminates with a
usable broker and an honest report of what it could not salvage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..clustering.grid import EventGrid
from ..clustering.groups import SpacePartition
from ..core.subscription import SubscriptionTable
from ..geometry.rectangle import Rectangle
from ..io import canonical_digest, table_to_dict
from ..telemetry.base import Telemetry, or_null
from .snapshot import SnapshotStore
from .wal import RecordKind, WriteAheadLog

__all__ = ["InflightDelivery", "RecoveredState", "recover", "restore_broker"]


@dataclass(frozen=True)
class InflightDelivery:
    """One journaled publish intent with its still-unacked targets."""

    sequence: int
    publisher: int
    targets: Tuple[int, ...]
    #: LSN of the PUBLISH record (the truncation low-water mark).
    lsn: int


@dataclass
class RecoveredState:
    """Everything recovery reconstructed, plus how it got there."""

    table: Optional[SubscriptionTable]
    removed: Set[int]
    partition_state: Optional[Dict]
    #: sequence → unfinished delivery (sorted targets), for redelivery.
    inflight: Dict[int, InflightDelivery]
    #: session id → cursor-table entry (subscriber, sids, state,
    #: durable, cursor), rebuilt from the snapshot's session table
    #: plus SESSION/CURSOR records past the checkpoint.  Empty for
    #: brokers without a session layer.
    sessions: Dict[str, Dict] = None  # type: ignore[assignment]
    checkpoint_lsn: int = 0
    snapshot_id: Optional[int] = None
    #: Records decoded and applied from the WAL (all kinds).
    replayed: int = 0
    subscriptions_replayed: int = 0
    removals_replayed: int = 0
    #: CRC-valid records recovery could not interpret (skipped, loud).
    skipped: int = 0
    #: Bytes cut off the WAL tail because of torn/corrupt records.
    truncated_bytes: int = 0
    corruption: Optional[str] = None
    valid_end: int = 0

    def digest(self) -> str:
        """Deterministic fingerprint of the recovered state.

        Two recoveries from the same snapshot + WAL bytes produce the
        same digest — the seed-stability property the tests pin.
        """
        body = {
            "table": table_to_dict(self.table) if self.table else None,
            "removed": sorted(self.removed),
            "partition": self.partition_state,
            "inflight": [
                [seq, entry.publisher, list(entry.targets)]
                for seq, entry in sorted(self.inflight.items())
            ],
            "checkpoint_lsn": self.checkpoint_lsn,
            "valid_end": self.valid_end,
        }
        if self.sessions:
            # Only present for session-bearing brokers, so digests of
            # session-less recoveries match their pinned pre-session
            # values byte for byte.
            body["sessions"] = {
                sid: dict(sorted(entry.items()))
                for sid, entry in sorted(self.sessions.items())
            }
        return canonical_digest(body)


def _decode_bound(value) -> float:
    # Mirrors repro.io's sentinel encoding without importing privates.
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    return float(value)


def recover(
    wal: WriteAheadLog,
    store: SnapshotStore,
    telemetry: Optional[Telemetry] = None,
) -> RecoveredState:
    """Rebuild broker state from durable storage after a crash.

    Never raises on damaged input: a torn or corrupt WAL tail is
    truncated at the last valid record (and reported via
    ``truncated_bytes`` / ``corruption``), a damaged snapshot falls
    back to the previous one, and undecodable record bodies are
    counted in ``skipped``.
    """
    telemetry = or_null(telemetry)
    span = None
    if telemetry.enabled:
        span = telemetry.start_span("recovery")
        telemetry.counter(
            "recovery.runs", help="crash recoveries performed"
        ).inc()

    snapshot = store.latest()
    scan = wal.scan()
    truncated = wal.end_lsn - scan.valid_end
    if not scan.clean:
        wal.repair()

    table: Optional[SubscriptionTable] = None
    removed: Set[int] = set()
    partition_state: Optional[Dict] = None
    checkpoint_lsn = 0
    snapshot_id = None
    if snapshot is not None:
        from ..io import table_from_dict

        table = table_from_dict(snapshot.table)
        removed = {int(x) for x in snapshot.removed}
        partition_state = snapshot.partition
        checkpoint_lsn = snapshot.checkpoint_lsn
        snapshot_id = snapshot.snapshot_id

    sessions: Dict[str, Dict] = {}
    if snapshot is not None and snapshot.sessions:
        sessions = {
            str(sid): dict(entry)
            for sid, entry in snapshot.sessions.items()
        }

    state = RecoveredState(
        table=table,
        removed=removed,
        partition_state=partition_state,
        inflight={},
        sessions=sessions,
        checkpoint_lsn=checkpoint_lsn,
        snapshot_id=snapshot_id,
        truncated_bytes=truncated,
        corruption=scan.corruption,
        valid_end=scan.valid_end,
    )

    pending: Dict[int, Dict] = {}  # seq -> {publisher, targets, lsn}
    for record in scan.records:
        body = record.body
        try:
            if record.kind is RecordKind.SUBSCRIBE:
                if record.lsn < checkpoint_lsn:
                    continue  # already folded into the snapshot
                sid = int(body["sid"])
                if state.table is None:
                    state.table = SubscriptionTable(len(body["lows"]))
                if sid != len(state.table):
                    state.skipped += 1
                    continue  # id-space gap: refuse to mis-assign
                state.table.add(
                    int(body["subscriber"]),
                    Rectangle(
                        tuple(_decode_bound(x) for x in body["lows"]),
                        tuple(_decode_bound(x) for x in body["highs"]),
                    ),
                )
                state.subscriptions_replayed += 1
            elif record.kind is RecordKind.UNSUBSCRIBE:
                if record.lsn < checkpoint_lsn:
                    continue
                sid = int(body["sid"])
                if state.table is None or sid >= len(state.table):
                    state.skipped += 1
                    continue
                state.removed.add(sid)
                state.removals_replayed += 1
            elif record.kind is RecordKind.PUBLISH:
                pending[int(body["seq"])] = {
                    "publisher": int(body["publisher"]),
                    "targets": {int(t) for t in body["targets"]},
                    "lsn": record.lsn,
                }
            elif record.kind is RecordKind.DELIVER:
                entry = pending.get(int(body["seq"]))
                if entry is not None:
                    entry["targets"].discard(int(body["target"]))
                    if not entry["targets"]:
                        del pending[int(body["seq"])]
            elif record.kind is RecordKind.SESSION:
                if record.lsn < checkpoint_lsn:
                    continue  # already folded into the snapshot's table
                action = str(body["action"])
                sid = str(body["id"])
                if action == "register":
                    state.sessions[sid] = {
                        "subscriber": int(body["subscriber"]),
                        "sids": sorted(int(x) for x in body["sids"]),
                        "state": "live",
                        "durable": True,
                        "cursor": int(body.get("cursor", 0)),
                        "lease": float(body["lease"]),
                    }
                elif action in ("detach", "resume", "expire"):
                    entry = state.sessions.get(sid)
                    if entry is None:
                        state.skipped += 1
                        continue
                    if action == "detach":
                        entry["state"] = "detached"
                        entry["detached_at"] = float(body["t"])
                    elif action == "resume":
                        entry["state"] = "live"
                        entry.pop("detached_at", None)
                    else:
                        entry["durable"] = False
                else:
                    state.skipped += 1
                    continue
            elif record.kind is RecordKind.CURSOR:
                if record.lsn < checkpoint_lsn:
                    continue
                entry = state.sessions.get(str(body["id"]))
                if entry is None:
                    state.skipped += 1
                    continue
                entry["cursor"] = max(
                    int(entry.get("cursor", 0)), int(body["cursor"])
                )
            # CHECKPOINT markers are informational; the snapshot store
            # is the authority on which checkpoint actually survived.
        except (KeyError, TypeError, ValueError):
            state.skipped += 1
            continue
        state.replayed += 1

    state.inflight = {
        seq: InflightDelivery(
            sequence=seq,
            publisher=entry["publisher"],
            targets=tuple(sorted(entry["targets"])),
            lsn=entry["lsn"],
        )
        for seq, entry in sorted(pending.items())
    }

    if telemetry.enabled:
        telemetry.counter(
            "recovery.replayed", help="WAL records replayed on recovery"
        ).inc(state.replayed)
        telemetry.counter(
            "recovery.truncated",
            help="WAL bytes truncated as torn/corrupt on recovery",
        ).inc(state.truncated_bytes)
        telemetry.counter(
            "recovery.inflight",
            help="unacked (event, target) deliveries found on recovery",
        ).inc(sum(len(e.targets) for e in state.inflight.values()))
        span.set_attribute("replayed", state.replayed).set_attribute(
            "truncated_bytes", state.truncated_bytes
        ).set_attribute(
            "inflight", len(state.inflight)
        ).set_attribute(
            "snapshot", snapshot_id if snapshot_id is not None else -1
        ).finish()
    return state


def restore_broker(
    broker,
    state: RecoveredState,
    telemetry: Optional[Telemetry] = None,
) -> None:
    """Point a broker at recovered state, rebuilding the derived pieces.

    The snapshot stores only what cannot be recomputed (the table, the
    tombstones, the group assignment); this function re-derives the
    rest exactly as the original preprocessing did — the event grid
    over the recovered rectangles (same frame, same resolution, so
    ``locate`` is bit-identical), the restored
    :class:`~repro.clustering.groups.SpacePartition`, and a freshly
    packed S-tree via :class:`~repro.core.dynamic.
    DynamicMatchingEngine` (tombstones seeded, not replayed one by
    one).  Routing caches are invalidated; the cost model and topology
    survive untouched (links don't lose their weights in a crash).
    """
    from ..core.dynamic import DynamicMatchingEngine

    if state.table is None or len(state.table) == 0:
        raise ValueError(
            "cannot restore a broker from empty recovered state "
            "(no snapshot and no SUBSCRIBE records survived)"
        )
    if state.partition_state is None:
        raise ValueError(
            "recovered state carries no partition assignment; "
            "checkpoint before crashing (see BrokerJournal.checkpoint)"
        )
    partition_state = state.partition_state
    grid = EventGrid(
        state.table.rectangles(),
        [s.subscriber for s in state.table],
        density=None,
        cells_per_dim=int(partition_state["cells_per_dim"]),
        frame=(
            partition_state["frame_lo"],
            partition_state["frame_hi"],
        ),
    )
    partition = SpacePartition.restore(grid, partition_state)
    # Subscriptions replayed from the WAL post-date the snapshot, so
    # the restored partition never saw them; re-apply the same group
    # widening their original ``subscribe`` performed (replays are
    # strictly appended, so they are the table's tail).
    for sid in range(
        len(state.table) - state.subscriptions_replayed, len(state.table)
    ):
        subscription = state.table[sid]
        partition.add_subscription(
            subscription.rectangle, subscription.subscriber
        )
    engine = DynamicMatchingEngine(
        state.table,
        backend=broker.engine.backend,
        removed=state.removed,
    )
    broker.table = state.table
    broker.partition = partition
    broker.engine = engine
    if hasattr(broker, "_removed"):
        broker._removed = set(state.removed)
    broker.costs.clear_cache()
    if telemetry is not None and telemetry.enabled:
        telemetry.counter(
            "recovery.rebuilt",
            help="brokers rebuilt from snapshot + WAL replay",
        ).inc()
