"""Per-shard journaling and recovery over the durability stack.

A shard's durable state is its *entry set* — the scattered
subscriptions it owns, keyed by **global** subscription id — plus the
publish intents it has not finished delivering.  :class:`ShardJournal`
write-ahead-logs both onto the same WAL/snapshot machinery a whole
broker uses (:mod:`repro.durability`), and exposes the identical
``on_record`` / ``on_checkpoint`` taps, so the replication layer's
:class:`~repro.replication.shipping.LogShipper` streams a shard's log
to its standbys without knowing it is a shard at all.

The snapshot ``table`` field carries a shard-specific encoding —
``{"kind": "shard-entries", "entries": [[gid, subscriber, lows,
highs], ...]}`` — because shard entries live in a *sparse* global id
space (an ordinary broker snapshot assumes the dense positional
table).  :func:`recover_shard` is the matching replay: newest valid
snapshot, then the WAL tail (SUBSCRIBE/UNSUBSCRIBE past the
checkpoint LSN; PUBLISH/DELIVER always, since the in-flight low-water
mark retains them below it), never raising on a torn or bit-flipped
log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..durability.snapshot import Snapshot, SnapshotStore
from ..durability.wal import RecordKind, WriteAheadLog
from ..geometry.rectangle import Rectangle
from ..io import _decode_bound, _encode_bound, canonical_digest
from ..telemetry.base import Telemetry, or_null

__all__ = [
    "ShardJournal",
    "ShardInflight",
    "RecoveredShardState",
    "recover_shard",
]

_TABLE_KIND = "shard-entries"


@dataclass(frozen=True)
class ShardInflight:
    """One journaled publish intent with its still-unacked targets."""

    sequence: int
    publisher: int
    targets: Tuple[int, ...]
    #: LSN of the PUBLISH record (the truncation low-water mark).
    lsn: int


@dataclass
class RecoveredShardState:
    """What :func:`recover_shard` reconstructed from a shard's storage."""

    #: gid → (subscriber, Rectangle), the shard's entry set.
    entries: Dict[int, Tuple[int, Rectangle]] = field(default_factory=dict)
    #: sequence → unfinished delivery, for post-takeover re-hand.
    inflight: Dict[int, ShardInflight] = field(default_factory=dict)
    checkpoint_lsn: int = 0
    snapshot_id: Optional[int] = None
    replayed: int = 0
    skipped: int = 0
    truncated_bytes: int = 0
    corruption: Optional[str] = None

    def digest(self) -> str:
        """Deterministic fingerprint of the recovered shard state."""
        body = {
            "entries": [
                [
                    gid,
                    subscriber,
                    [_encode_bound(x) for x in rectangle.lows],
                    [_encode_bound(x) for x in rectangle.highs],
                ]
                for gid, (subscriber, rectangle) in sorted(
                    self.entries.items()
                )
            ],
            "inflight": [
                [seq, entry.publisher, list(entry.targets)]
                for seq, entry in sorted(self.inflight.items())
            ],
            "checkpoint_lsn": self.checkpoint_lsn,
        }
        return canonical_digest(body)


class ShardJournal:
    """Write-ahead journaling + periodic checkpoints for one shard.

    The caller (a :class:`~repro.cluster.shard.ReplicatedShard`) wires
    the owning :class:`~repro.sharding.router.ShardBroker`'s mutation
    hooks to :meth:`log_register` / :meth:`log_withdraw`, so scatter,
    migration installs and refresh withdrawals all hit the log before
    they hit the matcher.
    """

    def __init__(
        self,
        shard_broker,
        wal: WriteAheadLog,
        store: SnapshotStore,
        checkpoint_every: int = 64,
        telemetry: Optional[Telemetry] = None,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"ShardJournal: checkpoint_every must be >= 1 "
                f"(got {checkpoint_every})"
            )
        self.shard_broker = shard_broker
        self.wal = wal
        self.store = store
        self.checkpoint_every = checkpoint_every
        self.telemetry = or_null(telemetry)
        self._intent_lsn: Dict[int, int] = {}
        self._intent_targets: Dict[int, Set[int]] = {}
        self._appends_since_checkpoint = 0
        existing = self.store.ids()
        self._next_snapshot_id = (max(existing) + 1) if existing else 0
        self.checkpoints = 0
        #: Replication taps — same contract as ``BrokerJournal``.
        self.on_record: Optional[
            Callable[[int, RecordKind, Dict], None]
        ] = None
        self.on_checkpoint: Optional[Callable[[Snapshot, int], None]] = None

    # -- record writers ------------------------------------------------------

    def _append(self, kind: RecordKind, body: Dict) -> int:
        # Stamp the clock here so the body handed to ``on_record`` is
        # the stored body verbatim — a standby re-appending it produces
        # byte-identical records.
        if "t" not in body:
            body = {**body, "t": float(self.wal.clock())}
        lsn = self.wal.append(kind, body)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "wal.appends",
                help="WAL records appended",
                kind=kind.name.lower(),
            ).inc()
        self._appends_since_checkpoint += 1
        if self.on_record is not None:
            self.on_record(lsn, kind, body)
        return lsn

    def log_register(
        self, gid: int, subscriber: int, rectangle: Rectangle
    ) -> int:
        """Journal one entry admitted to the shard (global id keyed)."""
        return self._append(
            RecordKind.SUBSCRIBE,
            {
                "sid": int(gid),
                "subscriber": int(subscriber),
                "lows": [_encode_bound(x) for x in rectangle.lows],
                "highs": [_encode_bound(x) for x in rectangle.highs],
            },
        )

    def log_withdraw(self, gid: int) -> int:
        """Journal one entry leaving the shard (migration/refresh)."""
        return self._append(RecordKind.UNSUBSCRIBE, {"sid": int(gid)})

    def log_publish(
        self,
        sequence: int,
        publisher: int,
        targets: Iterable[int],
        method: str = "",
        group: int = 0,
    ) -> int:
        """Journal a publish intent with its full recipient set."""
        target_set = {int(t) for t in targets}
        lsn = self._append(
            RecordKind.PUBLISH,
            {
                "seq": int(sequence),
                "publisher": int(publisher),
                "targets": sorted(target_set),
                "method": method,
                "group": int(group),
            },
        )
        if target_set:
            self._intent_lsn[int(sequence)] = lsn
            self._intent_targets[int(sequence)] = target_set
        return lsn

    def log_delivery(self, sequence: int, target: int) -> int:
        """Journal one target's acked delivery; retires finished intents."""
        lsn = self._append(
            RecordKind.DELIVER,
            {"seq": int(sequence), "target": int(target)},
        )
        remaining = self._intent_targets.get(int(sequence))
        if remaining is not None:
            remaining.discard(int(target))
            if not remaining:
                del self._intent_targets[int(sequence)]
                del self._intent_lsn[int(sequence)]
        self.maybe_checkpoint()
        return lsn

    # -- checkpointing -------------------------------------------------------

    def low_water_mark(self, checkpoint_lsn: int) -> int:
        """The highest LSN the WAL prefix may be truncated at."""
        candidates = list(self._intent_lsn.values())
        candidates.append(checkpoint_lsn)
        return min(candidates)

    def maybe_checkpoint(self) -> bool:
        if self._appends_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()
            return True
        return False

    def checkpoint(self) -> Snapshot:
        """Snapshot the shard's entry set and truncate the WAL prefix."""
        checkpoint_lsn = self.wal.end_lsn
        entries = [
            [
                int(gid),
                int(subscriber),
                [_encode_bound(x) for x in rectangle.lows],
                [_encode_bound(x) for x in rectangle.highs],
            ]
            for gid, (subscriber, rectangle) in sorted(
                self.shard_broker._entries.items()
            )
        ]
        snapshot = Snapshot(
            snapshot_id=self._next_snapshot_id,
            checkpoint_lsn=checkpoint_lsn,
            table={"kind": _TABLE_KIND, "entries": entries},
            removed=[],
            partition=None,
            taken_at=self.wal.clock(),
        )
        self.store.save(snapshot)
        self._next_snapshot_id += 1
        self._append(
            RecordKind.CHECKPOINT,
            {"snapshot_id": snapshot.snapshot_id, "lsn": checkpoint_lsn},
        )
        truncate_lsn = self.low_water_mark(checkpoint_lsn)
        self.wal.truncate_prefix(truncate_lsn)
        self._appends_since_checkpoint = 0
        self.checkpoints += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(snapshot, truncate_lsn)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "wal.checkpoints", help="checkpoints taken"
            ).inc()
        return snapshot

    # -- recovery hand-off ---------------------------------------------------

    def rearm(self, state: RecoveredShardState) -> None:
        """Resume journaling after a takeover recovery."""
        self._intent_lsn = {
            seq: entry.lsn for seq, entry in state.inflight.items()
        }
        self._intent_targets = {
            seq: set(entry.targets)
            for seq, entry in state.inflight.items()
        }
        self._appends_since_checkpoint = 0
        existing = self.store.ids()
        self._next_snapshot_id = (max(existing) + 1) if existing else 0

    @property
    def inflight_sequences(self) -> Set[int]:
        return set(self._intent_targets)


def recover_shard(
    wal: WriteAheadLog,
    store: SnapshotStore,
    telemetry: Optional[Telemetry] = None,
) -> RecoveredShardState:
    """Rebuild one shard's entry set + in-flight intents from storage.

    Never raises on damaged input: a torn or corrupt WAL tail is
    repaired at the last valid record, a damaged snapshot falls back
    to the previous valid one (the store's ``latest`` contract), and
    undecodable bodies are counted in ``skipped``.
    """
    telemetry = or_null(telemetry)
    snapshot = store.latest()
    scan = wal.scan()
    truncated = wal.end_lsn - scan.valid_end
    if not scan.clean:
        wal.repair()

    state = RecoveredShardState(
        truncated_bytes=truncated, corruption=scan.corruption
    )
    if snapshot is not None:
        table = snapshot.table or {}
        if table.get("kind") == _TABLE_KIND:
            for gid, subscriber, lows, highs in table.get("entries", []):
                state.entries[int(gid)] = (
                    int(subscriber),
                    Rectangle(
                        tuple(_decode_bound(x) for x in lows),
                        tuple(_decode_bound(x) for x in highs),
                    ),
                )
            state.checkpoint_lsn = snapshot.checkpoint_lsn
            state.snapshot_id = snapshot.snapshot_id
        else:
            state.skipped += 1  # foreign snapshot encoding: ignore, loud

    pending: Dict[int, Dict] = {}
    for record in scan.records:
        body = record.body
        try:
            if record.kind is RecordKind.SUBSCRIBE:
                if record.lsn < state.checkpoint_lsn:
                    continue  # already folded into the snapshot
                state.entries[int(body["sid"])] = (
                    int(body["subscriber"]),
                    Rectangle(
                        tuple(_decode_bound(x) for x in body["lows"]),
                        tuple(_decode_bound(x) for x in body["highs"]),
                    ),
                )
            elif record.kind is RecordKind.UNSUBSCRIBE:
                if record.lsn < state.checkpoint_lsn:
                    continue
                state.entries.pop(int(body["sid"]), None)
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
            # CHECKPOINT / MIGRATE_* markers are informational here.
        except (KeyError, TypeError, ValueError):
            state.skipped += 1
            continue
        state.replayed += 1

    state.inflight = {
        seq: ShardInflight(
            sequence=seq,
            publisher=entry["publisher"],
            targets=tuple(sorted(entry["targets"])),
            lsn=entry["lsn"],
        )
        for seq, entry in sorted(pending.items())
    }
    if telemetry.enabled:
        telemetry.counter(
            "cluster.recoveries", help="shard recoveries performed"
        ).inc()
        telemetry.counter(
            "cluster.recovery_replayed",
            help="WAL records replayed during shard recoveries",
        ).inc(state.replayed)
    return state
