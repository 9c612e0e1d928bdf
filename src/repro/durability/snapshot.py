"""Checkpoints: the broker's durable state, serialized whole.

A snapshot is the paper's precomputation output made durable: the
subscription table (the input ``I``), its tombstones, and the
cluster→multicast-group assignment (``S_q`` / ``M_q``) — everything a
restarted broker needs to *re-derive* the expensive in-memory pieces
(the packed S-tree, the routing caches) without replaying history.
Rectangles ride the :mod:`repro.io` codecs, so infinities and id
order survive the JSON round trip.

A snapshot also records the WAL LSN it covers (``checkpoint_lsn``):
recovery replays only records past it, and the journal may truncate
the WAL prefix below it (subject to the in-flight low-water mark).

Stores are torn-write-safe in both directions: writes go to a temp
file in the same directory and :func:`os.replace` in (a crash leaves
the previous snapshot intact), and reads verify an embedded BLAKE2b
digest — a damaged newest snapshot is skipped, falling back to the
newest *valid* one, mirroring the WAL's truncate-don't-trust policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..io import atomic_write_text, canonical_digest

__all__ = [
    "Snapshot",
    "SnapshotStore",
    "MemorySnapshotStore",
    "FileSnapshotStore",
]

_FORMAT_VERSION = 1


def _canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Snapshot:
    """One checkpoint of the broker's durable state."""

    snapshot_id: int
    #: The WAL LSN this snapshot covers: every SUBSCRIBE/UNSUBSCRIBE
    #: below it is already reflected in ``table``/``removed``.
    checkpoint_lsn: int
    #: :func:`repro.io.table_to_dict` encoding (full id space, in order).
    table: Dict
    #: Tombstoned subscription ids (sorted).
    removed: List[int] = field(default_factory=list)
    #: :meth:`repro.clustering.groups.SpacePartition.to_state` encoding.
    partition: Optional[Dict] = None
    #: Simulated time the checkpoint was taken (injected clock).
    taken_at: float = 0.0
    #: :meth:`repro.sessions.session.SessionManager.to_state` encoding
    #: of the subscriber-session cursor table, or ``None`` when the
    #: broker has no session layer attached.  Omitted from the
    #: serialized payload (and the digest) when absent, so snapshots
    #: from session-less brokers are byte-identical to format v1.
    sessions: Optional[Dict] = None

    def _payload_body(self) -> Dict:
        body = {
            "snapshot_id": self.snapshot_id,
            "checkpoint_lsn": self.checkpoint_lsn,
            "table": self.table,
            "removed": sorted(int(x) for x in self.removed),
            "partition": self.partition,
            "taken_at": float(self.taken_at),
        }
        if self.sessions:
            body["sessions"] = self.sessions
        return body

    def to_dict(self) -> Dict:
        payload = {
            "format_version": _FORMAT_VERSION,
            **self._payload_body(),
        }
        payload["digest"] = self.digest()
        return payload

    def digest(self) -> str:
        """Content digest (excludes the digest field itself)."""
        return canonical_digest(self._payload_body())

    @classmethod
    def from_dict(cls, payload: Dict) -> Snapshot:
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot format version: {version!r}"
            )
        snapshot = cls(
            snapshot_id=int(payload["snapshot_id"]),
            checkpoint_lsn=int(payload["checkpoint_lsn"]),
            table=payload["table"],
            removed=[int(x) for x in payload.get("removed", [])],
            partition=payload.get("partition"),
            taken_at=float(payload.get("taken_at", 0.0)),
            sessions=payload.get("sessions"),
        )
        stored = payload.get("digest")
        if stored is not None and stored != snapshot.digest():
            raise ValueError(
                f"snapshot {snapshot.snapshot_id}: digest mismatch "
                "(corrupt or tampered)"
            )
        return snapshot


class SnapshotStore:
    """Where checkpoints live.  Newest-valid-wins retrieval."""

    def save(self, snapshot: Snapshot) -> None:
        raise NotImplementedError

    def latest(self) -> Optional[Snapshot]:
        """The newest snapshot that decodes and verifies, or ``None``."""
        raise NotImplementedError

    def ids(self) -> List[int]:
        """All retrievable snapshot ids, ascending (diagnostics)."""
        raise NotImplementedError


class MemorySnapshotStore(SnapshotStore):
    """Snapshots in a dict — the simulation default."""

    def __init__(self) -> None:
        self._snapshots: Dict[int, Snapshot] = {}

    def save(self, snapshot: Snapshot) -> None:
        self._snapshots[snapshot.snapshot_id] = snapshot

    def latest(self) -> Optional[Snapshot]:
        if not self._snapshots:
            return None
        return self._snapshots[max(self._snapshots)]

    def ids(self) -> List[int]:
        return sorted(self._snapshots)


class FileSnapshotStore(SnapshotStore):
    """One JSON file per snapshot under a directory, written atomically."""

    _PREFIX = "snapshot-"
    _SUFFIX = ".json"

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, snapshot_id: int) -> Path:
        return self.directory / (
            f"{self._PREFIX}{snapshot_id:08d}{self._SUFFIX}"
        )

    def save(self, snapshot: Snapshot) -> None:
        # atomic_write_text renames into place and fsyncs the
        # directory; a freshly written snapshot must survive a host
        # crash, or recovery falls back to a stale checkpoint.
        atomic_write_text(
            self._path(snapshot.snapshot_id),
            _canonical(snapshot.to_dict()),
        )

    def ids(self) -> List[int]:
        out: List[int] = []
        for path in self.directory.glob(
            f"{self._PREFIX}*{self._SUFFIX}"
        ):
            stem = path.name[len(self._PREFIX) : -len(self._SUFFIX)]
            try:
                out.append(int(stem))
            except ValueError:
                continue
        return sorted(out)

    def latest(self) -> Optional[Snapshot]:
        for snapshot_id in reversed(self.ids()):
            path = self._path(snapshot_id)
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                return Snapshot.from_dict(payload)
            except (ValueError, OSError):
                # Torn or corrupt: fall back to the previous checkpoint,
                # exactly like the WAL truncates at the last valid record.
                continue
        return None
