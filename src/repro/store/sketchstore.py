"""Durable keyed sketch store: write-ahead log + snapshots.

:class:`SketchStore` persists a :class:`~repro.aggregate.DistinctCountAggregator`
— group key → sketch — across process death. The design leans on the
paper's core property: sketch state is tiny, mergeable and serializable,
so full snapshots are cheap and the log between snapshots only has to
carry *inputs* (hash batches), not state diffs.

Directory layout (``gen`` is the zero-padded compaction generation)::

    store/
      snapshot-<gen>.bin   header 0x42 | uvarint gen | uvarint base_lsn
                           | aggregator blob
      wal-<gen>.log        header 0x41 | LSN-stamped checksummed records
      LOCK                 empty; the writer holds an exclusive ``flock``

A writer-mode open refuses a directory whose ``LOCK`` another writer
holds, and sweeps the group-index sidecars (tag 0x44) that older
versions wrote beside each WAL.

Each WAL record uses the LSN framing of
:func:`repro.storage.serialization.write_lsn_record` with two record kinds:

* ``RECORD_HASHES`` (0x01) — payload is ``n * 8`` little-endian uint64
  hash values folded into the key's sketch,
* ``RECORD_SKETCH`` (0x02) — payload is a serialized sketch merged into
  the key's sketch (how retired sliding-window buckets persist and how
  a cluster rebalance ships whole groups between shards),
* ``RECORD_DROP`` (0x03) — empty payload; the key's group is removed
  (how a rebalance retires groups their shard no longer owns), and
* ``RECORD_CUTOVER`` (0x04) — a state no-op fence written by cluster
  rebalancing (see :mod:`repro.cluster`); the payload names the epoch
  and shard counts so replicas and readers replaying the log can tell
  exactly where ownership changed.

Every record carries a **log sequence number**: LSNs start at 1, increase
by exactly 1 per record, and keep counting across compactions (a
snapshot's ``base_lsn`` says how many records it has folded in). The LSN
is what makes the store readable and replicable while it is being
written: a :class:`~repro.store.reader.SnapshotReader` reports the LSN of
the last record it could prove durable (the *durable horizon*), and a
:class:`~repro.store.replicate.FollowerStore` deduplicates re-shipped
records by LSN.

Durability contract: :attr:`SketchStore.durable_lsn` (the durable
horizon) is the LSN of the last record ``append`` has written and flushed
out of this process — it survives a crash of the writer process and is
visible to readers in other processes. What else it survives depends on
the mode:

* ``fsync=False`` (default): the record is written and flushed to the OS
  but not synced, like most databases in ``fsync=off`` mode — a kernel
  crash or power loss can drop records past the last sync.
* ``fsync=True``: each record is synced with ``os.fsync`` before
  ``append`` returns, so the horizon survives power loss too.

:meth:`SketchStore.close` syncs the WAL in both modes.
:meth:`SketchStore.open` replays the WAL tail on top of the newest
snapshot; a torn final record (crash mid-write) is truncated away —
**unless** the store is opened with ``read_only=True``, which must never
mutate a live writer's files and instead just stops at the durable
horizon. Any other corruption raises
:class:`~repro.storage.serialization.SerializationError` rather than
loading garbage. :meth:`compact` folds the WAL into a fresh snapshot
(written atomically via rename) and starts an empty log.
"""

from __future__ import annotations

import fcntl
import os
import pathlib
import re
import time
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

import numpy as np

from repro.aggregate import DistinctCountAggregator
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.storage.serialization import (
    FORMAT_VERSION,
    MAGIC,
    IncompleteRecordError,
    SerializationError,
    TAG_EXALOGLOG,
    TAG_SNAPSHOT,
    TAG_SPARSE_EXALOGLOG,
    TAG_WAL,
    read_lsn_record_from,
    read_uvarint,
    write_lsn_record,
    write_uvarint,
)

#: WAL record kinds.
RECORD_HASHES = 0x01
RECORD_SKETCH = 0x02
RECORD_DROP = 0x03
RECORD_CUTOVER = 0x04

# Observability handles (collection off unless REPRO_METRICS is set).
_WAL_APPEND_BYTES = _metrics.counter(
    "store.wal_append_bytes", "Bytes appended to the write-ahead log."
)
_WAL_APPEND_RECORDS = _metrics.counter(
    "store.wal_append_records", "Records appended to the write-ahead log."
)
_FSYNC_SECONDS = _metrics.histogram(
    "store.fsync_seconds", "Per-record WAL fsync latency (fsync=True only)."
)
_SNAPSHOT_SECONDS = _metrics.histogram(
    "store.snapshot_seconds", "Snapshot write duration (atomic rename incl.)."
)
_COMPACTIONS = _metrics.counter(
    "store.compactions", "WAL-into-snapshot compactions performed."
)
_COMPACTION_SECONDS = _metrics.histogram(
    "store.compaction_seconds", "Full compaction duration."
)
_TORN_TAIL_RECOVERIES = _metrics.counter(
    "store.torn_tail_recoveries",
    "Recoveries that truncated a torn WAL tail left by a crash.",
)
_REPLAY_RECORDS = _metrics.counter(
    "store.wal_replay_records", "WAL records replayed during store opens."
)

_SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{8})\.bin$")
_WAL_PATTERN = re.compile(r"^wal-(\d{8})\.log$")
# Legacy group-index sidecars: swept by every writer-mode open.
_WALIDX_PATTERN = re.compile(r"^walidx-\d{8}\.log$")

_FILE_HEADER_BYTES = 4


def _file_header(tag: int) -> bytes:
    return MAGIC + bytes((FORMAT_VERSION, tag))


def _check_file_header(data: bytes, tag: int, path) -> int:
    if len(data) < _FILE_HEADER_BYTES:
        raise SerializationError(f"{path}: too short to hold a file header")
    if data[:2] != MAGIC or data[2] != FORMAT_VERSION or data[3] != tag:
        raise SerializationError(f"{path}: bad file header (expected tag {tag:#x})")
    return _FILE_HEADER_BYTES


# -- directory layout helpers (shared with reader / replication) ---------------


def snapshot_path(directory, generation: int) -> pathlib.Path:
    return pathlib.Path(directory) / f"snapshot-{generation:08d}.bin"


def wal_path(directory, generation: int) -> pathlib.Path:
    return pathlib.Path(directory) / f"wal-{generation:08d}.log"


def latest_generation(directory) -> "int | None":
    """Newest snapshot generation in ``directory`` (None when uninitialised)."""
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return None
    generations = [
        int(match.group(1))
        for entry in entries
        if (match := _SNAPSHOT_PATTERN.match(entry))
    ]
    return max(generations) if generations else None


def read_snapshot_header(path) -> tuple[int, int, int]:
    """Peek a snapshot's ``(generation, base_lsn, payload_offset)``.

    Reads only the leading bytes — the replication shipper uses this to
    decide whether a follower needs the snapshot at all before paying for
    the full aggregator blob.
    """
    with open(path, "rb") as handle:
        head = handle.read(_FILE_HEADER_BYTES + 20)  # two uvarints at most
    offset = _check_file_header(head, TAG_SNAPSHOT, path)
    generation, offset = read_uvarint(head, offset)
    base_lsn, offset = read_uvarint(head, offset)
    return generation, base_lsn, offset


def sketch_to_blob(sketch) -> bytes:
    """Serialize any dense/sparse ExaLogLog for a ``RECORD_SKETCH`` payload."""
    return sketch.to_bytes()


def sketch_from_blob(blob: bytes):
    """Deserialize a ``RECORD_SKETCH`` payload (dense or sparse, by tag)."""
    from repro.core.exaloglog import ExaLogLog
    from repro.core.sparse import SparseExaLogLog

    if len(blob) < _FILE_HEADER_BYTES:
        raise SerializationError("sketch blob too short for a header")
    tag = blob[3]
    if tag == TAG_EXALOGLOG:
        return ExaLogLog.from_bytes(blob)
    if tag == TAG_SPARSE_EXALOGLOG:
        return SparseExaLogLog.from_bytes(blob)
    raise SerializationError(f"sketch blob tag {tag:#x} is not mergeable into a store")


@dataclass
class WalReplay:
    """Result of replaying one WAL file."""

    records: int = 0
    """Complete records applied."""

    durable_bytes: int = _FILE_HEADER_BYTES
    """Offset of the first byte after the last complete record."""

    last_lsn: int = 0
    """LSN of the last applied record (the caller's ``base_lsn`` if none)."""


def replay_wal(
    path, aggregator: DistinctCountAggregator, base_lsn: int = 0
) -> WalReplay:
    """Replay a WAL file into ``aggregator``.

    ``base_lsn`` is the LSN the underlying snapshot has already folded in;
    the file's records must continue it gaplessly (``base_lsn + 1,
    base_lsn + 2, ...``) — any other sequence means the snapshot and WAL
    belong to different histories and raises :class:`SerializationError`.
    A torn tail after the last complete record is ignored (the *writer*
    truncates it before appending more; a read-only open leaves it
    alone). Corruption inside the durable prefix raises
    :class:`SerializationError`.
    """
    replay = WalReplay(last_lsn=base_lsn)
    with open(path, "rb") as handle:
        # Streamed record by record, so replay memory stays O(one record)
        # even for a WAL that was never compacted.
        _check_file_header(handle.read(_FILE_HEADER_BYTES), TAG_WAL, path)
        replay.durable_bytes = handle.tell()
        while True:
            start = handle.tell()
            try:
                record = read_lsn_record_from(handle)
            except IncompleteRecordError:
                break  # torn tail write: durable prefix ends at the last full record
            if record is None:
                break
            lsn, kind, key, payload = record
            if lsn != replay.last_lsn + 1:
                raise SerializationError(
                    f"{path}: record at offset {start} has LSN {lsn}, "
                    f"expected {replay.last_lsn + 1}"
                )
            apply_wal_record(aggregator, kind, key, payload)
            replay.records += 1
            replay.last_lsn = lsn
            replay.durable_bytes = handle.tell()
    return replay


def apply_wal_record(
    aggregator: DistinctCountAggregator, kind: int, key: bytes, payload: bytes
) -> None:
    """Apply one decoded WAL record to an aggregator.

    The single state-transition function shared by writer recovery, the
    concurrent reader's tail replay and follower replication — all four
    paths fold the same bytes through the same code, which is what the
    bit-identity guarantees rest on.
    """
    if kind == RECORD_HASHES:
        if len(payload) % 8:
            raise SerializationError(
                f"hash record payload of {len(payload)} bytes is not a multiple of 8"
            )
        hashes = np.frombuffer(payload, dtype="<u8")
        sketch = aggregator._groups.get(key)
        if sketch is None:
            sketch = aggregator._new_sketch()
            aggregator._groups[key] = sketch
        sketch.add_hashes(hashes)
    elif kind == RECORD_SKETCH:
        _merge_sketch_into(aggregator, key, sketch_from_blob(payload))
    elif kind == RECORD_DROP:
        if payload:
            raise SerializationError(
                f"drop record carries a {len(payload)}-byte payload"
            )
        aggregator._groups.pop(key, None)
    elif kind == RECORD_CUTOVER:
        pass  # cluster rebalance fence: no state transition
    else:
        raise SerializationError(f"unknown WAL record kind {kind:#x}")


def _merge_sketch_into(aggregator: DistinctCountAggregator, key: bytes, sketch) -> None:
    from repro.core.sparse import SparseExaLogLog

    mine = aggregator._groups.get(key)
    if mine is None:
        # Adopt a copy in the aggregator's own representation so later
        # merges/serialization stay uniform.
        mine = aggregator._new_sketch()
        aggregator._groups[key] = mine
    if isinstance(mine, SparseExaLogLog):
        mine.merge_inplace(sketch)
    else:
        if isinstance(sketch, SparseExaLogLog):
            sketch = sketch.densify()
        mine.merge_inplace(sketch)


class SketchStore:
    """A crash-recoverable, WAL-backed store of per-key distinct-count sketches.

    >>> store = SketchStore.open(tmp_path / "counts", p=8)
    >>> store.append("DE", ["alice", "bob"])
    >>> store.close()
    >>> reopened = SketchStore.open(tmp_path / "counts")
    >>> round(reopened.estimate("DE"))
    2

    Parameters mirror the aggregator; on an existing store directory the
    persisted configuration wins and explicitly passed parameters are
    validated against it.

    ``auto_compact_bytes`` bounds the WAL: when an append pushes the log
    past the threshold, the store compacts synchronously (snapshot write
    + fresh log), so recovery time stays proportional to the threshold,
    not to the total ingest history.

    One writer per directory: a writer-mode open takes an exclusive,
    non-blocking ``flock`` on ``<dir>/LOCK`` (released by :meth:`close`)
    and raises :class:`BlockingIOError` naming the directory while another
    writer holds it.

    ``read_only=True`` opens a *foreign* store without mutating anything:
    no directory creation, no lock, no torn-tail truncation, no
    stale-generation sweep — safe against a live writer's files. The
    loaded state is the durable prefix at open time; for an incrementally
    refreshing view use :class:`repro.store.reader.SnapshotReader`.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("use SketchStore.open(path, ...) to create or open a store")

    @classmethod
    def _new(cls) -> "SketchStore":
        return object.__new__(cls)

    @classmethod
    def open(
        cls,
        path,
        t: int | None = None,
        d: int | None = None,
        p: int | None = None,
        sparse: bool | None = None,
        seed: int | None = None,
        fsync: bool = False,
        auto_compact_bytes: int | None = None,
        read_only: bool = False,
    ) -> "SketchStore":
        """Open a store directory, creating it (plus generation 0) if absent.

        Opening an existing store recovers it: the newest snapshot loads,
        the matching WAL replays up to its last complete record, and a
        torn tail (if the previous process died mid-write) is truncated.
        With ``read_only=True`` nothing on disk is touched — the torn
        tail stays (it may be a live writer's in-flight append), and
        mutating methods raise.
        """
        store = cls._new()
        store._directory = pathlib.Path(path)
        store._fsync = fsync
        store._auto_compact_bytes = auto_compact_bytes
        store._read_only = read_only
        store._wal_handle = None
        store._lock_handle = None
        if not read_only:
            store._directory.mkdir(parents=True, exist_ok=True)
            store._lock()
        elif not store._directory.is_dir():
            raise FileNotFoundError(
                f"read-only open of missing store directory {store._directory}"
            )
        try:
            store._recover((t, d, p, sparse, seed))
        except BaseException:
            store.close()
            raise
        return store

    def _recover(self, requested: tuple) -> None:
        """Load the newest snapshot and replay its WAL (or initialise)."""
        generation = latest_generation(self._directory)
        if generation is None:
            if self._read_only:
                raise SerializationError(
                    f"{self._directory}: no snapshot found (uninitialised store)"
                )
            defaults = (2, 20, 8, True, 0)
            config = tuple(
                value if value is not None else default
                for value, default in zip(requested, defaults)
            )
            self._generation = 0
            self._base_lsn = 0
            self._durable_lsn = 0
            self._aggregator = DistinctCountAggregator(*config)
            self._write_snapshot(0)
            self._wal_records = 0
            self._open_wal(truncate_to=None)
        else:
            self._generation = generation
            self._aggregator, self._base_lsn = self._load_snapshot(generation)
            self._durable_lsn = self._base_lsn
            persisted = self._aggregator._config
            mismatched = [
                (value, on_disk)
                for value, on_disk in zip(requested, persisted)
                if value is not None and value != on_disk
            ]
            if mismatched:
                raise ValueError(
                    f"store at {self._directory} has configuration "
                    f"(t, d, p, sparse, seed)={persisted}, requested {requested}"
                )
            path_ = wal_path(self._directory, generation)
            if path_.exists():
                replay = replay_wal(path_, self._aggregator, self._base_lsn)
                self._wal_records = replay.records
                self._durable_lsn = replay.last_lsn
                _REPLAY_RECORDS.inc(replay.records)
                if not self._read_only:
                    self._open_wal(truncate_to=replay.durable_bytes)
            else:
                self._wal_records = 0
                if not self._read_only:
                    self._open_wal(truncate_to=None)
            if not self._read_only:
                self._sweep_stale(generation)

    # -- paths ----------------------------------------------------------------

    def _snapshot_path(self, generation: int) -> pathlib.Path:
        return snapshot_path(self._directory, generation)

    def _wal_path(self, generation: int) -> pathlib.Path:
        return wal_path(self._directory, generation)

    def _lock(self) -> None:
        """Take the directory's exclusive writer lock, or refuse the open."""
        handle = open(self._directory / "LOCK", "ab")
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            handle.close()
            raise BlockingIOError(
                f"{self._directory}: another writer holds the store lock"
            ) from None
        self._lock_handle = handle

    def _sweep_stale(self, generation: int) -> None:
        """Delete older generations a crashed compaction left behind, and
        any legacy group-index sidecar."""
        for entry in os.listdir(self._directory):
            match = _SNAPSHOT_PATTERN.match(entry) or _WAL_PATTERN.match(entry)
            stale = match is not None and int(match.group(1)) < generation
            if stale or _WALIDX_PATTERN.match(entry):
                (self._directory / entry).unlink()

    # -- snapshot & WAL files -------------------------------------------------

    def _write_snapshot(self, generation: int) -> None:
        started = time.perf_counter()
        buffer = bytearray(_file_header(TAG_SNAPSHOT))
        write_uvarint(buffer, generation)
        write_uvarint(buffer, self._durable_lsn)
        buffer.extend(self._aggregator.to_bytes())
        path = self._snapshot_path(generation)
        temporary = path.with_suffix(".tmp")
        with open(temporary, "wb") as handle:
            handle.write(buffer)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
        self._sync_directory()
        self._base_lsn = self._durable_lsn
        if _metrics.enabled():
            _SNAPSHOT_SECONDS.observe(time.perf_counter() - started)

    def _load_snapshot(self, generation: int) -> tuple[DistinctCountAggregator, int]:
        path = self._snapshot_path(generation)
        data = path.read_bytes()
        offset = _check_file_header(data, TAG_SNAPSHOT, path)
        stored_generation, offset = read_uvarint(data, offset)
        if stored_generation != generation:
            raise SerializationError(
                f"{path}: names generation {generation} but holds {stored_generation}"
            )
        base_lsn, offset = read_uvarint(data, offset)
        return DistinctCountAggregator.from_bytes(data[offset:]), base_lsn

    def _open_wal(self, truncate_to: int | None) -> None:
        path = self._wal_path(self._generation)
        if not path.exists():
            with open(path, "wb") as handle:
                handle.write(_file_header(TAG_WAL))
                handle.flush()
                os.fsync(handle.fileno())
            self._sync_directory()
        elif truncate_to is not None and truncate_to < os.path.getsize(path):
            # A crash mid-append left a torn tail; recovery cuts it away.
            _TORN_TAIL_RECOVERIES.inc()
            with open(path, "r+b") as handle:
                handle.truncate(truncate_to)
        self._wal_handle = open(path, "ab")

    def _sync_directory(self) -> None:
        if os.name == "posix":
            fd = os.open(self._directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def _append_record(self, kind: int, key: bytes, payload: bytes) -> None:
        if self._read_only:
            raise ValueError("store is read-only")
        if self._wal_handle is None:
            raise ValueError("store is closed")
        lsn = self._durable_lsn + 1
        buffer = bytearray()
        write_lsn_record(buffer, lsn, kind, key, payload)
        self._wal_handle.write(buffer)
        self._wal_handle.flush()
        if self._fsync:
            if _metrics.enabled():
                started = time.perf_counter()
                os.fsync(self._wal_handle.fileno())
                _FSYNC_SECONDS.observe(time.perf_counter() - started)
            else:
                os.fsync(self._wal_handle.fileno())
        self._durable_lsn = lsn
        self._wal_records += 1
        if _metrics.enabled():
            _WAL_APPEND_BYTES.inc(len(buffer))
            _WAL_APPEND_RECORDS.inc()

    def _maybe_auto_compact(self) -> None:
        """Compact when the WAL outgrew its bound.

        Only called *after* a record has been both logged and applied to
        the in-memory aggregator — compacting between the two would
        snapshot a state missing the record while deleting the WAL that
        held it.
        """
        if (
            self._auto_compact_bytes is not None
            and self._wal_handle is not None
            and self._wal_handle.tell() >= self._auto_compact_bytes
        ):
            self.compact()

    # -- ingest ---------------------------------------------------------------

    def append(self, group: Hashable, items: Any) -> "SketchStore":
        """Durably record a batch of items under ``group``; returns ``self``."""
        from repro.hashing.batch import hash_items

        seed = self._aggregator._config[4]
        return self.append_hashes(group, hash_items(items, seed))

    def append_hashes(self, group: Hashable, hashes) -> "SketchStore":
        """Durably record pre-hashed values under ``group``; returns ``self``.

        The WAL record goes to disk first; only then does the batch fold
        into the in-memory sketch, so anything the reader can observe is
        also recoverable.
        """
        from repro.backends import as_hash_array

        hashes = as_hash_array(hashes)
        if len(hashes) == 0:
            return self
        key = DistinctCountAggregator._group_key(group)
        with _trace.span("store.append", batch=len(hashes)):
            payload = hashes.astype("<u8", copy=False).tobytes()
            self._append_record(RECORD_HASHES, key, payload)
            sketch = self._aggregator._groups.get(key)
            if sketch is None:
                sketch = self._aggregator._new_sketch()
                self._aggregator._groups[key] = sketch
            sketch.add_hashes(hashes)
        self._maybe_auto_compact()
        return self

    def merge_sketch(self, group: Hashable, sketch) -> "SketchStore":
        """Durably merge a whole sketch into ``group`` (bucket retirement)."""
        key = DistinctCountAggregator._group_key(group)
        self._append_record(RECORD_SKETCH, key, sketch_to_blob(sketch))
        _merge_sketch_into(self._aggregator, key, sketch)
        self._maybe_auto_compact()
        return self

    def drop_group(self, group: Hashable) -> "SketchStore":
        """Durably remove ``group`` from the store; returns ``self``.

        The WAL records the drop, so recovery, readers and followers all
        converge on the removal. Dropping an absent group is a no-op
        record (idempotent — a rebalance retrying after a crash may drop
        twice).
        """
        key = DistinctCountAggregator._group_key(group)
        self._append_record(RECORD_DROP, key, b"")
        self._aggregator._groups.pop(key, None)
        self._maybe_auto_compact()
        return self

    def append_cutover(self, payload: bytes) -> "SketchStore":
        """Durably write a cluster-rebalance fence record; returns ``self``.

        A pure log marker (state no-op, keyed ``b""``): anything replaying
        this WAL — recovery, a reader tail, a follower replica — carries
        the fence at exactly the LSN the rebalance wrote it, which is what
        lets a replica chain prove on which side of a cutover it stopped.
        """
        self._append_record(RECORD_CUTOVER, b"", bytes(payload))
        self._maybe_auto_compact()
        return self

    # -- queries --------------------------------------------------------------

    @property
    def aggregator(self) -> DistinctCountAggregator:
        """The live in-memory state (snapshot + replayed/applied WAL)."""
        return self._aggregator

    @property
    def config(self) -> tuple[int, int, int, bool, int]:
        """The ``(t, d, p, sparse, seed)`` configuration tuple."""
        return self._aggregator.config

    @property
    def directory(self) -> pathlib.Path:
        return self._directory

    @property
    def generation(self) -> int:
        """Compaction generation (increments on every :meth:`compact`)."""
        return self._generation

    @property
    def read_only(self) -> bool:
        return self._read_only

    @property
    def base_lsn(self) -> int:
        """LSN already folded into the current snapshot."""
        return self._base_lsn

    @property
    def durable_lsn(self) -> int:
        """LSN of the last appended record (the durable horizon).

        Under ``fsync=False`` that record is written and flushed to the OS
        but not synced; under ``fsync=True`` it was synced with ``os.fsync``
        before its ``append`` returned.
        """
        return self._durable_lsn

    @property
    def wal_records(self) -> int:
        """Records in the current WAL (replayed + appended this session)."""
        return self._wal_records

    @property
    def wal_bytes(self) -> int:
        """Current WAL file size in bytes."""
        return os.path.getsize(self._wal_path(self._generation))

    def __len__(self) -> int:
        return len(self._aggregator)

    def __contains__(self, group: Hashable) -> bool:
        return group in self._aggregator

    def groups(self) -> Iterator[bytes]:
        return self._aggregator.groups()

    def estimate(self, group: Hashable) -> float:
        return self._aggregator.estimate(group)

    def estimates(self) -> dict[bytes, float]:
        return self._aggregator.estimates()

    def top(self, count: int) -> list[tuple[bytes, float]]:
        """The ``count`` groups with the largest estimates (argpartition)."""
        return self._aggregator.top(count)

    def group_sketch(self, group: Hashable):
        """A private copy of one group's sketch (``None`` for unseen groups)."""
        return self._aggregator.group_sketch(group)

    # -- maintenance ----------------------------------------------------------

    def compact(self) -> int:
        """Fold the WAL into a fresh snapshot; returns the new generation.

        Write order makes every intermediate crash state recoverable: the
        new snapshot lands atomically (temp file + rename), the new empty
        WAL is created, and only then are the previous generation's files
        deleted — :meth:`open` always finds the newest intact snapshot
        and ignores older leftovers.
        """
        if self._read_only:
            raise ValueError("store is read-only")
        if self._wal_handle is None:
            raise ValueError("store is closed")
        started = time.perf_counter()
        with _trace.span("store.compact", generation=self._generation + 1):
            self._wal_handle.close()
            self._generation += 1
            self._write_snapshot(self._generation)
            self._wal_records = 0
            self._wal_handle = None
            self._open_wal(truncate_to=None)
            self._sweep_stale(self._generation)
        if _metrics.enabled():
            _COMPACTIONS.inc()
            _COMPACTION_SECONDS.observe(time.perf_counter() - started)
        return self._generation

    def close(self) -> None:
        """Flush and close the WAL handle and release the writer lock."""
        if self._wal_handle is not None:
            self._wal_handle.flush()
            os.fsync(self._wal_handle.fileno())
            self._wal_handle.close()
            self._wal_handle = None
        if self._lock_handle is not None:
            # Unlock explicitly: a forked child that inherited the
            # descriptor would otherwise keep the lock alive.
            fcntl.flock(self._lock_handle, fcntl.LOCK_UN)
            self._lock_handle.close()
            self._lock_handle = None

    def __enter__(self) -> "SketchStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SketchStore(directory={str(self._directory)!r}, "
            f"generation={self._generation}, groups={len(self._aggregator)}, "
            f"wal_records={self._wal_records}, durable_lsn={self._durable_lsn})"
        )
