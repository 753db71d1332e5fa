"""Store directories written by older versions, which kept a group-level
WAL index (``walidx-<gen>.log``, tag 0x44) beside every WAL, still open.

Readers, read-only opens and followers ignore the sidecars; a writer-mode
open sweeps them.
"""

import numpy as np

from repro.storage.serialization import (
    FORMAT_VERSION,
    MAGIC,
    TAG_WAL_INDEX,
    read_lsn_record_from,
    write_record,
    write_uvarint,
)
from repro.store import (
    FollowerStore,
    SketchStore,
    SnapshotReader,
    WalShipper,
    wal_path,
)


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _legacy_index(wal_file) -> bytes:
    """A ``walidx`` file as older writers kept it: one checksummed
    ``key -> uvarint lsn | offset | length`` entry per WAL record."""
    index = bytearray(MAGIC + bytes((FORMAT_VERSION, TAG_WAL_INDEX)))
    with open(wal_file, "rb") as handle:
        handle.seek(len(index))  # past the 4-byte file header
        while True:
            offset = handle.tell()
            record = read_lsn_record_from(handle)
            if record is None:
                return bytes(index)
            lsn, _kind, key, _payload = record
            payload = bytearray()
            for value in (lsn, offset, handle.tell() - offset):
                write_uvarint(payload, value)
            write_record(index, 0x01, key, bytes(payload))


def _legacy_store(directory) -> bytes:
    """Generation 1 plus a WAL tail, with both generations' old sidecars;
    returns the expected aggregator bytes."""
    with SketchStore.open(directory, p=8) as store:
        store.append_hashes("DE", _hashes(1, 400))
        store.append_hashes("AT", _hashes(2, 40))
        gen0_index = _legacy_index(wal_path(directory, 0))
        store.compact()
        store.append_hashes("DE", _hashes(3, 200))
        store.append_hashes("CH", _hashes(4, 10))
        expected = store.aggregator.to_bytes()
    (directory / "walidx-00000000.log").write_bytes(gen0_index)
    (directory / "walidx-00000001.log").write_bytes(
        _legacy_index(wal_path(directory, 1))
    )
    return expected


def _files(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_reader_opens_legacy_directory(tmp_path):
    expected = _legacy_store(tmp_path / "s")
    before = _files(tmp_path / "s")
    with SnapshotReader.open(tmp_path / "s") as reader:
        assert reader.aggregator.to_bytes() == expected
        assert reader.group_sketch("DE").to_bytes() == (
            reader.aggregator._groups[b"DE"].to_bytes()
        )
    assert _files(tmp_path / "s") == before


def test_read_only_open_touches_nothing(tmp_path):
    expected = _legacy_store(tmp_path / "s")
    before = _files(tmp_path / "s")
    with SketchStore.open(tmp_path / "s", read_only=True) as store:
        assert store.aggregator.to_bytes() == expected
    assert _files(tmp_path / "s") == before


def test_follower_syncs_from_legacy_directory(tmp_path):
    expected = _legacy_store(tmp_path / "s")
    with FollowerStore.open(tmp_path / "replica") as follower:
        WalShipper(tmp_path / "s").sync(follower)
        assert follower.aggregator.to_bytes() == expected
    assert not list((tmp_path / "replica").glob("walidx-*"))


def test_writer_open_sweeps_legacy_index(tmp_path):
    expected = _legacy_store(tmp_path / "s")
    with SketchStore.open(tmp_path / "s") as store:
        assert store.aggregator.to_bytes() == expected
    assert not list((tmp_path / "s").glob("walidx-*"))
    with SnapshotReader.open(tmp_path / "s") as reader:
        assert reader.aggregator.to_bytes() == expected
