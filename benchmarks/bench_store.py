"""Durable-store benchmarks: memmap fold overhead, WAL ingest, spill GROUP BY.

Three sections, results to ``BENCH_store.json`` and a text table under
``benchmarks/output/``:

1. **memmap vs in-memory fold** — ``ExaLogLog.add_hashes`` against
   :class:`repro.store.MemmapRegisters.add_hashes` over the same hash
   batches (bit-identity verified); the overhead ratio is the price of a
   disk-backed, OS-paged register array.
2. **WAL ingest** — :class:`repro.store.SketchStore` append throughput
   (the durable path pays one log write per batch) plus recovery time of
   the resulting WAL.
3. **spill GROUP BY at many groups** — :class:`repro.store.SpilledGroupBy`
   end-to-end (spill + partition merge, streamed estimates) at
   ``SPILL_GROUPS`` groups with a **bounded-RSS assertion**: peak RSS may
   grow by at most ``RSS_BOUND_MB`` while the modelled in-memory
   aggregator footprint for the same group count is reported alongside —
   the point is that disk, not RAM, absorbs the group count.

Run directly::

    PYTHONPATH=src python benchmarks/bench_store.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.exaloglog import ExaLogLog
from repro.experiments.common import format_table
from repro.store import MemmapRegisters, SketchStore, SpilledGroupBy

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_store.json"
OUTPUT_TXT = pathlib.Path(__file__).resolve().parent / "output" / "bench_store.txt"

#: Timed repetitions (best-of); first calls pay allocator warm-up.
ROUNDS = 3

#: Peak-RSS growth allowed for the spill GROUP BY section.
RSS_BOUND_MB = 400


def _rate(elapsed: float, count: int) -> float:
    return count / elapsed if elapsed > 0 else float("inf")


def _best_of(build, rounds: int = ROUNDS):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        candidate = build()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, candidate
    return best, result


def _max_rss_mb() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024.0 if sys.platform == "darwin" else 1.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1024.0


def bench_memmap_fold(n: int, workdir: pathlib.Path) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(7))
    hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)

    memory_seconds, memory_sketch = _best_of(
        lambda: ExaLogLog(2, 20, 8).add_hashes(hashes)
    )

    def build_memmap():
        path = workdir / "bench.reg"
        if path.exists():
            path.unlink()
        with MemmapRegisters.create(path, "exaloglog", 2, 20, 8) as registers:
            registers.add_hashes(hashes)
            return registers.to_sketch()

    memmap_seconds, memmap_sketch = _best_of(build_memmap)
    if memmap_sketch.to_bytes() != memory_sketch.to_bytes():
        raise SystemExit("BIT-IDENTITY FAILURE: memmap fold diverged from in-memory")
    return [
        {
            "section": "memmap_fold",
            "mode": "in-memory add_hashes",
            "n": n,
            "items_per_s": _rate(memory_seconds, n),
            "overhead_vs_memory": 1.0,
            "bit_identical": True,
        },
        {
            "section": "memmap_fold",
            "mode": "memmap add_hashes (create+fold+flush)",
            "n": n,
            "items_per_s": _rate(memmap_seconds, n),
            "overhead_vs_memory": memmap_seconds / memory_seconds,
            "bit_identical": True,
        },
    ]


def bench_wal_ingest(n: int, batch: int, workdir: pathlib.Path) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(11))
    hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)

    directory = workdir / "walbench"

    def ingest():
        import shutil

        if directory.exists():
            shutil.rmtree(directory)
        with SketchStore.open(directory, p=8) as store:
            for start in range(0, n, batch):
                store.append_hashes("demo", hashes[start : start + batch])
            return store.wal_bytes

    ingest_seconds, wal_bytes = _best_of(ingest)

    def recover() -> float:
        # Time the open only; close before the next round releases the
        # directory's writer lock.
        start = time.perf_counter()
        store = SketchStore.open(directory)
        elapsed = time.perf_counter() - start
        store.close()
        return elapsed

    recover_seconds = min(recover() for _ in range(ROUNDS))
    return [
        {
            "section": "wal_ingest",
            "mode": f"append_hashes (batch={batch})",
            "n": n,
            "items_per_s": _rate(ingest_seconds, n),
            "wal_bytes": wal_bytes,
        },
        {
            "section": "wal_ingest",
            "mode": "open() with WAL replay",
            "n": n,
            "items_per_s": _rate(recover_seconds, n),
            "recover_seconds": recover_seconds,
        },
    ]


def bench_spill_groupby(
    group_count: int, items_per_group: int, workdir: pathlib.Path
) -> list[dict]:
    rss_before = _max_rss_mb()
    total = group_count * items_per_group
    chunk = 1 << 20
    spill = SpilledGroupBy(workdir / "spillbench", p=8, partitions=64)
    rng = np.random.Generator(np.random.PCG64(13))

    start = time.perf_counter()
    produced = 0
    while produced < total:
        size = min(chunk, total - produced)
        groups = rng.integers(0, group_count, size=size).astype(np.int64)
        items = rng.integers(0, 1 << 62, size=size, dtype=np.int64)
        spill.add_batch(groups, items)
        produced += size
    spill_seconds = time.perf_counter() - start

    start = time.perf_counter()
    observed_groups = 0
    checksum = 0.0
    for _, estimate in spill.iter_estimates():
        observed_groups += 1
        checksum += estimate
    merge_seconds = time.perf_counter() - start
    spill.cleanup()

    rss_after = _max_rss_mb()
    rss_delta = rss_after - rss_before
    # What the all-in-RAM aggregator would hold for the same groups —
    # modelled sketch payloads only (the library's JVM-style memory model;
    # Python object overhead is several times larger, and materialising a
    # million sketch objects is exactly the blow-up this plan avoids).
    from repro.baselines.base import OBJECT_OVERHEAD_BYTES

    modelled_sketch_payload_mb = (
        group_count * (OBJECT_OVERHEAD_BYTES + 80 + items_per_group * 4) / 1024.0 / 1024.0
    )
    bounded = rss_delta <= RSS_BOUND_MB
    return [
        {
            "section": "spill_groupby",
            "mode": f"spill write ({spill.partitions} partitions)",
            "n": total,
            "groups": group_count,
            "items_per_s": _rate(spill_seconds, total),
        },
        {
            "section": "spill_groupby",
            "mode": "partition merge + streamed estimates",
            "n": total,
            "groups": observed_groups,
            "items_per_s": _rate(merge_seconds, total),
            "estimate_checksum": round(checksum, 1),
        },
        {
            "section": "spill_groupby",
            "mode": "peak-RSS growth",
            "n": total,
            "groups": group_count,
            "rss_delta_mb": round(rss_delta, 1),
            "rss_bound_mb": RSS_BOUND_MB,
            "modelled_sketch_payload_mb": round(modelled_sketch_payload_mb, 1),
            "bounded": bounded,
        },
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized runs (smaller n and groups)"
    )
    arguments = parser.parse_args()

    fold_n = 200_000 if arguments.quick else 1_000_000
    wal_n = 100_000 if arguments.quick else 1_000_000
    spill_groups = 100_000 if arguments.quick else 1_000_000
    items_per_group = 2

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_store_") as workdir:
        workdir = pathlib.Path(workdir)
        rows += bench_memmap_fold(fold_n, workdir)
        rows += bench_wal_ingest(wal_n, 1 << 16, workdir)
        rows += bench_spill_groupby(spill_groups, items_per_group, workdir)

    text = "== Durable store: memmap fold / WAL ingest / spill GROUP BY ==\n"
    text += format_table(rows)
    print("\n" + text)
    OUTPUT_TXT.parent.mkdir(exist_ok=True)
    OUTPUT_TXT.write_text(text + "\n")
    OUTPUT_JSON.write_text(
        json.dumps({"quick": arguments.quick, "rows": rows}, indent=2) + "\n"
    )
    print(f"\nwrote {OUTPUT_JSON} and {OUTPUT_TXT}")

    rss_row = next(row for row in rows if row["mode"] == "peak-RSS growth")
    if not rss_row["bounded"]:
        print(
            f"BOUNDED-RSS FAILURE: spill GROUP BY grew peak RSS by "
            f"{rss_row['rss_delta_mb']} MB (bound {RSS_BOUND_MB} MB)",
            file=sys.stderr,
        )
        return 1
    print(
        f"bounded-RSS gate ok: +{rss_row['rss_delta_mb']} MB at "
        f"{rss_row['groups']} groups (bound {RSS_BOUND_MB} MB; modelled "
        f"in-memory sketch payloads alone: {rss_row['modelled_sketch_payload_mb']} MB)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
