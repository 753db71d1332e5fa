"""The benchmark's own tests: metric names, the checker, traced identity.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q

Every workload runs at its ``tiny`` size, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from checks import Checker  # noqa: E402
from layers import LayerTracer, Untraced  # noqa: E402
from workloads import CONFIG, WORKLOADS, IngestBulk  # noqa: E402

from repro.aggregate import DistinctCountAggregator  # noqa: E402
from repro.cluster import ShardedStore  # noqa: E402
from repro.query import query  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> "tuple[int, dict]":
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", [entry["name"] for entry in DECLARED["workloads"]])
def test_tiny_run_emits_every_declared_metric(capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _run(capsys, workload, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {entry["name"]: entry["unit"] for entry in DECLARED[section]}
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
        if section == "end_to_end":
            assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_declared_metrics_match_the_runner():
    assert [(e["name"], e["unit"]) for e in DECLARED["end_to_end"]] == run.END_TO_END
    assert [(e["name"], e["unit"]) for e in DECLARED["per_layer"]] == run.PER_LAYER
    assert set(WORKLOADS) == {entry["name"] for entry in DECLARED["workloads"]}


def test_checker_fails_a_flipped_register_byte(tmp_path):
    checker = Checker()
    workload = IngestBulk(3, tmp_path, checker, "tiny")
    workload.prepare()
    # Flip one register byte of a dense group inside a copy of the
    # reference state the reopened store is compared against.
    state = DistinctCountAggregator.from_bytes(workload.ref_final)
    dense = next(sketch for sketch in state._groups.values() if not sketch.is_sparse)
    blob = dense.to_bytes()
    corrupted = bytearray(workload.ref_final)
    corrupted[workload.ref_final.index(blob) + len(blob) // 2] ^= 0x01
    workload.ref_final = bytes(corrupted)
    workload.cycle(Untraced())
    assert checker.failed == 1
    assert not checker.correct
    assert "after reopen" in checker.messages[0]


def test_checker_counts_wrong_rows_and_estimates():
    checker = Checker()
    assert checker.same_rows([(b"a", 1.0)], [(b"a", 1.0)], "same")
    assert not checker.same_rows([(b"a", 1.0)], [(b"a", 1.0000001)], "float differs")
    assert not checker.estimates_near({"a": 130.0}, {"a": 100}, "too far")
    assert checker.estimates_near({"a": 104.0, "b": 2.0}, {"a": 100, "b": 1}, "close")
    assert checker.failed == 2


def _ingest_and_read(root, batches, tracer) -> "tuple[bytes, list]":
    with tracer.stage("ingest"):
        with ShardedStore.open(root, shards=2, **CONFIG) as store:
            for groups, items in batches:
                store.add_batch(groups, items)
            rows = [query(store, "top 5").rows, query(store, f"estimate '{batches[0][0][0]}'").rows]
            store.compact()
            store.sync_replicas()
            moved = store.rebalance(3)
    with tracer.stage("reopen"):
        with ShardedStore.open(root) as store:
            state = store.to_aggregator().to_bytes()
            rows.append(query(store, "estimate all").rows)
    return state, rows + [moved.moved_groups, moved.shipped_bytes]


def test_traced_wrappers_leave_results_byte_identical(tmp_path):
    import gen

    batches = gen.zipf_batches(5, "k", 200, 1.0, [500] * 6, 10_000).batches
    plain = _ingest_and_read(tmp_path / "plain", batches, Untraced())
    tracer = LayerTracer()
    with tracer:
        traced = _ingest_and_read(tmp_path / "traced", batches, tracer)
    assert traced == plain
    assert tracer.self_s["aggregate.scatter"] > 0
    assert tracer.total("wal_records") > 0


def test_restore_puts_every_original_back():
    import os

    import repro.core.sparse as sparse
    import repro.hashing.batch as hashing

    before = (hashing.hash_items, sparse.SparseExaLogLog.__dict__["from_bytes"], os.fsync)
    with LayerTracer():
        assert hashing.hash_items is not before[0]
    assert (hashing.hash_items, sparse.SparseExaLogLog.__dict__["from_bytes"], os.fsync) == before


def test_self_times_subtract_covered_children():
    from layers import self_times
    from repro.obs.trace import Span

    parent = Span("L/a", 0.0, 1.0, 0, 1)
    child = Span("L/b", 0.2, 0.3, 1, 1)
    grandchild = Span("L/c", 0.25, 0.1, 2, 1)
    result = {span.name: value for span, value in self_times([grandchild, child, parent])}
    assert result == pytest.approx({"L/a": 0.7, "L/b": 0.2, "L/c": 0.1})


def test_fails_without_the_library(tmp_path):
    """Only BENCHMARK.json and this directory: no result, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, *DECLARED["command"][1:], "--workload", "ingest_bulk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
