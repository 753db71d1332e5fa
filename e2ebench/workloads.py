"""The three workloads: one client, closed loop, real public API.

Each workload runs *cycles*. A cycle sets up from scratch (the timed
set-up), then runs a fixed amount of work: the same generated inputs on
every cycle, so the state every later stage sees has the same size no
matter how fast ingest was. The runner repeats cycles for about
``--seconds`` and reports medians over all samples (and percentiles
over every request of the run).

Flush policy: ``fsync=False`` (the store default) everywhere. Snapshot
writes still fsync; WAL appends are written and flushed but not synced,
so ingest timings do not depend on the disk's sync latency, which
swings far more than the code under test does.

Answers are checked outside the timed regions: state bytes against an
in-memory ``DistinctCountAggregator`` fed the same batches, estimates
against the generator's exact counts, query rows against the reference.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import gen
from checks import Checker

from repro.aggregate import DistinctCountAggregator
from repro.cluster import ShardedStore
from repro.cluster.meta import replica_path, shard_path
from repro.query import query
from repro.store import FollowerStore, SnapshotReader, latest_generation, snapshot_path

#: Sketch configuration of every workload: ExaLogLog(t=2, d=20) at p=10,
#: groups start as sparse tokens and densify past break-even.
CONFIG = dict(t=2, d=20, p=10, sparse=True, seed=0)

#: Sizes per workload. ``tiny`` is for the benchmark's own tests.
SIZES = {
    "ingest_bulk": {
        "full": dict(groups=1000, exponent=1.0, batches=20, batch=20_000, tail=2, universe=200_000),
        "tiny": dict(groups=40, exponent=1.0, batches=50, batch=200, tail=1, universe=5_000),
    },
    "query_read": {
        "full": dict(
            groups=300, base=1_000, extra=100_000, batch=50_000, tail=4, tail_batch=2_000,
            rounds=20, points=3,
        ),
        "tiny": dict(
            groups=12, base=1_000, extra=2_000, batch=4_000, tail=2, tail_batch=200,
            rounds=13, points=3,
        ),
    },
    "cluster_trickle": {
        "full": dict(groups=10_000, exponent=1.0, batches=50, batch=1_000, universe=1_000_000),
        "tiny": dict(groups=300, exponent=1.0, batches=50, batch=100, universe=20_000),
    },
}

#: Cycles a run makes at least, and requests it pools at least, so the
#: reported 90th percentile always has ten samples beyond it.
MIN_CYCLES = 2
MIN_REQUESTS = 100

#: Times each open and whole-state operation repeats within a cycle, on
#: the same state: more samples per run for the medians.
REPEATS = 3

#: Cold queries per ``query_read`` cycle (each a fresh interpreter).
COLD_REPEATS = 2


@dataclass
class Sample:
    """What one cycle measured."""

    setup_s: float = 0.0
    requests_ms: list = field(default_factory=list)
    open_s: list = field(default_factory=list)
    whole_state_s: list = field(default_factory=list)
    snapshot_bytes_per_group: float = 0.0
    stage_s: dict = field(default_factory=dict)
    """Wall time per in-process stage (the trace-overhead comparison)."""
    detail: dict = field(default_factory=dict)
    """Per-operation figures under the names the report prints."""
    layer: dict = field(default_factory=dict)
    """Per-layer figures the workload measures itself (skew, WAL bytes, ...)."""
    cold_splits: list = field(default_factory=list)
    """Phase times of each traced cold query (``cold_query.py``)."""


def _timed(function, *args, **kwargs):
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - started, result


def snapshot_bytes(directory) -> int:
    return snapshot_path(directory, latest_generation(directory)).stat().st_size


def reference(batches) -> DistinctCountAggregator:
    aggregator = DistinctCountAggregator(**CONFIG)
    for groups, items in batches:
        aggregator.add_batch(groups, items)
    return aggregator


def estimates_by_name(aggregator) -> "dict[str, float]":
    return {key.decode(): value for key, value in aggregator.estimates().items()}


class Workload:
    """Shared cycle plumbing; subclasses define the stages."""

    name = ""

    def __init__(self, seed: int, workdir: pathlib.Path, checker: Checker, size: str = "full", root=None) -> None:
        self.seed = seed
        self.workdir = pathlib.Path(workdir)
        self.checker = checker
        self.sizes = SIZES[self.name][size]
        self.root = pathlib.Path(root) if root is not None else None
        self.cycles = 0

    def prepare(self) -> None:
        """Untimed, once per run: generate inputs and build references."""

    def fresh_dir(self, label: str) -> pathlib.Path:
        path = self.workdir / f"{label}-{self.cycles}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def cycle(self, tracer) -> Sample:
        raise NotImplementedError

    def _reopen(self, sample: Sample, opener, path):
        """Open ``path`` REPEATS times (closing all but the last); time each."""
        for attempt in range(REPEATS):
            elapsed, opened = _timed(opener, path)
            sample.open_s.append(elapsed)
            self.checker.attempt()
            if attempt < REPEATS - 1:
                opened.close()
        return opened


class IngestBulk(Workload):
    """1-shard ``ShardedStore`` fed few large Zipf batches through ``add_batch``."""

    name = "ingest_bulk"

    def _inputs(self) -> gen.Batches:
        s = self.sizes
        return gen.zipf_batches(
            self.seed, "b", s["groups"], s["exponent"], [s["batch"]] * (s["batches"] + s["tail"]), s["universe"]
        )

    def prepare(self) -> None:
        inputs = self._inputs()
        count = self.sizes["batches"]
        ref = reference(inputs.batches[:count])
        self.ref_ingest = ref.to_bytes()
        for groups, items in inputs.batches[count:]:
            ref.add_batch(groups, items)
        self.ref_final = ref.to_bytes()
        self.exact = inputs.exact_counts()

    def cycle(self, tracer) -> Sample:
        sample = Sample()
        count = self.sizes["batches"]
        root = self.fresh_dir("bulk")
        started = time.perf_counter()
        inputs = self._inputs()
        store = ShardedStore.open(root, shards=1, **CONFIG)
        sample.setup_s = time.perf_counter() - started
        shard = shard_path(root, 0)
        wal_before = store.shard_stores[0].wal_bytes

        with tracer.stage("ingest"):
            stage_started = time.perf_counter()
            for groups, items in inputs.batches[:count]:
                started = time.perf_counter()
                store.add_batch(groups, items)
                sample.requests_ms.append((time.perf_counter() - started) * 1e3)
            sample.stage_s["ingest"] = time.perf_counter() - stage_started
        self.checker.attempt(count)
        item_count = sum(len(i) for _, i in inputs.batches[:count])
        sample.layer["wal_bytes_per_item"] = (store.shard_stores[0].wal_bytes - wal_before) / item_count

        with tracer.stage("compact"):
            for _ in range(REPEATS):
                sample.whole_state_s.append(_timed(store.compact)[0])
        sample.stage_s["compact"] = sum(sample.whole_state_s)
        self.checker.attempt(REPEATS)
        # The snapshot compact() wrote is the after-ingest state.
        snapshot = snapshot_path(shard, latest_generation(shard)).read_bytes()
        self.checker.same_bytes(snapshot[-len(self.ref_ingest):], self.ref_ingest, "ingest_bulk state after ingest")
        sample.snapshot_bytes_per_group = len(snapshot) / len(store)

        with tracer.stage("tail"):
            stage_started = time.perf_counter()
            for groups, items in inputs.batches[count:]:
                store.add_batch(groups, items)
            store.close()
            sample.stage_s["tail"] = time.perf_counter() - stage_started
        self.checker.attempt(len(inputs.batches) - count)

        with tracer.stage("reopen"):
            store = self._reopen(sample, ShardedStore.open, root)
        sample.stage_s["reopen"] = sum(sample.open_s)
        recovered = store.to_aggregator()
        self.checker.same_bytes(recovered.to_bytes(), self.ref_final, "ingest_bulk state after reopen")
        if self.cycles == 0:
            self.checker.estimates_near(estimates_by_name(recovered), self.exact, "ingest_bulk estimates")
        store.close()
        shutil.rmtree(root, ignore_errors=True)

        sample.detail = {
            "ingest_items_per_s": item_count / (sum(sample.requests_ms) / 1e3),
            "compact_s": sample.whole_state_s,
            "recover_s": sample.open_s,
        }
        self.cycles += 1
        return sample


class QueryRead(Workload):
    """Reads over a built store: reader opens, warm scan/point mix, cold CLI queries."""

    name = "query_read"

    def _inputs(self) -> gen.Batches:
        s = self.sizes
        return gen.dense_store_batches(self.seed, s["groups"], s["base"], s["extra"], s["batch"])

    def _tail_batches(self, keys) -> list:
        """WAL-tail batches: fresh items for Zipf-chosen existing groups."""
        s = self.sizes
        rng = np.random.default_rng([self.seed, 11])
        weights = gen.zipf_weights(len(keys), 1.0)
        batches = []
        for index in range(s["tail"]):
            codes = rng.choice(len(keys), size=s["tail_batch"], p=weights)
            items = rng.integers(1 << 39, 1 << 40, size=s["tail_batch"], dtype=np.int64)
            batches.append((keys[codes], items))
        return batches

    def prepare(self) -> None:
        inputs = self._inputs()
        self.batches = inputs.batches + self._tail_batches(inputs.keys)
        ref = reference(self.batches)
        self.ref_bytes = ref.to_bytes()
        truth = gen.Batches(keys=inputs.keys, batches=self.batches).exact_counts()
        by_key = ref.estimates()
        self.checker.attempt()
        self.checker.estimates_near({k.decode(): v for k, v in by_key.items()}, truth, "query_read reference estimates")
        ranked = sorted(by_key.items(), key=lambda kv: (-kv[1], kv[0]))
        self.expected = {
            "top 10": ranked[:10],
            "estimate all": sorted(by_key.items()),
        }
        self.point_value = {key.decode(): value for key, value in by_key.items()}
        s = self.sizes
        self.points = gen.zipf_choice(self.seed, inputs.keys, s["rounds"] * s["points"])
        self.cli_lines = [
            f"{DistinctCountAggregator.decode_key(key)}\t{value:.1f}" for key, value in ranked[:10]
        ]

    def _build(self) -> pathlib.Path:
        root = self.fresh_dir("read")
        count = len(self.batches) - self.sizes["tail"]
        with ShardedStore.open(root, shards=1, **CONFIG) as store:
            for groups, items in self.batches[:count]:
                store.add_batch(groups, items)
            store.compact()
            for groups, items in self.batches[count:]:
                store.add_batch(groups, items)
        return shard_path(root, 0)

    def cycle(self, tracer) -> Sample:
        sample = Sample()
        s = self.sizes
        sample.setup_s, directory = _timed(self._build)
        sample.snapshot_bytes_per_group = snapshot_bytes(directory) / s["groups"]
        if self.cycles == 0:
            # Warm-up: imports and the bias-correction constant are paid
            # once per process, before anything is timed.
            with SnapshotReader.open(directory) as reader:
                query(reader, "top 10")

        with tracer.stage("reader_open"):
            reader = self._reopen(sample, SnapshotReader.open, directory)
        sample.stage_s["reader_open"] = sum(sample.open_s)
        if self.cycles == 0:
            self.checker.same_bytes(reader.aggregator.to_bytes(), self.ref_bytes, "query_read reader state")

        answers = []
        scans, points = [], []
        with tracer.stage("warm"):
            stage_started = time.perf_counter()
            for round_index in range(s["rounds"]):
                text = "top 10" if round_index % 2 == 0 else "estimate all"
                elapsed, result = _timed(query, reader, text)
                scans.append(elapsed * 1e3)
                answers.append((text, result.rows))
                for key in self.points[round_index * s["points"] : (round_index + 1) * s["points"]]:
                    elapsed, result = _timed(query, reader, f"estimate '{key}'")
                    points.append(elapsed * 1e3)
                    answers.append((key, result.rows))
            sample.stage_s["warm"] = time.perf_counter() - stage_started
        reader.close()
        sample.requests_ms = scans + points
        for what, rows in answers:
            self.checker.attempt()
            if what in self.expected:
                self.checker.same_rows(rows, self.expected[what], f"query_read warm '{what}'")
            else:
                want = [(what.encode(), self.point_value[what])]
                self.checker.same_rows(rows, want, f"query_read warm point {what!r}")

        with tracer.stage("cold"):
            for _ in range(COLD_REPEATS):
                elapsed, phases = self._cold(directory, split=tracer.traced)
                if tracer.traced:
                    sample.cold_splits.append(phases)
                    tracer.attribute("cold", sum(phases.values()))
                sample.whole_state_s.append(elapsed)
                self.checker.attempt()
        shutil.rmtree(directory.parent, ignore_errors=True)

        sample.detail = {
            "reader_open_s": sample.open_s,
            "cold_query_s": sample.whole_state_s,
            "scan_query_ms": scans,
            "point_query_ms": points,
        }
        self.cycles += 1
        return sample

    def _env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in ("REPRO_TRACE", "REPRO_METRICS")}
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def _cold(self, directory, split: bool) -> "tuple[float, dict]":
        """One fresh-interpreter ``top 10``; its wall time and phase times.

        The real ``python -m repro.store query DIR "top 10" --reader``,
        or with ``split`` the same query through ``cold_query.py``, which
        also reports how long each phase took.
        """
        if split:
            command = [sys.executable, str(pathlib.Path(__file__).with_name("cold_query.py")), str(directory), "top 10"]
        else:
            command = [sys.executable, "-m", "repro.store", "query", str(directory), "top 10", "--reader"]
        spawned = time.time()
        started = time.perf_counter()
        completed = subprocess.run(command, capture_output=True, text=True, env=self._env(), cwd=self.root, timeout=120)
        elapsed = time.perf_counter() - started
        lines = completed.stdout.splitlines()
        ok = self.checker.expect(
            completed.returncode == 0, f"cold query exited {completed.returncode}: {completed.stderr[-300:]}"
        )
        self.checker.expect(lines[:10] == self.cli_lines, f"cold query rows {lines[:3]} differ from reference {self.cli_lines[:3]}")
        phases = {}
        if split and ok:
            phases = json.loads(lines[-1])
            phases["process.start_s"] = phases.pop("spawned_at") - spawned
        return elapsed, phases


class ClusterTrickle(Workload):
    """4-shard cluster fed many small batches, each followed by a routed read."""

    name = "cluster_trickle"

    def _inputs(self) -> gen.Batches:
        s = self.sizes
        return gen.zipf_batches(self.seed, "c", s["groups"], s["exponent"], [s["batch"]] * s["batches"], s["universe"])

    def prepare(self) -> None:
        inputs = self._inputs()
        ref = DistinctCountAggregator(**CONFIG)
        self.ryw = []
        for groups, items in inputs.batches:
            ref.add_batch(groups, items)
            key = str(groups[0])
            self.ryw.append((key, ref.estimate(key)))
        self.ref_bytes = ref.to_bytes()
        self.exact = inputs.exact_counts()
        self.groups = len(ref)
        # The routed reads below need the bias constant; pay it here.
        ref.estimates()

    def _replicas_match(self, store: ShardedStore, what: str) -> None:
        """Each replica's state is byte-equal to its shard's."""
        for index, shard in enumerate(store.shard_stores):
            self.checker.attempt()
            with FollowerStore.open(replica_path(store.root, index)) as follower:
                self.checker.same_bytes(
                    follower.aggregator.to_bytes(),
                    shard.aggregator.to_bytes(),
                    f"{what}: replica {index}",
                )

    def cycle(self, tracer) -> Sample:
        sample = Sample()
        root = self.fresh_dir("trickle")
        started = time.perf_counter()
        inputs = self._inputs()
        store = ShardedStore.open(root, shards=4, **CONFIG)
        sample.setup_s = time.perf_counter() - started
        wal_before = sum(shard.wal_bytes for shard in store.shard_stores)

        batch_ms, point_ms, answers = [], [], []
        with tracer.stage("ingest"):
            stage_started = time.perf_counter()
            for (groups, items), (key, _) in zip(inputs.batches, self.ryw):
                started = time.perf_counter()
                store.add_batch(groups, items)
                written = time.perf_counter()
                answers.append(query(store, f"estimate '{key}'").value)
                done = time.perf_counter()
                batch_ms.append((written - started) * 1e3)
                point_ms.append((done - written) * 1e3)
                sample.requests_ms.append((done - started) * 1e3)
            sample.stage_s["ingest"] = time.perf_counter() - stage_started
        for (key, want), got in zip(self.ryw, answers):
            self.checker.attempt(2)
            self.checker.expect(got == want, f"cluster_trickle read-your-write {key!r}: {got} != {want}")
        item_count = sum(len(i) for _, i in inputs.batches)
        sample.layer["wal_bytes_per_item"] = (sum(shard.wal_bytes for shard in store.shard_stores) - wal_before) / item_count
        sample.layer["skew"] = store.skew()
        self.checker.same_bytes(store.to_aggregator().to_bytes(), self.ref_bytes, "cluster_trickle state after ingest")

        maintenance = {}
        with tracer.stage("sync_ingest"):
            maintenance["sync_ingest"], _ = _timed(store.sync_replicas)
        self._replicas_match(store, "sync after ingest")

        before = len(store)
        with tracer.stage("rebalance"):
            maintenance["rebalance"], moved = _timed(store.rebalance, 6)
        self.checker.attempt()
        self.checker.same_bytes(store.to_aggregator().to_bytes(), self.ref_bytes, "cluster_trickle state after rebalance")
        sample.layer["skew_after_rebalance"] = store.skew()
        sample.layer["moved_groups"] = moved.moved_groups
        sample.layer["shipped_bytes"] = moved.shipped_bytes
        sample.layer["moved_share"] = moved.moved_groups / before

        with tracer.stage("sync_rebalance"):
            maintenance["sync_rebalance"], _ = _timed(store.sync_replicas)
        self._replicas_match(store, "sync after rebalance")

        with tracer.stage("compact"):
            maintenance["compact"], _ = _timed(store.compact)
        self.checker.attempt()
        sample.snapshot_bytes_per_group = sum(snapshot_bytes(shard.directory) for shard in store.shard_stores) / len(store)

        with tracer.stage("sync_reseed"):
            maintenance["sync_reseed"], _ = _timed(store.sync_replicas)
        self._replicas_match(store, "sync after compaction")
        store.close()

        with tracer.stage("reopen"):
            store = self._reopen(sample, ShardedStore.open, root)
        recovered = store.to_aggregator()
        self.checker.same_bytes(recovered.to_bytes(), self.ref_bytes, "cluster_trickle state after reopen")
        if self.cycles == 0:
            self.checker.estimates_near(estimates_by_name(recovered), self.exact, "cluster_trickle estimates")
        store.close()
        shutil.rmtree(root, ignore_errors=True)

        sample.stage_s = {**maintenance, "ingest": sample.stage_s["ingest"], "reopen": sum(sample.open_s)}
        sample.whole_state_s = [sum(maintenance.values())]
        sample.detail = {
            "ingest_items_per_s": item_count / (sum(batch_ms) / 1e3),
            "ingest_batch_ms": batch_ms,
            "point_query_ms": point_ms,
            "compact_s": maintenance["compact"],
            "recover_s": sample.open_s,
            "rebalance_s": maintenance["rebalance"],
            "replica_sync_s": maintenance["sync_ingest"] + maintenance["sync_rebalance"] + maintenance["sync_reseed"],
        }
        self.cycles += 1
        return sample


WORKLOADS = {cls.name: cls for cls in (IngestBulk, QueryRead, ClusterTrickle)}
