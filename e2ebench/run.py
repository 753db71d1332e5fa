"""End-to-end benchmark with per-layer attribution.

    python3 e2ebench/run.py --workload ingest_bulk --seed 1 --seconds 35 --trace 0

Runs one workload (see README.md) through the library's public API,
checks every answer, prints a human-readable report and, as the last
line of standard output, one JSON object::

    {"correct": true, "attempted": 212, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing and
metrics off. ``--trace 1`` runs untraced and traced cycles alternately
and reports the per-layer metrics of the traced ones, the share of each
stage's time the layer spans explain, and the tracing overhead.

The library is imported from ``src/`` of the checkout this file sits
in, never from anywhere else; without it the command fails before
printing a result. Stores are created under ``.e2ebench/`` in the
checkout and removed at exit; Chrome traces of the traced run are kept
in ``.e2ebench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end numbers are taken with the library's own tracing and
# metrics off; both read these at import time.
for _variable in ("REPRO_TRACE", "REPRO_METRICS"):
    os.environ.pop(_variable, None)

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("snapshot_bytes_per_group", "B"),
    ("open_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("whole_state_s", "s"),
]

#: (name, unit) of the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = [
    ("hashing.hash_s", "s"),
    ("aggregate.scatter_s", "s"),
    ("aggregate.segments", "count"),
    ("aggregate.items_per_segment", "items"),
    ("aggregate.state_codec_s", "s"),
    ("cluster.route_s", "s"),
    ("cluster.admin_s", "s"),
    ("cluster.rebalance_self_s", "s"),
    ("cluster.moved_groups", "count"),
    ("cluster.shipped_bytes", "B"),
    ("cluster.moved_share", "ratio"),
    ("cluster.skew", "ratio"),
    ("cluster.skew_after_rebalance", "ratio"),
    ("store.wal_append_s", "s"),
    ("store.wal_records", "count"),
    ("store.wal_bytes_per_item", "B"),
    ("store.fsync_calls", "count"),
    ("store.compact_s", "s"),
    ("store.open_s", "s"),
    ("store.wal_replay_s", "s"),
    ("store.replay_records", "count"),
    ("store.reader_open_s", "s"),
    ("store.selective_read_s", "s"),
    ("store.records_per_point_query", "count"),
    ("store.ship_s", "s"),
    ("store.apply_s", "s"),
    ("store.install_s", "s"),
    ("store.follower_admin_s", "s"),
    ("store.shipped_records", "count"),
    ("store.snapshot_installs", "count"),
    ("core.fold_dense_s", "s"),
    ("core.fold_sparse_s", "s"),
    ("core.fold_items", "count"),
    ("core.sparse_encode_s", "s"),
    ("core.sparse_decode_s", "s"),
    ("core.dense_codec_s", "s"),
    ("storage.pack_s", "s"),
    ("storage.unpack_s", "s"),
    ("storage.packed_bytes", "B"),
    ("estimation.gather_s", "s"),
    ("estimation.coefficients_s", "s"),
    ("estimation.newton_s", "s"),
    ("estimation.rows_solved", "rows"),
    ("estimation.newton_iterations_mean", "count"),
    ("theory.bias_constant_s", "s"),
    ("process.start_s", "s"),
    ("process.import_s", "s"),
    ("cold.reader_open_s", "s"),
    ("cold.solve_s", "s"),
    ("query.parse_s", "s"),
    ("query.execute_self_s", "s"),
    ("query.groups_per_result", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("obs.trace_overhead_pct", "%"),
]

#: Stage share below which the traced run lists a stage as under-attributed.
ATTRIBUTION_FLOOR = 0.9


def import_library():
    """Import the library from this checkout's ``src/`` or exit 2."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        print(f"e2ebench: cannot import the library from {source}: {error}", file=sys.stderr)
        sys.exit(2)
    location = pathlib.Path(repro.__file__).resolve()
    if source.resolve() not in location.parents:
        print(f"e2ebench: imported repro from {location}, not from {source}", file=sys.stderr)
        sys.exit(2)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def supported(count: int, q: float) -> bool:
    """At least ten samples lie beyond the ``q``-th percentile."""
    return count * (100 - q) / 100 >= 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- untraced run ------------------------------------------------------------------


def fits(started: float, durations: "list[float]", seconds: float) -> bool:
    """Another cycle (as long as the median one so far) ends within ``seconds``."""
    expected = statistics.median(durations) if durations else 0.0
    return time.perf_counter() - started + expected <= seconds


def run_untraced(workload, seconds: float) -> "list":
    """Cycles while another one fits in ``seconds``, and until the minimum
    cycles and requests are in."""
    from layers import Untraced
    from workloads import MIN_CYCLES, MIN_REQUESTS

    samples, durations = [], []
    started = time.perf_counter()
    while (
        fits(started, durations, seconds)
        or len(samples) < MIN_CYCLES
        or sum(len(sample.requests_ms) for sample in samples) < MIN_REQUESTS
    ):
        cycle_started = time.perf_counter()
        samples.append(workload.cycle(Untraced()))
        durations.append(time.perf_counter() - cycle_started)
    return samples


def end_to_end(samples) -> "dict[str, float]":
    requests = [value for sample in samples for value in sample.requests_ms]
    return {
        "setup_s": statistics.median(sample.setup_s for sample in samples),
        "peak_rss_mb": peak_rss_mb(),
        "snapshot_bytes_per_group": statistics.median(sample.snapshot_bytes_per_group for sample in samples),
        "open_s": statistics.median(value for sample in samples for value in sample.open_s),
        "request_p50_ms": percentile(requests, 50),
        "request_p90_ms": percentile(requests, 90),
        "whole_state_s": statistics.median(value for sample in samples for value in sample.whole_state_s),
    }


def print_detail(name: str, samples, checker) -> None:
    """The workload's figures under per-operation names (see README.md)."""
    print(f"== {name}: {len(samples)} cycles")
    pooled: "dict[str, list]" = {}
    for sample in samples:
        for key, value in sample.detail.items():
            pooled.setdefault(key, []).extend(value if isinstance(value, list) else [value])
    units = {"ingest_items_per_s": "items/s"}
    for key, values in pooled.items():
        if not key.endswith("_ms"):
            print(f"  {key:28s} {statistics.median(values):14.4f} {units.get(key, 's')}  (median of {len(values)})")
            continue
        stem = key[: -len("_ms")]
        for q in (50, 99):
            label = f"{stem}_p{q}_ms"
            if supported(len(values), q):
                print(f"  {label:28s} {percentile(values, q):14.4f} ms  (n={len(values)})")
            else:
                print(f"  {label:28s} {'not reported':>14s}     (n={len(values)}, fewer than ten beyond p{q})")
    print(f"  {'error_rate':28s} {checker.error_rate():14.4f} ratio  ({checker.failed} of {checker.attempted})")


# -- traced run --------------------------------------------------------------------


def run_traced(workload, seconds: float, export_dir: pathlib.Path):
    """Alternate untraced and traced cycles; return (tracer, untraced, traced)."""
    from layers import LayerTracer, Untraced

    tracer = LayerTracer(export_dir=export_dir, label=workload.name)
    untraced, traced, durations = [], [], []
    started = time.perf_counter()
    while not traced or fits(started, durations, seconds):
        pair_started = time.perf_counter()
        untraced.append(workload.cycle(Untraced()))
        tracer.export = not traced
        with tracer:
            traced.append(workload.cycle(tracer))
        durations.append(time.perf_counter() - pair_started)
    return tracer, untraced, traced


def in_process_seconds(sample) -> float:
    return sum(value for stage, value in sample.stage_s.items() if stage != "cold")


def per_layer(tracer, untraced, traced) -> "dict[str, float]":
    cycles = len(traced)
    self_s = tracer.self_s
    total = tracer.total

    def seconds(name: str) -> float:
        return self_s.get(name, 0.0) / cycles

    def per_cycle(name: str) -> float:
        return total(name) / cycles

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def measured(key: str) -> float:
        values = [sample.layer[key] for sample in traced if key in sample.layer]
        return statistics.mean(values) if values else 0.0

    splits = [split for sample in traced for split in sample.cold_splits if split]

    def cold(key: str) -> float:
        return statistics.median(split[key] for split in splits) if splits else 0.0

    points = sum(len(sample.detail.get("point_query_ms", [])) for sample in traced)
    # Stages that ran queries: their replayed records and solved rows
    # are what the queries cost.
    querying = [stage for stage, counts in tracer.stage_counts.items() if counts.get("queries")]
    shares = tracer.attributed_shares()
    overhead = 100.0 * (
        statistics.median(in_process_seconds(sample) for sample in traced)
        / statistics.median(in_process_seconds(sample) for sample in untraced)
        - 1.0
    )
    return {
        "hashing.hash_s": seconds("hashing.hash"),
        "aggregate.scatter_s": seconds("aggregate.scatter"),
        "aggregate.segments": ratio(total("segments"), total("batches")),
        "aggregate.items_per_segment": ratio(total("batch_items"), total("segments")),
        "aggregate.state_codec_s": seconds("aggregate.state_codec"),
        "cluster.route_s": seconds("cluster.route"),
        "cluster.admin_s": seconds("cluster.admin"),
        "cluster.rebalance_self_s": seconds("cluster.rebalance"),
        "cluster.moved_groups": measured("moved_groups"),
        "cluster.shipped_bytes": measured("shipped_bytes"),
        "cluster.moved_share": measured("moved_share"),
        "cluster.skew": measured("skew"),
        "cluster.skew_after_rebalance": measured("skew_after_rebalance"),
        "store.wal_append_s": seconds("store.wal_append"),
        "store.wal_records": per_cycle("wal_records"),
        "store.wal_bytes_per_item": measured("wal_bytes_per_item"),
        "store.fsync_calls": per_cycle("fsync_calls"),
        "store.compact_s": seconds("store.compact"),
        "store.open_s": seconds("store.open"),
        "store.wal_replay_s": seconds("store.wal_replay"),
        "store.replay_records": per_cycle("replay_records"),
        "store.reader_open_s": seconds("store.reader_open"),
        "store.selective_read_s": seconds("store.selective_read"),
        "store.records_per_point_query": ratio(total("records_applied", querying), points),
        "store.ship_s": seconds("store.ship"),
        "store.apply_s": seconds("store.apply"),
        "store.install_s": seconds("store.install"),
        "store.follower_admin_s": seconds("store.follower_admin"),
        "store.shipped_records": per_cycle("shipped_records"),
        "store.snapshot_installs": per_cycle("snapshot_installs"),
        "core.fold_dense_s": seconds("core.fold_dense"),
        "core.fold_sparse_s": seconds("core.fold_sparse"),
        "core.fold_items": per_cycle("fold_items"),
        "core.sparse_encode_s": seconds("core.sparse_encode"),
        "core.sparse_decode_s": seconds("core.sparse_decode"),
        "core.dense_codec_s": seconds("core.dense_codec"),
        "storage.pack_s": seconds("storage.pack"),
        "storage.unpack_s": seconds("storage.unpack"),
        "storage.packed_bytes": per_cycle("packed_bytes"),
        "estimation.gather_s": seconds("estimation.gather"),
        "estimation.coefficients_s": seconds("estimation.coefficients"),
        "estimation.newton_s": seconds("estimation.newton"),
        "estimation.rows_solved": ratio(total("rows_solved"), total("solves")),
        "estimation.newton_iterations_mean": ratio(total("newton_iterations"), total("rows_solved")),
        "theory.bias_constant_s": cold("theory.bias_constant_s") if splits else seconds("theory.bias_constant"),
        "process.start_s": cold("process.start_s"),
        "process.import_s": cold("process.import_s"),
        "cold.reader_open_s": cold("cold.reader_open_s"),
        "cold.solve_s": cold("cold.solve_s"),
        "query.parse_s": seconds("query.parse"),
        "query.execute_self_s": seconds("query.execute"),
        "query.groups_per_result": ratio(total("rows_solved", querying), total("rows_returned")),
        "trace.attributed_share": min(shares.values()) if shares else 0.0,
        "obs.trace_overhead_pct": overhead,
    }


def print_layers(tracer, layer: "dict[str, float]", units: "dict[str, str]") -> None:
    print("== per-layer (per traced cycle; times are self times)")
    for name, value in layer.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    shares = tracer.attributed_shares()
    print("== trace.attributed_share per stage")
    for stage, share in shares.items():
        print(f"  {stage:20s} {share:8.4f}  of {tracer.stage_wall[stage]:.3f} s")
    below = [stage for stage, share in shares.items() if share < ATTRIBUTION_FLOOR]
    print(f"  stages below {ATTRIBUTION_FLOOR}: {', '.join(below) if below else 'none'}")
    print(f"== obs.trace_overhead_pct {layer['obs.trace_overhead_pct']:.2f} %")
    for path in tracer.exported:
        print(f"  chrome trace: {path}")


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(HERE))
    from checks import Checker
    from workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        parser.error(f"unknown workload {arguments.workload!r}; choose from {', '.join(WORKLOADS)}")
    state = ROOT / ".e2ebench"
    workdir = state / f"work-{arguments.workload}-{os.getpid()}"
    checker = Checker()
    workload = WORKLOADS[arguments.workload](arguments.seed, workdir, checker, arguments.size, ROOT)
    metrics: "dict[str, dict]" = {}
    try:
        workload.prepare()
        if arguments.trace:
            traces = state / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer, untraced, traced = run_traced(workload, arguments.seconds, traces)
            units = dict(PER_LAYER)
            layer = per_layer(tracer, untraced, traced)
            print_layers(tracer, layer, units)
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        else:
            samples = run_untraced(workload, arguments.seconds)
            print_detail(arguments.workload, samples, checker)
            values = end_to_end(samples)
            print("== end-to-end")
            for name, unit in END_TO_END:
                print(f"  {name:28s} {values[name]:14.4f} {unit}")
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except Exception:  # noqa: BLE001 - any crash is a failed operation, reported below
        traceback.print_exc()
        checker.attempt()
        checker.fail(f"{arguments.workload} raised; see the traceback above")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
