"""Per-layer attribution for the traced run.

:meth:`LayerTracer.install` wraps the public entry points of each layer
in :func:`repro.obs.trace.span` (span names start with ``L/``) and
:meth:`LayerTracer.stage` opens one ``S/`` span per workload stage. The
program itself is not edited: wrappers are set on the modules and
classes from here and :meth:`LayerTracer.restore` puts the originals
back. Spans inside the program (``store.append`` and the like) are
recorded too but ignored by the accounting, which only nests ``L/``
spans inside ``S/`` spans.

A layer's *self time* is its span time minus the time its ``L/`` child
spans cover; a stage's *attributed share* is the part of its wall time
covered by ``L/`` spans. Counters (items folded, rows solved, records
replayed, ...) are taken by the same wrappers and only while a stage is
open, so the benchmark's own checking work never counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from repro.obs import trace

LAYER = "L/"
STAGE = "S/"

#: Spans kept between drains; one stage of one cycle must fit.
RING_CAPACITY = 1_500_000

#: Stages with more spans than this are not written as Chrome traces
#: (the file would be tens of megabytes); the accounting still sees them.
EXPORT_SPAN_LIMIT = 60_000


class Untraced:
    """The untraced run's stand-in: stages cost one no-op context."""

    traced = False

    def stage(self, name: str):
        return nullcontext()


# -- counters the wrappers take ----------------------------------------------


def _count_batch(tracer, args, kwargs, result):
    tracer.count("batches")
    tracer.count("batch_items", len(args[2]))


def _count_segment(tracer, args, kwargs, result):
    tracer.count("segments")


def _count_record(tracer, args, kwargs, result):
    tracer.count("wal_records")


def _count_replay(tracer, args, kwargs, result):
    tracer.count("replay_records", result.records)


def _count_ship(tracer, args, kwargs, result):
    tracer.count("shipped_records", result.records_shipped)
    tracer.count("snapshot_installs", int(result.snapshot_installed))


def _count_solve(tracer, args, kwargs, result):
    tracer.count("solves")
    tracer.count("rows_solved", len(result.nu))
    tracer.count("newton_iterations", int(result.iterations.sum()))


def _count_pack(tracer, args, kwargs, result):
    tracer.count("packed_bytes", result.byte_size)


def _count_query(tracer, args, kwargs, result):
    tracer.count("queries")
    tracer.count("rows_returned", len(result.rows))


#: (module, attribute, span name, counter) for module-level functions.
#: A function imported by name into several modules is listed once per
#: module that calls it through its own namespace.
FUNCTIONS = [
    ("repro.hashing.batch", "hash_items", "hashing.hash", None),
    ("repro.estimation.batch", "batch_estimate_sketches", "estimation.gather", None),
    ("repro.estimation.batch", "register_coefficients", "estimation.coefficients", None),
    ("repro.estimation.batch", "solve_ml_equations", "estimation.newton", _count_solve),
    ("repro.core.mlestimation", "bias_correction_factor", "theory.bias_constant", None),
    ("repro.store.sketchstore", "replay_wal", "store.wal_replay", _count_replay),
    ("repro.query", "parse", "query.parse", None),
    ("repro.query", "execute", "query.execute", _count_query),
]

#: (module, class, attribute, span name, counter) for methods.
METHODS = [
    ("repro.cluster.sharded", "ShardedStore", "add_batch", "aggregate.scatter", _count_batch),
    ("repro.cluster.sharded", "ShardedStore", "append_hashes", "cluster.route", _count_segment),
    ("repro.cluster.sharded", "ShardedStore", "merge_sketch", "cluster.route", None),
    ("repro.cluster.sharded", "ShardedStore", "rebalance", "cluster.rebalance", None),
    ("repro.cluster.sharded", "ShardedStore", "open", "cluster.admin", None),
    ("repro.cluster.sharded", "ShardedStore", "compact", "cluster.admin", None),
    ("repro.cluster.sharded", "ShardedStore", "sync_replicas", "cluster.admin", None),
    ("repro.cluster.sharded", "ShardedStore", "close", "cluster.admin", None),
    ("repro.store.sketchstore", "SketchStore", "append_hashes", "store.wal_append", _count_record),
    ("repro.store.sketchstore", "SketchStore", "merge_sketch", "store.wal_append", _count_record),
    ("repro.store.sketchstore", "SketchStore", "drop_group", "store.wal_append", _count_record),
    ("repro.store.sketchstore", "SketchStore", "append_cutover", "store.wal_append", _count_record),
    ("repro.store.sketchstore", "SketchStore", "close", "store.wal_append", None),
    ("repro.store.sketchstore", "SketchStore", "compact", "store.compact", None),
    ("repro.store.sketchstore", "SketchStore", "open", "store.open", None),
    ("repro.store.reader", "SnapshotReader", "open", "store.reader_open", None),
    ("repro.store.reader", "SnapshotReader", "group_sketch", "store.selective_read", None),
    ("repro.store.replicate", "WalShipper", "sync", "store.ship", _count_ship),
    ("repro.store.replicate", "FollowerStore", "apply_record", "store.apply", None),
    ("repro.store.replicate", "FollowerStore", "install_snapshot", "store.install", None),
    ("repro.store.replicate", "FollowerStore", "open", "store.follower_admin", None),
    ("repro.store.replicate", "FollowerStore", "close", "store.follower_admin", None),
    ("repro.core.exaloglog", "ExaLogLog", "add_hashes", "core.fold_dense", None),
    ("repro.core.sparse", "SparseExaLogLog", "add_hashes", "core.fold_sparse", None),
    ("repro.core.sparse", "SparseExaLogLog", "to_bytes", "core.sparse_encode", None),
    ("repro.core.sparse", "SparseExaLogLog", "from_bytes", "core.sparse_decode", None),
    ("repro.core.exaloglog", "ExaLogLog", "to_bytes", "core.dense_codec", None),
    ("repro.core.exaloglog", "ExaLogLog", "from_bytes", "core.dense_codec", None),
    ("repro.storage.packed", "PackedArray", "from_values", "storage.pack", _count_pack),
    ("repro.storage.packed", "PackedArray", "to_list", "storage.unpack", None),
    ("repro.aggregate", "DistinctCountAggregator", "to_bytes", "aggregate.state_codec", None),
    ("repro.aggregate", "DistinctCountAggregator", "from_bytes", "aggregate.state_codec", None),
    (
        "repro.aggregate",
        "DistinctCountAggregator",
        "read_group_from_bytes",
        "aggregate.state_codec",
        None,
    ),
]

#: Modules that call ``apply_wal_record`` through their own namespace;
#: its calls are counted (rows examined per point query), not timed.
APPLY_RECORD_MODULES = ("repro.store.sketchstore", "repro.store.reader", "repro.store.replicate")

FOLD_SPANS = ("core.fold_dense", "core.fold_sparse")


class LayerTracer:
    """Installs the layer wrappers and accumulates self time per span name."""

    traced = True

    def __init__(self, export_dir=None, label: str = "") -> None:
        self.export_dir = export_dir
        self.label = label
        self.current: "str | None" = None
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.stage_counts: "dict[str, dict[str, float]]" = defaultdict(lambda: defaultdict(float))
        self.stage_wall: "dict[str, float]" = defaultdict(float)
        self.stage_attributed: "dict[str, float]" = defaultdict(float)
        self.exported: "list[str]" = []
        self.export = False
        self._fold_depth = 0
        self._undo: list = []

    # -- counting --------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        if self.current is not None:
            self.stage_counts[self.current][name] += amount

    def total(self, name: str, stages=None) -> float:
        """A counter summed over every stage, or over ``stages`` only."""
        return sum(
            counts.get(name, 0.0)
            for stage, counts in self.stage_counts.items()
            if stages is None or stage in stages
        )

    # -- wrapping --------------------------------------------------------------

    def _timed(self, span_name: str, function, counter):
        tracer = self
        name = LAYER + span_name
        fold = span_name in FOLD_SPANS

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if tracer.current is None:
                return function(*args, **kwargs)
            with trace.span(name):
                if fold:
                    # Items are counted once, at the outermost fold (a
                    # sparse sketch's dense fold is the same items).
                    if tracer._fold_depth == 0:
                        tracer.count("fold_items", len(args[1]))
                    tracer._fold_depth += 1
                    try:
                        result = function(*args, **kwargs)
                    finally:
                        tracer._fold_depth -= 1
                else:
                    result = function(*args, **kwargs)
                if counter is not None:
                    counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, counter_name: str, function):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer.count(counter_name)
            return function(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> "LayerTracer":
        """Wrap every listed entry point and enable span recording."""
        for module_name, attribute, span_name, counter in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._patch(module, attribute, self._timed(span_name, original, counter))
        for module_name, class_name, attribute, span_name, counter in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._timed(span_name, raw.__func__, counter))
            else:
                wrapped = self._timed(span_name, raw, counter)
            self._patch(owner, attribute, wrapped)
        for module_name in APPLY_RECORD_MODULES:
            module = importlib.import_module(module_name)
            self._patch(
                module,
                "apply_wal_record",
                self._counted("records_applied", module.apply_wal_record),
            )
        self._patch(os, "fsync", self._counted("fsync_calls", os.fsync))
        self._saved = (trace.enabled(), trace.capacity())
        trace.set_capacity(RING_CAPACITY)
        trace.reset()
        trace.enable()
        return self

    def restore(self) -> None:
        """Put every original back (in reverse order) and the tracer as it was."""
        enabled, capacity = self._saved
        trace.reset()
        trace.set_capacity(capacity)
        if not enabled:
            trace.disable()
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- stages ----------------------------------------------------------------

    @contextmanager
    def stage(self, name: str):
        """One workload stage: an ``S/`` span, drained and accounted at exit."""
        trace.reset()
        self.current = name
        try:
            with trace.span(STAGE + name):
                yield
        finally:
            self.current = None
            self._drain(name)

    def attribute(self, stage: str, seconds: float) -> None:
        """Credit time measured outside this process (a cold subprocess)."""
        self.stage_attributed[stage] += seconds

    def attributed_shares(self) -> "dict[str, float]":
        return {
            stage: self.stage_attributed[stage] / wall
            for stage, wall in self.stage_wall.items()
            if wall > 0
        }

    def _drain(self, stage: str) -> None:
        spans = [
            record
            for record in trace.spans()
            if record.name.startswith(LAYER) or record.name.startswith(STAGE)
        ]
        if self.export and self.export_dir is not None:
            if len(spans) <= EXPORT_SPAN_LIMIT:
                path = self.export_dir / f"{self.label}-{stage}.trace.json"
                trace.save_chrome_trace(path)
                self.exported.append(str(path))
        trace.reset()
        for record, self_time in self_times(spans):
            if record.name.startswith(STAGE):
                self.stage_wall[stage] += record.duration
                self.stage_attributed[stage] += record.duration - self_time
            else:
                self.self_s[record.name[len(LAYER):]] += self_time


def self_times(spans) -> "list[tuple]":
    """``(span, self time)`` for each span: duration minus covered children.

    Nesting is recovered from the intervals (spans of one thread either
    nest or are disjoint), so spans the accounting ignores do not break
    the parent chain.
    """
    epsilon = 1e-7
    ordered = sorted(spans, key=lambda record: (record.thread_id, record.start, -record.duration))
    child_time = [0.0] * len(ordered)
    stack: "list[int]" = []
    for index, record in enumerate(ordered):
        while stack:
            parent = ordered[stack[-1]]
            if (
                parent.thread_id == record.thread_id
                and record.start >= parent.start - epsilon
                and record.end <= parent.end + epsilon
            ):
                break
            stack.pop()
        if stack:
            child_time[stack[-1]] += record.duration
        stack.append(index)
    return [
        (record, max(record.duration - child_time[index], 0.0))
        for index, record in enumerate(ordered)
    ]
