"""The Table 2 algorithm suite: construction, batch loading, estimation.

Binds every compared algorithm to (a) an empty-sketch factory for the
sequential benches (Figure 11) and (b) a vectorised batch loader that
produces the final sketch state of a hash batch for the statistical
benches (Table 2, Figure 10). Parameters follow Table 2: everything tuned
to roughly 2 % RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.baselines.cpc import CpcSketch
from repro.baselines.hll_compact4 import HllCompact4
from repro.baselines.hyperloglog import HyperLogLog, MartingaleHyperLogLog
from repro.baselines.hyperlogloglog import HyperLogLogLog
from repro.baselines.spikesketch import SpikeSketch
from repro.backends import exaloglog_state
from repro.core.exaloglog import ExaLogLog
from repro.core.martingale import MartingaleExaLogLog
from repro.core.params import make_params
from repro.core.sparse import SparseExaLogLog
from repro.experiments.common import ingest_hashes


@dataclass(frozen=True)
class AlgorithmSpec:
    """One row of the comparison suite."""

    name: str
    factory: Callable[[], Any]
    from_hashes: Callable[[np.ndarray], Any]
    constant_time_insert: bool
    reference: str


class RawHyperLogLog(HyperLogLog):
    """HyperLogLog whose default estimator is the original raw one
    (DataSketches-style rows of Table 2)."""

    def estimate(self) -> float:
        return self.estimate_raw()


def _ell_loader(t: int, d: int, p: int, cls=ExaLogLog) -> Callable[[np.ndarray], Any]:
    params = make_params(t, d, p)

    def load(hashes: np.ndarray) -> Any:
        if issubclass(cls, MartingaleExaLogLog):
            # The statistical benches only need the register state; replaying
            # the order-dependent estimator would force a scalar loop.
            return cls.from_registers(params, exaloglog_state(hashes, params))
        return ingest_hashes(cls.from_params(params), hashes)

    return load


def _hll_loader(p: int, width: int, raw_estimator: bool) -> Callable[[np.ndarray], Any]:
    cls = RawHyperLogLog if raw_estimator else HyperLogLog

    def load(hashes: np.ndarray) -> Any:
        return ingest_hashes(cls(p, width), hashes)

    return load


def _hll4_loader(p: int) -> Callable[[np.ndarray], Any]:
    def load(hashes: np.ndarray) -> Any:
        shadow = ingest_hashes(HyperLogLog(p), hashes)
        sketch = HllCompact4(p)
        sketch.merge_inplace(shadow)
        return sketch

    return load


def _hlll_loader(p: int) -> Callable[[np.ndarray], Any]:
    def load(hashes: np.ndarray) -> Any:
        shadow = ingest_hashes(HyperLogLog(p), hashes)
        sketch = HyperLogLogLog(p)
        sketch.merge_inplace(shadow)
        return sketch

    return load


def _cpc_loader(p: int) -> Callable[[np.ndarray], Any]:
    def load(hashes: np.ndarray) -> Any:
        return ingest_hashes(CpcSketch(p), hashes)

    return load


def _spike_loader(buckets: int) -> Callable[[np.ndarray], Any]:
    def load(hashes: np.ndarray) -> Any:
        return ingest_hashes(SpikeSketch(buckets), hashes)

    return load


def _sparse_ell_loader(t: int, d: int, p: int, v: int = 26) -> Callable[[np.ndarray], Any]:
    def load(hashes: np.ndarray) -> Any:
        return ingest_hashes(SparseExaLogLog(t, d, p, v), hashes)

    return load


def table2_suite() -> list[AlgorithmSpec]:
    """The ten rows of Table 2 (configurations for ~2 % RMSE)."""
    return [
        AlgorithmSpec(
            "HLL (8-bit, p=11)",
            lambda: RawHyperLogLog(11, 8),
            _hll_loader(11, 8, raw_estimator=True),
            True,
            "apache/datasketches HLL8",
        ),
        AlgorithmSpec(
            "HLL (6-bit, p=11)",
            lambda: RawHyperLogLog(11, 6),
            _hll_loader(11, 6, raw_estimator=True),
            True,
            "apache/datasketches HLL6",
        ),
        AlgorithmSpec(
            "HLL (ML, p=11)",
            lambda: HyperLogLog(11, 6),
            _hll_loader(11, 6, raw_estimator=False),
            True,
            "hash4j HLL",
        ),
        AlgorithmSpec(
            "HLL (4-bit, p=11)",
            lambda: HllCompact4(11),
            _hll4_loader(11),
            False,
            "apache/datasketches HLL4",
        ),
        AlgorithmSpec(
            "CPC (p=10)",
            lambda: CpcSketch(10),
            _cpc_loader(10),
            False,
            "apache/datasketches CPC (surrogate, see README)",
        ),
        AlgorithmSpec(
            "ULL (ML, p=10)",
            lambda: ExaLogLog(0, 2, 10),
            _ell_loader(0, 2, 10),
            True,
            "hash4j ULL",
        ),
        AlgorithmSpec(
            "HLLL (p=11)",
            lambda: HyperLogLogLog(11),
            _hlll_loader(11),
            False,
            "mkarppa/hyperlogloglog",
        ),
        AlgorithmSpec(
            "SpikeSketch (128)",
            lambda: SpikeSketch(128),
            _spike_loader(128),
            True,
            "duyang92/SpikeSketch (behavioural model, see README)",
        ),
        AlgorithmSpec(
            "ELL (t=2,d=24,p=8)",
            lambda: ExaLogLog(2, 24, 8),
            _ell_loader(2, 24, 8),
            True,
            "this work",
        ),
        AlgorithmSpec(
            "ELL (t=2,d=20,p=8)",
            lambda: ExaLogLog(2, 20, 8),
            _ell_loader(2, 20, 8),
            True,
            "this work",
        ),
    ]


def figure10_suite() -> list[AlgorithmSpec]:
    """Figure 10 adds the sparse-mode ELL the paper's Sec. 4.3 proposes."""
    return table2_suite() + [
        AlgorithmSpec(
            "ELL sparse (t=2,d=20,p=8,v=26)",
            lambda: SparseExaLogLog(2, 20, 8, 26),
            _sparse_ell_loader(2, 20, 8, 26),
            True,
            "this work (Sec. 4.3)",
        ),
    ]


def figure11_suite() -> list[AlgorithmSpec]:
    """Figure 11's operation-timing suite (adds martingale variants)."""
    return table2_suite() + [
        AlgorithmSpec(
            "ELL (t=2,d=20,p=8, martingale)",
            lambda: MartingaleExaLogLog(2, 20, 8),
            _ell_loader(2, 20, 8, cls=MartingaleExaLogLog),
            True,
            "this work",
        ),
        AlgorithmSpec(
            "ELL (t=2,d=24,p=8, martingale)",
            lambda: MartingaleExaLogLog(2, 24, 8),
            _ell_loader(2, 24, 8, cls=MartingaleExaLogLog),
            True,
            "this work",
        ),
        AlgorithmSpec(
            "HLL (martingale, p=11)",
            lambda: MartingaleHyperLogLog(11),
            _hll_loader(11, 6, raw_estimator=False),
            True,
            "martingale baseline",
        ),
    ]
