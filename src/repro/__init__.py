"""repro — a Python reproduction of ExaLogLog (Ertl, EDBT 2025).

Space-efficient, practical approximate distinct counting up to the
exa-scale: the ExaLogLog sketch, its ML / martingale estimators, sparse
mode, every baseline the paper compares against, and the full simulation
and benchmark harness behind the paper's tables and figures.

Quickstart::

    from repro import ExaLogLog

    sketch = ExaLogLog(t=2, d=20, p=8)
    for item in ("alice", "bob", "alice"):
        sketch.add(item)
    print(round(sketch.estimate()))   # ~2

See README.md for the architecture overview and the paper-to-module map.
"""

from repro.backends import BulkBackend
from repro.core.exaloglog import ExaLogLog
from repro.core.martingale import MartingaleExaLogLog
from repro.core.params import (
    ExaLogLogParams,
    ell_1_9,
    ell_2_16,
    ell_2_20,
    ell_2_24,
    make_params,
)
from repro.core.sparse import SparseExaLogLog
from repro.core.token import estimate_from_tokens, hash_to_token, token_to_hash
from repro.aggregate import DistinctCountAggregator
from repro.hashing import hash64
from repro.parallel import ParallelBulkIngestor
from repro.setops import (
    containment_estimate,
    difference_estimate,
    intersection_estimate,
    jaccard_estimate,
    union_estimate,
)
from repro.query import query
from repro.store import MemmapRegisters, SketchStore, SpilledGroupBy
from repro.windowed import SlidingWindowDistinctCounter

__version__ = "1.0.0"

__all__ = [
    "BulkBackend",
    "DistinctCountAggregator",
    "ExaLogLog",
    "ExaLogLogParams",
    "MartingaleExaLogLog",
    "MemmapRegisters",
    "ParallelBulkIngestor",
    "SketchStore",
    "SlidingWindowDistinctCounter",
    "SparseExaLogLog",
    "SpilledGroupBy",
    "__version__",
    "containment_estimate",
    "difference_estimate",
    "ell_1_9",
    "ell_2_16",
    "ell_2_20",
    "ell_2_24",
    "estimate_from_tokens",
    "hash64",
    "hash_to_token",
    "intersection_estimate",
    "jaccard_estimate",
    "make_params",
    "query",
    "token_to_hash",
    "union_estimate",
]
