"""Memory accounting shared by the Table 2 / Figure 10 benches.

The paper reports two sizes per algorithm: the total in-memory allocation
and the serialized size, and derives the empirical MVP
``(size in bits) * RMSE**2`` from each (Eq. (1)). Python object graphs are
not comparable with JVM heaps, so the library models in-memory size as
payload + declared auxiliary fields + a fixed object overhead (README
"Substitutions and size modelling"); serialized sizes are exact byte
counts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SizeReport:
    """Sizes of one sketch instance, in bytes."""

    memory_bytes: float
    serialized_bytes: float

    @staticmethod
    def of(sketch) -> "SizeReport":
        return SizeReport(
            memory_bytes=float(sketch.memory_bytes),
            serialized_bytes=float(len(sketch.to_bytes())),
        )


def empirical_mvp(rmse: float, size_bytes: float) -> float:
    """Eq. (1) with the size measured in bits."""
    return (size_bytes * 8.0) * rmse * rmse
