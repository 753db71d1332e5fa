"""Common interface for every distinct counter in the library.

Table 2 and Figures 10-11 compare ten algorithms on identical operations
(insert, estimate, serialize, merge). :class:`DistinctCounter` pins down
that operation set plus the two size accounts the paper reports:

``serialized_size_bytes``
    honest byte count of :meth:`to_bytes` output.
``memory_bytes``
    modelled in-memory footprint (payload + declared auxiliary fields +
    :data:`OBJECT_OVERHEAD_BYTES`); README "Substitutions and size
    modelling" says why Java heap sizes are modelled rather than measured.
"""

from __future__ import annotations

import abc
from typing import Any, Iterable

from repro.hashing import hash64

#: Fixed overhead standing in for an object header + array header, applied
#: uniformly to every sketch when modelling in-memory size.
OBJECT_OVERHEAD_BYTES = 16


class DistinctCounter(abc.ABC):
    """Abstract base class for approximate distinct counters."""

    #: Whether the insert operation runs in constant time regardless of the
    #: sketch size (the last column of Table 2).
    constant_time_insert: bool = True

    #: Whether the structure supports merging partial results.
    supports_merge: bool = True

    def add(self, item: Any, seed: int = 0) -> "DistinctCounter":
        """Insert an element (hashed with Murmur3); returns ``self``."""
        self.add_hash(hash64(item, seed))
        return self

    def add_all(self, items: Iterable[Any], seed: int = 0) -> "DistinctCounter":
        """Insert every element of an iterable; returns ``self``.

        Routed through the bulk path: NumPy integer/float arrays are
        hashed vectorised, everything else element-wise, and the hashes
        are ingested through :meth:`add_hashes`.
        """
        return self.add_batch(items, seed)

    def add_batch(self, items: Iterable[Any], seed: int = 0) -> "DistinctCounter":
        """Hash a batch of items (vectorised when possible) and ingest it."""
        from repro.hashing.batch import hash_items

        return self.add_hashes(hash_items(items, seed))

    def add_hashes(self, hashes) -> "DistinctCounter":
        """Insert a batch of 64-bit hashes (ndarray or iterable of ints).

        The resulting state is bit-identical to the sequential
        :meth:`add_hash` loop (the :class:`repro.backends.BulkBackend`
        contract). This default *is* the scalar loop; sketches with a
        vectorised backend override it.
        """
        from repro.backends.protocol import scalar_add_hashes

        return scalar_add_hashes(self, hashes)

    @abc.abstractmethod
    def add_hash(self, hash_value: int) -> bool:
        """Insert a 64-bit hash; returns True when the state changed."""

    @abc.abstractmethod
    def estimate(self) -> float:
        """Distinct-count estimate."""

    @abc.abstractmethod
    def merge_inplace(self, other: "DistinctCounter") -> "DistinctCounter":
        """Merge another counter of identical configuration into this one."""

    @abc.abstractmethod
    def to_bytes(self) -> bytes:
        """Serialize the counter."""

    @property
    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Modelled in-memory footprint (see module docstring)."""

    @property
    def serialized_size_bytes(self) -> int:
        """Size of :meth:`to_bytes` output (default: measure it)."""
        return len(self.to_bytes())

    def merge(self, other: "DistinctCounter") -> "DistinctCounter":
        """Out-of-place merge."""
        result = self.copy()
        result.merge_inplace(other)
        return result

    @abc.abstractmethod
    def copy(self) -> "DistinctCounter":
        """Deep copy."""
