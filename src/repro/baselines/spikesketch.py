"""SpikeSketch behavioural model (Du et al., INFOCOM 2023; Table 2 row).

Substitution notice (README "Substitutions and size modelling"): the
SpikeSketch reference implementation is C++-only and, per the paper's
footnotes, not usable for space measurements ("empirical values are
meaningless as the reference implementation is not optimized"); the
paper itself uses register-array lower bounds. This model implements
the documented externals the paper's evaluation interacts with:

* geometrically distributed update values with success probability 3/4
  (base-4 levels), per Sec. 1.1;
* 64-bit buckets (8 bytes each; the default 128 buckets = 1024 bytes,
  Table 2's lower-bound size) holding a lossy encoding — modelled as 8
  sub-registers of 8 bits (5-bit base-4 maximum + 3 indicator bits);
* stepwise smoothing that reduces the update probability of an *empty*
  sketch to 36 % — reproduced by deterministic hash-based thinning with
  acceptance 0.64 and inverse-probability rescaling of the estimate. This
  yields the paper's low-n pathology: at ``n = 1`` the estimate is 0 with
  probability 0.36, i.e. 100 % error (Sec. 5.2 and the Figure 10 MVP
  blow-up below ``n ~ 10**4``).

The model is *not* bit-compatible with real SpikeSketch; like the paper,
we could not confirm the claimed MVP of 4.08 — our model lands higher,
which EXPERIMENTS.md records.
"""

from __future__ import annotations

import math

from repro.baselines.base import OBJECT_OVERHEAD_BYTES, DistinctCounter
from repro.core.register import update as update_register
from repro.hashing.splitmix64 import splitmix64_mix
from repro.storage.packed import PackedArray
from repro.storage.serialization import (
    SerializationError,
    TAG_SPIKESKETCH,
    read_header,
    write_header,
)
from scipy.optimize import brentq

#: Deterministic thinning acceptance (the documented smoothing factor).
ACCEPTANCE = 0.64

_SUB_REGISTERS_PER_BUCKET = 8
_D = 3  # indicator bits per sub-register
_Q = 5  # bits for the base-4 maximum level


class SpikeSketch(DistinctCounter):
    """Behavioural SpikeSketch model: base-4 levels, lossy 8-bit cells."""

    __slots__ = ("_buckets", "_m", "_registers")

    constant_time_insert = True
    supports_merge = True  # the design merges; the C++ reference did not

    def __init__(self, buckets: int = 128) -> None:
        if buckets < 2 or buckets & (buckets - 1):
            raise ValueError(f"bucket count must be a power of two >= 2, got {buckets}")
        self._buckets = buckets
        self._m = buckets * _SUB_REGISTERS_PER_BUCKET
        self._registers = [0] * self._m

    @property
    def buckets(self) -> int:
        return self._buckets

    @property
    def m(self) -> int:
        """Number of virtual sub-registers."""
        return self._m

    @property
    def max_level(self) -> int:
        """Largest storable base-4 level (5-bit field)."""
        return (1 << _Q) - 1

    def __repr__(self) -> str:
        return f"SpikeSketch(buckets={self._buckets})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpikeSketch):
            return NotImplemented
        return self._buckets == other._buckets and self._registers == other._registers

    # -- update-value model ------------------------------------------------------

    def level_probability(self, k: int) -> float:
        """P(update value == k): ``3/4 * 4**-(k-1)``, tail-absorbing cap."""
        cap = self.max_level
        if k < 1 or k > cap:
            return 0.0
        if k == cap:
            return 4.0 ** -(cap - 1)
        return 0.75 * 4.0 ** -(k - 1)

    def tail_probability(self, u: int) -> float:
        """P(update value > u) = ``4**-u`` below the cap, else 0."""
        if u >= self.max_level:
            return 0.0
        return 4.0 ** -u

    def _classify(self, hash_value: int) -> tuple[int, int] | None:
        """Thinning + (sub-register index, base-4 level); None if dropped."""
        mixed = splitmix64_mix(hash_value)
        if (mixed >> 40) / float(1 << 24) >= ACCEPTANCE:
            return None
        index = mixed & (self._m - 1)
        remaining = mixed >> (self._m.bit_length() - 1)
        # Count leading zero base-4 digits of a 48-digit stream.
        level = 1
        cap = self.max_level
        for _ in range(48):
            digit = remaining & 3
            remaining >>= 2
            if digit != 0 or level >= cap:
                break
            level += 1
        return index, level

    # -- operations ------------------------------------------------------------------

    def add_hash(self, hash_value: int) -> bool:
        classified = self._classify(hash_value)
        if classified is None:
            return False
        index, level = classified
        old = self._registers[index]
        new = update_register(old, level, _D)
        if new == old:
            return False
        self._registers[index] = new
        return True

    def add_hashes(self, hashes) -> "SpikeSketch":
        """Bulk insert: vectorised thinning/classification, then replay the
        surviving unique (index, level) pairs (idempotent, so exact)."""
        from repro.backends import as_hash_array, spikesketch_pairs

        registers = self._registers
        for index, level in spikesketch_pairs(as_hash_array(hashes), self._buckets):
            registers[index] = update_register(registers[index], level, _D)
        return self

    def estimate(self) -> float:
        """ML estimate over the base-4 register model, rescaled by 1/0.64.

        The base-4 probabilities are not powers of two, so Algorithm 8 does
        not apply; the derivative of the log-likelihood is solved with a
        bracketing root finder instead.
        """
        m = self._m
        alpha = 0.0
        beta: dict[int, int] = {}
        for r in self._registers:
            u = r >> _D
            alpha += self.tail_probability(u)
            if u >= 1:
                beta[u] = beta.get(u, 0) + 1
                for k in range(max(1, u - _D), u):
                    if (r >> (_D - u + k)) & 1:
                        beta[k] = beta.get(k, 0) + 1
                    else:
                        alpha += self.level_probability(k)
        if not beta:
            return 0.0
        terms = [(self.level_probability(k), count) for k, count in beta.items()]

        def derivative(n: float) -> float:
            total = -alpha / m
            for rho, count in terms:
                total += count * (rho / m) / math.expm1(n * rho / m)
            return total

        low, high = 1e-9, 4.0 * m
        while derivative(high) > 0.0 and high < 1e30:
            high *= 4.0
        root = brentq(derivative, low, high, xtol=1e-9, rtol=1e-12)
        return root / ACCEPTANCE

    def merge_inplace(self, other: DistinctCounter) -> "SpikeSketch":
        if not isinstance(other, SpikeSketch) or other._buckets != self._buckets:
            raise ValueError(f"cannot merge {self!r} with {other!r}")
        from repro.core.register import merge as merge_register

        registers = self._registers
        for i, r2 in enumerate(other._registers):
            if r2:
                registers[i] = merge_register(registers[i], r2, _D)
        return self

    def copy(self) -> "SpikeSketch":
        clone = SpikeSketch(self._buckets)
        clone._registers = list(self._registers)
        return clone

    # -- sizes and serialization -----------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        return OBJECT_OVERHEAD_BYTES + self._buckets * 8

    def to_bytes(self) -> bytes:
        buffer = write_header(TAG_SPIKESKETCH)
        buffer.extend(self._buckets.to_bytes(4, "little"))
        packed = PackedArray.from_values(_Q + _D, self._registers)
        buffer.extend(packed.to_bytes())
        return bytes(buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SpikeSketch":
        offset = read_header(data, TAG_SPIKESKETCH)
        if len(data) < offset + 4:
            raise SerializationError("truncated SpikeSketch parameters")
        buckets = int.from_bytes(data[offset : offset + 4], "little")
        sketch = cls(buckets)
        payload = data[offset + 4 :]
        expected = sketch._m  # 8 bits per register
        if len(payload) != expected:
            raise SerializationError(
                f"register payload is {len(payload)} bytes, expected {expected}"
            )
        sketch._registers = PackedArray.from_bytes(8, sketch._m, payload).to_list()
        return sketch
