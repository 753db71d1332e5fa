"""CPC-style compressed probabilistic counting (Table 2 row "CPC").

Substitution notice (README "Substitutions and size modelling"): Lang's
CPC sketch, as shipped in Apache DataSketches, is a large system (window
offsets, pair tables, custom codes). Per the paper's own Sec. 2.5, CPC stores the same
information as PCSA / ELL(0, 64); what makes it special is that its
*serialized* form is entropy coded while its in-memory form stays an
uncompressed, more-than-twice-larger working state, and serialization is
expensive. This class reproduces exactly those properties:

* in-memory state: a full :class:`~repro.baselines.pcsa.PCSA` bitmap array;
* ``to_bytes``: range-codes the bitmaps under the Poisson per-bit model
  (probabilities derived from a stored ML estimate hint), landing close to
  the Shannon bound — serialized MVP ~2.3-2.5 like the paper reports;
* serialization is measurably slower than every other sketch (Figure 11's
  "more than an order of magnitude" observation).
"""

from __future__ import annotations

from repro.baselines.base import OBJECT_OVERHEAD_BYTES, DistinctCounter
from repro.baselines.pcsa import PCSA
from repro.compression.codec import compress_bitmaps, decompress_bitmaps
from repro.storage.serialization import (
    HEADER_SIZE,
    SerializationError,
    TAG_CPC,
    read_header,
    read_uvarint,
    write_header,
    write_uvarint,
)


class CpcSketch(DistinctCounter):
    """PCSA state with entropy-coded serialization (CPC surrogate)."""

    __slots__ = ("_pcsa",)

    constant_time_insert = False  # bulked/compressed designs; Table 2 column

    def __init__(self, p: int = 10) -> None:
        self._pcsa = PCSA(p)

    @property
    def p(self) -> int:
        return self._pcsa.p

    @property
    def m(self) -> int:
        return self._pcsa.m

    @property
    def pcsa(self) -> PCSA:
        """The underlying uncompressed working state."""
        return self._pcsa

    def __repr__(self) -> str:
        return f"CpcSketch(p={self.p})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CpcSketch):
            return NotImplemented
        return self._pcsa == other._pcsa

    def add_hash(self, hash_value: int) -> bool:
        return self._pcsa.add_hash(hash_value)

    def add_hashes(self, hashes) -> "CpcSketch":
        """Bulk insert, delegated to the underlying PCSA working state."""
        self._pcsa.add_hashes(hashes)
        return self

    def estimate(self) -> float:
        return self._pcsa.estimate_ml()

    def merge_inplace(self, other: DistinctCounter) -> "CpcSketch":
        if not isinstance(other, CpcSketch):
            raise TypeError(f"cannot merge CpcSketch with {type(other).__name__}")
        self._pcsa.merge_inplace(other._pcsa)
        return self

    def copy(self) -> "CpcSketch":
        clone = CpcSketch(self.p)
        clone._pcsa = self._pcsa.copy()
        return clone

    @property
    def memory_bytes(self) -> int:
        # CPC's working state is a windowed bitmap slice plus surprise
        # lists — uncompressed and random-access, about twice the
        # entropy-coded serialized size (Table 2: 1416 vs 656 at p=10).
        # A 10-bit window reproduces the DataSketches footprint.
        return OBJECT_OVERHEAD_BYTES + self._pcsa.windowed_memory_bytes(window=10)

    def to_bytes(self) -> bytes:
        """Entropy-coded serialization (the expensive step, cf. Figure 11)."""
        n_hint = self._pcsa.estimate_ml()
        level_probs = [
            self._pcsa.level_probability(level) for level in range(self._pcsa.levels)
        ]
        compressed = compress_bitmaps(self._pcsa.bitmaps, level_probs, n_hint)
        buffer = write_header(TAG_CPC)
        buffer.append(self.p)
        write_uvarint(buffer, len(compressed))
        buffer.extend(compressed)
        return bytes(buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CpcSketch":
        offset = read_header(data, TAG_CPC)
        if len(data) < offset + 1:
            raise SerializationError("truncated CpcSketch parameters")
        p = data[offset]
        length, position = read_uvarint(data, offset + 1)
        compressed = bytes(data[position : position + length])
        if len(compressed) != length:
            raise SerializationError("truncated CpcSketch payload")
        sketch = cls(p)
        level_probs = [
            sketch._pcsa.level_probability(level) for level in range(sketch._pcsa.levels)
        ]
        bitmaps = decompress_bitmaps(compressed, sketch.m, level_probs)
        sketch._pcsa._bitmaps = bitmaps
        return sketch
