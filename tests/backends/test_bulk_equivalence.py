"""The BulkBackend contract: bulk state == sequential state, bit for bit.

Every sketch with a vectorised ``add_hashes`` must produce a state whose
``to_bytes()`` serialization is identical to the one the sequential
``add_hash`` loop produces — across random seeds, duplicate-heavy
streams, chunked ingestion, scalar/bulk interleaving, and (for the
sparse sketch) the sparse→dense transition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cpc import CpcSketch
from repro.baselines.exact import ExactCounter
from repro.baselines.hyperloglog import HyperLogLog, MartingaleHyperLogLog
from repro.baselines.pcsa import PCSA
from repro.baselines.spikesketch import SpikeSketch
from repro.baselines.ultraloglog import ExtendedHyperLogLog, UltraLogLog
from repro.backends import (
    exaloglog_registers,
    merge_exaloglog_registers,
    supports_bulk,
    token_hashes,
    tokenize_hashes,
)
from repro.backends.bulk import _SMALL_BATCH
from repro.core.exaloglog import ExaLogLog
from repro.core.martingale import MartingaleExaLogLog
from repro.core.sparse import SparseExaLogLog
from repro.core.token import hash_to_token, token_to_hash
from tests.conftest import SMALL_PARAMS

FACTORIES = [
    ("ELL(2,20,8)", lambda: ExaLogLog(2, 20, 8)),
    ("ELL(0,0,4)", lambda: ExaLogLog(0, 0, 4)),
    ("ELL(1,9,6)", lambda: ExaLogLog(1, 9, 6)),
    ("ELL(3,5,4)", lambda: ExaLogLog(3, 5, 4)),
    ("SparseELL(2,20,8)", lambda: SparseExaLogLog(2, 20, 8)),
    ("SparseELL(2,20,6,v=10)", lambda: SparseExaLogLog(2, 20, 6, v=10)),
    ("ULL(p=8)", lambda: UltraLogLog(8)),
    ("EHLL(p=6)", lambda: ExtendedHyperLogLog(6)),
    ("MartingaleELL(2,20,6)", lambda: MartingaleExaLogLog(2, 20, 6)),
    ("HLL(p=8)", lambda: HyperLogLog(8)),
    ("MartingaleHLL(p=6)", lambda: MartingaleHyperLogLog(6)),
    ("PCSA(p=6)", lambda: PCSA(6)),
    ("SpikeSketch(64)", lambda: SpikeSketch(64)),
    ("CPC(p=8)", lambda: CpcSketch(8)),
    ("Exact", lambda: ExactCounter()),
]


def random_stream(seed: int, count: int, pool: int | None = None) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    if pool is None:
        return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)
    values = rng.integers(0, 1 << 64, size=pool, dtype=np.uint64)
    return rng.choice(values, size=count)


def sequential(factory, hashes: np.ndarray):
    sketch = factory()
    for hash_value in hashes.tolist():
        sketch.add_hash(hash_value)
    return sketch


@pytest.mark.parametrize("name,factory", FACTORIES, ids=[n for n, _ in FACTORIES])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bulk_matches_sequential(name, factory, seed):
    hashes = random_stream(seed, 4000)
    bulk = factory().add_hashes(hashes)
    assert bulk.to_bytes() == sequential(factory, hashes).to_bytes()


@pytest.mark.parametrize("name,factory", FACTORIES, ids=[n for n, _ in FACTORIES])
def test_bulk_matches_sequential_duplicate_heavy(name, factory):
    hashes = random_stream(7, 4000, pool=150)
    bulk = factory().add_hashes(hashes)
    assert bulk.to_bytes() == sequential(factory, hashes).to_bytes()


@pytest.mark.parametrize("name,factory", FACTORIES, ids=[n for n, _ in FACTORIES])
def test_chunked_and_interleaved_ingestion(name, factory):
    hashes = random_stream(9, 3000)
    chunked = factory()
    for part in np.array_split(hashes, 7):
        chunked.add_hashes(part)
    mixed = factory()
    mixed.add_hashes(hashes[:1000])
    for hash_value in hashes[1000:2000].tolist():
        mixed.add_hash(hash_value)
    mixed.add_hashes(hashes[2000:])
    expected = sequential(factory, hashes).to_bytes()
    assert chunked.to_bytes() == expected
    assert mixed.to_bytes() == expected


@pytest.mark.parametrize("name,factory", FACTORIES, ids=[n for n, _ in FACTORIES])
def test_empty_batch_is_identity(name, factory):
    sketch = factory().add_hashes(random_stream(4, 100))
    before = sketch.to_bytes()
    sketch.add_hashes(np.empty(0, dtype=np.uint64))
    sketch.add_hashes([])
    assert sketch.to_bytes() == before
    assert supports_bulk(sketch)


@pytest.mark.parametrize("params", SMALL_PARAMS, ids=str)
def test_exaloglog_all_structural_regimes(params):
    hashes = random_stream(11, 3000)
    factory = lambda: ExaLogLog.from_params(params)
    assert factory().add_hashes(hashes).to_bytes() == sequential(factory, hashes).to_bytes()


def test_bulk_accepts_plain_iterables_and_int64_views():
    hashes = random_stream(5, 500)
    expected = sequential(lambda: ExaLogLog(2, 20, 6), hashes).to_bytes()
    as_list = ExaLogLog(2, 20, 6).add_hashes(hashes.tolist())
    as_signed = ExaLogLog(2, 20, 6).add_hashes(hashes.view(np.int64))
    assert as_list.to_bytes() == expected
    assert as_signed.to_bytes() == expected


class TestSparseDenseTransition:
    """The break-even crossing must be bulk-exact in every split."""

    def break_even(self) -> int:
        return SparseExaLogLog(2, 20, 8).break_even_tokens

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2, 50])
    def test_crossing_in_one_batch(self, offset):
        count = self.break_even() + offset
        hashes = random_stream(20 + offset, count)
        factory = lambda: SparseExaLogLog(2, 20, 8)
        bulk = factory().add_hashes(hashes)
        seq = sequential(factory, hashes)
        assert bulk.is_sparse == seq.is_sparse
        assert bulk.to_bytes() == seq.to_bytes()

    @pytest.mark.parametrize("split", [1, 100, 223, 224, 225, 400])
    def test_crossing_between_batches(self, split):
        hashes = random_stream(31, 600)
        factory = lambda: SparseExaLogLog(2, 20, 8)
        bulk = factory()
        bulk.add_hashes(hashes[:split])
        bulk.add_hashes(hashes[split:])
        seq = sequential(factory, hashes)
        assert bulk.is_sparse == seq.is_sparse
        assert bulk.to_bytes() == seq.to_bytes()

    def test_huge_duplicate_heavy_batches(self):
        factory = lambda: SparseExaLogLog(2, 20, 8)
        for pool, seed in ((200, 40), (260, 41)):
            hashes = random_stream(seed, 50_000, pool=pool)
            bulk = factory().add_hashes(hashes)
            seq = sequential(factory, hashes)
            assert bulk.is_sparse == seq.is_sparse
            assert bulk.to_bytes() == seq.to_bytes()

    def test_bulk_after_dense(self):
        factory = lambda: SparseExaLogLog(2, 20, 8)
        hashes = random_stream(50, 2000)
        bulk = factory().add_hashes(hashes[:1500])
        assert not bulk.is_sparse
        bulk.add_hashes(hashes[1500:])
        assert bulk.to_bytes() == sequential(factory, hashes).to_bytes()


class TestMartingaleBulk:
    """Order-dependent estimators must keep their exact estimate sequence."""

    def test_martingale_exaloglog_estimate_preserved(self):
        hashes = random_stream(60, 2000)
        seq = sequential(lambda: MartingaleExaLogLog(2, 20, 6), hashes)
        bulk = MartingaleExaLogLog(2, 20, 6).add_hashes(hashes)
        assert bulk.martingale_estimate == seq.martingale_estimate
        assert bulk.mu == seq.mu

    def test_martingale_hyperloglog_estimate_preserved(self):
        hashes = random_stream(61, 2000)
        seq = sequential(lambda: MartingaleHyperLogLog(6), hashes)
        bulk = MartingaleHyperLogLog(6).add_hashes(hashes)
        assert bulk.estimate() == seq.estimate()
        assert bulk.mu == seq.mu


def test_signed_arrays_on_scalar_fallback_paths():
    """Scalar-loop fallbacks must canonicalize like as_hash_array does."""
    signed = np.array([-1, -12345, 7], dtype=np.int64)
    unsigned = signed.view(np.uint64)
    for factory in (
        lambda: MartingaleExaLogLog(2, 20, 8),
        lambda: MartingaleHyperLogLog(6),
        lambda: ExaLogLog(0, 60, 4),  # register_bits > 63: scalar fallback
    ):
        assert (
            factory().add_hashes(signed).to_bytes()
            == factory().add_hashes(unsigned).to_bytes()
        )


def test_exact_counter_mixed_scalar_bulk_canonicalizes():
    counter = ExactCounter()
    counter.add_hash(-1)
    counter.add_hashes(np.array([-1], dtype=np.int64))
    counter.add_hashes(np.array([(1 << 64) - 1], dtype=np.uint64))
    assert counter.estimate() == 1.0


class TestSmallBatchCrossover:
    """Batches on both sides of the scalar/vectorised crossover agree.

    ``add_hashes`` no longer reaches the NumPy fold below the crossover,
    so every case is also checked against a direct call of the fold
    (``exaloglog_registers`` + ``merge_exaloglog_registers``), which keeps
    the fold itself tested at tiny sizes.
    """

    C = _SMALL_BATCH
    SIZES = (0, 1, 2, C - 1, C, C + 1, 4 * C)

    @staticmethod
    def dense_start(state: str, p: int) -> ExaLogLog:
        sketch = ExaLogLog(2, 20, p)
        if state == "populated":
            sketch.add_hashes(random_stream(70 + p, 40 * (1 << p)))
        return sketch

    @staticmethod
    def sparse_start(state: str, p: int) -> SparseExaLogLog:
        sketch = SparseExaLogLog(2, 20, p)
        break_even = sketch.break_even_tokens
        if state == "populated":
            sketch.add_hashes(random_stream(80 + p, break_even // 2))
        elif state == "mid_densify":
            while sketch.token_count < break_even:
                sketch.add_hash(int(random_stream(81 + sketch.token_count, 1)[0]))
        elif state == "over_break_even":
            # Serialization never densifies, so a decoded token set may
            # hold more tokens than break-even.
            sketch._tokens.update(
                hash_to_token(h, sketch.v)
                for h in random_stream(82 + p, break_even + 5).tolist()
            )
            sketch = SparseExaLogLog.from_bytes(sketch.to_bytes())
            assert sketch.is_sparse and sketch.token_count > break_even
        assert sketch.is_sparse
        return sketch

    @staticmethod
    def batch(state: str, start, n: int, p: int) -> np.ndarray:
        if state == "over_break_even":
            # Only duplicates: representative hashes of collected tokens.
            tokens = sorted(start.tokens)
            return np.array(
                [token_to_hash(tokens[i % len(tokens)], start.v) for i in range(n)],
                dtype=np.uint64,
            )
        return random_stream(90 + n + p, n)

    @staticmethod
    def folded(registers, hashes, params) -> ExaLogLog:
        batch = exaloglog_registers(hashes, params)
        merged = merge_exaloglog_registers(list(registers), batch, params.d)
        return ExaLogLog.from_registers(params, merged.tolist())

    @pytest.mark.parametrize("p", [4, 10])
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("state", ["empty", "populated"])
    def test_dense(self, state, n, p):
        start = self.dense_start(state, p)
        hashes = random_stream(90 + n + p, n)
        expected = start.copy()
        for hash_value in hashes.tolist():
            expected.add_hash(hash_value)
        got = start.copy().add_hashes(hashes)
        assert got.to_bytes() == expected.to_bytes()
        assert got.to_bytes() == self.folded(start.registers, hashes, start.params).to_bytes()
        assert np.array_equal(got.registers_array(), expected.registers_array())

    @pytest.mark.parametrize("p", [4, 10])
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize(
        "state", ["empty", "populated", "mid_densify", "over_break_even"]
    )
    def test_sparse(self, state, n, p):
        start = self.sparse_start(state, p)
        hashes = self.batch(state, start, n, p)
        got = SparseExaLogLog.from_bytes(start.to_bytes()).add_hashes(hashes)

        scalar = SparseExaLogLog.from_bytes(start.to_bytes())
        for hash_value in hashes.tolist():
            scalar.add_hash(hash_value)
        assert got.copy().densify().to_bytes() == scalar.copy().densify().to_bytes()

        # The bulk mode rule: the union of the collected and the batch's
        # tokens stays sparse iff it holds at most break-even tokens (an
        # empty batch changes nothing). Vectorised tokens, NumPy fold.
        union = set(start.tokens)
        union.update(tokenize_hashes(hashes, start.v).tolist())
        if n and len(union) > start.break_even_tokens:
            replay = token_hashes(np.array(sorted(start.tokens), dtype=np.int64), start.v)
            dense = self.folded([0] * start.params.m, replay, start.params)
            dense = self.folded(dense.registers, hashes, start.params)
            assert not got.is_sparse
            assert got.densify().to_bytes() == dense.to_bytes()
        else:
            assert got.is_sparse
            assert got.tokens == union
        if state == "over_break_even" and n:
            # Duplicates never densify in the scalar loop; the bulk rule
            # (either side of the crossover) densifies on the union check.
            assert scalar.is_sparse
        else:
            assert got.to_bytes() == scalar.to_bytes()
