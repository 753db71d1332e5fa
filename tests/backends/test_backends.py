"""Backend internals: vectorised primitives vs their scalar references.

The one ExaLogLog fold is pinned against the scalar ``add_hash`` loop
across register widths (including the t=0 extremes), batch sizes around
the chunk boundary, and duplicate-heavy streams; the no-copy contracts
the hot path relies on (``np.shares_memory`` on chunk views, in-place
clobber of the bit smear, reused estimation workspaces) are pinned too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    BULK_CHUNK,
    exaloglog_registers,
    exaloglog_registers_from_pairs,
    merge_exaloglog_registers,
    split_hashes,
    supports_int64_registers,
    token_hashes,
    tokenize_hashes,
)
from repro.backends.bitops import bit_length_u64
from repro.backends.bulk import _chunks
from repro.core.exaloglog import ExaLogLog
from repro.core.params import ExaLogLogParams, make_params
from repro.core.register import merge as merge_register
from repro.core.register import update as update_register
from repro.core.token import hash_to_token, token_to_hash
from repro.simulation.events import filter_state_changes, simulate_event_schedule
from repro.simulation.replay import bulk_final_registers, replay
from tests.conftest import SMALL_PARAMS


#: Register-geometry extremes plus the named configurations: the widest
#: int64 register (t=0, d=57), the narrowest window (d=1), d=0 (no window
#: bits at all), the ML-optimal ELL(2, 20), and a large-m precision.
PARAM_SETS = [
    (0, 57, 6),
    (0, 1, 4),
    (0, 0, 4),
    (1, 9, 6),
    (2, 16, 8),
    (2, 20, 8),
    (2, 20, 14),
]


def random_hashes(seed: int, count: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def scalar_registers(hashes: np.ndarray, params: ExaLogLogParams) -> list[int]:
    """Registers after the sequential ``add_hash`` loop (the reference)."""
    sketch = ExaLogLog.from_params(params)
    for hash_value in hashes.tolist():
        sketch.add_hash(hash_value)
    return list(sketch.registers)


# -- the one fold vs the scalar loop -------------------------------------------


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
@pytest.mark.parametrize("seed", [1, 2])
def test_fold_matches_scalar_loop(t, d, p, seed):
    params = ExaLogLogParams(t, d, p)
    hashes = random_hashes(seed, 5000)
    assert exaloglog_registers(hashes, params).tolist() == scalar_registers(
        hashes, params
    )


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
def test_pairs_match_scalar_updates(t, d, p):
    params = ExaLogLogParams(t, d, p)
    index, k = split_hashes(random_hashes(3, 4000), params)
    expected = [0] * params.m
    for i, value in zip(index.tolist(), k.tolist()):
        expected[i] = update_register(expected[i], value, d)
    assert exaloglog_registers_from_pairs(index, k, params).tolist() == expected


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
def test_merge_of_unequal_fills_matches_scalar(t, d, p):
    """A full state merged with a sparse one (both shift directions)."""
    params = ExaLogLogParams(t, d, p)
    r1 = exaloglog_registers(random_hashes(5, 2000), params)
    r2 = exaloglog_registers(random_hashes(6, 50), params)
    expected = [merge_register(x, y, d) for x, y in zip(r1.tolist(), r2.tolist())]
    assert merge_exaloglog_registers(r1, r2, d).tolist() == expected


@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_tiny_batches(count):
    params = ExaLogLogParams(2, 20, 8)
    hashes = random_hashes(11, count)
    assert exaloglog_registers(hashes, params).tolist() == scalar_registers(
        hashes, params
    )


def test_fold_crosses_chunk_boundary():
    """A batch one chunk plus a remainder long folds like the scalar loop."""
    params = ExaLogLogParams(1, 9, 4)
    hashes = random_hashes(13, BULK_CHUNK + 1234)
    assert exaloglog_registers(hashes, params).tolist() == scalar_registers(
        hashes, params
    )


def test_duplicate_heavy_stream():
    params = ExaLogLogParams(2, 20, 8)
    rng = np.random.Generator(np.random.PCG64(17))
    pool = rng.integers(0, 1 << 64, size=100, dtype=np.uint64)
    hashes = rng.choice(pool, size=5000)
    assert exaloglog_registers(hashes, params).tolist() == scalar_registers(
        hashes, params
    )


# -- zero-copy and workspace-reuse contracts -----------------------------------


def test_chunks_yield_views():
    """Chunking the fold input never copies the hash batch."""
    hashes = random_hashes(31, BULK_CHUNK + 100)
    for chunk in _chunks(hashes):
        assert np.shares_memory(chunk, hashes)


def test_bit_length_clobber_skips_the_copy():
    """``clobber=True`` smears in place: no defensive copy on the hot path."""
    values = random_hashes(37, 1000)
    owned = values.copy()
    expected = bit_length_u64(values)  # non-clobbering reference
    assert np.array_equal(owned, values)  # default path left input intact
    result = bit_length_u64(owned, clobber=True)
    assert np.array_equal(result, expected)
    assert not np.array_equal(owned, values)  # smear ran in the caller's buffer


def test_batch_workspace_reused_across_calls():
    """``register_coefficients`` reuses its thread-local scratch buffers."""
    from repro.estimation.batch import (
        _WORKSPACE_LOCAL,
        register_coefficients,
        release_batch_workspaces,
    )

    params = ExaLogLogParams(2, 16, 8)
    rng = np.random.Generator(np.random.PCG64(43))
    matrix = np.array(
        [
            ExaLogLog(2, 16, 8)
            .add_hashes(rng.integers(0, 1 << 64, size=1500, dtype=np.uint64))
            .registers
            for _ in range(3)
        ],
        dtype=np.int64,
    )
    release_batch_workspaces()
    first_result = register_coefficients(matrix, params)
    workspace = _WORKSPACE_LOCAL.workspace
    assert workspace is not None
    second_result = register_coefficients(matrix, params)
    assert _WORKSPACE_LOCAL.workspace is workspace  # buffers reused, not realloced
    assert np.shares_memory(workspace.i32, _WORKSPACE_LOCAL.workspace.i32)
    assert np.array_equal(first_result.alpha_scaled, second_result.alpha_scaled)
    assert np.array_equal(first_result.beta, second_result.beta)
    release_batch_workspaces()
    assert _WORKSPACE_LOCAL.workspace is None


# -- other primitives ----------------------------------------------------------


@pytest.mark.parametrize("params", SMALL_PARAMS, ids=str)
def test_merge_matches_scalar_merge(params):
    d = params.d
    rng = np.random.Generator(np.random.PCG64(13))
    # Build two reachable register arrays from real insertions.
    a = exaloglog_registers(random_hashes(1, 2000), params)
    b = exaloglog_registers(random_hashes(2, 2000), params)
    merged = merge_exaloglog_registers(a.tolist(), b, d)
    expected = [merge_register(x, y, d) for x, y in zip(a.tolist(), b.tolist())]
    assert merged.tolist() == expected
    del rng


def test_token_hashes_matches_scalar():
    for v in (6, 10, 26, 58):
        hashes = random_hashes(v, 2000)
        tokens = tokenize_hashes(hashes, v)
        scalar_tokens = [hash_to_token(int(h), v) for h in hashes.tolist()]
        assert tokens.tolist() == scalar_tokens
        reconstructed = token_hashes(tokens, v)
        assert reconstructed.tolist() == [
            token_to_hash(w, v) for w in scalar_tokens
        ]


def test_token_hashes_nlz_zero_wraparound():
    # nlz == 0 exercises the 2**64 ≡ 0 uint64 wrap in the vectorised path.
    v = 26
    hashes = np.array([(1 << 64) - 1, 1 << 63, (1 << 63) | 5], dtype=np.uint64)
    tokens = tokenize_hashes(hashes, v)
    assert token_hashes(tokens, v).tolist() == [
        token_to_hash(hash_to_token(int(h), v), v) for h in hashes.tolist()
    ]


def test_chunked_fold_equals_single_fold():
    params = make_params(2, 20, 6)
    count = BULK_CHUNK + 4321  # force more than one chunk
    hashes = random_hashes(77, count)
    chunked = exaloglog_registers(hashes, params)
    sketch = ExaLogLog.from_params(params)
    for h in hashes[: 10_000].tolist():
        sketch.add_hash(h)
    # Spot-check the head sequentially, then full equality via two layouts.
    partial = exaloglog_registers(hashes[:10_000], params)
    assert partial.tolist() == list(sketch.registers)
    halves = merge_exaloglog_registers(
        exaloglog_registers(hashes[: count // 2], params).tolist(),
        exaloglog_registers(hashes[count // 2 :], params),
        params.d,
    )
    assert chunked.tolist() == halves.tolist()


def test_supports_int64_registers_guard():
    assert supports_int64_registers(make_params(2, 20, 8))
    assert not supports_int64_registers(make_params(0, 60, 4))


def test_wide_register_fallback_is_exact():
    # d large enough that registers exceed 63 bits: scalar fallback path.
    params = make_params(0, 60, 4)
    hashes = random_hashes(3, 500)
    bulk = ExaLogLog.from_params(params).add_hashes(hashes)
    seq = ExaLogLog.from_params(params)
    for h in hashes.tolist():
        seq.add_hash(h)
    assert bulk.to_bytes() == seq.to_bytes()


@pytest.mark.parametrize("params", [make_params(2, 20, 6), make_params(1, 9, 4)], ids=str)
def test_bulk_final_registers_matches_replay(params):
    rng = np.random.Generator(np.random.PCG64(99))
    schedule = simulate_event_schedule(params, 1e8, rng, n_exact=1 << 14)
    filtered = filter_state_changes(schedule, params)
    result = replay(filtered, params, checkpoints=[1e4, 1e6, 1e8])
    assert bulk_final_registers(filtered, params) == result.registers
    # The unfiltered schedule folds to the same final state.
    assert bulk_final_registers(schedule, params) == result.registers


def test_bulk_final_registers_scalar_fallback():
    params = make_params(0, 60, 2)
    rng = np.random.Generator(np.random.PCG64(5))
    schedule = simulate_event_schedule(params, 1e5, rng, n_exact=1 << 10)
    registers = [0] * params.m
    for i, k in zip(schedule.registers.tolist(), schedule.values.tolist()):
        registers[i] = update_register(registers[i], k, params.d)
    assert bulk_final_registers(schedule, params) == registers
