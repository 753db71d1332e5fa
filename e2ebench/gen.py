"""Seeded input generator: Zipf-popular string groups with integer items.

Everything the program under test receives is built here from
``--seed`` alone, so the same seed gives byte-identical inputs. The
program sees only the generated arrays (a NumPy string array of group
keys and an int64 item array per batch); the exact distinct counts the
checker compares estimates against come from the same generator and
never from the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Batches:
    """One workload's input: ``(groups, items)`` batches plus the truth."""

    keys: np.ndarray
    """Every key the generator can emit, most popular first."""

    batches: list
    """``(groups, items)`` pairs: a ``<U`` string array and an int64 array."""

    def exact_counts(self, upto: "int | None" = None) -> "dict[str, int]":
        """Exact distinct items per group over the first ``upto`` batches."""
        chosen = self.batches if upto is None else self.batches[:upto]
        if not chosen:
            return {}
        groups = np.concatenate([g for g, _ in chosen])
        items = np.concatenate([i for _, i in chosen])
        names, codes = np.unique(groups, return_inverse=True)
        pairs = np.unique(codes.astype(np.int64) << 40 | items)
        counts = np.bincount(pairs >> 40, minlength=len(names))
        return {str(name): int(count) for name, count in zip(names, counts) if count}


def zipf_weights(count: int, exponent: float) -> np.ndarray:
    """Normalised popularity ``1 / rank**exponent`` over ``count`` ranks."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def key_names(rng: np.random.Generator, prefix: str, count: int) -> np.ndarray:
    """``count`` distinct keys; which name gets which rank depends on the seed."""
    return np.array([f"{prefix}{index:06d}" for index in rng.permutation(count)])


def zipf_batches(
    seed: int,
    prefix: str,
    groups: int,
    exponent: float,
    batch_sizes: "list[int]",
    universe: int,
) -> Batches:
    """Batches of ``(group, item)`` pairs with Zipf group popularity.

    Items are drawn uniformly from ``[0, universe)`` (shared by every
    group), so a group's distinct count is below its item count once it
    is popular enough to repeat items.
    """
    rng = np.random.default_rng([seed, groups, len(batch_sizes)])
    keys = key_names(rng, prefix, groups)
    weights = zipf_weights(groups, exponent)
    batches = []
    for size in batch_sizes:
        codes = rng.choice(groups, size=size, p=weights)
        items = rng.integers(0, universe, size=size, dtype=np.int64)
        batches.append((keys[codes], items))
    return Batches(keys=keys, batches=batches)


def dense_store_batches(
    seed: int, groups: int, base_items: int, extra_items: int, batch_size: int
) -> Batches:
    """Batches that leave every one of ``groups`` groups dense.

    Each group gets ``base_items`` distinct items (past the sparse
    break-even at p=10) plus a Zipf-weighted share of ``extra_items``;
    the pairs are shuffled into batches of ``batch_size``.
    """
    rng = np.random.default_rng([seed, groups, base_items])
    keys = key_names(rng, "r", groups)
    extra = rng.choice(groups, size=extra_items, p=zipf_weights(groups, 1.0))
    codes = np.concatenate([np.repeat(np.arange(groups), base_items), extra])
    rng.shuffle(codes)
    # Distinct items: the running position, offset per seed (kept below
    # 2**40, which exact_counts packs next to the group code).
    items = np.arange(len(codes), dtype=np.int64) + (seed % 1000) * 1_000_000_000
    batches = [
        (keys[codes[start : start + batch_size]], items[start : start + batch_size])
        for start in range(0, len(codes), batch_size)
    ]
    return Batches(keys=keys, batches=batches)


def zipf_choice(seed: int, keys: np.ndarray, count: int, exponent: float = 1.0) -> list:
    """``count`` keys drawn Zipf by their position in ``keys``."""
    rng = np.random.default_rng([seed, len(keys), count, 7])
    picks = rng.choice(len(keys), size=count, p=zipf_weights(len(keys), exponent))
    return [str(keys[index]) for index in picks]
