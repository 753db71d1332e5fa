"""Memory-variance products and related constants (paper Sec. 2.1, 2.4).

The memory-variance product (MVP, Eq. (1)) is

    MVP = Var(n_hat / n) * (storage size in bits),

an asymptotic constant per data structure that removes the generic
``1/sqrt(bits)`` error scaling and so allows fair space-efficiency
comparison. This module implements the paper's four theoretical MVPs:

=========  ===========================  ==========================
Equation   storage model                estimator
=========  ===========================  ==========================
Eq. (3)    dense bit array              efficient unbiased (ML)
Eq. (6)    dense bit array              martingale
Eq. (5)    optimally compressed         efficient unbiased (ML)
Eq. (7)    optimally compressed         martingale
=========  ===========================  ==========================

plus the bias-correction constant ``c`` of Eq. (4) and the theoretical
relative RMSE used throughout Figure 8. Everything is parameterised by
``(t, d)`` through ``b = 2**(2**-t)`` and ``q = 6 + t``.

Reference values (Sec. 2.4, all reproduced by the test suite):
HLL 6.45, EHLL 5.43, ULL 4.63, ELL(2,20) 3.67, ELL(2,24) 3.78,
ELL(1,9) 3.90, martingale ELL(2,16) 2.77.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.theory.fisher import compressed_integral
from repro.theory.zeta import hurwitz_zeta

#: Conjectured lower bound for mergeable+reproducible sketches [Pettie-Wang].
CONJECTURED_LOWER_BOUND = 1.98

#: Theoretical limit for the compressed martingale MVP Eq. (7).
MARTINGALE_COMPRESSED_LIMIT = 1.63


def base_from_t(t: int) -> float:
    """The geometric base ``b = 2**(2**-t)`` the ELL distribution mimics."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return 2.0 ** (2.0 ** -t)


def _zeta_argument(b: float, d: int) -> float:
    """``1 + b**-d / (b - 1)``, the recurring Hurwitz-zeta offset."""
    return 1.0 + b ** (-d) / (b - 1.0)


def register_bits(t: int, d: int) -> int:
    """Dense register width ``q + d = 6 + t + d``."""
    return 6 + t + d


def mvp_ml_dense(t: int, d: int) -> float:
    """Eq. (3): MVP for dense storage and an efficient unbiased estimator.

    >>> round(mvp_ml_dense(0, 0), 2)   # HyperLogLog
    6.45
    >>> round(mvp_ml_dense(2, 20), 2)  # the paper's headline configuration
    3.67
    """
    b = base_from_t(t)
    return register_bits(t, d) * math.log(b) / hurwitz_zeta(2.0, _zeta_argument(b, d))


def mvp_martingale_dense(t: int, d: int) -> float:
    """Eq. (6): MVP for dense storage and the martingale estimator.

    >>> round(mvp_martingale_dense(2, 16), 2)
    2.77
    """
    b = base_from_t(t)
    return register_bits(t, d) * math.log(b) / 2.0 * _zeta_argument(b, d)


def mvp_ml_compressed(t: int, d: int) -> float:
    """Eq. (5): MVP for optimally compressed state, efficient estimator."""
    b = base_from_t(t)
    a = b ** (-d) / (b - 1.0)
    numerator = 1.0 / (1.0 + a) + compressed_integral(a)
    return numerator / (hurwitz_zeta(2.0, 1.0 + a) * math.log(2.0))


def mvp_martingale_compressed(t: int, d: int) -> float:
    """Eq. (7): MVP for optimally compressed state, martingale estimator."""
    b = base_from_t(t)
    a = b ** (-d) / (b - 1.0)
    return (1.0 + (1.0 + a) * compressed_integral(a)) / (2.0 * math.log(2.0))


@lru_cache(maxsize=1024)
def bias_correction_constant(t: int, d: int) -> float:
    """The constant ``c`` of the first-order bias correction Eq. (4).

    ``c = ln(b) (1 + 2 b**-d/(b-1)) zeta(3, y) / zeta(2, y)**2`` with
    ``y = 1 + b**-d/(b-1)``.

    This is the derivation behind ``_BIAS_CONSTANT`` in
    ``repro.core.mlestimation``, which the estimators read instead so that
    they never import scipy; ``tests/theory/test_mvp.py`` checks every
    table entry ``==`` this function. After changing the formula, ``MAX_T``
    or ``MAX_D_BITS``, regenerate the table with

        PYTHONPATH=src python -c "from repro.core.params import MAX_D_BITS, MAX_T; from repro.theory.mvp import bias_correction_constant as c; print(tuple(tuple(c(t, d) for d in range(MAX_D_BITS + 1)) for t in range(MAX_T + 1)))"

    and paste its output over the literal.
    """
    b = base_from_t(t)
    a = b ** (-d) / (b - 1.0)
    y = 1.0 + a
    return (
        math.log(b)
        * (1.0 + 2.0 * a)
        * hurwitz_zeta(3.0, y)
        / hurwitz_zeta(2.0, y) ** 2
    )


def theoretical_relative_rmse(t: int, d: int, p: int, martingale: bool = False) -> float:
    """The Figure 8 reference line: ``sqrt(MVP / ((q + d) m))``."""
    mvp = mvp_martingale_dense(t, d) if martingale else mvp_ml_dense(t, d)
    m = 1 << p
    return math.sqrt(mvp / (register_bits(t, d) * m))


def memory_for_error(mvp: float, relative_error: float) -> float:
    """Figure 1: memory (bits) needed for a target relative standard error.

    From Eq. (1): ``bits = MVP / error**2``.
    """
    if relative_error <= 0.0:
        raise ValueError("relative error must be positive")
    return mvp / relative_error**2


# -- named reference points (Sec. 2.4 / Sec. 2.5) -----------------------------


def mvp_hll() -> float:
    """HyperLogLog with 6-bit registers: ELL(0, 0)."""
    return mvp_ml_dense(0, 0)


def mvp_ehll() -> float:
    """ExtendedHyperLogLog: ELL(0, 1)."""
    return mvp_ml_dense(0, 1)


def mvp_ull() -> float:
    """UltraLogLog: ELL(0, 2)."""
    return mvp_ml_dense(0, 2)


def optimal_d(t: int, mvp_function=mvp_ml_dense, d_max: int = 64) -> tuple[int, float]:
    """Search the ``d`` minimising an MVP formula for fixed ``t`` (Figures 4-7)."""
    best_d = 0
    best_value = math.inf
    for d in range(d_max + 1):
        value = mvp_function(t, d)
        if value < best_value:
            best_value = value
            best_d = d
    return best_d, best_value


def savings_vs_hll(mvp: float) -> float:
    """Relative MVP saving against 6-bit HLL (the paper's headline metric)."""
    return 1.0 - mvp / mvp_hll()
