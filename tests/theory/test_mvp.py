"""The MVP formulas against every number quoted in the paper."""

import math

import pytest

from repro.core import mlestimation
from repro.core.params import MAX_D_BITS, MAX_T
from repro.theory.mvp import (
    CONJECTURED_LOWER_BOUND,
    MARTINGALE_COMPRESSED_LIMIT,
    base_from_t,
    bias_correction_constant,
    memory_for_error,
    mvp_ehll,
    mvp_hll,
    mvp_martingale_compressed,
    mvp_martingale_dense,
    mvp_ml_compressed,
    mvp_ml_dense,
    mvp_ull,
    optimal_d,
    savings_vs_hll,
    theoretical_relative_rmse,
)


class TestPaperHeadlines:
    """Every MVP value stated in Sections 1-2.4."""

    def test_hll(self):
        assert mvp_hll() == pytest.approx(6.45, abs=0.01)

    def test_ull_4_63(self):
        assert mvp_ull() == pytest.approx(4.63, abs=0.01)

    def test_ull_28_percent_saving(self):
        assert savings_vs_hll(mvp_ull()) == pytest.approx(0.28, abs=0.01)

    def test_ell_2_20_is_3_67(self):
        assert mvp_ml_dense(2, 20) == pytest.approx(3.67, abs=0.01)

    def test_ell_2_20_43_percent_saving(self):
        assert savings_vs_hll(mvp_ml_dense(2, 20)) == pytest.approx(0.43, abs=0.005)

    def test_ell_2_24_is_3_78(self):
        assert mvp_ml_dense(2, 24) == pytest.approx(3.78, abs=0.01)

    def test_ell_1_9_is_3_90(self):
        assert mvp_ml_dense(1, 9) == pytest.approx(3.90, abs=0.01)

    def test_martingale_ell_2_16_is_2_77(self):
        assert mvp_martingale_dense(2, 16) == pytest.approx(2.77, abs=0.01)

    def test_martingale_33_percent_saving(self):
        saving = 1.0 - mvp_martingale_dense(2, 16) / mvp_martingale_dense(0, 0)
        assert saving == pytest.approx(0.33, abs=0.01)

    def test_ehll_efficient_bound(self):
        """Eq. (3) gives 5.19 for ELL(0,1); the EHLL paper's own estimator
        only reaches 5.43 (16 % below HLL) — we reproduce the formula."""
        assert mvp_ehll() == pytest.approx(5.19, abs=0.01)

    def test_compressed_approaches_conjectured_bound(self):
        """Figure 6: d -> 64 at t=0 approaches the 1.98 FISH bound."""
        assert mvp_ml_compressed(0, 64) == pytest.approx(
            CONJECTURED_LOWER_BOUND, abs=0.01
        )

    def test_compressed_martingale_limit(self):
        """Eq. (7) has the lower bound 1.63."""
        assert mvp_martingale_compressed(0, 48) == pytest.approx(
            MARTINGALE_COMPRESSED_LIMIT, abs=0.01
        )
        for t in range(3):
            for d in range(0, 65, 8):
                assert mvp_martingale_compressed(t, d) >= 1.62


class TestOptima:
    """Sec. 2.4: the minima the arrows in Figures 4-5 point at."""

    def test_figure4_optimum_t2_d20(self):
        best_d, best = optimal_d(2, mvp_ml_dense)
        assert best_d == 20
        assert best == pytest.approx(3.67, abs=0.01)

    def test_figure5_optimum_t2_d16(self):
        best_d, best = optimal_d(2, mvp_martingale_dense)
        assert best_d == 16
        assert best == pytest.approx(2.77, abs=0.01)

    def test_figure4_t0_optimum_is_ull_region(self):
        best_d, _ = optimal_d(0, mvp_ml_dense)
        assert best_d in (2, 3)  # ULL sits at/near the t=0 optimum

    def test_t3_worse_than_t2(self):
        """Sec. 2.4: t >= 3 is not worth the register growth."""
        _, best_t2 = optimal_d(2, mvp_ml_dense)
        _, best_t3 = optimal_d(3, mvp_ml_dense)
        assert best_t3 > best_t2


class TestShapes:
    def test_base_from_t(self):
        assert base_from_t(0) == 4.0 ** 0.5  # 2
        assert base_from_t(1) == pytest.approx(math.sqrt(2.0))
        assert base_from_t(2) == pytest.approx(2.0 ** 0.25)

    def test_memory_for_error_inverse_square(self):
        assert memory_for_error(4.0, 0.02) == pytest.approx(10000.0)
        with pytest.raises(ValueError):
            memory_for_error(4.0, 0.0)

    def test_theoretical_rmse_figure8_values(self):
        """Spot values visible in Figure 8's flat theory lines."""
        # t=2, d=20, p=8: sqrt(3.673/(28*256)) ~ 2.26 %.
        assert theoretical_relative_rmse(2, 20, 8) == pytest.approx(0.0226, abs=0.0005)
        # martingale t=2, d=16, p=8: sqrt(2.766/(24*256)) ~ 2.12 %.
        assert theoretical_relative_rmse(2, 16, 8, martingale=True) == pytest.approx(
            0.0212, abs=0.0005
        )

    def test_rmse_scaling_with_p(self):
        assert theoretical_relative_rmse(2, 20, 6) == pytest.approx(
            2.0 * theoretical_relative_rmse(2, 20, 8), rel=1e-9
        )

    def test_bias_constant_positive(self):
        for t, d in ((0, 0), (0, 2), (1, 9), (2, 16), (2, 20), (2, 24)):
            assert bias_correction_constant(t, d) > 0.0

    def test_bias_constant_table_shape(self):
        """Widening MAX_T or MAX_D_BITS must fail here, not at estimate time."""
        table = mlestimation._BIAS_CONSTANT
        assert len(table) == MAX_T + 1
        assert all(len(row) == MAX_D_BITS + 1 for row in table)

    def test_bias_constant_table_pins_derivation(self):
        """The estimators' table holds exactly the derived floats."""
        for t in range(MAX_T + 1):
            for d in range(MAX_D_BITS + 1):
                assert mlestimation._BIAS_CONSTANT[t][d] == bias_correction_constant(t, d), (t, d)

    def test_dense_mvp_monotone_beyond_optimum(self):
        values = [mvp_ml_dense(2, d) for d in range(20, 64, 4)]
        assert all(b >= a for a, b in zip(values, values[1:]))
