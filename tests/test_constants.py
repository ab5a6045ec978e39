import math

import numpy as np
import pytest

from sectlab.constants import (gamma_within_bounds, growth_ratio, log_ball_volume,
                               log_bp_constant, log_gamma_nk)


class TestBallVolume:
    def test_known_values(self):
        assert math.exp(log_ball_volume(1)) == pytest.approx(2.0, rel=1e-12)
        assert math.exp(log_ball_volume(2)) == pytest.approx(math.pi, rel=1e-12)
        # omega_4 = pi^2/2 via Gamma(3) = 2
        assert math.exp(log_ball_volume(4)) == pytest.approx(math.pi ** 2 / 2, rel=1e-12)
        assert log_ball_volume(4) == pytest.approx(1.5963125911388554, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            log_ball_volume(0)

    def test_recursion(self):
        # omega_n = omega_{n-2} * 2 pi / n
        for n in range(3, 201):
            expected = log_ball_volume(n - 2) + math.log(2 * math.pi / n)
            assert log_ball_volume(n) == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestGamma:
    def test_exact_values(self):
        assert math.exp(log_gamma_nk(2, 1)) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-10)
        assert math.exp(log_gamma_nk(4, 2)) == pytest.approx(1 / math.sqrt(2), rel=1e-10)
        # frozen from the closed form omega_3^(2/3) / omega_2
        assert math.exp(log_gamma_nk(3, 1)) == pytest.approx(0.8271339878658664, rel=1e-12)

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 2), (5, 5), (3, -1)])
    def test_rejects_bad_codim(self, n, k):
        with pytest.raises(ValueError):
            log_gamma_nk(n, k)

    def test_bounds_up_to_200(self):
        # e^(-k/2) < gamma < 1 for every 1 <= k <= n-1, n <= 200
        for n in range(2, 201):
            for k in range(1, n):
                assert gamma_within_bounds(n, k), (n, k)


class TestBpConstant:
    def test_exact_values(self):
        assert math.exp(log_bp_constant(2, 1)) == pytest.approx(math.pi, rel=1e-10)
        assert math.exp(log_bp_constant(3, 2)) == pytest.approx(4 * math.pi, rel=1e-10)
        assert math.exp(log_bp_constant(4, 2)) == pytest.approx(8 * math.pi ** 2, rel=1e-10)

    def test_rejects_bad_subspace_dim(self):
        with pytest.raises(ValueError):
            log_bp_constant(3, 0)
        with pytest.raises(ValueError):
            log_bp_constant(3, 3)

    def test_large_arguments_stay_finite_in_log_domain(self):
        val = log_bp_constant(200, 100)
        assert math.isfinite(val)
        assert val > 700  # far beyond linear double range


class TestGrowthRatio:
    def test_n2_exact(self):
        # gamma_{2,1}^{-2} p(2,1) = (2/sqrt(pi))^2 * pi = 4
        assert growth_ratio(2, 1) == pytest.approx(4.0, rel=1e-10)

    def test_n3_frozen(self):
        # [gamma_{3,1}^{-3} * 4 pi]^(1/2) / sqrt(2), evaluated in log domain
        assert growth_ratio(3, 1) == pytest.approx(3.3321622036187764, rel=1e-10)

    def test_deep_value_in_band(self):
        assert 0.3 <= growth_ratio(60, 30) <= 5.0

    def test_band_up_to_60(self):
        for n in range(2, 61):
            for k in range(1, n):
                r = growth_ratio(n, k)
                assert 0.3 <= r <= 5.0, (n, k, r)


def test_ball_moment_consistency_with_simplex_functional():
    """omega_n^(n-k) = p(n, n-k) omega_{n-k}^n S_k(ball section)^k for n=3, k=1.

    The section functional is S_1 of the unit disc, E|conv(0, x_1, x_2)| / |D|
    with uniform vertices: E r = 2/3 and E|sin| = 2/pi give
    E|conv| = (1/2) (2/3)^2 (2/pi) = 4/(9 pi), so S_1 = 4/(9 pi^2).
    """
    s1_disc = 4 / (9 * math.pi ** 2)
    lhs = math.exp(log_ball_volume(3)) ** 2
    rhs = math.exp(log_bp_constant(3, 2)) * math.exp(log_ball_volume(2)) ** 3 * s1_disc
    assert lhs == pytest.approx(rhs, rel=1e-12)
