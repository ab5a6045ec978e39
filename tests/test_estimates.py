import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy import special

from sectlab.estimates import (CheckReport, Estimate, equality_report, exact_log_estimate,
                               inequality_report, log_mean_estimate, log_power_product)


def _linear(value, se, n=100):
    """The estimate of a linear mean ``value`` with std error ``se``."""
    return Estimate.of_mean(value, se, n)


def _exact(value):
    return exact_log_estimate(math.log(value))


class TestMeanEstimates:
    def test_plain_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        est = Estimate.of_mean(x.mean(), x.std(ddof=1) / 2, x.size)
        assert est.value == pytest.approx(math.log(2.5))
        assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2 / 2.5)
        assert est.n_samples == 4

    def test_log_mean_matches_linear(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 2.0, 500)
        mean, se = x.mean(), x.std(ddof=1) / math.sqrt(x.size)
        logd = log_mean_estimate(np.log(x))
        assert logd.value == pytest.approx(math.log(mean), abs=1e-12)
        assert logd.std_error == pytest.approx(se / mean, rel=1e-9)

    def test_log_mean_constant_input_has_zero_error(self):
        est = log_mean_estimate(np.full(50, 1.7))
        assert est.value == pytest.approx(1.7)
        # the relative variance is taken in two passes, so nothing cancels
        for n in (2, 50, 160, 800, 2500):
            for log in (-40.0, 0.0, 1.7, math.log(4.1887902047863905), 300.0):
                assert log_mean_estimate(np.full(n, log)).std_error <= 1e-15, (n, log)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
    def test_log_mean_error_agrees_with_the_one_pass_formula(self, scale):
        # sqrt((N e^D - 1) / (N - 1)), D = lse(2 v) - 2 lse(v), wherever it does not cancel
        lv = np.random.default_rng(int(scale * 1000)).standard_normal(2000) * scale + 5.0
        n = lv.size
        d = special.logsumexp(2.0 * lv) - 2.0 * special.logsumexp(lv)
        one_pass = math.sqrt((n * math.exp(d) - 1.0) / (n - 1))
        assert log_mean_estimate(lv).std_error == pytest.approx(one_pass, rel=1e-12, abs=0)

    def test_log_mean_handles_huge_logs(self):
        est = log_mean_estimate(np.array([5000.0, 5001.0, 4999.0]))
        assert math.isfinite(est.value)
        assert 4999.0 < est.value < 5001.0

    def test_log_mean_agrees_with_scipy_logsumexp(self):
        lv = np.random.default_rng(3).standard_normal(500)
        est = log_mean_estimate(lv)
        assert est.value == pytest.approx(float(special.logsumexp(lv)) - math.log(500),
                                          rel=0, abs=1e-15)

    def test_log_mean_bits_do_not_depend_on_numpy_simd_level(self):
        # numpy's vectorised exp differs in the last bit between its AVX-512 and AVX2
        # kernels, by enough on this vector to reach the SE; math.exp has one kernel
        code = ("import numpy as np\n"
                "from sectlab.estimates import log_mean_estimate\n"
                "est = log_mean_estimate(-np.random.default_rng(15).random(16) * 40)\n"
                "print(est.value.hex(), float(est.std_error).hex())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        off = {**env, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        outs = [subprocess.run([sys.executable, "-c", code], env=e, check=True,
                               capture_output=True, text=True).stdout for e in (env, off)]
        assert outs[0] == outs[1]


class TestLogPowerProduct:
    def test_constant_values_are_exact(self):
        vals = np.full(60, 2.5)
        assert log_power_product(vals, 3) == pytest.approx(3 * math.log(2.5), abs=1e-12)

    def test_single_group_is_log_mean(self):
        vals = np.array([1.0, 3.0, 5.0, 7.0])
        assert log_power_product(vals, 1) == pytest.approx(math.log(4.0))

    def test_unbiased_for_squares(self):
        # average of exp(lpp(..., 2)) over many replications approaches mean^2,
        # where the plain squared mean would overshoot by Var/N
        rng = np.random.default_rng(7)
        reps = 4000
        prods = np.empty(reps)
        naive = np.empty(reps)
        for i in range(reps):
            x = rng.exponential(1.0, 40)
            prods[i] = math.exp(log_power_product(x, 2))
            naive[i] = x.mean() ** 2
        se = prods.std(ddof=1) / math.sqrt(reps)
        assert abs(prods.mean() - 1.0) <= 3 * se
        assert naive.mean() - 1.0 > 3 * se     # the naive estimator is visibly biased

    def test_requires_enough_values(self):
        with pytest.raises(ValueError):
            log_power_product(np.ones(3), 2)

    def test_zero_group_gives_neg_inf(self):
        assert log_power_product(np.zeros(10), 2) == -math.inf

    @staticmethod
    def _split_and_stack(values, power):
        """The group means of np.array_split and np.stack, logged and summed in order."""
        means = np.stack([group.mean(axis=-1)
                          for group in np.array_split(values, power, axis=-1)])
        total = np.zeros(values.shape[:-1])
        for row in means:
            total = total + np.array([-math.inf if v <= 0 else math.log(v)
                                      for v in np.ravel(row).tolist()]).reshape(row.shape)
        total = np.where((means <= 0).any(axis=0), -math.inf, total)
        return float(total) if total.ndim == 0 else total

    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_equals_split_and_stack_bit_for_bit(self, power):
        gen = np.random.default_rng(power)
        sizes = sorted({2 * power, 2 * power + 1, 2 * power + 3, 61, 600, 601, 1000, 1001})
        for m in sizes:
            values = gen.exponential(1.0, (9, m))
            values[2] = 0.0                                   # every group mean 0
            values[5, :m // power] = -1.0                     # a negative first group
            values[7, -(m // power):] = -values[7, -(m // power):]   # a negative last group
            got = log_power_product(values, power)
            expected = self._split_and_stack(values, power)
            assert got.tobytes() == expected.tobytes(), m
            assert got[2] == -math.inf and got[5] == -math.inf and got[7] == -math.inf
            one = log_power_product(values[0], power)
            assert type(one) is float
            assert one == self._split_and_stack(values[0], power)


class TestEstimateAlgebra:
    def test_log_roundtrip(self):
        # a linear mean goes in through of_mean and comes back out through as_dict
        est = Estimate.of_mean(2.0, 0.1, 100)
        assert est.to_log() is est
        back = est.as_dict()
        assert back["value"] == pytest.approx(2.0)
        assert back["se"] == pytest.approx(0.1, rel=1e-9)

    @given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=-3.0, max_value=3.0))
    def test_power_on_value(self, value, exponent):
        est = Estimate.of_mean(value, 0.01 * value, 50)
        powered = est.powered(exponent)
        assert math.exp(powered.value) == pytest.approx(value ** exponent, rel=1e-9)

    def test_product_and_ratio(self):
        a = Estimate.of_mean(2.0, 0.02, 10)
        b = Estimate.of_mean(3.0, 0.03, 10)
        prod = a.times(b)
        assert math.exp(prod.value) == pytest.approx(6.0)
        # relative errors 1% each -> sqrt(2)% combined
        assert prod.std_error == pytest.approx(math.sqrt(2) * 0.01, rel=1e-6)
        ratio = a.divided_by(b)
        assert math.exp(ratio.value) == pytest.approx(2 / 3)

    def test_exact_factor_keeps_the_sampled_count(self):
        sampled, exact = Estimate.of_mean(2.0, 0.02, 500), _exact(3.0)
        assert sampled.times(exact).n_samples == 500
        assert exact.times(sampled).n_samples == 500
        assert sampled.divided_by(exact).n_samples == 500
        assert exact.divided_by(exact).n_samples == 1
        assert sampled.times(Estimate.of_mean(3.0, 0.03, 40)).n_samples == 40

    def test_to_log_rejects_nonpositive(self):
        # a linear mean takes its log in of_mean, the one place that can reject it
        for mean in (-1.0, 0.0):
            with pytest.raises(ValueError):
                Estimate.of_mean(mean, 0.1, 10)

    @pytest.mark.parametrize("log", [800.0, -800.0])
    def test_as_dict_has_no_linear_fields_beyond_exp_range(self, log):
        d = Estimate(log, 0.1, 10).as_dict()
        assert d == {"value": None, "log": log, "se": None, "n_samples": 10}
        json.dumps(d, allow_nan=False)


class TestReports:
    def test_equality_passes_on_agreement(self):
        rep = equality_report("demo", 3, 1, _linear(1.0, 0.01), _linear(1.005, 0.01),
                              seed=0)
        assert rep.passed and rep.relation == "="
        assert rep.margin == pytest.approx(0.005, rel=0.1)

    def test_equality_fails_beyond_se(self):
        rep = equality_report("demo", 3, 1, _linear(1.0, 0.001), _linear(1.01, 0.001),
                              seed=0)
        assert not rep.passed

    def test_equality_fails_beyond_two_percent_even_within_se(self):
        rep = equality_report("demo", 3, 1, _linear(1.0, 0.05), _linear(1.04, 0.05),
                              seed=0)
        assert not rep.passed     # 4% gap, though within 3 SE

    def test_inequality_tolerates_noise(self):
        rep = inequality_report("demo", 3, 1, _linear(1.002, 0.001), _exact(1.0),
                                seed=0)
        assert rep.passed          # 0.2% violation within 3 * 0.1%

    def test_inequality_rejects_genuine_violation(self):
        rep = inequality_report("demo", 3, 1, _linear(1.1, 0.001), _exact(1.0),
                                seed=0)
        assert not rep.passed
        assert rep.margin < -3

    def test_exact_equality_at_boundary(self):
        rep = inequality_report("demo", 3, 1, exact_log_estimate(0.0), exact_log_estimate(0.0),
                                seed=0)
        assert rep.passed

    def test_exact_sides_give_finite_margin(self):
        # two exact sides: the slack is divided by the 1e-9 floor, not by 0
        rep = inequality_report("demo", 3, 1, exact_log_estimate(0.0), exact_log_estimate(-1e-10),
                                seed=0)
        assert rep.passed and rep.margin == pytest.approx(-0.1)
        strict = inequality_report("demo", 3, 1, exact_log_estimate(0.0), exact_log_estimate(0.5),
                                   seed=0)
        assert math.isfinite(strict.margin) and strict.margin == pytest.approx(0.5e9)

    def test_margin_in_se_units_when_sigma_is_positive(self):
        rep = inequality_report("demo", 3, 1, exact_log_estimate(0.0),
                                Estimate(0.03, 0.01, 100), seed=0)
        assert rep.margin == pytest.approx(3.0)

    def test_seed_is_required(self):
        # a report cannot default its seed, so a check that forgets rng.seed fails loudly
        for report in (equality_report, inequality_report):
            with pytest.raises(TypeError):
                report("demo", 3, 1, _exact(1.0), _exact(1.0))
        with pytest.raises(TypeError):
            CheckReport("demo", 3, 1, _exact(1.0), _exact(1.0), "<=", 0.0,
                        True, "rule")

    def test_as_dict_shape(self):
        rep = inequality_report("demo", 4, 2, _exact(1.0), _exact(2.0), seed=9)
        d = rep.as_dict()
        assert d["check_name"] == "demo" and d["pass"] is True and d["seed"] == 9
        assert set(d["lhs"]) == {"value", "log", "se", "n_samples"}
