import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sectlab import estimates, functionals, verifier
from sectlab.constants import log_ball_volume, log_gamma_nk
from sectlab.bodies import (Ellipsoid, HPolytope, LpBall, StarBody, centered_simplex, cube,
                            translate)
from sectlab.estimates import (equality_report, exact_log_estimate, log_mean_estimate,
                               log_power_product)
from sectlab.functionals import _FrameDesign, log_volume_estimate
from sectlab.grassmann import Frame, sample_haar
from sectlab.measures import (DensityOracle, GaussianDensity, LebesgueDensity,
                              RadialExpDensity, _section_measure_values)
from sectlab.sampler import (StreamHandle, _haar_columns, _point_set, sample_restricted,
                             simplex_volume, sphere_directions)
from sectlab.verifier import (CHECKS, SuiteConfig, _default_grid, _polar_moments,
                              _worker_count, check_bp_identity, check_busemann_petty_volume,
                              check_dpp, check_grinberg, check_section_bounds,
                              check_slicing_chain, negative_control, run_suite)

BALL3 = LpBall(3, 2.0)
CUBE3 = cube(3)
BOX3 = HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 1.6))   # no exact volume


class TestBpIdentity:
    def test_ball3_matches_closed_form(self):
        rep = check_bp_identity(BALL3, 1, 200, 500, StreamHandle(1), sphere_samples=400)
        assert rep.passed
        # both sides equal 16 pi^2 / 9
        assert math.exp(rep.lhs.value) == pytest.approx(16 * math.pi ** 2 / 9, rel=1e-9)
        assert math.exp(rep.rhs.value) == pytest.approx(16 * math.pi ** 2 / 9, rel=0.02)

    def test_cube3(self):
        rep = check_bp_identity(CUBE3, 1, 600, 400, StreamHandle(2), sphere_samples=500)
        assert rep.passed
        assert math.exp(rep.lhs.value) == pytest.approx(64.0, rel=1e-9)

    def test_square_passes_at_every_seed(self):
        # G(2,1) takes stratified lines: with 50 iid Haar lines this check failed the 2%
        # gap at 93 of seeds 0-199 on frame noise alone
        for seed in range(50):
            rep = check_bp_identity(cube(2), 1, 50, 100, StreamHandle(seed))
            assert rep.passed, (seed, rep.margin)

    @pytest.mark.parametrize("dim,log_se", [(3, 1e-4), (4, 4e-3)], ids=["ball3", "ball4"])
    def test_ball_gap_within_three_se(self, dim, log_se):
        # s = 2 and s = 3 tuples of rotated point sets: every section of a ball is the same
        # ball, so all noise is the tuples', which the lattice pairing keeps small for s = 2;
        # for s = 3 the log-SE was 2.6e-3 to 3.1e-3 over seeds 0-29, about the iid tuples'
        rep = check_bp_identity(LpBall(dim, 2.0), 1, 200, 300, StreamHandle(6))
        assert abs(rep.lhs.value - rep.rhs.value) <= 3 * rep.rhs.std_error
        assert rep.rhs.std_error <= log_se

    def test_line_sections_do_not_read_the_points(self):
        # k = n - 1: a line's two tuples are u and -u, the whole of S^0, so the right side
        # is the same at every points_per_frame, on a body that is not symmetric too
        sides = {json.dumps([rep.lhs.as_dict(), rep.rhs.as_dict()]) for rep in (
            check_bp_identity(centered_simplex(3), 2, 50, points, StreamHandle(8))
            for points in (1, 2, 301))}
        assert len(sides) == 1

    def test_line_sections_record_no_points(self):
        # a budget that is not read is not recorded, and may be None; at k < n - 1 it is
        line = check_bp_identity(centered_simplex(3), 2, 50, None, StreamHandle(8))
        assert line.inputs == {"frames": 50}
        assert line.rhs == check_bp_identity(centered_simplex(3), 2, 50, 7, StreamHandle(8)).rhs
        plane = check_bp_identity(centered_simplex(3), 1, 20, 30, StreamHandle(8))
        assert plane.inputs == {"frames": 20, "points_per_frame": 30}

    def test_vanished_moment_is_an_error(self):
        with pytest.raises(ValueError, match="^simplex moment vanished"):
            check_bp_identity(CUBE3, 1, 10, 20, StreamHandle(70), density=NoMassDensity(3))

    def test_logs_are_taken_once_per_check(self, monkeypatch):
        # the kernel returns raw moments block by block, and the check takes their logs
        # and adds the constant once over all frames, which gives per-block logs' bits
        kernel_calls, log_sizes = [], []

        def counted_kernel(*args):
            kernel_calls.append(len(args[3]))
            return _polar_moments(*args)

        def counted_log(values):
            log_sizes.append(np.size(values))
            return estimates._log(values)

        monkeypatch.setattr(verifier, "_polar_moments", counted_kernel)
        monkeypatch.setattr(verifier, "_log", counted_log)
        check_bp_identity(LpBall(4, 1.0), 1, 100, 300, StreamHandle(71))
        assert len(kernel_calls) == 25 and sum(kernel_calls) == 100
        assert log_sizes == [100]

    def test_segment_sections(self):
        # k = n-1: one-point simplices, conv(0, x) has length |x|
        rep = check_bp_identity(LpBall(2, 2.0), 1, 300, 500, StreamHandle(3),
                                sphere_samples=200)
        assert rep.passed


AXIS_FRAME = Frame(np.eye(3)[:, :2])


class NoMassDensity(LebesgueDensity):
    """Test-only: no ray carries mass, so every simplex moment vanishes."""

    def ray_mass(self, dirs, upper, power):
        return np.zeros(np.shape(upper))


class SectionBody(StarBody):
    """Reference adaptor: K cap F as a body in the frame's coordinates."""

    def __init__(self, body, frame):
        super().__init__(frame.s, exact_volume=None)
        self.parent, self.frame = body, frame

    def radial(self, dirs):
        return self.parent.radial(self.frame.embed(dirs))

    def bounding_radius(self):
        return self.parent.bounding_radius()


class SectionDensity(DensityOracle):
    """Reference adaptor: the ambient density read in a frame's coordinates, g(embed(u))."""

    def __init__(self, density, frame):
        super().__init__(frame.s)
        self.radially_nonincreasing = density.radially_nonincreasing
        self.ambient, self.frame = density, frame

    def __call__(self, u):
        return self.ambient(self.frame.embed(np.asarray(u, dtype=float)))


def _polar_log_moment(density, body, frame, k, points, rng):
    """The polar log moment of one frame, log (s omega_s)^s + log of the kernel's mean,
    its directions drawn iid from ``rng``, so its tuples are iid whichever rows the
    kernel pairs."""
    s = frame.s
    theta = sphere_directions(rng.generator(), points * s, s)
    moment = _polar_moments(density, body, k, frame.embed(theta)[None], frame.basis[None])
    return s * (math.log(s) + log_ball_volume(s)) + math.log(float(moment[0]))


class TestPolarLogMoment:
    def test_unit_disc(self):
        # (2 pi)^2 E[|sin(phi_1 - phi_2)| / 2] / 3^2 = 4 pi / 9 on the unit disc,
        # and the relative SD of |sin| is sqrt(pi^2 / 8 - 1)
        points = 20_000
        value = math.exp(_polar_log_moment(LebesgueDensity(3), BALL3, AXIS_FRAME, 1,
                                           points, StreamHandle(0)))
        exact = 4 * math.pi / 9
        se = exact * math.sqrt(math.pi ** 2 / 8 - 1) / math.sqrt(points)
        assert abs(value - exact) <= 3 * se

    @pytest.mark.parametrize("density", [LebesgueDensity(3), GaussianDensity(3)],
                             ids=["lebesgue", "gaussian"])
    @pytest.mark.parametrize("frame", [AXIS_FRAME, sample_haar(3, 2, StreamHandle(31))],
                             ids=["axis", "haar"])
    def test_matches_rejection_reference(self, density, frame):
        # mu(K cap F)^2 E|conv(0, x_1, x_2)| with vertices drawn by rejection
        # from the normalized restricted measure on the section
        reps = 8
        polar = np.exp([_polar_log_moment(density, CUBE3, frame, 1, 5000,
                                           StreamHandle(7).split(r)) for r in range(reps)])
        polar_mean, polar_se = polar.mean(), polar.std(ddof=1) / math.sqrt(reps)
        theta = sphere_directions(StreamHandle(8).generator(), 20_000, 2)
        mu = _section_measure_values(density, [CUBE3], frame.embed(theta), 2)[0]
        pts = sample_restricted(SectionDensity(density, frame), SectionBody(CUBE3, frame),
                                StreamHandle(9), size=40_000).points
        moment = simplex_volume(pts.reshape(20_000, 2, 2))
        ref = mu.mean() ** 2 * moment.mean()
        ref_se = ref * math.hypot(2 * mu.std(ddof=1) / math.sqrt(mu.size) / mu.mean(),
                                  moment.std(ddof=1) / math.sqrt(moment.size) / moment.mean())
        assert abs(polar_mean - ref) <= 3 * math.hypot(polar_se, ref_se)

    @pytest.mark.parametrize("s,m", [(1, 7), (2, 300), (3, 300), (3, 64), (4, 2)])
    def test_each_slot_rows_are_a_permutation(self, s, m):
        # an identity check's design of s slot groups of m: slot i is its rotated point
        # set P in the order a_i j mod m, a_0 = 1 and a_i the integer nearest m / phi^i
        # raised until coprime to m, so tuple j, row j of each slot, is a rank-1 lattice;
        # at s = 1 the one slot is the exact rule on S^0, u and -u, whatever m
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        n, frames = s + 1, 3
        design = _FrameDesign(frames, n, 1, s * m, StreamHandle(60), groups=s)
        dirs = design.map(lambda d, _: d)
        if s == 1:
            u = design.bases[:, :, 0]
            assert dirs.tobytes() == np.stack([u, -u], axis=1).tobytes()
            return
        assert dirs.shape == (frames, s * m, n)
        for i in range(s):
            a = round(m / golden ** i) if i else 1
            while math.gcd(a, m) != 1:
                a += 1
            order = [a * j % m for j in range(m)]
            assert sorted(order) == list(range(m))
            for f in range(frames):
                rotated = _point_set(s, m) @ design._embeddings[f, i]
                assert dirs[f, i * m:(i + 1) * m].tobytes() == rotated[order].tobytes()

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2)])
    def test_kernel_does_not_depend_on_the_basis(self, n, k):
        # in the basis B Q a tuple's coordinates are its coordinates in B times Q, so
        # for Q in O(s), a reflection among them, |det theta| and the moments stay
        s = n - k
        design = _FrameDesign(6, n, k, 40 * s, StreamHandle(66), groups=s)
        dirs = design.map(lambda d, _: d)
        density, body = GaussianDensity(n), centered_simplex(n)
        moments = _polar_moments(density, body, k, dirs, design.bases)
        rotation = _haar_columns(StreamHandle(67).generator().standard_normal((s, s)))
        reflection = np.diag([-1.0] + [1.0] * (s - 1))
        for q in (rotation, reflection, rotation @ reflection):
            got = _polar_moments(density, body, k, dirs, design.bases @ q)
            np.testing.assert_allclose(got, moments, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2)])
    def test_kernel_matches_a_per_tuple_loop(self, n, k):
        # one frame's moment tuple by tuple: |det(B^T theta)| / s!, theta the tuple's s
        # directions as columns, to the k-th power times the product of their ray masses
        s, m = n - k, 50
        design = _FrameDesign(3, n, k, s * m, StreamHandle(68), groups=s)
        dirs = design.map(lambda d, _: d)[:1]
        density, body = GaussianDensity(n), centered_simplex(n)
        basis, rows = design.bases[0], dirs[0]
        mass = density.ray_mass(rows, body.radial(rows), float(n))
        terms = []
        for j in range(m):
            slots = [i * m + j for i in range(s)]
            volume = abs(np.linalg.det(basis.T @ rows[slots].T)) / math.factorial(s)
            terms.append(volume ** k * math.prod(mass[slots]))
        got = _polar_moments(density, body, k, dirs, design.bases[:1])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(math.fsum(terms) / m, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_line_volume_is_one(self, n):
        # s = 1: the tuples are u and -u, whose volume |u . u| is 1 to rounding, so a
        # frame's moment is the mean of the ray masses at its two ends
        design = _FrameDesign(5, n, n - 1, 7, StreamHandle(69), groups=1)
        dirs = design.map(lambda d, _: d)
        density, body = GaussianDensity(n), centered_simplex(n)
        mass = density.ray_mass(dirs, body.radial(dirs), float(n))
        got = _polar_moments(density, body, n - 1, dirs, design.bases)
        np.testing.assert_allclose(got, mass.mean(axis=-1), rtol=2e-15, atol=0)

    def test_same_seed_same_report_bytes(self):
        a = check_bp_identity(CUBE3, 1, 40, 100, StreamHandle(4), sphere_samples=300)
        b = check_bp_identity(CUBE3, 1, 40, 100, StreamHandle(4), sphere_samples=300)
        assert (json.dumps(a.as_dict(), sort_keys=True)
                == json.dumps(b.as_dict(), sort_keys=True))


class TestChains:
    @pytest.mark.parametrize("density", [LebesgueDensity(3), GaussianDensity(3),
                                         RadialExpDensity(3)])
    def test_slicing_ball(self, density):
        rep = check_slicing_chain(density, BALL3, 1, 100, 400, StreamHandle(4))
        assert rep.passed and rep.relation == "<="
        assert "sampled" in rep.note

    def test_slicing_example_logs(self):
        # uniform on the ball: lhs log = 2 log(4 pi/3); all RHS factors closed form
        rep = check_slicing_chain(LebesgueDensity(3), BALL3, 1, 50, 300, StreamHandle(5))
        assert rep.lhs.value == pytest.approx(2 * math.log(4 * math.pi / 3), abs=1e-9)
        gamma3 = 0.8271339878658664
        rhs_expected = (math.log(gamma3 ** -3) + math.log(4 * math.pi)
                        + 2 * math.log(math.pi) + (2 / 3) * math.log(4 * math.pi / 3))
        assert rep.rhs.value == pytest.approx(rhs_expected, rel=1e-6)
        assert rep.rhs.n_samples == 300     # the exact factors keep the sampled count

    def test_log_slack_is_finite_where_the_floor_sets_the_margin(self):
        # the ball's sections are constant, so its margin in SE units is set by the
        # 1e-9 floor; the log slack next to it stays comparable across checks
        rep = check_slicing_chain(GaussianDensity(3), BALL3, 1, 160, 600, StreamHandle(8))
        slack = rep.inputs["log_slack"]
        assert math.isfinite(slack) and slack > 0
        assert slack == rep.rhs.value - rep.lhs.value
        assert rep.margin > 1e6

    def test_lebesgue_measure_is_the_volume(self):
        # at Lebesgue measure mu(K) and |K| are one number, drawn once
        rep = check_slicing_chain(LebesgueDensity(3), BOX3, 1, 20, 200, StreamHandle(9))
        vol = log_volume_estimate(BOX3, StreamHandle(9))
        assert (rep.lhs.value, rep.lhs.std_error) == (2 * vol.value, 2 * vol.std_error)

    @pytest.mark.parametrize("k", [1, 2])
    def test_dpp_takes_the_supremum_at_power_k(self, k):
        # twice the Gaussian scales mu(K cap F)^n and sup^k mu(K)^(n-k) both by 2^n, so
        # only a wrong power of sup_K g moves the slack (a flipped one by 2k log 2)
        plain = check_dpp(GaussianDensity(3), CUBE3, k, 20, 200, StreamHandle(10))
        doubled = check_dpp(DoubledGaussian(3), CUBE3, k, 20, 200, StreamHandle(10))
        assert (plain.inputs["sup_on_body"], doubled.inputs["sup_on_body"]) == (1.0, 2.0)
        assert doubled.rhs.value - plain.rhs.value == pytest.approx(3 * math.log(2.0),
                                                                    rel=0, abs=1e-12)
        assert doubled.inputs["log_slack"] == pytest.approx(plain.inputs["log_slack"],
                                                            rel=0, abs=1e-12)

    def test_l1_ball_4d(self):
        rep = check_slicing_chain(LebesgueDensity(4), LpBall(4, 1.0), 2, 80, 300,
                                  StreamHandle(7))
        assert rep.passed

    def test_numpy_integer_frame_count(self):
        texts = {json.dumps(check_slicing_chain(GaussianDensity(3), CUBE3, 1, frames, 200,
                                                StreamHandle(6)).as_dict(), sort_keys=True)
                 for frames in (20, np.int64(20))}
        assert len(texts) == 1


class TestMaxSection:
    # the largest section over slicing_chain's frames, as its report records it
    def test_ball_sections_constant(self):
        rep = check_slicing_chain(LebesgueDensity(3), BALL3, 1, 50, 200, StreamHandle(12))
        assert math.exp(rep.inputs["max_section_log"]) == pytest.approx(math.pi, rel=1e-9)
        assert 0 <= rep.inputs["argmax_frame"] < 50

    def test_square_max_chord_approaches_diagonal(self):
        rep = check_slicing_chain(LebesgueDensity(2), cube(2), 1, 1000, 100, StreamHandle(13))
        assert math.exp(rep.inputs["max_section_log"]) >= 2.75
        assert math.exp(rep.inputs["max_section_log"]) <= 2 * math.sqrt(2) + 1e-9


class TestSectionBounds:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("density", [LebesgueDensity(3), GaussianDensity(3),
                                         RadialExpDensity(3)],
                             ids=["lebesgue", "gaussian", "radial_exp"])
    @pytest.mark.parametrize("body", [CUBE3, BOX3], ids=["cube3", "box3"])
    def test_section_bounds_equals_the_two_checks(self, body, density, k):
        # one pass gives the bytes of the two checks on its stream; BOX3 has no exact
        # volume, so |K| and, at Lebesgue measure, mu(K) take the polar path
        def texts(reports):
            return [json.dumps(r.as_dict(), sort_keys=True) for r in reports]

        merged = check_section_bounds(density, body, k, 20, 100, StreamHandle(54))
        views = [check(density, body, k, 20, 100, StreamHandle(54))
                 for check in (check_slicing_chain, check_dpp)]
        assert [r.check_name for r in merged] == ["slicing_chain", "dpp_bound"]
        assert texts(merged) == texts(views)

    def test_one_design_one_map_one_measure(self, monkeypatch):
        # the merged entry evaluates its section values and mu(K) once for both reports
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(_FrameDesign, "__init__", counted("design", _FrameDesign.__init__))
        monkeypatch.setattr(_FrameDesign, "map", counted("map", _FrameDesign.map))
        monkeypatch.setattr(verifier, "log_measure_estimate",
                            counted("measure", verifier.log_measure_estimate))
        check_section_bounds(GaussianDensity(3), CUBE3, 1, 20, 100, StreamHandle(56))
        assert counts == {"design": 1, "map": 1, "measure": 1}

    @pytest.mark.parametrize("check", [check_slicing_chain, check_section_bounds])
    def test_lebesgue_pass_takes_one_polar_volume(self, monkeypatch, check):
        # at Lebesgue measure mu(K) is |K|, so a body without an exact volume takes one
        # polar |K| per pass, which slicing_chain's right side reuses
        calls = []
        measure = functionals.measure_of_body

        def counted(density, body, samples, rng):
            calls.append(samples)
            return measure(density, body, samples, rng)

        monkeypatch.setattr(functionals, "measure_of_body", counted)
        check(LebesgueDensity(3), BOX3, 1, 20, 100, StreamHandle(57))
        assert calls == [20_000]


class TestDpp:
    def test_uniform_ball_sits_at_equality(self):
        rep = check_dpp(LebesgueDensity(3), BALL3, 1, 60, 300, StreamHandle(8))
        assert rep.passed
        assert abs(rep.lhs.value - rep.rhs.value) < 1e-6   # log equality

    def test_gaussian_ball(self):
        rep = check_dpp(GaussianDensity(3), BALL3, 1, 60, 300, StreamHandle(9))
        assert rep.passed
        assert rep.margin > 3 or math.isinf(rep.margin)

    def test_cube_strict_inequality(self):
        # the cube's log slack is only about 0.021 (6 SE at 6000 frames), so it takes
        # 1000 frames to resolve: at 120 the margin is <= 0 at one seed in six
        rep = check_dpp(LebesgueDensity(3), CUBE3, 1, 1000, 400, StreamHandle(10))
        assert rep.passed and rep.margin > 0

    def test_lebesgue_right_side_is_exact(self):
        # mu(K) is the cube's exact volume, so the only noise is the frames'
        rep = check_dpp(LebesgueDensity(3), CUBE3, 1, 40, 200, StreamHandle(10))
        assert rep.rhs.std_error == 0.0
        assert rep.rhs.value == pytest.approx(-3 * log_gamma_nk(3, 1) + 2 * math.log(8.0),
                                              rel=1e-15)

    def test_sup_recorded(self):
        rep = check_dpp(GaussianDensity(3), CUBE3, 1, 50, 300, StreamHandle(11))
        assert rep.inputs["sup_on_body"] == pytest.approx(1.0)


class ShiftedGaussian(DensityOracle):
    """g(x) = exp(-|x - center|^2 / 2), by the generic ray-mass quadrature."""

    def __init__(self, center):
        super().__init__(len(center))
        self.center = np.asarray(center, dtype=float)

    def __call__(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return np.exp(-0.5 * np.sum(d * d, axis=-1))


class DoubledGaussian(GaussianDensity):
    """Twice the standard Gaussian, so its supremum on any body with 0 inside is 2."""

    def __call__(self, x):
        return 2.0 * super().__call__(x)

    def ray_mass(self, dirs, upper, power):
        return 2.0 * super().ray_mass(dirs, upper, power)


def _within_three_se(rep):
    lhs, rhs = rep.lhs, rep.rhs
    return abs(lhs.value - rhs.value) <= 3 * math.hypot(lhs.std_error, rhs.std_error)


class TestBpIdentityWithDensity:
    """bp_identity with a density other than Lebesgue measure."""

    def test_uniform_reduces_to_bp(self):
        rep = check_bp_identity(BALL3, 1, 200, 300, StreamHandle(12),
                                density=LebesgueDensity(3), sphere_samples=300)
        assert rep.passed

    def test_gaussian_ball(self):
        rep = check_bp_identity(BALL3, 1, 300, 300, StreamHandle(13),
                                density=GaussianDensity(3), sphere_samples=400)
        assert rep.passed
        mu = 3.1302041562817155
        assert math.exp(rep.lhs.value) == pytest.approx(mu ** 2, rel=1e-6)

    # The identity holds for any density on any body with 0 interior.  At n = 3,
    # k = 1 the frames are the outer rule's rotated point set of normals, not
    # independent Haar draws.  Where the relative gaps over seeds 0-19 at these
    # budgets come near or past the 2% gate, only the 3-SE half of the rule is asserted.

    def test_gaussian_on_translated_ball(self):
        # passed on each of seeds 0-19
        body = translate(BALL3, np.array([0.3, 0.1, 0.0]))
        rep = check_bp_identity(body, 1, 400, 300, StreamHandle(14),
                                density=GaussianDensity(3))
        assert rep.passed

    def test_shifted_gaussian_on_cube(self):
        # g(x) = exp(-|x - c|^2 / 2) is neither even nor radially nonincreasing; the
        # whole rule passed on each of seeds 0-19, with gaps up to 1.6%, and at this
        # seed the log gap is 7.1e-5 against a combined log SE of 0.0108
        rep = check_bp_identity(CUBE3, 1, 400, 300, StreamHandle(15),
                                density=ShiftedGaussian([0.3, -0.2, 0.1]))
        assert rep.passed

    def test_gaussian_on_simplex(self):
        # the 2% gate failed on 1 of seeds 0-19 (gap 2.2%) and the 3-SE half on
        # none: the combined log SE is about 0.025
        rep = check_bp_identity(centered_simplex(3), 1, 1500, 300, StreamHandle(16),
                                density=GaussianDensity(3))
        assert _within_three_se(rep)


class TestGrinberg:
    def test_two_part_reports(self):
        reports = check_grinberg(CUBE3, 1, 2, 700, 1000, StreamHandle(16))
        names = [r.check_name for r in reports]
        assert names == ["grinberg_invariance", "grinberg_maximality"]
        assert all(r.passed for r in reports)
        assert len(reports[0].inputs["all_values"]) == 3

    def test_ball_equality_case(self):
        reports = check_grinberg(BALL3, 1, 1, 100, 300, StreamHandle(17))
        max_rep = reports[1]
        assert max_rep.passed
        assert math.exp(max_rep.lhs.value) == pytest.approx(1.2089939655123523, rel=1e-6)

    @pytest.mark.parametrize("body", [CUBE3, BALL3], ids=["cube3", "ball3"])
    def test_images_are_not_the_body(self, body):
        # were the images the body itself, the three values would agree bit for bit
        worst = check_grinberg(body, 1, 2, 50, 200, StreamHandle(23))[0]
        assert len(set(worst.inputs["all_values"])) == 3

    def test_no_transforms_is_an_error(self):
        # invariance with no image would compare the functional with itself
        with pytest.raises(ValueError, match="at least one transform"):
            check_grinberg(CUBE3, 1, 0, 50, 300, StreamHandle(16))

    def test_one_section_pass_per_block_over_all_bodies(self, monkeypatch):
        # the body and its two images share one kernel call and one reduction per block
        kernel_frames, reductions = [], []

        def counted_kernel(density, bodies, dirs, s):
            kernel_frames.append(len(dirs))
            return _section_measure_values(density, bodies, dirs, s)

        def counted_means(values, power):
            reductions.append(values.shape[:-1])
            return estimates._group_means(values, power)

        monkeypatch.setattr(functionals, "_section_measure_values", counted_kernel)
        monkeypatch.setattr(functionals, "_group_means", counted_means)
        check_grinberg(CUBE3, 1, 2, 100, 300, StreamHandle(72))
        step = functionals._BLOCK_DIRS // 300
        assert kernel_frames == [min(step, 100 - start) for start in range(0, 100, step)]
        assert reductions == [(frames, 3) for frames in kernel_frames]

    def test_maximality_l1_ball(self):
        # the cross-polytope value sits within half a percent of the ball's
        reports = check_grinberg(LpBall(4, 1.0), 2, 1, 250, 600, StreamHandle(18))
        assert reports[1].passed


class TestBusemannPetty:
    def test_cube_in_circumscribed_ball(self):
        rep = check_busemann_petty_volume(CUBE3, LpBall(3, 2.0, math.sqrt(3)), 1,
                                          200, 500, StreamHandle(19))
        assert rep.passed
        assert rep.inputs["dominance_violations"] == 0

    def test_ball_in_double_ball(self):
        rep = check_busemann_petty_volume(BALL3, LpBall(3, 2.0, 2.0), 1, 100, 300,
                                          StreamHandle(20))
        assert rep.passed

    def test_equal_bodies_equality(self):
        rep = check_busemann_petty_volume(CUBE3, cube(3), 1, 100, 300, StreamHandle(21))
        assert rep.passed
        assert rep.inputs["phi_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_hypothesis_failure_is_reported_not_raised(self):
        # K = 2 ball dominates D = ball on every frame, so dominance fails
        rep = check_busemann_petty_volume(LpBall(3, 2.0, 2.0), BALL3, 1, 40, 300,
                                          StreamHandle(22))
        assert not rep.passed
        assert "hypothesis fails" in rep.note
        assert rep.inputs["dominance_violations"] == 40

    def test_volumes_cancel_in_the_log_slack(self):
        # D has no exact volume; one |D| serves phi(D) and the right side, so the log
        # slack is the section-power ratio alone, on the check's own frame design
        assert BOX3.exact_volume is None
        rep = check_busemann_petty_volume(CUBE3, BOX3, 1, 160, 600, StreamHandle(5))
        design = _FrameDesign(160, 3, 1, 600, StreamHandle(5))

        def log_mean_power(body):
            return log_mean_estimate(design.map(lambda dirs, _: log_power_product(
                _section_measure_values(LebesgueDensity(3), [body], dirs, 2)[:, 0], 3))).value

        expected = (log_mean_power(BOX3) - log_mean_power(CUBE3)) / 3
        assert rep.inputs["log_slack"] == pytest.approx(expected, rel=0, abs=1e-12)


class TestSuite:
    def test_registry(self):
        assert set(CHECKS) == {"bp_identity", "slicing_chain", "dpp_bound", "section_bounds",
                               "logconcave_identity", "grinberg",
                               "busemann_petty_volume", "negative_control"}
        # one identity check: the second name is kept for the benchmark's grid
        assert CHECKS["logconcave_identity"] is CHECKS["bp_identity"]

    def test_default_grid_composition(self, monkeypatch):
        grid = _default_grid()
        counts = Counter(name for name, _, _ in grid)
        assert counts == {"bp_identity": 6, "section_bounds": 24, "grinberg": 4,
                          "busemann_petty_volume": 2}
        assert len(grid) == 36
        assert all(name in CHECKS for name, _, _ in grid)
        # the section_bounds entries, at tiny budgets, report the (check, fixture, k)
        # triples of the 48 slicing_chain and dpp_bound entries they replaced
        monkeypatch.setenv("SECTLAB_WORKERS", "1")
        tiny = [(name, {**params, "frames": 2, "sphere_samples": 100}, label)
                for name, params, label in grid if name == "section_bounds"]
        res = run_suite(SuiteConfig(seed=0, grid=tiny))
        assert not res.errors
        expected = Counter((check, f"{body}/{density}", k)
                           for body in ("ball3", "cube3", "l1ball3", "l1ball4")
                           for k in (1, 2)
                           for density in ("lebesgue", "gaussian", "radial_exp")
                           for check in ("slicing_chain", "dpp_bound"))
        assert Counter((r.check_name, r.inputs["fixture"], r.k) for r in res.reports) == expected

    def test_empty_grid_passes(self):
        res = run_suite(SuiteConfig(seed=0, grid=[]))
        assert res.status == "pass" and res.reports == [] and res.exit_code == 0

    def test_small_grid_deterministic(self):
        grid = [
            ("dpp_bound", {"density": LebesgueDensity(3), "body": BALL3, "k": 1,
                           "frames": 30, "sphere_samples": 200}, "ball"),
            ("slicing_chain", {"density": GaussianDensity(3), "body": CUBE3, "k": 1,
                               "frames": 30, "sphere_samples": 200}, "cube"),
        ]
        a = run_suite(SuiteConfig(seed=5, grid=grid))
        b = run_suite(SuiteConfig(seed=5, grid=grid))
        assert a.status == "pass"
        assert a.as_dict() == b.as_dict()

    def test_negative_control_forces_fail(self):
        res = run_suite(SuiteConfig(seed=0, grid=[], include_negative_control=True))
        assert res.status == "fail" and res.exit_code == 1
        assert res.reports[-1].check_name == "negative_control"

    def test_error_status_is_distinct(self):
        grid = [("bp_identity", {"body": CUBE3, "k": 5, "frames": 10,
                                 "points_per_frame": 100}, "bad-k")]
        res = run_suite(SuiteConfig(seed=0, grid=grid))
        assert res.status == "error" and res.exit_code == 2
        assert res.errors and "bad-k" in res.errors[0]


def test_negative_control_fails_decisively():
    rep = negative_control(CUBE3, 1, 100, 400, StreamHandle(27))
    assert not rep.passed
    assert rep.margin < -3


ELLIPSOID3 = Ellipsoid(np.array([[2.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 0.5]]))
# the checks on the frame-block kernel, each on 10 frames of 100 directions; the
# k = 2 sections are lines, whose values depend on the directions' signs only
# on a body that is not symmetric
BLOCKED_CHECKS = {
    "grinberg/simplex3": lambda: check_grinberg(centered_simplex(3), 1, 2, 10, 100,
                                                StreamHandle(40)),
    "grinberg/ellipsoid3": lambda: check_grinberg(ELLIPSOID3, 1, 2, 10, 100,
                                                  StreamHandle(41)),
    "busemann_petty_volume": lambda: check_busemann_petty_volume(
        CUBE3, LpBall(3, 2.0, math.sqrt(3.0)), 1, 10, 100, StreamHandle(42)),
    "dpp/gaussian": lambda: check_dpp(GaussianDensity(3), CUBE3, 1, 10, 100,
                                      StreamHandle(43)),
    "dpp/radial_exp": lambda: check_dpp(RadialExpDensity(3), centered_simplex(3), 2, 10,
                                        100, StreamHandle(44)),
    "slicing_chain/gaussian": lambda: check_slicing_chain(GaussianDensity(3), CUBE3, 1, 10,
                                                          100, StreamHandle(45)),
    "slicing_chain/radial_exp": lambda: check_slicing_chain(
        RadialExpDensity(3), centered_simplex(3), 2, 10, 100, StreamHandle(46)),
    "section_bounds": lambda: check_section_bounds(GaussianDensity(3), BOX3, 1, 10, 100,
                                                   StreamHandle(55)),
    "bp_identity": lambda: check_bp_identity(CUBE3, 1, 10, 50, StreamHandle(47),
                                             sphere_samples=300),
    "logconcave_identity": lambda: check_bp_identity(
        CUBE3, 1, 10, 50, StreamHandle(48), density=GaussianDensity(3), sphere_samples=300),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_CHECKS))
def test_block_size_does_not_change_report_bytes(monkeypatch, name):
    texts = set()
    # one frame per block; blocks of 3 frames (3 + 3 + 3 + 1); every frame in one block
    for block_dirs in (1, 3 * 100, 1 << 40):
        monkeypatch.setattr(functionals, "_BLOCK_DIRS", block_dirs)
        out = BLOCKED_CHECKS[name]()
        reports = out if isinstance(out, list) else [out]
        texts.add(json.dumps([r.as_dict() for r in reports], sort_keys=True,
                             allow_nan=True))
    assert len(texts) == 1


# arguments besides k, frames, sphere_samples and rng, one set per registered check
CHECK_ARGS = {
    "bp_identity": {"body": CUBE3, "points_per_frame": 50},
    "slicing_chain": {"density": GaussianDensity(3), "body": CUBE3},
    "dpp_bound": {"density": GaussianDensity(3), "body": CUBE3},
    "section_bounds": {"density": GaussianDensity(3), "body": CUBE3},
    "logconcave_identity": {"density": GaussianDensity(3), "body": CUBE3,
                            "points_per_frame": 50},
    "grinberg": {"body": CUBE3, "transforms": 1},
    "busemann_petty_volume": {"body_k": CUBE3, "body_d": LpBall(3, 2.0, math.sqrt(3.0))},
    "negative_control": {"body": CUBE3},
}


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("name", sorted(CHECKS))
def test_codimension_out_of_range_is_an_error(name, k):
    with pytest.raises(ValueError, match=f"need 1 <= k <= n-1, got n=3, k={k}$"):
        CHECKS[name](k=k, frames=10, sphere_samples=100, rng=StreamHandle(50),
                     **CHECK_ARGS[name])


def _reports(name, sphere_samples, rng):
    out = CHECKS[name](k=1, frames=12, sphere_samples=sphere_samples, rng=rng,
                       **CHECK_ARGS[name])
    return out if isinstance(out, list) else [out]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_same_seed_same_report_bytes(name):
    texts = {json.dumps([r.as_dict() for r in _reports(name, 100, StreamHandle(51))],
                        sort_keys=True, allow_nan=True) for _ in range(2)}
    assert len(texts) == 1


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_report_seed_is_the_stream_seed(name):
    reports = _reports(name, 100, StreamHandle(7))
    assert reports and all(r.seed == 7 for r in reports)


# the checks that draw sphere directions; the identity check takes sphere_samples
# but draws points_per_frame * (n - k) directions per frame instead
READS_SPHERE_SAMPLES = {"slicing_chain", "dpp_bound", "section_bounds", "grinberg",
                        "busemann_petty_volume", "negative_control"}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_sphere_samples_recorded_exactly_where_read(name):
    def payloads(sphere_samples):
        reports = _reports(name, sphere_samples, StreamHandle(53))
        recorded = {r.inputs.pop("sphere_samples", None) for r in reports}
        return recorded, json.dumps([r.as_dict() for r in reports], sort_keys=True)

    (recorded_a, text_a), (recorded_b, text_b) = payloads(137), payloads(211)
    reads = name in READS_SPHERE_SAMPLES
    assert (text_a != text_b) == reads
    assert (recorded_a, recorded_b) == (({137}, {211}) if reads else ({None}, {None}))


@pytest.mark.parametrize("check", [
    lambda: check_bp_identity(CUBE3, 1, 10, 0, StreamHandle(52)),
    lambda: check_bp_identity(CUBE3, 1, 10, 0, StreamHandle(52), density=GaussianDensity(3))],
    ids=["bp_identity", "logconcave_identity"])
def test_zero_points_per_frame_is_an_error(check):
    with pytest.raises(ValueError, match="sphere direction per frame, got 0$"):
        check()


def test_no_frames_is_a_clear_error():
    with pytest.raises(ValueError, match="at least one frame"):
        check_grinberg(CUBE3, 1, 2, 0, 100, StreamHandle(49))


class TestWorkerPool:
    # every test here runs at most 3 workers
    MIXED_GRID = [
        ("grinberg", {"body": LpBall(3, 1.0), "k": 1, "transforms": 1, "frames": 20,
                      "sphere_samples": 100}, "l1ball3"),
        ("bp_identity", {"body": CUBE3, "k": 5, "frames": 10, "points_per_frame": 100},
         "bad-k-first"),
        ("dpp_bound", {"density": GaussianDensity(3), "body": BALL3, "k": 2, "frames": 5,
                       "sphere_samples": 100}, "ball3/gaussian"),
        ("bp_identity", {"body": CUBE3, "k": 0, "frames": 10, "points_per_frame": 100},
         "bad-k-second"),
    ]

    @staticmethod
    def _stub(monkeypatch, fn):
        # forked workers inherit CHECKS, so a stub registered here runs in them
        def check(rng, delay=0.0, blob=0):
            fn()
            time.sleep(delay)
            return equality_report("stub", 3, 1, exact_log_estimate(0.0),
                                   exact_log_estimate(0.0), seed=rng.seed,
                                   inputs={"pid": os.getpid(),
                                           "blob": rng.generator().bytes(blob)})
        monkeypatch.setitem(CHECKS, "stub", check)

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_bytes_do_not_depend_on_worker_count(self, monkeypatch):
        texts = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("SECTLAB_WORKERS", workers)
            res = run_suite(SuiteConfig(seed=4, grid=self.MIXED_GRID,
                                        include_negative_control=True))
            texts.append(json.dumps(res.as_dict(), sort_keys=True, allow_nan=True))
        assert len(set(texts)) == 1
        assert res.status == "error"
        assert [r.inputs["fixture"] for r in res.reports] == [
            "l1ball3", "l1ball3", "ball3/gaussian", "self-test"]
        assert [e.split(":")[0] for e in res.errors] == [
            "bp_identity[bad-k-first]", "bp_identity[bad-k-second]"]

    @pytest.mark.parametrize("workers, children", [("1", 0), ("2", 2)])
    def test_entries_run_in_worker_processes(self, monkeypatch, workers, children):
        self._stub(monkeypatch, lambda: None)
        monkeypatch.setenv("SECTLAB_WORKERS", workers)
        # the sleep keeps one of two children from taking every entry; one worker needs none
        delay = 0.1 if children else 0.0
        grid = [("stub", {"delay": delay}, f"entry{i}") for i in range(6)]
        res = run_suite(SuiteConfig(seed=0, grid=grid))
        pids = {r.inputs["pid"] for r in res.reports}
        assert len(res.reports) == 6
        if children:
            assert os.getpid() not in pids and len(pids) >= children
        else:
            assert pids == {os.getpid()}

    def test_idle_worker_takes_the_next_entry(self, monkeypatch):
        # while one worker runs the long first entry, the other must take every short
        # one; a runner that split the grid between the workers up front would not
        self._stub(monkeypatch, lambda: None)
        monkeypatch.setenv("SECTLAB_WORKERS", "2")
        grid = [("stub", {"delay": 0.5 if i == 0 else 0.01}, f"entry{i}") for i in range(7)]
        pids = [r.inputs["pid"] for r in run_suite(SuiteConfig(seed=0, grid=grid)).reports]
        assert os.getpid() not in pids and len(pids) == 7
        assert pids[0] not in pids[1:] and len(set(pids[1:])) == 1

    def test_large_results_come_back_intact(self, monkeypatch):
        # each result is longer than a pipe holds, so it crosses in many reads
        self._stub(monkeypatch, lambda: None)
        grid = [("stub", {"blob": (1 << 20) + 7 * i}, f"entry{i}") for i in range(5)]
        blobs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("SECTLAB_WORKERS", workers)
            res = run_suite(SuiteConfig(seed=3, grid=grid))
            blobs[workers] = [r.inputs["blob"] for r in res.reports]
        assert [len(b) for b in blobs["2"]] == [(1 << 20) + 7 * i for i in range(5)]
        assert blobs["2"] == blobs["1"] and len(set(blobs["2"])) == 5
        self._assert_no_child_left()

    def test_large_grid_does_not_deadlock(self):
        # 20 000 indices are more than the task pipe holds at once; a deadlock
        # fails this test through the timeout instead of hanging the run
        code = ("import os\n"
                "from sectlab.estimates import equality_report, exact_log_estimate\n"
                "from sectlab.verifier import CHECKS, SuiteConfig, run_suite\n"
                "def stub(rng):\n"
                "    return equality_report('stub', 3, 1, exact_log_estimate(0.0),\n"
                "                           exact_log_estimate(0.0), seed=rng.seed,\n"
                "                           inputs={'pid': os.getpid()})\n"
                "CHECKS['stub'] = stub\n"
                "res = run_suite(SuiteConfig(grid=[('stub', {}, str(i)) for i in range(20000)]))\n"
                "assert [r.inputs['fixture'] for r in res.reports] == [str(i) for i in range(20000)]\n"
                "assert os.getpid() not in {r.inputs['pid'] for r in res.reports}\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": src, "SECTLAB_WORKERS": "2"})

    def _die_in_first_child(self, monkeypatch, tmp_path, die):
        """Run two entries on 2 workers, where the first child to start one calls
        ``die``: the RuntimeError's message, and that child's pid."""
        parent, claim = os.getpid(), tmp_path / "died"

        def die_in_first_child():
            # a runner gone serial must fail this test, not end the test run;
            # the other child sleeps, and must be killed, not waited for
            if os.getpid() != parent:
                try:
                    fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                die()

        self._stub(monkeypatch, die_in_first_child)
        monkeypatch.setenv("SECTLAB_WORKERS", "2")
        start = time.perf_counter()
        with pytest.raises(RuntimeError) as info:
            run_suite(SuiteConfig(seed=0, grid=[("stub", {"delay": 30.0}, "a"),
                                                ("stub", {"delay": 30.0}, "b")]))
        assert time.perf_counter() - start < 15.0
        self._assert_no_child_left()
        return str(info.value), claim.read_text()

    def test_dead_worker_raises(self, monkeypatch, tmp_path):
        message, pid = self._die_in_first_child(monkeypatch, tmp_path, lambda: os._exit(1))
        assert message == f"worker process {pid} died with status 1"

    def test_killed_worker_raises(self, monkeypatch, tmp_path):
        message, pid = self._die_in_first_child(
            monkeypatch, tmp_path, lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert message == f"worker process {pid} died with signal {int(signal.SIGKILL)}"

    def test_worker_killed_while_writing_its_result_raises(self, monkeypatch, tmp_path):
        # the blob fills the result pipe before pickling reaches the object that kills
        # the worker, so this process reads a truncated pickle, which it takes as EOF
        class KillOnPickle:
            def __reduce__(self):
                os.kill(os.getpid(), signal.SIGKILL)

        def check(rng, die):
            inputs = {"blob": bytes(1 << 17)}
            if die:
                (tmp_path / "died").write_text(str(os.getpid()))
                inputs["kill"] = KillOnPickle()
            else:
                time.sleep(30.0)
            return equality_report("stub", 3, 1, exact_log_estimate(0.0),
                                   exact_log_estimate(0.0), seed=rng.seed, inputs=inputs)

        monkeypatch.setitem(CHECKS, "stub", check)
        monkeypatch.setenv("SECTLAB_WORKERS", "2")
        start = time.perf_counter()
        with pytest.raises(RuntimeError) as info:
            run_suite(SuiteConfig(seed=0, grid=[("stub", {"die": True}, "a"),
                                                ("stub", {"die": False}, "b")]))
        assert time.perf_counter() - start < 15.0
        self._assert_no_child_left()
        pid = (tmp_path / "died").read_text()
        signum = int(signal.SIGKILL)
        assert str(info.value) == f"worker process {pid} died with signal {signum}"

    def test_lost_result_raises(self, monkeypatch):
        parent = os.getpid()

        def vanish_in_child():
            if os.getpid() != parent:
                os._exit(0)

        self._stub(monkeypatch, vanish_in_child)
        monkeypatch.setenv("SECTLAB_WORKERS", "2")
        with pytest.raises(RuntimeError, match=r"without results for entries \[0, 1\]$"):
            run_suite(SuiteConfig(seed=0, grid=[("stub", {}, "a"), ("stub", {}, "b")]))
        self._assert_no_child_left()

    @pytest.mark.parametrize("value", ["0", "-1", "two", ""])
    def test_bad_worker_count_raises(self, monkeypatch, value):
        monkeypatch.setenv("SECTLAB_WORKERS", value)
        with pytest.raises(ValueError, match="SECTLAB_WORKERS"):
            run_suite(SuiteConfig(seed=0, grid=[], include_negative_control=True))

    def test_default_worker_count(self, monkeypatch):
        monkeypatch.delenv("SECTLAB_WORKERS", raising=False)
        cpus = len(os.sched_getaffinity(0))
        assert _worker_count(100) == cpus
        assert _worker_count(1) == 1 and _worker_count(0) == 0
        monkeypatch.setenv("SECTLAB_WORKERS", "3")
        assert _worker_count(100) == 3 and _worker_count(2) == 2
