import math
import warnings

import numpy as np
import pytest
from scipy import special

from sectlab.bodies import LpBall, cube
from sectlab.grassmann import Frame, sample_haar
from sectlab.measures import (DensityOracle, GaussianDensity, LebesgueDensity, QuadratureError,
                              RadialExpDensity, _gamma_ray_mass, _log_gammainc,
                              _radial_integrals, _section_measure_values, density_from_spec,
                              measure_of_body)
from sectlab.sampler import StreamHandle, _point_set, sample_restricted, sphere_directions
from sectlab.verifier import check_dpp, check_slicing_chain

# closed-form oracles: (2 pi)^(3/2) P[chi^2_3 <= 1] and 2 pi (1 - e^(-1/2))
GAUSS_BALL3 = (2 * math.pi) ** 1.5 * special.gammainc(1.5, 0.5)
GAUSS_DISC = 2 * math.pi * (1 - math.exp(-0.5))


class SectionDensity(DensityOracle):
    """Reference adaptor: the ambient density read in a frame's coordinates, g(embed(u))."""

    def __init__(self, density, frame):
        super().__init__(frame.s)
        self.ambient, self.frame = density, frame

    def __call__(self, u):
        return self.ambient(self.frame.embed(np.asarray(u, dtype=float)))


class CauchyDensity(DensityOracle):
    """g(x) = 1 / (1 + |x|^2): no closed-form ray mass, so the generic quadrature runs."""

    radially_nonincreasing = True

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (1.0 + np.sum(x * x, axis=-1))


class WavyDensity(DensityOracle):
    """g(x) = exp(-|x|^2 / 2) (1 + cos(40 x_1) / 2): no closed form, and a long ray needs
    more quadrature panels than a short one."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * np.sum(x * x, axis=-1)) * (1.0 + 0.5 * np.cos(40.0 * x[..., 0]))


def measure_of_section(density, body, frame, sphere_samples, rng):
    """mu(K cap F) and its std error: the mean of the section kernel over uniform
    directions of F."""
    theta = sphere_directions(rng.generator(), sphere_samples, frame.s)
    vals = _section_measure_values(density, [body], frame.embed(theta), frame.s)[0]
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


class TestMeasureOfBody:
    def test_lebesgue_is_volume(self):
        est = measure_of_body(LebesgueDensity(3), LpBall(3, 2.0), 500, StreamHandle(1))
        assert math.exp(est.value) == pytest.approx(4 * math.pi / 3, rel=1e-9)

    def test_gaussian_ball3(self):
        assert GAUSS_BALL3 == pytest.approx(3.1302041562817155, rel=1e-12)
        est = measure_of_body(GaussianDensity(3), LpBall(3, 2.0), 200, StreamHandle(2))
        # radial density on a ball: zero spread, quadrature-level accuracy
        assert math.exp(est.value) == pytest.approx(GAUSS_BALL3, rel=1e-8)

    def test_gaussian_disc(self):
        assert GAUSS_DISC == pytest.approx(2.4722407777192264, rel=1e-12)
        est = measure_of_body(GaussianDensity(2), LpBall(2, 2.0), 200, StreamHandle(3))
        assert math.exp(est.value) == pytest.approx(GAUSS_DISC, rel=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            measure_of_body(GaussianDensity(2), cube(3), 200, StreamHandle(0))

    def test_too_few_sphere_samples(self):
        assert measure_of_body(LebesgueDensity(3), cube(3), 100, StreamHandle(0)).n_samples == 100
        with pytest.raises(ValueError, match="need at least 100 sphere samples, got 99$"):
            measure_of_body(LebesgueDensity(3), cube(3), 99, StreamHandle(0))


def _closed_form_kinds(n):
    gen = StreamHandle(30 + n).generator()
    a = gen.standard_normal((n, n))
    return [LebesgueDensity(n), GaussianDensity(n), GaussianDensity(n, sigma=0.7),
            GaussianDensity(n, precision=a @ a.T + 0.5 * np.eye(n)),
            RadialExpDensity(n), RadialExpDensity(n, rate=2.3)]


HALF_INTEGERS = [j / 2 for j in range(1, 17)]


class TestIncompleteGamma:
    @pytest.mark.parametrize("a", HALF_INTEGERS)
    def test_matches_scipy_on_0_to_50(self, a):
        # one block spans both the series and the continued fraction
        x = np.concatenate([np.linspace(0.0, 50.0, 5001), np.geomspace(1e-9, 50.0, 2000),
                            [a + 1.0, np.nextafter(a + 1.0, 0.0)]])
        assert np.allclose(np.exp(_log_gammainc(a, x)), special.gammainc(a, x),
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("a", HALF_INTEGERS)
    def test_an_entry_does_not_depend_on_its_block(self, a):
        # report bytes must not depend on how directions are blocked
        x = np.random.default_rng(int(2 * a)).uniform(0.0, 3.0 * a + 3.0, 60)
        single = np.array([_log_gammainc(a, x[i:i + 1])[0] for i in range(len(x))])
        assert np.array_equal(single, _log_gammainc(a, x))
        assert np.allclose(np.exp(single), special.gammainc(a, x), rtol=1e-12, atol=0)

    def test_keeps_the_shape_of_a_frame_block(self):
        x = np.random.default_rng(5).uniform(0.0, 6.0, (4, 25))
        block = _log_gammainc(1.5, x)
        assert block.shape == (4, 25)
        assert np.array_equal(block.reshape(-1), _log_gammainc(1.5, x.reshape(-1)))

    @pytest.mark.parametrize("a", HALF_INTEGERS)
    def test_ray_mass_matches_scipy(self, a):
        gen = np.random.default_rng(int(4 * a))
        log_scale, x = gen.uniform(-3.0, 3.0, 300), gen.uniform(0.0, 50.0, 300)
        ref = np.exp(log_scale + special.gammaln(a) + np.log(special.gammainc(a, x)))
        assert np.allclose(_gamma_ray_mass(a, log_scale, x), ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("a", HALF_INTEGERS)
    def test_edges(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gamma_ray_mass(a, np.zeros(2), np.array([0.0, 0.0])).tolist() == [0.0, 0.0]
            assert np.exp(_log_gammainc(a, np.array([200.0, 800.0, 1e6]))).tolist() == [1.0] * 3


class TestRayMass:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("power", [1.0, 2.0, 3.0, 4.0, 5.0])
    def test_closed_forms_match_quadrature(self, n, power):
        gen = StreamHandle(40 + n).generator()
        # non-unit directions: the mass is of r -> g(r dir), so ||dir|| must enter
        dirs = sphere_directions(gen, 50, n) * gen.uniform(0.5, 2.0, (50, 1))
        upper = gen.uniform(0.2, 3.0, 50)
        for density in _closed_form_kinds(n):
            exact = density.ray_mass(dirs, upper, power)
            # the base-class path: Gauss-Legendre quadrature
            quad = DensityOracle.ray_mass(density, dirs, upper, power)
            assert np.allclose(exact, quad, rtol=1e-12, atol=0), (density, power)

    @pytest.mark.parametrize("power", [2.5, 0.0])
    def test_generic_path_needs_a_positive_integer_power(self, power):
        gen = StreamHandle(46).generator()
        dirs, upper = sphere_directions(gen, 20, 3), gen.uniform(0.2, 3.0, 20)
        with pytest.raises(ValueError, match="positive integer power"):
            DensityOracle.ray_mass(GaussianDensity(3), dirs, upper, power)

    def test_integer_power_fallback_is_radial_integrals(self):
        g = GaussianDensity(3)
        gen = StreamHandle(47).generator()
        dirs, upper = sphere_directions(gen, 20, 3), gen.uniform(0.2, 3.0, 20)
        assert np.array_equal(DensityOracle.ray_mass(g, dirs, upper, 3.0),
                              _radial_integrals(g, dirs, upper, 3.0))

    def test_generic_path_takes_frame_blocks(self):
        # a block of frames' directions (B, count, n) gives its flattened call's values
        gen = StreamHandle(51).generator()
        dirs = sphere_directions(gen, 60, 3).reshape(4, 15, 3)
        upper = gen.uniform(0.2, 3.0, (4, 15))
        g = CauchyDensity(3)
        block = g.ray_mass(dirs, upper, 2.0)
        assert block.shape == (4, 15)
        assert np.array_equal(block.reshape(-1),
                              g.ray_mass(dirs.reshape(-1, 3), upper.reshape(-1), 2.0))

    def test_generic_path_takes_stacked_bodies(self):
        # the section kernel's (B, 1, count, n) directions against (B, bodies, count) radii:
        # each body's rows keep the bits of its call alone, though the rays of the large
        # cube settle at more panels than those of the small cross-polytope
        g, bodies = WavyDensity(3), [cube(3, 4.0), LpBall(3, 1.0)]
        theta = sphere_directions(StreamHandle(65).generator(), 60, 2)
        dirs = sample_haar(3, 2, StreamHandle(66)).embed(theta).reshape(4, 15, 3)
        both = _section_measure_values(g, bodies, dirs, 2)
        assert both.shape == (4, 2, 15)
        for i, body in enumerate(bodies):
            alone = _section_measure_values(g, [body], dirs, 2)[:, 0]
            assert both[:, i].tobytes() == alone.tobytes()

    def test_section_checks_run_on_the_generic_path(self):
        g = CauchyDensity(3)
        assert check_slicing_chain(g, cube(3), 1, 20, 200, StreamHandle(52)).passed
        assert check_dpp(g, cube(3), 1, 20, 200, StreamHandle(53)).passed

    @pytest.mark.parametrize("body", [cube(3), LpBall(3, 1.0)], ids=["cube3", "l1ball3"])
    def test_section_values_match_section_density_quadrature(self, body):
        frame = sample_haar(3, 2, StreamHandle(49))
        theta = sphere_directions(StreamHandle(50).generator(), 300, 2)
        rho = body.radial(frame.embed(theta))
        for density in _closed_form_kinds(3):
            sec = SectionDensity(density, frame)
            reference = 2 * math.pi * _radial_integrals(sec, theta, rho, 2.0)
            values = _section_measure_values(density, [body], frame.embed(theta), 2)[0]
            assert np.allclose(values, reference, rtol=1e-12, atol=0), density

    @pytest.mark.parametrize("precision", [[[1.0, 0.0], [0.0, -1.0]],
                                           [[1.0, 0.0], [0.0, 0.0]],
                                           [[1.0, 0.5], [0.0, 1.0]]],
                             ids=["indefinite", "singular", "asymmetric"])
    def test_gaussian_rejects_non_spd_precision(self, precision):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianDensity(2, precision=np.array(precision))

    def test_gaussian_takes_sigma_or_precision_not_both(self):
        assert GaussianDensity(3).sigma == 1.0
        assert GaussianDensity(3, precision=np.eye(3)).sigma is None
        with pytest.raises(ValueError, match="not both"):
            GaussianDensity(3, sigma=2.0, precision=np.eye(3))


class TestMeasureOfSection:
    def test_ball_disc_section(self):
        f = sample_haar(3, 2, StreamHandle(5))
        mean, _ = measure_of_section(LebesgueDensity(3), LpBall(3, 2.0), f, 200, StreamHandle(6))
        assert mean == pytest.approx(math.pi, rel=1e-9)

    def test_gaussian_section_reduces_to_disc(self):
        f = sample_haar(3, 2, StreamHandle(7))
        mean, _ = measure_of_section(GaussianDensity(3), LpBall(3, 2.0), f, 200, StreamHandle(8))
        assert mean == pytest.approx(GAUSS_DISC, rel=1e-8)

    def test_axis_cube_section(self):
        f = Frame(np.eye(3)[:, :2])
        mean, se = measure_of_section(LebesgueDensity(3), cube(3), f, 3000, StreamHandle(9))
        assert abs(mean - 4.0) <= 3 * se + 1e-9

    @pytest.mark.parametrize("basis, area", [
        (np.eye(3)[:, :2], 4.0),
        (np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / [math.sqrt(2.0), math.sqrt(6.0)],
         3.0 * math.sqrt(3.0)),
    ], ids=["square", "hexagon"])
    def test_exact_cube_sections_through_the_section_kernel(self, basis, area):
        # the regular 16384-gon's directions integrate pi rho^2 over the plane: the square
        # e1, e2 and the regular hexagon perpendicular to (1, 1, 1), of side sqrt 2
        dirs = Frame(basis).embed(_point_set(2, 16384))
        values = _section_measure_values(LebesgueDensity(3), [cube(3)], dirs, 2)[0]
        assert values.mean() == pytest.approx(area, rel=1e-6, abs=0)

    def test_codim_one_segment(self):
        # s = 1 sections of the disc are diameters of length 2
        f = sample_haar(2, 1, StreamHandle(10))
        mean, _ = measure_of_section(LebesgueDensity(2), LpBall(2, 2.0), f, 100, StreamHandle(11))
        assert mean == pytest.approx(2.0, rel=1e-9)


class TestSupOnAndSectionDensity:
    def test_sup_is_value_at_origin_for_radial_kinds(self):
        for density in (LebesgueDensity(3), GaussianDensity(3), RadialExpDensity(3)):
            assert density.sup_on(cube(3)) == pytest.approx(1.0)

    def test_sup_of_other_kinds_raises(self):
        # sup_K g = e is off the origin; every bound-taking caller raises, none estimates it
        class Tilted(DensityOracle):
            def __init__(self):
                super().__init__(2)

            def __call__(self, x):
                x = np.asarray(x, dtype=float)
                return np.exp(x[..., 0])

        density = Tilted()
        with pytest.raises(ValueError, match="Tilted .*override sup_on"):
            density.sup_on(cube(2))
        with pytest.raises(ValueError, match="override sup_on"):
            check_dpp(density, cube(2), 1, 20, 100, StreamHandle(3))
        with pytest.raises(ValueError, match="override sup_on"):
            sample_restricted(density, cube(2), StreamHandle(3), size=10)


class TestQuadratureControl:
    def test_wild_density_raises_with_direction(self):
        class Wild(DensityOracle):
            def __init__(self):
                super().__init__(2)

            def __call__(self, x):
                r = np.linalg.norm(np.asarray(x, float), axis=-1)
                return 1.0 + 0.9 * np.sin(3.0e5 * r)

        with pytest.raises(QuadratureError) as err:
            measure_of_body(Wild(), LpBall(2, 2.0), 100, StreamHandle(19))
        assert err.value.direction is not None

    def test_error_names_the_direction_that_does_not_settle(self):
        class HalfWild(DensityOracle):
            def __call__(self, x):
                x = np.asarray(x, float)
                r = np.linalg.norm(x, axis=-1)
                return np.where(x[..., 0] > 0, 1.0 + 0.9 * np.sin(3.0e5 * r), 1.0)

        dirs = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(QuadratureError) as err:
            _radial_integrals(HalfWild(2), dirs, np.ones(4), 2.0)
        assert err.value.direction.tolist() == [1.0, 0.0]


class TestDensitySpecs:
    def test_kinds(self):
        assert isinstance(density_from_spec({"kind": "lebesgue"}, 3), LebesgueDensity)
        g = density_from_spec({"kind": "gaussian", "sigma": 2.0}, 2)
        assert isinstance(g, GaussianDensity) and g.sigma == 2.0
        r = density_from_spec({"kind": "radial_exp", "rate": 0.5}, 4)
        assert isinstance(r, RadialExpDensity) and r.rate == 0.5

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown density kind"):
            density_from_spec({"kind": "cauchy"}, 2)
