import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from sectlab.bodies import Ellipsoid, LpBall, centered_simplex, cube
from sectlab import sampler
from sectlab.measures import GaussianDensity, IndicatorDensity, LebesgueDensity
from sectlab.sampler import (DegenerateRejectionError, StreamHandle, _quadratic_form,
                             as_generator, sample_restricted, simplex_volume,
                             sphere_directions, uniform_in_body)


class TestStreams:
    def test_same_key_same_output(self):
        a = StreamHandle(12, 7).generator().standard_normal(16)
        b = StreamHandle(12, 7).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_split_streams_differ(self):
        h = StreamHandle(12)
        a = h.split(0).generator().standard_normal(16)
        b = h.split(1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        assert StreamHandle(3).split(9) == StreamHandle(3).split(9)

    def test_as_generator_accepts_int(self):
        assert isinstance(as_generator(5), np.random.Generator)
        with pytest.raises(TypeError):
            as_generator("nope")


class _ScriptedNormals:
    """Stands in for a Generator whose standard_normal returns the given arrays in turn."""

    def __init__(self, *outputs):
        self.outputs = list(outputs)

    def standard_normal(self, shape):
        out = self.outputs.pop(0)
        assert out.shape == shape
        return out.copy()


class TestSphereDirections:
    # 9 columns take the pairwise np.linalg.norm path; the rest the column fold
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9])
    def test_same_bits_as_linalg_norm(self, dim):
        g = StreamHandle(5, dim).generator().standard_normal((5000, dim))
        expected = g / np.linalg.norm(g, axis=-1, keepdims=True)
        got = sphere_directions(StreamHandle(5, dim).generator(), 5000, dim)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_zero_rows_are_redrawn(self, dim):
        draws = StreamHandle(6, dim).generator().standard_normal((12, dim))
        first = draws[:10].copy()
        first[[2, 7]] = 0.0
        # the first redraw of rows 2 and 7 gives row 2 a zero again
        second = np.vstack([np.zeros(dim), draws[10]])
        got = sphere_directions(_ScriptedNormals(first, second, draws[11:]), 10, dim)
        g = first.copy()
        g[2], g[7] = draws[11], draws[10]
        assert got.tobytes() == (g / np.linalg.norm(g, axis=-1, keepdims=True)).tobytes()


# 200 handles: split children (64-bit stream ids) of small and large seeds
HANDLES = [StreamHandle(seed).split(j) for seed in (0, 11, 2 ** 64 - 3, -5) for j in range(50)]


class TestStreamNormals:
    @pytest.mark.parametrize("shape", [(2, 1), (3, 2), (4, 3), (300, 1), (300, 2), (300, 3)])
    def test_equal_per_handle_generators(self, shape):
        got = sampler._stream_normals(sampler._rekeyable(), HANDLES, shape)
        expected = np.stack([h.generator().standard_normal(shape) for h in HANDLES])
        assert got.tobytes() == expected.tobytes()

    def test_rekeyed_after_an_odd_number_of_uint32s(self):
        gen = sampler._rekeyable()
        gen.integers(0, 2 ** 32, size=3, dtype=np.uint32)
        gen.random(5)
        assert gen.bit_generator.state["has_uint32"] == 1
        got = sampler._stream_normals(gen, HANDLES[:3], (7, 2))
        expected = np.stack([h.generator().standard_normal((7, 2)) for h in HANDLES[:3]])
        assert got.tobytes() == expected.tobytes()


class TestStreamDirections:
    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_equal_stacked_sphere_directions(self, dim):
        got = sampler._stream_directions(sampler._rekeyable(), HANDLES, 25, dim)
        expected = np.stack([sphere_directions(h.generator(), 25, dim) for h in HANDLES])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_row_stream_is_redrawn_by_sphere_directions(self, monkeypatch, dim):
        handles = HANDLES[:6]
        draws = handles[2].generator().standard_normal((11, dim))
        first = draws[:10].copy()
        first[4] = 0.0
        block_normals = sampler._stream_normals
        original = StreamHandle.generator
        asked = []

        def zero_row_in_stream_2(gen, hs, shape):
            out = block_normals(gen, hs, shape)
            out[2] = first
            return out

        def generator(self):
            # stream 2 as if its normals held the zero row; its redraw is draws[10]
            asked.append(self)
            return _ScriptedNormals(first, draws[10:]) if self == handles[2] else original(self)

        monkeypatch.setattr(sampler, "_stream_normals", zero_row_in_stream_2)
        monkeypatch.setattr(StreamHandle, "generator", generator)
        got = sampler._stream_directions(sampler._rekeyable(), handles, 10, dim)
        assert asked == [handles[2]]
        expected = np.stack([sphere_directions(h.generator(), 10, dim) for h in handles])
        assert got.tobytes() == expected.tobytes()
        g = first.copy()
        g[4] = draws[10]
        assert got[2].tobytes() == (g / np.linalg.norm(g, axis=-1, keepdims=True)).tobytes()


class TestQuadraticForm:
    @staticmethod
    def _einsum(x, m):
        # the reference the column fold replaced
        return np.einsum("...i,ij,...j->...", x, m, x)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(24_000,), (6, 4000)], ids=["rows", "blocks"])
    def test_identity_matrix_gives_the_einsum_bits(self, n, shape):
        # P = I is every default and workload Gaussian's precision
        x = sphere_directions(StreamHandle(n).generator(), 24_000, n).reshape(*shape, n)
        assert np.array_equal(_quadratic_form(x, np.eye(n)), self._einsum(x, np.eye(n)))

    def test_workload_ellipsoid_within_rounding(self):
        ellipsoid = Ellipsoid(np.array([[2.0, 0.6, 0.2], [0.6, 1.0, 0.3],
                                        [0.2, 0.3, 0.5]]))
        x = sphere_directions(StreamHandle(5).generator(), 4000, 3).reshape(4, 1000, 3)
        np.testing.assert_allclose(_quadratic_form(x, ellipsoid._inv),
                                   self._einsum(x, ellipsoid._inv), rtol=1e-15, atol=0)
        np.testing.assert_allclose(ellipsoid.radial(x),
                                   1.0 / np.sqrt(self._einsum(x, ellipsoid._inv)),
                                   rtol=1e-15, atol=0)


class TestUniformInBody:
    def test_ball_second_moment(self):
        pts = uniform_in_body(LpBall(3, 2.0), StreamHandle(1), size=100_000)
        r2 = np.sum(pts ** 2, axis=1)
        se = r2.std(ddof=1) / math.sqrt(len(r2))
        assert abs(r2.mean() - 0.6) <= 3 * se

    def test_cube_coordinate_variance(self):
        pts = uniform_in_body(cube(3), StreamHandle(2), size=100_000)
        for i in range(3):
            v = pts[:, i] ** 2
            se = v.std(ddof=1) / math.sqrt(len(v))
            assert abs(v.mean() - 1 / 3) <= 3 * se

    @pytest.mark.parametrize("body", [LpBall(3, 2.0), cube(3), LpBall(3, 1.0),
                                      LpBall(2, 3.0, 1.5), centered_simplex(3)])
    def test_draws_are_inside(self, body):
        pts = uniform_in_body(body, StreamHandle(3), size=5000)
        assert bool(np.all(body.contains(pts)))

    def test_single_draw_shape(self):
        x = uniform_in_body(cube(2), StreamHandle(4))
        assert x.shape == (2,)

    def test_quadrant_uniformity_on_disc(self):
        pts = uniform_in_body(LpBall(2, 2.0), StreamHandle(5), size=40_000)
        quadrant = (pts[:, 0] > 0).astype(int) * 2 + (pts[:, 1] > 0).astype(int)
        counts = np.bincount(quadrant, minlength=4)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_understated_bounding_radius_raises(self):
        class Understated(LpBall):
            def bounding_radius(self):
                return 0.5

        with pytest.raises(ValueError, match="bounding radius"):
            uniform_in_body(Understated(3, 2.0), StreamHandle(12), size=100)


class TestSampleRestricted:
    def test_lebesgue_accepts_everything(self):
        out = sample_restricted(LebesgueDensity(3), cube(3), StreamHandle(6), size=2000)
        assert out.acceptance_rate == 1.0
        assert bool(np.all(cube(3).contains(out.points)))

    def test_gaussian_on_ball_truncated_moment(self):
        # independent oracle: one-dimensional quadrature of the radial law
        num = integrate.quad(lambda r: r ** 4 * math.exp(-r * r / 2), 0, 1)[0]
        den = integrate.quad(lambda r: r ** 2 * math.exp(-r * r / 2), 0, 1)[0]
        expected = num / den
        assert expected == pytest.approx(0.5650504956, rel=1e-8)   # frozen oracle value
        out = sample_restricted(GaussianDensity(3), LpBall(3, 2.0), StreamHandle(7),
                                size=60_000)
        r2 = np.sum(out.points ** 2, axis=1)
        se = r2.std(ddof=1) / math.sqrt(len(r2))
        assert abs(r2.mean() - expected) <= 3 * se

    def test_even_density_symmetric_body_centered(self):
        out = sample_restricted(GaussianDensity(2), cube(2), StreamHandle(8), size=40_000)
        se = out.points.std(axis=0, ddof=1) / math.sqrt(len(out.points))
        assert np.all(np.abs(out.points.mean(axis=0)) <= 3 * se)

    def test_understated_density_bound_raises(self):
        class Understated(GaussianDensity):
            def sup_on(self, body):
                return 0.5

        with pytest.raises(ValueError, match="exceeds its bound"):
            sample_restricted(Understated(2), cube(2), StreamHandle(13), size=100)

    def test_degenerate_rejection_raises(self):
        needle = IndicatorDensity(LpBall(3, 2.0, 0.01))
        with pytest.raises(DegenerateRejectionError):
            sample_restricted(needle, cube(3), StreamHandle(9), size=50)


class TestSimplexVolume:
    def test_unit_right_triangle(self):
        assert simplex_volume(np.eye(2)) == pytest.approx(0.5)

    def test_segment_length(self):
        assert simplex_volume(np.array([[-0.7]])) == pytest.approx(0.7)

    def test_degenerate_is_zero(self):
        pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
        assert simplex_volume(pts) == pytest.approx(0.0, abs=1e-15)

    def test_batch_shape(self):
        batch = np.random.default_rng(0).standard_normal((50, 3, 3))
        vols = simplex_volume(batch)
        assert vols.shape == (50,)
        assert np.all(vols >= 0)

    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        gen = np.random.default_rng(seed)
        pts = gen.standard_normal((3, 3))
        perm = gen.permutation(3)
        v1, v2 = simplex_volume(pts), simplex_volume(pts[perm])
        assert v2 == pytest.approx(v1, rel=1e-10)

    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_orthogonal_invariance(self, seed):
        gen = np.random.default_rng(seed)
        pts = gen.standard_normal((4, 4))
        q, _ = np.linalg.qr(gen.standard_normal((4, 4)))
        assert simplex_volume(pts @ q.T) == pytest.approx(simplex_volume(pts), rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            simplex_volume(np.ones((3, 2)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_closed_form_matches_lapack(self, m):
        stack = np.random.default_rng(m).standard_normal((20, 30, m, m))
        expected = np.abs(np.linalg.det(stack)) / math.factorial(m)
        assert np.allclose(simplex_volume(stack), expected, rtol=1e-9, atol=1e-15)
