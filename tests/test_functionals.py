import math
import statistics
from functools import reduce
from operator import add

import numpy as np
import pytest

from sectlab import functionals, sampler
from sectlab.bodies import Ellipsoid, HPolytope, LpBall, centered_simplex, cube, linear_image
from sectlab.constants import log_ball_volume, log_gamma_nk
from sectlab.estimates import log_mean_estimate, log_power_product
from sectlab.functionals import (_AUX, dual_affine_quermass, log_measure_estimate,
                                 log_volume_estimate, section_volume_values)
from sectlab.grassmann import Frame, sample_haar
from sectlab.measures import (GaussianDensity, LebesgueDensity, RadialExpDensity,
                              _section_measure_values, measure_of_body, section_measure_values)
from sectlab.sampler import StreamHandle, sphere_directions

# a non-diagonal ellipsoid {x : x^T A^{-1} x <= 1} in R^3 and one in R^4
_ELLIPSOID3 = np.array([[2.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 0.5]])
_ELLIPSOID4 = np.array([[2.0, 0.6, 0.2, 0.1], [0.6, 1.0, 0.3, 0.0],
                        [0.2, 0.3, 0.5, 0.1], [0.1, 0.0, 0.1, 0.8]])


def _rule_point(s, m, i):
    """Point i of the fixed set of m points on S^(s-1), in Python floats."""
    if s == 2:
        return [math.cos(2.0 * math.pi * i / m), math.sin(2.0 * math.pi * i / m)]
    if s == 3:
        golden_angle = math.pi * (3.0 - math.sqrt(5.0))
        z = 1.0 - (2 * i + 1) / m
        r = math.sqrt(1.0 - z * z)
        return [r * math.cos(golden_angle * i), r * math.sin(golden_angle * i), z]
    if s == 4:
        # super-Fibonacci: radii sqrt(t), sqrt(1 - t), angles 2 pi (i + 1/2) / sqrt(2), / psi
        angle, t = 2.0 * math.pi * (i + 0.5), (i + 0.5) / m
        alpha, beta = angle / math.sqrt(2.0), angle / 1.533751168755204
        return [math.sqrt(t) * math.sin(alpha), math.sqrt(t) * math.cos(alpha),
                math.sqrt(1.0 - t) * math.sin(beta), math.sqrt(1.0 - t) * math.cos(beta)]
    # s >= 5: normal quantiles of ((i + 1/2) / m, frac((i + 1/2) / phi^c)), phi^s = phi + 1
    phi = 2.0
    for _ in range(100):
        phi = (1.0 + phi) ** (1.0 / s)
    assert abs(phi ** s - phi - 1.0) <= 1e-14
    quantile = statistics.NormalDist().inv_cdf
    g = [quantile((i + 0.5) / m)] + [quantile(math.modf((i + 0.5) / phi ** c)[0])
                                     for c in range(1, s)]
    norm = math.sqrt(math.fsum(x * x for x in g))
    return [x / norm for x in g]


def _haar_draw(gen, n, s):
    """The Haar matrix of gen's next Gaussian (n, s) draw, written out by Gram-Schmidt:
    column j, projected twice off each column before it in turn, then divided by its
    norm, sums taken in order."""
    g = gen.standard_normal((n, s)).tolist()
    columns = []
    for j in range(s):
        v = [row[j] for row in g]
        for _ in range(2):
            for q in columns:
                dot = reduce(add, [a * b for a, b in zip(q, v)])
                v = [b - dot * a for a, b in zip(q, v)]
        norm = math.sqrt(reduce(add, [x * x for x in v]))
        columns.append([x / norm for x in v])
    return np.array([list(row) for row in zip(*columns)])


def _reference_frames(gen, n, s, count):
    """count frames of G(n, s), n >= 3, from gen, written out: for s = 1 or n - 1 the outer
    rule, point i of P_n(count) under the Haar rotation of one Gaussian (n, n) draw, a
    line or a normal u completed to a basis by the first n - 1 columns of
    I - 2 v v^T / v^T v, v = u + sign(u_n) e_n; otherwise Haar draws one at a time."""
    if s not in (1, n - 1):
        return [_haar_draw(gen, n, s) for _ in range(count)]
    rule = np.array([_rule_point(n, count, i) for i in range(count)])
    frames = []
    for u in (rule @ _haar_draw(gen, n, n).T).tolist():
        if s == 1:
            frames.append(np.array(u)[:, None])
            continue
        v = u[:-1] + [u[-1] + math.copysign(1.0, u[-1])]
        scale = 2.0 / reduce(add, [x * x for x in v])
        frames.append(np.array([[float(i == j) - v[i] * (v[j] * scale) for j in range(n - 1)]
                                for i in range(n)]))
    return frames


def _lattice_order(m, g):
    """Group g of m points takes point a_g j mod m as its row j: a_0 = 1, a_g the integer
    nearest m / phi^g raised until coprime to m."""
    a = round(m / ((1.0 + math.sqrt(5.0)) / 2.0) ** g) if g else 1
    while math.gcd(a, m) != 1:
        a += 1
    return [a * j % m for j in range(m)]


def _rule_directions(gen, basis, count, groups=None):
    """One frame's (count, n) embedded directions, written out group by group: the
    ``groups`` (default n) groups of np.array_split, group g the fixed point set P in
    :func:`_lattice_order` under its rotation R, embedded as P (B R)^T.  R is the frame's
    next Haar draw of O(s).  (B R)^T is made contiguous, as the design holds it: numpy's
    product of one point with a transposed view sums in another order."""
    n, s = basis.shape
    groups = n if groups is None else groups
    rotations = [_haar_draw(gen, s, s) for _ in range(groups)]
    sizes = [len(group) for group in np.array_split(np.arange(count), groups)]
    rows = []
    for g, (rotation, m) in enumerate(zip(rotations, sizes)):
        points = np.array([_rule_point(s, m, i) for i in _lattice_order(m, g)]).reshape(m, s)
        rows.append(points @ np.ascontiguousarray((basis @ rotation).T))
    return np.concatenate(rows)


class TestSectionPowerFunctional:
    def test_ball3_exact(self):
        est = dual_affine_quermass(LpBall(3, 2.0), 1, 50, 400, StreamHandle(24))
        assert math.exp(est.value) == pytest.approx(1.2089939655123523, rel=1e-9)
        assert math.exp(est.value) == pytest.approx(math.exp(-log_gamma_nk(3, 1)), rel=1e-12)

    def test_ball4_k2_exact(self):
        est = dual_affine_quermass(LpBall(4, 2.0), 2, 50, 400, StreamHandle(25))
        assert math.exp(est.value) == pytest.approx(2 ** 0.25, rel=1e-9)

    def test_cube3_below_ball(self):
        # the cube's value sits near 1.1985, so the 3 SE band needs a few
        # thousand frames to clear the ball value 1.2090
        est = dual_affine_quermass(cube(3), 1, 2500, 1000, StreamHandle(26)).as_dict()
        ball = 1.2089939655123523
        assert est["value"] + 3 * est["se"] < ball
        assert est["value"] - 3 * est["se"] > 1.0

    def test_sl_invariance(self):
        # common random frames: one frame count and one handle
        handle = StreamHandle(28)
        a = dual_affine_quermass(cube(3), 1, 700, 1500, handle).as_dict()
        b = dual_affine_quermass(linear_image(cube(3), np.diag([2.0, 0.5, 1.0])),
                                 1, 700, 1500, handle).as_dict()
        assert abs(a["value"] - b["value"]) <= 3 * math.hypot(a["se"], b["se"])

    def test_dominated_by_max_sampled_section(self):
        # the power mean never exceeds the largest sampled section volume^(1/k)
        body = cube(3)
        handle = StreamHandle(29)
        est = dual_affine_quermass(body, 1, 200, 600, handle).as_dict()
        vols = functionals._FrameDesign(200, 3, 1, 600, handle).map(
            lambda dirs, _: _section_measure_values(LebesgueDensity(3), [body], dirs,
                                                 2)[:, 0].mean(axis=-1))
        max_normalized = max(vols) / body.exact_volume ** (2 / 3)
        assert est["value"] <= max_normalized * (1 + 3 * est["se"] / est["value"] + 1e-9)


def test_zero_sphere_samples_is_an_error():
    with pytest.raises(ValueError, match="sphere direction per frame, got 0$"):
        dual_affine_quermass(cube(3), 1, 10, 0, StreamHandle(39))


def test_log_volume_estimate_of_unknown_volume_uses_fixed_samples():
    body = HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    assert body.exact_volume is None
    est = log_volume_estimate(body, StreamHandle(42))
    assert est.n_samples == 20_000
    assert abs(est.value - math.log(8.0)) <= 3 * est.std_error


class TestMeasureRule:
    """log mu(K) on a check entry's stream: |K| itself at Lebesgue, else its own substream."""

    BOX = HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 1.6))

    def test_volume_draws_from_its_substream(self):
        rng = StreamHandle(43)
        est = log_volume_estimate(self.BOX, rng)
        ref = measure_of_body(LebesgueDensity(3), self.BOX, 20_000, rng.split(_AUX))
        assert (est.value, est.std_error) == (ref.value, ref.std_error)

    @pytest.mark.parametrize("body", [BOX, cube(3)], ids=["sampled", "exact"])
    def test_lebesgue_measure_is_the_volume(self, body):
        rng = StreamHandle(44)
        assert (log_measure_estimate(LebesgueDensity(3), body, 300, rng)
                == log_volume_estimate(body, rng))

    def test_dimension_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="density dimension 4 != body dimension 3"):
            log_measure_estimate(LebesgueDensity(4), cube(3), 300, StreamHandle(46))

    def test_other_density_draws_from_its_own_substream(self):
        rng = StreamHandle(45)
        est = log_measure_estimate(GaussianDensity(3), self.BOX, 300, rng)
        ref = measure_of_body(GaussianDensity(3), self.BOX, 300, rng.split(_AUX + 1))
        assert est == ref and est.n_samples == 300


class TestFrameBlockReference:
    """The frame-block kernel against the per-frame loop it batches, bit for bit."""

    @pytest.mark.parametrize("n,s", [(3, 2), (3, 1), (4, 2)])
    def test_haar_stack_equals_sample_haar(self, n, s):
        # one draw of the (count, n, s) stack gives the bits of count draws in turn:
        # Gram-Schmidt's, and sample_haar's, for G(4, 2), the outer rule's for G(3, 2)
        # and G(3, 1)
        frames = [basis.tobytes() for basis in functionals._haar_stack(
            n, s, 40, StreamHandle(50).generator())]
        gen = StreamHandle(50).generator()
        assert frames == [f.tobytes() for f in _reference_frames(gen, n, s, 40)]
        if (n, s) == (4, 2):
            gen = StreamHandle(50).generator()
            assert frames == [sample_haar(n, s, gen).basis.tobytes() for _ in range(40)]

    @pytest.mark.parametrize("body", [
        cube(3), LpBall(3, 1.0), centered_simplex(3),
        linear_image(cube(3), np.array([[1.2, 0.3, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 0.8]]))],
        ids=["cube3", "l1ball3", "simplex3", "linear_image"])
    def test_dual_affine_quermass_equals_per_frame_loop(self, body):
        n, k, frames, samples = 3, 1, 30, 300
        rng = StreamHandle(52)
        omega = math.exp(log_ball_volume(n - k))
        gen = rng.split(0).generator()
        bases = [Frame(basis) for basis in _reference_frames(gen, n, n - k, frames)]
        logs = []
        for j, frame in enumerate(bases):
            # the one-frame wrapper keeps iid directions on the stream it is given
            sub = rng.split(1).split(j)
            theta = sphere_directions(sub.generator(), samples, n - k)
            one_frame = section_volume_values(body, frame, samples, sub)
            assert one_frame.tobytes() == (omega * body.radial(frame.embed(theta))
                                           ** (n - k)).tobytes()
            values = omega * body.radial(_rule_directions(gen, frame.basis, samples)) ** (n - k)
            logs.append(sum(math.log(g.mean()) for g in np.array_split(values, n)))
        # the 1/(kn) root of the frame mean over |K|^(n-k), on the log scale
        mean_log = log_mean_estimate(np.array(logs))
        root = 1 / (k * n)
        expected = ((mean_log.value - (n - k) * math.log(body.exact_volume)) * root,
                    mean_log.std_error * root)
        est = dual_affine_quermass(body, k, frames, samples, rng)
        assert (est.value, est.std_error) == expected

    def test_section_measure_values_keep_per_frame_bytes(self):
        density, body = GaussianDensity(3), LpBall(3, 1.0)
        frame = sample_haar(3, 2, StreamHandle(53))
        theta = sphere_directions(StreamHandle(54).generator(), 300, 2)
        dirs = frame.embed(theta)
        expected = (2 * math.exp(log_ball_volume(2))
                    * density.ray_mass(dirs, body.radial(dirs), 2.0))
        got = section_measure_values(density, body, frame, 300, StreamHandle(54))
        assert got.tobytes() == expected.tobytes()

    def test_log_power_product_rows_equal_one_dimensional_calls(self):
        values = np.random.default_rng(3).exponential(1.0, (6, 61))
        values[4, :21] = 0.0          # the first of 3 groups of row 4
        rows = log_power_product(values, 3)
        assert rows.shape == (6,)
        assert rows.tolist() == [log_power_product(v, 3) for v in values]
        assert rows[4] == -math.inf


class TestFrameDesign:
    """The frame design's blocks of directions against a plain per-frame loop, bit for bit.

    rng.split(0) draws every frame and then every frame's group rotations."""

    N, K, FRAMES, COUNT = 4, 2, 10, 7

    def _per_frame(self, rng, n=N, k=K, groups=None):
        gen = rng.split(0).generator()
        frames = _reference_frames(gen, n, n - k, self.FRAMES)
        return np.stack([_rule_directions(gen, f, self.COUNT, groups) for f in frames])

    def _blocks(self, rng, n=N, k=K, groups=None):
        blocks, bases = [], []
        design = functionals._FrameDesign(self.FRAMES, n, k, self.COUNT, rng, groups=groups)
        out = design.map(lambda dirs, b: blocks.append(dirs) or bases.append(b)
                         or dirs.sum(axis=(1, 2)))
        # each block comes with its frames' bases, the design's rows in order
        assert np.concatenate(bases).tobytes() == design.bases.tobytes()
        assert [len(b) for b in bases] == [len(d) for d in blocks]
        return blocks, out

    @pytest.mark.parametrize("block_dirs", [1, 3 * COUNT, 1 << 40])
    def test_blocks_equal_per_frame_loop(self, monkeypatch, block_dirs):
        # the section kernel's designs, on Haar and on rule frames, an identity check's
        # design of s groups, and the groups of s = 4 and s = 5 on rule frames of n = 5, 6
        monkeypatch.setattr(functionals, "_BLOCK_DIRS", block_dirs)
        step = max(1, block_dirs // self.COUNT)
        for n, k, groups in [(self.N, self.K, None), (3, 1, None), (4, 2, 2), (5, 1, None),
                             (6, 1, None)]:
            rng = StreamHandle(55)
            blocks, out = self._blocks(rng, n, k, groups)
            assert [len(d) for d in blocks] == [
                min(step, self.FRAMES - start) for start in range(0, self.FRAMES, step)]
            expected = self._per_frame(rng, n, k, groups)
            assert np.concatenate(blocks).tobytes() == expected.tobytes()
            assert out.tobytes() == np.concatenate(
                [d.sum(axis=(1, 2)) for d in blocks]).tobytes()

    @pytest.mark.parametrize("k,rows", [(2, 2), (1, 600)])
    def test_line_sections_evaluate_each_end_once(self, monkeypatch, k, rows):
        # at k = n - 1 every direction is u or -u: the kernel sees [u, -u] once per frame
        seen = []

        def counted(density, bodies, dirs, s):
            seen.append(dirs.size // dirs.shape[-1] * len(bodies))
            return _section_measure_values(density, bodies, dirs, s)

        monkeypatch.setattr(functionals, "_section_measure_values", counted)
        design = functionals._FrameDesign(40, 3, k, 600, StreamHandle(59))
        design.sections(GaussianDensity(3), [cube(3), LpBall(3, 1.0)], spread=True)
        assert sum(seen) == 2 * 40 * rows

    @pytest.mark.parametrize("block_dirs", [1, 300, 1 << 40])
    @pytest.mark.parametrize("n", [3, 4])
    def test_line_sections_are_the_chord(self, monkeypatch, n, block_dirs):
        # at k = n - 1 a frame's sphere S^0 is {u, -u}: per frame and body, the mean of the
        # kernel at the two ends, an SE of 0 and n copies of that mean, whatever the count
        # (7 < 2n included), on a body that is not symmetric too
        monkeypatch.setattr(functionals, "_BLOCK_DIRS", block_dirs)
        bodies = [centered_simplex(n), LpBall(n, 1.0)]
        u = functionals._haar_stack(n, 1, 40, StreamHandle(60).split(0).generator())[:, :, 0]
        for density in (LebesgueDensity(n), GaussianDensity(n)):
            ends = np.stack([u, -u], 1)
            means = [_section_measure_values(density, [body], ends, 1)[:, 0].mean(-1)
                     for body in bodies]
            for spread, powers in [(True, False), (False, True), (True, True)]:
                expected = np.stack([np.column_stack(([mean, np.full(40, 0.0)] if spread else [])
                                                     + ([mean] * n if powers else []))
                                     for mean in means], axis=1)
                for count in (1000, 600, 7):
                    design = functionals._FrameDesign(40, n, n - 1, count, StreamHandle(60))
                    got = design.sections(density, bodies, spread, powers)
                    assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block_dirs", [1, 300, 1 << 40])
    @pytest.mark.parametrize("n,k", [(3, 2), (3, 1), (4, 3), (4, 2), (4, 1)])
    def test_stacked_bodies_keep_their_bytes(self, monkeypatch, n, k, block_dirs):
        # one pass over several bodies gives each body the columns of a pass on it alone,
        # and reordering the bodies permutes the columns, whatever the block size
        monkeypatch.setattr(functionals, "_BLOCK_DIRS", block_dirs)
        bodies = [linear_image(LpBall(n, 1.0), np.eye(n) + 0.2 * np.ones((n, n))),
                  centered_simplex(n), LpBall(n, 3.0)]
        design = functionals._FrameDesign(12, n, k, 50, StreamHandle(64))
        for density in (LebesgueDensity(n), GaussianDensity(n), RadialExpDensity(n)):
            for spread, powers in [(True, False), (False, True), (True, True)]:
                stacked = design.sections(density, bodies, spread, powers)
                assert stacked.shape[:2] == (12, 3)
                for i, body in enumerate(bodies):
                    alone = design.sections(density, [body], spread, powers)[:, 0]
                    assert stacked[:, i].tobytes() == alone.tobytes()
                reordered = design.sections(density, bodies[::-1], spread, powers)
                assert reordered.tobytes() == stacked[:, ::-1].tobytes()

    def test_lines_in_the_plane_are_stratified(self):
        # G(2,1): frame j is the line at angle pi (j + U) / F, U uniform from rng.split(0)
        rng, frames = StreamHandle(58), 12
        offset = rng.split(0).generator().random()
        expected = [[[math.cos(math.pi * (j + offset) / frames)],
                     [math.sin(math.pi * (j + offset) / frames)]] for j in range(frames)]
        design = functionals._FrameDesign(frames, 2, 1, 6, rng)
        assert design.bases.tobytes() == np.array(expected).tobytes()


def test_folded_kernel_is_the_old_kernel_up_to_rounding():
    # the rotations folded into the frame bases, P (B R)^T, against rotating the points
    # and then embedding them, (P R^T) B^T; and a linear image's radial at T^{-1} theta
    # against normalising it first: the section values agree but for rounding
    for n, k in [(3, 1), (4, 1)]:
        s, rng, frames, count = n - k, StreamHandle(63), 20, 301
        body = linear_image(LpBall(n, 1.0), np.eye(n) + 0.2 * np.ones((n, n)))
        design = functionals._FrameDesign(frames, n, k, count, rng)
        gen = rng.split(0).generator()
        functionals._haar_stack(n, s, frames, gen)
        rotations = sampler._haar_columns(gen.standard_normal((frames, n, s, s)))
        sizes = [len(group) for group in np.array_split(np.arange(count), n)]
        theta = np.concatenate([sampler._point_set(s, m)[_lattice_order(m, g)]
                                @ rotations[:, g].swapaxes(-1, -2)
                                for g, m in enumerate(sizes)], axis=1)
        v = (theta @ design.bases.swapaxes(-1, -2)) @ body._inv_t
        norms = np.linalg.norm(v, axis=-1)
        old = body.base.radial(v / norms[..., None]) / norms
        new = design.map(lambda dirs, _: body.radial(dirs))
        np.testing.assert_allclose(new, old, rtol=1e-14, atol=0)


class TestDirectionRule:
    """The section kernel's randomised point sets: exact where the rule is, unbiased always."""

    @pytest.mark.parametrize("matrix,k,tol", [(_ELLIPSOID3, 2, 1e-12), (_ELLIPSOID3, 1, 1e-12),
                                              (_ELLIPSOID4, 1, 2e-3)], ids=["s1", "s2", "s3"])
    def test_frame_mean_is_the_section_volume(self, matrix, k, tol):
        # the section of {x^T A^{-1} x <= 1} by span(B) has volume omega_s / sqrt(det(B^T A^{-1} B))
        body, n = Ellipsoid(matrix), len(matrix)
        s, inv = n - k, np.linalg.inv(matrix)
        design = functionals._FrameDesign(5, n, k, 600, StreamHandle(59))
        means = design.map(lambda dirs, _: _section_measure_values(
            LebesgueDensity(n), [body], dirs, s)[:, 0].mean(axis=-1))
        exact = [math.exp(log_ball_volume(s)) / math.sqrt(np.linalg.det(b.T @ inv @ b))
                 for b in design.bases]
        assert np.abs(means / exact - 1.0).max() <= tol

    def test_line_mean_is_the_chord_of_a_body_that_is_not_symmetric(self):
        # s = 1: a group of the rule takes u and -u in turn, so with groups of even size
        # a line's mean value, omega_1 = 2 times the mean of rho(u) and rho(-u), is its
        # chord rho(u) + rho(-u) whether or not the body is symmetric
        body = centered_simplex(3)
        design = functionals._FrameDesign(5, 3, 2, 600, StreamHandle(61))
        means = design.map(lambda dirs, _: _section_measure_values(
            LebesgueDensity(3), [body], dirs, 1)[:, 0].mean(axis=-1))
        chords = [float(body.radial(b[:, 0]) + body.radial(-b[:, 0])) for b in design.bases]
        assert np.abs(means / chords - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("s", [2, 3])
    def test_embedded_point_is_uniform_in_mean_and_second_moment(self, s):
        # point 3 of each group of 7, embedded by the design and read back in its
        # frame's coordinates, is R p: uniform on S^(s-1) whatever the frame
        n = s + 1
        design = functionals._FrameDesign(20_000 // n, n, 1, 7 * n, StreamHandle(60))
        embedded = design.map(lambda dirs, _: dirs[:, 3::7])
        x = (embedded @ design.bases).reshape(-1, s)
        draws = len(x)
        second = (x[:, :, None] * x[:, None, :]).reshape(draws, s * s)
        for sample, target in ((x, np.zeros(s)), (second, np.eye(s).ravel() / s)):
            mean = sample.mean(axis=0)
            se = sample.std(axis=0, ddof=1) / math.sqrt(draws)
            assert (np.abs(mean - target) <= 4.0 * se + 1e-12).all()

    @pytest.mark.parametrize("n,s", [(3, 1), (3, 2), (4, 1), (4, 3), (4, 2), (5, 2), (3, 3),
                                     (4, 4)])
    def test_rule_frames_are_orthonormal_and_uniform(self, n, s):
        # frame 3 of 7, over 2000 designs of the outer rule or of Gram-Schmidt frames
        # (G(4, 2), G(5, 2)), or the first column of rotation 3 of 7 over 2000 stacks of
        # Haar rotations (s = n): its projector B B^T has the Haar mean (width / n) I,
        # which is the second moment of a line's direction or of a hyperplane's normal,
        # and a line's direction has mean 0
        gen = StreamHandle(64).generator()
        if s < n:
            bases = np.stack([functionals._haar_stack(n, s, 7, gen) for _ in range(2000)])
        else:
            bases = sampler._haar_columns(gen.standard_normal((2000, 7, n, n)))
        assert np.abs(bases.swapaxes(-1, -2) @ bases - np.eye(s)).max() <= 1e-14
        frame = bases[:, 3] if s < n else bases[:, 3, :, :1]
        draws, _, width = frame.shape
        samples = [((frame @ frame.swapaxes(-1, -2)).reshape(draws, n * n),
                    np.eye(n).ravel() * width / n)]
        if width == 1:
            samples.append((frame[:, :, 0], np.zeros(n)))
        for sample, target in samples:
            mean = sample.mean(axis=0)
            se = sample.std(axis=0, ddof=1) / math.sqrt(draws)
            assert (np.abs(mean - target) <= 4.0 * se + 1e-12).all()

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_point_sets_are_cached_unit_rows(self, s):
        points = sampler._point_set(s, 9)
        assert points is sampler._point_set(s, 9) and not points.flags.writeable
        assert points.shape == (9, s)
        assert np.allclose(np.linalg.norm(points, axis=-1), 1.0, rtol=0, atol=1e-15)
        assert len(np.unique(points, axis=0)) == 9
        # a one-point set is a unit row too, although at s >= 5 its first quantile is 0
        assert np.isclose(np.linalg.norm(sampler._point_set(s, 1)), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("s", [0, 1])
    def test_point_sets_reject_s_below_two(self, s):
        # S^0 = {u, -u} is the design's exact two-point rule, not a point set; at m = 7
        # s = 1 fell into the s >= 5 rule and divided by zero, at m = 4 gave -1, -1, 1, 1
        for m in (4, 7):
            with pytest.raises(ValueError, match=f"s >= 2, got s={s}$"):
                sampler._point_set(s, m)

    @pytest.mark.parametrize("m", [7, 100, 1001])
    def test_fibonacci_heights_have_the_sphere_moments(self, m):
        # the heights 1 - (2i + 1)/m have sum 0 and sum of squares m/3 - 1/(3m); heights
        # (2i + 0.5)/m off, for one, would sum to 1/2
        heights = sampler._point_set(3, m)[:, 2].tolist()
        assert abs(math.fsum(heights)) <= 1e-12
        assert math.fsum(z * z for z in heights) == pytest.approx(m / 3 - 1 / (3 * m),
                                                                  rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [4, 5, 6])
    def test_group_se_does_not_understate_the_spread_over_rotations(self, s):
        # the iid formula over one group of 120 rotated points, as slicing_chain's
        # largest section and the dominance test take it, against the spread of the
        # group's mean over 2000 Haar rotations: about iid or better (a set of the 2s
        # points +-e_i, each taken m / 2s times, spreads about 10 times its SE)
        rotations = sampler._haar_columns(StreamHandle(65).generator().standard_normal(
            (2000, s, s)))
        for body in (LpBall(s, 1.0), centered_simplex(s)):
            values = body.radial(sampler._point_set(s, 120) @ rotations.swapaxes(-1, -2)) ** s
            se = values.std(axis=-1, ddof=1) / math.sqrt(120)
            assert values.mean(axis=-1).std(ddof=1) <= 1.1 * math.sqrt(np.mean(se ** 2))
