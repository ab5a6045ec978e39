import itertools
import json
import math
import os
import subprocess
import sys
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

import sectlab

from sectlab.bodies import (Ellipsoid, HPolytope, LinearImage, LpBall, TranslatedBody,
                            UnboundedBodyError, body_from_json, body_from_spec,
                            centered_simplex, cube, linear_image, translate)
from sectlab.grassmann import Frame, sample_haar
from sectlab.measures import LebesgueDensity, _section_measure_values, measure_of_body
from sectlab.sampler import StreamHandle, sphere_directions

AXIS_FRAME_E1E2 = Frame(np.eye(3)[:, :2])
AXIS_FRAME_E1E3 = Frame(np.eye(3)[:, [0, 2]])


def all_kinds():
    return [
        LpBall(3, 2.0),
        LpBall(3, 1.0),
        LpBall(2, 3.0, 1.4),
        cube(3),
        Ellipsoid(np.diag([1.0, 1.0, 4.0])),
        centered_simplex(3),
        HPolytope(np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]]),
                  np.array([1.0, 1.0, 1.0, 1.0, 1.5])),
        linear_image(cube(2), np.array([[2.0, 0.3], [0.0, 0.5]])),
        translate(LpBall(2, 2.0), np.array([0.25, -0.1])),
    ]


class TestRadial:
    def test_cube_axis_and_diagonal(self):
        c = cube(3)
        assert c.radial(np.array([1.0, 0, 0])[None]) == pytest.approx(1.0)
        diag = np.ones((1, 3)) / math.sqrt(3)
        assert c.radial(diag)[0] == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_l1_ball_diagonal(self):
        b = LpBall(2, 1.0)
        d = np.array([[1.0, 1.0]]) / math.sqrt(2)
        assert b.radial(d)[0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_ellipsoid(self):
        e = Ellipsoid(np.diag([1.0, 4.0]))
        assert e.radial(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)
        assert e.radial(np.array([[0.0, 1.0]]))[0] == pytest.approx(2.0)

    def test_hpolytope_matches_cube(self):
        hp = HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
        dirs = StreamHandle(0).generator().standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.allclose(hp.radial(dirs), cube(3).radial(dirs), rtol=1e-12)

    @pytest.mark.parametrize("body", all_kinds())
    def test_radial_membership_consistency(self, body):
        gen = StreamHandle(17).generator()
        dirs = gen.standard_normal((10_000, body.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rho = body.radial(dirs)
        assert np.all(rho > 0)
        inside = dirs * (0.999 * rho)[:, None]
        outside = dirs * (1.001 * rho)[:, None]
        assert bool(np.all(body.contains(inside)))
        assert not np.any(body.contains(outside))

    @pytest.mark.parametrize("body", all_kinds())
    def test_bounding_radius_dominates(self, body):
        gen = StreamHandle(23).generator()
        dirs = gen.standard_normal((2000, body.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert body.radial(dirs).max() <= body.bounding_radius() * (1 + 1e-12)

    def test_symmetric_radial_is_even(self):
        symmetric = [
            LpBall(3, 2.0),
            LpBall(3, 1.0),
            LpBall(2, 3.0, 1.4),
            cube(3),
            Ellipsoid(np.diag([1.0, 1.0, 4.0])),
            HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
            linear_image(cube(2), np.array([[2.0, 0.3], [0.0, 0.5]])),
        ]
        for body in symmetric:
            gen = StreamHandle(29).generator()
            dirs = gen.standard_normal((500, body.dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            assert np.allclose(body.radial(dirs), body.radial(-dirs), rtol=1e-12)


def _section_volume_values(body, frame, theta):
    """omega_s rho^s of K cap F at unit directions theta of F, by the section kernel."""
    return _section_measure_values(LebesgueDensity(body.dim), [body], frame.embed(theta),
                                   frame.s)[0]


class TestSection:
    def test_ball_section_is_disc(self):
        f = sample_haar(3, 2, StreamHandle(3))
        dirs = StreamHandle(4).generator().standard_normal((100, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.allclose(_section_volume_values(LpBall(3, 2.0), f, dirs), math.pi,
                           rtol=1e-12)

    def test_axis_cube_section_is_square(self):
        # rho of the square is 1 on an axis and sqrt(2) on the diagonal
        dirs = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [math.sqrt(2)]])
        vals = _section_volume_values(cube(3), AXIS_FRAME_E1E2, dirs)
        assert vals == pytest.approx([math.pi, 2 * math.pi], rel=1e-12)

    def test_ellipsoid_section_semiaxes(self):
        vals = _section_volume_values(Ellipsoid(np.diag([1.0, 1.0, 4.0])), AXIS_FRAME_E1E3,
                                      np.eye(2))
        assert vals == pytest.approx([math.pi, 4 * math.pi], rel=1e-12)

    def test_radial_delegates_exactly(self):
        # at s = 2 the measure form 2 omega_2 (rho^2 / 2) keeps the bits of omega_2 rho^2
        body = LpBall(3, 1.0)
        f = sample_haar(3, 2, StreamHandle(5))
        u = StreamHandle(6).generator().standard_normal((50, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        assert np.array_equal(_section_volume_values(body, f, u),
                              math.pi * body.radial(f.embed(u)) ** 2)


class TestLinearImage:
    def test_identity_is_noop(self):
        body = LpBall(2, 1.0)
        img = linear_image(body, np.eye(2))
        dirs = StreamHandle(7).generator().standard_normal((100, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.allclose(img.radial(dirs), body.radial(dirs), rtol=1e-12)

    def test_homothety(self):
        img = linear_image(LpBall(2, 2.0), 2.0 * np.eye(2))
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(img.radial(dirs), 2.0)
        assert img.exact_volume == pytest.approx(4 * math.pi)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_homogeneity(self, lam):
        body = centered_simplex(3)
        img = linear_image(body, lam * np.eye(3))
        dirs = StreamHandle(8).generator().standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.allclose(img.radial(dirs), lam * body.radial(dirs), rtol=1e-10)

    def test_det_one_preserves_area(self):
        img = linear_image(LpBall(2, 2.0), np.diag([2.0, 0.5]))
        assert img.exact_volume == pytest.approx(math.pi, rel=1e-12)
        est = measure_of_body(LebesgueDensity(2), img, 40_000, StreamHandle(9)).as_dict()
        assert abs(est["value"] - math.pi) <= 3 * est["se"]

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            linear_image(cube(2), np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_radial_equals_the_broadcast_division(self, n):
        # radial is the base's homogeneous radial at v = T^{-1} theta, bit for bit, and
        # the broadcast division rho(v / |v|) / |v| it replaced but for rounding
        t = np.eye(n) + 0.3 * StreamHandle(10, n).generator().standard_normal((n, n))
        img = linear_image(cube(n), t)
        dirs = sphere_directions(StreamHandle(11, n).generator(), 4000, n).reshape(4, 1000, n)
        v = dirs @ np.linalg.inv(t).T
        assert img.radial(dirs).tobytes() == cube(n).radial(v).tobytes()
        norms = np.sqrt(reduce(add, [v[..., i] * v[..., i] for i in range(n)]))
        divided = cube(n).radial(v / norms[..., None]) / norms
        np.testing.assert_allclose(img.radial(dirs), divided, rtol=1e-14, atol=0)


class TestTranslate:
    def test_membership_is_shifted(self):
        t = translate(LpBall(2, 2.0), np.array([0.3, 0.0]))
        assert bool(t.contains(np.array([1.2, 0.0])))
        assert not bool(t.contains(np.array([-0.8, 0.0])))

    def test_radial_by_bisection(self):
        t = translate(LpBall(2, 2.0), np.array([0.3, 0.0]))
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        rho = t.radial(dirs)
        assert rho[0] == pytest.approx(1.3, abs=1e-9)
        assert rho[1] == pytest.approx(0.7, abs=1e-9)
        assert rho[2] == pytest.approx(math.sqrt(1 - 0.09), abs=1e-9)

    def test_origin_must_stay_interior(self):
        with pytest.raises(ValueError, match="origin not interior"):
            translate(LpBall(2, 2.0), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="origin not interior"):
            translate(centered_simplex(2), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="origin not interior"):
            translate(cube(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("make", [translate, TranslatedBody])
    @pytest.mark.parametrize("body", [
        LpBall(2, 0.5), LinearImage(LpBall(2, 0.5), np.diag([0.5, 2.0]))],
        ids=["l_half_ball", "its_image"])
    def test_nonconvex_body_is_not_translated(self, make, body):
        # bisection needs a body star-shaped about 0, as every translate of a convex body
        # is; shifted by (0, 0.5) the L^1/2 ball holds t (cos .468, sin .468) up to
        # t = 1.108, where bisection stops at 0.125
        with pytest.raises(ValueError, match="non-convex"):
            make(body, np.array([0.0, 0.5]))

    @pytest.mark.parametrize("body, shift", [
        (cube(3), [0.3, -0.2, 0.5]),
        (cube(2, 2.0), [1.5, 0.1]),
        (centered_simplex(3), [0.05, -0.02, 0.01]),
        (HPolytope(np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]]), np.ones(5)), [0.2, 0.3]),
    ])
    def test_polytope_stays_exact(self, body, shift):
        # {A x <= b} + v = {A x <= b + A v}: same exact radial as bisection, no bisection
        shift = np.array(shift)
        moved = translate(body, shift)
        assert isinstance(moved, HPolytope)
        assert moved.exact_volume == body.exact_volume
        dirs = sphere_directions(StreamHandle(17).generator(), 500, body.dim)
        bisected = TranslatedBody(body, shift).radial(dirs)
        assert np.allclose(moved.radial(dirs), bisected, rtol=1e-12, atol=0)
        pts = dirs * StreamHandle(18).generator().uniform(0.0, 2.5, (500, 1))
        assert np.array_equal(moved.contains(pts), body.contains(pts - shift))


class TestVolume:
    def test_ball_zero_variance(self):
        est = measure_of_body(LebesgueDensity(3), LpBall(3, 2.0), 500, StreamHandle(10)).as_dict()
        assert est["value"] == pytest.approx(4 * math.pi / 3, rel=1e-12)
        assert est["se"] < 1e-12

    def test_cube(self):
        est = measure_of_body(LebesgueDensity(3), cube(3), 100_000, StreamHandle(11)).as_dict()
        assert abs(est["value"] - 8.0) <= 3 * est["se"]

    def test_cross_polytope(self):
        est = measure_of_body(LebesgueDensity(3), LpBall(3, 1.0), 100_000,
                              StreamHandle(12)).as_dict()
        assert abs(est["value"] - 4 / 3) <= 3 * est["se"]

    def test_exact_volumes(self):
        assert LpBall(3, 1.0).exact_volume == pytest.approx(4 / 3)
        assert cube(3).exact_volume == pytest.approx(8.0)
        assert LpBall(4, 2.0).exact_volume == pytest.approx(math.pi ** 2 / 2)
        assert centered_simplex(3, 2.0).exact_volume == pytest.approx(8 / 6)
        assert Ellipsoid(np.diag([4.0, 1.0])).exact_volume == pytest.approx(2 * math.pi)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            measure_of_body(LebesgueDensity(2), cube(2), 10, StreamHandle(0))


class TestHPolytopeValidation:
    def test_nonpositive_offset_rejected(self):
        with pytest.raises(ValueError, match="offsets"):
            HPolytope(np.eye(2), np.array([1.0, 0.0]))

    def test_unbounded_rejected_at_construction(self):
        with pytest.raises(UnboundedBodyError):
            HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))

    def test_unbounded_cone_missed_by_the_net_has_no_radius(self):
        # the recession cone |<d, v>| <= eps <d, u> around u at 0.7 rad slips
        # between the directions of any finite probe net, and qhull alone
        # returns a finite radius for it; at eps = 1e-7 a polar volume
        # estimate reads about 1526
        u = np.array([math.cos(0.7), math.sin(0.7)])
        v = np.array([-u[1], u[0]])
        for eps in (1e-4, 1e-7):
            with pytest.raises(UnboundedBodyError):
                HPolytope(np.vstack([v - eps * u, -v - eps * u, -u]), np.ones(3))
        # the facet <x, u> <= 1 closes the cone; its far vertices are u +- (1 + 1e-7) v
        closed = HPolytope(np.vstack([v - 1e-7 * u, -v - 1e-7 * u, -u, u]), np.ones(4))
        assert closed.bounding_radius() == pytest.approx(math.hypot(1.0, 1.0 + 1e-7), rel=1e-12)

    def test_qhull_failure_raises(self, monkeypatch):
        import scipy.spatial

        def fail(*args, **kwargs):
            raise scipy.spatial.QhullError("QH6154 initial simplex is flat")

        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", fail)
        body = HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
        with pytest.raises(ValueError, match="vertex enumeration failed") as err:
            body.bounding_radius()
        assert isinstance(err.value.__cause__, scipy.spatial.QhullError)

    def test_construction_does_not_load_qhull(self):
        code = ("import sys\n"
                "import numpy as np\n"
                "import sectlab\n"
                "from sectlab.bodies import HPolytope, centered_simplex\n"
                "centered_simplex(3)\n"
                "HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))\n"
                "assert 'scipy.spatial' not in sys.modules\n")
        src = str(Path(sectlab.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_simplex_volume_formula(self):
        s = centered_simplex(4)
        assert s.exact_volume == pytest.approx(1 / 24)


def _has_extreme_ray(normals: np.ndarray) -> bool:
    """The exhaustive boundedness test: rank < n, or the null vector of some n - 1
    unit normals has dots of one sign with every normal.  C(facets, n - 1) SVDs."""
    norms = np.linalg.norm(normals, axis=1)
    a = normals[norms > 0] / norms[norms > 0, None]
    n = a.shape[1]
    if np.linalg.matrix_rank(a) < n:
        return True
    for subset in itertools.combinations(range(len(a)), n - 1):
        d = np.linalg.svd(np.vstack([a[list(subset)], np.zeros((1, n))]))[2][-1]
        dots = a @ d
        if (dots <= 1e-12).all() or (dots >= -1e-12).all():
            return True
    return False


class TestBoundedness:
    def test_agrees_with_extreme_ray_enumeration(self):
        gen = np.random.default_rng(7)
        outcomes = set()
        for trial in range(600):
            n = int(gen.integers(2, 5))
            normals = gen.standard_normal((int(gen.integers(n + 1, n + 8)), n))
            if trial % 3 == 0:        # every normal in a half-space: unbounded
                normals[:, 0] = np.abs(normals[:, 0])
            if trial % 7 == 0:        # integer normals: rays on facets, zero rows
                normals = np.round(normals)
            unbounded = _has_extreme_ray(normals)
            outcomes.add(unbounded)
            if unbounded:
                with pytest.raises(UnboundedBodyError):
                    HPolytope(normals, np.ones(len(normals)))
            else:
                HPolytope(normals, np.ones(len(normals)))
        assert outcomes == {False, True}

    # C(100, 3) and C(40, 7) subsets took 1.4 s and minutes by enumeration
    @pytest.mark.parametrize("n,facets", [(4, 100), (8, 40)])
    def test_many_facets(self, n, facets):
        normals = np.random.default_rng(n).standard_normal((facets, n))
        body = HPolytope(normals, np.ones(facets))
        assert body.dim == n
        normals[:, 0] = np.abs(normals[:, 0])
        with pytest.raises(UnboundedBodyError, match="positively span"):
            HPolytope(normals, np.ones(facets))


class TestBodySpecs:
    def test_roundtrip_kinds(self):
        specs = [
            {"kind": "lp_ball", "dim": 4, "p": 1.0, "radius": 1.0},
            {"kind": "lp_ball", "dim": 2, "p": "inf", "radius": 2.0},
            {"kind": "cube", "dim": 3, "halfwidth": 0.5},
            {"kind": "ellipsoid", "matrix": [[2.0, 0.0], [0.0, 1.0]]},
            {"kind": "simplex", "dim": 3, "scale": 1.0},
            {"kind": "h_polytope", "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
             "offsets": [1, 1, 1, 1]},
            {"kind": "linear_image", "transform": [[2.0, 0.0], [0.0, 0.5]],
             "base": {"kind": "lp_ball", "dim": 2, "p": 2.0}},
            {"kind": "translate", "shift": [0.1, 0.0],
             "base": {"kind": "cube", "dim": 2}},
        ]
        for spec in specs:
            body = body_from_spec(spec)
            assert body.dim == len(spec.get("shift", [0] * body.dim))  or body.dim >= 1

    def test_json_literal_and_unknown_kind(self):
        body = body_from_json('{"kind":"lp_ball","dim":3,"p":2.0,"radius":1.0}')
        assert isinstance(body, LpBall)
        with pytest.raises(ValueError, match="unknown body kind"):
            body_from_spec({"kind": "torus"})

    def test_json_file(self, tmp_path):
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"kind": "cube", "dim": 2}))
        assert body_from_json(str(path)).dim == 2


def _cube_reference(dirs, radius=1.0):
    return radius / np.max(np.abs(dirs), axis=-1)


def _lp_reference(dirs, p, radius=1.0):
    return radius / np.sum(np.abs(dirs) ** p, axis=-1) ** (1.0 / p)


def _polytope_reference(body, dirs):
    dots = dirs @ body.normals.T
    with np.errstate(divide="ignore"):
        return np.where(dots > 0, body.offsets / dots, np.inf).min(axis=-1)


def _image_reference(body, dirs):
    return _cube_reference(dirs @ body._inv_t)


SIMPLEX3 = centered_simplex(3)
IMAGE3 = linear_image(cube(3), np.array([[1.2, 0.3, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 0.8]]))


@pytest.mark.parametrize("body,reference", [
    (cube(3), _cube_reference),
    (LpBall(3, 1.0), lambda d: _lp_reference(d, 1.0)),
    (LpBall(4, 1.0), lambda d: _lp_reference(d, 1.0)),
    (LpBall(3, 3.0, 1.4), lambda d: _lp_reference(d, 3.0, 1.4)),
    (LpBall(3, 2.0), lambda d: _lp_reference(d, 2.0)),
    (LpBall(4, 2.0), lambda d: _lp_reference(d, 2.0)),
    (LpBall(3, 1.0, 1.7), lambda d: _lp_reference(d, 1.0, 1.7)),
    (LpBall(3, 2.0, 0.6), lambda d: _lp_reference(d, 2.0, 0.6)),
    (SIMPLEX3, lambda d: _polytope_reference(SIMPLEX3, d)),
    (IMAGE3, lambda d: _image_reference(IMAGE3, d)),
], ids=["cube3", "l1ball3", "l1ball4", "l3ball3", "ball3", "ball4", "l1ball3_r1.7",
        "ball3_r0.6", "simplex3", "linear_image"])
def test_radial_equals_axis_reductions(body, reference):
    # the radial functions fold their short trailing axes column by column,
    # and the l1 and l2 balls take no pow; that must give the bits of the
    # pow and reduction along the axis.  The simplex's offsets are powers of
    # two, so its pre-scaled facets give the bits of b / (a.theta) too
    gen = np.random.Generator(np.random.Philox(key=77))
    dirs = sphere_directions(gen, 6000, body.dim).reshape(20, 300, body.dim)
    assert body.radial(dirs).tobytes() == reference(dirs).tobytes()
    assert body.radial(dirs[0, 0]).tobytes() == reference(dirs[0, 0]).tobytes()


_MOVED3 = translate(LpBall(3, 2.0), np.array([0.25, -0.1, 0.2]))
_SHEAR3 = np.array([[1.2, 0.3, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 0.8]])
HOMOGENEOUS_KINDS = {
    "l1ball": LpBall(3, 1.0),
    "ball": LpBall(3, 2.0),
    "l3ball": LpBall(3, 3.0, 1.4),
    "cube": cube(3),
    "ellipsoid": Ellipsoid(np.array([[2.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 0.5]])),
    "hpolytope": HPolytope(np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]]),
                           np.array([1.0] * 6 + [1.5])),
    "simplex": centered_simplex(3),
    "linear_image": linear_image(cube(3), _SHEAR3),
    "image_of_image": linear_image(linear_image(LpBall(3, 1.0), _SHEAR3), _SHEAR3.T),
    "translated": _MOVED3,
    "image_of_translate": linear_image(_MOVED3, _SHEAR3),
}


@pytest.mark.parametrize("body", [
    HOMOGENEOUS_KINDS["hpolytope"],
    translate(cube(3), (0.3, -0.2, 0.1)),
    centered_simplex(3, 0.7),
], ids=["offset1.5", "translated_cube", "simplex_scale0.7"])
def test_polytope_radial_matches_offsets_over_dots(body):
    # 1 / max_j (a_j.theta / b_j) is min_j b_j / a_j.theta over the facets with
    # a_j.theta > 0, up to the rounding of a_j / b_j at offsets that are not powers of two
    assert isinstance(body, HPolytope)
    gen = np.random.Generator(np.random.Philox(key=78))
    dirs = sphere_directions(gen, 6000, 3).reshape(20, 300, 3)
    np.testing.assert_allclose(body.radial(dirs), _polytope_reference(body, dirs),
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("bad", [np.zeros(3), np.array([0.2, np.nan, 0.1])],
                         ids=["zero", "nan"])
@pytest.mark.parametrize("body", [SIMPLEX3, HOMOGENEOUS_KINDS["hpolytope"]],
                         ids=["simplex3", "offset1.5"])
def test_polytope_radial_raises_where_no_facet_is_reached(body, bad):
    dirs = np.vstack([np.eye(3), bad])
    with pytest.raises(UnboundedBodyError, match="unbounded body"):
        body.radial(dirs)
    with pytest.raises(UnboundedBodyError, match="unbounded body"):
        body.radial(bad)


@pytest.mark.parametrize("t", [0.3, 3.0])
@pytest.mark.parametrize("body", HOMOGENEOUS_KINDS.values(), ids=HOMOGENEOUS_KINDS.keys())
def test_radial_is_homogeneous_of_degree_minus_one(body, t):
    # rho(t v) = rho(v) / t on vectors of any length, which lets a linear image skip
    # normalising; a bisection bracket fixed for unit vectors would clip rho(0.3 v)
    assert isinstance(_MOVED3, TranslatedBody)
    gen = StreamHandle(19).generator()
    v = sphere_directions(gen, 500, 3) * gen.uniform(0.2, 5.0, (500, 1))
    np.testing.assert_allclose(body.radial(t * v), body.radial(v) / t, rtol=1e-12, atol=0)


@pytest.mark.parametrize("body", HOMOGENEOUS_KINDS.values(), ids=HOMOGENEOUS_KINDS.keys())
def test_radial_of_one_direction_is_a_scalar(body):
    # a tolerance, not bytes: pow on a scalar (l3ball) rounds apart from its SIMD kernel
    v = sphere_directions(StreamHandle(20).generator(), 1, 3)[0]
    rho = body.radial(v)
    assert np.shape(rho) == ()
    np.testing.assert_allclose(rho, body.radial(v[None])[0], rtol=1e-15, atol=0)


def test_image_of_an_image_is_one_image():
    # T(S(K)) is built as (T S)(K), so its radial call runs one matmul, not one per level;
    # the radii of the two-level evaluation agree to rounding
    inner = HOMOGENEOUS_KINDS["ellipsoid"]
    image = linear_image(inner, _SHEAR3)
    assert image.base is inner.base and np.array_equal(image.transform,
                                                       _SHEAR3 @ inner.transform)
    assert image.exact_volume == pytest.approx(inner.exact_volume * np.linalg.det(_SHEAR3),
                                               rel=1e-14)
    dirs = sphere_directions(StreamHandle(21).generator(), 3000, 3).reshape(3, 1000, 3)
    np.testing.assert_allclose(image.radial(dirs),
                               inner.radial(dirs @ np.linalg.inv(_SHEAR3).T), rtol=1e-14, atol=0)


class TestEllipsoid:
    def test_is_the_unit_balls_image_under_the_cholesky_factor(self):
        # one radial kernel, membership and bounding radius for the ellipsoid family
        assert issubclass(Ellipsoid, LinearImage)
        assert not {"radial", "contains", "bounding_radius"} & set(vars(Ellipsoid))
        body = HOMOGENEOUS_KINDS["ellipsoid"]
        a = body.matrix
        assert body.base.p == 2.0 and np.array_equal(body.transform, np.linalg.cholesky(a))
        assert body.bounding_radius() == pytest.approx(math.sqrt(np.linalg.eigvalsh(a).max()),
                                                       rel=1e-15)
        assert body.exact_volume == pytest.approx(4 / 3 * math.pi * math.sqrt(np.linalg.det(a)),
                                                  rel=1e-14)

    @pytest.mark.parametrize("matrix, message", [
        (np.ones((2, 3)), "square"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
        (np.diag([1.0, -1.0]), "positive definite"),
        (np.diag([1.0, 0.0]), "positive definite"),
        (np.diag([1.0, 1e-21]), "singular transform"),
    ], ids=["not_square", "asymmetric", "indefinite", "singular", "ill_conditioned"])
    def test_rejects_bad_matrices(self, matrix, message):
        # cond A >= 1e20 passes Cholesky, but its factor is a singular transform
        with pytest.raises(ValueError, match=message):
            Ellipsoid(matrix)
