"""Star and convex body oracles: radial function, membership, sections, images.

Every body is an immutable value object exposing

  * ``radial(dirs)``   -- rho(theta) for unit directions, vectorized,
  * ``contains(pts)``  -- exact membership where the kind allows it,
  * ``bounding_radius()`` -- a valid upper bound for max rho (exact for
    the analytic kinds), used by the rejection sampler,

plus ``dim``, ``symmetric`` and ``exact_volume`` metadata.  Adaptors
(section, linear_image, translate) compose lazily, so slicing a body by
thousands of subspaces allocates nothing per slice.  All bodies keep the
origin strictly interior; that is a standing assumption, not an option.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .constants import log_ball_volume
from .grassmann import Frame
from .sampler import _fold_columns, as_generator, sphere_directions, uniform_in_body
from .estimates import Estimate, mean_estimate

__all__ = [
    "StarBody",
    "LpBall",
    "Ellipsoid",
    "HPolytope",
    "centered_simplex",
    "cube",
    "SectionBody",
    "LinearImage",
    "TranslatedBody",
    "section",
    "linear_image",
    "translate",
    "volume",
    "center_of_mass",
    "body_from_spec",
    "body_from_json",
    "UnboundedBodyError",
]

_COND_TOL = 1e-10


class UnboundedBodyError(ValueError):
    """A direction along which the body extends to infinity."""


class StarBody:
    """Base class: a compact star-shaped set with 0 in its interior."""

    dim: int
    symmetric: bool
    exact_volume: float | None

    def __init__(self, dim: int, symmetric: bool, exact_volume: float | None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.symmetric = bool(symmetric)
        self.exact_volume = exact_volume

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_radius(self) -> float:
        raise NotImplementedError

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Default membership via the radial oracle; kinds override with exact tests."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        norms = np.linalg.norm(pts, axis=-1)
        out = np.ones(norms.shape, dtype=bool)
        pos = norms > 0
        if pos.any():
            dirs = pts[pos] / norms[pos, None]
            out[pos] = norms[pos] <= self.radial(dirs)
        return out if np.asarray(points).ndim > 1 else bool(out[0])

    def _require_unit(self, dirs: np.ndarray) -> np.ndarray:
        dirs = np.asarray(dirs, dtype=float)
        if dirs.shape[-1] != self.dim:
            raise ValueError(f"direction dimension {dirs.shape[-1]} != body dimension {self.dim}")
        return dirs


class LpBall(StarBody):
    """{x : ||x||_p <= radius}; p = inf is the cube of half-width ``radius``."""

    def __init__(self, dim: int, p: float, radius: float = 1.0):
        if p <= 0:
            raise ValueError(f"exponent p must be positive, got {p}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        super().__init__(dim, symmetric=True, exact_volume=self._volume(dim, p, radius))
        self.p = float(p)
        self.radius = float(radius)

    @staticmethod
    def _volume(n: int, p: float, r: float) -> float:
        if math.isinf(p):
            return (2.0 * r) ** n
        log_v = (n * math.log(2.0 * r) + n * math.lgamma(1.0 + 1.0 / p)
                 - math.lgamma(1.0 + n / p))
        return math.exp(log_v)

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = self._require_unit(dirs)
        if math.isinf(self.p):
            return self.radius / _fold_columns(np.maximum, np.abs(dirs))
        return self.radius / _fold_columns(np.add, np.abs(dirs) ** self.p) ** (1.0 / self.p)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if math.isinf(self.p):
            return np.max(np.abs(pts), axis=-1) <= self.radius
        return np.sum(np.abs(pts) ** self.p, axis=-1) ** (1.0 / self.p) <= self.radius

    def bounding_radius(self) -> float:
        if self.p >= 2.0:
            exponent = 0.5 - (0.0 if math.isinf(self.p) else 1.0 / self.p)
            return self.radius * self.dim ** exponent
        return self.radius


class Ellipsoid(StarBody):
    """{x : x^T A^{-1} x <= 1} for a symmetric positive definite matrix A."""

    def __init__(self, matrix: np.ndarray):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("ellipsoid matrix must be symmetric")
        eigval, eigvec = np.linalg.eigh(a)
        if eigval.min() <= 0:
            raise ValueError("ellipsoid matrix must be positive definite")
        n = a.shape[0]
        vol = math.exp(log_ball_volume(n).log_value + 0.5 * float(np.sum(np.log(eigval))))
        super().__init__(n, symmetric=True, exact_volume=vol)
        self.matrix = a
        self._inv = eigvec @ np.diag(1.0 / eigval) @ eigvec.T
        self._max_eig = float(eigval.max())

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = self._require_unit(dirs)
        quad = np.einsum("...i,ij,...j->...", dirs, self._inv, dirs)
        return 1.0 / np.sqrt(quad)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.einsum("...i,ij,...j->...", pts, self._inv, pts) <= 1.0

    def bounding_radius(self) -> float:
        return math.sqrt(self._max_eig)


class HPolytope(StarBody):
    """{x : A x <= b} with strictly positive offsets (origin interior).

    Boundedness is probed at construction on a deterministic direction net
    (2n axis directions plus 100 seeded random ones); the hard error for a
    direction with no positive facet surfaces at radial-evaluation time.
    The exact bounding radius comes from vertex enumeration when possible.
    """

    def __init__(self, normals: np.ndarray, offsets: np.ndarray, symmetric: bool | None = None,
                 exact_volume: float | None = None):
        a = np.asarray(normals, dtype=float)
        b = np.asarray(offsets, dtype=float)
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise ValueError(f"incompatible normals {a.shape} and offsets {b.shape}")
        if np.any(b <= 0):
            raise ValueError("all offsets must be strictly positive (origin interior)")
        n = a.shape[1]
        if symmetric is None:
            symmetric = self._detect_symmetry(a, b)
        super().__init__(n, symmetric=symmetric, exact_volume=exact_volume)
        self.normals = a
        self.offsets = b
        self._radius = self._vertex_radius()
        self._probe_bounded()

    @staticmethod
    def _detect_symmetry(a: np.ndarray, b: np.ndarray) -> bool:
        scaled = a / b[:, None]
        # symmetric iff the set of scaled facets is closed under negation
        for row in scaled:
            if not np.any(np.all(np.abs(scaled + row) < 1e-9, axis=1)):
                return False
        return True

    def _vertex_radius(self) -> float | None:
        if self.dim < 2:
            pos = self.normals[:, 0] > 0
            neg = self.normals[:, 0] < 0
            if not (pos.any() and neg.any()):
                raise UnboundedBodyError("unbounded body")
            hi = np.min(self.offsets[pos] / self.normals[pos, 0])
            lo = np.max(self.offsets[neg] / self.normals[neg, 0])
            return float(max(hi, -lo))
        try:
            from scipy.spatial import HalfspaceIntersection
            hs = np.hstack([self.normals, -self.offsets[:, None]])
            inter = HalfspaceIntersection(hs, np.zeros(self.dim))
            return float(np.linalg.norm(inter.intersections, axis=1).max())
        except Exception:
            return None

    def _probe_bounded(self) -> None:
        net = np.vstack([np.eye(self.dim), -np.eye(self.dim),
                         sphere_directions(np.random.Generator(np.random.Philox(key=12345)),
                                           100, self.dim)])
        self.radial(net)   # raises UnboundedBodyError on a bad direction

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = self._require_unit(dirs)
        dots = dirs @ self.normals.T                     # (..., facets)
        with np.errstate(divide="ignore"):
            t = np.where(dots > 0, self.offsets / dots, np.inf)
        rho = _fold_columns(np.minimum, t)
        if np.any(~np.isfinite(rho)):
            raise UnboundedBodyError("unbounded body")
        return rho

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.all(pts @ self.normals.T <= self.offsets, axis=-1)

    def bounding_radius(self) -> float:
        if self._radius is not None:
            return self._radius
        # fall back to a probed bound with a safety factor
        gen = np.random.Generator(np.random.Philox(key=54321))
        net = np.vstack([np.eye(self.dim), -np.eye(self.dim),
                         sphere_directions(gen, 4096, self.dim)])
        return 2.0 * float(self.radial(net).max())


def cube(dim: int, halfwidth: float = 1.0) -> LpBall:
    return LpBall(dim, math.inf, halfwidth)


def centered_simplex(dim: int, scale: float = 1.0) -> HPolytope:
    """The standard simplex conv(0, e_1, ..., e_n), recentered at its centroid.

    Facets: -x_i <= 1/(n+1) and sum x_i <= 1/(n+1), all scaled; the volume
    is scale^n / n!.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    n = dim
    normals = np.vstack([-np.eye(n), np.ones((1, n))])
    offsets = np.full(n + 1, scale / (n + 1))
    vol = scale ** n / math.factorial(n)
    return HPolytope(normals, offsets, symmetric=(n == 1), exact_volume=vol)


class SectionBody(StarBody):
    """K intersected with a linear subspace, in the frame's coordinates."""

    def __init__(self, body: StarBody, frame: Frame):
        if frame.n != body.dim:
            raise ValueError(f"frame ambient dimension {frame.n} != body dimension {body.dim}")
        if frame.s >= body.dim:
            raise ValueError("section dimension must be strictly below the body dimension")
        super().__init__(frame.s, symmetric=body.symmetric, exact_volume=None)
        self.parent = body
        self.frame = frame

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = self._require_unit(dirs)
        return self.parent.radial(self.frame.embed(dirs))

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self.parent.contains(self.frame.embed(np.asarray(points, dtype=float)))

    def bounding_radius(self) -> float:
        return self.parent.bounding_radius()


class LinearImage(StarBody):
    """T(K) for an invertible T: rho_{T(K)}(theta) = rho_K(v/|v|) / |v|, v = T^{-1} theta."""

    def __init__(self, body: StarBody, transform: np.ndarray):
        t = np.asarray(transform, dtype=float)
        if t.shape != (body.dim, body.dim):
            raise ValueError(f"transform shape {t.shape} does not match dimension {body.dim}")
        svals = np.linalg.svd(t, compute_uv=False)
        if svals.min() <= _COND_TOL * svals.max():
            raise ValueError("singular transform")
        det = abs(float(np.linalg.det(t)))
        vol = body.exact_volume * det if body.exact_volume is not None else None
        super().__init__(body.dim, symmetric=body.symmetric, exact_volume=vol)
        self.base = body
        self.transform = t
        self._inv = np.linalg.inv(t)
        self._op_norm = float(svals.max())

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = self._require_unit(dirs)
        v = dirs @ self._inv.T
        norms = np.sqrt(_fold_columns(np.add, v * v))
        return self.base.radial(v / norms[..., None]) / norms

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.base.contains(pts @ self._inv.T)

    def bounding_radius(self) -> float:
        return self._op_norm * self.base.bounding_radius()


class TranslatedBody(StarBody):
    """K + shift.  Membership stays exact; the radial function falls back to
    bisection on the membership oracle (the shifted body is star-shaped about
    the origin whenever it still contains it, which is validated here)."""

    _BISECT_STEPS = 64

    def __init__(self, body: StarBody, shift: np.ndarray):
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (body.dim,):
            raise ValueError(f"shift shape {shift.shape} does not match dimension {body.dim}")
        norm = float(np.linalg.norm(shift))
        if norm > 0:
            inward = -shift / norm
            if norm >= float(body.radial(inward[None, :])[0]):
                raise ValueError("origin not interior")
        super().__init__(body.dim, symmetric=False,
                         exact_volume=body.exact_volume)
        self.base = body
        self.shift = shift
        self._radius = body.bounding_radius() + norm
        probe = sphere_directions(np.random.Generator(np.random.Philox(key=2469)),
                                  64, body.dim)
        if np.any(self.radial(probe) <= 0):
            raise ValueError("origin not interior")

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = self._require_unit(np.atleast_2d(dirs))
        lo = np.zeros(dirs.shape[:-1])
        hi = np.full(dirs.shape[:-1], self._radius)
        for _ in range(self._BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            inside = self.contains(mid[..., None] * dirs)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.base.contains(pts - self.shift)

    def bounding_radius(self) -> float:
        return self._radius


def section(body: StarBody, frame: Frame) -> SectionBody:
    """The central section K intersect F as a body in F's coordinates."""
    return SectionBody(body, frame)


def linear_image(body: StarBody, transform: np.ndarray) -> LinearImage:
    return LinearImage(body, transform)


def translate(body: StarBody, shift: np.ndarray) -> TranslatedBody:
    return TranslatedBody(body, shift)


def volume(body: StarBody, samples: int, rng) -> Estimate:
    """Monte Carlo volume by polar integration: |K| = omega_n E[rho(theta)^n].

    The integrand is constant for Euclidean balls, so those come back with
    zero standard error.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    gen = as_generator(rng)
    theta = sphere_directions(gen, samples, body.dim)
    rho = body.radial(theta)
    omega = math.exp(log_ball_volume(body.dim).log_value)
    return mean_estimate(rho ** body.dim, factor=omega)


def center_of_mass(body: StarBody, samples: int, rng) -> tuple[np.ndarray, Estimate]:
    """Empirical center of mass from uniform interior samples.

    Returns the mean vector and an Estimate whose value/std error refer to
    the Euclidean norm of the mean (per-coordinate errors are identical by
    exchangeability of the draws).
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    pts = uniform_in_body(body, rng, size=samples)
    mean = pts.mean(axis=0)
    se = float(pts.std(axis=0, ddof=1).max() / math.sqrt(samples))
    return mean, Estimate(float(np.linalg.norm(mean)), se, samples)


def body_from_spec(spec: dict) -> StarBody:
    """Build a body from its JSON description.

    Kinds: lp_ball {dim, p, radius}, ellipsoid {matrix}, cube {dim, halfwidth},
    simplex {dim, scale}, h_polytope {normals, offsets}, linear_image
    {transform, base}, translate {shift, base}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("body spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "lp_ball":
        p = spec.get("p", 2.0)
        p = math.inf if p in ("inf", None) else float(p)
        return LpBall(int(spec["dim"]), p, float(spec.get("radius", 1.0)))
    if kind == "cube":
        return cube(int(spec["dim"]), float(spec.get("halfwidth", 1.0)))
    if kind == "ellipsoid":
        return Ellipsoid(np.asarray(spec["matrix"], dtype=float))
    if kind == "simplex":
        return centered_simplex(int(spec["dim"]), float(spec.get("scale", 1.0)))
    if kind == "h_polytope":
        return HPolytope(np.asarray(spec["normals"], dtype=float),
                         np.asarray(spec["offsets"], dtype=float))
    if kind == "linear_image":
        return linear_image(body_from_spec(spec["base"]),
                            np.asarray(spec["transform"], dtype=float))
    if kind == "translate":
        return translate(body_from_spec(spec["base"]),
                         np.asarray(spec["shift"], dtype=float))
    raise ValueError(f"unknown body kind {kind!r}")


def body_from_json(text_or_path: str) -> StarBody:
    """Accept either a JSON literal or a path to a JSON file."""
    text = text_or_path.strip()
    if not text.startswith("{"):
        with open(text_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return body_from_spec(json.loads(text))
