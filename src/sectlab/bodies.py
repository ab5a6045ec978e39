"""Star and convex body oracles: radial function, membership, images, translates.

Every body is an immutable value object exposing

  * ``radial(dirs)``   -- rho(v) = sup{t >= 0 : t v in K} for every nonzero
    v, vectorized: positively homogeneous of degree -1, rho(t v) = rho(v) / t,
    and on unit directions the radial function; a polytope's is
    1 / max_j (a_j.v / b_j), and ``UnboundedBodyError`` where no facet is reached,
  * ``contains(pts)``  -- exact membership,
  * ``bounding_radius()`` -- an upper bound for max rho, never estimated
    (exact but for the adaptors), used by the rejection sampler,

plus ``dim`` and ``exact_volume``.  The adaptors (linear_image, and
translate of a curved body) wrap a body without copying it; a translated
polytope or cube is again an :class:`HPolytope`, and an :class:`Ellipsoid`
is a linear image of the unit ball.  A central section needs no
body of its own: :mod:`sectlab.measures` evaluates the radial function at
directions embedded from the subspace.  All bodies keep the origin
strictly interior; that is a standing assumption, not an option.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .sampler import _fold_columns, _row_norms, sphere_directions  # noqa: F401 (perfbench)

__all__ = [
    "StarBody",
    "LpBall",
    "Ellipsoid",
    "HPolytope",
    "centered_simplex",
    "cube",
    "LinearImage",
    "TranslatedBody",
    "linear_image",
    "translate",
    "body_from_spec",
    "body_from_json",
    "UnboundedBodyError",
]

_COND_TOL = 1e-10
_SPAN_TOL = 1e-12     # relative residual |A^T lam| / sum(lam) of positively spanning normals


class UnboundedBodyError(ValueError):
    """A direction along which the body extends to infinity."""


class StarBody:
    """Base class: a compact star-shaped set with 0 in its interior."""

    dim: int
    exact_volume: float | None

    def __init__(self, dim: int, exact_volume: float | None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.exact_volume = exact_volume

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_radius(self) -> float:
        raise NotImplementedError

    def contains(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _require_dim(self, dirs: np.ndarray) -> np.ndarray:
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
        super().__init__(dim, exact_volume=self._volume(dim, p, radius))
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
        dirs = self._require_dim(dirs)
        # p = 1 and 2 skip pow: it is slower, and its SIMD kernel picks bits by CPU (ROADMAP P11)
        if self.p == 2.0:
            return self.radius / np.sqrt(_fold_columns(np.add, dirs * dirs))
        mags = np.abs(dirs)
        if self.p == 1.0:
            return self.radius / _fold_columns(np.add, mags)
        if math.isinf(self.p):
            return self.radius / _fold_columns(np.maximum, mags)
        mags **= self.p                      # in place: a block's temporaries are large
        norms = _fold_columns(np.add, mags)
        norms **= 1.0 / self.p               # one direction's is a numpy scalar: rebinds
        return self.radius / norms

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


class HPolytope(StarBody):
    """{x : A x <= b} with strictly positive offsets (origin interior).

    ``radial`` is rho(v) = 1 / max_j (a_j.v / b_j) over the rows a_j / b_j scaled
    at construction; a v that reaches no facet (a_j.v <= 0 for every j, as the
    zero vector) or has a NaN raises ``UnboundedBodyError``.  Boundedness is
    tested exactly at construction (:meth:`_check_bounded`), which raises
    ``UnboundedBodyError`` for an unbounded polytope.
    ``bounding_radius()`` is the exact vertex radius from qhull, computed on
    first use and cached; a qhull failure raises ``ValueError``.
    """

    def __init__(self, normals: np.ndarray, offsets: np.ndarray,
                 exact_volume: float | None = None):
        a = np.asarray(normals, dtype=float)
        b = np.asarray(offsets, dtype=float)
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise ValueError(f"incompatible normals {a.shape} and offsets {b.shape}")
        if np.any(b <= 0):
            raise ValueError("all offsets must be strictly positive (origin interior)")
        super().__init__(a.shape[1], exact_volume=exact_volume)
        self.normals = a
        self.offsets = b
        self._scaled = np.ascontiguousarray((a / b[:, None]).T)     # (n, facets)
        self._radius: float | None = None
        self._check_bounded()

    def _check_bounded(self) -> None:
        """Raise ``UnboundedBodyError`` unless no d != 0 has A d <= 0.

        By Stiemke's lemma no such d exists iff rank A = n and A^T lam = 0
        for some lam > 0.  Scaled to lam >= 1, that is a zero minimum of
        ||A^T (1 + mu)|| over mu >= 0, a nonnegative least-squares problem
        (:func:`_nnls`).  A residual r = A^T lam beyond rounding is itself a
        certificate: at the minimum A r >= 0, so d = -r recedes.
        """
        norms = np.linalg.norm(self.normals, axis=1)
        a = self.normals[norms > 0] / norms[norms > 0, None]    # a zero normal bounds nothing
        if np.linalg.matrix_rank(a) < self.dim:
            raise UnboundedBodyError("unbounded body: the facet normals do not span R^n")
        lam = 1.0 + _nnls(a.T, -a.sum(axis=0))
        if np.linalg.norm(a.T @ lam) > _SPAN_TOL * lam.sum():
            raise UnboundedBodyError("unbounded body: the facet normals do not "
                                     "positively span R^n")

    def _vertex_radius(self) -> float:
        # the polytope is bounded (_check_bounded), so its vertices are finite
        if self.dim < 2:
            return float(self.radial(np.array([[1.0], [-1.0]])).max())
        # imported here: constructing a polytope needs no scipy.spatial
        from scipy.spatial import HalfspaceIntersection, QhullError
        hs = np.hstack([self.normals, -self.offsets[:, None]])
        try:
            inter = HalfspaceIntersection(hs, np.zeros(self.dim))
        except QhullError as exc:
            raise ValueError(f"vertex enumeration failed, so the polytope has no "
                             f"exact bounding radius: {exc}") from exc
        return float(np.linalg.norm(inter.intersections, axis=1).max())

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = self._require_dim(dirs)
        reach = _fold_columns(np.maximum, dirs @ self._scaled)
        if not np.all(reach > 0):                        # no facet reached, or a NaN
            raise UnboundedBodyError("unbounded body")
        return 1.0 / reach

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.all(pts @ self.normals.T <= self.offsets, axis=-1)

    def bounding_radius(self) -> float:
        if self._radius is None:
            self._radius = self._vertex_radius()
        return self._radius


def _nnls(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||m x - b|| over x >= 0, by the active-set method of Lawson and Hanson
    (*Solving Least Squares Problems*, 1974, ch. 23), capped at 3 steps per column."""
    cols = m.shape[1]
    tol = 10 * max(m.shape) * np.abs(m).sum(axis=0).max() * np.finfo(float).eps
    x = np.zeros(cols)
    passive = np.zeros(cols, dtype=bool)
    for _ in range(3 * cols):
        gradient = m.T @ (b - m @ x)
        if passive.all() or gradient[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, gradient))] = True
        while True:
            z = np.zeros(cols)
            z[passive] = np.linalg.lstsq(m[:, passive], b, rcond=None)[0]
            if not passive.any() or z[passive].min() > 0:
                break
            # move toward z until a passive entry reaches 0, and free it
            hit = passive & (z <= 0)
            x += (x[hit] / np.maximum(x[hit] - z[hit], np.finfo(float).tiny)).min() * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
        x = z
    return x


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
    return HPolytope(normals, offsets, exact_volume=vol)


class LinearImage(StarBody):
    """T(K) for an invertible T: rho_{T(K)}(theta) = rho_K(T^{-1} theta), rho_K homogeneous."""

    def __init__(self, body: StarBody, transform: np.ndarray):
        t = np.asarray(transform, dtype=float)
        if t.shape != (body.dim, body.dim):
            raise ValueError(f"transform shape {t.shape} does not match dimension {body.dim}")
        if isinstance(body, LinearImage):    # T(S(K)) is (T S)(K): one matmul per radial call
            body, t = body.base, t @ body.transform
        svals = np.linalg.svd(t, compute_uv=False)
        if svals.min() <= _COND_TOL * svals.max():
            raise ValueError("singular transform")
        det = abs(float(np.linalg.det(t)))
        vol = body.exact_volume * det if body.exact_volume is not None else None
        super().__init__(body.dim, exact_volume=vol)
        self.base = body
        self.transform = t
        # contiguous: a matmul with the transposed view of inv(t) ran 2.5 times slower
        self._inv_t = np.ascontiguousarray(np.linalg.inv(t).T)
        self._op_norm = float(svals.max())

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        return self.base.radial(self._require_dim(dirs) @ self._inv_t)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.base.contains(pts @ self._inv_t)

    def bounding_radius(self) -> float:
        return self._op_norm * self.base.bounding_radius()


class Ellipsoid(LinearImage):
    """{x : x^T A^{-1} x <= 1} for a symmetric positive definite A = L L^T: the unit
    ball's image under its Cholesky factor L, since x^T A^{-1} x = |L^{-1} x|^2."""

    def __init__(self, matrix: np.ndarray):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("ellipsoid matrix must be symmetric")
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise ValueError("ellipsoid matrix must be positive definite") from None
        super().__init__(LpBall(a.shape[0], 2.0), chol)
        self.matrix = a


class TranslatedBody(StarBody):
    """K + shift for a convex K.  Membership stays exact; the radial function bisects on
    it, as a convex body is star-shaped about the origin when it holds it in its interior,
    which is validated here.  A base that is, through ``base`` links, an L^p ball with
    p < 1 is not convex and raises ``ValueError``."""

    _BISECT_STEPS = 64

    def __init__(self, body: StarBody, shift: np.ndarray):
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (body.dim,):
            raise ValueError(f"shift shape {shift.shape} does not match dimension {body.dim}")
        root = body
        while hasattr(root, "base"):
            root = root.base
        if isinstance(root, LpBall) and root.p < 1:
            raise ValueError(f"non-convex L^{root.p:g} ball: its translate need not be star-shaped")
        norm = float(np.linalg.norm(shift))
        if norm > 0:
            inward = -shift / norm
            if norm >= float(body.radial(inward[None, :])[0]):
                raise ValueError("origin not interior")
        super().__init__(body.dim, exact_volume=body.exact_volume)
        self.base = body
        self.shift = shift
        self._radius = body.bounding_radius() + norm

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = self._require_dim(dirs)
        lo = np.zeros(dirs.shape[:-1])
        hi = self._radius / _row_norms(dirs)                  # rho(v) <= R / |v|
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


def linear_image(body: StarBody, transform: np.ndarray) -> LinearImage:
    return LinearImage(body, transform)


def translate(body: StarBody, shift: np.ndarray) -> StarBody:
    """K + shift, which must keep the origin interior ("origin not interior").

    {A x <= b} + v is {A x <= b + A v}, so a polytope, and a cube through
    its H-form, stays an :class:`HPolytope` with an exact radial function.
    Any other body becomes a :class:`TranslatedBody`, whose radial function
    bisects on membership.
    """
    if isinstance(body, LpBall) and math.isinf(body.p):
        n = body.dim
        body = HPolytope(np.vstack([np.eye(n), -np.eye(n)]), np.full(2 * n, body.radius),
                         exact_volume=body.exact_volume)
    if not isinstance(body, HPolytope):
        return TranslatedBody(body, shift)
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (body.dim,):
        raise ValueError(f"shift shape {shift.shape} does not match dimension {body.dim}")
    offsets = body.offsets + body.normals @ shift
    if np.any(offsets <= 0):
        raise ValueError("origin not interior")
    return HPolytope(body.normals, offsets, exact_volume=body.exact_volume)


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


def _read_spec(text_or_path: str):
    """The JSON value of a literal, or of the file at a path."""
    if text_or_path.strip().startswith("{"):
        return json.loads(text_or_path)
    with open(text_or_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def body_from_json(text_or_path: str) -> StarBody:
    """Accept either a JSON literal or a path to a JSON file."""
    return body_from_spec(_read_spec(text_or_path))
