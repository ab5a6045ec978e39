"""Reproducible random sampling: streams, points in bodies, simplex volumes.

The RNG contract is counter-based: a :class:`StreamHandle` names a Philox
stream by (seed, stream_id), and every drawn variate is a pure function of
(seed, stream_id, draw index).  Substreams derived with :meth:`StreamHandle.split`
are statistically independent, so each purpose gets its own substream and
results never depend on scheduling.  A frame design takes one of them and
draws whole stacks from it: one ``standard_normal`` call of shape (F, ...)
gives the bits of F calls of the trailing shape in turn, so how a draw is
chunked does not change it.

Every Haar frame and rotation is :func:`_haar_columns` of a Gaussian
stack.  The section kernel's directions are randomised point sets: a
fixed set on the sphere (:func:`_point_set`) under a Haar rotation of
O(s), so a group of m directions takes s^2 normals, not m s.  The frame
design folds each rotation into its frame's basis, so embedding a group
of directions is one matmul.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "StreamHandle",
    "as_generator",
    "sphere_directions",
    "uniform_in_body",
    "RestrictedSample",
    "sample_restricted",
    "DegenerateRejectionError",
    "simplex_volume",
]

_MASK64 = (1 << 64) - 1
# sample_restricted gives up below this acceptance rate, once it has made this many proposals
_MIN_ACCEPTANCE = 1e-4
_REJECTION_WINDOW = 100_000


def _mix64(a: int, b: int) -> int:
    """splitmix64-style finalizer combining a stream id with a child index."""
    z = (a * 0x9E3779B97F4A7C15 + b + 0xD1B54A32D192ED03) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class StreamHandle:
    """Names one independent random stream: outputs depend only on (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, index: int) -> "StreamHandle":
        """Derive the index-th child stream, independent of all others."""
        return StreamHandle(self.seed, _mix64(self.stream_id, index))


def as_generator(rng) -> np.random.Generator:
    """Accept a StreamHandle, a Generator, or an int seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, StreamHandle):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return StreamHandle(int(rng)).generator()
    raise TypeError(f"expected StreamHandle, Generator, or int, got {type(rng)!r}")


def _fold_columns(op, a: np.ndarray) -> np.ndarray:
    """op folded over the last axis, column by column from the first.

    For the short trailing axes of direction stacks this is much cheaper
    than a reduction along that axis, and gives the same bits for max, min
    and the in-order sums numpy takes over fewer than eight terms.
    """
    out = a[..., 0]
    for i in range(1, a.shape[-1]):
        out = op(out, a[..., i])
    return out


def _quadratic_form(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x^T m x over the last axis of x by the column fold, several times faster than einsum."""
    return _fold_columns(np.add, (x @ m) * x)


def _row_norms(g: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of a (..., dim) array, the bits of np.linalg.norm.

    From eight columns on numpy sums pairwise, not in order, so only the
    shorter rows take the column fold.
    """
    if g.shape[-1] >= 8:
        return np.linalg.norm(g, axis=-1)
    return np.sqrt(_fold_columns(np.add, g * g))


def sphere_directions(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform unit vectors on S^(dim-1), shape (count, dim): :func:`_unit_rows` of a
    Gaussian draw, so a zero row raises ValueError."""
    return _unit_rows(gen.standard_normal((count, dim)))


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """g / |g| along the last axis, one column at a time; a zero row raises ValueError.

    A Gaussian row is zero with probability 0, so no redraw is made.
    Dividing column by column gives the bits of the broadcast division,
    whose innermost loop would run over only s elements.
    """
    norms = _row_norms(g)
    if not norms.all():
        raise ValueError("zero Gaussian row: it has no direction")
    out = np.empty_like(g)
    for i in range(g.shape[-1]):
        np.divide(g[..., i], norms, out=out[..., i])
    return out


def _haar_columns(g: np.ndarray) -> np.ndarray:
    """Orthonormal columns of each block of a Gaussian stack (..., n, s), by Gram-Schmidt.

    Column j is projected twice off the columns before it and normalised by
    :func:`_unit_rows`.  This is the Q of QR with a positive R diagonal, so a
    block is a Haar frame, and a square block a Haar element of O(n)
    (Mezzadri, *Notices AMS* 2007).  Only +, -, *, / and sqrt enter, each sum
    in a fixed order, so no LAPACK kernel sets the bits and a stack gives the
    bits of its blocks one at a time.  A residual column of norm at
    most 1e-12 times its Gaussian column's (an event of probability about
    1e-12 per matrix) raises ValueError; no redraw is made.
    """
    out = np.empty(g.shape)
    for j in range(g.shape[-1]):
        v = g[..., j]
        for _ in range(2):
            for i in range(j):
                q = out[..., i]
                v = v - _fold_columns(np.add, q * v)[..., None] * q
        if (_row_norms(v) <= 1e-12 * _row_norms(g[..., j])).any():
            raise ValueError("dependent Gaussian column: it has no Haar direction")
        out[..., j] = _unit_rows(v)
    return out


@functools.lru_cache(maxsize=None)
def _point_set(s: int, m: int) -> np.ndarray:
    """The fixed m-point set P_s(m) on S^(s-1), s >= 2, that a random rotation turns, (m, s).

    s = 2: the m-gon at angles 2 pi i / m; s = 3: the
    spherical Fibonacci set, height 1 - (2i + 1) / m at longitude i times the
    golden angle (Marques et al., *Computer Graphics Forum* 2013); s = 4: the
    super-Fibonacci set (Alexa, *CVPR* 2022); s >= 5: m distinct points, the
    normalised normal quantiles of ((i + 1/2) / m, frac((i + 1/2) / phi^c) for
    c = 1 .. s - 1), phi > 1 the root of x^s = x + 1 (Roberts' generalised
    golden ratio).  Built with ``math`` and ``statistics``, so its bits do not
    depend on numpy's SIMD kernels.  Cached and read-only; s < 2 raises ValueError.
    """
    if s < 2:
        raise ValueError(f"need a sphere S^(s-1) with s >= 2, got s={s}")
    if s == 2:
        rows = [[math.cos(2.0 * math.pi * i / m), math.sin(2.0 * math.pi * i / m)]
                for i in range(m)]
    elif s == 3:
        golden_angle = math.pi * (3.0 - math.sqrt(5.0))
        rows = []
        for i in range(m):
            z = 1.0 - (2 * i + 1) / m
            r = math.sqrt(1.0 - z * z)
            rows.append([r * math.cos(golden_angle * i), r * math.sin(golden_angle * i), z])
    elif s == 4:
        psi = 1.533751168755204     # the real root of x^4 = x + 4
        rows = []
        for i in range(m):
            r, big_r = math.sqrt((i + 0.5) / m), math.sqrt(1.0 - (i + 0.5) / m)
            angle = 2.0 * math.pi * (i + 0.5)
            alpha, beta = angle / math.sqrt(2.0), angle / psi
            rows.append([r * math.sin(alpha), r * math.cos(alpha),
                         big_r * math.sin(beta), big_r * math.cos(beta)])
    else:
        # imported here: no design of a section of dimension <= 4 needs statistics
        from statistics import NormalDist
        phi = 2.0
        for _ in range(100):
            phi = (1.0 + phi) ** (1.0 / s)
        quantile = NormalDist().inv_cdf
        rows = [[quantile((i + 0.5) / m)] + [quantile((i + 0.5) / phi ** c % 1.0)
                                             for c in range(1, s)] for i in range(m)]
        rows = [[x / math.sqrt(math.fsum(y * y for y in row)) for x in row] for row in rows]
    points = np.array(rows, dtype=float).reshape(m, s)
    points.flags.writeable = False
    return points


def uniform_in_body(body, rng, size: int | None = None) -> np.ndarray:
    """Exactly uniform points in a star body, by rejection from its bounding ball.

    Proposals are uniform in R*B_2^dim (direction uniform on the sphere,
    radius R*U^(1/dim)) and accepted when the radius does not exceed the
    body's radial function in that direction.  The radial oracle makes the
    acceptance test exact, so no Markov chain is ever needed.  A radial
    value beyond the stated bounding radius would bias the draw, so it
    raises instead.
    """
    gen = as_generator(rng)
    count = 1 if size is None else int(size)
    dim = body.dim
    radius = float(body.bounding_radius())
    out = np.empty((count, dim))
    have = 0
    # acceptance = |K| / (omega_dim R^dim); batch size adapts after the first round
    batch = max(4 * count, 256)
    while have < count:
        theta = sphere_directions(gen, batch, dim)
        r = radius * gen.uniform(0.0, 1.0, batch) ** (1.0 / dim)
        rho = body.radial(theta)
        # 1e-12 absorbs the last-ulp excess of an exact radius (the cube's vertex direction)
        if np.any(rho > radius * (1.0 + 1e-12)):
            raise ValueError(f"radial value {float(rho.max())!r} exceeds the bounding radius "
                             f"{radius!r}; uniform draws would be biased")
        keep = r <= rho
        pts = theta[keep] * r[keep, None]
        take = min(count - have, len(pts))
        out[have:have + take] = pts[:take]
        have += take
        accepted = max(len(pts), 1)
        batch = int(min(max((count - have) * batch / accepted + 64, 256), 2_000_000))
    return out[0] if size is None else out


class RestrictedSample(NamedTuple):
    points: np.ndarray
    acceptance_rate: float
    proposals: int


class DegenerateRejectionError(RuntimeError):
    """Rejection sampling acceptance collapsed below the safety threshold."""


def sample_restricted(density, body, rng, size: int | None = None) -> RestrictedSample:
    """Exact draws from a density restricted to a body and normalized.

    Proposes uniform points in the body and accepts with probability
    g(x) / sup_K g.  Rejection rather than importance weighting keeps the
    output i.i.d. and unweighted.  No ``sectlab`` code calls it; it stays
    only while ``perfbench``'s tracer binds it.  The bound is ``sup_on``,
    exact or raising, and no bounding radius is estimated.  A density value
    above it (a wrong ``sup_on`` override) would bias the draw, so it raises
    instead, and so does an acceptance rate below 1e-4 after 100 000 proposals.
    """
    gen = as_generator(rng)
    count = 1 if size is None else int(size)
    bound = float(density.sup_on(body))
    if not (bound > 0 and math.isfinite(bound)):
        raise ValueError(f"density bound on body must be finite and positive, got {bound!r}")
    out = np.empty((count, body.dim))
    have = 0
    proposals = 0
    accepted_total = 0
    batch = max(2 * count, 512)
    while have < count:
        pts = uniform_in_body(body, gen, size=batch)
        u = gen.uniform(0.0, 1.0, batch)
        vals = density(pts)
        if np.any(vals > bound):
            raise ValueError(f"density value {float(vals.max())!r} exceeds its bound "
                             f"{bound!r} on the body; restricted draws would be biased")
        keep = u * bound <= vals
        got = pts[keep]
        take = min(count - have, len(got))
        out[have:have + take] = got[:take]
        have += take
        proposals += batch
        accepted_total += len(got)
        if proposals >= _REJECTION_WINDOW and accepted_total < _MIN_ACCEPTANCE * proposals:
            raise DegenerateRejectionError(
                f"acceptance rate {accepted_total / proposals:.2e} below "
                f"{_MIN_ACCEPTANCE:.0e} after {proposals} proposals")
        batch = int(min(max((count - have) * proposals / max(accepted_total, 1) + 64, 512),
                        2_000_000))
    rate = accepted_total / proposals
    pts = out[0] if size is None else out
    return RestrictedSample(pts, rate, proposals)


def simplex_volume(points: np.ndarray) -> np.ndarray | float:
    """Volume of conv(0, x_1, ..., x_m) = |det(x_1, ..., x_m)| / m!.

    ``points`` has shape (..., m, m).  For m <= 3 the determinant is the
    cofactor expansion along the first row, elementwise over the stack,
    which is several times faster than LAPACK on stacks of small blocks;
    larger m takes LAPACK's pivoted LU.  Degenerate configurations return
    0 up to rounding.  Scalar in, scalar out.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != pts.shape[-2]:
        raise ValueError(f"expected (..., m, m) point stacks, got shape {pts.shape}")
    m = pts.shape[-1]
    vols = np.abs(_small_det(pts) if 0 < m <= 3 else np.linalg.det(pts)) / math.factorial(m)
    return float(vols) if vols.ndim == 0 else vols


def _small_det(pts: np.ndarray) -> np.ndarray:
    """det of each (m, m) block of a (..., m, m) stack with m <= 3, in closed form."""
    m = pts.shape[-1]
    if m == 1:
        return pts[..., 0, 0]
    if m == 2:
        return pts[..., 0, 0] * pts[..., 1, 1] - pts[..., 0, 1] * pts[..., 1, 0]
    (a, b, c), (d, e, f), (g, h, i) = [[pts[..., r, col] for col in range(3)] for r in range(3)]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
