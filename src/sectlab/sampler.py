"""Reproducible random sampling: streams, points in bodies, simplex volumes.

The RNG contract is counter-based: a :class:`StreamHandle` names a Philox
stream by (seed, stream_id), and every drawn variate is a pure function of
(seed, stream_id, draw index).  Substreams derived with :meth:`StreamHandle.split`
are statistically independent, so estimator drivers can assign one
substream per frame / per batch and results never depend on scheduling.
"""

from __future__ import annotations

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
    "covariance",
]

_MASK64 = (1 << 64) - 1


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


def _row_norms(g: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (count, dim) array, the bits of np.linalg.norm.

    From eight columns on numpy sums pairwise, not in order, so only the
    shorter rows take the column fold.
    """
    if g.shape[-1] >= 8:
        return np.linalg.norm(g, axis=-1)
    return np.sqrt(_fold_columns(np.add, g * g))


def sphere_directions(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform unit vectors on S^(dim-1), shape (count, dim)."""
    g = gen.standard_normal((count, dim))
    norms = _row_norms(g)
    # a zero normal vector has probability 0; resample defensively anyway
    bad = (norms == 0.0)
    while bad.any():
        g[bad] = gen.standard_normal((int(bad.sum()), dim))
        norms = _row_norms(g)
        bad = (norms == 0.0)
    return g / norms[:, None]


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


def sample_restricted(density, body, rng, size: int | None = None,
                      min_rate: float = 1e-4, window: int = 100_000) -> RestrictedSample:
    """Exact draws from a density restricted to a body and normalized.

    Proposes uniform points in the body and accepts with probability
    g(x) / sup_K g.  Rejection rather than importance weighting keeps the
    output i.i.d. and unweighted for the functionals that need actual
    points: ``functionals.simplex_moment`` (behind ``sylvester``) and
    ``functionals.isotropic_constant``.  A density value above the bound
    from ``sup_on`` would bias the draw, so it raises instead.
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
        if proposals >= window and accepted_total < min_rate * proposals:
            raise DegenerateRejectionError(
                f"acceptance rate {accepted_total / proposals:.2e} below {min_rate:.0e} "
                f"after {proposals} proposals")
        batch = int(min(max((count - have) * proposals / max(accepted_total, 1) + 64, 512),
                        2_000_000))
    rate = accepted_total / proposals
    pts = out[0] if size is None else out
    return RestrictedSample(pts, rate, proposals)


def simplex_volume(points: np.ndarray) -> np.ndarray | float:
    """Volume of conv(0, x_1, ..., x_m) = |det(x_1, ..., x_m)| / m!.

    ``points`` has shape (..., m, m); the determinant is LAPACK's pivoted
    LU.  Degenerate configurations return 0.  Scalar in, scalar out.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != pts.shape[-2]:
        raise ValueError(f"expected (..., m, m) point stacks, got shape {pts.shape}")
    m = pts.shape[-1]
    vols = np.abs(np.linalg.det(pts)) / math.factorial(m)
    return float(vols) if vols.ndim == 0 else vols


def covariance(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased sample covariance and sample mean of an (N, m) cloud."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected an (N, m) array, got shape {pts.shape}")
    n, m = pts.shape
    if n < m + 1:
        raise ValueError(f"need at least m+1 = {m + 1} points, got {n}")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / (n - 1)
    return cov, mean
