"""Reproducible random sampling: streams, points in bodies, simplex volumes.

The RNG contract is counter-based: a :class:`StreamHandle` names a Philox
stream by (seed, stream_id), and every drawn variate is a pure function of
(seed, stream_id, draw index).  Substreams derived with :meth:`StreamHandle.split`
are statistically independent, so estimator drivers can assign one
substream per frame / per batch and results never depend on scheduling.

Philox is counter-based (Salmon et al., *Parallel random numbers: as easy
as 1, 2, 3*, SC 2011): a stream is its key, and a bit generator re-keyed
at counter 0 with an empty buffer is in the state a new one starts in.
So the frame loops draw one substream after another from a single
re-keyed bit generator (:func:`_stream_normals`, :func:`_stream_directions`)
instead of building one per substream; the per-substream contract and
every variate are unchanged.
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


def _rekeyable() -> np.random.Generator:
    """A Philox generator for :func:`_stream_normals`; its own seed is never drawn from."""
    return np.random.Generator(np.random.Philox(0))


def _stream_normals(gen: np.random.Generator, handles, shape: tuple) -> np.ndarray:
    """Each handle's ``standard_normal(shape)``, stacked: shape (len(handles), *shape).

    Equal bit for bit to ``h.generator().standard_normal(shape)`` per handle.
    ``gen`` (from :func:`_rekeyable`) is re-keyed to each handle's stream at
    counter 0 with an empty buffer and no spare 32-bit word, which is the
    state a new ``Philox(key=...)`` starts in, whatever ``gen`` drew before.
    """
    bits = gen.bit_generator
    zeros = (0, 0, 0, 0)
    out = np.empty((len(handles), *shape))
    for i, h in enumerate(handles):
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": zeros,
                                "key": (h.seed & _MASK64, h.stream_id & _MASK64)},
                      "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=out[i])
    return out


def _stream_directions(gen: np.random.Generator, handles, count: int,
                       dim: int) -> np.ndarray:
    """Each handle's ``sphere_directions(h.generator(), count, dim)``, stacked: (B, count, dim).

    The normals of every stream are drawn by :func:`_stream_normals` and
    normalised together, in place.  A stream with a zero row is drawn again
    by :func:`sphere_directions`, which replays its normals and resamples.
    """
    g = _stream_normals(gen, handles, (count, dim))
    norms = _row_norms(g)
    bad = np.flatnonzero((norms == 0.0).any(axis=-1))
    norms[bad] = 1.0
    g /= norms[..., None]
    for j in bad:
        g[j] = sphere_directions(handles[j].generator(), count, dim)
    return g


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
