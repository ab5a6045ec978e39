"""Scalar functionals of bodies and measures.

Implements the dual affine quermassintegral, the one functional the
checks read, and the logs of |K| and mu(K) it and the checks share.
Subspace averages are Monte Carlo over Haar frames, and inside a frame
over randomised point sets on the section's sphere, except on lines, whose
sphere {u, -u} is taken whole; means of n-th powers of section volumes are
heavy-tailed and therefore accumulated in log domain.

Every subspace average, here and in the checks, runs on one
:class:`_FrameDesign`, built from a frame count and a stream.  Designs
that share (count, rng) share every frame and direction, which is how
paired comparisons share common random frames.  Its :meth:`~_FrameDesign.sections`
is the one pass over section values, and :meth:`~_FrameDesign.map` the one
path from a design to its directions.

A check entry's stream rng splits as:

- rng.split(0): the frames (:func:`_haar_stack`), then, for s >= 2, the
  Gaussian (F, groups, s, s) stack of the groups' rotations;
- |K|, rng.split(_AUX); mu(K) of a density other than Lebesgue,
  rng.split(_AUX + 1); Grinberg's t-th image, rng.split(_AUX + 2 + t).
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import StarBody
from .estimates import (Estimate, _group_means, _log_product, _mean_and_se,
                        exact_log_estimate, log_mean_estimate)
from .grassmann import Frame
from .measures import (DensityOracle, LebesgueDensity, _section_measure_values,
                       measure_of_body, section_measure_values)
from .sampler import StreamHandle, _fold_columns, _haar_columns, _point_set
from .sampler import sphere_directions  # noqa: F401 (perfbench)

__all__ = [
    "dual_affine_quermass",
    "log_volume_estimate",
    "log_measure_estimate",
]

_VOLUME_SAMPLES = 20_000    # polar directions for |K| when the body does not know it
_AUX = 1 << 40      # substream offset reserved for auxiliary draws
# Directions per frame block: bounds the (B, count, n) arrays a block allocates.
# At 2**13 glibc hands each block's temporaries back to the OS and faults
# them in again: 88k minor faults in the suite's two forked workers on
# volume_sections (seed 0), 11k on density_sections, 6.4k on identity_sampling.
# At 2**12 the allocator reuses them, and the workers take 4.6k, 4.5k and
# 6.1k faults, of which forking two workers that run nothing takes 0.7k.
# 2**11 faults about as little but adds per-block overhead; 2**12 ran
# fastest of the three.
_BLOCK_DIRS = 1 << 12


def _haar_stack(n: int, s: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Bases of count subspaces, each Haar, as one (count, n, s) stack drawn from ``gen``.

    Lines in the plane are stratified: frame j is the line at angle
    pi (j + U) / count, with one uniform U drawn from ``gen``.  At every other
    n, for s = 1 or n - 1 (the outer rule) the lines, or the normals u, are
    :func:`~sectlab.sampler._point_set` (n, count) under one Haar rotation; a
    normal's basis is the first n - 1 columns of the Householder reflection
    I - 2 v v^T / v^T v, v = u + sign(u_n) e_n.  Otherwise the frames are
    :func:`~sectlab.sampler._haar_columns` of a Gaussian (count, n, s) stack.
    Stratified lines and rule frames are not independent, and the iid SE of
    a mean over them over-reports.
    """
    if (n, s) == (2, 1):
        offset = gen.random()
        angles = [math.pi * (j + offset) / count for j in range(count)]
        return np.array([[[math.cos(a)], [math.sin(a)]] for a in angles])
    if s in (1, n - 1):
        u = _point_set(n, count) @ _haar_columns(gen.standard_normal((n, n))).T
        if s == 1:
            return u[:, :, None]
        v = u + np.copysign(np.eye(n)[-1], u[:, -1:])
        scale = 2.0 / _fold_columns(np.add, v * v)
        return np.eye(n)[:, :-1] - v[:, :, None] * (v[:, None, :-1] * scale[:, None, None])
    return _haar_columns(gen.standard_normal((count, n, s)))


def _lattice_groups(s: int, m: int, start: int, stop: int) -> np.ndarray:
    """Groups start .. stop - 1 of m directions, (stop - start, m, s): group g is rows a_g j
    mod m of :func:`~sectlab.sampler._point_set` (s, m), a_0 = 1 and a_g the integer nearest
    m / phi^g raised until coprime to m, so row j of s groups is a rank-1 lattice (Sloan &
    Joe, 1994); pairing in point-set order would give two rotated m-gons one angle per frame."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    rows = []
    for g in range(start, stop):
        a = round(m / golden ** g) if g else 1
        while math.gcd(a, m) != 1:
            a += 1
        rows.append(np.arange(m) * a % m)
    return _point_set(s, m)[np.array(rows)]


class _FrameDesign:
    """The frames of one average over the Grassmannian G_{n,n-k}, and their directions.

    ``frames`` frames are drawn by :func:`_haar_stack`, by its outer rule at
    k = 1 or n - 1 for every n >= 3, and held as one (F, n, n - k) stack.
    Frame j gets ``count`` directions on the sphere of its subspace (two on
    lines, below), drawn from rng.split(0) alone (see the module docstring),
    so designs built with the same arguments share every frame and direction.
    Every average over frames goes through :meth:`map`, section values through
    :meth:`sections`, and its per-frame logs through
    :func:`~sectlab.estimates.log_mean_estimate`.

    A frame's directions are ``groups`` (default n) consecutive groups, sized
    as ``np.array_split`` sizes them, each a fixed point set P, in
    :func:`_lattice_groups`' order, under its own Haar rotation R of O(s),
    :func:`~sectlab.sampler._haar_columns` of an s x s Gaussian block.  R is
    folded into the frame's basis B, so a group embeds as P (B R)^T.  The
    groups are independent and each group's mean is unbiased, so the
    product of n group means is an unbiased n-th power (Owen, *Monte Carlo
    theory, methods and examples*, ch. 17).  The identity checks take s
    groups, one per slot of their s-tuples: tuple j is row j of each group.
    The iid formula over one frame's directions over-reports the SE for
    s <= 3, where the point sets beat independent draws by far; for s >= 4
    it is about right, but may under-report small groups: over 2000 Haar
    rotations of groups of 24, 60 and 120 points, a group mean's spread on
    ``centered_simplex(4)`` is 1.08, 1.03 and 0.77 times it.  Over frames it
    is an iid SE for iid Haar frames and over-reports for rule frames and
    stratified lines.  At s = 1 a line's sphere S^0 = {u, -u}, u = B[:, 0],
    has two points, which give its average exactly: the design is one group,
    [+1], [-1] with no rotation drawn, whatever ``count`` and ``groups`` ask,
    so ``count`` is 2 and a line's mean has no error within its frame.
    """

    def __init__(self, frames: int, n: int, k: int, count: int, rng: StreamHandle, *,
                 groups: int | None = None):
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
        if count < 1:
            raise ValueError(f"need at least one sphere direction per frame, got {count}")
        if frames < 1:
            raise ValueError(f"need at least one frame, got {frames}")
        gen = rng.split(0).generator()
        s, groups = n - k, n if groups is None else groups
        self.bases = _haar_stack(n, s, frames, gen)
        if s == 1:      # S^0 = {u, -u}: one group, the exact two-point rule, not rotated
            self.count, self._runs = 2, [(np.array([[[1.0], [-1.0]]]), slice(0, 1))]
            self._embeddings = np.ascontiguousarray(self.bases.swapaxes(-1, -2)[:, None])
            return
        self.count = count
        rotations = _haar_columns(gen.standard_normal((frames, groups, s, s)))
        # (F, groups, s, n): group g of frame f embeds as its point set @ E[f, g]
        self._embeddings = np.ascontiguousarray(
            (self.bases[:, None] @ rotations).swapaxes(-1, -2))
        # runs of equal group sizes (the first count % groups one longer), as (point sets, slice)
        size, extra = divmod(count, groups)
        self._runs = [(_lattice_groups(s, m, start, stop), slice(start, stop))
                      for m, start, stop in ((size + 1, 0, extra), (size, extra, groups))
                      if m and start < stop]

    def __len__(self) -> int:
        return len(self.bases)

    def map(self, fn) -> np.ndarray:
        """fn(dirs) on blocks of frames, concatenated along the frame axis.

        dirs (B, count, n) holds each frame's directions embedded in R^n, group
        after group: one (groups, m, s) @ (B, groups, s, n) matmul per run of
        groups of m, which on lines gives [u, -u] exactly.  A block holds at
        most ``_BLOCK_DIRS`` directions, and at least one frame.
        """
        step = max(1, _BLOCK_DIRS // self.count)
        n = self.bases.shape[1]
        parts = []
        for start in range(0, len(self), step):
            embeddings = self._embeddings[start:start + step]
            runs = [(points @ embeddings[:, groups]).reshape(len(embeddings), -1, n)
                    for points, groups in self._runs]
            parts.append(fn(runs[0] if len(runs) == 1 else np.concatenate(runs, axis=1)))
        return np.concatenate(parts)

    def sections(self, density: DensityOracle, bodies: list, spread: bool = False,
                 powers: bool = True) -> np.ndarray:
        """The one section pass, as (F, len(bodies), columns): per frame and body, the mean
        of :func:`~sectlab.measures._section_measure_values` over the frame's directions
        and its iid SE (``spread``), then the n group means (``powers``).  On lines the mean
        over u and -u is exact: its SE is 0, and each of the n group means is that mean."""
        n, s = self.bases.shape[1:]

        def reduce(values):
            if s == 1:
                mean = values.mean(axis=-1)
                return np.column_stack(([mean, np.zeros_like(mean)] if spread else [])
                                       + ([mean] * n if powers else []))
            columns = list(_mean_and_se(values)) if spread else []
            return np.column_stack(columns + ([_group_means(values, n)] if powers else []))

        return self.map(lambda dirs: np.stack(
            [reduce(_section_measure_values(density, body, dirs, s)) for body in bodies], axis=1))


def log_volume_estimate(body: StarBody, rng: StreamHandle) -> Estimate:
    """log |K|: exact when the body knows its volume, else the polar Lebesgue measure
    over ``_VOLUME_SAMPLES`` directions drawn from rng.split(_AUX)."""
    if body.exact_volume is not None:
        return exact_log_estimate(math.log(body.exact_volume))
    volume = LebesgueDensity(body.dim)
    return measure_of_body(volume, body, _VOLUME_SAMPLES, rng.split(_AUX))


def log_measure_estimate(density: DensityOracle, body: StarBody, samples: int,
                         rng: StreamHandle) -> Estimate:
    """log mu(K): for Lebesgue measure of K's dimension |K| by :func:`log_volume_estimate`,
    else :func:`measure_of_body` on ``samples`` directions of rng.split(_AUX + 1)."""
    if isinstance(density, LebesgueDensity) and density.dim == body.dim:
        return log_volume_estimate(body, rng)
    return measure_of_body(density, body, samples, rng.split(_AUX + 1))


def section_volume_values(body: StarBody, frame: Frame, sphere_samples: int,
                          rng) -> np.ndarray:
    """Per-direction polar values omega_s rho^s of one frame; their mean estimates |K cap F|.

    The checks evaluate the section kernel on blocks of frames; this
    one-frame form stays for ``perfbench``'s tracer, which binds it.
    """
    return section_measure_values(LebesgueDensity(frame.n), body, frame, sphere_samples, rng)


def _quermass_from_logs(k: int, logs: np.ndarray, n: int, log_vol: Estimate) -> Estimate:
    """log (E_F |K1 cap F|^n)^(1/(kn)) from per-frame logs of unbiased |K cap F|^n and log |K|."""
    return log_mean_estimate(logs).divided_by(log_vol.powered(n - k)).powered(1 / (k * n))


def dual_affine_quermass(body: StarBody, k: int, frames: int, sphere_samples: int,
                         rng: StreamHandle) -> Estimate:
    """log of the normalized section-power mean (E_F |K1 cap F|^n)^(1/(kn)).

    K1 is the volume-one rescaling of the body.  Each frame's n-th power
    is estimated without bias by a product of independent group means, the
    frame average is a max-shifted log-mean (the powers are heavy-tailed), and the
    1/(kn) root is applied on the log scale.  Invariant under
    volume-preserving linear maps, maximized by the ball.  Bodies estimated
    with the same ``rng`` share their frames and directions.
    """
    n = body.dim
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    logs = _log_product(design.sections(LebesgueDensity(n), [body])[:, 0])
    return _quermass_from_logs(k, logs, n, log_volume_estimate(body, rng))
