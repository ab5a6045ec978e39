"""Scalar functionals of bodies and measures.

Implements the simplex-moment (Sylvester) functionals, the isotropic
constant, the dual affine quermassintegral and its companions
(mean-section functional, negative moment), and the volume radius.
Subspace averages are Monte Carlo over Haar frames; means of
n-th powers of section volumes are heavy-tailed and therefore accumulated
in log domain.

Every subspace average, here and in the checks, runs on one
:class:`_FrameDesign`.  Its frame argument is a count or an explicit
sequence of frames; ``draw_frames(n, n - k, count, rng)`` gives the same
bytes as ``count``, and is how paired comparisons share common random frames.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import StarBody
from .constants import log_ball_volume
from .estimates import (Estimate, _log, exact_log_estimate, log_mean_estimate,
                        log_power_product, mean_estimate)
from .grassmann import Frame, _haar_bases, _require_orthonormal, sample_haar
from .measures import (DensityOracle, LebesgueDensity, _require_sphere_samples,
                       _section_measure_values, measure_of_body, section_measure_values)
from .sampler import (StreamHandle, _rekeyable, _stream_directions, _stream_normals,
                      covariance, sample_restricted, simplex_volume, sphere_directions,
                      uniform_in_body)

__all__ = [
    "draw_frames",
    "simplex_moment",
    "sylvester",
    "isotropic_constant",
    "dual_affine_quermass",
    "w_tilde",
    "i_minus_k",
    "volume_radius",
    "log_volume_estimate",
]

_N_BATCHES = 20
_VOLUME_SAMPLES = 20_000    # polar directions for |K| when the body does not know it
_AUX = 1 << 40      # substream offset reserved for auxiliary draws
# Directions per frame block: bounds the (B, count, n) arrays a block allocates.
# At 2**13 glibc handed each block's temporaries back to the OS and faulted
# them in again: 231k minor faults in the pool's children on volume_sections
# (seed 0), 72k on density_sections, 61k on identity_sampling.  At 2**12 the
# allocator reuses them, and the children take 4.7k, 4.2k and 5.8k faults,
# about the 4.5k of forking the pool.  2**11 faults about as little but
# adds per-block overhead; 2**12 ran fastest of the three.
_BLOCK_DIRS = 1 << 12


def _haar_stack(n: int, s: int, count: int, rng: StreamHandle,
                gen: np.random.Generator) -> np.ndarray:
    """The bases of :func:`draw_frames` as one (count, n, s) stack, with no Frame built.

    Frame j's Gaussian draw comes from rng.split(j) through ``gen``, one
    re-keyed generator (:func:`~sectlab.sampler._stream_normals`).
    """
    handles = [rng.split(j) for j in range(count)]
    bases, deficient = _haar_bases(_stream_normals(gen, handles, (n, s)))
    for j in np.flatnonzero(deficient):
        bases[j] = sample_haar(n, s, rng.split(int(j))).basis
    return bases


def draw_frames(n: int, s: int, count: int, rng: StreamHandle) -> list[Frame]:
    """Haar frames from per-index substreams: frame j depends only on (rng, j).

    Equal to ``[sample_haar(n, s, rng.split(j)) for j in range(count)]``:
    one batched QR orthonormalises every frame's first Gaussian draw, and a
    numerically rank-deficient draw goes to :func:`sample_haar`, which
    repeats it from the same substream and retries.
    """
    if not 1 <= s <= n - 1:
        raise ValueError(f"need 1 <= s <= n-1, got n={n}, s={s}")
    return [Frame(basis) for basis in _haar_stack(n, s, count, rng, _rekeyable())]


class _FrameDesign:
    """The frames of one average over the Grassmannian G_{n,n-k}, and their directions.

    ``frames`` is a count, drawn as :func:`draw_frames` draws it, or a
    sequence of frames of codimension k in R^n; either way the bases are
    held as one (F, n, n - k) stack.  Frame j gets ``count`` sphere
    directions, drawn from rng.split(j).split(1): a child of the substream
    frame j may have been drawn from, so the two stay independent, while
    designs that share (frames, rng) share every direction.  Every average
    over frames goes through :meth:`map` and :meth:`log_mean`.

    A design builds one Philox generator and re-keys it to each frame's
    substream (:func:`~sectlab.sampler._stream_normals`), for the frame
    draws and for every block's directions; building one per frame cost
    more than drawing its normals.  The bits are those of a new generator
    per substream.
    """

    def __init__(self, frames, n: int, k: int, count: int, rng: StreamHandle):
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
        if count < 1:
            raise ValueError(f"need at least one sphere direction per frame, got {count}")
        s = n - k
        gen = _rekeyable()
        if isinstance(frames, (int, np.integer)):
            bases = _haar_stack(n, s, max(int(frames), 0), rng, gen)
        else:
            frames = list(frames)
            for f in frames:
                if f.n != n or f.s != s:
                    raise ValueError(f"frame {f!r} does not match n={n}, s={s}")
            bases = np.array([f.basis for f in frames]).reshape(-1, n, s)   # empty: (0, n, s)
        if not len(bases):
            raise ValueError("need at least one frame")
        _require_orthonormal(bases)
        self.bases, self.count, self.rng, self._gen = bases, count, rng, gen

    def __len__(self) -> int:
        return len(self.bases)

    def map(self, fn) -> np.ndarray:
        """fn(theta, dirs) on blocks of frames, concatenated along the frame axis.

        theta (B, count, s) holds each frame's directions in subspace
        coordinates and dirs (B, count, n) their embeddings in R^n, computed
        for the whole block in one matmul; theta is normalised for the whole
        block at once (:func:`~sectlab.sampler._stream_directions`).  A block
        holds at most ``_BLOCK_DIRS`` directions, and at least one frame.
        """
        step = max(1, _BLOCK_DIRS // self.count)
        parts = []
        for start in range(0, len(self.bases), step):
            bases = self.bases[start:start + step]
            handles = [self.rng.split(j).split(1) for j in range(start, start + len(bases))]
            theta = _stream_directions(self._gen, handles, self.count, bases.shape[-1])
            parts.append(fn(theta, theta @ bases.transpose(0, 2, 1)))
        return np.concatenate(parts)

    def log_mean(self, logs: np.ndarray) -> Estimate:
        """log of the mean over frames of exp(logs), one log per frame, with its SE."""
        return log_mean_estimate(logs)


def log_volume_estimate(body: StarBody, rng: StreamHandle) -> Estimate:
    """log |K|: exact when the body knows its volume, else the polar Lebesgue measure
    over ``_VOLUME_SAMPLES`` directions drawn from rng."""
    if body.exact_volume is not None:
        return exact_log_estimate(math.log(body.exact_volume))
    return measure_of_body(LebesgueDensity(body.dim), body, _VOLUME_SAMPLES, rng).to_log()


def section_volume_values(body: StarBody, frame: Frame, sphere_samples: int,
                          rng) -> np.ndarray:
    """Per-direction polar values omega_s rho^s of one frame; their mean estimates |K cap F|.

    The checks evaluate the section kernel on blocks of frames; this
    one-frame form stays for ``perfbench``'s tracer, which binds it.
    """
    return section_measure_values(LebesgueDensity(frame.n), body, frame, sphere_samples, rng)


def simplex_moment(body: StarBody, m: int, p: float, trials: int, rng: StreamHandle,
                   density: DensityOracle | None = None) -> Estimate:
    """E |conv(0, x_1, ..., x_m)|^p with i.i.d. vertices from the body.

    Vertices are uniform in the body, or drawn from ``density`` restricted
    to it.  This is the raw moment; see :func:`sylvester` for the
    normalized functional.
    """
    if m != body.dim:
        raise ValueError(f"vertex count {m} must equal the body dimension {body.dim}")
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if density is None:
        pts = uniform_in_body(body, rng, size=trials * m)
    else:
        pts = sample_restricted(density, body, rng, size=trials * m).points
    vols = simplex_volume(pts.reshape(trials, m, m))
    return mean_estimate(vols ** p)


def sylvester(body: StarBody, m: int, p: float, trials: int, rng: StreamHandle,
              density: DensityOracle | None = None) -> Estimate:
    """Normalized p-th simplex-volume moment S_p.

    For the uniform-on-body case the volume normalization makes S_p
    invariant under invertible linear maps: S_p = (E|conv|^p)^(1/p) / |D|.
    For a probability measure (density restricted to the body) it is
    (E|conv|^p)^(1/p) with no volume factor.
    """
    moment = simplex_moment(body, m, p, trials, rng, density=density)
    s_p = moment.powered(1.0 / p)
    if density is None:
        s_p = s_p.divided_by(log_volume_estimate(body, rng.split(_AUX)))
    return s_p.to_linear()


def _batched_cov_dets(points: np.ndarray) -> np.ndarray:
    """det of per-batch sample covariances; batch means give an honest SE."""
    n = len(points)
    batch = n // _N_BATCHES
    dets = np.empty(_N_BATCHES)
    for i in range(_N_BATCHES):
        cov, _ = covariance(points[i * batch:(i + 1) * batch])
        dets[i] = np.linalg.det(cov)
    return dets


def isotropic_constant(body: StarBody, samples: int, rng: StreamHandle,
                       density: DensityOracle | None = None) -> Estimate:
    """L = (sup f / integral f)^(1/n) * det(Cov)^(1/2n).

    For the uniform density on a body this is det(Cov)^(1/2n) / |K|^(1/n);
    the covariance is computed about the empirical mean, so a non-centered
    source is recentered by construction.
    """
    n = body.dim
    if density is None:
        pts = uniform_in_body(body, rng.split(1), size=samples)
        log_mass = log_volume_estimate(body, rng.split(2))
        log_sup = 0.0
    else:
        pts = sample_restricted(density, body, rng.split(1), size=samples).points
        log_mass = measure_of_body(density, body, max(samples // 10, 2000),
                                   rng.split(2)).to_log()
        log_sup = math.log(density.sup_on(body))
    det_est = mean_estimate(_batched_cov_dets(pts))
    l_est = det_est.powered(1.0 / (2 * n)).times(
        exact_log_estimate(log_sup / n)).divided_by(log_mass.powered(1.0 / n))
    return l_est.to_linear()


def _quermass_from_logs(body: StarBody, k: int, logs: np.ndarray,
                        design: _FrameDesign) -> Estimate:
    """(E_F |K1 cap F|^n)^(1/(kn)) from per-frame logs of unbiased |K cap F|^n estimates."""
    n = body.dim
    log_vol = log_volume_estimate(body, design.rng.split(_AUX))
    mean_log = design.log_mean(logs - (n - k) * log_vol.value)
    se = math.hypot(mean_log.std_error, (n - k) * log_vol.std_error) / (k * n)
    return Estimate(mean_log.value / (k * n), se, len(logs), log_domain=True).to_linear()


def dual_affine_quermass(body: StarBody, k: int, frames, sphere_samples: int,
                         rng: StreamHandle) -> Estimate:
    """The normalized section-power mean (E_F |K1 cap F|^n)^(1/(kn)).

    K1 is the volume-one rescaling of the body.  Each frame's n-th power
    is estimated without bias by a product of independent group means, the
    frame average is a log-sum-exp (the powers are heavy-tailed), and the
    1/(kn) root is applied on the log scale.  Invariant under
    volume-preserving linear maps, maximized by the ball.  Frame j's sphere
    directions depend only on (rng, j), so bodies estimated on common
    frames with the same ``rng`` share their directions too.
    """
    n = body.dim
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    logs = design.map(lambda theta, dirs: log_power_product(
        _section_measure_values(LebesgueDensity(n), body, dirs, n - k), n))
    return _quermass_from_logs(body, k, logs, design)


def w_tilde(body: StarBody, k: int, frames, sphere_samples: int,
            rng: StreamHandle) -> Estimate:
    """Mean section volume functional (E_F |K1 cap F|)^(1/k) for volume-one K1."""
    n = body.dim
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    log_vol = log_volume_estimate(body, rng.split(_AUX))
    means = design.map(lambda theta, dirs: _section_measure_values(
        LebesgueDensity(n), body, dirs, n - k).mean(axis=-1))
    mean_log = design.log_mean(_log(means) - (n - k) / n * log_vol.value)
    se = math.hypot(mean_log.std_error, (n - k) * log_vol.std_error / n) / k
    return Estimate(mean_log.value / k, se, len(design), log_domain=True).to_linear()


def i_minus_k(body: StarBody, k: int, samples: int, rng: StreamHandle) -> Estimate:
    """Negative moment I_{-k} = (integral_K1 ||x||^(-k) dx)^(-1/k), volume-one K1.

    Polar integration gives integral_K ||x||^(-k) dx
    = n omega_n / (n - k) * E_theta[rho(theta)^(n-k)], which is finite for
    k < n.
    """
    n = body.dim
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    _require_sphere_samples(samples)
    theta = sphere_directions(rng.split(0).generator(), samples, n)
    moment = mean_estimate(body.radial(theta) ** (n - k)).to_log()
    log_vol = log_volume_estimate(body, rng.split(_AUX))
    log_factor = math.log(n) + log_ball_volume(n) - math.log(n - k)
    # K1 = |K|^(-1/n) K; substituting x = |K|^(-1/n) y gives
    # integral_K1 ||x||^(-k) dx = |K|^(-(n-k)/n) integral_K ||y||^(-k) dy
    log_integral = log_factor + moment.value - (n - k) / n * log_vol.value
    se = math.hypot(moment.std_error, (n - k) / n * log_vol.std_error)
    return Estimate(-log_integral / k, se / k, samples, log_domain=True).to_linear()


def volume_radius(body: StarBody, samples: int, rng) -> Estimate:
    """(|K| / omega_n)^(1/n), with |K| from :func:`~sectlab.measures.measure_of_body`
    under Lebesgue measure on ``samples`` directions (at least 100)."""
    n = body.dim
    volume = measure_of_body(LebesgueDensity(n), body, samples, rng)
    return volume.scaled(math.exp(-log_ball_volume(n))).powered(1.0 / n).to_linear()
