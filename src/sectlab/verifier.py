"""The check registry: every computable identity/inequality becomes a named check.

Each check estimates both sides of one relation with explicit Monte Carlo
error control, entirely in log domain where n-th powers appear, and emits
a :class:`~sectlab.estimates.CheckReport`.  Grassmannian maxima are always
maxima over *sampled* frames; for right-hand-side maxima this makes the
inequality checks conservative (the sampled max under-estimates the true
one), which is recorded in the report note.

Checks are pure functions of (inputs, rng) and report ``rng.seed``: each builds
one frame design (:class:`~sectlab.functionals._FrameDesign`), which draws frame j
and its directions from substreams of (rng, j), and every other purpose has its own
substream, so a rerun gives a bit-identical report regardless of scheduling.

:func:`run_suite` runs the grid entries on a pool of forked worker
processes, one per CPU this process may run on, or ``SECTLAB_WORKERS`` of
them; the reports come back in grid order, so the result is byte-identical
to a serial run.  ``SECTLAB_WORKERS=1`` runs every entry in this process,
which is the way to debug or profile a check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bodies import StarBody, linear_image
from .constants import log_ball_volume, log_bp_constant, log_gamma_nk
from .estimates import (CheckReport, Estimate, _log, _mean_and_se, equality_report,
                        exact_log_estimate, inequality_report, log_power_product)
from .functionals import (_AUX, _VOLUME_SAMPLES, _FrameDesign, _quermass_from_logs,
                          dual_affine_quermass, log_volume_estimate)
from .grassmann import _haar_bases
from .measures import (DensityOracle, LebesgueDensity, _section_measure_values,
                       measure_of_body)
from .sampler import StreamHandle, simplex_volume

__all__ = [
    "check_bp_identity",
    "check_slicing_chain",
    "check_dpp",
    "check_logconcave_identity",
    "check_grinberg",
    "check_busemann_petty_volume",
    "negative_control",
    "SuiteConfig",
    "SuiteResult",
    "run_suite",
    "CHECKS",
]

_SAMPLED_MAX_NOTE = "max is sampled (lower bound of the true Grassmannian max)"


def _polar_log_moments(density: DensityOracle, body: StarBody, k: int, points: int,
                       theta: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """log of the integral over (K cap F)^s of |conv(0, x_1..x_s)|^k prod_i g(x_i) dx,
    one per frame of a block.

    Writing x_i = r_i theta_i inside F and integrating the radii gives
    (s omega_s)^s E_theta[ (|det theta| / s!)^k prod_i m(theta_i) ], with
    theta_1..theta_s uniform on S^(s-1) and m(theta) the ray mass of g up to
    rho(theta) at power s + k.  Each frame's ``points`` direction s-tuples
    are its rows of theta (B, points * s, s), embedded as dirs.
    """
    frames, _, s = theta.shape
    mass = density.ray_mass(dirs, body.radial(dirs), float(s + k))
    vols = simplex_volume(theta.reshape(frames, points, s, s))
    moment = (vols ** k * mass.reshape(frames, points, s).prod(axis=-1)).mean(axis=-1)
    if np.any(moment <= 0):
        raise ValueError("simplex moment vanished; degenerate section directions")
    return s * (math.log(s) + log_ball_volume(s)) + _log(moment)


def _identity_report(name: str, density: DensityOracle, body: StarBody, k: int, frames: int,
                     points_per_frame: int, rng: StreamHandle, lhs: Estimate) -> CheckReport:
    """Compare lhs with p(n, n-k) E_F[ polar moment of K cap F ] over sampled frames."""
    n = body.dim
    design = _FrameDesign(frames, n, k, points_per_frame * (n - k), rng)
    mean_log = design.log_mean(design.map(
        lambda theta, dirs: _polar_log_moments(density, body, k, points_per_frame,
                                               theta, dirs)))
    rhs = Estimate(log_bp_constant(n, n - k) + mean_log.value,
                   mean_log.std_error, len(design), log_domain=True)
    return equality_report(name, n, k, lhs, rhs, seed=rng.seed,
                           inputs={"frames": len(design),
                                   "points_per_frame": points_per_frame})


def check_bp_identity(body: StarBody, k: int, frames: int, points_per_frame: int,
                      rng: StreamHandle, sphere_samples: int = 2000) -> CheckReport:
    """|K|^(n-k) against p(n, n-k) E_F[ integral over (K cap F)^(n-k) of |conv|^k ].

    The right side is Monte Carlo over frames.  Inside each section the
    integral is taken in polar form, (s omega_s)^s E_theta[ (|det theta|/s!)^k
    prod_i rho(theta_i)^(s+k) / (s+k) ] with s = n - k, averaged over
    ``points_per_frame`` direction s-tuples; no point is sampled inside the
    section.  The left side's volume is exact when the body knows it, else
    estimated on ``_VOLUME_SAMPLES`` directions.  ``sphere_samples`` is
    neither read nor recorded: only the benchmark's workloads still pass it.
    """
    lhs = log_volume_estimate(body, rng.split(_AUX)).powered(body.dim - k)
    return _identity_report("bp_identity", LebesgueDensity(body.dim), body, k, frames,
                            points_per_frame, rng, lhs)


def _max_section_log(density: DensityOracle, body: StarBody,
                     design: _FrameDesign) -> tuple[Estimate, int]:
    """Largest section measure over the design's frames, in log domain, plus its frame index."""
    stats = design.map(lambda theta, dirs: np.stack(
        _mean_and_se(_section_measure_values(density, body, dirs, theta.shape[-1])), axis=-1))
    best = int(np.argmax(stats[:, 0]))
    est = Estimate(float(stats[best, 0]), float(stats[best, 1]), design.count)
    return est.to_log(), best


def check_slicing_chain(density: DensityOracle, body: StarBody, k: int, frames: int,
                        sphere_samples: int, rng: StreamHandle) -> CheckReport:
    """Explicit-constant slicing bound for an arbitrary bounded density:
    mu(K)^(n-k) <= gamma^(-n) p(n, n-k) (max_F mu(K cap F))^(n-k) |K|^(k(n-k)/n).

    The sampled max under-estimates the true max, so the check is
    conservative (stricter than the proved inequality).
    """
    n = body.dim
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    mu_total = measure_of_body(density, body, sphere_samples, rng.split(_AUX + 1))
    max_log, argmax = _max_section_log(density, body, design)
    log_vol = log_volume_estimate(body, rng.split(_AUX))
    consts = exact_log_estimate(-n * log_gamma_nk(n, k) + log_bp_constant(n, n - k))
    rhs = consts.times(max_log.powered(n - k)).times(log_vol.powered(k * (n - k) / n))
    lhs = mu_total.powered(n - k)
    return inequality_report("slicing_chain", n, k, lhs, rhs, seed=rng.seed,
                             note=_SAMPLED_MAX_NOTE,
                             inputs={"frames": len(design),
                                     "sphere_samples": sphere_samples,
                                     "argmax_frame": argmax,
                                     "max_section_log": max_log.value})


def check_dpp(density: DensityOracle, body: StarBody, k: int, frames: int,
              sphere_samples: int, rng: StreamHandle) -> CheckReport:
    """E_F[mu(K cap F)^n] <= gamma^(-n) (sup_K g)^k mu(K)^(n-k).

    Equality holds exactly for the uniform density on a Euclidean ball,
    so that fixture sits at the tolerance boundary by design.
    """
    sup = density.sup_on(body)
    n = body.dim
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    lhs = design.log_mean(design.map(lambda theta, dirs: log_power_product(
        _section_measure_values(density, body, dirs, n - k), n)))
    mu_total = measure_of_body(density, body, sphere_samples, rng.split(_AUX + 1))
    rhs = exact_log_estimate(-n * log_gamma_nk(n, k) + k * math.log(sup)).times(
        mu_total.powered(n - k))
    return inequality_report("dpp_bound", n, k, lhs, rhs, seed=rng.seed,
                             inputs={"frames": len(design),
                                     "sphere_samples": sphere_samples,
                                     "sup_on_body": sup})


def check_logconcave_identity(density: DensityOracle, body: StarBody, k: int, frames: int,
                              points_per_frame: int, rng: StreamHandle,
                              sphere_samples: int = 2000) -> CheckReport:
    """mu(K)^(n-k) = p(n, n-k) E_F[ integral over (K cap F)^(n-k) of |conv|^k prod g ].

    The generalized Blaschke-Petkantschin formula: it holds for every
    locally integrable density g and every star body K with 0 in its
    interior, symmetric or not (Schneider & Weil, Stochastic and Integral
    Geometry, 2008, sec. 7.2).  The name is historical: g need not be
    log-concave or even.

    Inside each section the integral is taken in polar form,
    (s omega_s)^s E_theta[ (|det theta|/s!)^k prod_i m(theta_i) ] with
    s = n - k and m(theta) = ``density.ray_mass`` up to rho(theta) at power
    s + k, averaged over ``points_per_frame`` direction s-tuples; no point
    is sampled and no density supremum is needed.  The left side's measure
    is estimated on ``_VOLUME_SAMPLES`` directions.  ``sphere_samples`` is
    neither read nor recorded: only the benchmark's workloads still pass it.
    """
    lhs = measure_of_body(density, body, _VOLUME_SAMPLES,
                          rng.split(_AUX + 1)).powered(body.dim - k)
    return _identity_report("logconcave_identity", density, body, k, frames,
                            points_per_frame, rng, lhs)


def _haar_rotation(n: int, gen: np.random.Generator) -> np.ndarray:
    q, _ = _haar_bases(gen.standard_normal((n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _random_sl_matrix(n: int, rng: StreamHandle) -> np.ndarray:
    """Seeded volume-preserving transform of moderate eccentricity.

    Rotation * diagonal * rotation with singular values log-uniform in
    [1/2, 2] and product one; wilder transforms make the section-power
    integrand too heavy-tailed to average at desk-scale frame budgets.
    """
    gen = rng.generator()
    d = np.exp(gen.uniform(-math.log(2.0), math.log(2.0), n))
    d /= d.prod() ** (1.0 / n)
    return _haar_rotation(n, gen) @ np.diag(d) @ _haar_rotation(n, gen)


def check_grinberg(body: StarBody, k: int, transforms: int, frames: int,
                   sphere_samples: int, rng: StreamHandle) -> list[CheckReport]:
    """Two-part check of the section-power functional.

    Part A (invariance): the functional agrees on the body and on seeded
    volume-preserving images, estimated over common random frames; the body
    and its images also share every sphere direction, drawn once per frame.
    Part B (maximality): the functional never exceeds the ball value
    gamma_{n,k}^(-1/k).  Part A needs at least one image.
    """
    n = body.dim
    if transforms < 1:
        raise ValueError(f"need at least one transform, got {transforms}")
    volume = LebesgueDensity(n)
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    bodies = [body] + [linear_image(body, _random_sl_matrix(n, rng.split(_AUX + 2 + t)))
                       for t in range(transforms)]
    logs = design.map(lambda theta, dirs: np.stack(
        [log_power_product(_section_measure_values(volume, b, dirs, n - k), n)
         for b in bodies], axis=-1))
    phi, *images = [_quermass_from_logs(b, k, logs[:, i], design)
                    for i, b in enumerate(bodies)]

    budgets = {"frames": len(design), "sphere_samples": sphere_samples}
    pair_reports = [
        equality_report("grinberg_invariance", n, k, phi, phi_t, seed=rng.seed,
                        inputs={"transform_index": t, **budgets})
        for t, phi_t in enumerate(images)]
    failed = [r for r in pair_reports if not r.passed]
    worst = failed[0] if failed else max(pair_reports, key=lambda r: r.margin)
    worst.inputs["all_values"] = [phi.value] + [phi_t.value for phi_t in images]

    ball_value = exact_log_estimate(-log_gamma_nk(n, k) / k)
    part_b = inequality_report("grinberg_maximality", n, k, phi, ball_value, seed=rng.seed,
                               inputs={**budgets, "ball_value": math.exp(ball_value.value)})
    return [worst, part_b]


def check_busemann_petty_volume(body_k: StarBody, body_d: StarBody, k: int, frames: int,
                                sphere_samples: int, rng: StreamHandle) -> CheckReport:
    """Section dominance implies the volume comparison with the functional ratio.

    Dominance |K cap F| <= |D cap F| is verified empirically on every
    common frame first (within 3 combined SEs); a violation is reported as
    "hypothesis fails" rather than raised.  Both bodies share every frame
    and every sphere direction, and the same section values serve the
    dominance test and both functionals.
    """
    if body_k.dim != body_d.dim:
        raise ValueError("bodies must share an ambient dimension")
    n = body_k.dim
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    volume = LebesgueDensity(n)

    def stats(theta, dirs):
        # per frame, for K then D: mean and SE of the section volume, log of its n-th power
        rows = []
        for body in (body_k, body_d):
            vals = _section_measure_values(volume, body, dirs, n - k)
            rows.append(np.stack([*_mean_and_se(vals), log_power_product(vals, n)], axis=-1))
        return np.stack(rows, axis=1)

    per_frame = design.map(stats)
    violations = sum(vk > vd + 3.0 * math.hypot(sk, sd) + 1e-12
                     for (vk, sk, _), (vd, sd, _) in per_frame.tolist())
    phi_k = _quermass_from_logs(body_k, k, per_frame[:, 0, 2], design)
    phi_d = _quermass_from_logs(body_d, k, per_frame[:, 1, 2], design)
    lhs = log_volume_estimate(body_k, rng.split(_AUX)).powered((n - k) / n)
    rhs = phi_d.divided_by(phi_k).powered(k).times(
        log_volume_estimate(body_d, rng.split(_AUX + 1)).powered((n - k) / n))
    report = inequality_report("busemann_petty_volume", n, k, lhs, rhs, seed=rng.seed,
                               inputs={"frames": len(design),
                                       "sphere_samples": sphere_samples,
                                       "phi_ratio": phi_d.value / phi_k.value,
                                       "dominance_violations": violations})
    if violations:
        report.passed = False
        report.note = (f"hypothesis fails: section dominance violated on "
                       f"{violations}/{len(design)} sampled frames")
    return report


def negative_control(body: StarBody, k: int, frames: int, sphere_samples: int,
                     rng: StreamHandle) -> CheckReport:
    """Intentionally reversed maximality inequality; must fail.

    Harness self-test: claims the ball value is at most 90% of the body's
    functional, a violation far beyond Monte Carlo noise, so a suite
    containing this fixture must report status "fail".
    """
    n = body.dim
    phi = dual_affine_quermass(body, k, frames, sphere_samples, rng)
    ball_value = exact_log_estimate(-log_gamma_nk(n, k) / k)
    # phi is a mean over frames, so its sample count is the frame count
    report = inequality_report("negative_control", n, k, ball_value,
                               phi.scaled(0.9), seed=rng.seed,
                               inputs={"frames": phi.n_samples,
                                       "sphere_samples": sphere_samples})
    report.note = "self-test fixture: the reversed inequality is expected to fail"
    return report


# ---------------------------------------------------------------------------
# suite driver

CHECKS = {
    "bp_identity": check_bp_identity,
    "slicing_chain": check_slicing_chain,
    "dpp_bound": check_dpp,
    "logconcave_identity": check_logconcave_identity,
    "grinberg": check_grinberg,
    "busemann_petty_volume": check_busemann_petty_volume,
    "negative_control": negative_control,
}


@dataclass
class SuiteConfig:
    """Seed and composition of a verification run."""

    seed: int = 0
    grid: list | None = None           # None = default grid; [] = empty suite
    include_negative_control: bool = False

    def as_dict(self) -> dict:
        return {"seed": self.seed,
                "grid": "default" if self.grid is None else len(self.grid),
                "include_negative_control": self.include_negative_control}


@dataclass
class SuiteResult:
    reports: list
    status: str                         # "pass" | "fail" | "error"
    errors: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1}.get(self.status, 2)

    def as_dict(self) -> dict:
        return {"status": self.status,
                "n_checks": len(self.reports),
                "n_failed": sum(not r.passed for r in self.reports),
                "errors": self.errors,
                "reports": [r.as_dict() for r in self.reports]}


def _default_grid() -> list:
    """The desk-scale default grid: n <= 4, k <= 2, 4 bodies, 3 measures.

    Its budgets are fixed.  The inequality checks run at the light budget
    of 160 frames and 600 sphere samples (their margins dwarf the noise);
    the equality checks take their frame counts from the ``eq_frames``
    table, sized to keep realized gaps well inside the 2% tolerance.
    """
    from .bodies import LpBall, cube
    from .measures import GaussianDensity, LebesgueDensity, RadialExpDensity

    bodies = {
        "ball3": LpBall(3, 2.0),
        "cube3": cube(3),
        "l1ball3": LpBall(3, 1.0),
        "l1ball4": LpBall(4, 1.0),
    }
    densities = {
        "lebesgue": LebesgueDensity,
        "gaussian": GaussianDensity,
        "radial_exp": RadialExpDensity,
    }
    light = {"frames": 160, "sphere_samples": 600}
    eq_frames = {"ball3": 200, "cube3": 1500, "l1ball3": 1500, "l1ball4": 2500}
    grid: list = []
    for bname, body in bodies.items():
        grid.append(("bp_identity", {"body": body, "k": 1, "frames": eq_frames[bname],
                                     "points_per_frame": 300, "sphere_samples": 600},
                     bname))
        for k in (1, 2):
            for dname, dcls in densities.items():
                density = dcls(body.dim)
                grid.append(("slicing_chain", {"density": density, "body": body,
                                               "k": k, **light}, f"{bname}/{dname}"))
                grid.append(("dpp_bound", {"density": density, "body": body,
                                           "k": k, **light}, f"{bname}/{dname}"))
        grid.append(("grinberg", {"body": body, "k": 1, "transforms": 2,
                                  "frames": 800, "sphere_samples": 1000}, bname))
    for bname in ("ball3", "cube3"):
        grid.append(("logconcave_identity",
                     {"density": GaussianDensity(3), "body": bodies[bname], "k": 1,
                      "frames": 400 if bname == "ball3" else 1500,
                      "points_per_frame": 300, "sphere_samples": 500},
                     f"{bname}/gaussian"))
    grid.append(("busemann_petty_volume",
                 {"body_k": bodies["cube3"],
                  "body_d": LpBall(3, 2.0, math.sqrt(3.0)), "k": 1, **light},
                 "cube3-in-ball"))
    grid.append(("busemann_petty_volume",
                 {"body_k": bodies["ball3"],
                  "body_d": LpBall(3, 2.0, 2.0), "k": 1, **light},
                 "ball3-in-2ball"))
    return grid


def _worker_count(entries: int) -> int:
    """Worker processes for a grid of ``entries``: ``SECTLAB_WORKERS``, else
    the CPUs this process may run on, and never more than the entries."""
    raw = os.environ.get("SECTLAB_WORKERS")
    if raw is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    elif raw.strip().isdecimal() and int(raw) > 0:
        workers = int(raw)
    else:
        raise ValueError(f"SECTLAB_WORKERS must be a positive integer, got {raw!r}")
    return min(workers, entries)


def _run_entry(name: str, params: dict, label: str, index: int,
               seed: int) -> tuple[list[CheckReport], str | None]:
    """Run grid entry ``index`` on its own substream: its reports, or its error."""
    fn = CHECKS[name]
    try:
        out = fn(rng=StreamHandle(seed).split(index), **params)
    except Exception as exc:           # a check error is distinct from a failure
        return [], f"{name}[{label}]: {type(exc).__name__}: {exc}"
    reports = out if isinstance(out, list) else [out]
    for rep in reports:
        rep.inputs.setdefault("fixture", label)
    return reports, None


def _run_entries(entries: list[tuple], workers: int) -> list[tuple]:
    """``_run_entry`` over the entries, in their order, on ``workers`` processes.

    The workers are forked, so they start without importing anything and see
    ``CHECKS`` as it is now.  A worker that dies raises ``BrokenProcessPool``.
    """
    if workers > 1:
        # imported here so that importing sectlab does not load multiprocessing
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                futures = [pool.submit(_run_entry, *entry) for entry in entries]
                return [f.result() for f in futures]
    return [_run_entry(*entry) for entry in entries]


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run a configured grid of checks; deterministic given the seed.

    Entry ``i`` runs on the substream ``StreamHandle(seed).split(i)``, on a
    pool of forked processes: ``SECTLAB_WORKERS`` of them, by default one
    per CPU this process may run on (``os.sched_getaffinity``), and at most
    one per entry.  Reports and errors are gathered in grid order, so the
    result does not depend on the worker count.  ``SECTLAB_WORKERS=1``, an
    empty grid, or a platform without fork runs every entry in this process,
    where a debugger or profiler sees it.  A value that is not a positive
    integer raises ``ValueError``.
    """
    grid = _default_grid() if config.grid is None else list(config.grid)
    if config.include_negative_control:
        from .bodies import cube
        grid.append(("negative_control",
                     {"body": cube(3), "k": 1, "frames": 100, "sphere_samples": 400},
                     "self-test"))
    entries = [(name, params, label, index, config.seed)
               for index, (name, params, label) in enumerate(grid)]
    reports: list[CheckReport] = []
    errors: list[str] = []
    for outs, error in _run_entries(entries, _worker_count(len(entries))):
        reports.extend(outs)
        if error is not None:
            errors.append(error)
    if errors:
        status = "error"
    elif all(r.passed for r in reports):
        status = "pass"
    else:
        status = "fail"
    return SuiteResult(reports, status, errors)
