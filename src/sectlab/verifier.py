"""The check registry: every computable identity/inequality becomes a named check.

Each check estimates both sides of one relation with explicit Monte Carlo
error control, entirely in log domain where n-th powers appear, and emits
a :class:`~sectlab.estimates.CheckReport`.  Grassmannian maxima are always
maxima over *sampled* frames; for right-hand-side maxima this makes the
inequality checks conservative (the sampled max under-estimates the true
one), which is recorded in the report note.

Checks are pure functions of (inputs, rng) and report ``rng.seed``: each builds
one frame design (:class:`~sectlab.functionals._FrameDesign`), which draws all its
frames and directions from one substream of rng, and every other purpose has its
own substream, so a rerun gives a bit-identical report regardless of scheduling.  Every
check reads embedded directions, from randomised point sets per frame, each group's
rotation folded into the frame's basis.  The one identity check, ``bp_identity`` at any
density (Lebesgue by default), takes one group per slot of its s-tuples, tuple j being
row j of each group, so a tuple's directions are independent.  How an SE by the iid
formula over one frame's directions (the largest section in ``slicing_chain``, the
dominance test of ``busemann_petty_volume``), or over frames, compares with the true
one is said at :class:`~sectlab.functionals._FrameDesign`.

:func:`run_suite` runs the grid entries on ``SECTLAB_WORKERS`` worker processes, by
default one per CPU this process may run on; ``SECTLAB_WORKERS=1`` runs them in this
process, the way to debug or profile a check.  The output does not depend on the count,
and a worker that dies raises ``RuntimeError``.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .bodies import StarBody, linear_image
from .constants import log_ball_volume, log_bp_constant, log_gamma_nk
from .estimates import (CheckReport, Estimate, _log, _log_product, equality_report,
                        exact_log_estimate, inequality_report, log_mean_estimate)
from .functionals import (_AUX, _VOLUME_SAMPLES, _FrameDesign, _quermass_from_logs,
                          dual_affine_quermass, log_measure_estimate, log_volume_estimate)
from .measures import DensityOracle, LebesgueDensity
from .sampler import StreamHandle, _fold_columns, _haar_columns, simplex_volume

__all__ = [
    "check_bp_identity",
    "check_slicing_chain",
    "check_dpp",
    "check_section_bounds",
    "check_grinberg",
    "check_busemann_petty_volume",
    "negative_control",
    "SuiteConfig",
    "SuiteResult",
    "run_suite",
    "CHECKS",
]

_SAMPLED_MAX_NOTE = "max is sampled (lower bound of the true Grassmannian max)"


def _polar_log_moments(density: DensityOracle, body: StarBody, k: int,
                       dirs: np.ndarray) -> np.ndarray:
    """log of the integral over (K cap F)^s of |conv(0, x_1..x_s)|^k prod_i g(x_i) dx,
    one per frame of a block.

    Writing x_i = r_i theta_i inside F and integrating the radii gives
    (s omega_s)^s E_theta[ (|det theta| / s!)^k prod_i m(theta_i) ], with
    theta_1..theta_s independent and uniform on S^(s-1) and m(theta) the ray
    mass of g up to rho(theta) at power s + k.  dirs (B, s m, n) holds each frame's
    s slot groups of m embedded directions, and tuple j is row j of each group
    (:class:`~sectlab.functionals._FrameDesign`); |det theta| is the root of their Gram det.
    """
    frames, count, n = dirs.shape
    s = n - k
    slots = dirs.reshape(frames, s, count // s, n)
    mass = density.ray_mass(dirs, body.radial(dirs), float(s + k)).reshape(slots.shape[:-1])
    gram = np.ones((frames, count // s, s, s))
    for i in range(s):
        for j in range(i):
            gram[..., i, j] = gram[..., j, i] = _fold_columns(np.add, slots[:, i] * slots[:, j])
    vols = np.sqrt(simplex_volume(gram) / math.factorial(s))
    moment = (vols ** k * mass.prod(axis=1)).mean(axis=-1)
    if np.any(moment <= 0):
        raise ValueError("simplex moment vanished; degenerate section directions")
    return s * (math.log(s) + log_ball_volume(s)) + _log(moment)


def check_bp_identity(body: StarBody, k: int, frames: int, points_per_frame: int,
                      rng: StreamHandle, density: DensityOracle | None = None,
                      sphere_samples: int | None = None) -> CheckReport:
    """mu(K)^(n-k) = p(n, n-k) E_F[ integral over (K cap F)^(n-k) of |conv|^k prod g ].

    The generalized Blaschke-Petkantschin formula: it holds for every
    locally integrable density g, by default Lebesgue measure, and every
    star body K with 0 in its interior, symmetric or not (Schneider & Weil,
    Stochastic and Integral Geometry, 2008, sec. 7.2).  mu(K) is
    :func:`~sectlab.functionals.log_measure_estimate`'s.

    Inside each section the integral is taken in polar form,
    (s omega_s)^s E_theta[ (|det theta|/s!)^k prod_i m(theta_i) ] with
    s = n - k and m(theta) = ``density.ray_mass`` up to rho(theta) at power
    s + k, averaged over ``points_per_frame`` direction s-tuples; no point
    is sampled and no density supremum is needed.  At k = n - 1 the tuples
    are u and -u, the whole of S^0, so ``points_per_frame`` is not read.
    ``sphere_samples`` is neither read nor recorded: only the benchmark's
    workloads still pass it.
    """
    n = body.dim
    density = LebesgueDensity(n) if density is None else density
    lhs = log_measure_estimate(density, body, _VOLUME_SAMPLES, rng).powered(n - k)
    design = _FrameDesign(frames, n, k, points_per_frame * (n - k), rng, groups=n - k)
    mean_log = log_mean_estimate(design.map(
        lambda dirs: _polar_log_moments(density, body, k, dirs)))
    rhs = exact_log_estimate(log_bp_constant(n, n - k)).times(mean_log)
    return equality_report("bp_identity", n, k, lhs, rhs, seed=rng.seed,
                           inputs={"frames": len(design),
                                   "points_per_frame": points_per_frame})


def _section_bounds(density: DensityOracle, body: StarBody, k: int, frames: int,
                    sphere_samples: int, rng: StreamHandle,
                    names: tuple = ("slicing_chain", "dpp_bound")) -> list[CheckReport]:
    """The reports named in ``names``, slicing_chain's first, of one pass: one frame design,
    one section pass reduced to what they read, and one mu(K)."""
    n = body.dim
    slicing, dpp = "slicing_chain" in names, "dpp_bound" in names
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    stats = design.sections(density, [body], spread=slicing, powers=dpp)[:, 0]
    mu_total = log_measure_estimate(density, body, sphere_samples, rng)
    budgets = {"frames": len(design), "sphere_samples": sphere_samples}
    reports = []
    if slicing:
        best = int(np.argmax(stats[:, 0]))
        max_log = Estimate.of_mean(float(stats[best, 0]), float(stats[best, 1]), design.count)
        # at Lebesgue measure log_measure_estimate has already returned |K|
        log_vol = mu_total if isinstance(density, LebesgueDensity) else log_volume_estimate(
            body, rng)
        consts = exact_log_estimate(-n * log_gamma_nk(n, k) + log_bp_constant(n, n - k))
        rhs = consts.times(max_log.powered(n - k)).times(log_vol.powered(k * (n - k) / n))
        reports.append(inequality_report(
            "slicing_chain", n, k, mu_total.powered(n - k), rhs, seed=rng.seed,
            note=_SAMPLED_MAX_NOTE,
            inputs={**budgets, "argmax_frame": best, "max_section_log": max_log.value}))
    if dpp:
        sup = density.sup_on(body)
        lhs = log_mean_estimate(_log_product(stats[:, -n:]))
        rhs = exact_log_estimate(-n * log_gamma_nk(n, k) + k * math.log(sup)).times(
            mu_total.powered(n - k))
        reports.append(inequality_report("dpp_bound", n, k, lhs, rhs, seed=rng.seed,
                                         inputs={**budgets, "sup_on_body": sup}))
    return reports


def check_slicing_chain(density: DensityOracle, body: StarBody, k: int, frames: int,
                        sphere_samples: int, rng: StreamHandle) -> CheckReport:
    """Explicit-constant slicing bound for an arbitrary bounded density:
    mu(K)^(n-k) <= gamma^(-n) p(n, n-k) (max_F mu(K cap F))^(n-k) |K|^(k(n-k)/n).

    The sampled max under-estimates the true max, so the check is
    conservative (stricter than the proved inequality).  The max section's
    SE is the iid formula's over its frame's directions, 0 on a line.  At
    Lebesgue measure mu(K) and |K| are one number.  A view of :func:`_section_bounds`.
    """
    return _section_bounds(density, body, k, frames, sphere_samples, rng, ("slicing_chain",))[0]


def check_dpp(density: DensityOracle, body: StarBody, k: int, frames: int,
              sphere_samples: int, rng: StreamHandle) -> CheckReport:
    """E_F[mu(K cap F)^n] <= gamma^(-n) (sup_K g)^k mu(K)^(n-k).

    Equality holds exactly for the uniform density on a Euclidean ball, so
    that fixture sits at the tolerance boundary by design.  At Lebesgue
    measure the right side is exact when the body knows its volume.  A
    view of :func:`_section_bounds`.
    """
    return _section_bounds(density, body, k, frames, sphere_samples, rng, ("dpp_bound",))[0]


def check_section_bounds(density: DensityOracle, body: StarBody, k: int, frames: int,
                         sphere_samples: int, rng: StreamHandle) -> list[CheckReport]:
    """The ``slicing_chain`` and ``dpp_bound`` reports of one section pass, on one stream."""
    return _section_bounds(density, body, k, frames, sphere_samples, rng)


def _random_sl_matrix(n: int, rng: StreamHandle) -> np.ndarray:
    """Seeded volume-preserving transform of moderate eccentricity.

    Haar on O(n) * diagonal * Haar on O(n), with singular values log-uniform
    in [1/2, 2] and product one; wilder transforms make the section-power
    integrand too heavy-tailed to average at desk-scale frame budgets.  The
    two rotations are :func:`~sectlab.sampler._haar_columns` of one Gaussian
    (2, n, n) stack.
    """
    gen = rng.generator()
    d = np.exp(gen.uniform(-math.log(2.0), math.log(2.0), n))
    d /= d.prod() ** (1.0 / n)
    first, second = _haar_columns(gen.standard_normal((2, n, n)))
    return first @ np.diag(d) @ second


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
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    bodies = [body] + [linear_image(body, _random_sl_matrix(n, rng.split(_AUX + 2 + t)))
                       for t in range(transforms)]
    logs = _log_product(design.sections(LebesgueDensity(n), bodies))
    phi, *images = [_quermass_from_logs(k, logs[:, i], n, log_volume_estimate(b, rng))
                    for i, b in enumerate(bodies)]

    budgets = {"frames": len(design), "sphere_samples": sphere_samples}
    pair_reports = [
        equality_report("grinberg_invariance", n, k, phi, phi_t, seed=rng.seed,
                        inputs={"transform_index": t, **budgets})
        for t, phi_t in enumerate(images)]
    failed = [r for r in pair_reports if not r.passed]
    worst = failed[0] if failed else max(pair_reports, key=lambda r: r.margin)
    worst.inputs["all_values"] = [math.exp(phi_t.value) for phi_t in [phi, *images]]

    ball_value = exact_log_estimate(-log_gamma_nk(n, k) / k)
    part_b = inequality_report("grinberg_maximality", n, k, phi, ball_value, seed=rng.seed,
                               inputs={**budgets, "ball_value": math.exp(ball_value.value)})
    return [worst, part_b]


def check_busemann_petty_volume(body_k: StarBody, body_d: StarBody, k: int, frames: int,
                                sphere_samples: int, rng: StreamHandle) -> CheckReport:
    """Section dominance implies the volume comparison with the functional ratio.

    Dominance |K cap F| <= |D cap F| is verified empirically on every
    common frame first (within 3 combined SEs); a violation is reported as
    "hypothesis fails" rather than raised.  The per-frame SEs take the iid
    formula over the frame's directions, as ``slicing_chain``'s largest section does.
    Both bodies share every frame and every sphere direction, and the same
    section values serve the dominance test and both functionals.  One |K|
    and one |D| serve both sides, so they cancel: the log slack is
    (log E_F|D cap F|^n - log E_F|K cap F|^n) / n.
    """
    if body_k.dim != body_d.dim:
        raise ValueError("bodies must share an ambient dimension")
    n = body_k.dim
    design = _FrameDesign(frames, n, k, sphere_samples, rng)
    # per frame, for K then D: mean and SE of the section volume, then its n group means
    per_frame = design.sections(LebesgueDensity(n), [body_k, body_d], spread=True)
    violations = sum(vk > vd + 3.0 * math.hypot(sk, sd) + 1e-12
                     for (vk, sk), (vd, sd) in per_frame[:, :, :2].tolist())
    vol_k, vol_d = log_volume_estimate(body_k, rng), log_volume_estimate(body_d, rng)
    logs = _log_product(per_frame[:, :, 2:])
    phi_k = _quermass_from_logs(k, logs[:, 0], n, vol_k)
    phi_d = _quermass_from_logs(k, logs[:, 1], n, vol_d)
    lhs = vol_k.powered((n - k) / n)
    rhs = phi_d.divided_by(phi_k).powered(k).times(vol_d.powered((n - k) / n))
    report = inequality_report("busemann_petty_volume", n, k, lhs, rhs, seed=rng.seed,
                               inputs={"frames": len(design),
                                       "sphere_samples": sphere_samples,
                                       "phi_ratio": math.exp(phi_d.value - phi_k.value),
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
    report = inequality_report("negative_control", n, k, ball_value,
                               phi.times(exact_log_estimate(math.log(0.9))), seed=rng.seed,
                               inputs={"frames": frames, "sphere_samples": sphere_samples})
    report.note = "self-test fixture: the reversed inequality is expected to fail"
    return report


# ---------------------------------------------------------------------------
# suite driver

CHECKS = {
    "bp_identity": check_bp_identity,
    "slicing_chain": check_slicing_chain,
    "dpp_bound": check_dpp,
    "section_bounds": check_section_bounds,
    # the benchmark's identity_sampling grid still runs the Gaussian entries by this name
    "logconcave_identity": check_bp_identity,
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
                                     "points_per_frame": 300}, bname))
        for k in (1, 2):
            for dname, dcls in densities.items():
                density = dcls(body.dim)
                grid.append(("section_bounds", {"density": density, "body": body,
                                                "k": k, **light}, f"{bname}/{dname}"))
        grid.append(("grinberg", {"body": body, "k": 1, "transforms": 2,
                                  "frames": 800, "sphere_samples": 1000}, bname))
    for bname in ("ball3", "cube3"):
        grid.append(("bp_identity",
                     {"density": GaussianDensity(3), "body": bodies[bname], "k": 1,
                      "frames": 400 if bname == "ball3" else 1500,
                      "points_per_frame": 300},
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


_INDEX_SIZE = 4    # bytes of an entry index on a worker's task pipe


def _serve(entries: list[tuple], tasks: int, out: int, inherited: set[int]) -> NoReturn:
    """A forked worker: close the ``inherited`` pipe ends, then, until EOF on ``tasks``,
    read an entry index from it, run that entry and write its result to ``out`` as
    one pickle.

    It leaves only through ``os._exit``, so it never returns into its caller's stack
    or flushes the stdio buffers it inherited; an error ends it with status 1 and
    its traceback on fd 2.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(out, "wb") as results:
            while data := os.read(tasks, _INDEX_SIZE):
                pickle.dump(_run_entry(*entries[int.from_bytes(data, "little")]), results,
                            pickle.HIGHEST_PROTOCOL)
                results.flush()
        status = 0
    except BaseException:
        import traceback
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _run_entries(entries: list[tuple], workers: int) -> list[tuple]:
    """``_run_entry`` over the entries, in their order, on ``workers`` processes.

    The workers are forked once, so they start without importing anything and see
    ``CHECKS`` as it is now.  Each has a task pipe and a result pipe of its own and
    holds one entry at a time: this process writes it an entry index, reads the
    pickled result once poll reports it, then writes it the next index in grid
    order, or closes its task pipe when none is left.  No pipe holds more than one
    message, so no write blocks, and as this process keeps every task pipe's read
    end, a write to a worker that has just died does not raise either.  A worker
    that has gone shows as EOF, or as a truncated pickle if it died mid-write.  One
    that died by a signal or a non-zero status raises ``RuntimeError`` with its pid
    and status, and so do entries whose results never came; on any error every
    worker is killed, and every worker is reaped before this returns or raises.
    """
    if workers < 2 or not hasattr(os, "fork"):
        return [_run_entry(*entry) for entry in entries]
    # imported here, so that importing sectlab and a serial run do not load them
    import select
    import signal
    results: dict[int, tuple] = {}
    todo = iter(range(len(entries)))
    fds: set[int] = set()             # this process's open pipe ends
    children: dict[int, list] = {}    # result read end -> [pid, reader, task write end, entry]
    poller = select.poll()
    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            out_r, out_w = os.pipe()
            fds |= {task_r, task_w, out_r, out_w}
            pid = os.fork()
            if pid == 0:
                _serve(entries, task_r, out_w, fds - {task_r, out_w})
            children[out_r] = [pid, open(out_r, "rb", closefd=False), task_w, None]
            os.close(out_w)
            fds.remove(out_w)
            poller.register(out_r, select.POLLIN)
        idle = list(children)
        while children:
            for fd in idle:
                child = children[fd]
                child[3] = next(todo, None)
                if child[3] is None:
                    os.close(child[2])
                    fds.remove(child[2])
                else:
                    os.write(child[2], child[3].to_bytes(_INDEX_SIZE, "little"))
            idle = []
            for fd, _ in poller.poll():
                pid, reader, _, index = children[fd]
                try:
                    results[index] = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):  # gone, maybe mid-write
                    poller.unregister(fd)
                    os.close(fd)
                    fds.remove(fd)
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del children[fd]
                    if status:
                        how = f"signal {-status}" if status < 0 else f"status {status}"
                        raise RuntimeError(f"worker process {pid} died with {how}")
                else:
                    idle.append(fd)
    finally:
        for fd in fds:
            os.close(fd)
        for pid, *_ in children.values():  # none is left after a clean run
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if len(results) < len(entries):
        lost = sorted(set(range(len(entries))) - results.keys())
        raise RuntimeError(f"worker processes exited without results for entries {lost}")
    return [results[index] for index in range(len(entries))]


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run a configured grid of checks; deterministic given the seed.

    Entry ``i`` runs on the substream ``StreamHandle(seed).split(i)``, on one of
    ``SECTLAB_WORKERS`` worker processes, by default one per CPU this process may
    run on.  ``SECTLAB_WORKERS=1`` runs every entry in this process.  Reports and
    errors come in grid order, so the result does not depend on the count.  A
    value that is not a positive integer raises ``ValueError``; a worker that dies
    raises ``RuntimeError``.
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
