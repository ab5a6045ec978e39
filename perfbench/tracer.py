"""A span tracer that wraps sectlab's public functions from outside the program.

``Tracer.install()`` replaces every binding of each traced public name in
the loaded ``sectlab`` modules (``from .sampler import sphere_directions``
makes a second binding in ``bodies``, so patching the home module alone
would miss calls), the per-class methods ``radial`` and ``__call__``, the
methods ``Frame.embed``, ``StreamHandle.generator``, ``DensityOracle.sup_on``
and ``SuiteResult.as_dict``, and the check functions in ``verifier.CHECKS``.
``uninstall()`` puts the originals back.

Spans stay in memory as ``[name, kind, parent, start, end, child_time, qty]``
until the run ends; ``layer_metrics`` then folds them into the per-layer
metrics listed in ``PER_LAYER``.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> unit of its quantity, for the spans that carry one
_QTY = {
    "bodies.radial": "dirs",
    "grassmann.Frame.embed": "rows",
    "sampler.sphere_directions": "dirs",
    "sampler.uniform_in_body": "points",
    "sampler.simplex_volume": "dets",
    "measures.density": "points",
    "measures.section_measure_values": "dirs",
    "measures.measure_of_body": "dirs",
    "functionals.section_volume_values": "dirs",
}
# oracles that call themselves through adaptors (SectionBody -> parent body,
# SectionDensity -> ambient density): calls and quantities count only the
# outermost span, i.e. the work asked of the layer from outside it
_SELF_NESTING = ("bodies.radial", "measures.density")
_RAY_MASS = ("measures.section_measure_values", "measures.measure_of_body")

BODY_KINDS = ("LpBall", "HPolytope", "Ellipsoid", "LinearImage", "SectionBody")
DENSITY_KINDS = ("Lebesgue", "Gaussian", "RadialExp", "Section")
CHECK_KINDS = ("slicing_chain", "dpp_bound", "bp_identity", "logconcave_identity",
               "grinberg", "busemann_petty_volume", "negative_control")


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def add(name, unit="count", better="lower"):
        out.append((name, unit, better))

    add("bodies.radial.calls"), add("bodies.radial.dirs"), add("bodies.radial.self_s", "s")
    for kind in BODY_KINDS:
        add(f"bodies.radial.self_s.{kind}", "s")
    add("grassmann.sample_haar.calls"), add("grassmann.sample_haar.self_s", "s")
    add("grassmann.Frame.embed.calls"), add("grassmann.Frame.embed.rows")
    add("grassmann.Frame.embed.self_s", "s")
    add("sampler.StreamHandle.generator.calls")
    add("sampler.StreamHandle.generator.self_s", "s")
    add("sampler.sphere_directions.calls"), add("sampler.sphere_directions.dirs")
    add("sampler.sphere_directions.self_s", "s")
    for fn in ("uniform_in_body", "sample_restricted"):
        add(f"sampler.{fn}.calls"), add(f"sampler.{fn}.points")
        add(f"sampler.{fn}.proposals"), add(f"sampler.{fn}.acceptance", "ratio", "higher")
        add(f"sampler.{fn}.self_s", "s")
    add("sampler.simplex_volume.calls"), add("sampler.simplex_volume.dets")
    add("sampler.simplex_volume.self_s", "s")
    add("measures.density.calls"), add("measures.density.points")
    add("measures.density.self_s", "s")
    for kind in DENSITY_KINDS:
        add(f"measures.density.self_s.{kind}", "s")
    for fn in ("section_measure_values", "measure_of_body"):
        add(f"measures.{fn}.calls"), add(f"measures.{fn}.dirs"), add(f"measures.{fn}.self_s", "s")
    add("measures.sup_on.calls"), add("measures.sup_on.self_s", "s")
    add("measures.points_per_dir", "points/dir")
    add("functionals.section_volume_values.calls"), add("functionals.section_volume_values.dirs")
    add("functionals.section_volume_values.self_s", "s")
    for fn in ("dual_affine_quermass", "log_volume_estimate"):
        add(f"functionals.{fn}.calls"), add(f"functionals.{fn}.self_s", "s")
    for fn in ("log_power_product", "log_mean_estimate"):
        add(f"estimates.{fn}.calls"), add(f"estimates.{fn}.self_s", "s")
    add("estimates.report.calls"), add("estimates.nonfinite_margins")
    for kind in CHECK_KINDS:
        add(f"verifier.check.calls.{kind}")
        add(f"verifier.check.total_s.{kind}", "s")
        add(f"verifier.check.self_s.{kind}", "s")
    add("verifier.run_suite.self_s", "s"), add("verifier.SuiteResult.as_dict.self_s", "s")
    add("trace.wall_s", "s"), add("trace.gap_s", "s"), add("trace.overhead_s", "s")
    add("trace.spans")
    return out


PER_LAYER = _per_layer()


def _rows(arr, trailing: int = 1) -> int:
    """Number of vectors in a stack whose last ``trailing`` axes form one item."""
    shape = np.shape(arr)
    return math.prod(shape[:len(shape) - trailing]) if len(shape) > trailing else 1


def _points(out) -> int:
    return _rows(out) if np.ndim(out) > 1 else 1


def _method_rows(args, out) -> int:
    """Vectors passed to a method: args[0] is the instance, args[1] the stack."""
    return _rows(args[1])


class Tracer:
    """In-memory spans around sectlab's public functions and methods."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _call(self, name, kind, qty, fn, args, kwargs):
        clock = time.perf_counter
        spans = self.spans
        parent = self._stack[-1] if self._stack else -1
        rec = [name, kind, parent, 0.0, 0.0, 0.0, None]
        self._stack.append(len(spans))
        spans.append(rec)
        rec[3] = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[4] = clock()
            self._stack.pop()
            if parent >= 0:
                spans[parent][5] += rec[4] - rec[3]
        if qty is not None:
            rec[6] = qty(args, out)
        return out

    def _wrap(self, name, fn, kind=None, qty=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, kind, qty, fn, args, kwargs)
        return traced

    # -- patching ------------------------------------------------------------

    def _patch_everywhere(self, original, replacement, modules):
        """Rebind every module-level name bound to ``original``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr, name, kind=None, qty=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, kind, qty))

    def install(self) -> "Tracer":
        """Wrap the traced names of the already imported sectlab modules."""
        from sectlab import (bodies, estimates, functionals, grassmann, measures,
                             sampler, verifier)
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "sectlab" or key.startswith("sectlab.")]
        qty_of = {
            "sampler.sphere_directions": lambda a, out: len(out),
            "sampler.uniform_in_body": lambda a, out: _points(out),
            "sampler.sample_restricted":
                lambda a, out: (_points(out.points), out.proposals,
                                round(out.acceptance_rate * out.proposals)),
            "sampler.simplex_volume": lambda a, out: _rows(a[0], 2),
            "measures.section_measure_values": lambda a, out: len(out),
            "measures.measure_of_body": lambda a, out: out.n_samples,
            "functionals.section_volume_values": lambda a, out: len(out),
        }
        functions = {
            "grassmann.sample_haar": grassmann.sample_haar,
            "sampler.sphere_directions": sampler.sphere_directions,
            "sampler.uniform_in_body": sampler.uniform_in_body,
            "sampler.sample_restricted": sampler.sample_restricted,
            "sampler.simplex_volume": sampler.simplex_volume,
            "measures.section_measure_values": measures.section_measure_values,
            "measures.measure_of_body": measures.measure_of_body,
            "functionals.section_volume_values": functionals.section_volume_values,
            "functionals.dual_affine_quermass": functionals.dual_affine_quermass,
            "functionals.log_volume_estimate": functionals.log_volume_estimate,
            "estimates.log_power_product": estimates.log_power_product,
            "estimates.log_mean_estimate": estimates.log_mean_estimate,
            "verifier.run_suite": verifier.run_suite,
        }
        for name, fn in functions.items():
            self._patch_everywhere(fn, self._wrap(name, fn, qty=qty_of.get(name)), modules)
        for fn in (estimates.equality_report, estimates.inequality_report):
            self._patch_everywhere(fn, self._wrap("estimates.report", fn), modules)
        for kind, fn in list(verifier.CHECKS.items()):
            traced = self._wrap("verifier.check", fn, kind)
            self._patch_everywhere(fn, traced, modules)
            self._patches.append((verifier.CHECKS, kind, fn))
            verifier.CHECKS[kind] = traced

        classes = {obj for mod in modules for obj in vars(mod).values()
                   if isinstance(obj, type) and obj.__module__.startswith("sectlab")}
        for cls in sorted(classes, key=lambda c: (c.__module__, c.__name__)):
            if issubclass(cls, bodies.StarBody) and "radial" in cls.__dict__:
                self._patch_method(cls, "radial", "bodies.radial", cls.__name__, _method_rows)
            if issubclass(cls, measures.DensityOracle) and "__call__" in cls.__dict__:
                kind = cls.__name__.removesuffix("Density")
                self._patch_method(cls, "__call__", "measures.density", kind, _method_rows)
        self._patch_method(grassmann.Frame, "embed", "grassmann.Frame.embed", qty=_method_rows)
        self._patch_method(sampler.StreamHandle, "generator", "sampler.StreamHandle.generator")
        self._patch_method(measures.DensityOracle, "sup_on", "measures.sup_on")
        self._patch_method(verifier.SuiteResult, "as_dict", "verifier.SuiteResult.as_dict")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        return [end - start - child for _, _, _, start, end, child, _ in self.spans]

    def top_level_time(self) -> float:
        return sum(end - start for _, _, parent, start, end, _, _ in self.spans
                   if parent < 0)

    def layer_metrics(self, wall_s: float, nonfinite_margins: int) -> dict[str, float]:
        """Fold the spans into the per-layer metrics (all but trace.overhead_s)."""
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        qty: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        restricted = [0, 0, 0]
        uniform_proposals = 0
        ray_points = 0
        for (name, kind, parent, start, end, child, q), own in zip(spans, self.self_times()):
            pname = spans[parent][0] if parent >= 0 else None
            self_s[name] += own
            if kind is not None:
                self_s[f"{name}.{kind}"] += own
                total_s[f"{name}.{kind}"] += end - start
            if name in _SELF_NESTING and pname == name:
                continue
            calls[name] += 1
            if kind is not None:
                calls[f"{name}.{kind}"] += 1
            if q is None:
                continue
            if name == "sampler.sample_restricted":
                restricted = [x + y for x, y in zip(restricted, q)]
                continue
            qty[f"{name}.{_QTY[name]}"] += q
            if name == "sampler.sphere_directions" and pname == "sampler.uniform_in_body":
                uniform_proposals += q
            if name == "measures.density" and pname in _RAY_MASS:
                ray_points += q

        qty["sampler.uniform_in_body.proposals"] = uniform_proposals
        qty["sampler.sample_restricted.points"] = restricted[0]
        qty["sampler.sample_restricted.proposals"] = restricted[1]
        ray_dirs = sum(qty[f"{n}.dirs"] for n in _RAY_MASS)
        derived = {
            "sampler.uniform_in_body.acceptance":
                qty["sampler.uniform_in_body.points"] / max(uniform_proposals, 1),
            "sampler.sample_restricted.acceptance": restricted[2] / max(restricted[1], 1),
            "measures.points_per_dir": ray_points / ray_dirs if ray_dirs else 0.0,
            "estimates.nonfinite_margins": nonfinite_margins,
            "trace.wall_s": wall_s,
            "trace.gap_s": wall_s - self.top_level_time(),
            "trace.spans": len(spans),
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric == "trace.overhead_s":
                continue
            elif metric.endswith(".calls") or ".calls." in metric:
                out[metric] = calls[metric.replace(".calls", "", 1)]
            elif metric.endswith(".self_s") or ".self_s." in metric:
                out[metric] = self_s[metric.replace(".self_s", "", 1)]
            elif ".total_s." in metric:
                out[metric] = total_s[metric.replace(".total_s", "", 1)]
            else:
                out[metric] = qty[metric]
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for index, (name, kind, parent, start, end, _, q) in enumerate(self.spans):
                fh.write(json.dumps([index, name, kind, parent, start - origin,
                                     end - origin, q]) + "\n")
