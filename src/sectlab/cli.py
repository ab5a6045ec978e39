"""Command line interface.

Subcommands:

  constants  exact log-domain constants for one (n, k)
  estimate   one functional of one body
  verify     one named check; exit 0 pass / 1 fail / 2 error.  section_bounds
             gives the slicing_chain and dpp_bound reports of one section pass.
             A check that reads a density takes --measure, Lebesgue by default.
  scan       (n, k) sweep of the constants to CSV
  suite      the default verification grid at its fixed budgets (it takes
             no budget flags); byte-identical JSON per seed.  Its entries
             run on SECTLAB_WORKERS worker processes, by default one per CPU
             this process may use; SECTLAB_WORKERS=1 runs them all in this
             process.  The count does not change the output, and a worker
             that dies is an error (exit 2).

``python -m sectlab`` runs the same interface.

Every report embeds the full configuration, so a run can be reproduced
from the report file alone: byte for byte on the same CPU path (BLAS
kernel and numpy SIMD level), and to rounding elsewhere.  Emulating the
other CPU paths on one AVX-512 x86 host, 1 of the 64 seed-0 suite reports
changes bytes under OPENBLAS_CORETYPE=Haswell, 11 with numpy's AVX-512
kernels off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") and
12 with both; no log moves by more than 2.2e-16 and no verdict changes.  A
``sectlab.report.v2`` side holds ``log``, the natural log of the estimate,
``value`` = exp(log) with its std error ``se``, both null at |log| >= 700,
and ``n_samples``.  ``--deterministic`` drops the timestamp so reruns with
one seed are byte-identical.  Output destinations (``--json``, ``--csv``,
``--pretty``) are not part of the configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time

from . import __version__
from .bodies import body_from_json
from .constants import (gamma_within_bounds, growth_ratio, log_ball_volume, log_bp_constant,
                        log_gamma_nk)
from .estimates import CheckReport
from .functionals import dual_affine_quermass, log_volume_estimate
from .measures import density_from_json
from .sampler import StreamHandle
from .verifier import CHECKS, SuiteConfig, run_suite

_REPORT_SCHEMA = "sectlab.report.v2"
_SCAN_SCHEMA = "sectlab.scan.v1"
# where and how the output is written, not what is computed
_NOT_CONFIG = ("func", "json", "csv", "pretty")
# optional flags and the functionals (estimate) or checks (verify) that read
# each; any other rejects the flag, as every check does --points at k = n - 1, where
# a line's tuples are u and -u.  Defaults are filled in only where read, so config
# records only budgets that ran.
_ESTIMATE_READERS = {
    "k": ("phi",),
    "frames": ("phi",),
    "samples": ("phi",),
}
_ESTIMATE_DEFAULTS = {"k": 1, "frames": 500, "samples": 20_000}
_VERIFY_READERS = {
    "measure": ("bp_identity", "slicing_chain", "dpp_bound", "section_bounds",
                "logconcave_identity"),
    "points": ("bp_identity", "logconcave_identity"),
    "transforms": ("grinberg",),
    "body2": ("busemann_petty_volume",),
    "samples": ("slicing_chain", "dpp_bound", "section_bounds", "grinberg",
                "busemann_petty_volume", "negative_control"),
}
_VERIFY_DEFAULTS = {"measure": '{"kind":"lebesgue"}', "points": 500, "transforms": 5,
                    "samples": 2000}


def _emit(payload: dict, path: str | None, pretty: bool) -> None:
    # strict RFC 8259: a non-finite value raises ValueError, an exit-2 error
    text = json.dumps(payload, indent=2 if pretty else None,
                      sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _run_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in _NOT_CONFIG and v is not None}
    cfg["version"] = __version__
    if not getattr(args, "deterministic", False):
        cfg["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return cfg


def _write_csv(path: str | None, header: list, rows: list) -> None:
    """The header and rows as CSV, to the file at ``path`` or else to stdout."""
    with (open(path, "w", newline="", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reports_to_csv(reports: list[CheckReport], path: str) -> None:
    _write_csv(path, ["schema", "check_name", "fixture", "n", "k", "relation",
                      "lhs_log", "rhs_log", "margin", "pass", "note"],
               [[_REPORT_SCHEMA, r.check_name, r.inputs.get("fixture", ""), r.n, r.k,
                 r.relation, f"{r.lhs.value:.12g}", f"{r.rhs.value:.12g}",
                 f"{r.margin:.6g}", int(r.passed), r.note] for r in reports])


def _cmd_constants(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    payload = {
        "omega_n_log": log_ball_volume(n),
        "gamma_nk": math.exp(log_gamma_nk(n, k)),
        "gamma_bounds_ok": gamma_within_bounds(n, k),
        "p_log": log_bp_constant(n, n - k),
        "growth_ratio": growth_ratio(n, k),
        "config": _run_config(args),
    }
    _emit(payload, args.json, args.pretty)
    return 0


def _read_flags(args: argparse.Namespace, name: str, readers: dict, defaults: dict) -> None:
    """Reject each flag in ``readers`` that ``name`` does not read; default the rest."""
    for flag, names in readers.items():
        if name not in names:
            if getattr(args, flag) is not None:
                raise ValueError(f"{name} takes no --{flag}")
        elif getattr(args, flag) is None and flag in defaults:
            setattr(args, flag, defaults[flag])


def _cmd_estimate(args: argparse.Namespace) -> int:
    name = args.functional
    _read_flags(args, name, _ESTIMATE_READERS, _ESTIMATE_DEFAULTS)
    body = body_from_json(args.body)
    rng = StreamHandle(args.seed)
    if name == "phi":
        est = dual_affine_quermass(body, args.k, args.frames, args.samples, rng)
    elif name == "volume":
        est = log_volume_estimate(body, rng)
    else:
        raise ValueError(f"unknown functional {name!r}")
    payload = {"functional": name, "estimate": est.as_dict(), "config": _run_config(args)}
    _emit(payload, args.json, args.pretty)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.check not in CHECKS:
        raise ValueError(f"unknown check {args.check!r}; known: {sorted(CHECKS)}")
    body = body_from_json(args.body)
    readers = {**_VERIFY_READERS, "points": ()} if args.k == body.dim - 1 else _VERIFY_READERS
    _read_flags(args, args.check, readers, _VERIFY_DEFAULTS)
    rng = StreamHandle(args.seed)
    kwargs: dict = {"k": args.k, "frames": args.frames, "rng": rng}
    for flag, param in (("samples", "sphere_samples"), ("points", "points_per_frame"),
                        ("transforms", "transforms")):
        if args.check in _VERIFY_READERS[flag]:
            kwargs[param] = getattr(args, flag)
    if args.check == "busemann_petty_volume":
        if not args.body2:
            raise ValueError("busemann_petty_volume needs --body2")
        kwargs["body_k"] = body
        kwargs["body_d"] = body_from_json(args.body2)
    else:
        kwargs["body"] = body
    if args.check in _VERIFY_READERS["measure"]:
        kwargs["density"] = density_from_json(args.measure, body.dim)
    out = CHECKS[args.check](**kwargs)
    reports = out if isinstance(out, list) else [out]
    payload = {"schema": _REPORT_SCHEMA,
               "reports": [r.as_dict() for r in reports],
               "config": _run_config(args)}
    _emit(payload, args.json, args.pretty)
    if args.csv:
        _reports_to_csv(reports, args.csv)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    rows = []
    for n in range(2, args.n_max + 1):
        for k in range(1, n):
            rows.append([_SCAN_SCHEMA, n, k,
                         f"{log_ball_volume(n):.12g}",
                         f"{math.exp(log_gamma_nk(n, k)):.12g}",
                         int(gamma_within_bounds(n, k)),
                         f"{log_bp_constant(n, n - k):.12g}",
                         f"{growth_ratio(n, k):.12g}"])
    _write_csv(args.csv, ["schema", "n", "k", "omega_n_log", "gamma_nk", "gamma_bounds_ok",
                          "p_log", "growth_ratio"], rows)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    cfg = SuiteConfig(seed=args.seed, include_negative_control=args.negative_control)
    result = run_suite(cfg)
    payload = result.as_dict()
    payload["config"] = _run_config(args)
    payload["suite_config"] = cfg.as_dict()
    _emit(payload, args.json, args.pretty)
    if args.csv:
        _reports_to_csv(result.reports, args.csv)
    return result.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectlab",
        description="Numerical verification of section inequalities for convex bodies.")
    parser.add_argument("--version", action="version", version=f"sectlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", metavar="PATH", help="write the JSON report here")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        p.add_argument("--deterministic", action="store_true",
                       help="omit timestamps so identical seeds give identical bytes")

    p = sub.add_parser("constants", help="exact constants for one (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("estimate", help="estimate one functional of a body")
    p.add_argument("--functional", required=True,
                   choices=["phi", "volume"])
    p.add_argument("--body", required=True, metavar="SPEC", help="JSON literal or path")
    p.add_argument("--k", type=int, help="codimension (phi only; default 1)")
    p.add_argument("--samples", type=int,
                   help="sphere directions per frame of dimension >= 2 (phi only; default 20000)")
    p.add_argument("--frames", type=int, help="sampled frames (phi only; default 500)")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("verify", help="run one named check")
    p.add_argument("--check", required=True)
    p.add_argument("--body", required=True, metavar="SPEC")
    p.add_argument("--body2", metavar="SPEC")
    p.add_argument("--measure", metavar="SPEC", help="density (bp_identity, slicing_chain, "
                   "dpp_bound, section_bounds; default Lebesgue measure)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--frames", type=int, default=500)
    p.add_argument("--samples", type=int, help="sphere samples per frame of dimension >= 2 "
                   "(slicing_chain, dpp_bound, section_bounds, grinberg, "
                   "busemann_petty_volume, negative_control; default 2000)")
    p.add_argument("--points", type=int, help="direction s-tuples per frame of dimension "
                   ">= 2 (bp_identity at k < n - 1 only; default 500)")
    p.add_argument("--transforms", type=int,
                   help="volume-preserving images (grinberg only; default 5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="PATH")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="sweep the constants over an (n, k) grid")
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("suite", help="run the default verification grid on "
                                     "SECTLAB_WORKERS processes (default: one per CPU; "
                                     "1 runs it in this process)")
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--negative-control", action="store_true",
                   help="append the reversed-inequality self-test fixture")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
