"""One iteration of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <spawn_time> <mode> [<spans_path>]

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, importing sectlab and
building the workload's fixtures.  ``mode`` is ``setup`` (stop there), ``run``
or ``trace`` (run the suite, with the span tracer installed for ``trace``).
The last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_sectlab():
    """Import sectlab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import sectlab
    if Path(sectlab.__file__).resolve().parent != (SRC / "sectlab").resolve():
        raise SystemExit(f"sectlab imported from {sectlab.__file__}, not {SRC}")
    return sectlab


def _combined_log_se(report) -> float:
    return math.hypot(report.lhs.to_log().std_error, report.rhs.to_log().std_error)


def summarize(config, result, payload: str) -> dict:
    """Correctness facts and end-to-end figures of one suite result."""
    from workloads import NEGATIVE_CONTROL, reports_per_entry

    grid = list(config.grid)
    if config.include_negative_control:
        grid.append((NEGATIVE_CONTROL, None, "self-test"))
    raised = [(name, label) for name, _, label in grid
              if any(err.startswith(f"{name}[{label}]:") for err in result.errors)]
    expected = sum(reports_per_entry(name) for name, _, _ in grid)
    expected_ok = expected - sum(reports_per_entry(name) for name, _ in raised)
    controls = [r for r in result.reports if r.check_name == NEGATIVE_CONTROL]
    checked = [r for r in result.reports if r.check_name != NEGATIVE_CONTROL]
    slots = sum(reports_per_entry(name) for name, _, _ in config.grid)
    passed = sum(r.passed for r in checked)
    log_se = [_combined_log_se(r) for r in checked]
    return {
        "entries": len(grid),
        "raised": len(raised),
        "errors": result.errors,
        "reports": len(result.reports),
        "reports_expected": expected_ok,
        "negative_control_failed": len(controls) == 1 and not controls[0].passed,
        "pass_share": passed / slots,
        "fail_share": (slots - passed) / slots,
        "log_se_mean": sum(log_se) / len(log_se),
        "log_se_max": max(log_se),
        "nonfinite_margins": sum(not math.isfinite(r.margin) for r in result.reports),
        "status": result.status,
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }


def calibrate() -> float:
    """Seconds for a fixed numpy loop that does not touch sectlab.

    Small arrays in a Python loop, like the per-frame loops.  It measures how
    fast the machine is at the moment, so that run.py can take host drift out
    of the timings.  Its arrays are tiny, so it leaves ``ru_maxrss`` alone.
    """
    import numpy as np
    start = time.perf_counter()
    for i in range(3000):
        gen = np.random.Generator(np.random.Philox(key=i))
        x = gen.standard_normal((600, 3))
        q, _ = np.linalg.qr(gen.standard_normal((3, 2)))
        (x / np.linalg.norm(x, axis=-1)[:, None]) @ q
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    workload, seed, spawned, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    sectlab = _import_sectlab()
    sys.path.insert(0, str(HERE))
    from workloads import build_config
    from sectlab import verifier
    config = build_config(workload, seed)
    out = {"setup_s": time.monotonic() - spawned}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer().install()
        cal_before = calibrate()
        start, cpu = time.perf_counter(), time.process_time()
        # looked up on the module so that the tracer's binding is the one called
        result = verifier.run_suite(config)
        payload = json.dumps(result.as_dict(), sort_keys=True, allow_nan=True)
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = time.process_time() - cpu
        out["cal_s"] = 0.5 * (cal_before + calibrate())
        if tracer is not None:
            tracer.uninstall()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(summarize(config, result, payload))
        if tracer is not None:
            out["layers"] = tracer.layer_metrics(out["wall_s"], out["nonfinite_margins"])
            if spans_path:
                tracer.dump(spans_path)
    import numpy
    import scipy
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "sectlab": sectlab.__version__}
    print(json.dumps(out, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
