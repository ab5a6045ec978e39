"""sectlab benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; sectlab is imported from its
``src`` directory.  Every iteration runs in a fresh process (worker.py), one
at a time.

``--trace 0`` runs the workload's suite in fresh processes until ``--seconds``
have passed, and at least once per seed of the run plus once more.  A run
has SEEDS_PER_RUN[workload] suite seeds, derived from ``--seed`` (the first
is ``--seed`` itself): the first two iterations use the first seed, for the
digest gate, and the next ones the following seeds; iterations after those
only add timings.  Before each iteration it starts set-up-only processes,
enough that the run samples set-up at least SETUP_SAMPLES times across its
span.  Timings and peak RSS are medians over all iterations; the verdict
metrics (``pass_share``, ``log_se_mean``) are means over the run's seeds,
so they are fixed by ``--seed``.

Both timings are scaled to a reference machine speed: every iteration also
times worker.calibrate(), a fixed numpy loop that does not use sectlab,
before and after the suite, and its wall time is multiplied by
CALIBRATION_REF_S / (its calibration time).  Set-up processes are too short
to calibrate, so set-up times are scaled by the run's median calibration.
On a shared machine the host's speed drifts by tens of percent over
minutes, and the scaling takes most of that drift out.  The raw timings are
recorded as ``wall_raw_s`` and ``setup_raw_s``.

``--trace 1`` runs the suite UNTRACED_ITERATIONS times untraced and once with
the span tracer, and reports the per-layer metrics of the traced run;
``trace.overhead_s`` is the traced wall time minus the untraced median.

Correctness gates, checked on every iteration: the negative control fails,
the number of reports matches the grid, and every iteration with the seed
(traced or not) serialises to the same sha256 digest.  Grid entries that
raise are counted in ``failed`` and their messages recorded.

Standard output: a readable table, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
environment, every sample, digests and errors go to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import SEEDS_PER_RUN, WORKLOADS, suite_seed  # noqa: E402

SETUP_SAMPLES = 6
UNTRACED_ITERATIONS = 2
DEADLINE_S = 170.0          # a run must end within 180 s
CALIBRATION_REF_S = 0.3     # worker.calibrate() on a quiet 2-vCPU baseline VM
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better) of the metrics the result line carries
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "log_se_mean": ("log", "lower"),
    "pass_share": ("ratio", "higher"),
}
# printed and recorded, but not bounded: fail_share is 0 on most seeds, the
# maximum log-SE of volume_sections swings by a third from seed to seed,
# cpu_s (process time of the timed region) shows how much of the wall time is
# waiting, and the raw timings and calibration show the scaling
RECORDED = {"fail_share": "ratio", "log_se_max": "log", "cpu_s": "s",
            "wall_raw_s": "s", "setup_raw_s": "s", "cal_s": "s"}
# means over the run's seeds; the rest are medians over its iterations
VERDICT_METRICS = ("log_se_mean", "pass_share", "fail_share", "log_se_max")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _commit() -> str:
    """The checkout's commit hash, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "loadavg_start": os.getloadavg(), "commit": _commit()}


def spawn(workload: str, seed: int, mode: str, deadline: float,
          spans_path: Path | None = None) -> dict:
    """Run worker.py once and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next iteration")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           repr(time.monotonic()), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} iteration exceeded the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} iteration exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile and sample count."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def gates(iterations: list[dict]) -> dict:
    """Correctness gates over a run's suite iterations.

    The digest gate needs at least one suite seed run twice, and every
    suite seed to give one digest.
    """
    digests: dict[int, set[str]] = {}
    for it in iterations:
        digests.setdefault(it["suite_seed"], set()).add(it["digest"])
    return {
        "negative_control_failed": all(it["negative_control_failed"] for it in iterations),
        "report_count_matches": all(it["reports"] == it["reports_expected"]
                                    for it in iterations),
        "same_seed_same_digest": (len(digests) < len(iterations)
                                  and all(len(d) == 1 for d in digests.values())),
    }


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    n_seeds = SEEDS_PER_RUN[workload]
    min_iterations = n_seeds + 1
    setup_each = -(-max(SETUP_SAMPLES - min_iterations, 0) // min_iterations)
    setups: list[float] = []
    iterations: list[dict] = []
    start = time.monotonic()
    while len(iterations) < min_iterations or time.monotonic() - start < seconds:
        if len(iterations) >= min_iterations:
            next_s = iterations[-1]["wall_s"] + (setup_each + 1) * max(setups)
            if time.monotonic() + 1.5 * next_s > deadline:
                break
        setups += [spawn(workload, seed, "setup", deadline)["setup_s"]
                   for _ in range(setup_each)]
        run_seed = suite_seed(seed, max(len(iterations) - 1, 0))
        it = spawn(workload, run_seed, "run", deadline)
        it["suite_seed"] = run_seed
        iterations.append(it)
        setups.append(it["setup_s"])
    # the first n_seeds seeds, once each: iterations 1..n_seeds
    pooled = iterations[1:n_seeds + 1]
    # set-up processes are too short to calibrate; they share the run's speed
    setup_scale = CALIBRATION_REF_S / statistics.median(it["cal_s"] for it in iterations)
    samples = {
        "wall_s": [it["wall_s"] * CALIBRATION_REF_S / it["cal_s"] for it in iterations],
        "setup_s": [x * setup_scale for x in setups],
        "peak_rss_mb": [it["peak_rss_mb"] for it in iterations],
        "wall_raw_s": [it["wall_s"] for it in iterations],
        "setup_raw_s": setups,
    }
    samples.update({k: [it[k] for it in iterations] for k in ("cpu_s", "cal_s")})
    samples.update({k: [it[k] for it in pooled] for k in VERDICT_METRICS})
    # a median, not the fastest iteration: calibration noise also only adds
    # time, and the minimum of scaled times favours a slowed calibration
    values = {k: (statistics.fmean if k in VERDICT_METRICS else statistics.median)(v)
              for k, v in samples.items()}
    return {"iterations": iterations, "samples": samples,
            "summary": {k: quartiles(v) for k, v in samples.items()},
            "metrics": {k: values[k] for k in END_TO_END},
            "recorded": {k: values[k] for k in RECORDED}, "gates": gates(iterations)}


def trace(workload: str, seed: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    plain = [spawn(workload, seed, "run", deadline) for _ in range(UNTRACED_ITERATIONS)]
    traced = spawn(workload, seed, "trace", deadline,
                   OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
    for it in plain + [traced]:
        it["suite_seed"] = seed
    layers = traced.pop("layers")
    layers["trace.overhead_s"] = (traced["wall_s"]
                                  - statistics.median(it["wall_s"] for it in plain))
    return {"iterations": plain + [traced], "metrics": layers,
            "gates": gates(plain + [traced])}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload; returns the full record of the run."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "sectlab" / "__init__.py").is_file():
        raise BenchError(f"no sectlab sources under {ROOT / 'src'}")
    started = time.monotonic()
    deadline = started + DEADLINE_S
    env = environment()
    record = trace(workload, seed, deadline) if traced else measure(workload, seed,
                                                                      seconds, deadline)
    env["loadavg_end"] = os.getloadavg()
    env["versions"] = record["iterations"][0]["versions"]
    its = record["iterations"]
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": env,
        "correct": all(record["gates"].values()),
        "attempted": sum(it["entries"] for it in its),
        "failed": sum(it["raised"] for it in its),
        "elapsed_s": time.monotonic() - started,
    })
    return record


def print_table(record: dict, units: dict[str, str]) -> None:
    env = record["environment"]
    print(f"sectlab benchmark  workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} commit={env['commit'][:12]} nproc={env['nproc']} "
          f"load={env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f} "
          f"versions={env['versions']}")
    summary = record.get("summary", {})
    for name, value in record["metrics"].items():
        line = f"  {name:48s} {value:>14.6g} {units.get(name, '')}"
        if name in summary:
            s = summary[name]
            line += f"   q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}"
        print(line)
    for name, value in record.get("recorded", {}).items():
        print(f"  {name:48s} {value:>14.6g} {RECORDED[name]} (recorded, not bounded)")
    for gate, ok in record["gates"].items():
        print(f"  gate {gate}: {'ok' if ok else 'FAILED'}")
    errors = {e for it in record["iterations"] for e in it["errors"]}
    for err in sorted(errors):
        print(f"  raised: {err}")


def result_line(record: dict, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1, allow_nan=True) + "\n")
    print_table(record, units)
    print(result_line(record, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
