"""Run the benchmark over many seeds and summarise every end-to-end metric.

    python3 perfbench/sweep.py [--seeds 0-9] [--workload NAME ...] [--traced]
                               [--out PATH]

For each workload, one untraced run per seed (each as ``run.py`` would do
it, for BENCHMARK.json's ``run_seconds``), one workload after the other.
Per metric it prints the median, the quartiles and the sample count over the
seeds, and the spread (q3 - q1) / median next to the metric's bound.
``--traced`` adds one traced run per workload at the first seed.
The sweep is written as JSON to ``--out`` (default perfbench/out/sweep.json).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """Parse "0-9" or "0,3,5" into a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float], bound: float | None) -> dict:
    s = bench.quartiles(values)
    s["spread"] = (s["q3"] - s["q1"]) / s["median"] if s["median"] else None
    s["bound"] = bound
    return s


def sweep_workload(workload: str, seeds: list[int], seconds: float,
                   bounds: dict[str, float]) -> dict:
    runs = []
    for seed in seeds:
        rec = bench.run(workload, seed, seconds, traced=False)
        runs.append({"seed": seed, "correct": rec["correct"], "gates": rec["gates"],
                     "attempted": rec["attempted"], "failed": rec["failed"],
                     "metrics": rec["metrics"],
                     "recorded": rec["recorded"],
                     "digest": rec["iterations"][0]["digest"],
                     "samples": rec["samples"], "elapsed_s": rec["elapsed_s"],
                     "versions": rec["environment"]["versions"],
                     "loadavg": [rec["environment"]["loadavg_start"][0],
                                 rec["environment"]["loadavg_end"][0]]})
        print(f"  {workload} seed={seed} correct={rec['correct']} "
              + " ".join(f"{k}={v:.6g}" for k, v in rec["metrics"].items()),
              file=sys.stderr, flush=True)
    summary = {name: summarize([r["metrics"][name] for r in runs], bound)
               for name, bound in bounds.items()}
    summary.update({name: summarize([r["recorded"][name] for r in runs], None)
                    for name in bench.RECORDED})
    return {"runs": runs, "summary": summary,
            "correct": all(r["correct"] for r in runs)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", type=parse_seeds)
    parser.add_argument("--workload", action="append", choices=bench.WORKLOADS)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=bench.OUT / "sweep.json")
    args = parser.parse_args(argv)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    started = time.monotonic()
    result = {"environment": bench.environment(), "seeds": args.seeds,
              "run_seconds": seconds, "workloads": {}, "traced": {}}
    for workload in args.workload or bench.WORKLOADS:
        result["workloads"][workload] = sweep_workload(workload, args.seeds, seconds, bounds)
        if args.traced:
            rec = bench.run(workload, args.seeds[0], seconds, traced=True)
            result["traced"][workload] = {"seed": args.seeds[0], "correct": rec["correct"],
                                          "elapsed_s": rec["elapsed_s"],
                                          "metrics": rec["metrics"]}
    first = next(iter(result["workloads"].values()))["runs"][0]
    result["environment"].update(loadavg_end=bench.os.getloadavg(), versions=first["versions"])
    result["elapsed_s"] = time.monotonic() - started

    print(f"sweep over seeds {args.seeds[0]}..{args.seeds[-1]} "
          f"({len(args.seeds)} runs per workload, {result['elapsed_s']:.0f} s)")
    for workload, w in result["workloads"].items():
        print(f"{workload}: correct={w['correct']}")
        for name, s in w["summary"].items():
            unit = bench.END_TO_END[name][0] if name in bench.END_TO_END else bench.RECORDED[name]
            spread, bound, flag = s["spread"], s["bound"], ""
            if bound is not None and spread is not None:
                flag = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "SPREAD EXCEEDS BOUND")
            print(f"  {name:12s} median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                  f"q3={s['q3']:<12.6g} n={s['n']} {unit:6s} spread={spread} "
                  f"bound={bound} {flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"written to {args.out}")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
