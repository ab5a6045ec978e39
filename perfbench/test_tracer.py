"""Tests of the benchmark's tracer and gates on grids small enough to count by hand.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from sectlab import GaussianDensity, LpBall, sampler  # noqa: E402
from sectlab import bodies, functionals, measures, verifier  # noqa: E402
from sectlab.verifier import SuiteConfig, run_suite  # noqa: E402

import run as bench  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from worker import summarize  # noqa: E402
from workloads import SEEDS_PER_RUN, WORKLOADS, build_config, suite_seed  # noqa: E402


def traced_run(grid, negative_control=False):
    config = SuiteConfig(seed=7, grid=grid, include_negative_control=negative_control)
    with Tracer() as tracer:
        start = time.perf_counter()
        result = verifier.run_suite(config)
        payload = json.dumps(result.as_dict(), sort_keys=True, allow_nan=True)
        wall = time.perf_counter() - start
    facts = summarize(config, result, payload)
    return tracer, tracer.layer_metrics(wall, facts["nonfinite_margins"]), facts, wall


def test_grinberg_counts():
    grid = [("grinberg", {"body": LpBall(3, 2.0), "k": 1, "transforms": 1, "frames": 10,
                          "sphere_samples": 100}, "ball3")]
    _, m, facts, _ = traced_run(grid)
    assert m["grassmann.sample_haar.calls"] == 10
    # body and one image, 10 frames each
    assert m["functionals.section_volume_values.calls"] == 20
    assert m["functionals.section_volume_values.dirs"] == 2000
    assert m["sampler.sphere_directions.calls"] == 20
    assert m["grassmann.Frame.embed.calls"] == 20
    assert m["grassmann.Frame.embed.rows"] == 2000
    # the image's radial calls its base's; only the outer call counts
    assert m["bodies.radial.calls"] == 20
    assert m["bodies.radial.dirs"] == 2000
    # 10 frames + 20 direction draws + 1 transform
    assert m["sampler.StreamHandle.generator.calls"] == 31
    assert m["functionals.dual_affine_quermass.calls"] == 2
    assert m["estimates.log_power_product.calls"] == 20
    assert m["estimates.log_mean_estimate.calls"] == 2
    assert m["estimates.report.calls"] == 2
    assert m["verifier.check.calls.grinberg"] == 1
    for name, value in m.items():
        if name.startswith("measures.") or name.startswith("sampler.uniform_in_body") \
                or name.startswith("sampler.sample_restricted"):
            assert value == 0, name
    assert facts["reports"] == facts["reports_expected"] == 2


def test_density_counts():
    grid = [("dpp_bound", {"density": GaussianDensity(3), "body": LpBall(3, 2.0), "k": 1,
                           "frames": 3, "sphere_samples": 100}, "ball3/gaussian")]
    _, m, _, _ = traced_run(grid)
    assert m["grassmann.sample_haar.calls"] == 3
    assert m["measures.section_measure_values.calls"] == 3
    assert m["measures.section_measure_values.dirs"] == 300
    assert m["measures.measure_of_body.calls"] == 1
    assert m["measures.measure_of_body.dirs"] == 100
    assert m["measures.sup_on.calls"] == 1
    # 15-node Gauss-Legendre panels: at least two refinements per direction
    assert m["measures.points_per_dir"] >= 45
    assert m["measures.density.self_s.Section"] > 0
    assert m["measures.density.self_s.Gaussian"] > 0
    assert m["sampler.uniform_in_body.calls"] == 0
    assert m["functionals.section_volume_values.calls"] == 0


def test_sampler_counts():
    # sections of the unit ball are unit discs inside the bounding disc, so
    # the first batch of 256 proposals is accepted whole
    grid = [("bp_identity", {"body": LpBall(3, 2.0), "k": 1, "frames": 2,
                             "points_per_frame": 10, "sphere_samples": 100}, "ball3")]
    _, m, _, _ = traced_run(grid)
    assert m["sampler.uniform_in_body.calls"] == 2
    assert m["sampler.uniform_in_body.points"] == 40
    assert m["sampler.uniform_in_body.proposals"] == 512
    assert m["sampler.uniform_in_body.acceptance"] == 40 / 512
    assert m["sampler.simplex_volume.calls"] == 2
    assert m["sampler.simplex_volume.dets"] == 20
    assert m["sampler.sample_restricted.calls"] == 0


def test_restricted_sampler_counts():
    grid = [("logconcave_identity",
             {"density": GaussianDensity(3), "body": LpBall(3, 2.0), "k": 1, "frames": 2,
              "points_per_frame": 10, "sphere_samples": 100}, "ball3/gaussian")]
    _, m, _, _ = traced_run(grid)
    assert m["sampler.sample_restricted.calls"] == 2
    assert m["sampler.sample_restricted.points"] == 40
    assert m["sampler.sample_restricted.proposals"] >= 2 * 512
    assert 0 < m["sampler.sample_restricted.acceptance"] <= 1
    # the restricted sampler proposes through the uniform one
    assert m["sampler.uniform_in_body.calls"] >= 2


def test_self_times_and_gap_add_up_to_wall():
    grid = [("grinberg", {"body": LpBall(3, 1.0), "k": 1, "transforms": 1, "frames": 10,
                          "sphere_samples": 100}, "l1ball3"),
            ("dpp_bound", {"density": GaussianDensity(3), "body": LpBall(3, 2.0), "k": 2,
                           "frames": 3, "sphere_samples": 100}, "ball3/gaussian")]
    tracer, m, _, wall = traced_run(grid, negative_control=True)
    own = tracer.self_times()
    assert min(own) >= 0
    assert math.isclose(sum(own) + m["trace.gap_s"], wall, rel_tol=1e-9, abs_tol=1e-9)
    assert m["trace.spans"] == len(tracer.spans)
    assert m["verifier.check.total_s.grinberg"] >= m["verifier.check.self_s.grinberg"] > 0
    assert m["verifier.run_suite.self_s"] > 0
    assert m["trace.gap_s"] > 0


def test_uninstall_restores_and_tracing_keeps_bytes():
    originals = (bodies.sphere_directions, functionals.section_volume_values,
                 verifier.CHECKS["grinberg"], LpBall.__dict__["radial"],
                 measures.DensityOracle.__dict__["sup_on"])
    grid = [("grinberg", {"body": LpBall(3, 2.0), "k": 1, "transforms": 1, "frames": 10,
                          "sphere_samples": 100}, "ball3")]
    plain = json.dumps(run_suite(SuiteConfig(seed=3, grid=grid)).as_dict(), sort_keys=True)
    with Tracer():
        assert bodies.sphere_directions is not originals[0]
        assert measures.sphere_directions is functionals.sphere_directions
        traced = json.dumps(run_suite(SuiteConfig(seed=3, grid=grid)).as_dict(),
                            sort_keys=True)
    assert (bodies.sphere_directions, functionals.section_volume_values,
            verifier.CHECKS["grinberg"], LpBall.__dict__["radial"],
            measures.DensityOracle.__dict__["sup_on"]) == originals
    assert bodies.sphere_directions is sampler.sphere_directions
    assert traced == plain


def test_summarize_counts_raised_entries_and_negative_control():
    grid = [("grinberg", {"body": LpBall(3, 2.0), "k": 1, "transforms": 1, "frames": 10,
                          "sphere_samples": 100}, "ball3"),
            ("grinberg", {"body": LpBall(3, 2.0), "k": 3, "transforms": 1, "frames": 10,
                          "sphere_samples": 100}, "bad-k")]
    config = SuiteConfig(seed=1, grid=grid, include_negative_control=True)
    result = run_suite(config)
    facts = summarize(config, result, "")
    assert facts["entries"] == 3
    assert facts["raised"] == 1 and facts["errors"][0].startswith("grinberg[bad-k]:")
    assert facts["reports"] == facts["reports_expected"] == 3
    assert facts["negative_control_failed"]
    # the raised entry's two report slots count as not passed
    assert facts["pass_share"] + facts["fail_share"] == 1
    assert facts["fail_share"] >= 2 / 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_grids_use_fixed_sizes(workload):
    grid = build_config(workload, 0).grid
    assert len(grid) == {"density_sections": 48, "identity_sampling": 6,
                         "volume_sections": 8}[workload]
    assert len({(name, label) for name, _, label in grid}) == len(grid)


def test_run_seeds_start_with_the_run_seed_and_differ():
    seeds = [suite_seed(5, i) for i in range(SEEDS_PER_RUN["volume_sections"])]
    assert seeds[0] == 5
    assert len(set(seeds)) == len(seeds)
    assert seeds == [suite_seed(5, i) for i in range(len(seeds))]
    assert all(0 <= s < 2**63 for s in seeds)


def test_digest_gate_needs_one_repeated_seed_with_one_digest():
    def it(seed, digest):
        return {"suite_seed": seed, "digest": digest, "negative_control_failed": True,
                "reports": 3, "reports_expected": 3}

    assert bench.gates([it(1, "a"), it(1, "a"), it(2, "b")])["same_seed_same_digest"]
    assert not bench.gates([it(1, "a"), it(2, "b")])["same_seed_same_digest"]
    assert not bench.gates([it(1, "a"), it(1, "c"), it(2, "b")])["same_seed_same_digest"]


def test_benchmark_json_names_match_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
