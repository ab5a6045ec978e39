"""The three benchmark workloads, built from sectlab's public API.

Each workload is a fixed grid of checks for ``verifier.run_suite``.  Budgets
are spelled out here rather than read from the suite's default grid, so a
change to the program's defaults cannot silently change what is measured.
Every grid ends with the suite's negative control, whose failure is one of
the benchmark's correctness gates.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

WORKLOADS = ("density_sections", "identity_sampling", "volume_sections")

# "light" budgets of the inequality checks and per-body frame counts of the
# equality checks, as the suite's default grid uses them today
_LIGHT = {"frames": 160, "sphere_samples": 600}
_BP_FRAMES = {"ball3": 200, "cube3": 1500, "l1ball3": 1500, "l1ball4": 2500}
_ELLIPSOID3 = [[2.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 0.5]]

NEGATIVE_CONTROL = "negative_control"

# How many suite seeds a run pools its verdict metrics over.  The
# grinberg_invariance verdicts of volume_sections flip from seed to seed, on
# varying bodies: 0 to 2 of its 14 verdicts fail on seeds 0-19.  One seed's
# pass share therefore moves in steps of 1/14 from run to run; six seeds
# average that out.  The other two workloads pass every verdict and cost
# 12 to 18 s a suite.
SEEDS_PER_RUN = {"density_sections": 1, "identity_sampling": 1, "volume_sections": 6}


def _bodies():
    from sectlab import LpBall, cube
    return {"ball3": LpBall(3, 2.0), "cube3": cube(3),
            "l1ball3": LpBall(3, 1.0), "l1ball4": LpBall(4, 1.0)}


def _density_sections() -> list:
    from sectlab import GaussianDensity, LebesgueDensity, RadialExpDensity
    densities = {"lebesgue": LebesgueDensity, "gaussian": GaussianDensity,
                 "radial_exp": RadialExpDensity}
    grid = []
    for bname, body in _bodies().items():
        for k in (1, 2):
            for dname, dcls in densities.items():
                density = dcls(body.dim)
                for check in ("slicing_chain", "dpp_bound"):
                    grid.append((check, {"density": density, "body": body, "k": k, **_LIGHT},
                                 f"{bname}/{dname}/k{k}"))
    return grid


def _identity_sampling() -> list:
    from sectlab import GaussianDensity
    bodies = _bodies()
    grid = [("bp_identity", {"body": body, "k": 1, "frames": _BP_FRAMES[bname],
                             "points_per_frame": 300, "sphere_samples": 600}, bname)
            for bname, body in bodies.items()]
    for bname, frames in (("ball3", 400), ("cube3", 1500)):
        grid.append(("logconcave_identity",
                     {"density": GaussianDensity(3), "body": bodies[bname], "k": 1,
                      "frames": frames, "points_per_frame": 300, "sphere_samples": 500},
                     f"{bname}/gaussian"))
    return grid


def _volume_sections() -> list:
    from sectlab import Ellipsoid, LpBall, centered_simplex, cube
    bodies = _bodies()
    bodies["simplex3"] = centered_simplex(3)
    bodies["ellipsoid3"] = Ellipsoid(np.array(_ELLIPSOID3))
    grid = [("grinberg", {"body": body, "k": 1, "transforms": 2, "frames": 800,
                          "sphere_samples": 1000}, bname)
            for bname, body in bodies.items()]
    grid.append(("busemann_petty_volume",
                 {"body_k": cube(3), "body_d": LpBall(3, 2.0, math.sqrt(3.0)), "k": 1,
                  **_LIGHT}, "cube3-in-ball"))
    grid.append(("busemann_petty_volume",
                 {"body_k": bodies["ball3"], "body_d": LpBall(3, 2.0, 2.0), "k": 1,
                  **_LIGHT}, "ball3-in-2ball"))
    return grid


_GRIDS = {"density_sections": _density_sections,
          "identity_sampling": _identity_sampling,
          "volume_sections": _volume_sections}


def suite_seed(seed: int, index: int) -> int:
    """The suite seed of a run's index-th seed: the run's own seed first."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def build_config(workload: str, seed: int):
    """The SuiteConfig of one workload: its grid plus the negative control."""
    from sectlab.verifier import SuiteConfig
    return SuiteConfig(seed=seed, grid=_GRIDS[workload](), include_negative_control=True)


def reports_per_entry(check: str) -> int:
    """How many reports one grid entry of a check kind yields."""
    return 2 if check == "grinberg" else 1
