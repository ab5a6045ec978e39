import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["bodies", "constants", "estimates", "functionals", "grassmann", "measures",
           "sampler", "verifier"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"sectlab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_tracer_binds_every_traced_name(monkeypatch):
    # perfbench's tracer wraps sectlab names by attribute; one that is gone raises here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_import_and_default_suite_load_no_scipy():
    # start-up stays numpy-only; only the rejection samplers' qhull loads scipy
    code = ("import sys\n"
            "import numpy as np\n"
            "import sectlab\n"
            "from sectlab.estimates import log_mean_estimate\n"
            "from sectlab.measures import GaussianDensity, RadialExpDensity\n"
            "from sectlab.verifier import SuiteConfig, _default_grid\n"
            "config = SuiteConfig(grid=_default_grid(), include_negative_control=True)\n"
            "dirs, upper = np.eye(3), np.full(3, 0.5)\n"
            "GaussianDensity(3).ray_mass(dirs, upper, 3.0)\n"
            "RadialExpDensity(3).ray_mass(dirs, upper, 3.0)\n"
            "log_mean_estimate(np.arange(4.0))\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_frame_design_is_the_only_frame_plumbing():
    # every mean over frames goes through _FrameDesign.log_mean, and the per-check
    # frame helpers it replaced stay gone, so a change to the design stays local;
    # so do the explicit frame list and the point-sampling functionals
    src = Path(__file__).resolve().parents[1] / "src" / "sectlab"
    gone = {"_resolve_frames", "_over_frames", "_embedded_directions", "draw_frames",
            "simplex_moment", "sylvester", "isotropic_constant", "_batched_cov_dets",
            "covariance"}
    for path in sorted(src.glob("*.py")):
        name = path.name
        tree = ast.parse(path.read_text())
        design = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "_FrameDesign"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            ref = (node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute)
                   else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                   else None)
            assert ref not in gone, f"{name}:{node.lineno} refers to {ref}"
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert callee != "log_mean_estimate" or id(node) in design, (
                    f"{name}:{node.lineno} calls log_mean_estimate outside _FrameDesign")


def test_frame_streams_have_no_per_frame_set_up(monkeypatch):
    # frame draws go through one re-keyed generator per design, so the generators
    # built and sphere_directions calls made by a check do not grow with its frames
    from sectlab import sampler, verifier
    from sectlab.bodies import LpBall, cube
    from sectlab.sampler import StreamHandle

    counts = {"generator": 0, "sphere_directions": 0}
    generator, directions = StreamHandle.generator, sampler.sphere_directions

    def counted_generator(self):
        counts["generator"] += 1
        return generator(self)

    def counted_directions(*args):
        counts["sphere_directions"] += 1
        return directions(*args)

    monkeypatch.setattr(StreamHandle, "generator", counted_generator)
    for key, module in list(sys.modules.items()):
        if key == "sectlab" or key.startswith("sectlab."):
            for attr, value in list(vars(module).items()):
                if value is directions:
                    monkeypatch.setattr(module, attr, counted_directions)
    assert sampler.sphere_directions is counted_directions

    def run(frames):
        counts.update(generator=0, sphere_directions=0)
        verifier.check_grinberg(cube(3), 1, 2, frames, 100, StreamHandle(3))
        verifier.check_bp_identity(LpBall(3, 1.0), 1, frames, 20, StreamHandle(4))
        return dict(counts)

    small = run(40)
    assert small == run(160), small


def test_checks_take_their_seed_from_their_stream():
    # a report's seed is rng.seed, so no check takes a seed that could disagree with it
    from sectlab.verifier import CHECKS
    assert [name for name, fn in CHECKS.items()
            if "seed" in inspect.signature(fn).parameters] == []


def test_no_einsum_quadratic_forms():
    # x^T m x goes through sampler._quadratic_form, several times faster than
    # np.einsum("...i,ij,...j->...") on the frame blocks
    src = Path(__file__).resolve().parents[1] / "src" / "sectlab"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            callee = getattr(node, "func", None)
            if (isinstance(node, ast.Call)
                    and getattr(callee, "attr", getattr(callee, "id", None)) == "einsum"
                    and node.args and isinstance(node.args[0], ast.Constant)):
                ops = node.args[0].value.split("->")[0].replace(" ", "").split(",")
                quadratic = len(ops) == 3 and ops[1] == ops[0][-1] + ops[2][-1]
                assert not quadratic, f"{path.name}:{node.lineno} einsum {node.args[0].value!r}"
