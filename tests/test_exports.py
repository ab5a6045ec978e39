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
    # start-up, the CLI's included, stays numpy-only; only the rejection samplers'
    # qhull loads scipy
    code = ("import sys\n"
            "import numpy as np\n"
            "import sectlab\n"
            "import sectlab.cli\n"
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


def test_pooled_suite_loads_no_multiprocessing():
    # the fork runner needs only os, select, signal and pickle
    code = ("import sys\n"
            "from sectlab.bodies import cube\n"
            "from sectlab.verifier import SuiteConfig, run_suite\n"
            "grid = [('bp_identity', {'body': cube(3), 'k': 1, 'frames': 10,\n"
            "                         'points_per_frame': 100}, 'cube3')]\n"
            "res = run_suite(SuiteConfig(grid=grid, include_negative_control=True))\n"
            "assert len(res.reports) == 2 and not res.errors, res.errors\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')]\n"
            "assert not loaded, loaded\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src, "SECTLAB_WORKERS": "2"})


def test_frame_design_is_the_only_frame_plumbing():
    # every log-domain mean goes through estimates.log_mean_estimate, and the
    # per-check frame helpers _FrameDesign replaced stay gone, so a change to the
    # design stays local; so do the explicit frame list, the point-sampling
    # functionals and the functionals and density that no check read, the linear
    # mode of Estimate, the identity checks' iid directions, the verifier's second
    # Haar routine, the design's log_mean wrapper, the max-section helper that
    # the section pass absorbed, the QR frames and closed-form rotations that
    # Gram-Schmidt replaced, the per-check section reductions that
    # _FrameDesign.sections replaced, the logsumexp port and Estimate.scaled, the
    # tuple rows that the design's lattice-ordered groups replaced, the second
    # identity check and its shared body, which bp_identity's density absorbed, and
    # the line sections' +-u layout and second frame-block path, which the exact
    # two-point rule on S^0 replaced
    src = Path(__file__).resolve().parents[1] / "src" / "sectlab"
    gone = {"_resolve_frames", "_over_frames", "_embedded_directions", "draw_frames",
            "simplex_moment", "sylvester", "isotropic_constant", "_batched_cov_dets",
            "covariance", "w_tilde", "i_minus_k", "volume_radius", "IndicatorDensity",
            "_stream_normals", "_stream_directions", "_rekeyable", "_rotated_points",
            "log_domain", "to_linear", "exact_estimate", "mean_estimate", "_combined_log_se",
            "_iid", "_haar_rotation", "log_mean", "_max_section_log", "_haar_bases",
            "_ORTHO_TOL", "_rotations", "_ROTATION_NORMALS", "_section_stats", "_group_sizes",
            "_logsumexp", "logsumexp", "scaled", "itertools", "_tuple_rows",
            "check_logconcave_identity", "_identity_report", "_flips", "_blocks"}
    for path in sorted(src.glob("*.py")):
        name = path.name
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            ref = (node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute)
                   else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                   else node.arg if isinstance(node, (ast.keyword, ast.arg))
                   else None)
            assert ref not in gone, f"{name}:{node.lineno} refers to {ref}"


def test_frame_design_sections_is_the_only_section_pass():
    # the checks take section values only through _FrameDesign.sections; measure_of_body
    # and perfbench's one-frame section_measure_values are the other callers allowed
    src = Path(__file__).resolve().parents[1] / "src" / "sectlab"
    allowed = {"_FrameDesign.sections", "measure_of_body", "section_measure_values"}
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "_section_measure_values"):
            callers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), "")
    assert "_FrameDesign.sections" in callers and callers <= allowed, callers


def test_no_qr_in_the_package():
    # every Haar frame and rotation is Gram-Schmidt of a Gaussian stack
    # (sampler._haar_columns): LAPACK's QR would make report bytes depend on the CPU
    src = Path(__file__).resolve().parents[1] / "src" / "sectlab"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func).split(".")[-2:]
                assert callee != ["linalg", "qr"], f"{path.name}:{node.lineno} calls linalg.qr"


def test_frame_streams_have_no_per_frame_set_up(monkeypatch):
    # a frame design draws whole stacks from one substream, split once when it is
    # built and never by map, so the substreams split, generators built and
    # sphere_directions calls made by a check do not grow with its frames
    from sectlab import functionals, sampler, verifier
    from sectlab.bodies import LpBall, cube
    from sectlab.sampler import StreamHandle

    counts = {"split": 0, "generator": 0, "sphere_directions": 0}
    split, generator, directions = (StreamHandle.split, StreamHandle.generator,
                                    sampler.sphere_directions)

    def counted_split(self, index):
        counts["split"] += 1
        return split(self, index)

    def counted_generator(self):
        counts["generator"] += 1
        return generator(self)

    def counted_directions(*args):
        counts["sphere_directions"] += 1
        return directions(*args)

    monkeypatch.setattr(StreamHandle, "split", counted_split)
    monkeypatch.setattr(StreamHandle, "generator", counted_generator)
    for key, module in list(sys.modules.items()):
        if key == "sectlab" or key.startswith("sectlab."):
            for attr, value in list(vars(module).items()):
                if value is directions:
                    monkeypatch.setattr(module, attr, counted_directions)
    assert sampler.sphere_directions is counted_directions

    def run(frames):
        counts.update(split=0, generator=0, sphere_directions=0)
        verifier.check_grinberg(cube(3), 1, 2, frames, 100, StreamHandle(3))
        verifier.check_bp_identity(LpBall(3, 1.0), 1, frames, 20, StreamHandle(4))
        return dict(counts)

    small = run(40)
    assert small == run(160), small
    counts.update(split=0)
    design = functionals._FrameDesign(40, 3, 1, 20, StreamHandle(5))
    for _ in range(2):
        design.map(lambda dirs: dirs[:, 0, 0])
    assert counts["split"] == 1


def test_checks_take_their_seed_from_their_stream():
    # a report's seed is rng.seed, so no check takes a seed that could disagree with it
    from sectlab.verifier import CHECKS
    assert [name for name, fn in CHECKS.items()
            if "seed" in inspect.signature(fn).parameters] == []


def test_checks_measure_a_whole_body_through_one_rule():
    # mu(K) and |K| come from functionals.log_measure_estimate and log_volume_estimate,
    # which own the _AUX and _AUX + 1 substreams; the checks and `estimate` pass
    # their own stream
    src = Path(__file__).resolve().parents[1] / "src" / "sectlab"
    for name in ("verifier.py", "cli.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            assert callee != "measure_of_body", f"{name}:{node.lineno} calls measure_of_body"
            if callee == "split" and node.args:
                arg = ast.unparse(node.args[0]).replace(" ", "")
                assert arg not in ("_AUX", "_AUX+1"), f"{name}:{node.lineno} splits {arg}"


@pytest.mark.parametrize("name", MODULES + ["cli"])
def test_every_import_is_read_or_exported(name):
    # no linter runs here, so this keeps a deletion from leaving stale imports;
    # __init__ re-exports by import, and a line marked noqa is bound on purpose
    path = Path(__file__).resolve().parents[1] / "src" / "sectlab" / f"{name}.py"
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and not any("noqa" in line
                            for line in lines[node.lineno - 1:node.end_lineno])):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set(getattr(importlib.import_module(f"sectlab.{name}"), "__all__", ()))
    unused = sorted(f"{name}.py:{line} {ref}" for ref, line in imported.items()
                    if ref not in read | exported)
    assert unused == []


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


def test_every_private_name_is_read_by_the_package():
    # a module-level private name that only tests read is dead code: tests do not count
    src = Path(__file__).resolve().parents[1] / "src" / "sectlab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined = {}
    for name, tree in trees.items():
        for node in tree.body:
            targets = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       else [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                             if isinstance(t, ast.Name)])
            for target in targets:
                if target.startswith("_") and not target.startswith("__"):
                    defined[target] = f"{name}:{node.lineno}"
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(f"{where} {ref}" for ref, where in defined.items() if ref not in read) == []
