import importlib
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
