import importlib

import pytest

MODULES = ["bodies", "constants", "estimates", "functionals", "grassmann", "measures",
           "sampler", "verifier"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"sectlab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
