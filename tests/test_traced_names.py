"""perfbench/tracing.py traces mppsi layers by name: every name it lists
must exist in the package, so a refactor that renames or deletes a traced
function fails here, not inside a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer", sorted(tracing.FUNCTIONS))
def test_traced_function_exists(layer):
    module_name, name = tracing.FUNCTIONS[layer]
    assert module_name.startswith("mppsi.")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, name, None)), f"{layer}: no function {module_name}.{name}"


@pytest.mark.parametrize("layer", sorted(tracing.METHODS))
def test_traced_method_exists(layer):
    module_name, class_name, name = tracing.METHODS[layer]
    assert module_name.startswith("mppsi.")
    cls = getattr(importlib.import_module(module_name), class_name, None)
    assert isinstance(cls, type), f"{layer}: no class {module_name}.{class_name}"
    assert callable(getattr(cls, name, None)), f"{layer}: no method {class_name}.{name}"
