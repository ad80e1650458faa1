"""The benchmark's trace sites must exist on the package.

``perfbench/layers.py`` patches module attributes and metric methods by name;
a renamed site would make a traced benchmark run fail with AttributeError.
The file is loaded by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

from finsler_billiards import FinslerMetric

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_sites_exist():
    layers = load_layers()
    missing = [
        f"{mod}.{attr}" for mod, attr, _ in layers.FUNCTION_SITES
        if not callable(getattr(importlib.import_module(f"finsler_billiards.{mod}"), attr, None))
    ]
    assert not missing, f"trace sites missing from the package: {missing}"


def test_method_sites_exist():
    layers = load_layers()
    missing = [attr for attr, _ in layers.METHOD_SITES
               if not callable(getattr(FinslerMetric, attr, None))]
    assert not missing, f"metric methods missing: {missing}"
