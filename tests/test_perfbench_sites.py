"""The benchmark's trace sites must exist on the package and be reached.

``perfbench/layers.py`` patches module attributes and metric methods by name;
a renamed site would make a traced benchmark run fail with AttributeError,
and a site the search routes around would leave its per-layer metric empty.
The perfbench files are loaded by path and not modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from finsler_billiards import FinslerMetric, billiards, cli, metrics, search

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass in workloads.py looks itself up there
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load("layers")


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


def test_every_site_records_a_span():
    layers, workloads = load_layers(), load("workloads")
    modules = {"cli": cli, "search": search, "billiards": billiards, "metrics": metrics}
    tracer = layers.Tracer()
    for name in ("drift3d", "magnetic2d"):
        config = workloads.WORKLOADS[name].search_config(0)
        config["search"]["seeds"] = 4
        tracer.install(modules, type(metrics.metric_from_spec(config["metric"])))
        try:
            report, _ = cli.run_search(config)
        finally:
            tracer.uninstall()
    tracer.install(modules, FinslerMetric)
    try:
        cli.dumps_report(report)
    finally:
        tracer.uninstall()
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    sites = [name for *_, name in layers.FUNCTION_SITES + layers.METHOD_SITES]
    missing = [name for name in sites if name not in recorded]
    assert not missing, f"trace sites that recorded no span: {missing}"
