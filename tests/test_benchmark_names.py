"""The benchmark tracer swaps package attributes by name; they must exist."""

import importlib.util
from pathlib import Path

import sparseratio

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_swaps_resolve_on_package():
    # load the module by path: perfbench is not a package, and its run.py
    # sets environment variables on import
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for module, attr, _ in tracer.SWAPS]
    for module, attr in [*names, ("subsolvers", "soft_threshold")]:
        assert hasattr(getattr(sparseratio, module), attr), f"{module}.{attr}"
