"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
name.  A rename in the package must fail here, not in a traced benchmark run.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    name = "perfbench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACING)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module   # its dataclasses resolve through here
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_traced_names_resolve():
    tracing = load_tracing()
    for mod_name, path, _hook in tracing.TRACED:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{mod_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{path} is not callable"


def test_rule_caches_report_cache_info():
    tracing = load_tracing()
    quadrature = importlib.import_module(f"{tracing.PACKAGE}.quadrature")
    for name in tracing.RULE_CACHES:
        assert hasattr(getattr(quadrature, name), "cache_info"), name
