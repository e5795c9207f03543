"""The names the benchmark's tracer wraps exist where it looks for them.

``bench/tracing.py`` is loaded read-only, with ``bench/`` on ``sys.path``
for its ``closed_forms`` import; nothing is installed or wrapped.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import beltrami_growth
from beltrami_growth import mappings

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    # no bytecode cache is written under bench/, and closed_forms leaves
    # sys.modules again
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
        sys.modules.pop("closed_forms", None)
    return module


def test_every_traced_function_exists(tracing):
    missing = [
        f"{module}.{name}"
        for module, names in tracing.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"beltrami_growth.{module}"), name, None))
    ]
    assert missing == []


def test_traced_methods_defined_only_on_mapping(tracing):
    # the tracer wraps these on Mapping alone: an override in a subclass
    # would bypass the wrapper and silently drop its calls and points
    for method in tracing.METHODS:
        assert callable(getattr(mappings.Mapping, method))
    overrides = [
        f"{cls.__name__}.{method}"
        for _, cls in inspect.getmembers(mappings, inspect.isclass)
        if issubclass(cls, mappings.Mapping) and cls is not mappings.Mapping
        for method in tracing.METHODS
        if method in vars(cls)
    ]
    assert overrides == []


def test_attrs_finds_the_classes_it_reads(tracing):
    # _attrs reads growth.ConstantProfile, growth.LogProductProfile and
    # mappings.Power when it is called, before any span is recorded
    attrs = tracing._attrs(beltrami_growth)
    assert {"growth.image_area", "growth.envelope_integral"} <= set(attrs)
