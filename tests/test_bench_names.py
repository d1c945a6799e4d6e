"""The package names the benchmark's tracer wraps still exist.

``bench/tracing.py`` wraps package functions by their dotted names, so
deleting or renaming one of them breaks every benchmark run; these tests
make that a test failure too.
"""

import importlib
from pathlib import Path

import pytest

from circlegather import sim
from circlegather.oracle import GeneratorSpec, random_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def resolve(layer):
    """The package object a ``module.name`` or ``module.Class.method`` layer names."""
    mod_name, _, qual = layer.partition(".")
    module = importlib.import_module(f"circlegather.{mod_name}")
    owner, _, name = qual.rpartition(".")
    if owner:
        # The tracer wraps a method on its own class, not an inherited one.
        return vars(getattr(module, owner))[name]
    return getattr(module, name)


def test_every_traced_name_resolves_in_the_package(tracing):
    assert tracing.LAYER_NAMES
    for layer in tracing.LAYER_NAMES:
        assert callable(resolve(layer)), layer


def test_every_cached_traced_name_has_an_lru_cache(tracing):
    assert tracing.CACHED
    for layer in tracing.CACHED:
        assert hasattr(resolve(layer), "cache_info"), layer


def test_clear_caches_empties_the_look_memo(tracing):
    """Every benchmark pass starts from a cold look memo, as from cold
    ``classify`` caches."""
    sim.run(random_config(GeneratorSpec(5, 30, 1)), sim.FsyncPolicy())
    assert sim._decisions_in.cache_info().currsize > 0
    tracing.clear_caches()
    assert sim._decisions_in.cache_info().currsize == 0
