"""The benchmark's tracer wraps the package's functions by module and name:
each name it lists must stay a function of the package, or its traced runs
break."""

import importlib

import numpy as np

from tripletree import tree as tr

from .conftest import load_perfbench, synthetic_aug


def test_every_tracer_target_is_a_function_of_the_package(monkeypatch):
    tracer = load_perfbench(monkeypatch, "tracer")
    assert tracer.TARGETS
    for module, function, _hook in tracer.TARGETS:
        target = getattr(importlib.import_module(f"tripletree.{module}"),
                         function, None)
        assert callable(target), f"tripletree.{module}.{function}"


def test_tracer_hooks_read_a_traced_growth(monkeypatch):
    # the split-search and growth hooks read best_split's first two
    # positional arguments and grow's split log
    rng = np.random.default_rng(0)
    data = synthetic_aug(states=rng.uniform(size=(60, 2)),
                         actions=rng.integers(0, 3, size=60).astype(float),
                         V=rng.normal(size=60))
    tracer = load_perfbench(monkeypatch, "tracer").Tracer()
    tracer.install()
    try:
        grown = tr.grow(data, [1, 1, 1], max_leaves=5)
    finally:
        tracer.restore()
    assert tracer.counts["splits"] == len(grown.split_log) == 4
    assert tracer.counts["best_split_rows"] > 0
