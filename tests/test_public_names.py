"""Every exported name exists, and every function the traced bench rebinds resolves.

``bench/spans.py`` names its targets by module and attribute path.  A deletion
that removed one would break ``bench/run.py --trace 1``; these tests make it
fail the suite as well.  ``spans.py`` is imported read-only: no bytecode is
written next to it.
"""

import importlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module", ["cclass", "cli", "contraction", "problems", "solver", "space"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"enrichedfp.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"enrichedfp.{module}.__all__ names missing attributes: {missing}"


def test_bench_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    targets = [(m, path) for m, path, _ in spans.SPAN_TARGETS] + list(spans.GRID_EVAL_TARGETS)
    unresolved = []
    for module, path in targets:
        try:
            owner, attr = spans._resolve(module, path)
        except AttributeError:
            unresolved.append((module, path))
            continue
        # a method is rebound on its own class, so it must be defined there
        if attr not in (vars(owner) if isinstance(owner, type) else dir(owner)):
            unresolved.append((module, path))
    assert not unresolved, f"bench/spans.py targets that do not resolve: {unresolved}"
