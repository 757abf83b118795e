"""The names the benchmark's tracer wraps, and its modules, still exist.

``perfbench/spans.py`` replaces each ``(owner, attribute)`` of ``TARGETS``
with a timing wrapper, and ``perfbench/checks.py`` re-derives results from
the library.  A renamed or deleted library name would otherwise break only
the traced and smoke benchmark runs, which the test suite does not start.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from frgeo import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("spans", "checks", "workloads")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_binding_resolves(perfbench_modules):
    missing = []
    for owner, attr, *_ in perfbench_modules["spans"].TARGETS:
        target = importlib.import_module(owner) if isinstance(owner, str) else owner
        if not callable(getattr(target, attr, None)):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert not missing


def test_tracer_installs_and_restores(perfbench_modules):
    spans = perfbench_modules["spans"]
    before = [
        getattr(importlib.import_module(o) if isinstance(o, str) else o, a)
        for o, a, *_ in spans.TARGETS
    ]
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    after = [
        getattr(importlib.import_module(o) if isinstance(o, str) else o, a)
        for o, a, *_ in spans.TARGETS
    ]
    assert all(a is b for a, b in zip(before, after))


def test_checks_and_workloads_import(perfbench_modules):
    assert callable(perfbench_modules["checks"].check_outputs)
    assert callable(perfbench_modules["workloads"].make_plan)


def test_names_read_outside_targets_resolve(perfbench_modules, tmp_path):
    # checks.backend_crosscheck reads kernels.rk4_coupled_jit, and run.py
    # records kernels.backend_name() in every result
    plan = perfbench_modules["workloads"].make_plan("oracle", 1, True, tmp_path)
    record = perfbench_modules["checks"].backend_crosscheck(plan.experiments[0])
    ((name, verdict),) = record.items()
    assert name.endswith("_crosscheck") and verdict.startswith("skipped:")
    assert kernels.backend_name() == "numpy"
