"""Spans around the calls into each ``frgeo`` layer, recorded from outside.

The tracer replaces each public entry point under the name its caller looks
it up by (``frgeo.cli.density_at``, ``frgeo.pixelation.project_regions``,
``BoxFunction.cell_averages``, ...) with a wrapper that records a span: name,
start, end, parent span, experiment id, thread and a few work counts.  Spans
stay in memory; ``uninstall`` restores the originals.  A call on a pool thread with no open span of its own takes the
innermost open span of the main thread as its parent, so ``density_at``
frames nest under ``run_experiment``.

Self time is a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import importlib
import itertools
import math
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from frgeo import BoxFunction, DyadicGrid


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    experiment: str
    thread: int
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# work counts taken at the span boundary (after the end time is read)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _before_run(args) -> dict:
    return {"kind": args[0].kind}


def _count_run(_args, result, counts) -> None:
    counts["bytes"] = sum(Path(p).stat().st_size for p in result)


def _count_cells(args, _result, counts) -> None:
    # region/cell incidences the projection visits: per region with a
    # nonzero value, the product over axes of the cells its bounds span
    grid, bounds, values = args
    side = grid.side_count
    cells = 0
    for (lo, hi), value in zip(bounds, values):
        if value != 0.0:
            cells += math.prod(
                math.ceil(b * side) - math.floor(a * side) for a, b in zip(lo, hi)
            )
    counts["cells"] = cells


def _count_values(args, _result, counts) -> None:
    counts["values"] = int(np.broadcast(*(np.asarray(a) for a in args[:3])).size)


def _before_moments(_args) -> dict:
    return {"rss_before_mb": _maxrss_mb()}


def _count_moments(args, _result, counts) -> None:
    state, times = args
    counts["values"] = int(np.size(times)) * state.space.n_points
    counts["rss_delta_mb"] = _maxrss_mb() - counts.pop("rss_before_mb")


def _count_steps(_args, result, counts) -> None:
    times, n_valid = result[0], result[3]
    counts["steps"] = int(n_valid) - 1
    counts["left_domain"] = int(n_valid != times.size)


# (owner, attribute, span name, count hook, before hook); owners are module
# names or classes, and every binding a caller looks a function up by is
# listed.  A before hook sees the arguments and seeds the span's counts; a
# count hook runs after the end time is read, on success only.
TARGETS = [
    ("frgeo.cli", "validate_config", "cli.validate_config", None, None),
    ("frgeo.cli", "run_experiment", "cli.run_experiment", _count_run, _before_run),
    ("frgeo.cli", "load_catalog", "catalogs.load_catalog", None, None),
    (BoxFunction, "cell_averages", "boxes.cell_averages", None, None),
    ("frgeo.boxes", "project_regions", "boxes.project_regions", _count_cells, None),
    ("frgeo.pixelation", "project_regions", "boxes.project_regions", _count_cells, None),
    ("frgeo.pixelation", "overlay", "boxes.overlay", None, None),
    ("frgeo.cli", "build_ladder", "pixelation.build_ladder", None, None),
    ("frgeo.pixelation", "weak_error", "pixelation.weak_error", None, None),
    ("frgeo.pixelation", "three_term_errors", "pixelation.three_term_errors", None, None),
    (
        "frgeo.pixelation",
        "continuum_cell_averages",
        "pixelation.continuum_cell_averages",
        None,
        None,
    ),
    (DyadicGrid, "centers", "spaces.centers", None, None),
    ("frgeo.cli", "geodesic_flow", "geodesics.geodesic_flow", None, None),
    ("frgeo.geodesics", "geodesic_flow", "geodesics.geodesic_flow", None, None),
    ("frgeo.pixelation", "geodesic_flow", "geodesics.geodesic_flow", None, None),
    ("frgeo.cli", "density_at", "geodesics.density_at", None, None),
    ("frgeo.geodesics", "evaluate_scalar", "geodesics.evaluate_scalar", _count_values, None),
    ("frgeo.moments", "evaluate_scalar", "geodesics.evaluate_scalar", _count_values, None),
    ("frgeo.cli", "simplex_flow_samples", "geodesics.simplex_flow_samples", None, None),
    ("frgeo.geodesics", "simplex_flow_samples", "geodesics.simplex_flow_samples", None, None),
    ("frgeo.cli", "simplex_trajectory", "geodesics.simplex_trajectory", None, None),
    ("frgeo.cli", "moments", "moments.moments", _count_moments, _before_moments),
    ("frgeo.cli", "write_moments_csv", "moments.write_csv", None, None),
    ("frgeo.cli", "integrate_coupled", "oracle.integrate_coupled", None, None),
    ("frgeo.kernels", "rk4_coupled", "kernels.rk4_coupled", _count_steps, None),
]


class Tracer:
    """Collects spans from wrapped entry points; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.experiment = ""
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count, before):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            main = tracer._stacks.get(tracer._main) or [None]
            parent = stack[-1] if stack else main[-1]
            span = Span(next(tracer._ids), name, 0.0, 0.0, parent,
                        tracer.experiment, threading.get_ident())
            if before:
                span.counts = before(args)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if count:
                count(args, result, span.counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for owner, attr, name, count, before in TARGETS:
            target = importlib.import_module(owner) if isinstance(owner, str) else owner
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, count, before))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.id, [])):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _ratio(num: float, den: float) -> float:
    # 0 when the layer did no work in the pass
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (see perfbench/README.md)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(name: str) -> float:
        return sum(own[s.id] for s in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def total(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in by_name.get(name, []))

    m = {
        "cli.validate_s": self_s("cli.validate_config"),
        "cli.self_s": self_s("cli.run_experiment"),
        "cli.bytes_written": total("cli.run_experiment", "bytes"),
        "catalogs.load_catalog_s": self_s("catalogs.load_catalog"),
        "boxes.cell_averages_s": self_s("boxes.cell_averages"),
        "boxes.project_regions_s": self_s("boxes.project_regions"),
        "boxes.project_regions_calls": calls("boxes.project_regions"),
        "boxes.cells_projected": total("boxes.project_regions", "cells"),
        "boxes.overlay_s": self_s("boxes.overlay"),
        "pixelation.build_ladder_s": self_s("pixelation.build_ladder"),
        "pixelation.weak_error_s": self_s("pixelation.weak_error"),
        "pixelation.weak_error_calls": calls("pixelation.weak_error"),
        "pixelation.three_term_errors_s": self_s("pixelation.three_term_errors"),
        "pixelation.three_term_errors_calls": calls("pixelation.three_term_errors"),
        "pixelation.continuum_cell_averages_s": self_s(
            "pixelation.continuum_cell_averages"
        ),
        "spaces.centers_s": self_s("spaces.centers"),
        "spaces.centers_calls": calls("spaces.centers"),
        "geodesics.geodesic_flow_s": self_s("geodesics.geodesic_flow"),
        "geodesics.density_at_s": self_s("geodesics.density_at"),
        "geodesics.density_at_calls": calls("geodesics.density_at"),
        "geodesics.evaluate_scalar_s": self_s("geodesics.evaluate_scalar"),
        "geodesics.values_evaluated": total("geodesics.evaluate_scalar", "values"),
        "geodesics.simplex_flow_samples_s": self_s("geodesics.simplex_flow_samples"),
        "geodesics.simplex_trajectory_s": self_s("geodesics.simplex_trajectory"),
        "moments.moments_s": self_s("moments.moments"),
        "moments.values": total("moments.moments", "values"),
        "moments.rss_hwm_delta_mb": max(
            (s.counts.get("rss_delta_mb", 0.0) for s in by_name.get("moments.moments", [])),
            default=0.0,
        ),
        "moments.write_csv_s": self_s("moments.write_csv"),
        "oracle.integrate_coupled_s": self_s("oracle.integrate_coupled"),
        "kernels.rk4_coupled_s": self_s("kernels.rk4_coupled"),
        "oracle.steps": total("kernels.rk4_coupled", "steps"),
        "oracle.left_domain": total("kernels.rk4_coupled", "left_domain"),
    }
    m["cli.write_mb_per_s"] = _ratio(m["cli.bytes_written"] / 1e6, m["cli.self_s"])
    m["boxes.ns_per_cell"] = _ratio(
        m["boxes.project_regions_s"] * 1e9, m["boxes.cells_projected"]
    )
    m["geodesics.ns_per_value"] = _ratio(
        m["geodesics.evaluate_scalar_s"] * 1e9, m["geodesics.values_evaluated"]
    )
    m["oracle.us_per_step"] = _ratio(m["kernels.rk4_coupled_s"] * 1e6, m["oracle.steps"])
    return m


def nested_self_s(spans: list[Span], name: str, kind: str, inside: str | None = None) -> float:
    """Self time of ``name`` spans under a run_experiment span of ``kind``.

    With ``inside``, only spans that also have an ``inside`` span among their
    ancestors count.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        ancestors, run_kind, up = set(), None, s
        while up is not None:
            ancestors.add(up.name)
            if up.name == "cli.run_experiment":
                run_kind = up.counts.get("kind")
            up = by_id.get(up.parent)
        if run_kind == kind and (inside is None or inside in ancestors):
            total += own[s.id]
    return total


# shares of a kind's traced time that confirm each workload loads the layer
# it was chosen for: (workload, span, kind, enclosing span, minimum share)
LAYER_SHARES = [
    ("grid", "cli.run_experiment", "density-geodesic", None, 0.8),
    ("grid", "geodesics.evaluate_scalar", "moments", "moments.moments", 0.7),
    ("ladder", "boxes.project_regions", "pixelation-convergence", None, 0.8),
    ("oracle", "kernels.rk4_coupled", "oracle-compare", None, 0.6),
]


def layer_shares(workload: str, spans: list[Span], kind_times: dict) -> dict:
    """Self time of each chosen layer over its kind's time in one pass."""
    return {
        f"{name} self / {kind} time": {
            "share": nested_self_s(spans, name, kind, inside) / kind_times[kind],
            "minimum": minimum,
        }
        for w, name, kind, inside, minimum in LAYER_SHARES
        if w == workload
    }
