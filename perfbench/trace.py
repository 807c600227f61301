"""Per-layer spans recorded from outside the program.

Each wrapper replaces a public function on the name its caller looks up
(``mgplan.scenario.sweep.solve_dispatch``, not the defining module's
``mgplan.dispatch.solver.solve_dispatch``), so only calls made along the
measured path are seen. Spans are kept in memory and written out once at
the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patches that feed it.

    ``op`` marks the operations the benchmark times; spans opened outside
    any operation belong to set-up.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._op: int | None = None
        self.n_ops = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def begin_op(self) -> Span:
        self._op = self.n_ops
        self.n_ops += 1
        return self.open("op")

    def end_op(self, span: Span) -> None:
        self.close(span)
        self._op = None

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``annotate(span, args, kwargs, result)`` may attach counts.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


# --------------------------------------------------------------------------
# Annotations: counts measured where the work happens.


def _file_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    source = args[0] if args else kwargs.get("source")
    span.attrs["bytes"] = os.path.getsize(source)


def _buffer_ops(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    binary = args[0]
    distance_m = args[1] if len(args) > 1 else kwargs["distance_m"]
    radius = math.ceil(distance_m / binary.cell_size_m)
    offsets = range(-radius, radius + 1)
    disc = sum(1 for di in offsets for dj in offsets if di * di + dj * dj <= radius * radius)
    rows, cols = binary.shape
    span.attrs["ops"] = rows * cols * disc


def _parcel_count(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["parcels"] = len(result)


def _catalog_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    dest = args[1] if len(args) > 1 else kwargs.get("dest")
    span.attrs["bytes"] = os.path.getsize(dest) if dest is not None else len(result)


def _instance_digest(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    instance = args[0] if args else kwargs["instance"]
    options = args[1] if len(args) > 1 else kwargs.get("options")
    h = hashlib.blake2b(digest_size=16)
    for profile in (instance.load, instance.solar, instance.carbon):
        h.update(profile.values.tobytes())
    h.update(repr(instance.battery).encode())
    h.update(repr(options).encode())
    span.attrs["digest"] = h.hexdigest()


def _export_files(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["files"] = len(result)
    span.attrs["bytes"] = sum(os.path.getsize(p) for p in result)


_COST_FUNCTIONS = (
    "get_chemistry", "solar_capital_cost", "lcopr", "configure_pack",
    "battery_capital_cost", "lcos", "cost_of_charging", "total_electricity_cost",
)
_STAKEHOLDER_FUNCTIONS = ("co2_removed", "utility_tco", "utility_metric", "fleet_metric")


def install(tracer: Tracer) -> None:
    """Wrap every public call along the site, sweep, and dispatch paths."""
    import mgplan.costs
    import mgplan.dispatch
    import mgplan.dispatch.model
    import mgplan.dispatch.solver
    import mgplan.profiles
    import mgplan.scenario
    import mgplan.scenario.sweep
    import mgplan.siting
    import mgplan.siting.pipeline
    import mgplan.stakeholders

    pipeline = mgplan.siting.pipeline
    tracer.wrap(pipeline, "read_ascii_grid", "rasters.read_ascii_grid", _file_bytes)
    tracer.wrap(pipeline, "apply_exclusion_rule", "exclusions.apply_exclusion_rule")
    tracer.wrap(pipeline, "buffer_violations", "exclusions.buffer_violations", _buffer_ops)
    tracer.wrap(pipeline, "composite", "exclusions.composite")
    tracer.wrap(pipeline, "aggregate_parcels", "parcels.aggregate_parcels", _parcel_count)
    tracer.wrap(pipeline, "attach_representative_profiles",
                "parcels.attach_representative_profiles")
    tracer.wrap(pipeline, "load_profile", "profiles.load_profile")
    siting = mgplan.siting
    tracer.wrap(siting, "load_siting_config", "siting.load_siting_config")
    tracer.wrap(siting, "run_siting", "siting.run_siting")
    tracer.wrap(siting, "catalog_to_json", "parcels.catalog_to_json", _catalog_bytes)

    sweep = mgplan.scenario.sweep
    tracer.wrap(sweep, "load_profile", "profiles.load_profile")
    tracer.wrap(sweep, "shift_profile", "profiles.shift_profile")
    tracer.wrap(sweep, "scale_profile", "profiles.scale_profile")
    tracer.wrap(sweep, "available_capacity", "profiles.available_capacity")
    tracer.wrap(sweep, "build_instance", "model.build_instance")
    tracer.wrap(sweep, "solve_dispatch", "dispatch.solve_dispatch", _instance_digest)
    tracer.wrap(sweep, "run_cell", "sweep.run_cell")
    for fn in _COST_FUNCTIONS:
        tracer.wrap(mgplan.costs, fn, f"costs.{fn}")
    for fn in _STAKEHOLDER_FUNCTIONS:
        tracer.wrap(mgplan.stakeholders, fn, f"stakeholders.{fn}")
    scenario = mgplan.scenario
    tracer.wrap(scenario, "load_sweep_spec", "sweep.load_sweep_spec")
    tracer.wrap(scenario, "run_sweep", "sweep.run_sweep")
    tracer.wrap(scenario, "export_results", "export.export_results", _export_files)

    tracer.wrap(mgplan.profiles, "load_profile", "profiles.load_profile")
    tracer.wrap(mgplan.profiles, "shift_profile", "profiles.shift_profile")
    tracer.wrap(mgplan.dispatch, "build_instance", "model.build_instance")
    tracer.wrap(mgplan.dispatch, "solve_dispatch", "dispatch.solve_dispatch", _instance_digest)
    tracer.wrap(mgplan.dispatch.solver, "linprog", "dispatch.linprog")
    result_cls = mgplan.dispatch.model.DispatchResult
    tracer.wrap(result_cls, "to_csv", "model.to_csv")
    tracer.wrap(result_cls, "summary_json", "model.summary_json")


# --------------------------------------------------------------------------
# Per-layer figures


def _outermost(spans: list[Span], by_id: dict[int, Span], pred: Callable[[Span], bool]) -> list[Span]:
    """Spans matching ``pred`` with no matching ancestor (no double count)."""
    out = []
    for s in spans:
        if not pred(s):
            continue
        parent = s.parent
        nested = False
        while parent is not None:
            p = by_id[parent]
            if pred(p):
                nested = True
                break
            parent = p.parent
        if not nested:
            out.append(s)
    return out


def layer_figures(tracer: Tracer, op_latencies: list[float], sweep_busy: tuple[float, float] | None) -> dict[str, float]:
    """Per-layer figures: set-up spans counted once plus in-operation
    spans divided by the number of operations.

    ``sweep_busy`` is (sum of per-cell wall times, workers x sweep time)
    over the run's sweeps, or None when the workload runs no sweep.
    """
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    n_ops = max(tracer.n_ops, 1)

    def per_op(values: list[tuple[Span, float]]) -> float:
        setup = sum(v for s, v in values if s.op is None)
        in_ops = sum(v for s, v in values if s.op is not None)
        return setup + in_ops / n_ops

    def time_of(pred: Callable[[Span], bool]) -> float:
        return per_op([(s, s.duration) for s in _outermost(spans, by_id, pred)])

    def count_of(name: str) -> float:
        return per_op([(s, 1.0) for s in spans if s.name == name])

    def attr_of(name: str, key: str, scale: float = 1.0) -> float:
        return per_op([(s, s.attrs.get(key, 0) * scale) for s in spans if s.name == name])

    def named(name: str) -> Callable[[Span], bool]:
        return lambda s: s.name == name

    def layer(prefix: str) -> Callable[[Span], bool]:
        return lambda s: s.layer == prefix

    solves = [s for s in spans if s.name == "dispatch.solve_dispatch"]
    distinct = sum(
        len({s.attrs["digest"] for s in solves if s.op == op}) for op in {s.op for s in solves}
    )
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    cells = [s for s in spans if s.name == "sweep.run_cell"]
    overhead = per_op([(s, s.duration - children.get(s.span_id, 0.0)) for s in cells])

    mb = 1e-6
    figures = {
        "rasters.read_s": time_of(named("rasters.read_ascii_grid")),
        "rasters.read_mb": attr_of("rasters.read_ascii_grid", "bytes", mb),
        "exclusions.rule_s": time_of(named("exclusions.apply_exclusion_rule")),
        "exclusions.buffer_s": time_of(named("exclusions.buffer_violations")),
        "exclusions.buffer_ops": attr_of("exclusions.buffer_violations", "ops"),
        "exclusions.composite_s": time_of(named("exclusions.composite")),
        "parcels.aggregate_s": time_of(
            lambda s: s.name in ("parcels.aggregate_parcels", "parcels.attach_representative_profiles")
        ),
        "parcels.count": attr_of("parcels.aggregate_parcels", "parcels"),
        "parcels.catalog_write_s": time_of(named("parcels.catalog_to_json")),
        "parcels.catalog_mb": attr_of("parcels.catalog_to_json", "bytes", mb),
        "profiles.load_s": time_of(named("profiles.load_profile")),
        "profiles.load_calls": count_of("profiles.load_profile"),
        "dispatch.solve_s": time_of(named("dispatch.solve_dispatch")),
        "dispatch.solve_calls": count_of("dispatch.solve_dispatch"),
        "dispatch.lp_solves": count_of("dispatch.linprog"),
        "dispatch.highs_s": time_of(named("dispatch.linprog")),
        "dispatch.distinct_ratio": distinct / len(solves) if solves else 0.0,
        "model.to_csv_s": time_of(named("model.to_csv")),
        "model.build_instance_s": time_of(named("model.build_instance")),
        "costs.s": time_of(layer("costs")),
        "stakeholders.s": time_of(layer("stakeholders")),
        "sweep.cells": count_of("sweep.run_cell"),
        "sweep.overhead_s": overhead,
        "sweep.busy_frac": sweep_busy[0] / sweep_busy[1] if sweep_busy else 0.0,
        "export.s": time_of(named("export.export_results")),
        "export.files": attr_of("export.export_results", "files"),
        "export.mb": attr_of("export.export_results", "bytes", mb),
        "trace.op_s": statistics.median(op_latencies) if op_latencies else 0.0,
    }
    return figures
