"""Scenario sweeps, capacity-gap checks, and result export."""

from .export import export_results, results_to_csv, results_to_json
from .gap import CapacityGapEntry, CapacityGapReport, capacity_gap
from .sweep import (
    CellKey,
    ScenarioResult,
    SweepSite,
    SweepSpec,
    load_sweep_spec,
    result_fields,
    run_cell,
    run_group,
    run_sweep,
)

__all__ = [
    "CapacityGapEntry",
    "CapacityGapReport",
    "CellKey",
    "ScenarioResult",
    "SweepSite",
    "SweepSpec",
    "capacity_gap",
    "export_results",
    "load_sweep_spec",
    "result_fields",
    "results_to_csv",
    "results_to_json",
    "run_cell",
    "run_group",
    "run_sweep",
]
