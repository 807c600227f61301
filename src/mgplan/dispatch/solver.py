"""Dispatch optimizer: one LP, an exclusivity check, and a MILP fallback.

The objective minimizes grid-caused emissions, written per hour as the
hourly emission rate scaled by the grid share of load; the percent
reduction is recovered afterward. Tiny tie-break penalties on total grid
draw and charger power keep solutions deterministic among
emission-optimal alternatives (prefer less grid, less throughput).

The LP relaxes the hourly charge/discharge exclusivity to the projected
form ``discharge + charge <= power limit``. With an efficiency below one
and free curtailment, simultaneous charge and discharge is strictly
dominated, so the LP optimum almost always charges or discharges, never
both, in every hour. Such an answer is feasible for the exact model and
hence optimal for it; it is returned as proven optimal. Otherwise the
same model, with one explicit binary per hour, goes to the HiGHS MILP
solver for the time that is left.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from ..errors import SolverFailure, ValidationError
from ..profiles import ZERO_LOAD_TOL
from .metrics import utilization
from .model import (
    STATUS_GAP,
    STATUS_OPTIMAL,
    DispatchInstance,
    DispatchResult,
    baseline_emissions,
)

BACKEND_AUTO = "auto"
BACKEND_MILP = "milp"

# Column order within one hour's variable block.
_PGL, _PSL, _PBL, _PSB, _PGB, _PCUR, _PG, _PB, _EB = range(9)
_NV = 9


@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float = 1e-4
    time_limit_s: float = 300.0
    backend: str = BACKEND_AUTO
    feasibility_tol: float = 1e-6
    tie_break_eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.backend not in (BACKEND_AUTO, BACKEND_MILP):
            raise ValidationError(f"unknown solver backend {self.backend!r}")
        if not (math.isfinite(self.time_limit_s) and self.time_limit_s > 0):
            raise ValidationError(
                f"solver time limit must be finite and positive: {self.time_limit_s}"
            )
        if not self.gap_tol >= 0:
            raise ValidationError(f"solver gap tolerance must be >= 0: {self.gap_tol}")
        if not self.feasibility_tol > 0:
            raise ValidationError(
                f"solver feasibility tolerance must be > 0: {self.feasibility_tol}"
            )
        if not self.tie_break_eps >= 0:
            raise ValidationError(
                f"solver tie-break penalty must be >= 0: {self.tie_break_eps}"
            )


def solve_dispatch(
    instance: DispatchInstance, options: SolveOptions | None = None
) -> DispatchResult:
    """Solve the yearly dispatch problem to proven optimality or a gap.

    The LP is solved once. If no hour both charges and discharges by more
    than ``feasibility_tol`` (the product of the two powers, in MW²), the
    answer is exact and is returned as proven optimal with gap 0.
    Otherwise the same model goes to the MILP solver, which stops at a
    relative gap of ``gap_tol``; ``backend="milp"`` skips the LP and goes
    there directly. ``time_limit_s`` bounds the LP and the MILP together.
    An infeasible model, or a time limit hit before any dispatch is found,
    raises ``SolverFailure``; a MILP stopped by the time limit with a
    feasible dispatch returns it with its gap.
    """
    options = options or SolveOptions()
    if instance.battery.e_rated_mwh == 0:
        return _solve_without_battery(instance)
    lp = _DispatchLp(instance, options.tie_break_eps)
    if options.backend == BACKEND_MILP:
        x, gap, status = _solve_milp(lp, options.gap_tol, options.time_limit_s)
    else:
        deadline = time.monotonic() + options.time_limit_s
        x = lp.solve(options.time_limit_s)
        if lp.exclusivity_violations(x).max() <= options.feasibility_tol:
            gap, status = 0.0, STATUS_OPTIMAL
        else:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SolverFailure(
                    "time limit reached before any feasible dispatch was found"
                )
            x, gap, status = _solve_milp(lp, options.gap_tol, remaining)
    return _assemble_result(instance, x.reshape(instance.horizon, _NV), status, gap)


class _DispatchLp:
    """Sparse LP over 9 continuous variables per hour, with the
    charge/discharge exclusivity relaxed to ``discharge + charge <= power
    limit``."""

    def __init__(self, instance: DispatchInstance, tie_break_eps: float):
        self.instance = instance
        batt = instance.battery
        T = instance.horizon
        load = instance.load.values
        solar = instance.solar.values
        carbon = instance.carbon.values
        t = np.arange(T)
        base = t * _NV
        n = T * _NV

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []

        def add(row: np.ndarray, col: np.ndarray, val: float | np.ndarray) -> None:
            rows.append(row)
            cols.append(col)
            vals.append(np.broadcast_to(np.asarray(val, dtype=np.float64), row.shape))

        # Solar split: to-load + to-battery + curtailed = available solar.
        add(5 * t, base + _PSL, 1.0)
        add(5 * t, base + _PSB, 1.0)
        add(5 * t, base + _PCUR, 1.0)
        # Charger sum: total charge = from-solar + from-grid.
        add(5 * t + 1, base + _PB, 1.0)
        add(5 * t + 1, base + _PSB, -1.0)
        add(5 * t + 1, base + _PGB, -1.0)
        # Stored-energy recursion with charge efficiency.
        add(5 * t + 2, base + _EB, 1.0)
        add(5 * t + 2, base + _PB, -batt.roundtrip_efficiency)
        add(5 * t + 2, base + _PBL, 1.0)
        add(5 * t[1:] + 2, base[:-1] + _EB, -1.0)
        # Grid sum: total grid = to-load + to-battery.
        add(5 * t + 3, base + _PG, 1.0)
        add(5 * t + 3, base + _PGL, -1.0)
        add(5 * t + 3, base + _PGB, -1.0)
        # Load balance: grid + solar + battery shares meet the load.
        add(5 * t + 4, base + _PGL, 1.0)
        add(5 * t + 4, base + _PSL, 1.0)
        add(5 * t + 4, base + _PBL, 1.0)

        self.a_eq = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(5 * T, n),
        )
        b_eq = np.zeros(5 * T)
        b_eq[5 * t] = solar
        b_eq[5 * t + 4] = load
        b_eq[2] += batt.initial_energy_mwh
        self.b_eq = b_eq

        ub_rows = np.repeat(t, 2)
        ub_cols = np.stack([base + _PBL, base + _PB], axis=1).ravel()
        self.a_ub = sparse.csr_matrix(
            (np.ones(2 * T), (ub_rows, ub_cols)), shape=(T, n)
        )
        self.b_ub = np.full(T, batt.power_limit_mw)

        lb = np.zeros(n)
        ub = np.full(n, np.inf)
        lb[base + _EB] = batt.energy_min_mwh
        ub[base + _EB] = batt.energy_max_mwh
        # Cyclic year: final stored energy pinned to the initial level.
        lb[base[-1] + _EB] = batt.initial_energy_mwh
        ub[base[-1] + _EB] = batt.initial_energy_mwh
        zero_load = load <= ZERO_LOAD_TOL
        for j in (_PG, _PGL, _PGB):
            ub[base[zero_load] + j] = 0.0
        self.lb = lb
        self.ub = ub

        self.weights = np.where(zero_load, 0.0, carbon / np.where(zero_load, 1.0, load))
        c = np.zeros(n)
        c[base + _PG] = self.weights + tie_break_eps
        c[base + _PB] += tie_break_eps
        self.c = c
        self.base = base

    def solve(self, time_limit_s: float) -> np.ndarray:
        """Solve the LP and return its optimal ``x``."""
        res = linprog(
            self.c,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([self.lb, self.ub]),
            method="highs",
            options={
                "presolve": True,
                "time_limit": time_limit_s,
                "primal_feasibility_tolerance": 1e-9,
                "dual_feasibility_tolerance": 1e-9,
            },
        )
        _raise_if_infeasible(res)
        if res.status != 0 or res.x is None:
            raise SolverFailure(f"dispatch LP failed: {res.message}")
        return res.x

    def exclusivity_violations(self, x: np.ndarray) -> np.ndarray:
        X = x.reshape(self.instance.horizon, _NV)
        return X[:, _PBL] * X[:, _PB]


def _solve_milp(lp: _DispatchLp, gap_tol: float, time_limit_s: float):
    """The LP's model with explicit binaries, one per hour, solved by HiGHS."""
    T = lp.instance.horizon
    n = T * _NV
    pmax = lp.instance.battery.power_limit_mw
    base = lp.base

    c = np.concatenate([lp.c, np.zeros(T)])
    integrality = np.concatenate([np.zeros(n), np.ones(T)])
    lb = np.concatenate([lp.lb, np.zeros(T)])
    ub = np.concatenate([lp.ub, np.ones(T)])

    t = np.arange(T)
    # discharge <= pmax * delta ; charge <= pmax * (1 - delta)
    rows = np.concatenate([t, t, T + t, T + t])
    cols = np.concatenate([base + _PBL, n + t, base + _PB, n + t])
    vals = np.concatenate([np.ones(T), -pmax * np.ones(T), np.ones(T), pmax * np.ones(T)])
    a_delta = sparse.csr_matrix((vals, (rows, cols)), shape=(2 * T, n + T))
    b_delta = np.concatenate([np.zeros(T), np.full(T, pmax)])

    pad = sparse.csr_matrix((lp.a_eq.shape[0], T))
    a_eq = sparse.hstack([lp.a_eq, pad], format="csr")

    res = milp(
        c,
        constraints=[
            LinearConstraint(a_eq, lp.b_eq, lp.b_eq),
            LinearConstraint(a_delta, -np.inf, b_delta),
        ],
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options={
            "presolve": True,
            "mip_rel_gap": gap_tol,
            "time_limit": time_limit_s,
        },
    )
    _raise_if_infeasible(res)
    if res.x is None:
        raise SolverFailure(f"MILP backend failed: {res.message}")
    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    if res.status == 0 and gap <= gap_tol:
        return res.x[:n], gap, STATUS_OPTIMAL
    return res.x[:n], gap, STATUS_GAP


def _raise_if_infeasible(res) -> None:
    if res.status == 2:
        raise SolverFailure(
            "internal error: dispatch model reported infeasible despite unbounded grid"
        )


def _solve_without_battery(instance: DispatchInstance) -> DispatchResult:
    """Closed form when no battery exists: solar serves load first, the
    grid covers the remainder, surplus solar is curtailed."""
    load = instance.load.values
    solar = instance.solar.values
    T = instance.horizon
    solar_to_load = np.minimum(solar, load)
    grid_to_load = load - solar_to_load
    zeros = np.zeros(T)
    X = np.zeros((T, _NV))
    X[:, _PSL] = solar_to_load
    X[:, _PGL] = grid_to_load
    X[:, _PCUR] = solar - solar_to_load
    X[:, _PG] = grid_to_load
    X[:, _EB] = zeros
    return _assemble_result(instance, X, STATUS_OPTIMAL, 0.0)


def _assemble_result(
    instance: DispatchInstance, X: np.ndarray, status: str, gap: float
) -> DispatchResult:
    batt = instance.battery
    load = instance.load.values
    carbon = instance.carbon.values

    power = np.maximum(X[:, :_EB], 0.0)
    grid_total = power[:, _PG]
    charge_total = power[:, _PB]
    batt_to_load = power[:, _PBL]
    battery_energy = X[:, _EB].copy()

    mask = load > ZERO_LOAD_TOL
    c_base = baseline_emissions(instance.carbon)
    c_renew = float(np.sum(grid_total[mask] / load[mask] * carbon[mask]))
    if c_base > 0:
        reduction = 100.0 * (1.0 - c_renew / c_base)
        if -1e-9 < reduction < 0.0:
            reduction = 0.0
        elif 100.0 < reduction < 100.0 + 1e-9:
            reduction = 100.0
    else:
        reduction = 0.0

    discharging = (batt_to_load > ZERO_LOAD_TOL).astype(np.int64)
    cycles = (
        float(batt_to_load.sum()) / batt.usable_window_mwh
        if batt.e_rated_mwh > 0
        else None
    )

    result = DispatchResult(
        grid_to_load=power[:, _PGL],
        solar_to_load=power[:, _PSL],
        batt_to_load=batt_to_load,
        solar_to_batt=power[:, _PSB],
        grid_to_batt=power[:, _PGB],
        solar_curtailed=power[:, _PCUR],
        grid_total=grid_total,
        charge_total=charge_total,
        battery_energy=battery_energy,
        discharging=discharging,
        reduction_pct=reduction,
        baseline_kg=c_base,
        renewable_kg=c_renew,
        util_grid=0.0,
        util_solar=0.0,
        util_batt=0.0,
        chg_grid=0.0,
        chg_solar=0.0,
        battery_charged=False,
        hours_with_load=int(mask.sum()),
        cycles_per_year=cycles,
        status=status,
        gap=gap,
    )
    if result.hours_with_load > 0:
        fractions = utilization(result, instance)
        result = replace(
            result,
            util_grid=fractions.grid,
            util_solar=fractions.solar,
            util_batt=fractions.batt_discharge,
            chg_grid=fractions.chg_grid,
            chg_solar=fractions.chg_solar,
            battery_charged=fractions.battery_charged,
        )
    return result
