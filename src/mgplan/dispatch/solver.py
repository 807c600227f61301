"""Dispatch optimizer: one LP, an exclusivity check, and a MILP fallback.

The LP has six columns per hour: grid, solar and battery to load (PGL,
PSL, PBL), solar and grid to battery (PSB, PGB), and stored energy (EB).
Grid total PGL + PGB, charger total PSB + PGB and curtailment (the slack
of the solar row) are rebuilt from the solution, not solved for.

The objective minimizes grid-caused emissions: per hour, the weight w
(emission rate over load) times grid draw; the percent reduction is
recovered afterward. A tiny tie-break eps on grid draw and on charger
power prefers less grid and less throughput: (w + eps)(PGL + PGB) +
eps(PSB + PGB) is charged as the column costs w + eps on PGL, w + 2 eps
on PGB and eps on PSB. A tie remains: in one hour, trading solar-to-load
for solar-to-battery against grid-to-battery for grid-to-load costs
nothing, so the utilization and charging fractions may depend on the
optimal vertex HiGHS returns.

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
_PGL, _PSL, _PBL, _PSB, _PGB, _EB = range(6)
_NV = 6


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
    """Per hour: columns PGL, PSL, PBL, PSB, PGB, EB; equality rows
    EB[t] - EB[t-1] - eta(PSB + PGB) + PBL = 0 and PGL + PSL + PBL = load;
    inequality rows PSL + PSB <= solar and PBL + PSB + PGB <= pmax (the
    relaxed exclusivity). The costs w + eps on PGL, w + 2 eps on PGB and
    eps on PSB equal (w + eps) grid total + eps charger total."""

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

        eq_terms = [
            # Stored-energy recursion with charge efficiency.
            (2 * t, base + _EB, 1.0),
            (2 * t, base + _PSB, -batt.roundtrip_efficiency),
            (2 * t, base + _PGB, -batt.roundtrip_efficiency),
            (2 * t, base + _PBL, 1.0),
            (2 * t[1:], base[:-1] + _EB, -1.0),
            # Load balance: grid + solar + battery shares meet the load.
            (2 * t + 1, base + _PGL, 1.0),
            (2 * t + 1, base + _PSL, 1.0),
            (2 * t + 1, base + _PBL, 1.0),
        ]
        self.a_eq = _csr(eq_terms, (2 * T, n))
        self.b_eq = np.column_stack([np.zeros(T), load]).ravel()
        self.b_eq[0] = batt.initial_energy_mwh

        ub_terms = [
            # Solar split: to-load + to-battery <= available solar.
            (2 * t, base + _PSL, 1.0),
            (2 * t, base + _PSB, 1.0),
            # Power limit: discharge + charge <= pmax.
            (2 * t + 1, base + _PBL, 1.0),
            (2 * t + 1, base + _PSB, 1.0),
            (2 * t + 1, base + _PGB, 1.0),
        ]
        self.a_ub = _csr(ub_terms, (2 * T, n))
        self.b_ub = np.column_stack([solar, np.full(T, batt.power_limit_mw)]).ravel()

        lb = np.zeros(n)
        ub = np.full(n, np.inf)
        lb[base + _EB] = batt.energy_min_mwh
        ub[base + _EB] = batt.energy_max_mwh
        # Cyclic year: final stored energy pinned to the initial level.
        lb[base[-1] + _EB] = batt.initial_energy_mwh
        ub[base[-1] + _EB] = batt.initial_energy_mwh
        zero_load = load <= ZERO_LOAD_TOL
        for j in (_PGL, _PGB):
            ub[base[zero_load] + j] = 0.0
        self.lb = lb
        self.ub = ub

        w = np.where(zero_load, 0.0, carbon / np.where(zero_load, 1.0, load))
        c = np.zeros(n)
        c[base + _PGL] = w + tie_break_eps
        c[base + _PGB] = w + 2 * tie_break_eps
        c[base + _PSB] = tie_break_eps
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
        return X[:, _PBL] * (X[:, _PSB] + X[:, _PGB])


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
    delta_terms = [
        (t, base + _PBL, 1.0),
        (t, n + t, -pmax),
        (T + t, base + _PSB, 1.0),
        (T + t, base + _PGB, 1.0),
        (T + t, n + t, pmax),
    ]
    a_delta = _csr(delta_terms, (2 * T, n + T))
    b_delta = np.concatenate([np.zeros(T), np.full(T, pmax)])

    def padded(a: sparse.csr_matrix) -> sparse.csr_matrix:
        return sparse.hstack([a, sparse.csr_matrix((a.shape[0], T))], format="csr")

    res = milp(
        c,
        constraints=[
            LinearConstraint(padded(lp.a_eq), lp.b_eq, lp.b_eq),
            LinearConstraint(padded(lp.a_ub), -np.inf, lp.b_ub),
            LinearConstraint(a_delta, -np.inf, b_delta),
        ],
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options={"presolve": True, "mip_rel_gap": gap_tol, "time_limit": time_limit_s},
    )
    _raise_if_infeasible(res)
    if res.x is None:
        raise SolverFailure(f"MILP backend failed: {res.message}")
    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    if res.status == 0 and gap <= gap_tol:
        return res.x[:n], gap, STATUS_OPTIMAL
    return res.x[:n], gap, STATUS_GAP


def _csr(terms, shape: tuple[int, int]) -> sparse.csr_matrix:
    """Sparse matrix from (row indices, column indices, coefficient) terms."""
    rows, cols, vals = zip(*terms)
    data = [np.full(r.shape, v, dtype=np.float64) for r, v in zip(rows, vals)]
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    )


def _raise_if_infeasible(res) -> None:
    if res.status == 2:
        raise SolverFailure(
            "internal error: dispatch model reported infeasible despite unbounded grid"
        )


def _solve_without_battery(instance: DispatchInstance) -> DispatchResult:
    """Closed form when no battery exists: solar serves load first, the
    grid covers the remainder, surplus solar is curtailed."""
    load = instance.load.values
    X = np.zeros((instance.horizon, _NV))
    X[:, _PSL] = np.minimum(instance.solar.values, load)
    X[:, _PGL] = load - X[:, _PSL]
    return _assemble_result(instance, X, STATUS_OPTIMAL, 0.0)


def _assemble_result(
    instance: DispatchInstance, X: np.ndarray, status: str, gap: float
) -> DispatchResult:
    batt = instance.battery
    load = instance.load.values
    carbon = instance.carbon.values

    power = np.maximum(X[:, :_EB], 0.0)
    grid_total = power[:, _PGL] + power[:, _PGB]
    charge_total = power[:, _PSB] + power[:, _PGB]
    curtailed = np.maximum(instance.solar.values - power[:, _PSL] - power[:, _PSB], 0.0)
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
        solar_curtailed=curtailed,
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
