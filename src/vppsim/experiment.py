"""End-to-end experiment orchestration over whole scenarios.

A scenario spanning several days decomposes into independent day-ahead
problems chained only through the battery: day d+1 starts at the charge
level day d ended on, while indoor temperature re-initializes each
morning.  Standalone mode solves every household alone; cooperative
mode runs the trading loop for each day over the simulated network and
chain, then settles that day's schedules in tokens.  The centralized
solve of the same day is kept separate as a verification oracle.
"""

from dataclasses import dataclass, replace

import numpy as np

from .agent import build_centralized, build_sa_problem, decode, decode_all
from .coordinator import run_decentralized
from .model import (SA, Schedule, Tariff, UserProfile,
                    battery_trajectory, check_feasibility, cost_breakdown)
from .qp import OPTIMAL, QpSolver
from .scenario_io import Scenario
from .simnet import ChainTransport


class ExperimentError(Exception):
    pass


def day_profile(user: UserProfile, day: int, slots: int,
                b_start: float | None = None) -> UserProfile:
    """One day's slice of a multi-day profile.

    b_start overrides the battery's initial level to chain days
    together; everything else re-initializes (day-ahead semantics).
    """
    lo = day * slots
    hi = lo + slots
    if hi > user.horizon:
        raise ExperimentError(
            f"user {user.user_id}: day {day} exceeds series length")
    exo = replace(user.exo,
                  renewable_cap=user.exo.renewable_cap[lo:hi],
                  t_out=user.exo.t_out[lo:hi],
                  inflexible=user.exo.inflexible[lo:hi])
    flex = replace(user.flex, reference=user.flex.reference[lo:hi],
                   lo=user.flex.lo[lo:hi], hi=user.flex.hi[lo:hi])
    battery = user.battery if b_start is None else \
        replace(user.battery, b_init=float(b_start))
    return replace(user, exo=exo, flex=flex, battery=battery)


def day_tariff(tariff: Tariff, day: int, slots: int) -> Tariff:
    lo = day * slots
    hi = lo + slots
    return replace(tariff, pi_dr=np.asarray(tariff.pi_dr)[lo:hi],
                   pi_as=np.asarray(tariff.pi_as)[lo:hi])


def _battery_end(schedule: Schedule, profile: UserProfile) -> float:
    levels = battery_trajectory(schedule.c, schedule.d, profile.battery)
    # solver-noise at the feasibility tolerance can leave the end level
    # a hair outside the physical range; the carried value is clamped
    return float(np.clip(levels[-1], 0.0, profile.battery.capacity))


@dataclass
class SaRun:
    schedules: dict          # user id -> list of per-day Schedule
    costs: dict              # user id -> total over days
    feasible: bool


@dataclass
class CoRun:
    schedules: dict          # user id -> list of per-day Schedule
    costs: dict              # user id -> total over days
    day_costs: list          # per day, user id -> that day's cost
    b_starts: list           # per day, user id -> start battery (or None)
    converged: bool
    feasible: bool
    iterations: list         # per day
    traces: list             # per day, list of TraceRecord
    trade_residual: float
    transports: list         # per day ChainTransport (chain + events)
    settlements: list        # per day list of transfer transactions


@dataclass
class CompareRun:
    sa: SaRun
    co: CoRun
    reduction_pct: dict      # per user
    aggregate_reduction_pct: float


@dataclass
class OracleRun:
    co: CoRun
    co_total: float
    oracle_total: float
    rel_gap: float
    day_gaps: list


def run_sa(scenario: Scenario) -> SaRun:
    """Each household alone against the grid, day by day."""
    slots = scenario.horizon.slots
    schedules = {u.user_id: [] for u in scenario.users}
    costs = dict.fromkeys(schedules, 0.0)
    feasible = True
    carry = dict.fromkeys(schedules, None)
    for day in range(scenario.days):
        tariff = day_tariff(scenario.tariff, day, slots)
        for user in scenario.users:
            p = day_profile(user, day, slots, carry[user.user_id])
            problem, layout = build_sa_problem(p, tariff)
            sol = QpSolver(problem).solve()
            if sol.status != OPTIMAL:
                raise ExperimentError(
                    f"standalone solve for {user.user_id} day {day} "
                    f"ended {sol.status}")
            s = decode(sol, layout)
            schedules[user.user_id].append(s)
            costs[user.user_id] += cost_breakdown(s, p, tariff, SA).total
            feasible &= check_feasibility(s, p, tariff, SA).ok
            carry[user.user_id] = _battery_end(s, p)
    return SaRun(schedules=schedules, costs=costs, feasible=feasible)


def run_co(scenario: Scenario, settle: bool = True) -> CoRun:
    """The trading loop over the simulated network and chain, per day.

    Settlement runs once per converged day.  A day that fails to
    converge stops the run there (later days depend on its battery
    state) and the result carries converged=False.
    """
    slots = scenario.horizon.slots
    users = scenario.users
    schedules = {u.user_id: [] for u in users}
    carry = dict.fromkeys(schedules, None)
    day_costs = []
    b_starts = []
    iterations = []
    traces = []
    transports = []
    settlements = []
    converged = True
    feasible = True
    residual = 0.0
    for day in range(scenario.days):
        tariff = day_tariff(scenario.tariff, day, slots)
        profiles = [day_profile(u, day, slots, carry[u.user_id])
                    for u in users]
        net = replace(scenario.net, seed=scenario.net.seed + day)
        transport = ChainTransport(profiles, tariff, scenario.algo, net=net)
        res = run_decentralized(transport)
        transports.append(transport)
        day_costs.append(res.costs)
        b_starts.append(dict(carry))
        iterations.append(res.iterations)
        traces.append(res.trace)
        residual = max(residual, res.trade_residual)
        feasible &= res.feasible
        for p in profiles:
            s = res.schedules[p.user_id]
            schedules[p.user_id].append(s)
            carry[p.user_id] = _battery_end(s, p)
        if not res.converged:
            converged = False
            break
        if settle:
            settlements.append(transport.finalize(res.schedules, tariff))
    costs = {u: sum(day[u] for day in day_costs) for u in schedules}
    return CoRun(schedules=schedules, costs=costs, day_costs=day_costs,
                 b_starts=b_starts, converged=converged, feasible=feasible,
                 iterations=iterations, traces=traces,
                 trade_residual=residual, transports=transports,
                 settlements=settlements)


def run_compare(scenario: Scenario) -> CompareRun:
    sa = run_sa(scenario)
    co = run_co(scenario)
    reduction = {}
    for uid in sa.costs:
        base = sa.costs[uid]
        reduction[uid] = 0.0 if base == 0.0 \
            else 100.0 * (base - co.costs[uid]) / abs(base)
    sa_total = sum(sa.costs.values())
    co_total = sum(co.costs.values())
    agg = 0.0 if sa_total == 0.0 \
        else 100.0 * (sa_total - co_total) / abs(sa_total)
    return CompareRun(sa=sa, co=co, reduction_pct=reduction,
                      aggregate_reduction_pct=agg)


def centralized_day(scenario: Scenario, day: int,
                    b_start: dict | None = None):
    """Oracle solve of one day's pooled problem.

    Returns (objective, per-user schedules).  b_start chains batteries
    the same way the cooperative run does.
    """
    slots = scenario.horizon.slots
    tariff = day_tariff(scenario.tariff, day, slots)
    b_start = b_start or {}
    profiles = [day_profile(u, day, slots, b_start.get(u.user_id))
                for u in scenario.users]
    problem, layouts = build_centralized(
        profiles, tariff, trade_cap=scenario.algo.trade_cap)
    sol = QpSolver(problem).solve()
    if sol.status != OPTIMAL:
        raise ExperimentError(f"centralized solve day {day} "
                              f"ended {sol.status}")
    return float(sol.objective), decode_all(sol, layouts)


def run_verify_oracle(scenario: Scenario) -> OracleRun:
    """Cooperative run cross-checked against the centralized solve.

    Each day's oracle problem starts from the cooperative run's battery
    level for that day, so both sides solve the identical day problem
    and the per-day relative gap isolates the trading loop's accuracy.
    The cooperative side reads the run's own costs and battery levels.
    """
    co = run_co(scenario, settle=False)
    if not co.converged:
        return OracleRun(co=co, co_total=float("nan"),
                         oracle_total=float("nan"),
                         rel_gap=float("inf"), day_gaps=[])
    day_gaps = []
    oracle_total = 0.0
    co_total = 0.0
    for day in range(scenario.days):
        obj, _ = centralized_day(scenario, day, co.b_starts[day])
        co_day = sum(co.day_costs[day][u.user_id] for u in scenario.users)
        oracle_total += obj
        co_total += co_day
        day_gaps.append(abs(co_day - obj) / max(1.0, abs(obj)))
    rel_gap = abs(co_total - oracle_total) / max(1.0, abs(oracle_total))
    return OracleRun(co=co, co_total=co_total, oracle_total=oracle_total,
                     rel_gap=rel_gap, day_gaps=day_gaps)
