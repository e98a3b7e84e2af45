"""Coordination of the trading loop.

Holds the dual state over all ordered household pairs, the closed-form
auxiliary and multiplier updates combined into one pure `step`, the
convergence test, and the driver that alternates trade exchanges with
convergence checks until the trade vectors agree.  The driver never
updates the dual state itself: each exchange returns the next state,
computed by `step` in process (LocalTransport) or by the ledger's
contract, which calls the same `step` (simnet.ChainTransport).

The update formulas, per ordered pair (u, v) and slot t:

    aux'[u,v][t] = (rho * (p[u,v][t] - p[v,u][t])
                    - (mult[u,v][t] - mult[v,u][t])) / (2 * rho)
    mult[u,v][t] += rho * (aux'[u,v][t] - p[u,v][t])

aux' is exactly antisymmetric by construction: the (v, u) entry is stored
as the negation of the (u, v) entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agent import AgentRuntime, DualSlice, resolve_trade_cap
from .model import CO, InvalidInput, Schedule, Tariff, check_feasibility


class ProtocolError(RuntimeError):
    """Trade collection does not cover every ordered pair."""


PairMap = dict  # (u, v) -> ndarray over slots


@dataclass
class DualState:
    """Coordination state over all ordered pairs of distinct households."""

    aux: PairMap
    mult: PairMap
    rho: float
    iteration: int = 0

    @classmethod
    def zeros(cls, users, horizon: int, rho: float) -> "DualState":
        users = sorted(users)
        if len(users) != len(set(users)):
            raise InvalidInput("duplicate user ids")
        if rho <= 0:
            raise InvalidInput(f"rho must be positive, got {rho}")
        aux = {(u, v): np.zeros(horizon)
               for u in users for v in users if u != v}
        mult = {k: np.zeros(horizon) for k in aux}
        return cls(aux=aux, mult=mult, rho=rho, iteration=0)

    def slice_for(self, u: str) -> DualSlice:
        """The (u, .) rows only; this is all a household may see."""
        aux = {v: self.aux[(u, v)].copy() for (a, v) in self.aux if a == u}
        mult = {v: self.mult[(u, v)].copy() for (a, v) in self.mult if a == u}
        return DualSlice(aux=aux, mult=mult, rho=self.rho)


def _check_pairs(trades: PairMap, state: DualState):
    missing = [k for k in state.aux if k not in trades]
    if missing:
        raise ProtocolError(f"trades missing for pairs {sorted(missing)[:4]}")


def dual_update(trades: PairMap, state: DualState) -> PairMap:
    """Closed-form auxiliary update; exactly antisymmetric by construction."""
    _check_pairs(trades, state)
    rho = state.rho
    aux = {}
    for (u, v) in state.aux:
        if u < v:
            num = (rho * (np.asarray(trades[(u, v)], float)
                          - np.asarray(trades[(v, u)], float))
                   - (state.mult[(u, v)] - state.mult[(v, u)]))
            a = num / (2.0 * rho)
            aux[(u, v)] = a
            aux[(v, u)] = -a
    return aux


def lambda_update(state: DualState, aux: PairMap, trades: PairMap) -> PairMap:
    """Multiplier ascent step on the trade disagreement."""
    _check_pairs(trades, state)
    if set(aux) != set(state.mult):
        raise ProtocolError("aux keys disagree with multiplier keys")
    return {k: state.mult[k] + state.rho
            * (aux[k] - np.asarray(trades[k], float))
            for k in state.mult}


def step(state: DualState, trades: PairMap) -> DualState:
    """One coordination update: auxiliary trades, then multipliers."""
    aux = dual_update(trades, state)
    mult = lambda_update(state, aux, trades)
    return DualState(aux=aux, mult=mult, rho=state.rho,
                     iteration=state.iteration + 1)


@dataclass
class ConvergenceReport:
    primal_gap: float
    dual_gap: float
    converged: bool


def convergence(state: DualState, prev_mult: PairMap, trades: PairMap,
                eps1: float, eps2: float) -> ConvergenceReport:
    """Trade agreement and multiplier movement.

    primal_gap sums the Euclidean norm of aux - trades over every ordered
    pair; dual_gap is the Euclidean norm of the multiplier change stacked
    over all pairs and slots.  Converged requires both below tolerance.
    """
    _check_pairs(trades, state)
    primal = 0.0
    dual_sq = 0.0
    for k in state.aux:
        primal += float(np.linalg.norm(
            state.aux[k] - np.asarray(trades[k], float)))
        diff = state.mult[k] - prev_mult[k]
        dual_sq += float(diff @ diff)
    dual = float(np.sqrt(dual_sq))
    return ConvergenceReport(primal_gap=primal, dual_gap=dual,
                             converged=primal <= eps1 and dual <= eps2)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class AlgoConfig:
    rho: float = 1.0
    eps1: float = 1e-6
    eps2: float = 1e-6
    max_iter: int = 2000
    trade_cap: float | None = None


@dataclass
class TraceRecord:
    iteration: int
    primal_gap: float
    dual_gap: float
    costs: dict[str, float]


@dataclass
class RunResult:
    schedules: dict[str, Schedule]
    costs: dict[str, float]
    trace: list[TraceRecord]
    iterations: int
    converged: bool
    trade_residual: float
    feasible: bool


class LocalTransport:
    """In-process message channel: slices go out, trade vectors come back."""

    def __init__(self, profiles, tariff: Tariff, cfg: AlgoConfig,
                 qp_settings=None):
        profiles = sorted(profiles, key=lambda p: p.user_id)
        ids = [p.user_id for p in profiles]
        cap = resolve_trade_cap(cfg.trade_cap, profiles)
        self.agents = {
            p.user_id: AgentRuntime(
                p, tariff, [v for v in ids if v != p.user_id],
                cfg.rho, cap, settings=qp_settings)
            for p in profiles}

    def exchange(self, state: DualState) -> tuple[PairMap, DualState]:
        """One round of agent solves; returns the trades and next state."""
        trades = {}
        for u in sorted(self.agents):
            per_peer = self.agents[u].solve_round(state.slice_for(u))
            for v, vec in per_peer.items():
                trades[(u, v)] = vec
        return trades, step(state, trades)

    def schedules(self):
        return {u: a.schedule for u, a in self.agents.items()}

    def costs(self):
        return {u: a.cost for u, a in self.agents.items()}


def run_decentralized(profiles, tariff: Tariff, cfg: AlgoConfig,
                      transport=None, feas_tol: float = 1e-6) -> RunResult:
    """Alternate trade exchanges with convergence checks.

    Starts from zero multipliers and zero auxiliary trades; each exchange
    returns the next dual state.  Stops when the convergence test passes
    or cfg.max_iter is exhausted (the result is then flagged
    converged=False and carries the last iterate).
    """
    profiles = sorted(profiles, key=lambda p: p.user_id)
    if len(profiles) < 2:
        raise InvalidInput("decentralized run needs at least two households")
    H = profiles[0].horizon
    if transport is None:
        transport = LocalTransport(profiles, tariff, cfg)
    state = DualState.zeros([p.user_id for p in profiles], H, cfg.rho)
    trace: list[TraceRecord] = []
    trades: PairMap = {}
    converged = False
    for _ in range(cfg.max_iter):
        prev_mult = state.mult
        trades, state = transport.exchange(state)
        rep = convergence(state, prev_mult, trades, cfg.eps1, cfg.eps2)
        trace.append(TraceRecord(iteration=state.iteration,
                                 primal_gap=rep.primal_gap,
                                 dual_gap=rep.dual_gap,
                                 costs=transport.costs()))
        if rep.converged:
            converged = True
            break

    residual = 0.0
    for (u, v) in trades:
        if u < v:
            residual = max(residual, float(np.max(
                np.abs(trades[(u, v)] + trades[(v, u)]))))
    schedules = transport.schedules()
    cap = resolve_trade_cap(cfg.trade_cap, profiles)
    feasible = all(
        check_feasibility(schedules[p.user_id], p, tariff, CO,
                          tol=feas_tol, trade_cap=cap).ok
        for p in profiles)
    return RunResult(schedules=schedules, costs=transport.costs(),
                     trace=trace, iterations=state.iteration,
                     converged=converged, trade_residual=residual,
                     feasible=feasible)
