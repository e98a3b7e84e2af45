"""Coordination of the trading loop.

Holds the dual state over all ordered household pairs, the closed-form
auxiliary and multiplier updates combined into one pure `step`, the
convergence test, and the driver that alternates trade exchanges with
convergence checks until the trade vectors agree.  The driver never
updates the dual state itself: each exchange returns the next state,
computed by `step` in process (LocalTransport) or by the ledger's
contract, which calls the same `step` (simnet.ChainTransport).

Trades, auxiliary trades and multipliers are (N, N, H) float64 arrays
over the sorted user ids: [i, j] holds the slot vector of the ordered
pair (users[i], users[j]) and the diagonal stays 0.  `stack_trades` is
the one place households' {peer: vector} maps enter this form.

The update formulas, per ordered pair (u, v) and slot t:

    aux'[u,v][t] = (rho * (p[u,v][t] - p[v,u][t])
                    - (mult[u,v][t] - mult[v,u][t])) / (2 * rho)
    mult[u,v][t] += rho * (aux'[u,v][t] - p[u,v][t])

aux' is exactly antisymmetric by construction: the formula runs on the
upper triangle (u < v) and the lower triangle stores its exact negation,
aux'[v,u] = -aux'[u,v].  Evaluating the formula at (v, u) instead gives
+0.0 where the negation gives -0.0, and the ledger's state root commits
to that sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agent import AgentRuntime, DualSlice, resolve_trade_cap
from .model import CO, InvalidInput, Schedule, Tariff, check_feasibility


class ProtocolError(RuntimeError):
    """Trade collection does not cover every ordered pair."""


@dataclass
class DualState:
    """Coordination state: (N, N, H) aux and mult over sorted `users`."""

    users: tuple[str, ...]
    aux: np.ndarray
    mult: np.ndarray
    rho: float
    iteration: int = 0

    @classmethod
    def zeros(cls, users, horizon: int, rho: float) -> "DualState":
        users = tuple(sorted(users))
        if len(users) != len(set(users)):
            raise InvalidInput("duplicate user ids")
        if rho <= 0:
            raise InvalidInput(f"rho must be positive, got {rho}")
        shape = (len(users), len(users), horizon)
        return cls(users=users, aux=np.zeros(shape), mult=np.zeros(shape),
                   rho=rho, iteration=0)

    def slice_for(self, u: str) -> DualSlice:
        """The (u, .) rows only; this is all a household may see."""
        i = self.users.index(u)
        aux, mult = self.aux[i].copy(), self.mult[i].copy()
        peers = [(j, v) for j, v in enumerate(self.users) if j != i]
        return DualSlice(aux={v: aux[j] for j, v in peers},
                         mult={v: mult[j] for j, v in peers}, rho=self.rho)


def stack_trades(users, horizon: int, rows: dict) -> np.ndarray:
    """Stack rows[u][v], u's trade toward v, into one (N, N, H) array.

    Raises ProtocolError unless every ordered pair of users is present.
    """
    pairs = [(u, v) for u in users for v in users if u != v]
    missing = [(u, v) for u, v in pairs if v not in rows.get(u, {})]
    if missing:
        raise ProtocolError(f"trades missing for pairs {missing[:4]}")
    trades = np.zeros((len(users), len(users), horizon))
    trades[~np.eye(len(users), dtype=bool)] = [rows[u][v] for u, v in pairs]
    return trades


def _pairs(arr, state: DualState) -> np.ndarray:
    arr = np.asarray(arr, float)
    if arr.shape != state.aux.shape:
        raise ProtocolError(f"pair array {arr.shape} != {state.aux.shape}")
    return arr


def dual_update(trades, state: DualState) -> np.ndarray:
    """Closed-form auxiliary update; exactly antisymmetric by construction."""
    p = _pairs(trades, state)
    rho, m = state.rho, state.mult
    i, j = np.triu_indices(len(state.users), 1)
    upper = (rho * (p[i, j] - p[j, i]) - (m[i, j] - m[j, i])) / (2.0 * rho)
    aux = np.zeros_like(m)
    aux[i, j] = upper
    aux[j, i] = -upper
    return aux


def lambda_update(state: DualState, aux, trades) -> np.ndarray:
    """Multiplier ascent step on the trade disagreement."""
    return state.mult + state.rho * (_pairs(aux, state)
                                     - _pairs(trades, state))


def step(state: DualState, trades) -> DualState:
    """One coordination update: auxiliary trades, then multipliers."""
    aux = dual_update(trades, state)
    mult = lambda_update(state, aux, trades)
    return DualState(users=state.users, aux=aux, mult=mult, rho=state.rho,
                     iteration=state.iteration + 1)


@dataclass
class ConvergenceReport:
    primal_gap: float
    dual_gap: float
    converged: bool


def convergence(state: DualState, prev_mult, trades,
                eps1: float, eps2: float) -> ConvergenceReport:
    """Trade agreement and multiplier movement.

    primal_gap sums the Euclidean norm of aux - trades over every ordered
    pair; dual_gap is the Euclidean norm of the multiplier change stacked
    over all pairs and slots.  Converged requires both below tolerance.
    Both sums run over (u, v) then (v, u) for each u < v, a fixed order
    that keeps the gaps identical to the last bit from run to run.
    """
    gap = state.aux - _pairs(trades, state)
    moved = state.mult - np.asarray(prev_mult, float)
    primal = 0.0
    dual_sq = 0.0
    for i, j in zip(*np.triu_indices(len(state.users), 1)):
        for a, b in ((i, j), (j, i)):
            primal += float(np.linalg.norm(gap[a, b]))
            dual_sq += float(moved[a, b] @ moved[a, b])
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

    def exchange(self, state: DualState) -> tuple[np.ndarray, DualState]:
        """One round of agent solves; returns the trades and next state."""
        rows = {u: self.agents[u].solve_round(state.slice_for(u))
                for u in state.users}
        trades = stack_trades(state.users, state.aux.shape[2], rows)
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
    trades = np.zeros_like(state.aux)
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

    residual = float(np.max(np.abs(trades + trades.transpose(1, 0, 2))))
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
