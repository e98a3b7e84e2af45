"""Coordination of the trading loop.

Holds the closed-form auxiliary and multiplier updates, the convergence
test, and the driver that alternates trade exchanges with convergence
checks until the trade vectors agree.  The coordination state is the
ledger contract's committed storage (chain.ContractState): each exchange
runs a round through the contract (simnet.ChainTransport), whose
`compute_dual` is the only caller of the two updates, and
`run_decentralized` reads every state, the genesis one included, from
the chain; it builds and writes none.

Trades, auxiliary trades and multipliers are (N, N, H) float64 arrays
over the sorted user ids: [i, j] holds the slot vector of the ordered
pair (users[i], users[j]) and the diagonal stays 0.

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

from .model import CO, InvalidInput, Schedule, check_feasibility


def dual_update(trades, mult, rho: float) -> np.ndarray:
    """Closed-form auxiliary update; exactly antisymmetric by construction."""
    p, m = trades, mult
    i, j = np.triu_indices(len(m), 1)
    upper = (rho * (p[i, j] - p[j, i]) - (m[i, j] - m[j, i])) / (2.0 * rho)
    aux = np.zeros_like(m)
    aux[i, j] = upper
    aux[j, i] = -upper
    return aux


def lambda_update(mult, aux, trades, rho: float) -> np.ndarray:
    """Multiplier ascent on the trade disagreement."""
    return mult + rho * (aux - trades)


@dataclass
class ConvergenceReport:
    primal_gap: float
    dual_gap: float
    converged: bool


def convergence(state, prev_mult, eps1: float, eps2: float
                ) -> ConvergenceReport:
    """Trade agreement and multiplier movement of a committed state.

    primal_gap sums the Euclidean norm of aux - trades over every ordered
    pair; dual_gap is the Euclidean norm of the multiplier change from
    prev_mult, stacked over all pairs and slots.  Converged requires both
    below tolerance.  Both sums run over (u, v) then (v, u) for each
    u < v, a fixed order that keeps the gaps identical to the last bit
    from run to run.
    """
    gap = state.aux - state.trades
    moved = state.mult - prev_mult
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

    def __post_init__(self):
        if self.max_iter < 1:  # a run of no rounds has no schedules
            raise InvalidInput(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class TraceRecord:
    """One outer round: gaps, household costs, and the sum and maximum
    over households of that round's ADMM iterations."""

    iteration: int
    primal_gap: float
    dual_gap: float
    costs: dict[str, float]
    inner_iters_sum: int = 0
    inner_iters_max: int = 0


@dataclass
class RunResult:
    schedules: dict[str, Schedule]
    costs: dict[str, float]
    trace: list[TraceRecord]
    iterations: int
    converged: bool
    trade_residual: float
    feasible: bool


def run_decentralized(transport) -> RunResult:
    """Alternate trade exchanges with convergence checks.

    Starts from the transport chain's genesis state, zero multipliers and
    zero auxiliary trades; each exchange runs one round on the chain and
    returns the contract state that round's block committed.  Stops when
    the convergence test passes or cfg.max_iter of the transport's cfg is
    exhausted (the result is then flagged converged=False and carries the
    last iterate).  Either way every household then re-solves its last
    round at the tight tolerance, and the schedules, costs and
    feasibility come from those solves.
    """
    cfg, agents = transport.cfg, transport.agents
    state = transport.chain.state()
    trace: list[TraceRecord] = []
    converged = False
    for _ in range(cfg.max_iter):
        prev_mult = state.mult
        state = transport.exchange()
        rep = convergence(state, prev_mult, cfg.eps1, cfg.eps2)
        inner = [a.iterations for a in agents.values()]
        trace.append(TraceRecord(iteration=state.round,
                                 primal_gap=rep.primal_gap,
                                 dual_gap=rep.dual_gap,
                                 costs={u: a.cost for u, a in agents.items()},
                                 inner_iters_sum=sum(inner),
                                 inner_iters_max=max(inner)))
        if rep.converged:
            converged = True
            break

    for a in agents.values():
        a.finish()
    trades = state.trades
    residual = float(np.max(np.abs(trades + trades.transpose(1, 0, 2))))
    feasible = all(
        check_feasibility(a.schedule, a.profile, a.tariff, CO,
                          trade_cap=transport.trade_cap).ok
        for a in agents.values())
    return RunResult(schedules={u: a.schedule for u, a in agents.items()},
                     costs={u: a.cost for u, a in agents.items()},
                     trace=trace, iterations=state.round,
                     converged=converged, trade_residual=residual,
                     feasible=feasible)
