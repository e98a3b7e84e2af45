"""Per-household problem builders.

Maps a UserProfile onto QpProblem data: the stand-alone problem, the
cooperative trading subproblem (with splitting penalty and multiplier
terms on the trade variables), and the centralized problem over all
households used as the verification oracle.

Variable layout per household, in order: g, r, l_ac, l_fl, c, d, e_fit,
e_dr, e_as (each one slot-vector), the scalar peak epigraph variable,
then one trade vector per peer in sorted peer-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (CO, AcParams, BatteryParams, DimensionError, InvalidInput,
                    Schedule, Tariff, UserProfile, ZERO_CLAMP, cost_breakdown)
from .qp import OPTIMAL, QpProblem, QpSettings, QpSolution, QpSolver

FIELDS = ("g", "r", "l_ac", "l_fl", "c", "d", "e_fit", "e_dr", "e_as")


class BuildError(ValueError):
    """Profile cannot be turned into a well-posed problem."""


class DecodeError(ValueError):
    """Solution cannot be decoded (wrong status or layout mismatch)."""


@dataclass
class DualSlice:
    """The slice of coordination state one household may see.

    aux[v] and mult[v] are this household's auxiliary trade target and
    multiplier toward peer v; rho is the splitting step.
    """

    aux: dict[str, np.ndarray]
    mult: dict[str, np.ndarray]
    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise InvalidInput(f"rho must be positive, got {self.rho}")
        self.aux = {v: np.asarray(a, dtype=float) for v, a in self.aux.items()}
        self.mult = {v: np.asarray(a, dtype=float) for v, a in self.mult.items()}
        if set(self.aux) != set(self.mult):
            raise InvalidInput("aux and mult must cover the same peers")

    @classmethod
    def zeros(cls, peers, horizon: int, rho: float) -> "DualSlice":
        return cls(aux={v: np.zeros(horizon) for v in peers},
                   mult={v: np.zeros(horizon) for v in peers}, rho=rho)


@dataclass
class Layout:
    """Index map from (symbol, slot) to a flat variable vector."""

    horizon: int
    peers: tuple[str, ...] = ()
    offset: int = 0

    @property
    def n(self) -> int:
        return 9 * self.horizon + 1 + len(self.peers) * self.horizon

    def sl(self, name: str) -> slice:
        i = FIELDS.index(name)
        return slice(self.offset + i * self.horizon,
                     self.offset + (i + 1) * self.horizon)

    @property
    def peak(self) -> int:
        return self.offset + 9 * self.horizon

    def trade(self, peer: str) -> slice:
        j = self.peers.index(peer)
        base = self.offset + 9 * self.horizon + 1 + j * self.horizon
        return slice(base, base + self.horizon)


# ---------------------------------------------------------------------------
# affine response maps
# ---------------------------------------------------------------------------

def thermal_response(exo, ac: AcParams):
    """Free trajectory T0 and response matrix M with T = T0 + M @ l_ac.

    Row i of M carries gamma * decay**(i-1-j) for controls j <= i-1; the
    first slot has no control influence.
    """
    tout = np.asarray(exo.t_out, dtype=float)
    H = tout.size
    T0 = np.empty(H)
    prev = ac.t_init
    for i in range(H):
        prev = tout[i] - (tout[i] - prev) * ac.decay
        T0[i] = prev
    M = np.zeros((H, H))
    for i in range(1, H):
        M[i, i - 1] = ac.gamma
        if i >= 2:
            M[i, : i - 1] = M[i - 1, : i - 1] * ac.decay
    return T0, M


def battery_response(bp: BatteryParams, H: int):
    """Lower-triangular maps so that b = b_init + Lc @ c - Ld @ d."""
    tri = np.tril(np.ones((H, H)))
    return bp.eta * tri, tri / bp.eta


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

class _Rows:
    """Accumulates dense constraint rows over n variables."""

    def __init__(self, n):
        self.n = n
        self.rows, self.lo, self.hi = [], [], []

    def add(self, cols, vals, lo, hi):
        row = np.zeros(self.n)
        row[np.asarray(cols, dtype=int)] = vals
        self.rows.append(row)
        self.lo.append(lo)
        self.hi.append(hi)

    def build(self):
        if not self.rows:
            return None
        return (np.vstack(self.rows), np.array(self.lo, dtype=float),
                np.array(self.hi, dtype=float))


def _check_buildable(p: UserProfile, T0):
    lo_sum = float(np.sum(p.flex.lo[:p.horizon]))
    hi_sum = float(np.sum(p.flex.hi[:p.horizon]))
    if not lo_sum - 1e-9 <= p.flex.total <= hi_sum + 1e-9:
        raise BuildError(
            f"user {p.user_id}: flex total {p.flex.total} outside "
            f"[{lo_sum}, {hi_sum}]")
    if not p.ac.t_min - 1e-9 <= T0[0] <= p.ac.t_max + 1e-9:
        raise BuildError(
            f"user {p.user_id}: first-slot temperature {T0[0]:.3f} cannot "
            f"be steered into [{p.ac.t_min}, {p.ac.t_max}]")


def _user_block(p: UserProfile, tariff: Tariff, lay: Layout,
                quad, lin, eqr: _Rows, inr: _Rows,
                trade_cap: float | None):
    """Write one household's objective and constraints into the big arrays.

    Returns the objective constant contributed by this household.
    """
    H = p.horizon
    if tariff.pi_dr.size != H:
        raise DimensionError(
            f"tariff series length {tariff.pi_dr.size} != horizon {H}")
    T0, MT = thermal_response(p.exo, p.ac)
    _check_buildable(p, T0)
    Lc, Ld = battery_response(p.battery, H)

    g, r = lay.sl("g"), lay.sl("r")
    lac, lfl = lay.sl("l_ac"), lay.sl("l_fl")
    c, d = lay.sl("c"), lay.sl("d")
    efit, edr, eas = lay.sl("e_fit"), lay.sl("e_dr"), lay.sl("e_as")
    idx = {k: np.arange(s.start, s.stop) for k, s in
           (("g", g), ("r", r), ("l_ac", lac), ("l_fl", lfl), ("c", c),
            ("d", d), ("e_fit", efit), ("e_dr", edr), ("e_as", eas))}

    # objective: two-part tariff through the peak epigraph variable
    lin[g] += tariff.alpha
    lin[lay.peak] += tariff.beta
    # AC discomfort on the affine temperature response
    dev = T0 - p.ac.tau
    quad[lac, lac.start:lac.stop] += 2.0 * p.ac.omega_ac * (MT.T @ MT)
    lin[lac] += 2.0 * p.ac.omega_ac * (MT.T @ dev)
    const = p.ac.omega_ac * float(dev @ dev)
    # flexible-load discomfort
    ref = p.flex.reference[:H]
    quad[lfl, lfl.start:lfl.stop] += 2.0 * p.flex.omega_fl * np.eye(H)
    lin[lfl] += -2.0 * p.flex.omega_fl * ref
    const += p.flex.omega_fl * float(ref @ ref)
    # battery wear, service rewards
    lin[c] += p.battery.omega_ba
    lin[d] += p.battery.omega_ba
    lin[efit] -= tariff.pi_fit
    lin[edr] -= tariff.pi_dr
    lin[eas] -= tariff.pi_as

    # power balance per slot
    for t in range(H):
        cols = [idx["l_ac"][t], idx["l_fl"][t], idx["c"][t], idx["e_dr"][t],
                idx["r"][t], idx["g"][t], idx["d"][t]]
        vals = [1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
        for v in lay.peers:
            cols.append(lay.trade(v).start + t)
            vals.append(-1.0)
        eqr.add(cols, vals, -p.exo.inflexible[t], -p.exo.inflexible[t])
    # flexible demand must be met over the horizon
    eqr.add(idx["l_fl"], np.ones(H), p.flex.total, p.flex.total)

    # simple bounds
    for t in range(H):
        inr.add([idx["r"][t]], [1.0], 0.0, p.exo.renewable_cap[t])
    for t in range(H):
        inr.add([idx["g"][t]], [1.0], 0.0, p.fuse_limit)
    for t in range(H):
        inr.add([idx["l_ac"][t]], [1.0], 0.0, np.inf)
    for t in range(H):
        inr.add([idx["l_fl"][t]], [1.0], p.flex.lo[t], p.flex.hi[t])
    for t in range(H):
        inr.add([idx["c"][t]], [1.0], 0.0, p.battery.max_charge)
    for t in range(H):
        inr.add([idx["d"][t]], [1.0], 0.0, p.battery.max_discharge)
    for t in range(H):
        inr.add([idx["e_fit"][t]], [1.0], 0.0, np.inf)
    for t in range(H):
        inr.add([idx["e_dr"][t]], [1.0], 0.0, np.inf)
    for t in range(H):
        inr.add([idx["e_as"][t]], [1.0], 0.0, np.inf)
    # temperature window on the affine response
    for t in range(H):
        cols = idx["l_ac"]
        inr.add(cols, MT[t], p.ac.t_min - T0[t], p.ac.t_max - T0[t])
    # battery level window on the cumulative response
    for t in range(H):
        cols = np.concatenate([idx["c"], idx["d"]])
        vals = np.concatenate([Lc[t], -Ld[t]])
        inr.add(cols, vals, -p.battery.b_init,
                p.battery.capacity - p.battery.b_init)
    # feed-in bounded by unused renewable: e_fit + r <= cap
    for t in range(H):
        inr.add([idx["e_fit"][t], idx["r"][t]], [1.0, 1.0],
                -np.inf, p.exo.renewable_cap[t])
    # demand response bounded by grid import: e_dr - g <= 0
    for t in range(H):
        inr.add([idx["e_dr"][t], idx["g"][t]], [1.0, -1.0], -np.inf, 0.0)
    # ancillary bounded by state of charge: e_as - b <= b_init
    for t in range(H):
        cols = np.concatenate([[idx["e_as"][t]], idx["c"], idx["d"]])
        vals = np.concatenate([[1.0], -Lc[t], Ld[t]])
        inr.add(cols, vals, -np.inf, p.battery.b_init)
    # peak epigraph: g - peak <= 0
    for t in range(H):
        inr.add([idx["g"][t], lay.peak], [1.0, -1.0], -np.inf, 0.0)
    # trade box
    if lay.peers and trade_cap is not None:
        for v in lay.peers:
            tr = lay.trade(v)
            for t in range(H):
                inr.add([tr.start + t], [1.0], -trade_cap, trade_cap)
    return const


def build_sa_problem(p: UserProfile, tariff: Tariff):
    """Stand-alone household problem.

    Returns
    -------
    (QpProblem, Layout)
    """
    lay = Layout(horizon=p.horizon)
    n = lay.n
    quad = np.zeros((n, n))
    lin = np.zeros(n)
    eqr, inr = _Rows(n), _Rows(n)
    const = _user_block(p, tariff, lay, quad, lin, eqr, inr, None)
    prob = QpProblem(n=n, quad=quad, lin=lin, eq=eqr.build(),
                     ineq=inr.build(), const=const)
    return prob, lay


def admm_terms(dual: DualSlice, lay: Layout):
    """Linear and constant objective contributions of the coordination state.

    The quadratic part (rho on each trade variable) lives in the base
    problem; this returns what changes between iterations.
    """
    lin = np.zeros(lay.n)
    const = 0.0
    for v in lay.peers:
        a, m = dual.aux[v], dual.mult[v]
        sl = lay.trade(v)
        lin[sl.start - lay.offset:sl.stop - lay.offset] = -dual.rho * a - m
        const += 0.5 * dual.rho * float(a @ a)
    return lin, const


def build_co_primal(p: UserProfile, tariff: Tariff, peers,
                    dual: DualSlice, trade_cap: float | None = None):
    """Cooperative trading subproblem for one household.

    Adds, per peer v and slot t, the trade payment pi_p2p * p_v[t], the
    multiplier term -mult_v[t] * p_v[t], and the splitting penalty
    rho/2 * (aux_v[t] - p_v[t])^2.

    Returns
    -------
    (QpProblem, Layout)
    """
    peers = tuple(sorted(peers))
    if not peers:
        raise BuildError(f"user {p.user_id}: cooperative build needs peers")
    if p.user_id in peers:
        raise BuildError(f"user {p.user_id}: cannot trade with itself")
    missing = [v for v in peers if v not in dual.aux]
    if missing:
        raise BuildError(f"user {p.user_id}: dual slice missing {missing}")
    lay = Layout(horizon=p.horizon, peers=peers)
    n = lay.n
    quad = np.zeros((n, n))
    lin = np.zeros(n)
    eqr, inr = _Rows(n), _Rows(n)
    const = _user_block(p, tariff, lay, quad, lin, eqr, inr, trade_cap)
    for v in peers:
        sl = lay.trade(v)
        quad[np.arange(sl.start, sl.stop),
             np.arange(sl.start, sl.stop)] += dual.rho
        lin[sl] += tariff.pi_p2p
    dlin, dconst = admm_terms(dual, lay)
    lin += dlin
    const += dconst
    prob = QpProblem(n=n, quad=quad, lin=lin, eq=eqr.build(),
                     ineq=inr.build(), const=const)
    return prob, lay


def resolve_trade_cap(trade_cap: float | None, profiles) -> float:
    """The per-pair trade bound; None means the largest fuse limit."""
    if trade_cap is None:
        return max(p.fuse_limit for p in profiles)
    return trade_cap


def build_centralized(profiles, tariff: Tariff,
                      trade_cap: float | None = None):
    """All households in one QP with pairwise trade consistency rows.

    Used as the verification oracle for the decentralized loop.  The trade
    cap defaults to the largest fuse limit among the participants.

    Returns
    -------
    (QpProblem, dict user_id -> Layout)
    """
    profiles = sorted(profiles, key=lambda p: p.user_id)
    ids = [p.user_id for p in profiles]
    if len(ids) != len(set(ids)):
        raise BuildError("duplicate user ids")
    if len(ids) < 2:
        raise BuildError("centralized build needs at least two households")
    H = profiles[0].horizon
    for p in profiles:
        if p.horizon != H:
            raise DimensionError("households disagree on horizon length")
    trade_cap = resolve_trade_cap(trade_cap, profiles)

    layouts = {}
    offset = 0
    for p in profiles:
        peers = tuple(v for v in ids if v != p.user_id)
        layouts[p.user_id] = Layout(horizon=H, peers=peers, offset=offset)
        offset += layouts[p.user_id].n
    n = offset
    quad = np.zeros((n, n))
    lin = np.zeros(n)
    eqr, inr = _Rows(n), _Rows(n)
    const = 0.0
    for p in profiles:
        lay = layouts[p.user_id]
        const += _user_block(p, tariff, lay, quad, lin, eqr, inr, trade_cap)
        for v in lay.peers:
            sl = lay.trade(v)
            lin[sl] += tariff.pi_p2p
    # trade consistency: p_uv + p_vu = 0 for every unordered pair
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            su = layouts[u].trade(v)
            sv = layouts[v].trade(u)
            for t in range(H):
                eqr.add([su.start + t, sv.start + t], [1.0, 1.0], 0.0, 0.0)
    prob = QpProblem(n=n, quad=quad, lin=lin, eq=eqr.build(),
                     ineq=inr.build(), const=const)
    return prob, layouts


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def decode(sol: QpSolution, lay: Layout) -> Schedule:
    """Turn a solved vector back into a Schedule.

    Magnitudes below 1e-10 are clamped to exact zeros.  Raises DecodeError
    unless the solution status is optimal.
    """
    if sol.status != OPTIMAL:
        raise DecodeError(f"cannot decode solution with status {sol.status}")
    x = sol.x
    if x.size < lay.offset + lay.n:
        raise DecodeError("solution vector shorter than layout")

    def clamp(v):
        v = np.array(v, dtype=float)
        v[np.abs(v) < ZERO_CLAMP] = 0.0
        return v

    kw = {f: clamp(x[lay.sl(f)]) for f in FIELDS}
    peak = float(x[lay.peak])
    if abs(peak) < ZERO_CLAMP:
        peak = 0.0
    trades = {v: clamp(x[lay.trade(v)]) for v in lay.peers}
    return Schedule(peak=peak, trades=trades, **kw)


def decode_all(sol: QpSolution, layouts: dict) -> dict:
    """Decode a centralized solution into per-household schedules."""
    return {u: decode(sol, lay) for u, lay in layouts.items()}


# ---------------------------------------------------------------------------
# runtime
# ---------------------------------------------------------------------------

class AgentSolveError(RuntimeError):
    def __init__(self, user, status):
        super().__init__(f"agent {user}: subproblem ended with status {status}")
        self.user = user
        self.status = status


class AgentRuntime:
    """One household's solver state across trading iterations.

    The quadratic part and all constraint rows are fixed over the loop, so
    the splitting factorization is built once; each round only the linear
    term moves and the previous iterates warm start the solve.  Nothing
    but the trade vectors ever leaves this object during the loop.
    """

    def __init__(self, profile: UserProfile, tariff: Tariff, peers, rho,
                 trade_cap, settings=None):
        self.profile = profile
        self.tariff = tariff
        self.user = profile.user_id
        zero = DualSlice.zeros(sorted(peers), profile.horizon, rho)
        self.problem, self.layout = build_co_primal(
            profile, tariff, peers, zero, trade_cap)
        # Polishing every inner solve roughly doubles the wall time of a
        # trading run and moves the iterate path by less than the stopping
        # threshold, so the loop default leaves it off.
        if settings is None:
            settings = QpSettings(polish=False)
        self.solver = QpSolver(self.problem, settings)
        self.schedule: Schedule | None = None
        self.cost: float | None = None
        self.solves = 0

    def solve_round(self, dual: DualSlice) -> dict[str, np.ndarray]:
        """Solve the trading subproblem and return only the trade vectors."""
        dlin, dconst = admm_terms(dual, self.layout)
        sol = self.solver.solve(lin=self.problem.lin + dlin,
                                const=self.problem.const + dconst,
                                warm=self.solves > 0)
        if sol.status != OPTIMAL:
            raise AgentSolveError(self.user, sol.status)
        self.solves += 1
        self.schedule = decode(sol, self.layout)
        self.cost = cost_breakdown(
            self.schedule, self.profile, self.tariff, CO).total
        return {v: self.schedule.trades[v].copy() for v in self.layout.peers}
