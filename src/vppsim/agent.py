"""Per-household problem builders.

Maps a UserProfile onto QpProblem data: the stand-alone problem, the
cooperative trading subproblem, and the centralized problem over all
households used as the verification oracle.  Each builder writes its
constraints into one `_Rows` list, in emission order, as the QP's single
system lo <= A x <= hi, and its objective blocks into a `_Quad`; both
hold only the entries a row or block touches and build sparse CSR
matrices, so no builder allocates a dense constraint matrix.  The
cooperative build is dual-free: it carries the splitting penalty's
fixed quadratic part, and the coordination state (auxiliary trades and
multipliers) enters the objective only through `admm_terms`, once per
trading round.  `AgentRuntime` solves those rounds at the loose
LOOP_TOL and, once the loop ends, re-solves the last round at qp.TOL,
so the schedule and cost it reports rest on a tight solve.

Variable layout per household, in order: g, r, l_ac, l_fl, c, d, e_fit,
e_dr, e_as (each one slot-vector), the scalar peak epigraph variable,
then, in the trading subproblem, one trade vector per peer in sorted
peer-id order.  The centralized problem gives each household its own
block without trade vectors and each household pair one shared trade
vector, which the lower id reads as it is and the higher id negated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import (CO, SLOT_FIELDS, AcParams, BatteryParams, DimensionError,
                    InvalidInput, Schedule, Tariff, UserProfile, ZERO_CLAMP,
                    cost_breakdown)
from .qp import OPTIMAL, TOL, QpProblem, QpSettings, QpSolution, QpSolver

# Stopping tolerance of the per-round trading solves.  The outer
# convergence test, not the inner tolerance, decides when the loop ends,
# and `AgentRuntime.finish` re-solves the last round at TOL; inexact
# subproblem solves of this kind keep ADMM convergent (Eckstein and
# Bertsekas, Math. Prog. 1992).  A fixed 1e-4 ran faster than 1e-5 or
# 1e-6, at 3 and at 10 households.
LOOP_TOL = 1e-4


class BuildError(ValueError):
    """Profile cannot be turned into a well-posed problem."""


class DecodeError(ValueError):
    """Solution cannot be decoded (wrong status or layout mismatch)."""


_F8 = np.dtype(np.float64)


def _float_vectors(vectors: dict) -> dict:
    """vectors with float arrays as values; a map that holds float64
    arrays only, as the contract's `read_dual` gives, is kept as it is."""
    if all(type(a) is np.ndarray and a.dtype == _F8
           for a in vectors.values()):
        return vectors
    return {v: np.asarray(a, dtype=float) for v, a in vectors.items()}


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
        self.aux = _float_vectors(self.aux)
        self.mult = _float_vectors(self.mult)
        if set(self.aux) != set(self.mult):
            raise InvalidInput("aux and mult must cover the same peers")


@dataclass
class Layout:
    """Index map from (symbol, slot) to a flat variable vector."""

    horizon: int
    peers: tuple[str, ...] = ()
    offset: int = 0

    @property
    def n(self) -> int:
        return (len(SLOT_FIELDS) + len(self.peers)) * self.horizon + 1

    def sl(self, name: str) -> slice:
        i = SLOT_FIELDS.index(name)
        return slice(self.offset + i * self.horizon,
                     self.offset + (i + 1) * self.horizon)

    @property
    def peak(self) -> int:
        return self.offset + len(SLOT_FIELDS) * self.horizon

    def trade(self, peer: str) -> slice:
        j = self.peers.index(peer)
        base = self.offset + (len(SLOT_FIELDS) + j) * self.horizon + 1
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
    """Accumulates sparse constraint rows over n variables, in order."""

    def __init__(self, n):
        self.n = n
        self.cols, self.vals, self.lo, self.hi = [], [], [], []

    def add(self, cols, vals, lo, hi):
        self.cols.append(np.asarray(cols, dtype=int))
        self.vals.append(np.asarray(vals, dtype=float))
        self.lo.append(lo)
        self.hi.append(hi)

    def build(self):
        """(A, lo, hi) with A in CSR, one row per `add` call."""
        indptr = np.cumsum([0] + [c.size for c in self.cols])
        A = sp.csr_array((np.concatenate(self.vals),
                          np.concatenate(self.cols), indptr),
                         shape=(len(self.lo), self.n))
        return (A, np.array(self.lo, dtype=float),
                np.array(self.hi, dtype=float))


class _Quad:
    """Accumulates square blocks of the objective matrix over n variables."""

    def __init__(self, n):
        self.n = n
        self.rows, self.cols, self.vals = [], [], []

    def add(self, sl: slice, block):
        """Add `block` on the variables of `sl`, against themselves."""
        idx = np.arange(sl.start, sl.stop)
        self.rows.append(np.repeat(idx, idx.size))
        self.cols.append(np.tile(idx, idx.size))
        self.vals.append(np.ravel(block))

    def build(self):
        """The CSR matrix; blocks that overlap add."""
        return sp.csr_array((np.concatenate(self.vals),
                             (np.concatenate(self.rows),
                              np.concatenate(self.cols))),
                            shape=(self.n, self.n))


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
                quad: _Quad, lin, rows: _Rows, trade_cap: float | None,
                trades: dict | None = None):
    """Write one household's objective and constraints into the accumulators.

    `trades` maps each peer to the slice and the sign of the household's
    trade vector toward it; None means the layout's own trade vectors.
    Returns the objective constant contributed by this household.
    """
    H = p.horizon
    if trades is None:
        trades = {v: (lay.trade(v), 1.0) for v in lay.peers}
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
    idx = {k: np.arange(lay.sl(k).start, lay.sl(k).stop) for k in SLOT_FIELDS}

    # objective: two-part tariff through the peak epigraph variable
    lin[g] += tariff.alpha
    lin[lay.peak] += tariff.beta
    # AC discomfort on the affine temperature response
    dev = T0 - p.ac.tau
    quad.add(lac, 2.0 * p.ac.omega_ac * (MT.T @ MT))
    lin[lac] += 2.0 * p.ac.omega_ac * (MT.T @ dev)
    const = p.ac.omega_ac * float(dev @ dev)
    # flexible-load discomfort
    ref = p.flex.reference[:H]
    quad.add(lfl, 2.0 * p.flex.omega_fl * np.eye(H))
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
        for sl, sign in trades.values():
            cols.append(sl.start + t)
            vals.append(-sign)
        rows.add(cols, vals, -p.exo.inflexible[t], -p.exo.inflexible[t])
    # flexible demand must be met over the horizon
    rows.add(idx["l_fl"], np.ones(H), p.flex.total, p.flex.total)

    # simple bounds, one variable per row
    zero, inf = np.zeros(H), np.full(H, np.inf)
    bounds = (("r", zero, p.exo.renewable_cap),
              ("g", zero, np.full(H, p.fuse_limit)),
              ("l_ac", zero, inf),
              ("l_fl", p.flex.lo, p.flex.hi),
              ("c", zero, np.full(H, p.battery.max_charge)),
              ("d", zero, np.full(H, p.battery.max_discharge)),
              ("e_fit", zero, inf), ("e_dr", zero, inf), ("e_as", zero, inf))
    for name, lo, hi in bounds:
        for t in range(H):
            rows.add([idx[name][t]], [1.0], lo[t], hi[t])
    # temperature window on the affine response; MT[0] is zero, so the
    # first slot's window is the bound _check_buildable already enforced
    for t in range(1, H):
        rows.add(idx["l_ac"], MT[t], p.ac.t_min - T0[t], p.ac.t_max - T0[t])
    # battery level window on the cumulative response
    for t in range(H):
        cols = np.concatenate([idx["c"], idx["d"]])
        vals = np.concatenate([Lc[t], -Ld[t]])
        rows.add(cols, vals, -p.battery.b_init,
                p.battery.capacity - p.battery.b_init)
    # feed-in bounded by unused renewable: e_fit + r <= cap
    for t in range(H):
        rows.add([idx["e_fit"][t], idx["r"][t]], [1.0, 1.0],
                -np.inf, p.exo.renewable_cap[t])
    # demand response bounded by grid import: e_dr - g <= 0
    for t in range(H):
        rows.add([idx["e_dr"][t], idx["g"][t]], [1.0, -1.0], -np.inf, 0.0)
    # ancillary bounded by state of charge: e_as - b <= b_init
    for t in range(H):
        cols = np.concatenate([[idx["e_as"][t]], idx["c"], idx["d"]])
        vals = np.concatenate([[1.0], -Lc[t], Ld[t]])
        rows.add(cols, vals, -np.inf, p.battery.b_init)
    # peak epigraph: g - peak <= 0
    for t in range(H):
        rows.add([idx["g"][t], lay.peak], [1.0, -1.0], -np.inf, 0.0)
    # trade box
    if lay.peers and trade_cap is not None:
        for v in lay.peers:
            tr = lay.trade(v)
            for t in range(H):
                rows.add([tr.start + t], [1.0], -trade_cap, trade_cap)
    return const


def build_sa_problem(p: UserProfile, tariff: Tariff):
    """Stand-alone household problem.

    Returns
    -------
    (QpProblem, Layout)
    """
    lay = Layout(horizon=p.horizon)
    n = lay.n
    quad = _Quad(n)
    lin = np.zeros(n)
    rows = _Rows(n)
    const = _user_block(p, tariff, lay, quad, lin, rows, None)
    prob = QpProblem(n=n, quad=quad.build(), lin=lin, rows=rows.build(),
                     const=const)
    return prob, lay


def admm_terms(dual: DualSlice, lay: Layout):
    """Linear and constant objective contributions of the coordination state.

    The only place the dual slice enters a household's objective: per
    peer v, -(rho * aux_v + mult_v)' p_v + rho/2 * |aux_v|^2.  With the
    base problem's rho/2 * |p_v|^2 this is the splitting penalty
    rho/2 * |aux_v - p_v|^2 plus the multiplier term -mult_v' p_v.
    """
    lin = np.zeros(lay.n)
    const = 0.0
    for v in lay.peers:
        a, m = dual.aux[v], dual.mult[v]
        sl = lay.trade(v)
        lin[sl.start - lay.offset:sl.stop - lay.offset] = -dual.rho * a - m
        const += 0.5 * dual.rho * float(a @ a)
    return lin, const


def build_co_primal(p: UserProfile, tariff: Tariff, peers, rho: float,
                    trade_cap: float | None = None):
    """Cooperative trading subproblem for one household, dual-free.

    Adds, per peer v and slot t, the trade payment pi_p2p * p_v[t] and the
    fixed quadratic part rho/2 * p_v[t]^2 of the splitting penalty; the
    terms that move with the coordination state come from `admm_terms`.

    Returns
    -------
    (QpProblem, Layout)
    """
    peers = tuple(sorted(peers))
    if not peers:
        raise BuildError(f"user {p.user_id}: cooperative build needs peers")
    if p.user_id in peers:
        raise BuildError(f"user {p.user_id}: cannot trade with itself")
    if rho <= 0:
        raise InvalidInput(f"rho must be positive, got {rho}")
    lay = Layout(horizon=p.horizon, peers=peers)
    n = lay.n
    quad = _Quad(n)
    lin = np.zeros(n)
    rows = _Rows(n)
    const = _user_block(p, tariff, lay, quad, lin, rows, trade_cap)
    for v in peers:
        sl = lay.trade(v)
        quad.add(sl, rho * np.eye(p.horizon))
        lin[sl] += tariff.pi_p2p
    prob = QpProblem(n=n, quad=quad.build(), lin=lin, rows=rows.build(),
                     const=const)
    return prob, lay


def resolve_trade_cap(trade_cap: float | None, profiles) -> float:
    """The per-pair trade bound; None means the largest fuse limit."""
    if trade_cap is None:
        return max(p.fuse_limit for p in profiles)
    return trade_cap


def build_centralized(profiles, tariff: Tariff,
                      trade_cap: float | None = None):
    """All households in one QP, one trade vector per household pair.

    Used as the verification oracle for the decentralized loop.  Each
    unordered pair {u, v}, u < v, shares one vector p: household u's
    trade toward v is p and household v's is -p, so trade consistency
    holds by construction.  The pairwise form's consistency rows
    p_uv + p_vu = 0 are eliminated by substitution (Andersen and
    Andersen, Math. Prog. 1995), and with them the second trade box of
    each pair (-p has the same box as p) and the trade payments, which
    cancel within a pair.  The trade cap defaults to the largest fuse
    limit among the participants.

    Variables: every household's own block (Layout without peers) in
    user-id order, then the pair vectors in (u, v) order.

    Returns
    -------
    (QpProblem, dict user_id -> (Layout, trades)), where trades maps
    each peer to the slice and the sign of the pair vector that holds
    the household's trade toward it; `decode_all` reads it.
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

    own = Layout(horizon=H).n
    layouts = {u: Layout(horizon=H, offset=i * own)
               for i, u in enumerate(ids)}
    trades = {u: {} for u in ids}
    first = n = own * len(ids)
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            sl = slice(n, n + H)
            trades[u][v], trades[v][u] = (sl, 1.0), (sl, -1.0)
            n += H
    quad = _Quad(n)
    lin = np.zeros(n)
    rows = _Rows(n)
    const = 0.0
    for p in profiles:
        u = p.user_id
        const += _user_block(p, tariff, layouts[u], quad, lin, rows, None,
                             trades[u])
    # one trade box per pair and slot
    for j in range(first, n):
        rows.add([j], [1.0], -trade_cap, trade_cap)
    prob = QpProblem(n=n, quad=quad.build(), lin=lin, rows=rows.build(),
                     const=const)
    return prob, {u: (layouts[u], trades[u]) for u in ids}


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def decode(sol: QpSolution, lay: Layout, trades: dict | None = None
           ) -> Schedule:
    """Turn a solved vector back into a Schedule.

    `trades` maps each peer to the slice and the sign of the vector that
    holds the household's trade toward it, as `build_centralized` gives
    them; None reads the layout's own trade vectors.  Magnitudes below
    1e-10 are clamped to exact zeros, after the sign, so no decoded
    vector holds a -0.0.  Raises DecodeError unless the solution status
    is optimal.
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

    kw = {f: clamp(x[lay.sl(f)]) for f in SLOT_FIELDS}
    peak = float(x[lay.peak])
    if abs(peak) < ZERO_CLAMP:
        peak = 0.0
    if trades is None:
        trades = {v: (lay.trade(v), 1.0) for v in lay.peers}
    return Schedule(peak=peak, trades={
        v: clamp(sign * x[sl]) for v, (sl, sign) in trades.items()}, **kw)


def decode_all(sol: QpSolution, layouts: dict) -> dict:
    """Decode a centralized solution into per-household schedules, each
    with its signed trade vectors."""
    return {u: decode(sol, lay, trades)
            for u, (lay, trades) in layouts.items()}


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
    term moves and the previous iterates warm start the solve.  Rounds
    are solved at LOOP_TOL; `finish` re-solves the last round at TOL.
    Nothing but the trade vectors ever leaves this object during the loop.
    """

    def __init__(self, profile: UserProfile, tariff: Tariff, peers, rho,
                 trade_cap):
        self.profile = profile
        self.tariff = tariff
        self.user = profile.user_id
        self.problem, self.layout = build_co_primal(
            profile, tariff, peers, rho, trade_cap)
        # Polishing every inner solve roughly doubles the wall time of a
        # trading run and moves the iterate path by less than the stopping
        # threshold, so the loop leaves it off.
        self.solver = QpSolver(self.problem, QpSettings(polish=False))
        self.schedule: Schedule | None = None
        self.cost: float | None = None
        self.solves = 0
        self.iterations = 0     # ADMM iterations of the last solve
        self._terms = None      # (lin, const) of the last round

    def solve_round(self, dual: DualSlice) -> dict[str, np.ndarray]:
        """Solve the trading subproblem and return only the trade vectors."""
        dlin, dconst = admm_terms(dual, self.layout)
        self._terms = (self.problem.lin + dlin, self.problem.const + dconst)
        self._solve(LOOP_TOL)
        return {v: self.schedule.trades[v].copy() for v in self.layout.peers}

    def finish(self):
        """Re-solve the last round at TOL, warm, and decode from that solve."""
        self._solve(TOL)

    def _solve(self, tol):
        lin, const = self._terms
        sol = self.solver.solve(lin=lin, const=const, warm=self.solves > 0,
                                tol=tol)
        if sol.status != OPTIMAL:
            raise AgentSolveError(self.user, sol.status)
        self.solves += 1
        self.iterations = sol.iterations
        self.schedule = decode(sol, self.layout)
        self.cost = cost_breakdown(
            self.schedule, self.profile, self.tariff, CO).total
