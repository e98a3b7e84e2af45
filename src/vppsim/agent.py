"""Per-household problem builders.

Maps a UserProfile onto QpProblem data: the stand-alone problem, the
cooperative trading subproblem, and the centralized problem over all
households used as the verification oracle.  Each builder collects its
problem in one `_Problem`: square objective blocks, the linear term and
constant, and the constraint rows of the QP's single system
lo <= A x <= hi, one row block per constraint family, in emission
order.  It holds only the entries a block touches and builds sparse
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
`Layout.trades` is the one address of a household's trade vectors in
either case.
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


@dataclass
class DualSlice:
    """The slice of coordination state one household may see.

    aux[v] and mult[v] are this household's auxiliary trade target and
    multiplier toward peer v, float64 arrays as the contract's
    `read_dual` gives them; rho is the splitting step.
    """

    aux: dict[str, np.ndarray]
    mult: dict[str, np.ndarray]
    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise InvalidInput(f"rho must be positive, got {self.rho}")
        if set(self.aux) != set(self.mult):
            raise InvalidInput("aux and mult must cover the same peers")


@dataclass
class Layout:
    """Index map from (symbol, slot) to a flat variable vector.

    The layout owns 9 slot-vectors, the peak and one trade vector per
    entry of `peers`, from `offset` on.  `trades` maps each peer to the
    slice and the sign of the vector that holds the household's trade
    toward it; by default these are the layout's own trade vectors.
    """

    horizon: int
    peers: tuple[str, ...] = ()
    offset: int = 0
    trades: dict[str, tuple[slice, float]] | None = None

    def __post_init__(self):
        if self.trades is None:
            H, base = self.horizon, self.peak + 1
            self.trades = {v: (slice(base + j * H, base + (j + 1) * H), 1.0)
                           for j, v in enumerate(self.peers)}

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

class _Problem:
    """Accumulates one QP over n variables: square objective blocks, the
    linear term and constant, and constraint-row blocks in emission
    order.  Only the entries a block touches are held."""

    def __init__(self, n):
        self.n, self.m = n, 0
        self.lin = np.zeros(n)
        self.const = 0.0
        self._quad, self._rows, self._lo, self._hi = [], [], [], []

    def quad(self, sl: slice, block):
        """Add `block` on the variables of `sl`, against themselves."""
        idx = np.arange(sl.start, sl.stop)
        self._quad.append((np.repeat(idx, idx.size), np.tile(idx, idx.size),
                           np.ravel(block)))

    def rows(self, cols, vals, lo, hi):
        """Append one row per row of the 2-D column block `cols`; a 1-D
        `cols` is one row.  `vals`, `lo` and `hi` broadcast against it."""
        cols, vals = np.broadcast_arrays(np.atleast_2d(cols), vals)
        k, w = cols.shape
        self._rows.append((np.repeat(np.arange(self.m, self.m + k), w),
                           cols.ravel(), vals.ravel()))
        self._lo.append(np.broadcast_to(lo, k))
        self._hi.append(np.broadcast_to(hi, k))
        self.m += k

    def build(self) -> QpProblem:
        def coo(parts, shape):
            r, c, v = map(np.concatenate, zip(*parts))
            return sp.coo_array((v, (r, c)), shape=shape)

        A = coo(self._rows, (self.m, self.n))
        return QpProblem(n=self.n, quad=coo(self._quad, (self.n, self.n)),
                         lin=self.lin, const=self.const,
                         rows=(A, np.concatenate(self._lo),
                               np.concatenate(self._hi)))


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


def _user_block(p: UserProfile, tariff: Tariff, lay: Layout, prob: _Problem):
    """Write one household's objective and constraints into `prob`, one
    row block per constraint family; its power balance reads the trade
    vectors that `lay.trades` names."""
    H = p.horizon
    if tariff.pi_dr.size != H:
        raise DimensionError(
            f"tariff series length {tariff.pi_dr.size} != horizon {H}")
    T0, MT = thermal_response(p.exo, p.ac)
    _check_buildable(p, T0)
    Lc, Ld = battery_response(p.battery, H)
    idx = dict(zip(SLOT_FIELDS,
                   np.arange(lay.offset, lay.peak).reshape(-1, H)))
    lin = prob.lin

    # objective: two-part tariff through the peak epigraph variable
    lin[lay.sl("g")] += tariff.alpha
    lin[lay.peak] += tariff.beta
    # AC discomfort on the affine temperature response
    dev = T0 - p.ac.tau
    prob.quad(lay.sl("l_ac"), 2.0 * p.ac.omega_ac * (MT.T @ MT))
    lin[lay.sl("l_ac")] += 2.0 * p.ac.omega_ac * (MT.T @ dev)
    # flexible-load discomfort
    ref = p.flex.reference[:H]
    prob.quad(lay.sl("l_fl"), 2.0 * p.flex.omega_fl * np.eye(H))
    lin[lay.sl("l_fl")] += -2.0 * p.flex.omega_fl * ref
    prob.const += (p.ac.omega_ac * float(dev @ dev)
                   + p.flex.omega_fl * float(ref @ ref))
    # battery wear, service rewards
    lin[lay.sl("c")] += p.battery.omega_ba
    lin[lay.sl("d")] += p.battery.omega_ba
    lin[lay.sl("e_fit")] -= tariff.pi_fit
    lin[lay.sl("e_dr")] -= tariff.pi_dr
    lin[lay.sl("e_as")] -= tariff.pi_as

    # power balance per slot
    balance = ("l_ac", "l_fl", "c", "e_dr", "r", "g", "d")
    prob.rows(np.column_stack([idx[k] for k in balance]
                              + [np.arange(sl.start, sl.stop)
                                 for sl, _ in lay.trades.values()]),
              [1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
              + [-sign for _, sign in lay.trades.values()],
              -p.exo.inflexible, -p.exo.inflexible)
    # flexible demand must be met over the horizon
    prob.rows(idx["l_fl"], 1.0, p.flex.total, p.flex.total)
    # simple bounds, one variable per row
    bounds = (("r", 0.0, p.exo.renewable_cap), ("g", 0.0, p.fuse_limit),
              ("l_ac", 0.0, np.inf), ("l_fl", p.flex.lo, p.flex.hi),
              ("c", 0.0, p.battery.max_charge),
              ("d", 0.0, p.battery.max_discharge),
              ("e_fit", 0.0, np.inf), ("e_dr", 0.0, np.inf),
              ("e_as", 0.0, np.inf))
    names, lo, hi = zip(*bounds)
    prob.rows(np.concatenate([idx[k] for k in names])[:, None], 1.0,
              np.concatenate([np.broadcast_to(b, H) for b in lo]),
              np.concatenate([np.broadcast_to(b, H) for b in hi]))
    # temperature window on the affine response; MT[0] is zero, so the
    # first slot's window is the bound _check_buildable already enforced
    prob.rows(idx["l_ac"], MT[1:], p.ac.t_min - T0[1:], p.ac.t_max - T0[1:])
    # battery level window on the cumulative response
    cd = np.concatenate([idx["c"], idx["d"]])
    prob.rows(cd, np.hstack([Lc, -Ld]), -p.battery.b_init,
              p.battery.capacity - p.battery.b_init)
    # feed-in bounded by unused renewable: e_fit + r <= cap
    prob.rows(np.column_stack([idx["e_fit"], idx["r"]]), 1.0, -np.inf,
              p.exo.renewable_cap)
    # demand response bounded by grid import: e_dr - g <= 0
    prob.rows(np.column_stack([idx["e_dr"], idx["g"]]), [1.0, -1.0],
              -np.inf, 0.0)
    # ancillary bounded by state of charge: e_as - b <= b_init
    prob.rows(np.column_stack([idx["e_as"], np.tile(cd, (H, 1))]),
              np.column_stack([np.ones(H), -Lc, Ld]), -np.inf,
              p.battery.b_init)
    # peak epigraph: g - peak <= 0
    prob.rows(np.column_stack([idx["g"], np.full(H, lay.peak)]), [1.0, -1.0],
              -np.inf, 0.0)


def build_sa_problem(p: UserProfile, tariff: Tariff):
    """Stand-alone household problem.

    Returns
    -------
    (QpProblem, Layout)
    """
    lay = Layout(horizon=p.horizon)
    prob = _Problem(lay.n)
    _user_block(p, tariff, lay, prob)
    return prob.build(), lay


def admm_terms(dual: DualSlice, lay: Layout):
    """Linear and constant objective contributions of the coordination state.

    The only place the dual slice enters a household's objective: per
    peer v, -(rho * aux_v + mult_v)' p_v + rho/2 * |aux_v|^2.  With the
    base problem's rho/2 * |p_v|^2 this is the splitting penalty
    rho/2 * |aux_v - p_v|^2 plus the multiplier term -mult_v' p_v.
    `lay` is a trading subproblem's layout, which owns its trade vectors.
    """
    lin = np.zeros(lay.n)
    const = 0.0
    for v, (sl, _) in lay.trades.items():
        a, m = dual.aux[v], dual.mult[v]
        lin[sl] = -dual.rho * a - m
        const += 0.5 * dual.rho * float(a @ a)
    return lin, const


def build_co_primal(p: UserProfile, tariff: Tariff, peers, rho: float,
                    trade_cap: float):
    """Cooperative trading subproblem for one household, dual-free.

    Adds, per peer v and slot t, the trade payment pi_p2p * p_v[t], the
    fixed quadratic part rho/2 * p_v[t]^2 of the splitting penalty and
    the trade box |p_v[t]| <= trade_cap; the terms that move with the
    coordination state come from `admm_terms`.

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
    prob = _Problem(lay.n)
    _user_block(p, tariff, lay, prob)
    # the trade vectors follow the peak
    trade = slice(lay.peak + 1, lay.n)
    prob.rows(np.arange(trade.start, trade.stop)[:, None], 1.0, -trade_cap,
              trade_cap)
    prob.quad(trade, rho * np.eye(trade.stop - trade.start))
    prob.lin[trade] += tariff.pi_p2p
    return prob.build(), lay


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
    (QpProblem, dict user_id -> Layout), each layout's `trades` naming
    the pair vectors and signs of the household's trades; `decode_all`
    reads them.
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
    trades = {u: {} for u in ids}
    first = n = own * len(ids)
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            sl = slice(n, n + H)
            trades[u][v], trades[v][u] = (sl, 1.0), (sl, -1.0)
            n += H
    layouts = {u: Layout(horizon=H, offset=i * own, trades=trades[u])
               for i, u in enumerate(ids)}
    prob = _Problem(n)
    for p in profiles:
        _user_block(p, tariff, layouts[p.user_id], prob)
    # one trade box per pair and slot
    prob.rows(np.arange(first, n)[:, None], 1.0, -trade_cap, trade_cap)
    return prob.build(), layouts


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def decode(sol: QpSolution, lay: Layout) -> Schedule:
    """Turn a solved vector back into a Schedule.

    Each trade vector is read from where `lay.trades` places it, with its
    sign.  Magnitudes below 1e-10 are clamped to exact zeros, after the
    sign, so no decoded vector holds a -0.0.  Raises DecodeError unless
    the solution status is optimal.
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
    return Schedule(peak=peak, trades={
        v: clamp(sign * x[sl]) for v, (sl, sign) in lay.trades.items()}, **kw)


def decode_all(sol: QpSolution, layouts: dict) -> dict:
    """Decode a centralized solution into per-household schedules, each
    with its signed trade vectors."""
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
        return {v: vec.copy() for v, vec in self.schedule.trades.items()}

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
