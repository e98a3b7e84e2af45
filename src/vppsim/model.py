"""Household energy model: domain types, physical trajectories, cost
accounting, and feasibility checking.

Each household runs an HVAC unit against a first-order thermal model, a
flexible appliance block, a battery, local renewables, and three grid
services (feed-in, demand response, ancillary).  Costs combine a two-part
grid tariff (volumetric plus peak charge), quadratic discomfort terms,
linear battery wear, and peer-to-peer trade payments.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

# schedule operating modes
SA = "sa"  # stand-alone: no peer trades
CO = "co"  # cooperative: peer trades allowed

# decoded magnitudes below this are treated as exact zeros
ZERO_CLAMP = 1e-10

_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")

# the per-slot vectors of a Schedule, in the order of the household
# problem's variable layout and of the schedule CSV columns
SLOT_FIELDS = ("g", "r", "l_ac", "l_fl", "c", "d", "e_fit", "e_dr", "e_as")


class DimensionError(ValueError):
    """Vector lengths disagree with the horizon or with each other."""


class InvalidInput(ValueError):
    """Semantically invalid value (mode mismatch, bad parameter, ...)."""


def _vec(x, name, length=None):
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionError(f"{name}: expected 1-D vector, got shape {v.shape}")
    if length is not None and v.size != length:
        raise DimensionError(f"{name}: expected length {length}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{name}: values must be finite")
    return v


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class Horizon:
    """Scheduling horizon: `slots` one-hour periods (one day)."""

    slots: int = 24

    def __post_init__(self):
        if self.slots < 1:
            raise InvalidInput(f"horizon needs at least one slot, got {self.slots}")


@dataclass
class Tariff:
    """Prices seen by every household.

    alpha   volumetric grid price per kWh imported
    beta    peak charge applied to the maximum import over the horizon,
            must exceed alpha for the two-part tariff to bite
    pi_p2p  uniform peer-to-peer trade price
    pi_fit  feed-in price for exported renewable surplus
    pi_dr   per-slot demand-response reward
    pi_as   per-slot ancillary-service reward
    """

    alpha: float
    beta: float
    pi_p2p: float
    pi_fit: float
    pi_dr: np.ndarray
    pi_as: np.ndarray

    def __post_init__(self):
        self.pi_dr = _vec(self.pi_dr, "pi_dr")
        self.pi_as = _vec(self.pi_as, "pi_as", length=self.pi_dr.size)
        for name in ("alpha", "beta", "pi_p2p", "pi_fit"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"tariff.{name} must be nonnegative")
        if np.any(self.pi_dr < 0) or np.any(self.pi_as < 0):
            raise InvalidInput("service rewards must be nonnegative")
        if self.beta <= self.alpha:
            raise InvalidInput(
                f"peak charge beta={self.beta} must exceed alpha={self.alpha}")
        if self.pi_p2p >= self.alpha:
            # trading priced at or above grid should kill all trades rather
            # than be rejected outright, so this is a warning only
            warnings.warn(
                f"pi_p2p={self.pi_p2p} >= alpha={self.alpha}: "
                "peer trading cannot undercut the grid", UserWarning)


@dataclass
class AcParams:
    """First-order HVAC model parameters.

    The room tracks outdoor temperature with retention factor `decay`
    (default exp(-1/(r_thermal*c_thermal))) and responds to the previous
    slot's AC energy with gain `gamma` (negative when cooling).
    """

    r_thermal: float
    c_thermal: float
    gamma: float
    tau: float
    t_min: float
    t_max: float
    omega_ac: float
    t_init: float
    decay: float | None = None

    def __post_init__(self):
        if self.r_thermal <= 0 or self.c_thermal <= 0:
            raise InvalidInput("thermal resistance and capacitance must be positive")
        if self.decay is None:
            self.decay = math.exp(-1.0 / (self.r_thermal * self.c_thermal))
        if not 0.0 <= self.decay < 1.0:
            raise InvalidInput(f"decay must lie in [0, 1), got {self.decay}")
        if self.t_min > self.t_max:
            raise InvalidInput(f"t_min={self.t_min} exceeds t_max={self.t_max}")
        if self.omega_ac < 0:
            raise InvalidInput("omega_ac must be nonnegative")


@dataclass
class FlexParams:
    """Flexible appliance block: fixed daily demand, movable across slots."""

    total: float
    reference: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    omega_fl: float

    def __post_init__(self):
        self.reference = _vec(self.reference, "flex.reference")
        n = self.reference.size
        self.lo = _vec(self.lo, "flex.lo", length=n)
        self.hi = _vec(self.hi, "flex.hi", length=n)
        if self.total < 0 or self.omega_fl < 0:
            raise InvalidInput("flex total and omega_fl must be nonnegative")
        if np.any(self.lo < 0):
            raise InvalidInput("flex.lo must be nonnegative")
        if np.any(self.lo > self.hi):
            raise InvalidInput("flex.lo exceeds flex.hi somewhere")


@dataclass
class BatteryParams:
    """Battery with one-way efficiency eta and linear wear cost."""

    capacity: float
    max_charge: float
    max_discharge: float
    eta: float
    omega_ba: float
    b_init: float | None = None

    def __post_init__(self):
        if self.capacity < 0 or self.max_charge < 0 or self.max_discharge < 0:
            raise InvalidInput("battery sizes must be nonnegative")
        if not 0.0 < self.eta <= 1.0:
            raise InvalidInput(f"eta must lie in (0, 1], got {self.eta}")
        if self.omega_ba < 0:
            raise InvalidInput("omega_ba must be nonnegative")
        if self.b_init is None:
            self.b_init = 0.5 * self.capacity
        if not 0.0 <= self.b_init <= self.capacity:
            raise InvalidInput(
                f"b_init={self.b_init} outside [0, {self.capacity}]")


@dataclass
class ExogenousSeries:
    """Per-slot data a household cannot control."""

    renewable_cap: np.ndarray
    t_out: np.ndarray
    inflexible: np.ndarray

    def __post_init__(self):
        self.renewable_cap = _vec(self.renewable_cap, "renewable_cap")
        n = self.renewable_cap.size
        self.t_out = _vec(self.t_out, "t_out", length=n)
        self.inflexible = _vec(self.inflexible, "inflexible", length=n)
        if np.any(self.renewable_cap < 0):
            raise InvalidInput("renewable_cap must be nonnegative")
        if np.any(self.inflexible < 0):
            raise InvalidInput("inflexible load must be nonnegative")


@dataclass
class UserProfile:
    """One household: identity, fuse limit, device parameters, exogenous data."""

    user_id: str
    fuse_limit: float
    ac: AcParams
    flex: FlexParams
    battery: BatteryParams
    exo: ExogenousSeries

    def __post_init__(self):
        if not _ID_RE.match(self.user_id):
            raise InvalidInput(
                f"user id {self.user_id!r} must match [A-Za-z0-9_-]+")
        if self.fuse_limit <= 0:
            raise InvalidInput("fuse_limit must be positive")
        n = self.exo.renewable_cap.size
        if self.flex.reference.size != n:
            raise DimensionError(
                f"user {self.user_id}: flex series length "
                f"{self.flex.reference.size} != exogenous length {n}")

    @property
    def horizon(self) -> int:
        return self.exo.renewable_cap.size


@dataclass
class Schedule:
    """One household's decision over the horizon.

    All per-slot vectors are nonnegative; `trades[v][t]` is the energy
    bought from peer v at slot t (negative when selling).  `peak` is the
    epigraph value of the maximum grid import.
    """

    g: np.ndarray       # grid import
    r: np.ndarray       # renewable used locally
    l_ac: np.ndarray    # AC energy
    l_fl: np.ndarray    # flexible appliance energy
    c: np.ndarray       # battery charge
    d: np.ndarray       # battery discharge
    e_fit: np.ndarray   # renewable surplus exported at feed-in price
    e_dr: np.ndarray    # demand-response quantity
    e_as: np.ndarray    # ancillary-service quantity
    peak: float = 0.0
    trades: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.g = _vec(self.g, "g")
        n = self.g.size
        for name in SLOT_FIELDS[1:]:
            setattr(self, name, _vec(getattr(self, name), name, length=n))
        self.trades = {v: _vec(p, f"trades[{v}]", length=n)
                       for v, p in self.trades.items()}

    @property
    def horizon(self) -> int:
        return self.g.size

    def net_trade(self) -> np.ndarray:
        out = np.zeros(self.horizon)
        for p in self.trades.values():
            out = out + p
        return out


@dataclass
class CostBreakdown:
    """Cost components; rewards are stored positive and subtracted in total."""

    grid: float
    ac: float
    flex: float
    battery: float
    p2p: float
    fit: float
    dr: float
    anc: float

    @property
    def total(self) -> float:
        return (self.grid + self.ac + self.flex + self.battery + self.p2p
                - self.fit - self.dr - self.anc)


@dataclass
class Violation:
    constraint: str
    slot: int | None
    amount: float


@dataclass
class ViolationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "feasible"
        lines = [f"{v.constraint}[{v.slot}] violated by {v.amount:.3e}"
                 for v in self.violations]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def thermal_trajectory(l_ac, exo: ExogenousSeries, ac: AcParams) -> np.ndarray:
    """Indoor temperature under the first-order HVAC model.

    T[t] = t_out[t] - (t_out[t] - T[t-1]) * decay + gamma * l_ac[t-1]

    with T[0] = ac.t_init; the control of the slot before the horizon is
    taken as zero, so the first slot sees no AC contribution.

    Parameters
    ----------
    l_ac : array_like
        AC energy per slot.
    exo : ExogenousSeries
        Supplies the outdoor temperature series.
    ac : AcParams

    Returns
    -------
    ndarray
        Indoor temperature for every slot of the horizon.
    """
    l = _vec(l_ac, "l_ac")
    tout = _vec(exo.t_out, "t_out", length=l.size)
    T = np.empty(l.size)
    prev = ac.t_init
    for i in range(l.size):
        drive = ac.gamma * l[i - 1] if i > 0 else 0.0
        prev = tout[i] - (tout[i] - prev) * ac.decay + drive
        T[i] = prev
    return T


def battery_trajectory(c, d, bp: BatteryParams) -> np.ndarray:
    """State of charge under one-way efficiency eta.

    b[t] = b[t-1] + eta * c[t] - d[t] / eta, with b[0] = bp.b_init.

    Returns
    -------
    ndarray
        State of charge after every slot.
    """
    cv = _vec(c, "c")
    dv = _vec(d, "d", length=cv.size)
    return bp.b_init + np.cumsum(bp.eta * cv - dv / bp.eta)


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

def cost_breakdown(s: Schedule, p: UserProfile, tariff: Tariff,
                   mode: str = SA) -> CostBreakdown:
    """Evaluate every cost component of a schedule.

    grid     alpha * sum(g) + beta * max(g)   (two-part tariff)
    ac       omega_ac * sum((T - tau)^2)
    flex     omega_fl * sum((l_fl - reference)^2)
    battery  omega_ba * sum(c + d)
    p2p      pi_p2p * sum over peers and slots of trades (CO only)
    fit/dr/anc  service rewards, subtracted in `total`

    Raises
    ------
    InvalidInput
        If mode is SA and the schedule carries a nonzero trade.
    """
    if mode not in (SA, CO):
        raise InvalidInput(f"unknown mode {mode!r}")
    H = p.horizon
    if s.horizon != H:
        raise DimensionError(
            f"schedule horizon {s.horizon} != profile horizon {H}")
    if mode == SA:
        for v, vec in s.trades.items():
            if np.any(np.abs(vec) > 0):
                raise InvalidInput(
                    f"stand-alone schedule carries nonzero trade with {v}")
    if len(tariff.pi_dr) != H:
        raise DimensionError(
            f"tariff series length {len(tariff.pi_dr)} != horizon {H}")

    T = thermal_trajectory(s.l_ac, p.exo, p.ac)
    grid = tariff.alpha * float(np.sum(s.g)) + tariff.beta * float(np.max(s.g))
    ac = p.ac.omega_ac * float(np.sum((T - p.ac.tau) ** 2))
    flex = p.flex.omega_fl * float(np.sum((s.l_fl - p.flex.reference[:H]) ** 2))
    battery = p.battery.omega_ba * float(np.sum(s.c + s.d))
    p2p = 0.0
    if mode == CO:
        for vec in s.trades.values():
            p2p += tariff.pi_p2p * float(np.sum(vec))
    fit = tariff.pi_fit * float(np.sum(s.e_fit))
    dr = float(np.sum(tariff.pi_dr * s.e_dr))
    anc = float(np.sum(tariff.pi_as * s.e_as))
    return CostBreakdown(grid=grid, ac=ac, flex=flex, battery=battery,
                         p2p=p2p, fit=fit, dr=dr, anc=anc)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def check_feasibility(s: Schedule, p: UserProfile, tariff: Tariff,
                      mode: str = SA, tol: float = 1e-6,
                      trade_cap: float | None = None) -> ViolationReport:
    """Evaluate every constraint family of the household problem.

    Families checked (17 in cooperative mode): renewable, grid, temperature,
    flex_total, flex_slot, battery_level, charge_rate, discharge_rate,
    fit_nonneg, fit_cap, dr_cap, as_cap, balance, ac_nonneg, peak,
    trade_self, trade_cap.  In stand-alone mode the trade families assert
    absence of trades.  `trade_cap=None` skips the per-pair trade bound.

    Returns
    -------
    ViolationReport
        Empty report iff the schedule is feasible at tolerance `tol`.
    """
    if mode not in (SA, CO):
        raise InvalidInput(f"unknown mode {mode!r}")
    H = p.horizon
    if s.horizon != H:
        raise DimensionError(
            f"schedule horizon {s.horizon} != profile horizon {H}")
    rep = ViolationReport()

    def add(name, slot, amount):
        if amount > tol:
            rep.violations.append(Violation(name, slot, float(amount)))

    def per_slot(name, amount):
        for t in np.flatnonzero(amount > tol):
            rep.violations.append(Violation(name, int(t), float(amount[t])))

    def box(name, x, lo, hi):
        per_slot(name, np.maximum(np.subtract(lo, x), np.subtract(x, hi)))

    box("renewable", s.r, 0.0, p.exo.renewable_cap)
    box("grid", s.g, 0.0, p.fuse_limit)
    T = thermal_trajectory(s.l_ac, p.exo, p.ac)
    box("temperature", T, p.ac.t_min, p.ac.t_max)
    add("flex_total", None, abs(float(np.sum(s.l_fl)) - p.flex.total))
    box("flex_slot", s.l_fl, p.flex.lo[:H], p.flex.hi[:H])
    b = battery_trajectory(s.c, s.d, p.battery)
    box("battery_level", b, 0.0, p.battery.capacity)
    box("charge_rate", s.c, 0.0, p.battery.max_charge)
    box("discharge_rate", s.d, 0.0, p.battery.max_discharge)
    box("fit_nonneg", s.e_fit, 0.0, np.inf)
    per_slot("fit_cap", s.e_fit - (p.exo.renewable_cap - s.r))
    box("dr_cap", s.e_dr, 0.0, s.g)
    box("as_cap", s.e_as, 0.0, b)
    box("ac_nonneg", s.l_ac, 0.0, np.inf)
    per_slot("peak", s.g - s.peak)

    balance = (s.l_ac + s.l_fl + p.exo.inflexible + s.c + s.e_dr
               - s.r - s.g - s.d)
    if mode == CO:
        balance = balance - s.net_trade()
    per_slot("balance", np.abs(balance))

    if mode == SA:
        for v, vec in s.trades.items():
            if np.any(np.abs(vec) > tol):
                t = int(np.argmax(np.abs(vec)))
                add("trade_self", t, float(np.abs(vec[t])))
    else:
        if p.user_id in s.trades:
            vec = np.abs(s.trades[p.user_id])
            t = int(np.argmax(vec))
            add("trade_self", t, float(vec[t]))
        if trade_cap is not None:
            for v, vec in s.trades.items():
                box("trade_cap", vec, -trade_cap, trade_cap)
    return rep
