"""Household model: trajectories, cost accounting, feasibility checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import toy_profile, toy_tariff
from vppsim.model import (CO, SA, AcParams, BatteryParams, DimensionError,
                          ExogenousSeries, FlexParams, InvalidInput,
                          Schedule, Tariff, battery_trajectory,
                          check_feasibility, cost_breakdown,
                          thermal_trajectory)


def zero_schedule(H, trades=None):
    z = np.zeros(H)
    return Schedule(g=z.copy(), r=z.copy(), l_ac=z.copy(), l_fl=z.copy(),
                    c=z.copy(), d=z.copy(), e_fit=z.copy(), e_dr=z.copy(),
                    e_as=z.copy(), peak=0.0, trades=trades or {})


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_tariff_requires_peak_charge_above_volumetric():
    with pytest.raises(InvalidInput):
        toy_tariff(4, alpha=1.0, beta=1.0)


def test_tariff_warns_when_trading_price_exceeds_grid():
    with pytest.warns(UserWarning):
        toy_tariff(4, alpha=1.0, beta=2.0, pi_p2p=1.5)


def test_ac_params_default_decay_from_rc():
    ac = AcParams(r_thermal=2.0, c_thermal=3.0, gamma=-2.0, tau=24.0,
                  t_min=18.0, t_max=30.0, omega_ac=0.1, t_init=24.0)
    assert ac.decay == pytest.approx(np.exp(-1.0 / 6.0))
    assert 0.0 < ac.decay < 1.0


def test_battery_default_initial_level_is_half_capacity():
    bp = BatteryParams(capacity=13.5, max_charge=7.0, max_discharge=7.0,
                       eta=0.95, omega_ba=0.02)
    assert bp.b_init == pytest.approx(6.75)


def test_battery_rejects_initial_level_beyond_capacity():
    with pytest.raises(InvalidInput):
        BatteryParams(capacity=10.0, max_charge=7.0, max_discharge=7.0,
                      eta=0.95, omega_ba=0.02, b_init=11.0)


def test_negative_renewable_rejected():
    with pytest.raises(InvalidInput):
        ExogenousSeries(renewable_cap=np.array([1.0, -0.1]),
                        t_out=np.full(2, 24.0), inflexible=np.zeros(2))


def test_user_id_charset_enforced():
    with pytest.raises(InvalidInput):
        toy_profile(uid="bad id")


# ---------------------------------------------------------------------------
# thermal trajectory
# ---------------------------------------------------------------------------

def test_thermal_fixed_point_at_outdoor_temperature():
    p = toy_profile(H=6, t_out=20.0)
    T = thermal_trajectory(np.zeros(6), p.exo,
                           AcParams(r_thermal=2.0, c_thermal=2.0,
                                    gamma=-2.0, tau=20.0, t_min=10.0,
                                    t_max=30.0, omega_ac=0.1, t_init=20.0))
    np.testing.assert_allclose(T, 20.0)


def test_thermal_geometric_approach_to_outdoor():
    ac = AcParams(r_thermal=1.0, c_thermal=1.0, gamma=0.0, tau=24.0,
                  t_min=10.0, t_max=35.0, omega_ac=0.1, t_init=20.0,
                  decay=0.5)
    exo = ExogenousSeries(renewable_cap=np.zeros(4),
                          t_out=np.full(4, 30.0), inflexible=np.zeros(4))
    T = thermal_trajectory(np.ones(4), exo, ac)
    # hand-iterated from the 20 degree start: each slot halves the
    # remaining distance to the 30 degree air
    np.testing.assert_allclose(T, [25.0, 27.5, 28.75, 29.375])


def test_thermal_zero_retention_tracks_outdoor_plus_control():
    ac = AcParams(r_thermal=1.0, c_thermal=1.0, gamma=-3.0, tau=24.0,
                  t_min=-50.0, t_max=50.0, omega_ac=0.1, t_init=22.0,
                  decay=1e-12)
    t_out = np.array([30.0, 28.0, 26.0, 31.0])
    exo = ExogenousSeries(renewable_cap=np.zeros(4), t_out=t_out,
                          inflexible=np.zeros(4))
    l_ac = np.array([1.0, 0.5, 2.0, 0.0])
    T = thermal_trajectory(l_ac, exo, ac)
    # nothing retained: the room tracks the air plus the previous
    # slot's control effect, and no control precedes the first slot
    np.testing.assert_allclose(T[0], t_out[0], atol=1e-9)
    np.testing.assert_allclose(T[1:], t_out[1:] + ac.gamma * l_ac[:-1],
                               atol=1e-9)


def test_first_slot_control_does_not_move_first_temperature():
    p = toy_profile(H=3, t_out=26.0)
    T0 = thermal_trajectory(np.array([0.0, 0.0, 0.0]), p.exo, p.ac)
    T1 = thermal_trajectory(np.array([5.0, 0.0, 0.0]), p.exo, p.ac)
    assert T0[0] == T1[0]
    assert T0[1] != T1[1]


# ---------------------------------------------------------------------------
# battery trajectory
# ---------------------------------------------------------------------------

def test_battery_constant_without_flow():
    bp = BatteryParams(capacity=10.0, max_charge=7.0, max_discharge=7.0,
                       eta=0.95, omega_ba=0.02, b_init=5.0)
    np.testing.assert_allclose(
        battery_trajectory(np.zeros(4), np.zeros(4), bp), 5.0)


def test_battery_unit_efficiency_bookkeeping():
    bp = BatteryParams(capacity=10.0, max_charge=7.0, max_discharge=7.0,
                       eta=1.0, omega_ba=0.02, b_init=0.0)
    b = battery_trajectory(np.array([1.0, 1.0, 0.0, 0.0]),
                           np.array([0.0, 0.0, 2.0, 0.0]), bp)
    np.testing.assert_allclose(b, [1.0, 2.0, 0.0, 0.0])


def test_battery_round_trip_losses():
    bp = BatteryParams(capacity=10.0, max_charge=7.0, max_discharge=7.0,
                       eta=0.9, omega_ba=0.02, b_init=0.0)
    b = battery_trajectory(np.array([1.0, 0.0, 0.0]),
                           np.array([0.0, 0.81, 0.0]), bp)
    # 0.9 stored, then 0.81 delivered drains 0.81/0.9 = 0.9 exactly
    np.testing.assert_allclose(b, [0.9, 0.0, 0.0], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(arrays(float, 6, elements=st.floats(0, 5)),
       arrays(float, 6, elements=st.floats(0, 5)),
       arrays(float, 6, elements=st.floats(0, 5)),
       arrays(float, 6, elements=st.floats(0, 5)),
       st.floats(0.1, 1.0))
def test_trajectories_linear_in_controls(c1, d1, c2, d2, a):
    """Deviations from the zero-input trajectory superpose linearly."""
    bp = BatteryParams(capacity=100.0, max_charge=50.0, max_discharge=50.0,
                       eta=0.9, omega_ba=0.0, b_init=50.0)
    base = battery_trajectory(np.zeros(6), np.zeros(6), bp)
    f = lambda c, d: battery_trajectory(c, d, bp) - base
    np.testing.assert_allclose(
        f(a * c1 + c2, a * d1 + d2), a * f(c1, d1) + f(c2, d2),
        atol=1e-9)

    p = toy_profile(H=6, t_out=28.0)
    tbase = thermal_trajectory(np.zeros(6), p.exo, p.ac)
    g = lambda l: thermal_trajectory(l, p.exo, p.ac) - tbase
    np.testing.assert_allclose(g(a * c1 + c2), a * g(c1) + g(c2),
                               atol=1e-9)


# ---------------------------------------------------------------------------
# cost breakdown
# ---------------------------------------------------------------------------

def test_zero_schedule_costs_nothing():
    p = toy_profile(H=4, t_out=24.0, tau=24.0)
    cb = cost_breakdown(zero_schedule(4), p, toy_tariff(4), SA)
    assert cb.total == 0.0


def test_grid_cost_combines_volumetric_and_peak():
    H = 4
    p = toy_profile(H=H, inflexible=[2.0, 1.0, 0.0, 0.0])
    tar = toy_tariff(H, alpha=1.0, beta=3.0, pi_p2p=0.0, pi_fit=0.0)
    s = zero_schedule(H)
    s.g[:] = [2.0, 1.0, 0.0, 0.0]
    s.peak = 2.0
    cb = cost_breakdown(s, p, tar, SA)
    assert cb.grid == pytest.approx(9.0)  # 1*(2+1) + 3*2


def test_sa_mode_rejects_nonzero_trades():
    p = toy_profile(H=4)
    s = zero_schedule(4, trades={"ub": np.array([1.0, 0, 0, 0])})
    with pytest.raises(InvalidInput):
        cost_breakdown(s, p, toy_tariff(4), SA)


def test_sa_and_co_agree_when_trades_are_zero():
    rng = np.random.default_rng(4)
    p = toy_profile(H=4, inflexible=1.0, capacity=10.0, flex_total=0.5)
    tar = toy_tariff(4, pi_dr=rng.uniform(0, 1, 4),
                     pi_as=rng.uniform(0, 0.1, 4))
    s = zero_schedule(4, trades={"ub": np.zeros(4)})
    for vec in (s.g, s.r, s.l_ac, s.l_fl, s.c, s.d, s.e_fit, s.e_dr,
                s.e_as):
        vec[:] = rng.uniform(0, 1, 4)
    s.peak = float(s.g.max())
    s_sa = zero_schedule(4)
    for name in ("g", "r", "l_ac", "l_fl", "c", "d", "e_fit", "e_dr",
                 "e_as"):
        getattr(s_sa, name)[:] = getattr(s, name)
    s_sa.peak = s.peak
    assert cost_breakdown(s, p, tar, CO).total == pytest.approx(
        cost_breakdown(s_sa, p, tar, SA).total, abs=1e-12)


def test_dimension_mismatch_raises():
    p = toy_profile(H=4)
    with pytest.raises(DimensionError):
        cost_breakdown(zero_schedule(6), p, toy_tariff(4), SA)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cost_is_convex_in_the_schedule(seed):
    rng = np.random.default_rng(seed)
    H = 4
    p = toy_profile(H=H, inflexible=1.0, capacity=10.0)
    tar = toy_tariff(H, pi_dr=rng.uniform(0, 1, H),
                     pi_as=rng.uniform(0, 0.1, H))

    def rand_schedule():
        s = zero_schedule(H, trades={"ub": rng.normal(size=H)})
        for name in ("g", "r", "l_ac", "l_fl", "c", "d", "e_fit", "e_dr",
                     "e_as"):
            getattr(s, name)[:] = rng.uniform(0, 2, H)
        s.peak = float(rng.uniform(0, 3))
        return s

    def mix(s1, s2):
        s = zero_schedule(H, trades={
            "ub": 0.5 * (s1.trades["ub"] + s2.trades["ub"])})
        for name in ("g", "r", "l_ac", "l_fl", "c", "d", "e_fit", "e_dr",
                     "e_as"):
            getattr(s, name)[:] = 0.5 * (getattr(s1, name)
                                         + getattr(s2, name))
        s.peak = 0.5 * (s1.peak + s2.peak)
        return s

    s1, s2 = rand_schedule(), rand_schedule()
    c1 = cost_breakdown(s1, p, tar, CO).total
    c2 = cost_breakdown(s2, p, tar, CO).total
    cm = cost_breakdown(mix(s1, s2), p, tar, CO).total
    scale = 1.0 + abs(c1) + abs(c2)
    assert cm <= 0.5 * (c1 + c2) + 1e-9 * scale


# ---------------------------------------------------------------------------
# feasibility report
# ---------------------------------------------------------------------------

def test_all_zero_schedule_is_feasible_with_no_load():
    p = toy_profile(H=4)
    rep = check_feasibility(zero_schedule(4), p, toy_tariff(4), SA)
    assert rep.ok
    assert rep.violations == []


def test_unmet_load_shows_as_balance_violation():
    p = toy_profile(H=4, inflexible=[1.0, 0.0, 0.0, 0.0])
    rep = check_feasibility(zero_schedule(4), p, toy_tariff(4), SA)
    assert not rep.ok
    hits = [v for v in rep.violations if v.constraint == "balance"]
    assert len(hits) == 1
    assert hits[0].slot == 0
    assert hits[0].amount == pytest.approx(1.0)


def test_every_constraint_family_is_reported():
    """Drive one violation per family through a hand-built schedule."""
    H = 2
    p = toy_profile(H=H, renewable=1.0, inflexible=0.0, capacity=4.0,
                    flex_total=0.0, fuse=2.0)
    tar = toy_tariff(H)
    seen = set()

    def fams(s, mode=SA, trade_cap=None):
        rep = check_feasibility(s, p, tar, mode, trade_cap=trade_cap)
        return {v.constraint for v in rep.violations}

    s = zero_schedule(H)
    s.r[:] = [2.0, 0.0]                       # above renewable cap
    seen |= fams(s)
    s = zero_schedule(H)
    s.g[:] = [3.0, 0.0]                       # above fuse limit
    s.peak = 3.0
    seen |= fams(s)
    s = zero_schedule(H)
    s.g[:] = [-0.5, 0.0]
    seen |= fams(s)
    s = zero_schedule(H)
    s.l_ac[:] = [50.0, 0.0]                   # freezes the room next slot
    s.g[:] = [50.0, 0.0]
    s.peak = 50.0
    seen |= fams(s)
    s = zero_schedule(H)
    s.l_fl[:] = [0.5, 0.0]                    # flex sum above total=0
    s.g[:] = [0.5, 0.0]
    s.peak = 0.5
    seen |= fams(s)
    s = zero_schedule(H)
    s.l_fl[:] = [-1.0, 1.0]                   # per-slot flex box
    seen |= fams(s)
    s = zero_schedule(H)
    s.c[:] = [8.0, 0.0]                       # charge rate
    s.g[:] = [8.0, 0.0]
    s.peak = 8.0
    seen |= fams(s)
    s = zero_schedule(H)
    s.d[:] = [8.0, 0.0]                       # discharge rate
    s.r[:] = [0.0, 0.0]
    seen |= fams(s)
    s = zero_schedule(H)
    s.c[:] = [7.0, 0.0]                       # level above capacity
    s.g[:] = [7.0, 0.0]
    s.peak = 7.0
    seen |= fams(s)
    s = zero_schedule(H)
    s.e_fit[:] = [-0.1, 0.0]
    seen |= fams(s)
    s = zero_schedule(H)
    s.e_fit[:] = [1.5, 0.0]                   # above renewable remainder
    seen |= fams(s)
    s = zero_schedule(H)
    s.e_dr[:] = [0.5, 0.0]                    # above grid draw
    s.r[:] = [0.5, 0.0]
    seen |= fams(s)
    s = zero_schedule(H)
    s.e_as[:] = [5.0, 0.0]                    # above battery level
    seen |= fams(s)
    s = zero_schedule(H)
    s.l_ac[:] = [-1.0, 0.0]
    seen |= fams(s)
    s = zero_schedule(H)
    s.g[:] = [1.0, 0.0]                       # peak epigraph broken
    s.peak = 0.0
    s.r[:] = [0.0, 0.0]
    s.e_dr[:] = [0.0, 0.0]
    seen |= fams(s, mode=SA)
    s = zero_schedule(H, trades={"u01": np.array([0.5, 0.0])})
    seen |= fams(s, mode=CO)                  # trading with oneself
    s = zero_schedule(H, trades={"ub": np.array([9.0, 0.0])})
    s.g[:] = [0.0, 0.0]
    seen |= fams(s, mode=CO, trade_cap=2.0)   # trade box
    expected = {"renewable", "grid", "temperature", "flex_total",
                "flex_slot", "battery_level", "charge_rate",
                "discharge_rate", "fit_nonneg", "fit_cap", "dr_cap",
                "as_cap", "balance", "ac_nonneg", "peak", "trade_self",
                "trade_cap"}
    assert expected <= seen


def test_worst_violation_orders_by_magnitude():
    p = toy_profile(H=4, inflexible=[3.0, 1.0, 0.0, 0.0])
    rep = check_feasibility(zero_schedule(4), p, toy_tariff(4), SA)
    assert max(v.amount for v in rep.violations) == pytest.approx(3.0)


def _loop_violations(s, p, mode, tol, trade_cap):
    """The per-slot loop version of check_feasibility, kept as reference."""
    H = p.horizon
    out = []

    def add(name, slot, amount):
        if amount > tol:
            out.append((name, slot, float(amount)))

    def box(name, x, lo, hi):
        lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
        hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
        for t in range(x.size):
            add(name, t, max(lo[t] - x[t], x[t] - hi[t]))

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
    for t in range(H):
        add("fit_cap", t, s.e_fit[t] - (p.exo.renewable_cap[t] - s.r[t]))
    box("dr_cap", s.e_dr, 0.0, s.g)
    box("as_cap", s.e_as, 0.0, b)
    box("ac_nonneg", s.l_ac, 0.0, np.inf)
    for t in range(H):
        add("peak", t, s.g[t] - s.peak)
    balance = (s.l_ac + s.l_fl + p.exo.inflexible + s.c + s.e_dr
               - s.r - s.g - s.d)
    if mode == CO:
        balance = balance - s.net_trade()
    for t in range(H):
        add("balance", t, abs(balance[t]))
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
    return out


@pytest.mark.parametrize("seed", range(40))
def test_feasibility_matches_a_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    H = 6
    p = toy_profile(H=H, renewable=rng.uniform(0.0, 2.0, H),
                    inflexible=rng.uniform(0.0, 1.5, H), capacity=4.0,
                    flex_total=1.0, fuse=3.0)
    tar = toy_tariff(H)
    # about half of the entries sit inside their boxes, half outside
    fields = {f: rng.uniform(-0.5, 1.5, H) * rng.choice([0.0, 1.0, 4.0], H)
              for f in ("g", "r", "l_ac", "l_fl", "c", "d", "e_fit",
                        "e_dr", "e_as")}
    peers = {"ub": rng.normal(0.0, 2.0, H), "uc": rng.normal(0.0, 0.2, H)}
    if seed % 4 == 0:
        peers["u01"] = rng.normal(0.0, 1.0, H)
    s = Schedule(peak=float(rng.uniform(0.0, 3.0)),
                 trades=peers if seed % 2 else {}, **fields)
    for mode, cap in ((SA, None), (CO, None), (CO, 1.5)):
        for tol in (1e-6, 0.3):
            rep = check_feasibility(s, p, tar, mode, tol=tol, trade_cap=cap)
            got = [(v.constraint, v.slot, v.amount) for v in rep.violations]
            assert got == _loop_violations(s, p, mode, tol, cap)
            assert all(type(slot) in (int, type(None)) for _, slot, _ in got)
