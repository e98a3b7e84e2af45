"""Household subproblem builders, decoding, and the per-agent runtime."""

import numpy as np
import pytest
from conftest import surplus_pair, toy_profile, toy_tariff

from vppsim.agent import (AgentRuntime, BuildError, DecodeError, DualSlice,
                          Layout, admm_terms, battery_response,
                          build_centralized, build_co_primal,
                          build_sa_problem, decode, decode_all,
                          thermal_response)
from vppsim.model import (CO, SA, battery_trajectory, check_feasibility,
                          cost_breakdown, thermal_trajectory)
from vppsim.qp import solve_qp


def test_layout_sizes_and_slices():
    lay = Layout(horizon=24)
    assert lay.n == 217
    assert lay.peak == 216
    three = Layout(horizon=24, peers=("a", "b", "c"))
    assert three.n == 217 + 3 * 24
    assert lay.sl("e_as") == slice(192, 216)
    assert three.trade("b") == slice(217 + 24, 217 + 48)


def test_thermal_response_matches_recursion():
    rng = np.random.default_rng(0)
    p = toy_profile(H=6, t_out=rng.uniform(10, 35, 6))
    l_ac = rng.uniform(0, 3, 6)
    T0, M = thermal_response(p.exo, p.ac)
    direct = thermal_trajectory(l_ac, p.exo, p.ac)
    np.testing.assert_allclose(T0 + M @ l_ac, direct, atol=1e-12)


def test_battery_response_matches_recursion():
    rng = np.random.default_rng(1)
    p = toy_profile(H=5, capacity=10.0)
    c = rng.uniform(0, 2, 5)
    d = rng.uniform(0, 2, 5)
    Lc, Ld = battery_response(p.battery, 5)
    direct = battery_trajectory(c, d, p.battery)
    np.testing.assert_allclose(p.battery.b_init + Lc @ c - Ld @ d,
                               direct, atol=1e-12)


def test_stand_alone_surplus_feeds_the_grid():
    # Free renewable, no load, feed-in at 0.1: sell everything.
    p = toy_profile(H=2, renewable=1.0)
    tariff = toy_tariff(2, pi_fit=0.1)
    prob, lay = build_sa_problem(p, tariff)
    sched = decode(solve_qp(prob), lay)
    assert not check_feasibility(sched, p, tariff, SA).violations
    np.testing.assert_allclose(sched.e_fit, [1.0, 1.0], atol=1e-6)
    total = cost_breakdown(sched, p, tariff, SA).total
    assert total == pytest.approx(-0.2, abs=1e-6)


def test_stand_alone_grid_covers_bare_load():
    # No renewable and no storage: g must equal the inflexible load, so
    # the optimum cost is the two-part tariff 1.0*3 + 2.0*1 by hand.
    p = toy_profile(H=3, inflexible=1.0, omega_ac=0.0, omega_fl=0.0,
                    omega_ba=0.0)
    tariff = toy_tariff(3, alpha=1.0, beta=2.0, pi_fit=0.0)
    prob, lay = build_sa_problem(p, tariff)
    sol = solve_qp(prob)
    sched = decode(sol, lay)
    np.testing.assert_allclose(sched.g, [1.0, 1.0, 1.0], atol=1e-6)
    assert cost_breakdown(sched, p, tariff, SA).total == pytest.approx(
        5.0, abs=1e-6)


def test_peak_variable_sits_on_the_largest_import():
    p = toy_profile(H=4, inflexible=np.array([0.5, 2.0, 1.0, 0.2]))
    tariff = toy_tariff(4)
    prob, lay = build_sa_problem(p, tariff)
    sched = decode(solve_qp(prob), lay)
    assert sched.peak == pytest.approx(float(np.max(sched.g)), abs=1e-6)


def test_cooperative_build_rejects_bad_peer_sets():
    p = toy_profile(H=2)
    tariff = toy_tariff(2)
    with pytest.raises(BuildError):
        build_co_primal(p, tariff, [], DualSlice.zeros([], 2, 1.0))
    with pytest.raises(BuildError):
        build_co_primal(p, tariff, [p.user_id],
                        DualSlice.zeros([p.user_id], 2, 1.0))
    with pytest.raises(BuildError):
        build_co_primal(p, tariff, ["vx"], DualSlice.zeros(["vy"], 2, 1.0))


def test_admm_terms_reproduce_the_penalty():
    # rho/2 * (aux - p)^2 at p = 0 is the returned constant.
    lay = Layout(horizon=1, peers=("v",))
    dual = DualSlice(aux={"v": [1.0]}, mult={"v": [0.0]}, rho=2.0)
    lin, const = admm_terms(dual, lay)
    assert const == pytest.approx(1.0)
    assert lin[lay.trade("v")][0] == pytest.approx(-2.0)
    # full quadratic check at an arbitrary trade value
    p = 0.7
    penalty = 0.5 * 2.0 * (1.0 - p) ** 2
    assert const + lin[lay.trade("v")][0] * p + 0.5 * 2.0 * p ** 2 == \
        pytest.approx(penalty)


def test_identical_households_do_not_trade():
    a = toy_profile("u1", H=2, inflexible=1.0)
    b = toy_profile("u2", H=2, inflexible=1.0)
    tariff = toy_tariff(2)
    prob, lays = build_centralized([a, b], tariff)
    scheds = decode_all(solve_qp(prob), lays)
    for s in scheds.values():
        for vec in s.trades.values():
            assert np.max(np.abs(vec)) <= 1e-6


def test_surplus_flows_to_the_neighbor():
    a, b = surplus_pair(H=1)
    tariff = toy_tariff(1, pi_fit=0.1)
    prob, lays = build_centralized([a, b], tariff)
    sol = solve_qp(prob)
    scheds = decode_all(sol, lays)
    np.testing.assert_allclose(scheds["ua"].trades["ub"], [-1.0], atol=1e-6)
    np.testing.assert_allclose(scheds["ub"].trades["ua"], [1.0], atol=1e-6)
    np.testing.assert_allclose(scheds["ub"].g, [0.0], atol=1e-6)


def test_centralized_objective_equals_summed_breakdowns():
    profiles = surplus_pair(H=4)
    tariff = toy_tariff(4, pi_fit=0.1)
    prob, lays = build_centralized(profiles, tariff)
    sol = solve_qp(prob)
    scheds = decode_all(sol, lays)
    total = sum(cost_breakdown(scheds[p.user_id], p, tariff, CO).total
                for p in profiles)
    assert sol.objective == pytest.approx(total, abs=1e-8)


def test_cooperation_never_costs_more_than_standing_alone():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        profiles = [
            toy_profile(f"u{i}", H=3,
                        renewable=rng.uniform(0, 2, 3),
                        inflexible=rng.uniform(0, 2, 3))
            for i in range(2)
        ]
        tariff = toy_tariff(3, pi_fit=0.1)
        sa_total = 0.0
        for p in profiles:
            prob, lay = build_sa_problem(p, tariff)
            sa_total += cost_breakdown(decode(solve_qp(prob), lay), p,
                                       tariff, SA).total
        prob, lays = build_centralized(profiles, tariff)
        co_total = solve_qp(prob).objective
        assert co_total <= sa_total + 1e-6 * max(1.0, abs(sa_total))


def test_decode_refuses_failed_solves():
    from vppsim.qp import QpProblem
    bad = QpProblem(n=1, quad=np.zeros((1, 1)), lin=np.zeros(1),
                    eq=(np.array([[1.0], [1.0]]), np.array([0.0, 1.0])))
    sol = solve_qp(bad)
    with pytest.raises(DecodeError):
        decode(sol, Layout(horizon=1))


def test_decode_clamps_solver_dust_to_zero():
    p = toy_profile(H=2)
    tariff = toy_tariff(2)
    prob, lay = build_sa_problem(p, tariff)
    sched = decode(solve_qp(prob), lay)
    assert np.all(sched.g == 0.0)
    assert np.all(sched.e_fit == 0.0)
    assert sched.peak == 0.0


def test_runtime_shares_only_trade_vectors():
    a, b = surplus_pair(H=2)
    tariff = toy_tariff(2, pi_fit=0.1)
    rt = AgentRuntime(a, tariff, peers=["ub"], rho=1.0, trade_cap=10.0)
    out = rt.solve_round(DualSlice.zeros(["ub"], 2, 1.0))
    assert set(out) == {"ub"}
    assert out["ub"].shape == (2,)
    assert rt.solves == 1
    assert rt.schedule is not None and rt.cost is not None
    again = rt.solve_round(DualSlice.zeros(["ub"], 2, 1.0))
    np.testing.assert_allclose(again["ub"], out["ub"], atol=1e-9)
    assert rt.solves == 2
