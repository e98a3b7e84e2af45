"""Household subproblem builders, decoding, and the per-agent runtime."""

import hashlib

import numpy as np
import pytest
from conftest import surplus_pair, toy_profile, toy_tariff

from vppsim import qp
from vppsim.agent import (LOOP_TOL, AgentRuntime, AgentSolveError, BuildError,
                          DecodeError, DualSlice, Layout, admm_terms,
                          battery_response, build_centralized,
                          build_co_primal, build_sa_problem, decode,
                          decode_all, thermal_response)
from vppsim.model import (CO, SA, InvalidInput, battery_trajectory,
                          check_feasibility, cost_breakdown,
                          thermal_trajectory)
from vppsim.qp import QpProblem, QpSolver


def test_layout_sizes_and_slices():
    lay = Layout(horizon=24)
    assert lay.n == 217
    assert lay.peak == 216
    three = Layout(horizon=24, peers=("a", "b", "c"))
    assert three.n == 217 + 3 * 24
    assert lay.sl("e_as") == slice(192, 216)
    assert three.trades["b"] == (slice(217 + 24, 217 + 48), 1.0)


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
    sched = decode(QpSolver(prob).solve(), lay)
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
    sol = QpSolver(prob).solve()
    sched = decode(sol, lay)
    np.testing.assert_allclose(sched.g, [1.0, 1.0, 1.0], atol=1e-6)
    assert cost_breakdown(sched, p, tariff, SA).total == pytest.approx(
        5.0, abs=1e-6)


def test_peak_variable_sits_on_the_largest_import():
    p = toy_profile(H=4, inflexible=np.array([0.5, 2.0, 1.0, 0.2]))
    tariff = toy_tariff(4)
    prob, lay = build_sa_problem(p, tariff)
    sched = decode(QpSolver(prob).solve(), lay)
    assert sched.peak == pytest.approx(float(np.max(sched.g)), abs=1e-6)


def test_cooperative_build_rejects_bad_peer_sets():
    p = toy_profile(H=2)
    tariff = toy_tariff(2)
    with pytest.raises(BuildError):
        build_co_primal(p, tariff, [], 1.0, 4.0)
    with pytest.raises(BuildError):
        build_co_primal(p, tariff, [p.user_id], 1.0, 4.0)
    with pytest.raises(InvalidInput):
        build_co_primal(p, tariff, ["vx"], 0.0, 4.0)


def _digest(prob):
    A, lo, hi = prob.rows
    h = hashlib.sha256()
    for arr in (prob.quad.toarray(), prob.lin, A.toarray(), lo, hi):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def test_built_problems_are_pinned():
    # Digests of quad, lin and the constraint system as dense arrays,
    # taken from the earlier dense assembly with its negative zeros made
    # positive (a sparse matrix stores no zeros) and its all-zero
    # first-slot temperature row deleted; any reordered row or changed
    # coefficient fails.
    p = toy_profile("ub", H=4, renewable=[0.0, 1.5, 2.0, 0.5],
                    inflexible=[0.8, 0.3, 0.4, 1.1], flex_total=1.0,
                    capacity=5.0, t_out=[24.0, 27.0, 29.0, 26.0])
    tariff = toy_tariff(4, pi_dr=[0.0, 0.1, 0.2, 0.0],
                        pi_as=[0.05, 0.0, 0.0, 0.05])
    sa, _ = build_sa_problem(p, tariff)
    co, _ = build_co_primal(p, tariff, ["uc", "ua"], 1.5, trade_cap=4.0)
    assert co.rows[0].shape == (72, 45)
    assert _digest(sa) == ("5df6a48cfaafa4c4815ca004be6f32b7"
                           "1913e6ed08b5dc1f5a82c7c603940c12")
    assert _digest(co) == ("1d2724dad4442194eab741768c5e3b17"
                           "f58633cf2e7d7278e8ce769b01d40f38")
    assert sa.const == co.const == 0.598512224965009
    # the centralized build, pair vectors and their trade box included
    cent, _ = build_centralized(_three_households(), toy_tariff(3))
    assert cent.rows[0].shape == (153, 93)
    assert _digest(cent) == ("81e855e5c7dcef8d5cb79b204c812a5a"
                             "31c5a858bd9d5ba7e926678bb72d1d91")


def test_admm_terms_reproduce_the_penalty():
    # rho/2 * (aux - p)^2 at p = 0 is the returned constant.
    lay = Layout(horizon=1, peers=("v",))
    dual = DualSlice(aux={"v": np.array([1.0])}, mult={"v": np.array([0.0])},
                     rho=2.0)
    lin, const = admm_terms(dual, lay)
    sl, _ = lay.trades["v"]
    assert const == pytest.approx(1.0)
    assert lin[sl][0] == pytest.approx(-2.0)
    # full quadratic check at an arbitrary trade value
    p = 0.7
    penalty = 0.5 * 2.0 * (1.0 - p) ** 2
    assert const + lin[sl][0] * p + 0.5 * 2.0 * p ** 2 == \
        pytest.approx(penalty)


def test_identical_households_do_not_trade():
    a = toy_profile("u1", H=2, inflexible=1.0)
    b = toy_profile("u2", H=2, inflexible=1.0)
    tariff = toy_tariff(2)
    prob, lays = build_centralized([a, b], tariff)
    scheds = decode_all(QpSolver(prob).solve(), lays)
    for s in scheds.values():
        for vec in s.trades.values():
            assert np.max(np.abs(vec)) <= 1e-6


def test_surplus_flows_to_the_neighbor():
    a, b = surplus_pair(H=1)
    tariff = toy_tariff(1, pi_fit=0.1)
    prob, lays = build_centralized([a, b], tariff)
    sol = QpSolver(prob).solve()
    scheds = decode_all(sol, lays)
    np.testing.assert_allclose(scheds["ua"].trades["ub"], [-1.0], atol=1e-6)
    np.testing.assert_allclose(scheds["ub"].trades["ua"], [1.0], atol=1e-6)
    np.testing.assert_allclose(scheds["ub"].g, [0.0], atol=1e-6)


def test_centralized_objective_equals_summed_breakdowns():
    profiles = surplus_pair(H=4)
    tariff = toy_tariff(4, pi_fit=0.1)
    prob, lays = build_centralized(profiles, tariff)
    sol = QpSolver(prob).solve()
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
            sa_total += cost_breakdown(decode(QpSolver(prob).solve(), lay), p,
                                       tariff, SA).total
        prob, lays = build_centralized(profiles, tariff)
        co_total = QpSolver(prob).solve().objective
        assert co_total <= sa_total + 1e-6 * max(1.0, abs(sa_total))


def _three_households(H=3):
    a, b = surplus_pair(H)
    return [a, b, toy_profile("uc", H, renewable=0.5, inflexible=0.5)]


def test_centralized_build_has_one_trade_vector_per_pair():
    H, N, cap = 3, 3, 4.0
    prob, lays = build_centralized(_three_households(H), toy_tariff(H),
                                   trade_cap=cap)
    own = Layout(horizon=H).n
    assert prob.n == N * (9 * H + 1) + H * N * (N - 1) // 2
    pair_cols = np.arange(N * own, prob.n)
    assert {sl.start for lay in lays.values()
            for sl, _ in lay.trades.values()} == set(pair_cols[::H])
    A, lo, hi = prob.rows
    counts = np.diff(A.indptr)
    # no pair-consistency row p_uv + p_vu = 0 is left
    pairs = [i for i in np.flatnonzero(counts == 2)
             if np.all(A.data[A.indptr[i]:A.indptr[i + 1]] == 1.0)
             and lo[i] == hi[i] == 0.0]
    assert pairs == []
    # exactly one trade-box row per pair and slot
    single = np.flatnonzero(counts == 1)
    boxed = A.indices[A.indptr[single]]
    on_pairs = single[boxed >= N * own]
    assert sorted(boxed[boxed >= N * own]) == list(pair_cols)
    assert np.all(lo[on_pairs] == -cap) and np.all(hi[on_pairs] == cap)
    # the trade payments cancel within a pair, so none is left
    assert np.all(prob.lin[pair_cols] == 0.0)


def test_decoded_pair_trades_are_exact_negatives_without_negative_zeros():
    prob, lays = build_centralized(_three_households(), toy_tariff(3))
    solved = QpSolver(prob).solve()
    # the solve's own vector, then one whose pair entries are signed zeros
    # and solver dust on both sides of the clamp
    x = solved.x.copy()
    first = min(sl.start for lay in lays.values()
                for sl, _ in lay.trades.values())
    x[first:] = np.resize([0.0, -0.0, 1e-12, -1e-12, 0.25, -1.5],
                          prob.n - first)
    dusty = qp.QpSolution(x=x, y=solved.y, status=qp.OPTIMAL,
                          iterations=0, residuals={})
    for sol in (solved, dusty):
        scheds = decode_all(sol, lays)
        for u, s in scheds.items():
            for v, vec in s.trades.items():
                # bit for bit the negation, with +0.0 for every zero
                assert vec.tobytes() == (0.0 - scheds[v].trades[u]).tobytes()
                assert not np.any(np.signbit(vec) & (vec == 0.0))
    zeros = sum(int(np.sum(vec == 0.0)) for s in scheds.values()
                for vec in s.trades.values())
    assert zeros > 0


def test_decode_refuses_failed_solves():
    bad = QpProblem(n=1, quad=np.zeros((1, 1)), lin=np.zeros(1),
                    rows=(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]),
                          np.array([0.0, 1.0])))
    sol = QpSolver(bad).solve()
    with pytest.raises(DecodeError):
        decode(sol, Layout(horizon=1))


def test_decode_clamps_solver_dust_to_zero():
    p = toy_profile(H=2)
    tariff = toy_tariff(2)
    prob, lay = build_sa_problem(p, tariff)
    sched = decode(QpSolver(prob).solve(), lay)
    assert np.all(sched.g == 0.0)
    assert np.all(sched.e_fit == 0.0)
    assert sched.peak == 0.0


def test_runtime_shares_only_trade_vectors():
    a, b = surplus_pair(H=2)
    tariff = toy_tariff(2, pi_fit=0.1)
    rt = AgentRuntime(a, tariff, peers=["ub"], rho=1.0, trade_cap=10.0)
    zero = DualSlice(aux={"ub": np.zeros(2)}, mult={"ub": np.zeros(2)},
                     rho=1.0)
    out = rt.solve_round(zero)
    assert set(out) == {"ub"}
    assert out["ub"].shape == (2,)
    assert rt.solves == 1
    assert rt.schedule is not None and rt.cost is not None
    rt.finish()
    tight = rt.schedule.trades["ub"].copy()
    # round solves stop at LOOP_TOL, so they repeat only to that order;
    # the final solves stop at qp.TOL and repeat to 1e-9
    again = rt.solve_round(zero)
    np.testing.assert_allclose(again["ub"], out["ub"], atol=LOOP_TOL)
    rt.finish()
    np.testing.assert_allclose(rt.schedule.trades["ub"], tight, atol=1e-9)
    assert rt.solves == 4


def test_finish_refuses_a_failed_tight_solve(monkeypatch):
    a, _ = surplus_pair(H=2)
    rt = AgentRuntime(a, toy_tariff(2, pi_fit=0.1), peers=["ub"], rho=1.0,
                      trade_cap=10.0)
    rt.solve_round(DualSlice(aux={"ub": np.ones(2)}, mult={"ub": np.ones(2)},
                             rho=1.0))
    monkeypatch.setattr(qp, "ITER_LIMIT", 1)
    monkeypatch.setattr(qp, "CHECK_EVERY", 1)
    with pytest.raises(AgentSolveError) as err:
        rt.finish()
    assert err.value.user == "ua"
