"""Solver behavior on canonical problems plus the brute-force oracle."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from conftest import toy_profile, toy_tariff
from hypothesis import given, settings
from hypothesis import strategies as st

from qp_oracle import brute_force_qp, random_bounded_qp
from vppsim import qp
from vppsim.agent import (LOOP_TOL, build_centralized, build_co_primal,
                          build_sa_problem, resolve_trade_cap)
from vppsim.experiment import centralized_day, day_profile, day_tariff
from vppsim.qp import (INFEASIBLE, MAX_ITER, OPTIMAL, UNBOUNDED, QpProblem,
                       QpSettings, QpSolution, QpSolver, kkt_residuals)
from vppsim.scenario_io import gen_synthetic


def test_active_bound_pins_the_minimizer():
    prob = QpProblem(n=1, quad=np.array([[2.0]]), lin=np.zeros(1),
                     rows=(np.array([[1.0]]), np.array([1.0]),
                           np.array([np.inf])))
    sol = QpSolver(prob).solve()
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0], atol=1e-7)


def test_equality_constrained_two_variable_problem():
    # min (x-3)^2 + (y+1)^2  s.t. x + y = 0; hand KKT gives (2, -2)
    prob = QpProblem(n=2, quad=2 * np.eye(2), lin=np.array([-6.0, 2.0]),
                     rows=(np.array([[1.0, 1.0]]), np.zeros(1), np.zeros(1)),
                     const=10.0)
    sol = QpSolver(prob).solve()
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [2.0, -2.0], atol=1e-7)
    assert sol.objective == pytest.approx(2.0, abs=1e-7)
    res = kkt_residuals(prob, sol)
    assert max(res.values()) <= 1e-8


def test_contradictory_equalities_are_infeasible():
    prob = QpProblem(n=1, quad=np.zeros((1, 1)), lin=np.zeros(1),
                     rows=(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]),
                           np.array([1.0, 2.0])))
    sol = QpSolver(prob).solve()
    assert sol.status == INFEASIBLE


def test_unbounded_direction_is_certified():
    prob = QpProblem(n=1, quad=np.zeros((1, 1)), lin=np.array([-1.0]))
    sol = QpSolver(prob).solve()
    assert sol.status == UNBOUNDED


def test_zero_problem_reports_zero_residuals():
    prob = QpProblem(n=2, quad=np.zeros((2, 2)), lin=np.zeros(2))
    sol = QpSolver(prob).solve()
    assert sol.status == OPTIMAL
    res = kkt_residuals(prob, sol)
    assert max(res.values()) == 0.0


def test_perturbed_point_shows_in_residuals():
    prob = QpProblem(n=2, quad=2 * np.eye(2), lin=np.array([-6.0, 2.0]),
                     rows=(np.array([[1.0, 1.0]]), np.zeros(1), np.zeros(1)))
    sol = QpSolver(prob).solve()
    sol.x[0] += 0.1
    res = kkt_residuals(prob, sol)
    assert max(res["primal"], res["dual"]) >= 0.05


def test_kkt_residuals_match_a_per_row_reference():
    # the vectorized residuals against a row-by-row evaluation, on random
    # points and multipliers of both signs; equality rows (lo == hi)
    # contribute feasibility and stationarity but no complementarity; a
    # multiplier pushing on a missing bound shows as a sign term
    rng = np.random.default_rng(5)
    open_hi = np.random.default_rng(6)
    for _ in range(20):
        prob = random_bounded_qp(rng)
        A, lo, hi = prob.rows
        A = A.toarray()
        lo = np.where(rng.random(lo.size) < 0.2, -np.inf, lo)
        hi = np.where(open_hi.random(hi.size) < 0.2, np.inf, hi)
        prob = QpProblem(n=prob.n, quad=prob.quad, lin=prob.lin,
                         rows=(A, lo, hi))
        x = rng.normal(size=prob.n)
        y = rng.normal(size=lo.size)
        res = kkt_residuals(prob, QpSolution(x=x, y=y, status=OPTIMAL,
                                             iterations=0, residuals={}))
        primal = comp = sign = 0.0
        for i in range(lo.size):
            v = A[i] @ x
            if np.isfinite(lo[i]):
                primal = max(primal, lo[i] - v)
            primal = max(primal, v - hi[i])
            if lo[i] == hi[i]:
                continue
            if y[i] > 0 and np.isfinite(hi[i]):
                comp = max(comp, abs(y[i] * (hi[i] - v)))
            elif y[i] < 0 and np.isfinite(lo[i]):
                comp = max(comp, abs(y[i] * (v - lo[i])))
            elif y[i] != 0:
                sign = max(sign, abs(y[i]))
        grad = prob.quad @ x + prob.lin + A.T @ y
        assert res["primal"] == pytest.approx(primal, rel=1e-12)
        assert res["comp"] == pytest.approx(comp, rel=1e-12)
        assert res["sign"] == sign
        assert res["dual"] == pytest.approx(np.max(np.abs(grad)), rel=1e-12)


def _primal_certificate_per_row(solver, dy):
    # the row-by-row form of QpSolver._primal_certificate
    nd = np.max(np.abs(dy), initial=0.0)
    if nd <= 1e-14:
        return False
    eps = qp.INF_TOL * nd
    if np.max(np.abs(solver.M.T @ dy), initial=0.0) > eps:
        return False
    sup = 0.0
    for i in range(solver.m):
        p, m_ = max(dy[i], 0.0), min(dy[i], 0.0)
        if p > eps and not np.isfinite(solver.u[i]):
            return False
        if m_ < -eps and not np.isfinite(solver.l[i]):
            return False
        sup += (solver.u[i] * p if p > eps else 0.0)
        sup += (solver.l[i] * m_ if m_ < -eps else 0.0)
    return sup <= -eps


def test_primal_certificate_matches_a_per_row_reference():
    # dy in the left null space of A passes the A' dy test, so the bound
    # terms decide; rows are boxed around -beta * dy, which makes the
    # system infeasible for large beta, and some rows lose one or both
    # sides to infinity
    rng = np.random.default_rng(9)
    outcomes = []
    for _ in range(200):
        n, m = 3, 8
        A = rng.normal(size=(m, n))
        dy = scipy.linalg.null_space(A.T) @ rng.normal(size=m - n)
        center = -rng.uniform(0.0, 2.0) * dy
        width = rng.uniform(0.05, 0.5, m)
        lo, hi = center - width, center + width
        lo[rng.random(m) < 0.1] = -np.inf
        hi[rng.random(m) < 0.1] = np.inf
        solver = QpSolver(QpProblem(n=n, quad=np.eye(n), lin=np.zeros(n),
                                    rows=(A, lo, hi)))
        want = _primal_certificate_per_row(solver, dy)
        assert solver._primal_certificate(dy) == want
        outcomes.append(want)
    assert any(outcomes) and not all(outcomes)


def _unit_problem(quad=((1.0, 0.0), (0.0, 1.0)),
                  A=((1.0, 0.0), (0.0, 1.0)), lin=(1.0, 1.0), const=0.0,
                  lo=(0.0, 0.0), hi=(1.0, 1.0)):
    return QpProblem(n=2, quad=np.array(quad), lin=lin,
                     rows=(np.array(A), lo, hi), const=const)


@pytest.mark.parametrize("field, value", [
    ("quad", [[1.0, np.nan], [np.nan, 1.0]]),
    ("quad", [[np.inf, 0.0], [0.0, 1.0]]),
    ("A", [[1.0, np.nan], [0.0, 1.0]]),
    ("A", [[1.0, 0.0], [0.0, -np.inf]]),
    ("lin", [np.nan, 1.0]),
    ("lin", [1.0, np.inf]),
    ("const", np.inf),
    ("const", -np.inf),
    ("lo", [np.nan, 0.0]),
    ("hi", [1.0, np.nan]),
])
def test_non_finite_problem_data_is_refused_by_name(field, value):
    # unrefused, a NaN in lin runs the whole iteration budget and a NaN
    # lower bound comes back optimal
    with pytest.raises(qp.QpError, match=f"^{field} holds"):
        _unit_problem(**{field: value})


def test_infinite_bounds_stay_open_rows():
    prob = _unit_problem(lo=[-np.inf, 0.0], hi=[1.0, np.inf])
    assert QpSolver(prob).solve().status == OPTIMAL


@pytest.mark.parametrize("override", [
    {"lin": [np.nan, 1.0]}, {"lin": [1.0, -np.inf]},
    {"const": np.nan}, {"const": np.inf},
])
def test_non_finite_solve_overrides_are_refused_by_name(override):
    solver = QpSolver(_unit_problem())
    (field,) = override
    with pytest.raises(qp.QpError, match=f"^{field} override holds"):
        solver.solve(**override)


def test_dense_and_sparse_data_solve_identically():
    # the same problem handed over as CSR (from the builder) and as dense
    # arrays: one internal form, so bit-identical iterates
    p = toy_profile("ub", H=4, renewable=[0.0, 1.5, 2.0, 0.5],
                    inflexible=[0.8, 0.3, 0.4, 1.1], flex_total=1.0,
                    capacity=5.0, t_out=[24.0, 27.0, 29.0, 26.0])
    built, _ = build_co_primal(p, toy_tariff(4), ["ua"], 1.5, trade_cap=4.0)
    rng = np.random.default_rng(13)
    for sparse in (built, random_bounded_qp(rng)):
        A, lo, hi = sparse.rows
        dense = QpProblem(n=sparse.n, quad=sparse.quad.toarray(),
                          lin=sparse.lin, rows=(A.toarray(), lo, hi),
                          const=sparse.const)
        a, b = QpSolver(sparse).solve(), QpSolver(dense).solve()
        assert a.status == b.status == OPTIMAL
        assert a.iterations == b.iterations
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()


def test_iteration_budget_returns_best_iterate(monkeypatch):
    monkeypatch.setattr(qp, "ITER_LIMIT", 3)
    monkeypatch.setattr(qp, "CHECK_EVERY", 1)
    rng = np.random.default_rng(1)
    prob = random_bounded_qp(rng)
    sol = QpSolver(prob, QpSettings(polish=False)).solve()
    assert sol.status == MAX_ITER


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    prob = random_bounded_qp(rng)
    a = QpSolver(prob).solve()
    b = QpSolver(prob).solve()
    assert a.iterations == b.iterations
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective


def test_scaling_invariance_of_argmin():
    rng = np.random.default_rng(11)
    prob = random_bounded_qp(rng)
    scaled = QpProblem(n=prob.n, quad=7.3 * prob.quad, lin=7.3 * prob.lin,
                       rows=prob.rows)
    a = QpSolver(prob).solve()
    b = QpSolver(scaled).solve()
    np.testing.assert_allclose(a.x, b.x, atol=1e-6)


def test_warm_restart_reaches_the_same_answer():
    rng = np.random.default_rng(3)
    prob = random_bounded_qp(rng)
    solver = QpSolver(prob)
    first = solver.solve()
    again = solver.solve(lin=prob.lin * 1.01, warm=True)
    direct = QpSolver(QpProblem(n=prob.n, quad=prob.quad,
                                lin=prob.lin * 1.01, rows=prob.rows)).solve()
    assert again.status == OPTIMAL
    np.testing.assert_allclose(again.x, direct.x, atol=1e-6)
    assert again.iterations <= first.iterations


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    prob = random_bounded_qp(rng)
    ref_obj, _ = brute_force_qp(prob)
    sol = QpSolver(prob).solve()
    assert sol.status == OPTIMAL
    assert abs(sol.objective - ref_obj) <= 1e-6 * max(1.0, abs(ref_obj))
    res = kkt_residuals(prob, sol)
    assert max(res.values()) <= 1e-8


def test_loose_tolerance_stops_sooner_within_its_bound():
    loose_tol = 1e-4
    fewer = 0
    for seed in range(8):
        prob = random_bounded_qp(np.random.default_rng(seed))
        lin = prob.lin * 1.01
        iterations = {}
        for tol in (qp.TOL, loose_tol):
            solver = QpSolver(prob, QpSettings(polish=False))
            solver.solve()
            sol = solver.solve(lin=lin, warm=True, tol=tol)
            assert sol.status == OPTIMAL
            iterations[tol] = sol.iterations
        # the stopping test at the loose tolerance holds at the returned
        # iterate, with the same scaling as the tight one
        r_prim, r_dual, eps_p, eps_d = solver._residuals(*solver._last, lin,
                                                         loose_tol)
        assert sol.residuals == {"primal": r_prim, "dual": r_dual}
        assert r_prim <= eps_p and r_dual <= eps_d
        assert iterations[loose_tol] <= iterations[qp.TOL]
        fewer += iterations[loose_tol] < iterations[qp.TOL]
    assert fewer > 0


def test_default_tolerance_keeps_the_oracle5_objective():
    # the centralized oracle of the 5-household benchmark scenario, at
    # its polished, KKT-certified optimum
    sc = gen_synthetic(seed=2, users=5, complementary=True)
    objective, _ = centralized_day(sc, 0)
    assert objective == pytest.approx(-24.98090660849684, rel=1e-9)


def test_the_two_household_oracle_polishes_to_a_certified_optimum():
    # the first active-set guess leaves out rows the candidate violates;
    # the polish adds them on the violated side and re-solves
    sc = gen_synthetic(seed=2, users=2, complementary=True)
    slots = sc.horizon.slots
    prob, _ = build_centralized(
        [day_profile(u, 0, slots) for u in sc.users],
        day_tariff(sc.tariff, 0, slots), trade_cap=sc.algo.trade_cap)
    sol = QpSolver(prob).solve()
    assert sol.status == OPTIMAL and sol.polished
    res = kkt_residuals(prob, sol)
    assert set(res) == {"primal", "dual", "comp", "sign"}
    assert max(res.values()) <= qp.TOL


def _two_household_solver():
    sc = gen_synthetic(seed=1, users=2, complementary=True)
    profiles = [day_profile(u, 0, sc.horizon.slots) for u in sc.users]
    p, peer = profiles
    # the per-pair trade box rows, as the trading loop always builds them
    cap = resolve_trade_cap(sc.algo.trade_cap, profiles)
    prob, _ = build_co_primal(p, sc.tariff, [peer.user_id], 1.0,
                              trade_cap=cap)
    return prob, QpSolver(prob, QpSettings(polish=False))


def _assert_close_to_cho_solve(x, K, b):
    # relative to the solution's scale: entries near zero carry the
    # rounding of the larger ones
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(K, lower=True), b)
    np.testing.assert_allclose(x, ref, rtol=1e-10,
                               atol=1e-10 * np.abs(ref).max())


def test_cached_inverse_matches_cho_solve_on_an_agent_splitting_matrix():
    prob, solver = _two_household_solver()
    # the splitting matrix is Q + sigma I + A' diag(rho) A, equality rows
    # at rho * EQ_STEP_SCALE
    A, lo, hi = prob.rows
    eq = np.isfinite(lo) & (lo == hi)
    assert eq.any() and (~eq).any()
    rho = np.where(eq, qp.STEP * qp.EQ_STEP_SCALE, qp.STEP)
    K = (prob.quad + qp.SIGMA * sp.eye_array(prob.n)
         + A.T @ sp.diags_array(rho) @ A).toarray()
    b = np.random.default_rng(5).normal(size=prob.n)
    x = qp.dsymv(1.0, solver.kinv, b, lower=1)
    _assert_close_to_cho_solve(x, K, b)
    np.testing.assert_allclose(K @ x, b, rtol=1e-8, atol=1e-8)


def test_cached_inverse_matches_cho_solve_on_a_large_spd_matrix():
    rng = np.random.default_rng(9)
    n = 1500
    G = rng.normal(size=(n, 200))
    Q = G @ G.T + n * np.eye(n)
    solver = QpSolver(QpProblem(n=n, quad=Q, lin=np.zeros(n)))
    b = rng.normal(size=n)
    x = qp.dsymv(1.0, solver.kinv, b, lower=1)
    _assert_close_to_cho_solve(x, Q + qp.SIGMA * np.eye(n), b)


def test_cached_inverse_repeats_bit_for_bit_and_keeps_its_input():
    _, solver = _two_household_solver()
    b = np.random.default_rng(6).normal(size=solver.problem.n)
    b_bytes = b.tobytes()
    first = qp.dsymv(1.0, solver.kinv, b, lower=1)
    again = qp.dsymv(1.0, solver.kinv, b, lower=1)
    assert first.tobytes() == again.tobytes()
    assert b.tobytes() == b_bytes


def test_failed_inverse_raises_a_named_error(monkeypatch):
    prob, _ = _two_household_solver()
    monkeypatch.setattr(qp, "dpotri", lambda c, lower, overwrite_c: (c, 1))
    with pytest.raises(np.linalg.LinAlgError, match="potri info 1"):
        QpSolver(prob)


# -- the products the iteration makes through scipy's CSR kernel -----------

def test_the_products_reach_the_kernel_qp_binds(monkeypatch):
    # qp calls scipy's private csr_matvec directly, which is bit-identical
    # to `A @ x` only while that product reaches this kernel; a scipy
    # release that moves it fails here (or at qp's import) by name
    from scipy.sparse import _sparsetools
    assert qp.csr_matvec is _sparsetools.csr_matvec
    calls = []

    def spy(*args):
        calls.append(args[:2])
        return qp.csr_matvec(*args)

    monkeypatch.setattr(_sparsetools, "csr_matvec", spy)
    sp.random_array((4, 3), density=0.5, format="csr", rng=0) @ np.ones(3)
    assert calls == [(4, 3)]


def test_kernel_products_equal_scipy_products_byte_for_byte():
    rng = np.random.default_rng(21)
    A = sp.random_array((40, 30), density=0.2, rng=rng).toarray()
    A[7] = 0.0
    A = qp._csr(A)
    assert np.diff(A.indptr)[7] == 0
    empty = qp._csr(sp.csr_array((0, 30)))
    for B in (A, A.T.tocsr(), empty):
        x = rng.normal(size=B.shape[1])
        got = qp._matvec(B)(x)
        want = B @ x
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _co3_agent_problem():
    # household u01's subproblem in the co3 benchmark's trading loop
    sc = gen_synthetic(seed=1, users=3, complementary=True)
    p, *peers = profiles = [day_profile(u, 0, sc.horizon.slots)
                            for u in sc.users]
    cap = resolve_trade_cap(sc.algo.trade_cap, profiles)
    prob, _ = build_co_primal(p, sc.tariff, [v.user_id for v in peers],
                              sc.algo.rho, trade_cap=cap)
    return prob


def _reference_admm(shadow, q, tol, start):
    """QpSolver.solve's iteration written with scipy's `@` and np.clip, for
    a solve that stops optimal before a certificate fires.

    `shadow` is a second solver of the same problem: at each step
    rebalance the reference calls its `_rebalance`, and every iteration
    reads the step and the inverse back from it, so a solve that applies
    a stale step or inverse after a refactor cannot match.
    """
    P, M, MT, l, u = shadow.problem.quad, shadow.M, shadow.MT, shadow.l, \
        shadow.u
    norm = qp._norm
    x, y, z = start
    for it in range(1, qp.ITER_LIMIT + 1):
        rho, kinv = shadow.rho, shadow.kinv
        rhs = qp.SIGMA * x - q + MT @ (rho * z - y)
        xt = qp.dsymv(1.0, kinv, rhs, lower=1)
        x = qp.RELAX * xt + (1.0 - qp.RELAX) * x
        zr = qp.RELAX * (M @ xt) + (1.0 - qp.RELAX) * z
        z_new = np.clip(zr + y / rho, l, u)
        y = y + rho * (zr - z_new)
        z = z_new
        if it % qp.CHECK_EVERY == 0:
            Ax, Px, Aty = M @ x, P @ x, MT @ y
            r_prim, r_dual = norm(Ax - z), norm(Px + q + Aty)
            if (r_prim <= tol + tol * max(norm(Ax), norm(z))
                    and r_dual
                    <= tol + tol * max(norm(Px), norm(Aty), norm(q))):
                return x, y, it
            if it % qp.ADAPT_EVERY == 0:
                shadow._rebalance(x, y, z, q, r_prim, r_dual)
    raise AssertionError("reference iteration hit the budget")


def _match_reference(prob, tol, lin):
    """A cold solve of prob and then a warm one with linear term lin, each
    bit for bit against the reference; returns the solver and the two
    iteration counts."""
    solver = QpSolver(prob, QpSettings(polish=False))
    shadow = QpSolver(prob, QpSettings(polish=False))
    zero_x = np.zeros(prob.n)
    cold_start = (zero_x, np.zeros(solver.m),
                  np.clip(solver.M @ zero_x, solver.l, solver.u))
    counts = []
    for q, warm in ((prob.lin, False), (lin, True)):
        start = tuple(v.copy() for v in solver._last) if warm \
            else cold_start
        x, y, iterations = _reference_admm(shadow, q, tol, start)
        sol = solver.solve(lin=q, warm=warm, tol=tol)
        assert sol.status == OPTIMAL
        assert sol.iterations == iterations
        assert sol.x.tobytes() == x.tobytes()
        assert sol.y.tobytes() == y.tobytes()
        assert solver.rho.tobytes() == shadow.rho.tobytes()
        assert solver.kinv.tobytes() == shadow.kinv.tobytes()
        counts.append(iterations)
    return solver, counts


def test_agent_solves_match_a_reference_iteration_bit_for_bit():
    prob = _co3_agent_problem()
    lin = prob.lin + 0.01 * np.random.default_rng(4).normal(size=prob.n)
    solver, (cold, _) = _match_reference(prob, LOOP_TOL, lin)
    # the cold solve passes a step rebalance, which leaves the step where
    # it was
    assert cold > qp.ADAPT_EVERY
    assert solver.rho.tobytes() == QpSolver(prob).rho.tobytes()


def test_a_refactoring_solve_matches_the_reference_bit_for_bit():
    # stand-alone household u01 rebalances its step and refactors twice in
    # its cold solve, so every iteration after a refactor must use the new
    # step and inverse
    sc = gen_synthetic(seed=0, users=3, complementary=True)
    slots = sc.horizon.slots
    (u,) = (u for u in sc.users if u.user_id == "u01")
    prob, _ = build_sa_problem(day_profile(u, 0, slots),
                               day_tariff(sc.tariff, 0, slots))
    lin = prob.lin + 0.01 * np.random.default_rng(4).normal(size=prob.n)
    solver, _ = _match_reference(prob, qp.TOL, lin)
    # a rebalance changes the step only together with a refactor
    assert solver.rho.tobytes() != QpSolver(prob).rho.tobytes()


# -- the polish's KKT solve with the pinned pairs eliminated -----------------

def _pinned_problem():
    """Eight variables and eight rows: one-variable rows at lo, at hi and on
    an equality, two one-variable rows on x3, a one-variable row on x6
    whose Q row has an off-diagonal entry, and two multi-variable rows
    across pinned and free variables."""
    n = 8
    Q = np.diag([2.0, 0.25, 1.0, 0.5, 0.0, 1.5, 2.0, 1.0])
    Q[6, 7] = Q[7, 6] = 0.5
    A = np.zeros((8, n))
    lo, hi = np.full(8, -np.inf), np.full(8, np.inf)
    A[0, 0], lo[0] = 1.0, 0.5
    A[1, 1], hi[1] = 2.0, 3.0
    A[2, 2], lo[2], hi[2] = -1.0, 0.25, 0.25
    A[3, 3], lo[3] = 1.0, 1.0
    A[4, 3], hi[4] = 2.0, 2.0
    A[5, 6], lo[5] = 1.0, -1.0
    A[6, [0, 2, 4]], lo[6], hi[6] = [1.0, -1.0, 1.0], 0.7, 0.7
    A[7, [3, 5, 7]], hi[7] = [1.0, 1.0, -2.0], 0.3
    lin = np.random.default_rng(0).normal(size=n)
    return QpProblem(n=n, quad=Q, lin=lin, rows=(A, lo, hi))


def _dense_kkt(solver, rows, delta):
    n, k = solver.problem.n, rows.size
    G = solver.M[rows].toarray()
    K = np.block([[solver.problem.quad.toarray(), G.T],
                  [G, np.zeros((k, k))]])
    return K + np.diag(np.repeat([delta, -delta], [n, k]))


def _kkt_solver(Q, G, delta=1e-9):
    """`qp._kkt_solver` on the unregularized KKT matrix that
    `_solve_active` assembles."""
    K0 = sp.block_array([[Q, G.T], [G, None]], format="csr")
    return qp._kkt_solver(K0, Q, G, delta)


def _full_kkt_reference(solver, rows, at_lo):
    # the whole regularized KKT matrix factored dense, with the same three
    # refinement rounds against the unregularized one, keeping the first
    # round of least KKT residual as the solver does
    prob = solver.problem
    n = prob.n
    K0 = _dense_kkt(solver, rows, 0.0)
    lu = scipy.linalg.lu_factor(_dense_kkt(solver, rows, 1e-9))
    rhs = np.concatenate([-prob.lin,
                          np.where(at_lo, solver.l[rows], solver.u[rows])])
    rounds = [scipy.linalg.lu_solve(lu, rhs)]
    for _ in range(3):
        rounds.append(rounds[-1] + scipy.linalg.lu_solve(
            lu, rhs - K0 @ rounds[-1]))

    def score(v):
        y = np.zeros(solver.m)
        y[rows] = v[n:]
        return qp._kkt_max(prob, QpSolution(
            x=v[:n], y=y, status=OPTIMAL, iterations=0, residuals={}),
            prob.lin)

    v = min(rounds, key=score)
    return v[:n], v[n:]


def _solve_active_factoring(monkeypatch, solver, rows, at_lo):
    """`_solve_active`'s candidate and the sizes of the matrices it
    factored."""
    sizes = []
    lu_factor = scipy.linalg.lu_factor

    def recording(a, **kw):
        sizes.append(a.shape[0])
        return lu_factor(a, **kw)

    monkeypatch.setattr(scipy.linalg, "lu_factor", recording)
    cand, _ = solver._solve_active(rows, at_lo, solver.problem.lin,
                                   solver.problem.const, 0)
    return cand, sizes


@pytest.mark.parametrize("rows, at_lo, factored", [
    # x0 at lo, x1 at hi, x2 on an equality and x3 are pinned; x6's row
    # stays, as do the multi-variable rows over x0, x2, x3
    ([0, 1, 2, 3, 5, 6, 7], [1, 0, 1, 1, 1, 1, 0], 15 - 8),
    # all pinned: every variable has its own one-variable row
    ([0, 1, 2, 3], [1, 0, 1, 1], 4 + 4 - 8),
    # no pair: only multi-variable rows and x6's row
    ([5, 6, 7], [1, 1, 0], 8 + 3),
], ids=["pairs-and-kept-rows", "all-pinned", "no-pair"])
def test_pinned_pair_elimination_matches_the_full_kkt_solve(
        monkeypatch, rows, at_lo, factored):
    prob = _pinned_problem()
    if len(rows) == 4:
        # the all-pinned case: four variables, each behind its own row
        A, lo, hi = prob.rows
        prob = QpProblem(n=4, quad=prob.quad[:4, :4], lin=prob.lin[:4],
                         rows=(A[:4, :4], lo[:4], hi[:4]))
    solver = QpSolver(prob)
    rows, at_lo = np.array(rows), np.array(at_lo, dtype=bool)
    cand, sizes = _solve_active_factoring(monkeypatch, solver, rows, at_lo)
    assert sizes == [factored]
    x, y = _full_kkt_reference(solver, rows, at_lo)
    scale = max(np.abs(x).max(), np.abs(y).max())
    np.testing.assert_allclose(cand.x, x, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(cand.y[rows], y, rtol=0, atol=1e-10 * scale)
    # one unrefined solve with the eliminated factorization
    r = np.random.default_rng(1).normal(size=prob.n + rows.size)
    v = _kkt_solver(prob.quad, solver.M[rows])(r)
    ref = np.linalg.solve(_dense_kkt(solver, rows, 1e-9), r)
    np.testing.assert_allclose(v, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


def test_a_second_one_variable_row_stays_in_the_factored_system(monkeypatch):
    # rows 3 and 4 both pin x3 (x3 >= 1 and 2 x3 <= 2): row 3 pairs with
    # x3 and row 4 stays.  The two are parallel, so the multipliers are
    # fixed only up to the null direction (2, -1) of the pair, where the
    # regularization resolves them to about eps / delta; x and A'y are
    # fixed and must agree to rounding
    solver = QpSolver(_pinned_problem())
    rows = np.arange(8)
    at_lo = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=bool)
    cand, sizes = _solve_active_factoring(monkeypatch, solver, rows, at_lo)
    assert sizes == [16 - 8]
    x, y = _full_kkt_reference(solver, rows, at_lo)
    scale = max(np.abs(x).max(), np.abs(y).max())
    np.testing.assert_allclose(cand.x, x, rtol=0, atol=1e-10 * scale)
    A = solver.M.toarray()
    np.testing.assert_allclose(A.T @ cand.y, A.T @ y, rtol=0,
                               atol=1e-10 * scale)
    dy = cand.y - y
    np.testing.assert_allclose(np.delete(dy, [3, 4]), 0.0, rtol=0,
                               atol=1e-10 * scale)
    assert abs(dy[3]) <= 1e-6 * scale
    # the unrefined solve is backward stable all the same
    r = np.random.default_rng(1).normal(size=16)
    v = _kkt_solver(solver.problem.quad, solver.M)(r)
    K = _dense_kkt(solver, rows, 1e-9)
    assert np.abs(K @ v - r).max() <= 1e-14 * np.abs(K).max() * np.abs(v).max()


def _standalone(seed, user, users=3):
    sc = gen_synthetic(seed=seed, users=users)
    slots = sc.horizon.slots
    (u,) = (u for u in sc.users if u.user_id == user)
    prob, _ = build_sa_problem(day_profile(u, 0, slots),
                               day_tariff(sc.tariff, 0, slots))
    return prob, QpSolver(prob).solve()


def test_survey_seed_11_household_u02_still_polishes():
    # its first active set is redundant (230 rows of rank 202 over 217
    # variables) and the polish drops three wrong-signed rows before the
    # candidate is accepted
    prob, sol = _standalone(11, "u02")
    assert sol.status == OPTIMAL and sol.polished
    res = kkt_residuals(prob, sol)
    assert max(res.values()) <= qp.TOL


def test_a_stalled_solve_is_rescued_by_a_certified_polish(monkeypatch):
    # the residuals of this stand-alone day stall: the rescue's polish
    # fails at iteration 4,000 and is certified at 6,000; without it the
    # solve runs 200,000 iterations to the same objective
    calls = []
    rescue = QpSolver._rescue

    def spy(self, x, y, z, q, cn, iterations):
        cand = rescue(self, x, y, z, q, cn, iterations)
        calls.append((iterations, cand is not None))
        return cand

    monkeypatch.setattr(QpSolver, "_rescue", spy)
    prob, sol = _standalone(6, "u02", users=2)
    assert prob.n == 217
    assert calls == [(4000, False), (6000, True)]
    assert sol.status == OPTIMAL and sol.polished
    assert sol.iterations == 6000
    assert sol.objective == pytest.approx(2.6456571331672123, rel=1e-9)
    assert max(kkt_residuals(prob, sol).values()) <= qp.TOL


def test_polish_refuses_a_multiplier_on_a_missing_bound():
    # min 0.5 x^2 + x  s.t.  x >= -2: the optimum is x = -1, off the bound.
    # Pinning the row gives x = -2 with y = +1, a stationary point whose
    # multiplier pushes on the row's missing upper side; the polish must
    # drop the row instead of certifying that point.
    prob = QpProblem(n=1, quad=np.array([[1.0]]), lin=np.array([1.0]),
                     rows=(np.array([[1.0]]), np.array([-2.0]),
                           np.array([np.inf])))
    pinned = QpSolution(x=np.array([-2.0]), y=np.array([1.0]),
                        status=OPTIMAL, iterations=0, residuals={})
    assert kkt_residuals(prob, pinned)["sign"] == 1.0
    solver = QpSolver(prob)
    sol = QpSolution(x=np.array([-2.0]), y=np.zeros(1), status=MAX_ITER,
                     iterations=0, residuals={}, objective=0.0)
    solver._polish(sol, prob.lin, prob.const, z=np.array([-2.0]),
                   require=qp.TOL)
    assert sol.status == OPTIMAL and sol.polished
    np.testing.assert_allclose(sol.x, [-1.0], atol=1e-9)
    assert sol.objective == pytest.approx(-0.5, abs=1e-9)
    assert max(kkt_residuals(prob, sol).values()) <= qp.TOL


def test_polished_solution_reports_its_own_residuals():
    prob, sol = _standalone(11, "u01")
    assert sol.polished
    res = kkt_residuals(prob, sol)
    assert sol.residuals == {"primal": res["primal"], "dual": res["dual"]}
