"""Solver behavior on canonical problems plus the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qp_oracle import brute_force_qp, random_bounded_qp
from vppsim.qp import (INFEASIBLE, MAX_ITER, OPTIMAL, UNBOUNDED, QpProblem,
                       QpSettings, QpSolver, kkt_residuals, solve_qp)


def test_active_bound_pins_the_minimizer():
    prob = QpProblem(n=1, quad=np.array([[2.0]]), lin=np.zeros(1),
                     ineq=(np.array([[1.0]]), np.array([1.0]),
                           np.array([np.inf])))
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0], atol=1e-7)


def test_equality_constrained_two_variable_problem():
    # min (x-3)^2 + (y+1)^2  s.t. x + y = 0; hand KKT gives (2, -2)
    prob = QpProblem(n=2, quad=2 * np.eye(2), lin=np.array([-6.0, 2.0]),
                     eq=(np.array([[1.0, 1.0]]), np.zeros(1)), const=10.0)
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [2.0, -2.0], atol=1e-7)
    assert sol.objective == pytest.approx(2.0, abs=1e-7)
    res = kkt_residuals(prob, sol)
    assert max(res.values()) <= 1e-8


def test_contradictory_equalities_are_infeasible():
    prob = QpProblem(n=1, quad=np.zeros((1, 1)), lin=np.zeros(1),
                     eq=(np.array([[1.0], [1.0]]), np.array([1.0, 2.0])))
    sol = solve_qp(prob)
    assert sol.status == INFEASIBLE


def test_unbounded_direction_is_certified():
    prob = QpProblem(n=1, quad=np.zeros((1, 1)), lin=np.array([-1.0]))
    sol = solve_qp(prob)
    assert sol.status == UNBOUNDED


def test_zero_problem_reports_zero_residuals():
    prob = QpProblem(n=2, quad=np.zeros((2, 2)), lin=np.zeros(2))
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    res = kkt_residuals(prob, sol)
    assert max(res.values()) == 0.0


def test_perturbed_point_shows_in_residuals():
    prob = QpProblem(n=2, quad=2 * np.eye(2), lin=np.array([-6.0, 2.0]),
                     eq=(np.array([[1.0, 1.0]]), np.zeros(1)))
    sol = solve_qp(prob)
    sol.x[0] += 0.1
    res = kkt_residuals(prob, sol)
    assert max(res["primal"], res["dual"]) >= 0.05


def test_iteration_budget_returns_best_iterate():
    rng = np.random.default_rng(1)
    prob = random_bounded_qp(rng)
    sol = solve_qp(prob, QpSettings(max_iter=3, check_every=1,
                                    polish=False))
    assert sol.status == MAX_ITER


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    prob = random_bounded_qp(rng)
    a = solve_qp(prob)
    b = solve_qp(prob)
    assert a.iterations == b.iterations
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective


def test_scaling_invariance_of_argmin():
    rng = np.random.default_rng(11)
    prob = random_bounded_qp(rng)
    scaled = QpProblem(n=prob.n, quad=7.3 * prob.quad, lin=7.3 * prob.lin,
                       eq=prob.eq, ineq=prob.ineq)
    a = solve_qp(prob)
    b = solve_qp(scaled)
    np.testing.assert_allclose(a.x, b.x, atol=1e-6)


def test_warm_restart_reaches_the_same_answer():
    rng = np.random.default_rng(3)
    prob = random_bounded_qp(rng)
    solver = QpSolver(prob)
    first = solver.solve()
    again = solver.solve(lin=prob.lin * 1.01, warm=True)
    direct = solve_qp(QpProblem(n=prob.n, quad=prob.quad,
                                lin=prob.lin * 1.01, eq=prob.eq,
                                ineq=prob.ineq))
    assert again.status == OPTIMAL
    np.testing.assert_allclose(again.x, direct.x, atol=1e-6)
    assert again.iterations <= first.iterations


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    prob = random_bounded_qp(rng)
    ref_obj, _ = brute_force_qp(prob)
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    assert abs(sol.objective - ref_obj) <= 1e-6 * max(1.0, abs(ref_obj))
    res = kkt_residuals(prob, sol)
    assert max(res.values()) <= 1e-8
