"""Closed-form coordination updates and the decentralized driver."""

import numpy as np
import pytest
from conftest import surplus_pair, toy_profile, toy_tariff
from hypothesis import given, settings
from hypothesis import strategies as st

from vppsim.agent import AgentSolveError
from vppsim.coordinator import (AlgoConfig, DualState, LocalTransport,
                                ProtocolError, convergence, dual_update,
                                lambda_update, run_decentralized,
                                stack_trades)
from vppsim.model import InvalidInput
from vppsim.qp import QpSettings

# rows and columns of the (2, 2, H) pair arrays over users ("u", "v")
PAIR = (0, 1)
RAIP = (1, 0)


def pair_state(rho=1.0, mult_uv=0.0, mult_vu=0.0, H=1):
    s = DualState.zeros(["u", "v"], H, rho)
    s.mult[PAIR] = mult_uv
    s.mult[RAIP] = mult_vu
    return s


def pair_array(uv, vu):
    """A (2, 2, H) pair array holding uv at (u, v) and vu at (v, u)."""
    uv = np.atleast_1d(np.asarray(uv, float))
    out = np.zeros((2, 2, uv.size))
    out[PAIR] = uv
    out[RAIP] = vu
    return out


def test_zeros_layout_and_validation():
    s = DualState.zeros(["b", "a"], 3, 2.0)
    assert s.iteration == 0
    assert s.users == ("a", "b")
    assert s.aux.shape == s.mult.shape == (2, 2, 3)
    assert np.all(s.aux == 0.0)
    with pytest.raises(InvalidInput):
        DualState.zeros(["a", "a"], 3, 1.0)
    with pytest.raises(InvalidInput):
        DualState.zeros(["a", "b"], 3, 0.0)


def test_zero_trades_keep_zero_state():
    s = pair_state()
    trades = pair_array(0.0, 0.0)
    aux = dual_update(trades, s)
    assert np.all(aux[PAIR] == 0.0) and np.all(aux[RAIP] == 0.0)
    mult = lambda_update(s, aux, trades)
    assert np.all(mult[PAIR] == 0.0) and np.all(mult[RAIP] == 0.0)


def test_consistent_trades_are_a_fixed_point():
    # rho = 2 keeps the divisor a power of two, so the fixed point
    # reproduces bitwise rather than merely to rounding error
    s = pair_state(rho=2.0)
    trades = pair_array(0.8, -0.8)
    aux = dual_update(trades, s)
    np.testing.assert_array_equal(aux[PAIR], trades[PAIR])
    np.testing.assert_array_equal(aux[RAIP], trades[RAIP])
    mult = lambda_update(s, aux, trades)
    np.testing.assert_array_equal(mult[PAIR], s.mult[PAIR])


def test_auxiliary_update_hand_numbers():
    # rho=2, p_uv=0.5, p_vu=0.1, lam_uv=0.2, lam_vu=-0.4:
    # (2*(0.5-0.1) - (0.2+0.4)) / 4 = 0.05
    s = pair_state(rho=2.0, mult_uv=0.2, mult_vu=-0.4)
    trades = pair_array(0.5, 0.1)
    aux = dual_update(trades, s)
    assert aux[PAIR][0] == pytest.approx(0.05, abs=1e-12)
    assert aux[RAIP][0] == pytest.approx(-0.05, abs=1e-12)


def test_multiplier_update_hand_numbers():
    # lam = 0 + 1 * (0.05 - 0.5) = -0.45
    s = pair_state(rho=1.0)
    trades = pair_array(0.5, -0.5)
    aux = pair_array(0.05, -0.05)
    mult = lambda_update(s, aux, trades)
    assert mult[PAIR][0] == pytest.approx(-0.45, abs=1e-12)


def test_gap_counts_every_ordered_pair():
    s = pair_state()
    s.aux = pair_array(0.001, -0.001)
    trades = pair_array(0.0, 0.0)
    rep = convergence(s, s.mult.copy(), trades, 1e-6, 1e-6)
    assert rep.primal_gap == pytest.approx(0.002, abs=1e-15)
    assert rep.dual_gap == 0.0
    assert not rep.converged


def test_exact_agreement_converges():
    s = pair_state()
    trades = pair_array(0.0, 0.0)
    rep = convergence(s, s.mult.copy(), trades, 1e-6, 1e-6)
    assert rep.primal_gap == 0.0 and rep.dual_gap == 0.0
    assert rep.converged


def test_missing_pair_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        stack_trades(("u", "v"), 1, {"u": {"v": np.zeros(1)}})
    with pytest.raises(ProtocolError):
        dual_update(np.zeros((2, 2, 2)), pair_state())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=4),
       st.lists(st.floats(-50, 50), min_size=1, max_size=4),
       st.floats(0.1, 10))
def test_auxiliary_antisymmetry_is_exact(a, b, rho):
    H = min(len(a), len(b))
    s = pair_state(rho=rho, H=H)
    trades = pair_array(a[:H], b[:H])
    aux = dual_update(trades, s)
    assert np.all(aux[PAIR] + aux[RAIP] == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
def test_stationary_multipliers_force_consistency(x, y):
    # The multiplier step is zero only where aux == trades, and the
    # antisymmetric aux can equal the trades only if they net out.
    s = pair_state()
    trades = pair_array(x, y)
    aux = dual_update(trades, s)
    mult = lambda_update(s, aux, trades)
    stationary = (np.all(mult[PAIR] == s.mult[PAIR])
                  and np.all(mult[RAIP] == s.mult[RAIP]))
    assert stationary == (x + y == 0.0)


def test_slice_shows_one_households_rows_only():
    s = DualState.zeros(["a", "b", "c"], 2, 1.0)
    s.mult[0, 1] = [1.0, 2.0]
    s.mult[1, 0] = [9.0, 9.0]
    sl = s.slice_for("a")
    assert set(sl.aux) == {"b", "c"}
    np.testing.assert_array_equal(sl.mult["b"], [1.0, 2.0])
    sl.mult["b"][0] = -5.0
    assert s.mult[0, 1, 0] == 1.0


def test_households_with_nothing_to_gain_stop_at_once():
    # Two bare profiles: no load, no generation.  The first round already
    # produces (numerically) zero trades, so the loop converges at
    # iteration 1; trade dust is bounded by the inner solver tolerance.
    a = toy_profile("u1", H=2)
    b = toy_profile("u2", H=2)
    res = run_decentralized([a, b], toy_tariff(2), AlgoConfig())
    assert res.converged and res.iterations == 1
    for s in res.schedules.values():
        for vec in s.trades.values():
            assert np.max(np.abs(vec)) <= 1e-7


def test_surplus_pair_full_loop():
    profiles = surplus_pair(H=4)
    tariff = toy_tariff(4, pi_fit=0.1)
    res = run_decentralized(profiles, tariff, AlgoConfig())
    assert res.converged and res.feasible
    assert res.trade_residual <= 1e-4
    assert res.trace[-1].iteration == res.iterations
    assert res.trace[-1].primal_gap <= 1e-6
    # the consumer ends up buying from the producer
    assert float(np.sum(res.schedules["ub"].trades["ua"])) > 0.1


def test_single_household_is_rejected():
    with pytest.raises(InvalidInput):
        run_decentralized([toy_profile()], toy_tariff(4), AlgoConfig())


def test_failed_subproblem_names_the_household():
    profiles = surplus_pair(H=4)
    tariff = toy_tariff(4, pi_fit=0.1)
    starved = LocalTransport(profiles, tariff, AlgoConfig(),
                             qp_settings=QpSettings(max_iter=1,
                                                    check_every=1,
                                                    polish=False))
    with pytest.raises(AgentSolveError) as err:
        run_decentralized(profiles, tariff, AlgoConfig(), transport=starved)
    assert err.value.user == "ua"
