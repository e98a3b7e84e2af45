"""Closed-form coordination updates and the decentralized driver."""

import numpy as np
import pytest
from conftest import surplus_pair, toy_profile, toy_tariff
from hypothesis import given, settings
from hypothesis import strategies as st

from vppsim import qp
from vppsim.agent import AgentSolveError
from vppsim.chain import (Chain, ChainError, ContractError, ContractState,
                          TxRejected, trading_tx)
from vppsim.coordinator import (AlgoConfig, convergence, dual_update,
                                lambda_update, run_decentralized)
from vppsim.model import InvalidInput
from vppsim.simnet import ChainTransport

# rows and columns of the (2, 2, H) pair arrays over users ("u", "v")
PAIR = (0, 1)
RAIP = (1, 0)


def pair_state(rho=1.0, mult_uv=0.0, mult_vu=0.0, H=1):
    s = ContractState(["u", "v"], H, rho, {})
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


def test_genesis_dual_is_zero_over_sorted_users():
    # the state every run starts from is the chain's committed genesis
    s = Chain(["b", "a"], ["a0"], 3, rho=2.0).state()
    assert s.round == 0 and s.rho == 2.0
    assert s.users == ["a", "b"]
    assert s.trades.shape == s.aux.shape == s.mult.shape == (2, 2, 3)
    assert not (s.trades.any() or s.aux.any() or s.mult.any())
    with pytest.raises(ChainError):
        Chain(["a", "a"], ["a0"], 3)
    with pytest.raises(ChainError):
        Chain(["a", "b"], ["a0"], 3, rho=0.0)


def test_zero_trades_keep_zero_state():
    s = pair_state()
    trades = pair_array(0.0, 0.0)
    aux = dual_update(trades, s.mult, s.rho)
    assert np.all(aux[PAIR] == 0.0) and np.all(aux[RAIP] == 0.0)
    mult = lambda_update(s.mult, aux, trades, s.rho)
    assert np.all(mult[PAIR] == 0.0) and np.all(mult[RAIP] == 0.0)


def test_consistent_trades_are_a_fixed_point():
    # rho = 2 keeps the divisor a power of two, so the fixed point
    # reproduces bitwise rather than merely to rounding error
    s = pair_state(rho=2.0)
    trades = pair_array(0.8, -0.8)
    aux = dual_update(trades, s.mult, s.rho)
    np.testing.assert_array_equal(aux[PAIR], trades[PAIR])
    np.testing.assert_array_equal(aux[RAIP], trades[RAIP])
    mult = lambda_update(s.mult, aux, trades, s.rho)
    np.testing.assert_array_equal(mult[PAIR], s.mult[PAIR])


def test_auxiliary_update_hand_numbers():
    # rho=2, p_uv=0.5, p_vu=0.1, lam_uv=0.2, lam_vu=-0.4:
    # (2*(0.5-0.1) - (0.2+0.4)) / 4 = 0.05
    s = pair_state(rho=2.0, mult_uv=0.2, mult_vu=-0.4)
    trades = pair_array(0.5, 0.1)
    aux = dual_update(trades, s.mult, s.rho)
    assert aux[PAIR][0] == pytest.approx(0.05, abs=1e-12)
    assert aux[RAIP][0] == pytest.approx(-0.05, abs=1e-12)


def test_multiplier_update_hand_numbers():
    # lam = 0 + 1 * (0.05 - 0.5) = -0.45
    s = pair_state(rho=1.0)
    trades = pair_array(0.5, -0.5)
    aux = pair_array(0.05, -0.05)
    mult = lambda_update(s.mult, aux, trades, s.rho)
    assert mult[PAIR][0] == pytest.approx(-0.45, abs=1e-12)


def test_gap_counts_every_ordered_pair():
    s = pair_state()
    s.aux = pair_array(0.001, -0.001)
    rep = convergence(s, s.mult.copy(), 1e-6, 1e-6)
    assert rep.primal_gap == pytest.approx(0.002, abs=1e-15)
    assert rep.dual_gap == 0.0
    assert not rep.converged


def test_exact_agreement_converges():
    s = pair_state()
    rep = convergence(s, s.mult.copy(), 1e-6, 1e-6)
    assert rep.primal_gap == 0.0 and rep.dual_gap == 0.0
    assert rep.converged


def test_missing_pair_is_a_protocol_error():
    # a trade map without one of the sender's peers never enters a round
    chain = Chain(["u", "v", "w"], ["a0"], 1)
    with pytest.raises(TxRejected, match="must cover exactly"):
        chain.submit_tx(trading_tx("u", 0, {"v": [0.0]}))
    # and a round with a household's trades missing cannot be updated
    contract = ContractState(["u", "v"], 1, 1.0, {})
    contract.set_trading("u", {"v": np.zeros(1)})
    with pytest.raises(ContractError, match="missing trades from v"):
        contract.compute_dual()
    assert contract.round == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=4),
       st.lists(st.floats(-50, 50), min_size=1, max_size=4),
       st.floats(0.1, 10))
def test_auxiliary_antisymmetry_is_exact(a, b, rho):
    H = min(len(a), len(b))
    s = pair_state(rho=rho, H=H)
    trades = pair_array(a[:H], b[:H])
    aux = dual_update(trades, s.mult, s.rho)
    assert np.all(aux[PAIR] + aux[RAIP] == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
def test_stationary_multipliers_force_consistency(x, y):
    # The multiplier step is zero only where aux == trades, and the
    # antisymmetric aux can equal the trades only if they net out.
    s = pair_state()
    trades = pair_array(x, y)
    aux = dual_update(trades, s.mult, s.rho)
    mult = lambda_update(s.mult, aux, trades, s.rho)
    stationary = (np.all(mult[PAIR] == s.mult[PAIR])
                  and np.all(mult[RAIP] == s.mult[RAIP]))
    assert stationary == (x + y == 0.0)


def test_slice_shows_one_households_rows_only():
    s = ContractState(["a", "b", "c"], 2, 1.0, {})
    s.mult[0, 1] = [1.0, 2.0]
    s.mult[1, 0] = [9.0, 9.0]
    sl = s.read_dual("a")
    assert set(sl.aux) == {"b", "c"}
    np.testing.assert_array_equal(sl.mult["b"], [1.0, 2.0])
    sl.mult["b"][0] = -5.0
    assert s.mult[0, 1, 0] == 1.0


def run_loop(profiles, tariff, cfg=None):
    cfg = cfg or AlgoConfig()
    transport = ChainTransport(profiles, tariff, cfg)
    return run_decentralized(transport), transport


def test_households_with_nothing_to_gain_stop_at_once():
    # Two bare profiles: no load, no generation.  The first round already
    # produces (numerically) zero trades, so the loop converges at
    # iteration 1; trade dust is bounded by the inner solver tolerance.
    a = toy_profile("u1", H=2)
    b = toy_profile("u2", H=2)
    res, _ = run_loop([a, b], toy_tariff(2))
    assert res.converged and res.iterations == 1
    for s in res.schedules.values():
        for vec in s.trades.values():
            assert np.max(np.abs(vec)) <= 1e-7


def test_surplus_pair_full_loop():
    profiles = surplus_pair(H=4)
    tariff = toy_tariff(4, pi_fit=0.1)
    res, transport = run_loop(profiles, tariff)
    assert res.converged and res.feasible
    assert res.trade_residual <= 1e-4
    assert res.trace[-1].iteration == res.iterations
    assert res.trace[-1].primal_gap <= 1e-6
    # one block per round, and the contract finished on the last round
    assert transport.chain.height == res.iterations > 2
    assert transport.chain.state().round == res.iterations
    # the consumer ends up buying from the producer
    assert float(np.sum(res.schedules["ub"].trades["ua"])) > 0.1


def test_single_household_is_rejected():
    with pytest.raises(InvalidInput):
        ChainTransport([toy_profile()], toy_tariff(4), AlgoConfig())


def test_failed_subproblem_names_the_household(monkeypatch):
    monkeypatch.setattr(qp, "ITER_LIMIT", 1)
    monkeypatch.setattr(qp, "CHECK_EVERY", 1)
    profiles = surplus_pair(H=4)
    tariff = toy_tariff(4, pi_fit=0.1)
    with pytest.raises(AgentSolveError) as err:
        run_loop(profiles, tariff)
    # the first agent in the round's delivery order solves first
    assert err.value.user == "ub"
