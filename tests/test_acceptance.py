"""Top-level acceptance checks for the full pipeline.

Each test prints one pass/fail line for its criterion (visible with -s,
and implied by the test outcome under -v).  The heavyweight runs are
shared through module-scoped fixtures: a survey of twenty small random
scenarios and one ten-user complementary scenario.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from qp_oracle import brute_force_qp, random_bounded_qp

from vppsim.chain import ContractState, replay
from vppsim.coordinator import dual_update, lambda_update
from vppsim.experiment import (centralized_day, day_profile, day_tariff,
                               run_compare, run_co, run_sa)
from vppsim.model import (CO, InvalidInput, Schedule, check_feasibility,
                          cost_breakdown)
from vppsim.qp import OPTIMAL, QpSolver, kkt_residuals
from vppsim.scenario_io import gen_synthetic

SURVEY_SEEDS = range(20)

CONSTRAINT_FAMILIES = {
    "renewable", "grid", "temperature", "flex_total", "flex_slot",
    "battery_level", "charge_rate", "discharge_rate", "fit_nonneg",
    "fit_cap", "dr_cap", "as_cap", "balance", "ac_nonneg", "peak",
    "trade_self", "trade_cap",
}


def _emit(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def survey():
    """Twenty random small scenarios: trading run, oracle, standalone."""
    records = []
    for seed in SURVEY_SEEDS:
        sc = gen_synthetic(seed=seed, users=2 + (seed % 2))
        t0 = time.perf_counter()
        co = run_co(sc, settle=False)
        elapsed = time.perf_counter() - t0
        sa = run_sa(sc)
        oracle_obj, _ = centralized_day(sc, 0)
        co_total = float(sum(co.costs.values()))
        gap = abs(co_total - oracle_obj) / max(1.0, abs(oracle_obj))
        records.append({
            "seed": seed, "scenario": sc, "co": co, "sa": sa,
            "oracle": oracle_obj, "co_total": co_total,
            "sa_total": float(sum(sa.costs.values())),
            "gap": gap, "elapsed": elapsed,
        })
    return records


@pytest.fixture(scope="module")
def big_run():
    """Ten complementary households, thresholds at 1e-6, budget 1000."""
    sc = gen_synthetic(seed=7, users=10, complementary=True)
    sc = replace(sc, algo=replace(sc.algo, rho=1.0, eps1=1e-6,
                                  eps2=1e-6, max_iter=1000))
    cmp = run_compare(sc)
    return sc, cmp


def test_criterion_1_trading_matches_the_centralized_oracle(survey):
    worst_gap = max(r["gap"] for r in survey)
    slowest = max(r["elapsed"] for r in survey)
    all_converged = all(r["co"].converged for r in survey)
    ok = all_converged and worst_gap <= 1e-3 and slowest <= 60.0
    _emit(1, ok,
          f"20 scenarios, worst relative gap {worst_gap:.2e} "
          f"(limit 1e-3), slowest run {slowest:.1f}s (limit 60s), "
          f"all converged: {all_converged}")


def test_criterion_2_cooperation_dominates_standing_alone(survey, big_run):
    margin = float("inf")
    for r in survey:
        scale = max(1.0, abs(r["sa_total"]))
        margin = min(margin, r["sa_total"] + 1e-6 * scale - r["co_total"])
    _, cmp = big_run
    sa_total = sum(cmp.sa.costs.values())
    co_total = sum(cmp.co.costs.values())
    margin = min(margin,
                 sa_total + 1e-6 * max(1.0, abs(sa_total)) - co_total)
    reduction = cmp.aggregate_reduction_pct
    ok = margin >= 0.0 and reduction >= 5.0
    _emit(2, ok,
          f"summed CO cost below SA on all 21 scenarios (worst margin "
          f"{margin:.3e}); 10-user aggregate reduction {reduction:.1f}% "
          f"(needs >= 5%)")


def test_criterion_3_ten_users_converge_within_budget(big_run):
    _, cmp = big_run
    iters = cmp.co.iterations[0] if cmp.co.iterations else None
    ok = cmp.co.converged and iters is not None and iters <= 1000
    _emit(3, ok,
          f"10-user run converged in {iters} iterations "
          f"(budget 1000, thresholds 1e-6, rho 1)")


def test_criterion_4_trades_agree_across_every_pair(survey, big_run):
    worst = max(r["co"].trade_residual for r in survey)
    _, cmp = big_run
    worst = max(worst, cmp.co.trade_residual)
    # antisymmetry of the auxiliary update, exact, on random inputs
    rng = np.random.default_rng(0)
    exact = True
    mult = np.zeros((3, 3, 6))
    off = ~np.eye(3, dtype=bool)
    for _ in range(500):
        mult[off] = rng.normal(size=(6, 6))
        trades = np.zeros_like(mult)
        trades[off] = rng.normal(size=(6, 6))
        aux = dual_update(trades, mult, 1.0)
        if not np.all(aux + aux.transpose(1, 0, 2) == 0.0):
            exact = False
    # and on the contract state the big run actually committed
    final = cmp.co.transports[0].chain.state()
    if not np.all(final.aux + final.aux.transpose(1, 0, 2) == 0.0):
        exact = False
    ok = worst <= 1e-4 and exact
    _emit(4, ok,
          f"worst |p_uv + p_vu| = {worst:.2e} kWh (limit 1e-4); "
          f"auxiliary antisymmetry exact on 500 random updates "
          f"and the committed 10-user state: {exact}")


def test_criterion_5_converged_schedules_are_feasible(survey, big_run):
    runs_ok = all(r["co"].feasible and r["sa"].feasible for r in survey)
    sc, cmp = big_run
    tariff = day_tariff(sc.tariff, 0, sc.horizon.slots)
    cap = max(u.fuse_limit for u in sc.users)
    recheck = True
    for u in sc.users:
        p = day_profile(u, 0, sc.horizon.slots)
        s = cmp.co.schedules[u.user_id][0]
        report = check_feasibility(s, p, tariff, CO, tol=1e-6,
                                   trade_cap=cap)
        recheck &= report.ok
    families_ok = len(CONSTRAINT_FAMILIES) == 17
    ok = runs_ok and recheck and cmp.co.feasible and families_ok
    _emit(5, ok,
          f"all converged schedules pass at tol 1e-6 "
          f"(survey: {runs_ok}, 10-user recheck: {recheck}); "
          f"{len(CONSTRAINT_FAMILIES)} constraint families covered")


def test_criterion_6_solver_agrees_with_brute_force():
    worst_rel = 0.0
    worst_kkt = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        prob = random_bounded_qp(rng)
        ref_obj, _ = brute_force_qp(prob)
        sol = QpSolver(prob).solve()
        assert sol.status == OPTIMAL, f"seed {seed}: {sol.status}"
        worst_rel = max(worst_rel, abs(sol.objective - ref_obj)
                        / max(1.0, abs(ref_obj)))
        worst_kkt = max(worst_kkt, max(kkt_residuals(prob, sol).values()))
    ok = worst_rel <= 1e-6 and worst_kkt <= 1e-8
    _emit(6, ok,
          f"200 random QPs (n <= 10): worst relative objective gap "
          f"{worst_rel:.2e} (limit 1e-6), worst KKT residual "
          f"{worst_kkt:.2e} (limit 1e-8)")


def test_criterion_7_the_ledger_replays_deterministically(tmp_path,
                                                          survey, big_run):
    _, cmp = big_run
    chains = [cmp.co.transports[0].chain,
              survey[0]["co"].transports[0].chain]
    blocks = 0
    byte_exact = True
    for i, chain in enumerate(chains):
        path = tmp_path / f"chain{i}.log"
        chain.save_log(path)
        # the root digests every byte of contract storage, so equal
        # roots are equal states
        byte_exact &= replay(path).root() == chain.state().root()
        blocks += chain.height
    # contract arithmetic against the pure update functions
    rng = np.random.default_rng(1)
    users, H, rho = ["a", "b", "c"], 4, 1.0
    shape = (len(users), len(users), H)
    off = ~np.eye(len(users), dtype=bool)
    contract = ContractState(users, H, rho, {})
    mult = np.zeros(shape)
    bitwise = True
    for _ in range(1000):
        trades = np.zeros(shape)
        trades[off] = rng.normal(size=(off.sum(), H))
        for i, u in enumerate(users):
            contract.set_trading(u, {v: trades[i, j]
                                     for j, v in enumerate(users) if j != i})
        contract.compute_dual()
        aux = dual_update(trades, mult, rho)
        mult = lambda_update(mult, aux, trades, rho)
        bitwise &= contract.aux.tobytes() == aux.tobytes()
        bitwise &= contract.mult.tobytes() == mult.tobytes()
    ok = byte_exact and bitwise and contract.round == 1000
    _emit(7, ok,
          f"replayed {blocks} blocks byte-exactly: {byte_exact}; "
          f"contract equals the pure coordinator bit-for-bit over "
          f"1000 random rounds: {bitwise}")


def test_criterion_8_settlement_conserves_every_token(big_run):
    sc, cmp = big_run
    transfers = cmp.co.settlements[0]
    chain = cmp.co.transports[0].chain
    users = set(u.user_id for u in sc.users)
    tariff = day_tariff(sc.tariff, 0, sc.horizon.slots)

    # signed sum over peer-to-peer transfers, accumulated pairwise so
    # each amount cancels itself exactly
    p2p_sum = 0.0
    outflow = 0.0
    for tx in transfers:
        src, dst = tx.payload["from"], tx.payload["to"]
        amount = tx.payload["amount"]
        if src in users and dst in users:
            p2p_sum += amount - amount
        elif src == "operator":
            outflow += amount
    expected_rewards = 0.0
    for u in sc.users:
        s = cmp.co.schedules[u.user_id][0]
        expected_rewards += float(
            tariff.pi_fit * np.sum(s.e_fit)
            + np.dot(np.asarray(tariff.pi_dr, float), s.e_dr)
            + np.dot(np.asarray(tariff.pi_as, float), s.e_as))
    reward_err = abs(outflow - expected_rewards)
    balances = chain.state().balances
    total_drift = abs(sum(balances.values())
                      - (1e6 + 100.0 * len(users)))
    ok = p2p_sum == 0.0 and reward_err <= 1e-9 and total_drift <= 1e-6
    _emit(8, ok,
          f"signed P2P transfer sum {p2p_sum!r} (must be 0 exactly); "
          f"operator outflow off by {reward_err:.2e} (limit 1e-9); "
          f"total token drift {total_drift:.2e}")


def test_criterion_9_only_trades_services_and_payments_leave_an_agent(
        survey, big_run):
    _, cmp = big_run
    chains = [cmp.co.transports[0].chain] \
        + [r["co"].transports[0].chain for r in survey]
    allowed = {
        "trading": {"user", "trades"},
        "service": {"e_fit", "e_dr", "e_as"},
        "transfer": {"from", "to", "amount"},
    }
    state_keys = {"users", "horizon", "rho", "round", "trades", "aux",
                  "mult", "balances", "services", "submitted"}
    checked = 0
    clean = True
    for chain in chains:
        users = set(chain.state().users)
        for block in chain.blocks:
            for tx in block.txs:
                checked += 1
                if tx.kind not in allowed \
                        or set(tx.payload) != allowed[tx.kind]:
                    clean = False
                if tx.kind == "trading" \
                        and not set(tx.payload["trades"]) <= users:
                    clean = False
        if set(vars(chain.state())) != state_keys:
            clean = False
    ok = clean and checked > 0
    _emit(9, ok,
          f"{checked} transactions across {len(chains)} chains carry "
          f"only trade vectors, service quantities, or payments; "
          f"contract state holds only coordination fields")
