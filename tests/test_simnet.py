"""Simulated-network rounds: latency, ordering, timeouts, chain parity."""

import hashlib

import numpy as np
import pytest
from conftest import surplus_pair, toy_tariff

from vppsim.agent import AgentRuntime, resolve_trade_cap
from vppsim.chain import (Chain, ContractState, TxFailed, TxRejected,
                          trading_tx)
from vppsim.coordinator import AlgoConfig, convergence, run_decentralized
from vppsim.experiment import run_co
from vppsim.model import Schedule
from vppsim.scenario_io import gen_synthetic
from vppsim.simnet import (ChainTransport, NetConfig, RoundTimeout,
                           SimError, run_round, write_events)


def make_agents(profiles, tariff, rho=1.0, cap=10.0):
    ids = [p.user_id for p in profiles]
    return {p.user_id: AgentRuntime(p, tariff,
                                    [v for v in ids if v != p.user_id],
                                    rho, cap)
            for p in profiles}


class ScriptedAgent:
    """Answers its dual slice with seeded trades.  It solves no QP, so its
    rounds do not depend on the BLAS thread count."""

    def __init__(self, peers, seed, H=4):
        self.peers = tuple(peers)
        self.rng = np.random.default_rng(seed)
        self.H = H
        self.solves = 0

    def solve_round(self, dual):
        self.solves += 1
        return {v: 0.5 * dual.aux[v] + self.rng.normal(0.0, 0.3, self.H)
                for v in self.peers}


def scripted_agents(ids):
    return {u: ScriptedAgent([v for v in ids if v != u], i)
            for i, u in enumerate(ids)}


def three_profiles(H=2):
    a, b = surplus_pair(H)
    from conftest import toy_profile
    c = toy_profile("uc", H, renewable=0.5, inflexible=0.5)
    return [a, b, c]


def test_config_rejects_timeouts_inside_the_latency_band():
    with pytest.raises(SimError):
        NetConfig(latency=(1, 5), timeout=5)
    with pytest.raises(SimError):
        NetConfig(latency=5, timeout=5)
    # inverted ranges and negative delays are refused up front
    for bad in [(5, 1), (-3, 2), -2]:
        with pytest.raises(SimError):
            NetConfig(latency=bad, timeout=10)
    NetConfig(latency=(1, 5), timeout=6)
    NetConfig(latency=0, timeout=1)


def test_one_round_collects_every_trade_then_seals():
    profiles = three_profiles()
    tariff = toy_tariff(2, pi_fit=0.1)
    agents = make_agents(profiles, tariff)
    chain = Chain(sorted(agents), ["a0"], 2)
    events = []
    out = run_round(0, agents, chain, NetConfig(latency=1, timeout=10),
                    np.random.default_rng(0), events=events)
    assert chain.state().round == 1
    assert len(out.block.txs) == 3
    # every ordered pair of the sealed payloads, as the contract stored it
    trades = chain.state().trades
    assert trades.shape == (3, 3, 2)
    rows = {tx.sender: tx.payload["trades"] for tx in out.block.txs}
    users = sorted(agents)
    for i, u in enumerate(users):
        assert not trades[i, i].any()
        for j, v in enumerate(users):
            if v != u:
                assert trades[i, j].tobytes() == \
                    np.array(rows[u][v]).tobytes()
    kinds = [ev.kind for ev in events]
    assert kinds.count("deliver") == 3
    assert kinds.count("solve") == 3
    assert kinds.count("arrive") == 3
    assert kinds[-1] == "block"


def test_arrival_order_never_changes_the_contract():
    roots = []
    for seed in (0, 99):
        profiles = three_profiles()
        tariff = toy_tariff(2, pi_fit=0.1)
        agents = make_agents(profiles, tariff)
        chain = Chain(sorted(agents), ["a0"], 2)
        run_round(0, agents, chain, NetConfig(latency=(1, 5), timeout=11),
                  np.random.default_rng(seed))
        roots.append(chain.state().root())
    assert roots[0] == roots[1]


def test_round_guards_catch_stale_callers():
    profiles = surplus_pair(2)
    tariff = toy_tariff(2, pi_fit=0.1)
    agents = make_agents(profiles, tariff)
    chain = Chain(sorted(agents), ["a0"], 2)
    with pytest.raises(SimError):
        run_round(1, agents, chain, NetConfig(latency=1, timeout=5),
                  np.random.default_rng(0))
    with pytest.raises(SimError):
        run_round(0, {"ua": agents["ua"]}, chain,
                  NetConfig(latency=1, timeout=5),
                  np.random.default_rng(0))


def test_slow_link_times_out_naming_the_agent():
    profiles = surplus_pair(2)
    tariff = toy_tariff(2, pi_fit=0.1)
    agents = make_agents(profiles, tariff)
    chain = Chain(sorted(agents), ["a0"], 2)
    # two hops of 4 ticks overshoot the 6-tick deadline
    with pytest.raises(RoundTimeout) as err:
        run_round(0, agents, chain, NetConfig(latency=4, timeout=6),
                  np.random.default_rng(0))
    assert err.value.agent == "ua"
    assert err.value.deadline == 6


def test_timed_out_round_leaves_the_chain_as_it_found_it():
    ids = ["u01", "u02", "u03"]
    agents = scripted_agents(ids)
    chain = Chain(ids, ["a0"], 4)
    root = chain.state().root()
    events = []
    # u01's transaction would land at tick 9; u02's and u03's at 5 and 3
    with pytest.raises(RoundTimeout) as err:
        run_round(0, agents, chain, NetConfig(latency=(1, 5), timeout=6),
                  np.random.default_rng(0), events=events)
    assert (err.value.agent, err.value.deadline) == ("u01", 6)
    assert [agents[u].solves for u in ids] == [0, 0, 0]
    assert [chain.next_nonce(u) for u in ids] == [0, 0, 0]
    assert events == []
    assert chain.height == 0 and chain.state().root() == root
    # the retry seals this round's trades only, one per agent
    out = run_round(0, agents, chain, NetConfig(latency=1, timeout=10),
                    np.random.default_rng(0), events=events)
    assert [(tx.sender, tx.nonce) for tx in out.block.txs] == \
        [(u, 0) for u in ids]
    state = chain.state()
    assert state.round == 1 and state.submitted == set()


def test_round_that_fails_to_apply_logs_no_event():
    ids = ["u1", "u2"]
    agents = scripted_agents(ids)
    chain = Chain(ids, ["a0"], 4)
    # u1 has already sent its round-0 trades, in a block of their own
    chain.produce_block([trading_tx("u1", 0, {"u2": np.zeros(4)})])
    marks = (chain.height, chain.tip(), [chain.next_nonce(u) for u in ids])
    events = []
    with pytest.raises(TxFailed, match="u1 already submitted"):
        run_round(0, agents, chain, NetConfig(latency=1, timeout=10),
                  np.random.default_rng(0), events=events)
    assert events == []
    assert (chain.height, chain.tip(),
            [chain.next_nonce(u) for u in ids]) == marks


class ShortAgent(ScriptedAgent):
    """Answers with vectors one slot short of the chain's horizon."""

    def solve_round(self, dual):
        return {v: vec[:-1] for v, vec in super().solve_round(dual).items()}


def test_refused_round_leaves_the_chain_and_nonces_as_they_were():
    ids = ["u1", "u2", "u3"]
    agents = scripted_agents(ids)
    agents["u3"] = ShortAgent(["u1", "u2"], 2)
    chain = Chain(ids, ["a0"], 4)
    tip = chain.tip()
    events = []
    # u3's transaction arrives last, after u1's and u2's
    with pytest.raises(TxRejected, match="must hold 4 numbers"):
        run_round(0, agents, chain, NetConfig(latency=1, timeout=10),
                  np.random.default_rng(0), events=events)
    assert events == []
    assert [chain.next_nonce(u) for u in ids] == [0, 0, 0]
    assert chain.height == 0 and chain.tip() == tip
    # the retried round seals this round's trades only, one per agent
    agents["u3"] = ScriptedAgent(["u1", "u2"], 2)
    out = run_round(0, agents, chain, NetConfig(latency=1, timeout=10),
                    np.random.default_rng(0), events=events)
    assert [(tx.sender, tx.nonce) for tx in out.block.txs] == \
        [(u, 0) for u in ids]
    assert chain.state().round == 1


def test_scripted_rounds_give_a_pinned_event_log(tmp_path):
    # ticks, kinds, order and refs of five rounds with same-tick
    # deliveries and arrivals, as the event-heap simulation wrote them
    ids = [f"u{i:02d}" for i in range(1, 7)]
    agents = scripted_agents(ids)
    chain = Chain(ids, ["a0", "a1"], 4)
    rng = np.random.default_rng(7)
    events, tick = [], 0
    for k in range(5):
        tick = run_round(k, agents, chain,
                         NetConfig(latency=(1, 5), timeout=11), rng,
                         start_tick=tick, events=events).end_tick + 1
    path = tmp_path / "events.log"
    write_events(events, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "4c0a5ba22af95deb10c409e1cb350cc733832e189e2f19ae2a0d4283be057560"


def test_arrival_exactly_at_the_deadline_still_counts():
    profiles = surplus_pair(2)
    tariff = toy_tariff(2, pi_fit=0.1)
    agents = make_agents(profiles, tariff)
    chain = Chain(sorted(agents), ["a0"], 2)
    out = run_round(0, agents, chain, NetConfig(latency=3, timeout=6),
                    np.random.default_rng(0))
    assert out.end_tick == 6
    assert chain.state().round == 1


def test_exchange_returns_the_committed_state_itself():
    # the loop's state is the chain's committed storage, not a copy of it
    transport = ChainTransport(surplus_pair(2), toy_tariff(2, pi_fit=0.1),
                               AlgoConfig())
    for rounds in (1, 2, 3):
        state = transport.exchange()
        assert state is transport.chain.state()
        assert state.round == rounds == transport.chain.height


def test_same_seed_reproduces_the_event_log_exactly():
    logs = []
    for _ in range(2):
        profiles = surplus_pair(2)
        tariff = toy_tariff(2, pi_fit=0.1)
        cfg = AlgoConfig()
        transport = ChainTransport(profiles, tariff, cfg,
                                   net=NetConfig(seed=42))
        res = run_decentralized(transport)
        assert res.converged
        logs.append(list(transport.events))
    assert logs[0] == logs[1]


def test_networked_run_matches_the_in_process_run():
    # Feeding the contract directly, with no network, transactions or
    # blocks, must give the networked run's gaps, costs and final state
    # bit for bit.
    sc = gen_synthetic(seed=1, users=3, slots=8, complementary=True)
    profiles, tariff, cfg = sc.users, sc.tariff, sc.algo
    transport = ChainTransport(profiles, tariff, cfg)
    networked = run_decentralized(transport)
    assert networked.converged and networked.iterations > 2
    agents = make_agents(profiles, tariff, cfg.rho,
                         resolve_trade_cap(cfg.trade_cap, profiles))
    contract = ContractState(sorted(agents), profiles[0].horizon, cfg.rho,
                             {})
    for rec in networked.trace:
        prev_mult = contract.mult
        for u, agent in agents.items():
            contract.set_trading(u, agent.solve_round(contract.read_dual(u)))
        contract.compute_dual()
        rep = convergence(contract, prev_mult, cfg.eps1, cfg.eps2)
        assert (rec.primal_gap, rec.dual_gap) == (rep.primal_gap,
                                                  rep.dual_gap)
        assert rec.costs == {u: a.cost for u, a in agents.items()}
    committed = transport.chain.state()
    assert contract.round == committed.round == networked.iterations
    for name in ("trades", "aux", "mult"):
        assert (getattr(contract, name).tobytes()
                == getattr(committed, name).tobytes())
    # one block per round
    assert transport.chain.height == networked.iterations


def test_finalize_records_services_then_settles(tmp_path):
    profiles = surplus_pair(2)
    tariff = toy_tariff(2, pi_fit=0.1)
    cfg = AlgoConfig()
    transport = ChainTransport(profiles, tariff, cfg)
    res = run_decentralized(transport)
    assert res.converged
    height = transport.chain.height
    transfers = transport.finalize(res.schedules, tariff)
    state = transport.chain.state()
    assert set(state.services) == {"ua", "ub"}
    assert transport.chain.height >= height + 1
    if transfers:
        buyers = {tx.payload["from"] for tx in transfers}
        assert buyers <= {"ua", "ub", "operator"}
    kinds = {ev.kind for ev in transport.events}
    assert {"service", "settle"} <= kinds
    path = tmp_path / "events.log"
    write_events(transport.events, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# tick\tkind\tnode\tref"
    assert len(lines) == len(transport.events) + 1
    assert all(len(ln.split("\t")) == 4 for ln in lines[1:])


def zero_schedules(slots_ub):
    """All-zero schedules of a 2-slot day, ub's over `slots_ub` slots."""
    return {u: Schedule(g=z, r=z, l_ac=z, l_fl=z, c=z, d=z, e_fit=z,
                        e_dr=z, e_as=z, peak=0.0, trades={})
            for u, z in (("ua", np.zeros(2)), ("ub", np.zeros(slots_ub)))}


def test_refused_service_leaves_the_chain_and_events_as_they_were():
    transport = ChainTransport(surplus_pair(2), toy_tariff(2, pi_fit=0.1),
                               AlgoConfig())
    # ua's commitments are fine; ub's cover three slots of a 2-slot day
    schedules = zero_schedules(3)
    with pytest.raises(TxRejected, match="service vector e_fit"):
        transport.finalize(schedules, toy_tariff(2, pi_fit=0.1))
    assert transport.events == []
    assert transport.chain.next_nonce("ua") == 0
    assert transport.chain.height == 0


def test_a_retried_finalize_logs_the_ticks_of_a_fresh_one():
    tariff = toy_tariff(2, pi_fit=0.1)
    retried, fresh = (ChainTransport(surplus_pair(2), tariff, AlgoConfig())
                      for _ in range(2))
    with pytest.raises(TxRejected):
        retried.finalize(zero_schedules(3), tariff)
    retried.finalize(zero_schedules(2), tariff)
    fresh.finalize(zero_schedules(2), tariff)
    assert [ev.kind for ev in fresh.events] == \
        ["service", "service", "block", "settle"]
    assert retried.events == fresh.events
    assert retried.tick == fresh.tick


def test_a_retried_round_logs_the_ticks_of_a_fresh_one():
    ids = ["u1", "u2", "u3"]
    net = NetConfig(latency=(1, 5), timeout=20)
    logs = []
    for refuse_first in (True, False):
        agents = scripted_agents(ids)
        chain = Chain(ids, ["a0"], 4)
        rng = np.random.default_rng(0)
        events = []
        if refuse_first:
            short = {**agents, "u3": ShortAgent(["u1", "u2"], 2)}
            with pytest.raises(TxRejected):
                run_round(0, short, chain, net, rng, events=events)
        run_round(0, agents, chain, net, rng, events=events)
        logs.append([(ev.tick, ev.kind, ev.node) for ev in events])
    assert logs[0] == logs[1]


def test_every_event_ref_names_an_address_in_the_days_chain_log():
    sc = gen_synthetic(seed=1, users=2, slots=8, complementary=True)
    run = run_co(sc)
    assert run.converged and len(run.transports) == sc.days
    for transport in run.transports:
        genesis, *blocks = transport.chain.records
        digests = {b["digest"] for b in blocks}
        txids = {tx["txid"] for b in blocks for tx in b["txs"]}
        names = {"deliver": digests | {genesis["state_root"]},
                 "solve": txids, "arrive": txids, "service": txids,
                 "block": digests, "settle": digests | {"none"}}
        assert {ev.kind for ev in transport.events} == set(names)
        assert all(ev.ref in names[ev.kind] for ev in transport.events)
        # the first delivery reads the genesis state
        first = next(ev for ev in transport.events if ev.kind == "deliver")
        assert first.ref == genesis["state_root"]


def test_event_writer_round_trips_fields(tmp_path):
    from vppsim.simnet import EventRecord
    events = [EventRecord(3, "deliver", "ua", "abc"),
              EventRecord(5, "block", "auth0", "def")]
    path = tmp_path / "ev.log"
    write_events(events, path)
    body = path.read_text().splitlines()[1:]
    assert body == ["3\tdeliver\tua\tabc", "5\tblock\tauth0\tdef"]
