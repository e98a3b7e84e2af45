"""Simulated-network rounds: latency, ordering, timeouts, chain parity."""

import numpy as np
import pytest
from conftest import surplus_pair, toy_tariff

from vppsim.agent import AgentRuntime
from vppsim.chain import Chain
from vppsim.coordinator import (AlgoConfig, LocalTransport,
                                run_decentralized, stack_trades)
from vppsim.experiment import run_co
from vppsim.scenario_io import gen_synthetic
from vppsim.simnet import (ChainTransport, NetConfig, RoundTimeout,
                           SimError, run_round, write_events)


def make_agents(profiles, tariff, rho=1.0, cap=10.0):
    ids = [p.user_id for p in profiles]
    return {p.user_id: AgentRuntime(p, tariff,
                                    [v for v in ids if v != p.user_id],
                                    rho, cap)
            for p in profiles}


def three_profiles(H=2):
    a, b = surplus_pair(H)
    from conftest import toy_profile
    c = toy_profile("uc", H, renewable=0.5, inflexible=0.5)
    return [a, b, c]


def test_config_rejects_timeouts_inside_the_latency_band():
    with pytest.raises(SimError):
        NetConfig(latency=(1, 5), timeout=5)
    with pytest.raises(SimError):
        NetConfig(latency=2, timeout=10, overrides={"u": (1, 12)})
    # inverted ranges and negative delays are refused up front
    for bad in [(5, 1), (-3, 2), -2]:
        with pytest.raises(SimError):
            NetConfig(latency=bad, timeout=10)
    with pytest.raises(SimError):
        NetConfig(latency=1, timeout=10, overrides={"u": (4, 3)})
    cfg = NetConfig(latency=(1, 5), timeout=6, overrides={"u": 2})
    assert cfg.max_latency() == 5
    assert cfg.link("u") == 2 and cfg.link("w") == (1, 5)


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
    assert trades.tobytes() == stack_trades(sorted(agents), 2,
                                            rows).tobytes()
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


def test_arrival_exactly_at_the_deadline_still_counts():
    profiles = surplus_pair(2)
    tariff = toy_tariff(2, pi_fit=0.1)
    agents = make_agents(profiles, tariff)
    chain = Chain(sorted(agents), ["a0"], 2)
    out = run_round(0, agents, chain, NetConfig(latency=3, timeout=6),
                    np.random.default_rng(0))
    assert out.end_tick == 6
    assert chain.state().round == 1


def test_same_seed_reproduces_the_event_log_exactly():
    logs = []
    for _ in range(2):
        profiles = surplus_pair(2)
        tariff = toy_tariff(2, pi_fit=0.1)
        cfg = AlgoConfig()
        transport = ChainTransport(profiles, tariff, cfg,
                                   net=NetConfig(seed=42))
        res = run_decentralized(profiles, tariff, cfg, transport=transport)
        assert res.converged
        logs.append(list(transport.events))
    assert logs[0] == logs[1]


def test_networked_run_matches_the_in_process_run():
    # the contract's committed state drives the networked run, so every
    # round's gaps and costs must match the in-process update bit for bit
    sc = gen_synthetic(seed=1, users=3, slots=8, complementary=True)
    profiles, tariff, cfg = sc.users, sc.tariff, sc.algo
    local = run_decentralized(profiles, tariff, cfg,
                              transport=LocalTransport(profiles, tariff,
                                                       cfg))
    transport = ChainTransport(profiles, tariff, cfg)
    networked = run_decentralized(profiles, tariff, cfg,
                                  transport=transport)
    assert local.converged and local.iterations > 2
    assert networked.iterations == local.iterations
    assert networked.trace == local.trace
    assert networked.costs == local.costs
    # one block per round, and the contract finished on the last round
    assert transport.chain.height == networked.iterations
    assert transport.chain.state().round == networked.iterations


def test_chain_with_another_rho_is_refused():
    profiles = surplus_pair(2)
    tariff = toy_tariff(2, pi_fit=0.1)
    chain = Chain(["ua", "ub"], ["a0"], 2, rho=2.0)
    with pytest.raises(SimError):
        ChainTransport(profiles, tariff, AlgoConfig(rho=1.0), chain=chain)
    assert ChainTransport(profiles, tariff, AlgoConfig(rho=2.0),
                          chain=chain).chain is chain


def test_finalize_records_services_then_settles(tmp_path):
    profiles = surplus_pair(2)
    tariff = toy_tariff(2, pi_fit=0.1)
    cfg = AlgoConfig()
    transport = ChainTransport(profiles, tariff, cfg)
    res = run_decentralized(profiles, tariff, cfg, transport=transport)
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
    transport.save_events(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# tick\tkind\tnode\tref"
    assert len(lines) == len(transport.events) + 1
    assert all(len(ln.split("\t")) == 4 for ln in lines[1:])


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
