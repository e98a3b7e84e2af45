"""Ledger mechanics: transactions, blocks, votes, settlement, replay."""

import hashlib

import numpy as np
import pytest
from conftest import toy_tariff
from hypothesis import given, settings
from hypothesis import strategies as st

from vppsim.chain import (Chain, ChainError, ContractError, ContractState,
                          CorruptionError, ProposerError, SettlementError,
                          Transaction, TxRejected, VoteError, _tx_id,
                          canonical, digest, dump_text, load_log, make_tx,
                          pair_key, replay, service_tx, trading_tx,
                          transfer_tx)
from vppsim.cli import main
from vppsim.coordinator import (DualState, dual_update, lambda_update,
                                stack_trades)
from vppsim.model import Schedule


def zero_schedule(H, trades=None, e_fit=None):
    z = np.zeros(H)
    return Schedule(g=z.copy(), r=z.copy(), l_ac=z.copy(), l_fl=z.copy(),
                    c=z.copy(), d=z.copy(),
                    e_fit=np.asarray(e_fit, float) if e_fit is not None
                    else z.copy(),
                    e_dr=z.copy(), e_as=z.copy(), peak=0.0,
                    trades=trades or {})


def small_chain(users=("u", "v"), authorities=("a0",), H=2, rho=1.0):
    return Chain(list(users), list(authorities), H, rho=rho)


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def test_canonical_bytes_are_sorted_and_stable():
    assert canonical({"b": 1, "a": [1.5]}) == b'{"a":[1.5],"b":1}'
    assert canonical({"x": np.array([0.5, 1.0])}) == b'{"x":[0.5,1.0]}'
    assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})


def test_canonical_rejects_non_finite_values():
    with pytest.raises(ValueError):
        canonical({"x": float("nan")})


def test_digest_is_plain_sha256_of_the_bytes():
    obj = {"k": [1.0, 2.0], "m": "s"}
    assert digest(obj) == hashlib.sha256(canonical(obj)).hexdigest()


def test_pair_key_round_trip():
    assert pair_key("u01", "u07") == "u01|u07"
    state = ContractState(["u07", "u01"], 1, 1.0, {})
    assert list(state.payload()["aux"]) == ["u01|u07", "u07|u01"]


def test_tx_id_tracks_content():
    a = make_tx("u", 0, "transfer", {"from": "u", "to": "v", "amount": 1.0})
    b = make_tx("u", 0, "transfer", {"from": "u", "to": "v", "amount": 1.0})
    c = make_tx("u", 0, "transfer", {"from": "u", "to": "v", "amount": 2.0})
    assert a.txid == b.txid
    assert a.txid != c.txid


def test_tampered_tx_is_rejected():
    chain = small_chain()
    good = transfer_tx("u", 0, "v", 1.0)
    forged = Transaction(sender="u", nonce=0, kind="transfer",
                         payload={"from": "u", "to": "v", "amount": 99.0},
                         txid=good.txid)
    with pytest.raises(TxRejected):
        chain.submit_tx(forged)


# ---------------------------------------------------------------------------
# mempool and block production
# ---------------------------------------------------------------------------

def test_genesis_balances_and_log_shape():
    chain = small_chain()
    state = chain.state()
    assert state.balances == {"operator": 1e6, "u": 100.0, "v": 100.0}
    assert chain.records[0]["type"] == "genesis"
    assert chain.records[0]["state_root"] == state.root()
    assert chain.height == 0


def test_nonces_start_at_zero_and_allow_gaps():
    chain = small_chain()
    chain.submit_tx(transfer_tx("u", 0, "v", 1.0))
    with pytest.raises(TxRejected):
        chain.submit_tx(transfer_tx("u", 0, "v", 1.0))
    chain.submit_tx(transfer_tx("u", 5, "v", 1.0))
    with pytest.raises(TxRejected):
        chain.submit_tx(transfer_tx("u", 3, "v", 1.0))
    assert chain.next_nonce("u") == 6
    assert chain.next_nonce("v") == 0


def test_unknown_sender_and_recipient_are_rejected():
    chain = small_chain()
    with pytest.raises(TxRejected):
        chain.submit_tx(transfer_tx("ghost", 0, "v", 1.0))
    with pytest.raises(TxRejected):
        chain.submit_tx(transfer_tx("u", 0, "ghost", 1.0))


def test_only_the_scheduled_proposer_may_seal():
    chain = Chain(["u", "v"], ["a0", "a1"], 2)
    with pytest.raises(ProposerError):
        chain.produce_block("a1")
    b0 = chain.produce_block("a0")
    b1 = chain.produce_block("a1")
    assert (b0.height, b1.height) == (0, 1)
    assert b1.parent == b0.digest
    assert chain.scheduled_proposer() == "a0"


def test_empty_block_leaves_the_state_root_alone():
    chain = small_chain()
    root0 = chain.records[0]["state_root"]
    block = chain.produce_block("a0")
    assert list(block.txs) == []
    assert block.state_root == root0
    assert chain.tip() == block.digest


def test_same_inputs_give_identical_chains():
    def build():
        chain = small_chain()
        chain.submit_tx(transfer_tx("u", 0, "v", 2.5))
        chain.submit_tx(transfer_tx("v", 0, "u", 1.0))
        chain.produce_block("a0")
        chain.submit_tx(trading_tx("u", 1, {"v": [0.5, 0.0]}))
        chain.submit_tx(trading_tx("v", 1, {"u": [0.1, 0.0]}))
        chain.produce_block("a0")
        return chain
    a, b = build(), build()
    assert [blk.digest for blk in a.blocks] == [blk.digest for blk in b.blocks]
    assert a.state().root() == b.state().root()


def test_poison_batch_does_not_commit():
    chain = small_chain()
    chain.submit_tx(trading_tx("u", 0, {"v": [0.5, 0.0]}))
    chain.submit_tx(trading_tx("u", 1, {"v": [0.7, 0.0]}))
    with pytest.raises(ContractError):
        chain.produce_block("a0")
    assert chain.height == 0
    assert chain.state().round == 0


# ---------------------------------------------------------------------------
# the coordination contract
# ---------------------------------------------------------------------------

def test_completed_round_runs_the_dual_update_on_chain():
    chain = small_chain(rho=1.0)
    chain.submit_tx(trading_tx("u", 0, {"v": [0.5, 0.0]}))
    state = chain.state()
    assert state.round == 0 and state.submitted == set()
    chain.submit_tx(trading_tx("v", 0, {"u": [0.1, 0.0]}))
    chain.produce_block("a0")
    state = chain.state()
    assert state.round == 1
    assert state.submitted == set()
    np.testing.assert_array_equal(state.aux[0, 1], [0.2, 0.0])
    np.testing.assert_array_equal(state.aux[1, 0], [-0.2, 0.0])
    np.testing.assert_allclose(state.mult[0, 1], [-0.3, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(state.mult[1, 0], [-0.3, 0.0],
                               atol=1e-15)


def test_contract_matches_coordinator_bit_for_bit():
    rng = np.random.default_rng(0)
    users, H, rho = ["a", "b", "c"], 4, 1.0
    contract = ContractState(users, H, rho, {})
    mirror = DualState.zeros(users, H, rho)
    for k in range(50):
        rows = {u: {v: rng.normal(size=H) for v in users if v != u}
                for u in users}
        for u in users:
            contract.call("set_trading", user=u, trades=rows[u])
        contract.call("compute_dual")
        trades = stack_trades(users, H, rows)
        aux = dual_update(trades, mirror)
        mult = lambda_update(mirror, aux, trades)
        mirror = DualState(users=mirror.users, aux=aux, mult=mult, rho=rho,
                           iteration=k + 1)
        assert contract.aux.tobytes() == mirror.aux.tobytes()
        assert contract.mult.tobytes() == mirror.mult.tobytes()
    assert contract.round == 50


def test_fixed_history_has_a_pinned_state_root():
    # Two scripted trading rounds and one transfer; no QP runs, so the
    # root depends on nothing but the contract arithmetic and the record
    # format.  Slot 0 trades exactly +0.0 both ways, which leaves +0.0
    # above and -0.0 below the diagonal of the auxiliary trades: the root
    # pins that sign.
    users = ["a", "b", "c"]
    chain = Chain(users, ["a0"], 3, rho=1.5)
    for k in range(2):
        for i, u in enumerate(users):
            chain.submit_tx(trading_tx(u, k, {
                v: [0.3 * (i - j) + 0.1 * k - 0.07 * t if t else 0.0
                    for t in range(3)]
                for j, v in enumerate(users) if v != u}))
        chain.produce_block("a0")
    chain.submit_tx(transfer_tx("a", 2, "b", 12.5))
    chain.produce_block("a0")
    assert chain.state().round == 2
    assert chain.blocks[-1].state_root == (
        "6f77d6ef4a1d5549bac0ca14401e710dc7e922272c55b96d36f60cdf327d7743")
    assert chain.tip() == (
        "2c82952df48e4226b1cf8461d4d5c69c8e727075c9cf759e7c7545bab045941c")


def test_read_is_the_only_direct_contract_call():
    chain = Chain(["a", "b", "c"], ["a0"], 2)
    sl = chain.contract_call("read_dual", user="a")
    assert set(sl.aux) == {"b", "c"}
    with pytest.raises(ContractError):
        chain.contract_call("set_trading", user="a", trades={})
    with pytest.raises(ContractError):
        chain.contract_call("compute_dual")


def test_incomplete_round_cannot_advance():
    contract = ContractState(["u", "v"], 2, 1.0, {})
    contract.call("set_trading", user="u", trades={"v": [0.5, 0.0]})
    with pytest.raises(ContractError) as err:
        contract.call("compute_dual")
    assert "v" in str(err.value)


def test_service_vectors_are_stored():
    chain = small_chain()
    chain.submit_tx(service_tx("u", 0, [1.0, 0.0], [0.0, 0.0], [0.0, 2.0]))
    chain.produce_block("a0")
    state = chain.state()
    np.testing.assert_array_equal(state.services["u"]["e_fit"], [1.0, 0.0])
    np.testing.assert_array_equal(state.services["u"]["e_as"], [0.0, 2.0])


# ---------------------------------------------------------------------------
# committee membership
# ---------------------------------------------------------------------------

def test_majority_vote_changes_the_committee():
    auths = [f"a{i}" for i in range(5)]
    chain = Chain(["u", "v"], auths, 2)
    votes = {"a0": True, "a1": True, "a2": True, "a3": False, "a4": False}
    assert chain.vote_membership("add", "a5", "a0", votes)
    chain.produce_block("a0")
    assert chain.authorities() == tuple(auths + ["a5"])
    assert any(r.get("type") == "committee" for r in chain.records)


def test_minority_vote_changes_nothing():
    auths = [f"a{i}" for i in range(4)]
    chain = Chain(["u", "v"], auths, 2)
    votes = {"a0": True, "a1": True, "a2": False, "a3": False}
    assert not chain.vote_membership("remove", "a3", "a0", votes)
    chain.produce_block("a0")
    assert chain.authorities() == tuple(auths)


def test_outsider_votes_do_not_count():
    chain = Chain(["u", "v"], ["a0", "a1", "a2"], 2)
    votes = {"a0": True, "x1": True, "x2": True}
    assert not chain.vote_membership("add", "a3", "a0", votes)
    with pytest.raises(VoteError):
        chain.vote_membership("add", "a3", "x1", votes)


def test_vote_guards():
    chain = Chain(["u", "v"], ["a0"], 2)
    with pytest.raises(VoteError):
        chain.vote_membership("add", "a0", "a0", {"a0": True})
    with pytest.raises(VoteError):
        chain.vote_membership("remove", "a0", "a0", {"a0": True})
    with pytest.raises(VoteError):
        chain.vote_membership("grow", "a9", "a0", {"a0": True})


def test_removal_reschedules_the_rotation():
    chain = Chain(["u", "v"], ["a0", "a1", "a2"], 2)
    chain.produce_block("a0")
    votes = {"a0": True, "a2": True, "a1": False}
    assert chain.vote_membership("remove", "a1", "a0", votes)
    # committee is now [a0, a2]; height 1 falls to a2, not a1
    assert chain.scheduled_proposer() == "a2"
    with pytest.raises(ProposerError):
        chain.produce_block("a1")
    chain.produce_block("a2")
    assert chain.authorities() == ("a0", "a2")


# ---------------------------------------------------------------------------
# settlement
# ---------------------------------------------------------------------------

def test_two_kwh_at_half_price_is_one_token():
    chain = small_chain()
    tariff = toy_tariff(2, pi_p2p=0.5, pi_fit=0.0)
    schedules = {
        "u": zero_schedule(2, trades={"v": np.array([2.0, 0.0])}),
        "v": zero_schedule(2, trades={"u": np.array([-2.0, 0.0])}),
    }
    txs = chain.settle(schedules, tariff)
    assert len(txs) == 1
    assert txs[0].payload == {"from": "u", "to": "v", "amount": 1.0}
    state = chain.state()
    assert state.balances["u"] == 99.0
    assert state.balances["v"] == 101.0
    assert state.balances["operator"] == 1e6
    assert chain.height == 1


def test_operator_pays_service_rewards():
    chain = small_chain()
    tariff = toy_tariff(2, pi_p2p=0.5, pi_fit=0.25)
    schedules = {
        "u": zero_schedule(2, e_fit=[2.0, 2.0]),
        "v": zero_schedule(2),
    }
    before = chain.state().balances
    chain.settle(schedules, tariff)
    after = chain.state().balances
    assert before["operator"] - after["operator"] == pytest.approx(1.0,
                                                                   abs=1e-12)
    assert after["u"] - before["u"] == pytest.approx(1.0, abs=1e-12)
    assert after["v"] == before["v"]
    assert sum(after.values()) == pytest.approx(sum(before.values()),
                                                rel=1e-12)


def test_unpayable_settlement_aborts_atomically():
    chain = small_chain()
    tariff = toy_tariff(2, pi_p2p=0.6, pi_fit=0.0)
    schedules = {
        "u": zero_schedule(2, trades={"v": np.array([300.0, 0.0])}),
        "v": zero_schedule(2, trades={"u": np.array([-300.0, 0.0])}),
    }
    before = chain.state().balances
    with pytest.raises(SettlementError):
        chain.settle(schedules, tariff)
    assert chain.height == 0
    assert chain.state().balances == before
    assert list(chain.produce_block("a0").txs) == []


def test_all_zero_schedules_settle_to_nothing():
    chain = small_chain()
    tariff = toy_tariff(2, pi_fit=0.25)
    txs = chain.settle({"u": zero_schedule(2), "v": zero_schedule(2)},
                       tariff)
    assert txs == []
    assert chain.height == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["u", "v", "operator"]),
                          st.sampled_from(["u", "v", "operator"]),
                          st.floats(0, 50)),
                max_size=8))
def test_tokens_are_conserved_by_any_transfer_batch(moves):
    chain = small_chain()
    total0 = sum(chain.state().balances.values())
    nonces = {}
    for src, dst, amount in moves:
        nonce = nonces.get(src, -1) + 1
        nonces[src] = nonce
        chain.submit_tx(transfer_tx(src, nonce, dst, amount))
    try:
        chain.produce_block("a0")
    except ChainError:
        return  # overdraw aborts the batch; nothing committed
    assert sum(chain.state().balances.values()) == pytest.approx(
        total0, rel=1e-12)


# ---------------------------------------------------------------------------
# persistence and replay
# ---------------------------------------------------------------------------

def run_small_session(chain):
    chain.submit_tx(trading_tx("u", 0, {"v": [0.5, 0.0]}))
    chain.submit_tx(trading_tx("v", 0, {"u": [0.1, 0.0]}))
    chain.produce_block("a0")
    chain.submit_tx(transfer_tx("u", 1, "v", 3.0))
    chain.produce_block("a0")


def test_replay_reproduces_the_live_root(tmp_path):
    chain = small_chain()
    run_small_session(chain)
    path = tmp_path / "chain.log"
    chain.save_log(path)
    state = replay(path)
    assert state.root() == chain.state().root()
    assert state.round == 1
    assert state.balances["v"] == 103.0


def test_replay_of_genesis_only_log(tmp_path):
    chain = small_chain()
    path = tmp_path / "chain.log"
    chain.save_log(path)
    state = replay(path)
    assert state.root() == chain.records[0]["state_root"]
    assert state.round == 0


def test_replay_requires_a_genesis_record():
    with pytest.raises(CorruptionError):
        replay([])


def test_flipped_byte_is_caught_with_the_block_height(tmp_path):
    chain = small_chain()
    run_small_session(chain)
    path = tmp_path / "chain.log"
    chain.save_log(path)
    raw = path.read_bytes()
    target = chain.blocks[-1].state_root.encode()
    flip = bytes([target[0] ^ 1]) + target[1:]
    assert raw.count(target) == 1
    (tmp_path / "bad.log").write_bytes(raw.replace(target, flip))
    with pytest.raises(CorruptionError) as err:
        replay(tmp_path / "bad.log")
    assert err.value.height == 1


def test_truncated_log_is_corrupt(tmp_path):
    chain = small_chain()
    run_small_session(chain)
    path = tmp_path / "chain.log"
    chain.save_log(path)
    raw = path.read_bytes()
    (tmp_path / "cut.log").write_bytes(raw[:-7])
    with pytest.raises(CorruptionError):
        load_log(tmp_path / "cut.log")


def test_doctored_record_list_fails_at_its_height(tmp_path):
    chain = small_chain()
    run_small_session(chain)
    path = tmp_path / "chain.log"
    chain.save_log(path)
    records = load_log(path)
    records[-1]["proposer"] = "mallory"
    with pytest.raises(CorruptionError) as err:
        replay(records)
    assert err.value.height == 1


def _list_record(records):
    records[1] = [records[1]]


def _block_without_txs(records):
    del records[1]["txs"]


def _genesis_without_state(records):
    del records[0]["state"]


def _tx_without_nonce(records):
    del records[1]["txs"][0]["nonce"]


@pytest.mark.parametrize("doctor, height", [
    (_list_record, 0), (_block_without_txs, 0),
    (_genesis_without_state, None), (_tx_without_nonce, 0)])
def test_malformed_record_is_corruption_at_its_height(tmp_path, capsys,
                                                     doctor, height):
    chain = small_chain()
    run_small_session(chain)
    doctor(chain.records)
    for read in (replay, dump_text):
        with pytest.raises(CorruptionError) as err:
            read(chain.records)
        assert err.value.height == height
    path = tmp_path / "chain.log"
    chain.save_log(path)
    assert main(["chain-dump", str(path)]) == 1
    assert "chain log corrupt" in capsys.readouterr().err


def test_text_dump_covers_every_record(tmp_path):
    chain = small_chain()
    run_small_session(chain)
    path = tmp_path / "chain.log"
    chain.save_log(path)
    text = dump_text(path)
    assert "genesis" in text
    assert "block 0" in text and "block 1" in text
    assert "trading u" in text
    assert "transfer u -> v" in text
    assert chain.blocks[-1].digest in text
