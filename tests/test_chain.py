"""Ledger mechanics: transactions, blocks, settlement, replay."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest
from conftest import toy_tariff
from hypothesis import given, settings
from hypothesis import strategies as st

from vppsim.chain import (Block, Chain, ChainError, ContractError,
                          ContractState, CorruptionError, SettlementError,
                          Transaction, TxFailed, TxRejected, _tx_id,
                          canonical, digest, dump_text, load_log, replay,
                          service_tx, trading_tx, transfer_tx)
from vppsim.cli import main
from vppsim.coordinator import dual_update, lambda_update
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
    assert canonical({"x": (0.5, 1.0)}) == b'{"x":[0.5,1.0]}'
    assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})


def test_canonical_rejects_non_finite_values():
    for bad in (float("nan"), float("inf"), [0.0, float("-inf")]):
        with pytest.raises(ValueError):
            canonical({"x": bad})


def test_canonical_refuses_other_types():
    # numpy values included: every caller hands canonical plain values
    for bad in (object(), np.array([0.5]), np.int64(1), 1j):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical({"x": bad})


def _reference_plain(obj):
    """canonical's input conversion before the C encoder took over the
    walk, over plain JSON values, kept as the reference for its bytes."""
    if isinstance(obj, dict):
        return {str(k): _reference_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_plain(v) for v in obj]
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, int):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def _reference_canonical(obj) -> bytes:
    return json.dumps(_reference_plain(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False).encode()


_finite = st.floats(allow_nan=False, allow_infinity=False)
# Bools are left out: no caller passes one, and the reference turned True
# into 1 where the JSON encoder writes true.
_leaves = st.one_of(st.none(), st.text(max_size=6), st.integers(), _finite,
                    st.just(-0.0))
_values = st.recursive(_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_canonical_matches_the_recursive_reference(obj):
    assert canonical(obj) == _reference_canonical(obj)
    assert canonical({"v": obj}) == _reference_canonical({"v": obj})


def test_record_shares_no_mutable_part_with_the_transaction():
    tx = trading_tx("u", 0, {"v": np.array([0.5, -0.0]),
                             "w": np.array([1.0, 2.0])})
    record = tx.to_record()
    record["payload"]["trades"]["v"][0] = 9.0
    record["payload"]["trades"]["w"] = []
    assert tx.payload["trades"] == {"v": [0.5, -0.0], "w": [1.0, 2.0]}
    assert tx.txid == _tx_id(tx.sender, tx.nonce, tx.kind, tx.payload)


def _reference_digest(obj) -> str:
    """digest's encoding spelled out: a canonical-JSON header of obj with
    each non-empty all-float list replaced by null, beside the key path
    and length of each such list; then their float64 bytes, big-endian,
    one value at a time."""
    lifted = []

    def hollow(v, path):
        if isinstance(v, dict):
            return {k: hollow(v[k], path + [k]) for k in sorted(v)}
        if isinstance(v, (list, tuple)):
            if v and all(type(x) is float for x in v):
                lifted.append((path, v))
                return None
            return [hollow(x, path + [i]) for i, x in enumerate(v)]
        return v

    value = hollow(obj, [])
    header = _reference_canonical(
        {"layout": [[path, len(v)] for path, v in lifted], "value": value})
    floats = [x for _, v in lifted for x in v]
    if not all(math.isfinite(x) for x in floats):
        raise ValueError("non-finite float")
    data = len(header).to_bytes(4, "big") + header + b"".join(
        struct.pack(">d", x) for x in floats)
    return hashlib.sha256(data).hexdigest()


@settings(max_examples=300, deadline=None)
@given(_values, st.lists(_finite, min_size=1, max_size=6))
def test_digest_matches_the_reference_encoding(obj, vector):
    assert digest(obj) == _reference_digest(obj)
    doc = {"v": obj, "w": vector, "n": [vector, [vector, None]]}
    assert digest(doc) == _reference_digest(doc)


def test_digest_is_plain_sha256_of_the_bytes():
    obj = {"k": [1.0, -0.0], "m": "s"}
    header = b'{"layout":[[["k"],2]],"value":{"k":null,"m":"s"}}'
    data = len(header).to_bytes(4, "big") + header \
        + struct.pack(">2d", 1.0, -0.0)
    assert digest(obj) == _reference_digest(obj) \
        == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("a, b", [
    ([1.0], [1]), ([1.0, 2.0], [1, 2.0]), ({"x": [1.0]}, {"x": [1]}),
    (0.0, -0.0), ([0.0], [-0.0]), ({"x": [1.0, 0.0]}, {"x": [1.0, -0.0]}),
    ({"x": None}, {"x": [0.5]}), ({"x": []}, {"x": None}),
    ({"a": [1.0], "b": None}, {"a": None, "b": [1.0]}),
    ({"a": [1.0, 2.0], "b": [3.0]}, {"a": [1.0], "b": [2.0, 3.0]}),
    ([[1.0], None], [None, [1.0]]),
    ({"p": {"q": [1.0]}}, {"p": [[1.0]]}),
    ({"p": {"q": [1.0]}}, {"p": {"r": [1.0]}}),
], ids=["list-int", "mixed", "keyed-int", "zero", "list-zero",
        "keyed-zero", "null-vector", "empty-null", "moved-vector",
        "split-lengths", "moved-in-list", "dict-or-list", "renamed-key"])
def test_distinct_values_have_distinct_digests(a, b):
    assert digest(a) != digest(b)


def test_non_finite_floats_have_no_digest():
    for bad in (float("nan"), [0.0, float("inf")], {"x": [float("nan")]},
                {"x": [[1.0, float("-inf")]]}, [1, float("nan")]):
        with pytest.raises(ValueError):
            digest(bad)
    for vec in ([float("nan"), 0.0], [0.0, float("inf")]):
        with pytest.raises(ValueError):
            trading_tx("u", 0, {"v": vec})
        with pytest.raises(ValueError):
            trading_tx("u", 0, {"v": [0.0, 0.0], "w": vec})
        with pytest.raises(ValueError):
            service_tx("u", 0, [0.0, 0.0], vec, [0.0, 0.0])


def test_tx_id_tracks_content():
    def transfer(amount):
        return Transaction("u", 0, "transfer",
                           {"from": "u", "to": "v", "amount": amount})
    assert transfer(1.0).txid == transfer(1.0).txid
    assert transfer(1.0).txid != transfer(2.0).txid


def test_transaction_derives_its_own_id():
    good = transfer_tx("u", 0, "v", 1.0)
    with pytest.raises(TypeError):
        Transaction(sender="u", nonce=0, kind="transfer",
                    payload={"from": "u", "to": "v", "amount": 99.0},
                    txid=good.txid)
    payload = {"from": "u", "to": "v", "amount": 1.0}
    assert good.txid == _tx_id("u", 0, "transfer", payload)
    assert good.payload == payload
    # no id exists for non-finite content, so no such transaction either
    with pytest.raises(ValueError):
        transfer_tx("u", 0, "v", float("nan"))


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
    # the records are fresh values: editing them leaves the chain alone
    records = chain.records
    records[0]["users"].append("w")
    records[0]["balances"]["u"] = 0.0
    assert chain.records[0]["users"] == ["u", "v"]
    assert chain.records[0]["balances"]["u"] == 100.0


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
    b0 = chain.produce_block()
    b1 = chain.produce_block()
    assert (b0.height, b0.proposer) == (0, "a0")
    assert (b1.height, b1.proposer) == (1, "a1")
    assert b1.parent == b0.digest
    assert chain.scheduled_proposer() == "a0"


def test_block_derives_its_own_digest():
    chain = small_chain()
    chain.submit_tx(transfer_tx("u", 0, "v", 1.0))
    block = chain.produce_block()
    fields = (block.height, block.parent, block.proposer, block.txs,
              block.state_root)
    assert Block(*fields).digest == block.digest
    with pytest.raises(TypeError):
        Block(*fields, block.digest)
    assert Block(1, *fields[1:]).digest != block.digest


def test_empty_block_leaves_the_state_root_alone():
    chain = small_chain()
    root0 = chain.records[0]["state_root"]
    block = chain.produce_block()
    assert list(block.txs) == []
    assert block.state_root == root0
    assert chain.tip() == block.digest


def test_same_inputs_give_identical_chains():
    def build():
        chain = small_chain()
        chain.submit_tx(transfer_tx("u", 0, "v", 2.5))
        chain.submit_tx(transfer_tx("v", 0, "u", 1.0))
        chain.produce_block()
        chain.submit_tx(trading_tx("u", 1, {"v": [0.5, 0.0]}))
        chain.submit_tx(trading_tx("v", 1, {"u": [0.1, 0.0]}))
        chain.produce_block()
        return chain
    a, b = build(), build()
    assert [blk.digest for blk in a.blocks] == [blk.digest for blk in b.blocks]
    assert a.state().root() == b.state().root()


def test_poison_batch_does_not_commit():
    chain = small_chain()
    chain.submit_tx(trading_tx("u", 0, {"v": [0.5, 0.0]}))
    chain.submit_tx(trading_tx("u", 1, {"v": [0.7, 0.0]}))
    with pytest.raises(ContractError):
        chain.produce_block()
    assert chain.height == 0
    assert chain.state().round == 0
    # the duplicate left the pool; the first submission seals
    block = chain.produce_block()
    assert [(tx.sender, tx.nonce) for tx in block.txs] == [("u", 0)]
    assert chain.state().submitted == {"u"}


def test_failed_transaction_leaves_the_pool():
    chain = small_chain()
    chain.submit_tx(transfer_tx("u", 0, "v", 500.0))
    root = chain.state().root()
    with pytest.raises(TxFailed) as err:
        chain.produce_block()
    assert (err.value.sender, err.value.nonce) == ("u", 0)
    assert "overdraws" in str(err.value)
    assert chain.height == 0 and chain.state().root() == root
    chain.submit_tx(transfer_tx("v", 0, "u", 1.0))
    block = chain.produce_block()
    assert [(tx.sender, tx.nonce) for tx in block.txs] == [("v", 0)]
    assert chain.state().balances["u"] == 101.0


@pytest.mark.parametrize("kind, payload, named", [
    ("trading", {"user": "u", "trades": {"v": ["a", "b"]}}, "trade vector"),
    ("trading", {"user": "u", "trades": {"v": 5.0}}, "trade vector"),
    ("trading", {"user": "u", "trades": {"v": [[0.0], [1.0, 2.0]]}},
     "trade vector"),
    ("trading", {"user": "u", "trades": {"v": [True, False]}},
     "trade vector"),
    ("transfer", {"from": "u", "to": "v", "amount": "x"}, "transfer amount"),
    ("transfer", {"from": "u", "to": "v", "amount": None},
     "transfer amount"),
    ("service", {"e_fit": [None, 0.0], "e_dr": [0.0, 0.0],
                 "e_as": [0.0, 0.0]}, "service vector e_fit"),
    ("bogus", {}, "unknown transaction kind")])
def test_bad_payload_gets_a_named_rejection(kind, payload, named):
    chain = small_chain()
    with pytest.raises(TxRejected, match=named):
        chain.submit_tx(Transaction("u", 0, kind, payload))
    assert chain.next_nonce("u") == 0


@pytest.mark.parametrize("sender, nonce, kind, payload", [
    ("u", 0, "trading", {"user": "u", "trades": ["v"]}),
    ("u", 0, "service", ["e_fit", "e_dr", "e_as"]),
    ("u", 0, "service", None),
    ("u", 0, "transfer", ["from", "to", "amount"]),
    ("u", 0, "transfer", {"from": "u", "to": ["v"], "amount": 1.0}),
    ("u", "0", "transfer", {"from": "u", "to": "v", "amount": 1.0}),
    (["u"], 0, "transfer", {"from": "u", "to": "v", "amount": 1.0})],
    ids=["trades-list", "service-list", "payload-none", "transfer-list",
         "recipient-list", "nonce-str", "sender-list"])
def test_malformed_transaction_shape_is_refused_by_name(sender, nonce, kind,
                                                        payload):
    chain = small_chain()
    with pytest.raises(TxRejected):
        chain.submit_tx(Transaction(sender, nonce, kind, payload))
    assert chain.next_nonce("u") == 0 and chain._pool == []


def test_trading_payload_must_cover_exactly_the_peers():
    chain = Chain(["a", "b", "c"], ["a0"], 2)
    z = [0.0, 0.0]
    # a peer left out, an unknown user named, the sender itself named
    for trades in ({"b": z}, {"b": z, "c": z, "x": z}, {"a": z, "b": z},
                   {"a": z, "b": z, "c": z}):
        with pytest.raises(TxRejected, match="must cover exactly"):
            chain.submit_tx(trading_tx("a", 0, trades))
    with pytest.raises(TxRejected):
        chain.submit_tx(trading_tx("operator", 0, {"a": z, "b": z, "c": z}))
    chain.submit_tx(trading_tx("a", 0, {"b": z, "c": z}))
    assert chain.next_nonce("a") == 1


# ---------------------------------------------------------------------------
# the coordination contract
# ---------------------------------------------------------------------------

def test_completed_round_runs_the_dual_update_on_chain():
    chain = small_chain(rho=1.0)
    chain.submit_tx(trading_tx("u", 0, {"v": [0.5, 0.0]}))
    state = chain.state()
    assert state.round == 0 and state.submitted == set()
    chain.submit_tx(trading_tx("v", 0, {"u": [0.1, 0.0]}))
    chain.produce_block()
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
    shape = (len(users), len(users), H)
    off = ~np.eye(len(users), dtype=bool)
    contract = ContractState(users, H, rho, {})
    mult = np.zeros(shape)
    for _ in range(50):
        trades = np.zeros(shape)
        trades[off] = rng.normal(size=(off.sum(), H))
        for i, u in enumerate(users):
            contract.set_trading(u, {v: trades[i, j]
                                     for j, v in enumerate(users) if j != i})
        contract.compute_dual()
        aux = dual_update(trades, mult, rho)
        mult = lambda_update(mult, aux, trades, rho)
        assert contract.aux.tobytes() == aux.tobytes()
        assert contract.mult.tobytes() == mult.tobytes()
    assert contract.round == 50


def test_fixed_history_has_a_pinned_state_root():
    # Two scripted trading rounds and one transfer; no QP runs, so the
    # root depends on nothing but the contract arithmetic and the state
    # encoding.  Slot 0 trades exactly +0.0 both ways, which leaves +0.0
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
        chain.produce_block()
    chain.submit_tx(transfer_tx("a", 2, "b", 12.5))
    chain.produce_block()
    assert chain.state().round == 2
    assert chain.blocks[-1].state_root == (
        "495ce4451c6be7f1db164f5f61ed7788213308ba984681902935e6249f664f76")
    assert chain.tip() == (
        "3ef3cda53c820af634c51503226dbaf7b6a69ac91257822c7c6cc5ed0eda7706")
    state = chain.state().copy()
    assert np.signbit(state.aux[1, 0, 0])
    assert not np.signbit(state.aux[0, 1, 0])
    state.aux[1, 0, 0] = 0.0
    assert state.root() != chain.blocks[-1].state_root


def test_committed_state_is_read_only_and_keeps_its_root():
    chain = small_chain()
    genesis = chain.state()
    chain.submit_tx(trading_tx("u", 0, {"v": [0.5, 0.0]}))
    chain.submit_tx(trading_tx("v", 0, {"u": [0.1, 0.0]}))
    chain.produce_block()
    first = chain.state()
    chain.submit_tx(trading_tx("u", 1, {"v": [0.2, 0.0]}))
    chain.submit_tx(trading_tx("v", 1, {"u": [0.3, 0.0]}))
    chain.produce_block()
    chain.settle({u: zero_schedule(2, e_fit=[1.0, 0.0]) for u in "uv"},
                 toy_tariff(2, pi_fit=0.1))
    # states taken at earlier heights are the ones those blocks committed
    assert genesis.round == 0 and first.round == 1
    assert chain.state().round == 2
    assert genesis.root() == chain.records[0]["state_root"]
    assert first.root() == chain.blocks[0].state_root
    for arr in (first.trades, first.aux, first.mult):
        with pytest.raises(ValueError):
            arr[0, 1, 0] = 1.0
    with pytest.raises(ValueError):
        chain.state().aux[0, 1, 0] = 1.0
    # a copy is the way to edit one, and leaves the chain alone
    edit = chain.state().copy()
    edit.aux[0, 1, 0] = 1.0
    assert chain.state().root() == chain.blocks[-1].state_root != edit.root()


def test_committed_accounts_services_and_submissions_are_read_only():
    chain = small_chain()
    chain.submit_tx(service_tx("u", 0, [1.0, 0.0], [0.0, 0.0], [0.0, 2.0]))
    chain.submit_tx(trading_tx("v", 0, {"u": [0.1, 0.0]}))
    chain.produce_block()
    state = chain.state()
    root = chain.blocks[-1].state_root
    with pytest.raises(TypeError):
        state.balances["u"] = 0.0
    with pytest.raises(TypeError):
        state.services["v"] = {}
    with pytest.raises(TypeError):
        state.services["u"]["e_fit"] = np.zeros(2)
    with pytest.raises(ValueError):
        state.services["u"]["e_fit"][0] = 9.0
    with pytest.raises(AttributeError):
        state.submitted.add("u")
    assert state.root() == root
    # u's balance is intact, so the next block takes its 1-token transfer
    chain.submit_tx(transfer_tx("u", 1, "v", 1.0))
    chain.produce_block()
    assert chain.state().balances["u"] == 99.0
    # a copy is writable all through and leaves the committed state alone
    edit = state.copy()
    edit.balances["u"] = 0.0
    edit.services["u"]["e_fit"][0] = 9.0
    edit.services["v"] = {}
    edit.submitted.add("u")
    assert state.root() == root != edit.root()
    assert state.balances["u"] == 100.0 and state.submitted == {"v"}
    assert state.services["u"]["e_fit"][0] == 1.0


def _rich_state():
    """A state with every field the root covers set to something nonzero,
    plus one +0.0 in aux and one -0.0 in a service vector."""
    rng = np.random.default_rng(3)
    state = ContractState(["a", "b", "c"], 3, 1.5,
                          {"a": 10.0, "b": 5.25, "operator": 1e6})
    off = ~np.eye(3, dtype=bool)
    for arr in (state.trades, state.aux, state.mult):
        arr[off] = rng.normal(size=(6, 3))
    state.aux[0, 2, 1] = 0.0
    state.services = {"a": {"e_fit": rng.normal(size=3),
                            "e_dr": np.array([0.5, -0.0, 1.0]),
                            "e_as": rng.normal(size=3)},
                      "c": {"e_fit": np.zeros(3), "e_dr": np.zeros(3),
                            "e_as": np.ones(3)}}
    state.round = 4
    state.submitted = {"b"}
    return state


def _nudge(get, idx):
    def edit(state):
        arr = get(state)
        arr[idx] = np.nextafter(arr[idx], np.inf)
    return edit


def _set(attr, value):
    return lambda state: setattr(state, attr, value)


ROOT_EDITS = {
    "trades first pair": _nudge(lambda s: s.trades, (0, 1, 0)),
    "trades last pair": _nudge(lambda s: s.trades, (2, 1, 2)),
    "aux": _nudge(lambda s: s.aux, (1, 2, 1)),
    "mult": _nudge(lambda s: s.mult, (2, 0, 0)),
    "service value": _nudge(lambda s: s.services["c"]["e_as"], 2),
    "balance": lambda s: s.balances.update(b=5.5),
    "rho": _set("rho", np.nextafter(1.5, 2.0)),
    "round": _set("round", 5),
    "submitted": _set("submitted", {"b", "c"}),
    "sign of an aux zero": lambda s: s.aux.__setitem__((0, 2, 1), -0.0),
    "sign of a service zero": lambda s: s.services["a"]["e_dr"].__setitem__(
        1, 0.0),
    "service moved to another key": lambda s: s.services.update(
        c={"e_fit": np.zeros(3), "e_dr": np.ones(3), "e_as": np.zeros(3)}),
    # the same bytes cut at other lengths
    "service lengths": lambda s: s.services.update(
        c={"e_fit": np.zeros(2), "e_dr": np.zeros(4), "e_as": np.ones(3)}),
}


def test_root_changes_with_any_one_field():
    base = _rich_state()
    roots = {}
    for name, edit in ROOT_EDITS.items():
        state = _rich_state()
        edit(state)
        roots[name] = state.root()
    assert base.root() == _rich_state().root()
    assert base.root() not in roots.values()
    assert len(set(roots.values())) == len(roots)


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
    contract.set_trading("u", {"v": [0.5, 0.0]})
    with pytest.raises(ContractError) as err:
        contract.compute_dual()
    assert "v" in str(err.value)


def test_service_vectors_are_stored():
    chain = small_chain()
    chain.submit_tx(service_tx("u", 0, [1.0, 0.0], [0.0, 0.0], [0.0, 2.0]))
    chain.produce_block()
    state = chain.state()
    np.testing.assert_array_equal(state.services["u"]["e_fit"], [1.0, 0.0])
    np.testing.assert_array_equal(state.services["u"]["e_as"], [0.0, 2.0])


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
    assert list(chain.produce_block().txs) == []


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
        chain.produce_block()
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
    chain.produce_block()
    chain.submit_tx(transfer_tx("u", 1, "v", 3.0))
    chain.produce_block()


def test_replay_reproduces_the_live_root(tmp_path):
    chain = small_chain()
    run_small_session(chain)
    path = tmp_path / "chain.log"
    chain.save_log(path)
    state = replay(path)
    assert state.root() == chain.state().root()
    assert state.round == 1
    assert state.balances["v"] == 103.0


def test_replay_of_genesis_only_log(tmp_path, capsys):
    chain = small_chain()
    root = chain.state().root()
    assert chain.tip() == root == chain.records[0]["state_root"]
    path = tmp_path / "chain.log"
    chain.save_log(path)
    assert load_log(path) == chain.records
    state = replay(path)
    assert state.root() == root
    assert state.round == 0
    assert main(["chain-dump", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "genesis",
        "  operator   operator",
        "  authorities a0",
        "  users      u v",
        "  horizon    2  rho 1.0",
        "  balance    operator     1000000.0",
        "  balance    u            100.0",
        "  balance    v            100.0",
        f"  state_root {root}"]


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
    with pytest.raises(CorruptionError, match="'state_root' differs") as err:
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
    with pytest.raises(CorruptionError, match="'proposer' differs") as err:
        replay(records)
    assert err.value.height == 1


def _list_record(records):
    records[1] = [records[1]]


def _block_without_txs(records):
    del records[1]["txs"]


def _genesis_without_users(records):
    del records[0]["users"]


def _tx_without_nonce(records):
    del records[1]["txs"][0]["nonce"]


def _committee_record(records):
    # the authorities are fixed at genesis; no chain writes this record
    records.insert(2, {"type": "committee", "height": 1,
                       "authorities": ["a0"]})


# genesis records of the right shape that no Chain writes; replay, which
# rebuilds the genesis through Chain, refuses each one
def _duplicate_users(records):
    records[0]["users"] = ["u", "u"]


def _no_authorities(records):
    records[0]["authorities"] = []


def _duplicate_authorities(records):
    records[0]["authorities"] = ["a0", "a0"]


def _operator_as_user(records):
    records[0]["users"] = ["operator", "u", "v"]


def _changed_balance(records):
    records[0]["balances"]["u"] = 101.0


def _unsorted_users(records):
    records[0]["users"] = ["v", "u"]


def _genesis_field(key, value):
    def edit(records):
        records[0][key] = value
    edit.__name__ = f"_{key}_{value}"
    return edit


# a chain with such a rho or horizon cannot run a trading round, so
# Chain refuses to build the genesis
BAD_PARAMETERS = tuple(_genesis_field(key, value) for key, value in [
    ("rho", 0.0), ("rho", -1.0), ("rho", float("nan")),
    ("rho", float("inf")), ("horizon", 0), ("horizon", -1)])

GENESIS_EDITS = (_duplicate_users, _no_authorities, _duplicate_authorities,
                 _operator_as_user, _changed_balance, _unsorted_users,
                 *BAD_PARAMETERS)


def write_log(path, records):
    """Save records as save_log does, whatever their content (a NaN is
    written as JSON's NaN token, which load_log reads back)."""
    with open(path, "wb") as fh:
        for record in records:
            data = json.dumps(record, sort_keys=True,
                              separators=(",", ":")).encode()
            fh.write(len(data).to_bytes(4, "big") + data)


@pytest.mark.parametrize("doctor, height", [
    (_list_record, 0), (_block_without_txs, 0),
    (_genesis_without_users, None), (_tx_without_nonce, 0),
    (_committee_record, 1), *((edit, None) for edit in GENESIS_EDITS)])
def test_malformed_record_is_corruption_at_its_height(tmp_path, capsys,
                                                     doctor, height):
    chain = small_chain()
    run_small_session(chain)
    records = chain.records
    doctor(records)
    path = tmp_path / "chain.log"
    write_log(path, records)
    for read in (replay, dump_text):
        for source in (records, path):
            with pytest.raises(CorruptionError) as err:
                read(source)
            assert err.value.height == height
            if doctor in BAD_PARAMETERS:
                assert "genesis refused" in str(err.value)
    assert main(["chain-dump", str(path)]) == 1
    assert "chain log corrupt" in capsys.readouterr().err


def test_transaction_that_cannot_apply_is_corruption_at_its_height():
    chain = small_chain()
    run_small_session(chain)
    # correctly hashed, but u already submitted trades for round 0
    extra = trading_tx("u", 1, {"v": [0.2, 0.0]})
    records = chain.records
    records[1]["txs"].insert(1, extra.to_record())
    with pytest.raises(CorruptionError) as err:
        replay(records)
    assert err.value.height == 0
    assert "u:1 does not apply" in str(err.value)


@pytest.mark.parametrize("tx", [
    transfer_tx("u", 0, "v", 3.0),
    Transaction("u", 1, "transfer",
                {"from": "u", "to": "v", "amount": 3.0, "memo": "x"}),
    Transaction("v", 1, "transfer", {"from": "u", "to": "v", "amount": 3.0}),
], ids=["repeated-nonce", "extra-payload-key", "spends-another-account"])
def test_block_no_chain_writes_is_corruption_at_its_height(tx):
    chain = small_chain()
    chain.submit_tx(trading_tx("u", 0, {"v": [0.5, 0.0]}))
    chain.submit_tx(trading_tx("v", 0, {"u": [0.1, 0.0]}))
    chain.produce_block()
    # sealed past submit_tx, as a chain that skipped its checks would
    chain._pool.append(tx)
    chain.produce_block()
    with pytest.raises(CorruptionError, match=f"{tx.sender}:{tx.nonce} "
                       "refused") as err:
        replay(chain.records)
    assert err.value.height == 1


def test_nan_in_a_logged_trade_vector_is_corruption_at_its_height(
        tmp_path):
    chain = small_chain()
    run_small_session(chain)
    records = chain.records
    records[1]["txs"][1]["payload"]["trades"]["u"][0] = float("nan")
    path = tmp_path / "chain.log"
    write_log(path, records)
    for source in (records, load_log(path)):
        with pytest.raises(CorruptionError) as err:
            replay(source)
        assert err.value.height == 0
        assert "malformed record" in str(err.value)


def test_edited_transaction_is_an_id_mismatch_at_its_height(tmp_path):
    chain = small_chain()
    run_small_session(chain)
    path = tmp_path / "chain.log"
    chain.save_log(path)
    raw = path.read_bytes()
    # same length, so the record's prefix still holds; the txid is kept
    assert raw.count(b'"amount":3.0') == 1
    (tmp_path / "edited.log").write_bytes(
        raw.replace(b'"amount":3.0', b'"amount":4.0'))
    with pytest.raises(CorruptionError, match="transaction id mismatch "
                       "for u:1") as err:
        replay(tmp_path / "edited.log")
    assert err.value.height == 1


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
