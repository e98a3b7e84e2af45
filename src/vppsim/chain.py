"""Simulated proof-of-authority ledger hosting the coordination contract.

The chain is a deterministic state machine: a fixed list of named
authorities, set at genesis, takes turns producing blocks, each block
drains the pending transaction pool in (sender, nonce) order, and
`apply_tx` is the only state transition, a pure function of the parent
state and one ordered transaction.  The contract storage holds the
trading coordination state (trades, auxiliary trades, multipliers, round
counter) plus token balances.  Each block commits a digest of the
storage's binary encoding as the state root, and the log carries the
genesis storage as JSON, so the whole history can be replayed and
byte-checked from the log alone.

There is no cryptography here beyond content digests: sender identity is
taken at face value, which is the appropriate level of fidelity for a
desk-scale protocol study.
"""

import copy
import hashlib
import json
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# dual_update and lambda_update are re-exported: perfbench's tracer test
# reaches the contract's update rule through this module
from .coordinator import (DualState, dual_update, lambda_update,  # noqa: F401
                          step)
from .agent import DualSlice
from .model import Schedule, Tariff

TX_SERVICE = "service"
TX_TRADING = "trading"
TX_TRANSFER = "transfer"

RECORD_GENESIS = "genesis"
RECORD_BLOCK = "block"

OPERATOR = "operator"
OPERATOR_BALANCE = 1e6
USER_BALANCE = 100.0


class ChainError(Exception):
    pass


class TxRejected(ChainError):
    """Transaction refused at submission (bad sender, nonce, or payload)."""


class ProposerError(ChainError):
    """Block production attempted by a node that is not scheduled."""


class ContractError(ChainError):
    """Contract function precondition violated."""


class TxFailed(ContractError):
    """A pooled transaction failed to apply and was dropped from the pool."""

    def __init__(self, tx, detail):
        self.sender = tx.sender
        self.nonce = tx.nonce
        super().__init__(
            f"transaction {tx.sender}:{tx.nonce} dropped: {detail}")


class SettlementError(ChainError):
    """Settlement aborted; no transfers were applied."""


class CorruptionError(ChainError):
    """Replay found a record that does not match its recorded digest."""

    def __init__(self, height, detail):
        self.height = height
        where = "genesis" if height is None else f"block {height}"
        super().__init__(f"chain log corrupt at {where}: {detail}")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

# the leaf types of a JSON value that need no conversion and no copy
_SCALARS = frozenset({float, int, str, bool, type(None)})
# the number types of a plain payload (no NaN or inf: it would have no id)
_NUMBERS = frozenset({float, int})


def _plain(obj):
    """A transaction payload as plain JSON values (dicts, lists, numbers,
    strings) that share no mutable part with obj."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        if _SCALARS.issuperset(map(type, obj)):
            return list(obj)
        return [_plain(v) for v in obj]
    return obj


def _leaf(obj):
    """The JSON encoder's fallback: numpy arrays and scalars as numbers."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "fiu":
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical(obj) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, repr floats.

    Python's json encoder renders floats with repr, which round-trips
    float64 exactly, so equal states always produce identical bytes.
    The C encoder does all the recursion; numpy values reach `_leaf`.
    """
    return json.dumps(obj, default=_leaf, sort_keys=True,
                      separators=(",", ":"), allow_nan=False).encode()


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


def pair_key(u: str, v: str) -> str:
    return f"{u}|{v}"


# ---------------------------------------------------------------------------
# transactions and blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    """A transaction; its id is derived here from its content, never given."""
    sender: str
    nonce: int
    kind: str
    payload: dict
    txid: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "payload", _plain(self.payload))
        object.__setattr__(self, "txid", _tx_id(self.sender, self.nonce,
                                                self.kind, self.payload))

    def to_record(self) -> dict:
        return {**vars(self), "payload": _plain(self.payload)}


def _tx_id(sender, nonce, kind, payload) -> str:
    return digest({"sender": sender, "nonce": nonce, "kind": kind,
                   "payload": payload})


def service_tx(sender, nonce, e_fit, e_dr, e_as) -> Transaction:
    payload = {"e_fit": np.asarray(e_fit, float),
               "e_dr": np.asarray(e_dr, float),
               "e_as": np.asarray(e_as, float)}
    return Transaction(sender, int(nonce), TX_SERVICE, payload)


def trading_tx(sender, nonce, trades: dict) -> Transaction:
    payload = {"user": sender,
               "trades": {v: np.asarray(vec, float)
                          for v, vec in sorted(trades.items())}}
    return Transaction(sender, int(nonce), TX_TRADING, payload)


def transfer_tx(sender, nonce, to, amount) -> Transaction:
    return Transaction(sender, int(nonce), TX_TRANSFER,
                       {"from": sender, "to": to, "amount": float(amount)})


@dataclass(frozen=True)
class Block:
    height: int
    parent: str
    proposer: str
    txs: tuple
    state_root: str
    digest: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "digest", digest({
            "height": self.height, "parent": self.parent,
            "proposer": self.proposer, "txids": [t.txid for t in self.txs],
            "state_root": self.state_root}))

    def to_record(self) -> dict:
        return {"type": RECORD_BLOCK, **vars(self),
                "txs": [t.to_record() for t in self.txs]}


# ---------------------------------------------------------------------------
# contract storage
# ---------------------------------------------------------------------------

def _pair_layout(users):
    """Pair keys u|v and the off-diagonal mask, in the same row-major order."""
    return ([pair_key(u, v) for u in users for v in users if u != v],
            ~np.eye(len(users), dtype=bool))


class ContractState:
    """Coordination contract storage plus token accounts.

    The three contract functions are set_trading, compute_dual and
    read_dual.  compute_dual applies the coordination module's pure
    `step`, so the on-chain arithmetic is the same float64 arithmetic as
    the in-process loop, down to the last bit.
    """

    def __init__(self, users, horizon: int, rho: float, balances: dict):
        users = sorted(users)
        if len(users) != len(set(users)):
            raise ChainError("duplicate user ids")
        self.users = users
        self.horizon = int(horizon)
        self.rho = float(rho)
        self.round = 0
        shape = (len(users), len(users), self.horizon)
        self.trades = np.zeros(shape)
        self.aux = np.zeros(shape)
        self.mult = np.zeros(shape)
        self.balances = {str(a): float(b) for a, b in balances.items()}
        self.services: dict[str, dict] = {}
        self.submitted: set[str] = set()

    # -- the three contract functions ------------------------------------

    def set_trading(self, user: str, trades: dict):
        if user not in self.users:
            raise ContractError(f"unknown user {user!r}")
        if user in self.submitted:
            raise ContractError(
                f"{user} already submitted trades for round {self.round}")
        peers = sorted(u for u in self.users if u != user)
        if sorted(trades) != peers:
            raise ContractError(
                f"trades for {user} must cover peers {peers}")
        i = self.users.index(user)
        for v, vec in trades.items():
            vec = np.asarray(vec, float)
            if vec.shape != (self.horizon,):
                raise ContractError(
                    f"trade vector {user}->{v} has length {vec.size}, "
                    f"expected {self.horizon}")
            self.trades[i, self.users.index(v)] = vec
        self.submitted.add(user)

    def compute_dual(self):
        missing = sorted(set(self.users) - self.submitted)
        if missing:
            raise ContractError(
                f"round {self.round} incomplete, missing trades from "
                f"{', '.join(missing)}")
        nxt = step(self.dual(), self.trades)
        self.aux, self.mult, self.round = nxt.aux, nxt.mult, nxt.iteration
        self.submitted = set()

    def read_dual(self, user: str) -> DualSlice:
        if user not in self.users:
            raise ContractError(f"unknown user {user!r}")
        return self.dual().slice_for(user)

    def dual(self) -> DualState:
        """The coordination state, sharing this storage's arrays."""
        return DualState(users=tuple(self.users), aux=self.aux,
                         mult=self.mult, rho=self.rho, iteration=self.round)

    # -- serialization ----------------------------------------------------

    def payload(self) -> dict:
        keys, off = _pair_layout(self.users)
        return {
            "users": list(self.users),
            "horizon": self.horizon,
            "rho": self.rho,
            "round": self.round,
            "trades": dict(zip(keys, self.trades[off])),
            "aux": dict(zip(keys, self.aux[off])),
            "mult": dict(zip(keys, self.mult[off])),
            "balances": dict(sorted(self.balances.items())),
            "services": {u: s for u, s in sorted(self.services.items())},
            "submitted": sorted(self.submitted),
        }

    def root(self) -> str:
        """SHA-256 of a typed binary encoding of the state.

        A length-prefixed canonical-JSON header (users, horizon, rho,
        round, balances, submitted users and the sorted (user, key,
        length) layout of the service vectors), then the big-endian
        float64 bytes of trades, aux and mult over the ordered pairs in
        `_pair_layout` order, then each service vector in layout order.
        The header fixes every length, so distinct states (signed zeros
        included) give distinct bytes, without printing a float.
        """
        layout = sorted((u, k, len(v)) for u, s in self.services.items()
                        for k, v in s.items())
        header = canonical({
            "users": self.users, "horizon": self.horizon, "rho": self.rho,
            "round": self.round, "balances": self.balances,
            "submitted": sorted(self.submitted), "services": layout})
        h = hashlib.sha256(struct.pack(">I", len(header)) + header)
        _, off = _pair_layout(self.users)
        for arr in (self.trades, self.aux, self.mult):
            h.update(arr[off].astype(">f8").tobytes())
        for u, k, _ in layout:
            h.update(np.asarray(self.services[u][k], ">f8").tobytes())
        return h.hexdigest()

    def copy(self) -> "ContractState":
        return copy.deepcopy(self)

    @classmethod
    def from_payload(cls, p: dict) -> "ContractState":
        st = cls(users=p["users"], horizon=p["horizon"], rho=p["rho"],
                 balances=p["balances"])
        st.round = int(p["round"])
        keys, off = _pair_layout(st.users)
        for name in ("trades", "aux", "mult"):
            if sorted(p[name]) != sorted(keys):
                raise ValueError(f"{name} must cover every ordered pair")
            getattr(st, name)[off] = [p[name][k] for k in keys]
        st.services = {u: {k: np.asarray(v, float) for k, v in s.items()}
                       for u, s in p["services"].items()}
        st.submitted = set(p["submitted"])
        return st


def apply_tx(state: ContractState, tx: Transaction):
    """Apply one committed transaction to contract storage.

    A trading transaction that completes the round triggers the dual
    update in place, so the coordination step is itself an effect of
    ordered transactions and replays identically.
    """
    if tx.kind == TX_SERVICE:
        state.services[tx.sender] = {k: np.asarray(v, float)
                                     for k, v in tx.payload.items()}
    elif tx.kind == TX_TRADING:
        state.set_trading(tx.payload["user"], tx.payload["trades"])
        if state.submitted == set(state.users):
            state.compute_dual()
    elif tx.kind == TX_TRANSFER:
        src = tx.payload["from"]
        dst = tx.payload["to"]
        amount = float(tx.payload["amount"])
        if state.balances.get(src, 0.0) < amount:
            raise ContractError(
                f"transfer of {amount} overdraws account {src!r}")
        state.balances[src] = state.balances.get(src, 0.0) - amount
        state.balances[dst] = state.balances.get(dst, 0.0) + amount
    else:
        raise ChainError(f"unknown transaction kind {tx.kind!r}")


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------

class Chain:
    """Proof-of-authority chain with round-robin block production.

    The authorities are fixed at genesis and take turns as proposers by
    height.  State changes only by `apply_tx`: a block applies the
    pooled transactions to a copy of the committed state, and settlement
    checks its batch the same way before submitting it.  The genesis
    record and the blocks append to an in-memory log that save_log
    persists as length-prefixed canonical JSON.
    """

    def __init__(self, users, authorities, horizon: int, rho: float = 1.0):
        users = sorted(users)
        authorities = list(authorities)
        if not authorities:
            raise ChainError("authority list cannot be empty")
        if len(set(authorities)) != len(authorities):
            raise ChainError("duplicate authority ids")
        if OPERATOR in users:
            raise ChainError("operator account cannot also be a user")
        balances = {OPERATOR: OPERATOR_BALANCE,
                    **dict.fromkeys(users, USER_BALANCE)}
        self._state = ContractState(users, horizon, rho, balances)
        self._accounts = set(users) | {OPERATOR}
        self._nonces: dict[str, int] = {}
        self._authorities = tuple(authorities)
        self._pool: list[Transaction] = []
        self._lock = threading.Lock()
        self.blocks: list[Block] = []
        self.records: list[dict] = [{
            "type": RECORD_GENESIS,
            "authorities": authorities,
            "operator": OPERATOR,
            "state": self._state.payload(),
            "state_root": self._state.root(),
        }]

    # -- read side --------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    def state(self) -> ContractState:
        """Snapshot of committed contract storage."""
        with self._lock:
            return self._state.copy()

    def contract_call(self, fn: str, **kwargs):
        """Read-only contract access against committed state."""
        if fn != "read_dual":
            raise ContractError(
                f"{fn} mutates state and must go through transactions")
        with self._lock:
            return self._state.read_dual(**kwargs)

    def tip(self) -> str:
        return self.blocks[-1].digest if self.blocks \
            else self.records[0]["state_root"]

    def scheduled_proposer(self) -> str:
        return self._authorities[self.height % len(self._authorities)]

    def next_nonce(self, sender: str) -> int:
        return self._nonces.get(sender, -1) + 1

    # -- write side -------------------------------------------------------

    def submit_tx(self, tx: Transaction) -> str:
        with self._lock:
            if tx.sender not in self._accounts:
                raise TxRejected(f"unknown sender {tx.sender!r}")
            last = self._nonces.get(tx.sender, -1)
            if tx.nonce <= last:
                raise TxRejected(
                    f"nonce {tx.nonce} for {tx.sender} not above {last}")
            self._validate_payload(tx)
            self._nonces[tx.sender] = tx.nonce
            self._pool.append(tx)
            return tx.txid

    def _validate_payload(self, tx: Transaction):
        p = tx.payload
        if tx.kind == TX_TRANSFER:
            if set(p) != {"from", "to", "amount"}:
                raise TxRejected("malformed transfer payload")
            if p["from"] != tx.sender:
                raise TxRejected("transfer source must be the sender")
            if p["to"] not in self._accounts:
                raise TxRejected(f"unknown transfer recipient {p['to']!r}")
            if type(p["amount"]) not in _NUMBERS or p["amount"] < 0:
                raise TxRejected(f"bad transfer amount {p['amount']!r}")
        elif tx.kind == TX_TRADING:
            if set(p) != {"user", "trades"}:
                raise TxRejected("malformed trading payload")
            if p["user"] != tx.sender:
                raise TxRejected("trading user must be the sender")
            peers = [u for u in self._state.users if u != tx.sender]
            if tx.sender not in self._state.users \
                    or sorted(p["trades"]) != peers:
                raise TxRejected(
                    f"trades of {tx.sender} must cover exactly {peers}")
            self._check_vectors("trade vector to", p["trades"])
        elif tx.kind == TX_SERVICE:
            if set(p) != {"e_fit", "e_dr", "e_as"}:
                raise TxRejected("malformed service payload")
            if tx.sender not in self._state.users:
                raise TxRejected("service sender is not a user")
            self._check_vectors("service vector", p)
        else:
            raise TxRejected(f"unknown transaction kind {tx.kind!r}")

    def _check_vectors(self, what: str, vectors: dict):
        H = self._state.horizon
        for key, vec in vectors.items():
            if not (isinstance(vec, list) and len(vec) == H
                    and _NUMBERS.issuperset(map(type, vec))):
                raise TxRejected(f"{what} {key} must hold {H} numbers")

    def produce_block(self, proposer: str) -> Block:
        """Seal the pool into the next block.

        A transaction that fails to apply leaves the pool and raises
        TxFailed; nothing is committed, and the next block seals the
        rest of the pool.
        """
        with self._lock:
            scheduled = self.scheduled_proposer()
            if proposer != scheduled:
                raise ProposerError(
                    f"proposer for height {self.height} is {scheduled!r}, "
                    f"not {proposer!r}")
            txs = sorted(self._pool, key=lambda t: (t.sender, t.nonce))
            work = self._state.copy()
            for tx in txs:
                try:
                    apply_tx(work, tx)
                except ContractError as exc:
                    self._pool.remove(tx)
                    raise TxFailed(tx, exc) from exc
            block = Block(self.height, self.tip(), proposer, tuple(txs),
                          work.root())
            self._state = work
            self._pool = []
            self.blocks.append(block)
            self.records.append(block.to_record())
            return block

    # -- settlement -------------------------------------------------------

    def settle(self, schedules: dict, tariff: Tariff) -> list:
        """Pay out converged schedules in tokens, atomically.

        One transfer per unordered trading pair (buyer pays seller the
        net peer-to-peer bill) plus one operator payment per user for
        feed-in, demand-response and ancillary-service rewards.  The
        whole batch is applied to a copy of the committed state first;
        if any transfer fails, nothing is submitted.
        """
        planned: list[tuple] = []
        for u in sorted(schedules):
            s: Schedule = schedules[u]
            reward = float(
                tariff.pi_fit * np.sum(s.e_fit)
                + np.dot(np.asarray(tariff.pi_dr, float), s.e_dr)
                + np.dot(np.asarray(tariff.pi_as, float), s.e_as))
            if reward != 0.0:
                planned.append((OPERATOR, u, reward))
        users = sorted(schedules)
        for i, u in enumerate(users):
            for v in users[i + 1:]:
                p_uv = np.asarray(schedules[u].trades.get(v, ()), float)
                p_vu = np.asarray(schedules[v].trades.get(u, ()), float)
                bought = float(np.sum(np.maximum(p_uv, 0.0)))
                sold = float(np.sum(np.maximum(p_vu, 0.0)))
                net = tariff.pi_p2p * (bought - sold)
                if net > 0.0:
                    planned.append((u, v, net))
                elif net < 0.0:
                    planned.append((v, u, -net))
        if not planned:
            return []
        with self._lock:
            nonces = dict(self._nonces)
            txs = []
            for src, dst, amount in planned:
                nonce = nonces.get(src, -1) + 1
                nonces[src] = nonce
                txs.append(transfer_tx(src, nonce, dst, amount))
            trial = self._state.copy()
            for tx in sorted(txs, key=lambda t: (t.sender, t.nonce)):
                try:
                    apply_tx(trial, tx)
                except ContractError as exc:
                    raise SettlementError(
                        f"{exc}; settlement aborted") from exc
        for tx in txs:
            self.submit_tx(tx)
        self.produce_block(self.scheduled_proposer())
        return txs

    # -- persistence ------------------------------------------------------

    def save_log(self, path):
        with open(path, "wb") as fh:
            for record in self.records:
                data = canonical(record)
                fh.write(struct.pack(">I", len(data)))
                fh.write(data)


def load_log(path) -> list:
    """Read length-prefixed records back; truncation is corruption."""
    records = []
    with open(path, "rb") as fh:
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) < 4:
                raise CorruptionError(None, "truncated length prefix")
            (n,) = struct.unpack(">I", head)
            data = fh.read(n)
            if len(data) < n:
                raise CorruptionError(None, "truncated record body")
            try:
                records.append(json.loads(data.decode()))
            except ValueError as exc:
                raise CorruptionError(None, f"undecodable record: {exc}")
    return records


@contextmanager
def _reading(height):
    """Report a record of the wrong shape or missing a field as corruption."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise CorruptionError(height, f"malformed record ({exc!r})") from exc


def replay(source) -> ContractState:
    """Rebuild contract state from a chain log, verifying every digest.

    Accepts a path or an already-loaded record list.  Raises
    CorruptionError naming the first block whose transactions, state
    root, or seal disagree with the recorded values, or whose record is
    malformed.
    """
    records = load_log(source) if not isinstance(source, list) else source
    with _reading(None):
        if not records or records[0].get("type") != RECORD_GENESIS:
            raise CorruptionError(None, "log does not start with genesis")
        genesis = records[0]
        state = ContractState.from_payload(genesis["state"])
        if state.root() != genesis["state_root"]:
            raise CorruptionError(None, "genesis state root mismatch")
        authorities = list(genesis["authorities"])
        parent = genesis["state_root"]
    height = 0
    for record in records[1:]:
        with _reading(height):
            kind = record.get("type")
            if kind != RECORD_BLOCK:
                raise CorruptionError(height,
                                      f"unknown record type {kind!r}")
            if record["height"] != height:
                raise CorruptionError(
                    height,
                    f"expected height {height}, found {record['height']}")
            if record["parent"] != parent:
                raise CorruptionError(height, "parent digest mismatch")
            expected = authorities[height % len(authorities)]
            if record["proposer"] != expected:
                raise CorruptionError(
                    height, f"proposer {record['proposer']!r} is not the "
                    f"scheduled {expected!r}")
            txs = []
            for raw in record["txs"]:
                tx = Transaction(**{k: raw[k] for k in raw if k != "txid"})
                if tx.txid != raw["txid"]:
                    raise CorruptionError(height, "transaction id mismatch "
                                          f"for {tx.sender}:{tx.nonce}")
                try:
                    apply_tx(state, tx)
                except ChainError as exc:
                    raise CorruptionError(
                        height, f"transaction {tx.sender}:{tx.nonce} does "
                        f"not apply ({exc})") from exc
                txs.append(tx)
            block = Block(height, parent, record["proposer"], tuple(txs),
                          state.root())
            if block.state_root != record["state_root"]:
                raise CorruptionError(height, "state root mismatch")
            if block.digest != record["digest"]:
                raise CorruptionError(height, "block digest mismatch")
            parent = block.digest
        height += 1
    return state


def dump_text(source) -> str:
    """Render a chain log as human-readable structured text.

    Raises CorruptionError, with the block height, on a malformed record.
    """
    records = load_log(source) if not isinstance(source, list) else source
    lines = []
    for i, record in enumerate(records):
        height = i - 1 if i else None
        with _reading(height):
            lines += _record_lines(record, height)
    return "\n".join(lines) + "\n"


def _record_lines(record: dict, height) -> list:
    kind = record.get("type")
    lines = []
    if kind == RECORD_GENESIS:
        state = record["state"]
        lines.append("genesis")
        lines.append(f"  operator   {record['operator']}")
        lines.append(f"  authorities {' '.join(record['authorities'])}")
        lines.append(f"  users      {' '.join(state['users'])}")
        lines.append(f"  horizon    {state['horizon']}  "
                     f"rho {state['rho']}")
        for acct, bal in sorted(state["balances"].items()):
            lines.append(f"  balance    {acct:<12} {bal}")
        lines.append(f"  state_root {record['state_root']}")
    elif kind == RECORD_BLOCK:
        lines.append(f"block {record['height']}  "
                     f"proposer {record['proposer']}  "
                     f"txs {len(record['txs'])}")
        lines.append(f"  parent     {record['parent']}")
        for raw in record["txs"]:
            summary = _tx_summary(raw)
            lines.append(f"  tx {raw['txid'][:16]}  {summary}")
        lines.append(f"  state_root {record['state_root']}")
        lines.append(f"  digest     {record['digest']}")
    else:
        raise CorruptionError(height, f"unknown record type {kind!r}")
    return lines


def _tx_summary(raw: dict) -> str:
    kind = raw["kind"]
    p = raw["payload"]
    if kind == TX_TRANSFER:
        return (f"transfer {p['from']} -> {p['to']}  "
                f"amount {p['amount']:.6g}")
    if kind == TX_TRADING:
        peers = " ".join(sorted(p["trades"]))
        return f"trading {p['user']} nonce {raw['nonce']}  peers {peers}"
    if kind == TX_SERVICE:
        tot = sum(sum(p[k]) for k in ("e_fit", "e_dr", "e_as"))
        return (f"service {raw['sender']} nonce {raw['nonce']}  "
                f"total {tot:.6g}")
    return f"{kind} {raw['sender']} nonce {raw['nonce']}"
