"""Simulated proof-of-authority ledger hosting the coordination contract.

The chain is a deterministic state machine: a fixed list of named
authorities, set at genesis, takes turns sealing blocks, each from one
explicit batch applied in (sender, nonce) order, all or nothing, and
`apply_tx` is the only state transition, a pure function of the parent
state and one ordered transaction.  The contract storage holds the
trading coordination state (trades, auxiliary trades, multipliers, round
counter) plus token balances.  Each block commits a digest of the
storage's binary encoding as the state root, and the genesis record
carries the chain's own inputs, so replay re-runs the whole log through
a `Chain` and accepts it only if every rebuilt record equals the logged
one byte for byte; `dump_text` renders only a log that replays.

A transaction's payload is taken in once, read-only, in
`Transaction.__post_init__`: float vectors, from an agent's ndarray or a
replayed log's list, become float64 arrays, maps mappingproxies and
other lists tuples; every later layer (the id, the payload checks, the
contract write) reads that payload.  Transaction ids
and block digests come from `digest`, which hashes a binary encoding
too: a canonical-JSON header with every float vector lifted out, then
the vectors' float64 bytes, so no id prints a float.  The log itself
stays length-prefixed canonical JSON, with each vector written as a list
(`Transaction.to_record`).

There is no cryptography here beyond content digests: sender identity is
taken at face value, which is the appropriate level of fidelity for a
desk-scale protocol study.
"""

import hashlib
import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .agent import DualSlice
from .coordinator import dual_update, lambda_update
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


class ContractError(ChainError):
    """Contract function precondition violated."""


class _TxError(ChainError):
    """A transaction that kept its block from being sealed, named by its
    sender and nonce."""

    def __init__(self, tx, detail):
        self.sender, self.nonce = tx.sender, tx.nonce
        super().__init__(
            f"transaction {tx.sender}:{tx.nonce} {self.verdict}: {detail}")


class TxRejected(_TxError):
    """Transaction refused at admission (bad sender, nonce, or payload)."""
    verdict = "refused"


class TxFailed(_TxError, ContractError):
    """Transaction admitted but failing to apply."""
    verdict = "does not apply"


class SettlementError(ChainError):
    """Settlement aborted; no transfers were applied."""


class CorruptionError(ChainError):
    """Replay found a record that no `Chain` would have written."""

    def __init__(self, height, detail):
        self.height = height
        where = "genesis" if height is None else f"block {height}"
        super().__init__(f"chain log corrupt at {where}: {detail}")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

# the leaf types of a JSON value that need no conversion and no copy
_SCALARS = frozenset({float, int, str, bool, type(None)})
# a JSON object: a plain dict, or a transaction payload's read-only view
_MAPS = (dict, MappingProxyType)
# the number types of a plain payload (no NaN or inf: it would have no id)
_NUMBERS = frozenset({float, int})
# the element types of a list that digest hashes as float64 bytes
_FLOAT = frozenset({float})
_F8 = np.dtype(np.float64)


def _plain(obj):
    """A value as plain JSON values (dicts, lists, numbers, strings) that
    share no mutable part with obj: arrays become lists."""
    if isinstance(obj, _MAPS):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        if _SCALARS.issuperset(map(type, obj)):
            return list(obj)
        return [_plain(v) for v in obj]
    return obj


def _is_vector(obj) -> bool:
    """A non-empty 1-D float64 array: how the ledger holds a float vector."""
    return isinstance(obj, np.ndarray) and obj.ndim == 1 \
        and obj.size > 0 and obj.dtype == _F8


def _vectors(obj):
    """A transaction payload as the ledger holds it, read-only throughout:
    `_plain(obj)`, except that each float vector, a non-empty 1-D float64
    array or a non-empty list of Python floats (as a replayed log holds
    it), becomes a read-only float64 array of its own, copied once, each
    map a read-only mapping and each other list a tuple.  Other arrays and
    numpy scalars go through `tolist()`, so `digest` gives every form of
    a value the same bytes."""
    if isinstance(obj, _MAPS):
        return MappingProxyType({str(k): _vectors(v) for k, v in obj.items()})
    if _is_vector(obj):
        return _read_only(obj.copy())
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if not isinstance(obj, (list, tuple)):
        return obj
    if obj and _FLOAT.issuperset(map(type, obj)):
        return _read_only(np.array(obj, float))
    if _SCALARS.issuperset(map(type, obj)):
        return tuple(obj)
    return tuple(_vectors(v) for v in obj)


def _read_only(vec: np.ndarray) -> np.ndarray:
    vec.setflags(write=False)
    return vec


def canonical(obj) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, repr floats.

    Python's json encoder renders floats with repr, which round-trips
    float64 exactly, so equal states always produce identical bytes.
    obj holds plain JSON values only; anything else is a TypeError.
    """
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":"), allow_nan=False).encode()


def digest(obj) -> str:
    """SHA-256 of a typed binary encoding of plain JSON values and numpy
    arrays: the one content address of the ledger (transaction ids,
    block digests).

    The encoding mirrors `ContractState.root`: a length-prefixed
    canonical-JSON header, then the big-endian float64 bytes of every
    float vector, in layout order.  A float vector is a non-empty list
    that holds floats only or a non-empty 1-D float64 array; any other
    array counts as its `tolist()`, so obj and `_plain(obj)` have one
    digest.  The header holds obj with each vector replaced by null, and
    beside it the layout: the key path and length of each vector, in
    sorted key order.  It is injective over plain JSON values: the
    header fixes which lists are lifted and how long they are, so `[1.0]`
    and `[1]`, `0.0` and `-0.0`, and a vector and a literal null at the
    same key all give distinct bytes.  A non-finite float has no id: it
    raises ValueError, inside a vector as anywhere else.
    """
    layout, vectors = [], []
    header = canonical({"layout": layout,
                        "value": _lift(obj, [], layout, vectors)})
    h = hashlib.sha256(struct.pack(">I", len(header)) + header)
    if vectors:
        data = np.concatenate(vectors, dtype=">f8")
        if not np.isfinite(data).all():
            raise ValueError("non-finite float in a hashed vector")
        h.update(data.tobytes())
    return h.hexdigest()


def _lift(obj, path, layout, vectors):
    """obj with each float vector replaced by None; the vector's path and
    length go to layout and the vector itself to vectors, walking dict
    keys in sorted order."""
    if isinstance(obj, _MAPS):
        return {k: _lift(obj[k], [*path, k], layout, vectors)
                for k in sorted(obj)}
    if isinstance(obj, np.ndarray):
        if _is_vector(obj):
            layout.append([path, len(obj)])
            vectors.append(obj)
            return None
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if obj and _FLOAT.issuperset(map(type, obj)):
            layout.append([path, len(obj)])
            vectors.append(obj)
            return None
        return [_lift(v, [*path, i], layout, vectors)
                for i, v in enumerate(obj)]
    return obj


# ---------------------------------------------------------------------------
# transactions and blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Transaction:
    """A transaction; its id is derived here from its content, never given.

    The payload is taken in once, here (`_vectors`): each float vector,
    an agent's ndarray or a replayed log's list alike, becomes a
    read-only float64 array of the transaction's own, each map a
    read-only mapping and each other list a tuple, so no edit can make
    the content differ from the id.  `to_record` writes the payload back
    as plain dicts and lists, so the log stays canonical JSON.  The id
    covers every field, so two transactions compare by `txid`.
    """
    sender: str
    nonce: int
    kind: str
    payload: MappingProxyType
    txid: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "payload", _vectors(self.payload))
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

class ContractState:
    """Coordination contract storage plus token accounts: the trading
    loop's one coordination state.

    The three contract functions are set_trading, compute_dual and
    read_dual.  compute_dual applies the coordination module's
    `dual_update` and `lambda_update`; it is the one place a trading
    round's dual update runs.  `users` is a sorted tuple.  A state the
    chain has committed rebinds no attribute, and its arrays, balances,
    services and submitted users are read-only (see `_committed`);
    `copy` gives a writable state.
    """

    def __init__(self, users, horizon: int, rho: float, balances: dict):
        users = tuple(sorted(users))
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
        """Store a user's trades; `Chain.submit_tx` has already checked
        that they come from a user and cover its peers over the horizon."""
        if user in self.submitted:
            raise ContractError(
                f"{user} already submitted trades for round {self.round}")
        i = self.users.index(user)
        for v, vec in trades.items():
            self.trades[i, self.users.index(v)] = vec
        self.submitted.add(user)

    def compute_dual(self):
        missing = sorted(set(self.users) - self.submitted)
        if missing:
            raise ContractError(
                f"round {self.round} incomplete, missing trades from "
                f"{', '.join(missing)}")
        aux = dual_update(self.trades, self.mult, self.rho)
        self.mult = lambda_update(self.mult, aux, self.trades, self.rho)
        self.aux = aux
        self.round += 1
        self.submitted = set()

    def read_dual(self, user: str) -> DualSlice:
        """The (user, .) rows only; this is all a household may see."""
        if user not in self.users:
            raise ContractError(f"unknown user {user!r}")
        i = self.users.index(user)
        peers = self.users[:i] + self.users[i + 1:]
        # fresh float64 rows of the slice's own, which DualSlice takes as
        # they are
        aux = np.concatenate((self.aux[i, :i], self.aux[i, i + 1:]))
        mult = np.concatenate((self.mult[i, :i], self.mult[i, i + 1:]))
        return DualSlice(aux=dict(zip(peers, aux)),
                         mult=dict(zip(peers, mult)), rho=self.rho)

    # -- serialization ----------------------------------------------------

    def root(self) -> str:
        """SHA-256 of a typed binary encoding of the state.

        A length-prefixed canonical-JSON header (users, horizon, rho,
        round, balances, submitted users and the sorted (user, key,
        length) layout of the service vectors), then the big-endian
        float64 bytes of trades, aux and mult over the ordered pairs
        (u, v), u != v, in row-major order, then each service vector in
        layout order.  The header fixes every length, so distinct states
        (signed zeros included) give distinct bytes, without printing a
        float.
        """
        layout = sorted((u, k, len(v)) for u, s in self.services.items()
                        for k, v in s.items())
        header = canonical({
            "users": self.users, "horizon": self.horizon, "rho": self.rho,
            "round": self.round, "balances": dict(self.balances),
            "submitted": sorted(self.submitted), "services": layout})
        h = hashlib.sha256(struct.pack(">I", len(header)) + header)
        off = ~np.eye(len(self.users), dtype=bool)
        for arr in (self.trades, self.aux, self.mult):
            h.update(arr[off].astype(">f8").tobytes())
        for u, k, _ in layout:
            h.update(np.asarray(self.services[u][k], ">f8").tobytes())
        return h.hexdigest()

    def copy(self) -> "ContractState":
        """A writable deep copy, also of a read-only committed state."""
        new = object.__new__(ContractState)
        vars(new).update(vars(self))
        new.balances, new.submitted = dict(self.balances), set(self.submitted)
        new.trades, new.aux, new.mult = (
            self.trades.copy(), self.aux.copy(), self.mult.copy())
        new.services = {u: {k: v.copy() for k, v in s.items()}
                        for u, s in self.services.items()}
        return new


class _CommittedState(ContractState):
    """A state the chain has committed: no attribute can be rebound."""

    def __setattr__(self, name, value):
        raise AttributeError(
            f"committed contract state cannot rebind {name!r}")


def _committed(state: ContractState) -> ContractState:
    """Make everything readers get by reference read-only (the arrays,
    balances, services with their vectors, and submitted users) and
    refuse rebinding any attribute, so a stray write into committed
    state raises instead of corrupting it."""
    vectors = [v for s in state.services.values() for v in s.values()]
    for arr in (state.trades, state.aux, state.mult, *vectors):
        arr.flags.writeable = False
    state.balances = MappingProxyType(state.balances)
    state.services = MappingProxyType(
        {u: MappingProxyType(s) for u, s in state.services.items()})
    state.submitted = frozenset(state.submitted)
    state.__class__ = _CommittedState
    return state


def apply_tx(state: ContractState, tx: Transaction):
    """Apply one committed transaction to contract storage.

    A trading transaction that completes the round triggers the dual
    update in place, so the update is itself an effect of
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


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------

class Chain:
    """Proof-of-authority chain with round-robin block production.

    The authorities are fixed at genesis and take turns as proposers by
    height.  Every writer (a trading round, the service commitments,
    settlement, replay) seals its batch with one `produce_block(txs)`
    call, which commits all of it or nothing; there is no pending pool.
    Each block is stored once: `records` derives the log from the genesis inputs and
    the blocks, and save_log persists it as length-prefixed canonical
    JSON.  The simulation drives a chain from one thread; it takes no
    lock.
    """

    def __init__(self, users, authorities, horizon: int, rho: float = 1.0):
        users = sorted(users)
        authorities = list(authorities)
        if int(horizon) < 1:
            raise ChainError(f"horizon must be at least 1, got {horizon}")
        if not 0.0 < float(rho) < float("inf"):
            raise ChainError(f"rho must be positive and finite, got {rho}")
        if not authorities:
            raise ChainError("authority list cannot be empty")
        if len(set(authorities)) != len(authorities):
            raise ChainError("duplicate authority ids")
        if OPERATOR in users:
            raise ChainError("operator account cannot also be a user")
        balances = {OPERATOR: OPERATOR_BALANCE,
                    **dict.fromkeys(users, USER_BALANCE)}
        self._state = _committed(ContractState(users, horizon, rho,
                                               balances))
        self._accounts = set(users) | {OPERATOR}
        self._nonces: dict[str, int] = {}
        self._authorities = tuple(authorities)
        self.blocks: list[Block] = []
        self._genesis = {
            "type": RECORD_GENESIS, "authorities": authorities,
            "operator": OPERATOR, "users": users,
            "horizon": self._state.horizon, "rho": self._state.rho,
            "balances": balances, "state_root": self._state.root()}

    # -- read side --------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def records(self) -> list:
        """The chain log: the genesis record, then one record per block,
        as fresh plain values that share nothing with the chain."""
        return list(self._records())

    def _records(self):
        """`records` one at a time: save_log writes each as it comes, so
        only one block's plain copy of its vectors is alive at once."""
        yield _plain(self._genesis)
        for block in self.blocks:
            yield block.to_record()

    def state(self) -> ContractState:
        """The committed contract storage itself, not a copy: the state
        the trading loop reads.  It is never written (a block applies its
        transactions to a copy and swaps that in), so it keeps its root
        after later blocks; its arrays, balances, services and submitted
        users are read-only.  Take `.copy()` to edit."""
        return self._state

    def contract_call(self, fn: str, **kwargs):
        """Read-only contract access against committed state."""
        if fn != "read_dual":
            raise ContractError(
                f"{fn} mutates state and must go through transactions")
        return self._state.read_dual(**kwargs)

    def tip(self) -> str:
        return self.blocks[-1].digest if self.blocks \
            else self._genesis["state_root"]

    def scheduled_proposer(self) -> str:
        return self._authorities[self.height % len(self._authorities)]

    def next_nonce(self, sender: str) -> int:
        return self._nonces.get(sender, -1) + 1

    # -- write side -------------------------------------------------------

    def submit_tx(self, tx: Transaction, nonces: dict):
        """Admit one transaction against `nonces` (sender -> last nonce),
        which it advances; raises TxRejected for an unknown sender, a
        nonce that is not an int above the sender's last, or a malformed
        payload."""
        if not isinstance(tx.sender, str) or tx.sender not in self._accounts:
            raise TxRejected(tx, f"unknown sender {tx.sender!r}")
        if type(tx.nonce) is not int:
            raise TxRejected(tx, f"nonce {tx.nonce!r} is not an integer")
        last = nonces.get(tx.sender, -1)
        if tx.nonce <= last:
            raise TxRejected(
                tx, f"nonce {tx.nonce} for {tx.sender} not above {last}")
        self._validate_payload(tx)
        nonces[tx.sender] = tx.nonce

    def _validate_payload(self, tx: Transaction):
        p = tx.payload
        if not isinstance(p, _MAPS):
            raise TxRejected(tx, f"{tx.kind} payload is not an object")
        if tx.kind == TX_TRANSFER:
            if set(p) != {"from", "to", "amount"}:
                raise TxRejected(tx, "malformed transfer payload")
            if p["from"] != tx.sender:
                raise TxRejected(tx, "transfer source must be the sender")
            if not isinstance(p["to"], str) or p["to"] not in self._accounts:
                raise TxRejected(
                    tx, f"unknown transfer recipient {p['to']!r}")
            if type(p["amount"]) not in _NUMBERS or p["amount"] < 0:
                raise TxRejected(tx, f"bad transfer amount {p['amount']!r}")
        elif tx.kind == TX_TRADING:
            if set(p) != {"user", "trades"} \
                    or not isinstance(p["trades"], _MAPS):
                raise TxRejected(tx, "malformed trading payload")
            if p["user"] != tx.sender:
                raise TxRejected(tx, "trading user must be the sender")
            peers = [u for u in self._state.users if u != tx.sender]
            if tx.sender not in self._state.users \
                    or sorted(p["trades"]) != peers:
                raise TxRejected(
                    tx, f"trades of {tx.sender} must cover exactly {peers}")
            self._check_vectors(tx, "trade vector to", p["trades"])
        elif tx.kind == TX_SERVICE:
            if set(p) != {"e_fit", "e_dr", "e_as"}:
                raise TxRejected(tx, "malformed service payload")
            if tx.sender not in self._state.users:
                raise TxRejected(tx, "service sender is not a user")
            self._check_vectors(tx, "service vector", p)
        else:
            raise TxRejected(tx, f"unknown transaction kind {tx.kind!r}")

    def _check_vectors(self, tx: Transaction, what: str, vectors):
        """Each vector must hold H numbers.  `Transaction` made every
        float vector a float64 array, whose shape is all there is to
        check; a tuple left in a payload holds something else than
        floats, so each element is checked."""
        H = self._state.horizon
        for key, vec in vectors.items():
            if isinstance(vec, np.ndarray):
                if vec.shape == (H,):
                    continue
            elif isinstance(vec, tuple) and len(vec) == H \
                    and _NUMBERS.issuperset(map(type, vec)):
                continue
            raise TxRejected(tx, f"{what} {key} must hold {H} numbers")

    def produce_block(self, txs=()) -> Block:
        """Seal the batch txs into the next block, as the scheduled
        proposer, all or nothing: each transaction is admitted in the given
        order (`submit_tx`) against a copy of the committed nonces, and the
        batch is applied in (sender, nonce) order (`apply_tx`) to a copy of
        the committed state; only then are the state, the nonces and the
        blocks replaced.  A TxRejected or TxFailed leaves the chain as it
        was."""
        txs, nonces = list(txs), dict(self._nonces)
        for tx in txs:
            self.submit_tx(tx, nonces)
        txs.sort(key=lambda t: (t.sender, t.nonce))
        work = self._state.copy()
        for tx in txs:
            try:
                apply_tx(work, tx)
            except ContractError as exc:
                raise TxFailed(tx, exc) from exc
        block = Block(self.height, self.tip(), self.scheduled_proposer(),
                      tuple(txs), work.root())
        self._state = _committed(work)
        self._nonces = nonces
        self.blocks.append(block)
        return block

    # -- settlement -------------------------------------------------------

    def settle(self, schedules: dict, tariff: Tariff) -> list:
        """Pay out converged schedules in tokens, atomically.

        One transfer per unordered trading pair (buyer pays seller the
        net peer-to-peer bill) plus one operator payment per user for
        feed-in, demand-response and ancillary-service rewards, sealed as
        one block.  If any transfer is refused (TxRejected) or fails to
        apply (SettlementError), nothing is committed.
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
        nonces = dict(self._nonces)
        txs = []
        for src, dst, amount in planned:
            nonces[src] = nonces.get(src, -1) + 1
            txs.append(transfer_tx(src, nonces[src], dst, amount))
        try:
            self.produce_block(txs)
        except TxFailed as exc:
            raise SettlementError(
                f"{exc.__cause__}; settlement aborted") from exc
        return txs

    # -- persistence ------------------------------------------------------

    def save_log(self, path):
        with open(path, "wb") as fh:
            for record in self._records():
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


def _fields(record: dict) -> dict:
    """A record as replay compares it: its transactions by id, every
    other field by its canonical bytes."""
    return {k: [t["txid"] for t in v] if k == "txs" else canonical(v)
            for k, v in record.items()}


def _block_fields(block: Block) -> dict:
    """`_fields(block.to_record())`, without copying any payload."""
    return {k: [t.txid for t in v] if k == "txs" else canonical(v)
            for k, v in {"type": RECORD_BLOCK, **vars(block)}.items()}


def _check_record(height, want: dict, logged: dict):
    """Require the logged record to have the rebuilt record's fields
    `want`; the error names the first field that differs.  Transactions
    compare by id: replay has derived each logged id from its own
    fields."""
    got = _fields(logged)
    if got != want:
        name = next(k for k in {**want, **got} if want.get(k) != got.get(k))
        raise CorruptionError(height, f"record field {name!r} differs")


def replay(source) -> ContractState:
    """Rebuild contract state by re-running a chain log through `Chain`.

    Accepts a path or an already-loaded record list.  The genesis is
    rebuilt by `Chain` from the logged inputs; each block's transactions
    are sealed by one `produce_block` call, so a block passes every
    check the live chain makes.  Each rebuilt record must equal the
    logged one byte for byte.  Raises CorruptionError naming the genesis
    or the first block whose record is malformed, holds a transaction the
    chain refuses or cannot apply, or differs from the rebuilt record.
    """
    records = load_log(source) if not isinstance(source, list) else source
    with _reading(None):
        if not records or records[0].get("type") != RECORD_GENESIS:
            raise CorruptionError(None, "log does not start with genesis")
        genesis = records[0]
        try:
            chain = Chain(genesis["users"], genesis["authorities"],
                          genesis["horizon"], genesis["rho"])
        except ChainError as exc:
            raise CorruptionError(None, f"genesis refused ({exc})") from exc
        _check_record(None, _fields(chain.records[0]), genesis)
    for height, record in enumerate(records[1:]):
        with _reading(height):
            txs = []
            for raw in record["txs"]:
                tx = Transaction(**{k: raw[k] for k in raw if k != "txid"})
                if tx.txid != raw["txid"]:
                    raise CorruptionError(height, "transaction id mismatch "
                                          f"for {tx.sender}:{tx.nonce}")
                txs.append(tx)
            try:
                block = chain.produce_block(txs)
            except _TxError as exc:
                raise CorruptionError(height, str(exc)) from exc
            _check_record(height, _block_fields(block), record)
    return chain.state()


def dump_text(source) -> str:
    """Render a chain log as human-readable structured text.

    The log is replayed first, so only a log that replays renders;
    anything else raises CorruptionError with the height of the first
    bad record.
    """
    records = load_log(source) if not isinstance(source, list) else source
    replay(records)
    lines = []
    for record in records:
        lines += _record_lines(record)
    return "\n".join(lines) + "\n"


def _record_lines(record: dict) -> list:
    lines = []
    if record["type"] == RECORD_GENESIS:
        lines.append("genesis")
        lines.append(f"  operator   {record['operator']}")
        lines.append(f"  authorities {' '.join(record['authorities'])}")
        lines.append(f"  users      {' '.join(record['users'])}")
        lines.append(f"  horizon    {record['horizon']}  "
                     f"rho {record['rho']}")
        for acct, bal in sorted(record["balances"].items()):
            lines.append(f"  balance    {acct:<12} {bal}")
        lines.append(f"  state_root {record['state_root']}")
    else:
        lines.append(f"block {record['height']}  "
                     f"proposer {record['proposer']}  "
                     f"txs {len(record['txs'])}")
        lines.append(f"  parent     {record['parent']}")
        for raw in record["txs"]:
            summary = _tx_summary(raw)
            lines.append(f"  tx {raw['txid'][:16]}  {summary}")
        lines.append(f"  state_root {record['state_root']}")
        lines.append(f"  digest     {record['digest']}")
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
    # a replayed log holds no other kind
    tot = sum(sum(p[k]) for k in ("e_fit", "e_dr", "e_as"))
    return (f"service {raw['sender']} nonce {raw['nonce']}  "
            f"total {tot:.6g}")
