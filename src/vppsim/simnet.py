"""Round-based message harness between household agents and the chain:
the one path a trading round takes.

Each round is simulated as a discrete-tick event sequence: the chain's
dual state goes out to every agent over a link latency (one latency for
every link), each agent solves its local problem and sends a trading
transaction back, the scheduled authority seals a block once the last
transaction arrives, and the block application runs the contract's dual
update.  The coordination state lives only in the chain's committed
storage, which is never written, so rounds read it by reference, and
the transport hands the trading loop that state itself.
Every tick of a round is drawn before any agent solves, so a round that
would time out leaves the chain as it found it; the draws advance the
latency stream only once the round's block is sealed, so a retried
round repeats the ticks of a fault-free one.  Only the latency stream
is rewound: the agents solve before the block is sealed, so a refused
round still advances each agent's warm start and solve count, and a
retry's trades start from there.  A fixed seed fixes
every latency draw, so at a fixed BLAS thread count (see qp.py) the
full tick-by-tick event log is reproducible; arrival order never
matters because the update only runs on the complete trade map.
Every event ref is an address in the chain log: `deliver` names the tip
(block digest or genesis root) the dual slice was read from; `solve`,
`arrive` and `service` a txid; `block` and `settle` (or "none") a block.
"""

from dataclasses import dataclass

import numpy as np

# digest stays bound here: perfbench's tracer test wraps it in this module
from .chain import (OPERATOR, Chain, ContractState, digest,  # noqa
                    service_tx, trading_tx)
from .agent import AgentRuntime, resolve_trade_cap
from .coordinator import AlgoConfig
from .model import InvalidInput, Tariff


class SimError(Exception):
    pass


class RoundTimeout(SimError):
    """An agent failed to deliver its trades before the round deadline."""

    def __init__(self, agent: str, deadline: int):
        self.agent = agent
        self.deadline = deadline
        super().__init__(
            f"agent {agent!r} silent past tick {deadline}; round aborted")


@dataclass
class NetConfig:
    """One delivery delay, in simulated ticks, for every link.

    latency is either a fixed tick count or an inclusive (lo, hi) range
    drawn uniformly per message.  Delays are non-negative, a range has
    lo <= hi, and the timeout must exceed the largest possible delay.
    """

    latency: object = (1, 5)
    timeout: int = 50
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.latency if isinstance(self.latency, tuple) \
            else (self.latency, self.latency)
        if not 0 <= lo <= hi:
            raise SimError("latency must be a non-negative tick count or "
                           f"a range lo <= hi, got {self.latency}")
        if self.timeout <= hi:
            raise SimError(
                f"timeout {self.timeout} must exceed max latency {hi}")


def _draw(rng, delay) -> int:
    if isinstance(delay, tuple):
        lo, hi = delay
        return int(rng.integers(lo, hi + 1))
    return int(delay)


@dataclass
class EventRecord:
    tick: int
    kind: str
    node: str
    ref: str


def write_events(events, path):
    with open(path, "w") as fh:
        fh.write("# tick\tkind\tnode\tref\n")
        for ev in events:
            fh.write(f"{ev.tick}\t{ev.kind}\t{ev.node}\t{ev.ref}\n")


@dataclass
class RoundOutcome:
    block: object
    end_tick: int


def run_round(k: int, agents: dict, chain: Chain, cfg: NetConfig, rng,
              start_tick: int = 0, events: list | None = None
              ) -> RoundOutcome:
    """Simulate one full trading iteration over the network.

    Draws the round's schedule first: each agent's delivery tick and the
    arrival tick of its trading transaction.  If an arrival would land
    after start_tick + cfg.timeout, raises RoundTimeout naming the first
    such agent in delivery order, before any agent solves, so the chain
    is left as it was.  Otherwise delivers each agent its dual slice and
    seals every trading transaction into one block (which runs the dual
    update) at the last arrival.  If the chain refuses the batch
    (TxRejected) or cannot apply it (TxFailed), the error propagates and
    the chain and the event log stay as they were.  rng is rewound
    after the draws and moved past them only once the block is sealed,
    so a round that times out or fails leaves rng as it was too, and a
    retry draws the same ticks.  Only rng is rewound: the agents' solves
    come before `produce_block`, so a refused batch still advances each
    agent's warm start and solve count.
    """
    state = chain.state()
    if state.round != k:
        raise SimError(f"chain is at round {state.round}, expected {k}")
    if tuple(sorted(agents)) != state.users:
        raise SimError("agent set does not match chain users")
    log = events if events is not None else []
    deadline = start_tick + cfg.timeout
    # Two draws per agent in sorted-agent order: the delay down to it and
    # the delay of its transaction back.
    before = rng.bit_generator.state
    deliver, arrive = {}, {}
    for u in state.users:
        deliver[u] = start_tick + _draw(rng, cfg.latency)
        arrive[u] = deliver[u] + _draw(rng, cfg.latency)
    drawn = rng.bit_generator.state
    rng.bit_generator.state = before
    order = sorted(state.users, key=deliver.get)
    late = [u for u in order if arrive[u] > deadline]
    if late:
        raise RoundTimeout(late[0], deadline)
    txs = {}
    for u in order:
        dual = chain.contract_call("read_dual", user=u)
        txs[u] = trading_tx(u, chain.next_nonce(u),
                            agents[u].solve_round(dual))
    # events by tick, deliveries before arrivals, then by delivery rank
    timeline = sorted(
        [(deliver[u], False, i, u) for i, u in enumerate(order)]
        + [(arrive[u], True, i, u) for i, u in enumerate(order)])
    # the round is sealed whole or not at all, admitted in arrival order;
    # its events are logged only once the block is
    tip = chain.tip()
    block = chain.produce_block(
        [txs[u] for _, arriving, _, u in timeline if arriving])
    rng.bit_generator.state = drawn
    for tick, arriving, _, u in timeline:
        if arriving:
            log.append(EventRecord(tick, "arrive", u, txs[u].txid))
        else:
            log.append(EventRecord(tick, "deliver", u, tip))
            log.append(EventRecord(tick, "solve", u, txs[u].txid))
    end_tick = max(arrive.values(), default=start_tick)
    log.append(EventRecord(end_tick, "block", block.proposer, block.digest))
    return RoundOutcome(block=block, end_tick=end_tick)


class ChainTransport:
    """Message channel for the trading loop, routed through the chain.

    Owns the household agents, the chain, the loop's cfg and the
    resolved per-pair trade cap.  Each exchange runs one simulated
    network round and returns the contract state committed with that
    round's block, so the chain is the only place the coordination
    update runs and the only place its state lives.
    """

    def __init__(self, profiles, tariff: Tariff, cfg: AlgoConfig,
                 net: NetConfig | None = None):
        profiles = sorted(profiles, key=lambda p: p.user_id)
        if len(profiles) < 2:
            raise InvalidInput(
                "decentralized run needs at least two households")
        ids = [p.user_id for p in profiles]
        self.cfg = cfg
        self.trade_cap = resolve_trade_cap(cfg.trade_cap, profiles)
        self.agents = {
            p.user_id: AgentRuntime(
                p, tariff, [v for v in ids if v != p.user_id],
                cfg.rho, self.trade_cap)
            for p in profiles}
        self.chain = Chain(ids, [f"auth{i}" for i in range(5)],
                           profiles[0].horizon, rho=cfg.rho)
        self.net = net if net is not None else NetConfig()
        self.rng = np.random.default_rng(self.net.seed)
        self.events: list[EventRecord] = []
        self.tick = 0

    def exchange(self) -> ContractState:
        """Run the committed round; returns the state its block committed."""
        outcome = run_round(self.chain.state().round, self.agents,
                            self.chain, self.net, self.rng,
                            start_tick=self.tick, events=self.events)
        self.tick = outcome.end_tick + 1
        return self.chain.state()

    # -- post-convergence -------------------------------------------------

    def finalize(self, schedules: dict, tariff: Tariff) -> list:
        """Record service commitments on chain, then settle in tokens.

        Like a round's, the service ticks move the transport's rng past
        their draws only once their block is sealed.
        """
        last = self.tick
        txs, events = [], []
        before = self.rng.bit_generator.state
        for u in sorted(schedules):
            s = schedules[u]
            tick = self.tick + _draw(self.rng, self.net.latency)
            txs.append(service_tx(u, self.chain.next_nonce(u),
                                  s.e_fit, s.e_dr, s.e_as))
            events.append(EventRecord(tick, "service", u, txs[-1].txid))
            last = max(last, tick)
        drawn = self.rng.bit_generator.state
        self.rng.bit_generator.state = before
        # the services are sealed whole or not at all, like a round
        block = self.chain.produce_block(txs)
        self.rng.bit_generator.state = drawn
        self.events += events
        self.events.append(EventRecord(last, "block", block.proposer,
                                       block.digest))
        transfers = self.chain.settle(schedules, tariff)
        ref = self.chain.blocks[-1].digest if transfers else "none"
        self.events.append(EventRecord(last + 1, "settle", OPERATOR, ref))
        self.tick = last + 2
        return transfers
