"""Round-based message harness between household agents and the chain.

Each trading iteration is simulated as a discrete-tick event sequence:
the chain's dual state goes out to every agent over a per-link latency,
each agent solves its local problem and sends a trading transaction
back, the scheduled authority seals a block once the last transaction
arrives, and the block application triggers the dual update.  A fixed
seed fixes every latency draw, so at a fixed BLAS thread count (see
qp.py) the full tick-by-tick event log is reproducible; arrival order
never matters because the update only runs on the complete trade map.
Every event ref is an address in the chain log: `deliver` names the tip
(block digest or genesis root) the dual slice was read from; `solve`,
`arrive` and `service` a txid; `block` and `settle` (or "none") a block.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

# digest stays bound here: perfbench's tracer test wraps it in this module
from .chain import OPERATOR, Chain, digest, service_tx, trading_tx  # noqa
from .coordinator import AlgoConfig, DualState, LocalTransport
from .model import Tariff


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
    """Per-link delivery delays in simulated ticks.

    latency is either a fixed tick count or an inclusive (lo, hi) range
    drawn uniformly per message; overrides substitute per-node values.
    Delays are non-negative, a range has lo <= hi, and the timeout must
    exceed the largest possible single-link delay.
    """

    latency: object = (1, 5)
    timeout: int = 50
    seed: int = 0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(0 <= lo <= hi for lo, hi in self._ranges()):
            raise SimError("latencies must be non-negative tick counts or "
                           f"ranges lo <= hi, got {self._ranges()}")
        worst = self.max_latency()
        if self.timeout <= worst:
            raise SimError(
                f"timeout {self.timeout} must exceed max latency {worst}")

    def link(self, node: str):
        return self.overrides.get(node, self.latency)

    def _ranges(self) -> list:
        return [d if isinstance(d, tuple) else (d, d)
                for d in [self.latency, *self.overrides.values()]]

    def max_latency(self) -> int:
        return max(hi for _, hi in self._ranges())


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

    Delivers each agent its dual slice, collects every trading
    transaction, and seals the block (which runs the dual update) at the
    last arrival.  Raises RoundTimeout naming the first silent agent if
    any transaction would land after start_tick + cfg.timeout.
    """
    state = chain.state()
    if state.round != k:
        raise SimError(f"chain is at round {state.round}, expected {k}")
    if sorted(agents) != state.users:
        raise SimError("agent set does not match chain users")
    log = events if events is not None else []
    deadline = start_tick + cfg.timeout
    heap = []
    seq = 0
    # All latency draws happen here in sorted-agent order, so the random
    # stream is identical no matter how the events later interleave.
    up_lat = {}
    for u in sorted(agents):
        down = _draw(rng, cfg.link(u))
        up_lat[u] = _draw(rng, cfg.link(u))
        heapq.heappush(heap, (start_tick + down, 0, seq, "deliver", u))
        seq += 1
    heapq.heappush(heap, (deadline, 1, seq, "timeout", ""))
    seq += 1
    arrived = set()
    last_arrival = start_tick
    while heap:
        tick, _, _, kind, u = heapq.heappop(heap)
        if kind == "deliver":
            dual = chain.contract_call("read_dual", user=u)
            log.append(EventRecord(tick, "deliver", u, chain.tip()))
            tx = trading_tx(u, chain.next_nonce(u),
                            agents[u].solve_round(dual))
            log.append(EventRecord(tick, "solve", u, tx.txid))
            arrival = tick + up_lat[u]
            if arrival > deadline:
                raise RoundTimeout(u, deadline)
            heapq.heappush(heap, (arrival, 0, seq, "arrive", (u, tx)))
            seq += 1
        elif kind == "arrive":
            u, tx = u
            chain.submit_tx(tx)
            arrived.add(u)
            last_arrival = max(last_arrival, tick)
            log.append(EventRecord(tick, "arrive", u, tx.txid))
        elif kind == "timeout":
            missing = sorted(set(agents) - arrived)
            if missing:
                raise RoundTimeout(missing[0], deadline)
    block = chain.produce_block()
    log.append(EventRecord(last_arrival, "block", block.proposer,
                           block.digest))
    return RoundOutcome(block=block, end_tick=last_arrival)


class ChainTransport(LocalTransport):
    """Message channel for the trading loop that routes through the chain.

    Drop-in replacement for the in-process transport, with the same
    agents: each exchange runs one simulated network round, and both the
    trades and the next dual state are read from the contract state
    committed with that round's block, so the chain is the only place
    the coordination update runs.
    """

    def __init__(self, profiles, tariff: Tariff, cfg: AlgoConfig,
                 net: NetConfig | None = None):
        super().__init__(profiles, tariff, cfg)
        self.chain = Chain(sorted(self.agents),
                           [f"auth{i}" for i in range(5)],
                           profiles[0].horizon, rho=cfg.rho)
        self.net = net if net is not None else NetConfig()
        self.rng = np.random.default_rng(self.net.seed)
        self.events: list[EventRecord] = []
        self.tick = 0

    def exchange(self, state: DualState) -> tuple[np.ndarray, DualState]:
        outcome = run_round(state.iteration, self.agents, self.chain,
                            self.net, self.rng, start_tick=self.tick,
                            events=self.events)
        self.tick = outcome.end_tick + 1
        committed = self.chain.state()
        return committed.trades, committed.dual()

    # -- post-convergence -------------------------------------------------

    def finalize(self, schedules: dict, tariff: Tariff) -> list:
        """Record service commitments on chain, then settle in tokens."""
        last = self.tick
        for u in sorted(schedules):
            s = schedules[u]
            lat = _draw(self.rng, self.net.link(u))
            tick = self.tick + lat
            tx = service_tx(u, self.chain.next_nonce(u),
                            s.e_fit, s.e_dr, s.e_as)
            self.chain.submit_tx(tx)
            self.events.append(EventRecord(tick, "service", u, tx.txid))
            last = max(last, tick)
        block = self.chain.produce_block()
        self.events.append(EventRecord(last, "block", block.proposer,
                                       block.digest))
        transfers = self.chain.settle(schedules, tariff)
        ref = self.chain.blocks[-1].digest if transfers else "none"
        self.events.append(EventRecord(last + 1, "settle", OPERATOR, ref))
        self.tick = last + 2
        return transfers

    def save_events(self, path):
        write_events(self.events, path)
