"""Host-speed reference for the benchmark's timings.

The benchmark runs on two vCPUs of a shared host whose speed moves by up
to 2x over seconds to minutes: the same ledger round took 0.72 to 1.27
times its median in 40-second windows, which no bound on a raw time
survives.  So the benchmark reports times in reference seconds.  A
reference chunk, fixed work on data of the benchmark's own, runs
interleaved with the measured code: on SIGALRM every PERIOD_S of wall
time, and once at each end of a phase.  A phase's time is its wall time
less the chunks it contains, scaled by the chunk's nominal time over its
median time in the phase.

The chunk does the workload's kind of work, because kinds of work slow
down by different factors when the host does.  Every chunk runs 16 steps
of a small dense ADMM iteration (matrix-vector products, a clip, a
Cholesky solve), the household QPs' work; the ledger's chunk adds 3
canonical-JSON digests before them, and the oracle's one matrix-vector
product with a 16 MB matrix, which lives in the shared L3 cache as the
oracle's own matrices do.  On the host it was tuned on, repetitions of
one workload varied in raw wall time with a coefficient of variation of
8 to 15 %, and in reference seconds of 4 to 6 %; the ADMM steps alone
under-corrected the ledger's slow phases and over-corrected the
oracle's fast ones, and the digests alone over-corrected every workload.

The chunk never calls the program, so a change to the program moves the
scaled time as it moves the raw time.  The chunks cost 2.5 to 6 % of a
phase's wall time, which the subtraction removes, and disturb the caches
between them, which it does not.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time

import numpy as np
import scipy.linalg

# a chunk's time at the reference speed: its ADMM steps, each digest and
# the large product
STEPS_S = 1.2e-3
DIGEST_S = 0.33e-3
PRODUCT_S = 1.6e-3
PERIOD_S = 0.05         # wall time between chunks inside a phase


class Reference:
    """The reference chunk: `digests` canonical-JSON digests of a 12-pair
    trade table, a 1300 x 1565 matrix-vector product if `large`, then 16
    steps of a 300 x 150 ADMM-like iteration."""

    def __init__(self, digests: int, large: bool):
        rng = np.random.default_rng(0)
        self.digests = digests
        self.nominal = STEPS_S + digests * DIGEST_S + large * PRODUCT_S
        self.doc = {f"u{i}|u{j}": [float(v) for v in rng.normal(size=24)]
                    for i in range(4) for j in range(4) if i != j}
        self.big = rng.normal(size=(1300, 1565)) if large else None
        self.M = rng.normal(size=(300, 150))
        self.chol = scipy.linalg.cho_factor(
            self.M.T @ self.M + 150.0 * np.eye(150))

    def chunk(self):
        for _ in range(self.digests):
            hashlib.sha256(json.dumps(self.doc, sort_keys=True,
                                      separators=(",", ":")).encode())
        if self.big is not None:
            self.big @ np.ones(self.big.shape[1])
        x = np.zeros(150)
        for _ in range(16):
            z = np.clip(self.M @ x, -1.0, 1.0)
            x = scipy.linalg.cho_solve(self.chol, self.M.T @ z + 1.0,
                                       check_finite=False)


class Phase:
    __slots__ = ("start", "first", "spent")

    def __init__(self, start, first, spent):
        self.start = start      # perf_counter at the phase's start
        self.first = first      # index of its first chunk sample
        self.spent = spent      # chunk time spent before it


class Sampler:
    """Interleaves reference chunks with the running code.

    `digests` and `large` set the chunk's kind of work (Reference).
    `since` is the perf_counter the first phase starts at (a process's
    start, so that set-up before the sampler existed is counted); the
    sampler's own construction is charged to the chunks, not the phase.
    The timer is one-shot and re-armed after each chunk, and SIGALRM is
    blocked during the chunks run outside the handler, so chunks never
    nest.
    """

    def __init__(self, since: float, digests: int, large: bool):
        t = time.perf_counter()
        self.ref = Reference(digests, large)
        self.ref.chunk()                # warm: first calls load code
        self.samples: list[float] = []
        self.spent = time.perf_counter() - t
        self.running = False
        self.origin = Phase(since, 0, 0.0)
        self._chunk()

    def _chunk(self):
        """One chunk outside the handler; its time is charged."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = time.perf_counter()
            self.ref.chunk()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.spent += t1 - t0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.ref.chunk()
        self.samples.append(time.perf_counter() - t0)
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self.running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self) -> Phase:
        """Start a phase: one chunk, then the phase's clock."""
        self._chunk()
        return Phase(time.perf_counter(), len(self.samples) - 1,
                     self.spent)

    def end(self, phase: Phase) -> tuple[float, float]:
        """End a phase; return its (raw, reference) seconds.

        raw is the phase's wall time less the chunks inside it.  The
        chunk at the phase's start and one run now bracket those chunks.
        """
        stop = time.perf_counter()
        raw = stop - phase.start - (self.spent - phase.spent)
        self._chunk()
        chunks = self.samples[phase.first:]
        return raw, raw * self.ref.nominal / statistics.median(chunks)
