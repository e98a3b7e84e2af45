"""vppsim benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload co3 --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

Workloads (closed loop, one caller, one BLAS/OpenMP thread):

  co3       run_co on gen_synthetic(seed=1, users=3, complementary=True),
            one 24-slot day settled over the default ChainTransport; the
            paper's trading loop.  Exercises the qp and agent layers.
  oracle5   centralized_day on gen_synthetic(seed=2, users=5,
            complementary=True), day 0: one cold dense QP with polish.
            Exercises QP construction, factorization and memory; calls no
            chain, simnet or coordinator code.
  ledger20  30 rounds of simnet.run_round over a Chain with 20 scripted
            agents (H = 24, 5 authorities), then save_log and replay.
            Exercises the ledger and network; solves no QP.

The seed draws co3's network latencies and ledger20's scripted trades and
latencies; co3 and oracle5 keep the ROADMAP scenarios unless
--scenario-seed names another one (see workloads.py for why).

Every repetition runs in a fresh process (rep.py): set-up, the timed call
and output checks.  The first repetition of a run, and every traced one,
also runs the costly checks: co3's oracle gap, and the save, load and
replay of the chain log (co3, ledger20), timed as replay_s.  A run makes
at least MIN_REPS repetitions, and starts another only while it would end
within --seconds.  With --trace 0 the last line reports the end-to-end
metrics, medians over the repetitions:

  wall_s       the timed call, in reference seconds
  setup_s      imports, scenario generation and construction, in
               reference seconds
  peak_rss_mb  peak resident size of the repetition's process

A reference second is a second of a host that runs speed.py's reference
chunk in its nominal time: the host this benchmark runs on changes speed
by up to 2x within a minute, so each phase is timed against chunks of
fixed work interleaved with it and scaled by their speed (speed.py).
The report above the last line prints the raw times too (wall_raw_s,
setup_raw_s, the phase's wall time less the chunks), the chunks' median
time, and replay_s and fail_frac, which are not end-to-end metrics of
BENCHMARK.json: replay_s exists only where there is a ledger, and
fail_frac is zero when all is well.

With --trace 1 untraced and traced repetitions alternate; the traced ones
wrap every public function of the program's layers (tracer.py) and the
last line reports the per-layer metrics (layers.py), with the tracing
overhead against the untraced median of the raw times.  Traced
repetitions run no reference chunks, so their spans hold program time
only; the untraced raw times still carry the chunks' disturbance of the
caches, a few per cent, so the overhead reads low by as much.

A repetition fails when it raises or a check fails; failures count in
`failed` and in fail_frac.  The run exits non-zero without a result when
the program is missing or a repetition cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, UNITS  # noqa: E402

WORKLOADS = ("co3", "oracle5", "ledger20")
DEFAULT_SEED = {"co3": 1, "oracle5": 2, "ledger20": 0}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# printed beside them, not metrics of BENCHMARK.json
PRINTED = (("replay_s", "s"), ("wall_raw_s", "s"), ("setup_raw_s", "s"),
           ("replay_raw_s", "s"))
MIN_REPS = 3
TIME_LIMIT_S = 170.0    # a workload's run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to the ROADMAP baseline seed")
    p.add_argument("--scenario-seed", type=int, default=None,
                   help="run co3/oracle5 on another synthetic scenario")
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="2 households and a 3-agent, 3-round ledger")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def source_id() -> dict:
    """Git commit when there is one, and a digest of the program source."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def run_rep(name, seed, args, traced, full_check, workdir, deadline):
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", name,
           "--seed", str(seed), "--workdir", str(workdir)]
    if args.scenario_seed is not None:
        cmd += ["--scenario-seed", str(args.scenario_seed)]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--trace")
    if full_check:
        cmd.append("--full-check")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached before a repetition could run")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              timeout=left, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": ["repetition timed out"],
                "traced": traced, "timed_out": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile_line(values) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, n."""
    n = len(values)
    med = statistics.median(values)
    each = " ".join(f"{v:.4g}" for v in values)
    if n < 11:
        return f"median {med:.4f}  p-high n/a (n={n} < 11)  n={n}  [{each}]"
    ordered = sorted(values)
    pct = 100 * (n - 10) // n
    return (f"median {med:.4f}  p{pct} {ordered[(n - 10) - 1]:.4f}  "
            f"n={n}  [{each}]")


def run_workload(name, args, workdir):
    seed = DEFAULT_SEED[name] if args.seed is None else args.seed
    reps = []
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    last = 0.0
    min_reps = 1 if args.smoke else MIN_REPS
    while True:
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        # start another repetition only if it should end in time
        now = time.monotonic()
        if now + last > deadline:
            break
        enough = plain and traced if args.trace else len(plain) >= min_reps
        if enough and now - start + last > args.seconds:
            break
        want_trace = bool(args.trace) and len(traced) < len(plain)
        t = time.monotonic()
        rep = run_rep(name, seed, args, want_trace,
                      full_check=want_trace or not reps, workdir=workdir,
                      deadline=deadline)
        last = time.monotonic() - t
        reps.append(rep)
        if rep.get("timed_out"):
            break

    failed = [r for r in reps if not r["ok"]]
    tips = {r["outputs"]["tip"] for r in reps
            if r["ok"] and r["outputs"].get("tip") is not None}
    errors = [e for r in failed for e in r["errors"]]
    if len(tips) > 1:
        errors.append(f"chain tip differs between repetitions: "
                      f"{sorted(t[:12] for t in tips)}")
        failed = reps
    good = [r for r in reps if r["ok"] and not r["traced"]]
    result = {"workload": name, "seed": seed, "attempted": len(reps),
              "failed": len(failed), "errors": errors, "reps": reps,
              "correct": not errors}
    if good:
        result["samples"] = {m: [r[m] for r in good] for m, _ in END_TO_END}
    traced_ok = [r for r in reps if r["ok"] and r["traced"]]
    if traced_ok:
        layers = {k: statistics.median(r["layers"][k] for r in traced_ok)
                  for k in traced_ok[0]["layers"]}
        gaps = [r["outputs"]["oracle_gap"] for r in reps
                if r["ok"] and "oracle_gap" in r["outputs"]]
        if gaps:
            layers["coordinator.oracle_gap"] = gaps[0]
        if good:
            layers["trace.overhead_frac"] = (
                statistics.median(r["wall_raw_s"] for r in traced_ok)
                / statistics.median(r["wall_raw_s"] for r in good) - 1.0)
        result["layers"] = layers
        result["baseline"] = traced_ok[0]["baseline"]
    return result


def metrics_of(result, trace) -> dict:
    if trace:
        layers = result.get("layers", {})
        return {name: {"value": layers[name], "unit": UNITS[name]}
                for name, _, _ in PER_LAYER if name in layers}
    samples = result.get("samples", {})
    return {m: {"value": statistics.median(samples[m]), "unit": unit}
            for m, unit in END_TO_END if m in samples}


def report(result, trace):
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    plain = [r for r in result["reps"] if r["ok"] and not r["traced"]]
    for m, unit in END_TO_END + PRINTED:
        values = [r[m] for r in plain if m in r]
        if values:
            print(f"{name}.{m:<12} [{unit}]  {percentile_line(values)}")
    if plain:
        chunks = [r["chunk_ms"] for r in plain]
        print(f"{name}.chunk_ms     [ms]  {percentile_line(chunks)}  "
              f"nominal {plain[0]['chunk_nominal_ms']:.4g}")
    tips = {r["outputs"]["tip"] for r in result["reps"] if r["ok"]} - {None}
    if tips:
        print(f"{name}.chain_tip  {' '.join(sorted(tips))}")
    frac = result["failed"] / result["attempted"]
    print(f"{name}.fail_frac    [ratio]  {frac:.4f} "
          f"({result['failed']}/{result['attempted']})")
    if trace and "layers" in result:
        for row in result["baseline"]:
            print(f"{name} baseline: {row}")
        for m, unit, _ in PER_LAYER:
            if m in result["layers"]:
                print(f"{name}.{m:<30} [{unit}]  {result['layers'][m]:.6g}")
    for err in result["errors"]:
        print(f"{name} FAILED: {err}")


def main(argv=None) -> int:
    args = parse(argv)
    # a terminated run raises here, and subprocess.run then kills and
    # waits for the repetition it is running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "vppsim" / "__init__.py").is_file():
        print(f"no program at {ROOT / 'src' / 'vppsim'}", file=sys.stderr)
        return 2
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = dict(source_id(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)))
    try:
        results = [run_workload(n, args, workdir) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    first = next((r for res in results for r in res["reps"]
                  if "versions" in r), {})
    env.update(versions=first.get("versions"), threads=first.get("threads"),
               pythonhashseed="0")
    print("env " + json.dumps(env, sort_keys=True))
    for res in results:
        report(res, args.trace)
    if len(results) == 1:
        metrics = metrics_of(results[0], args.trace)
    else:
        metrics = {f"{res['workload']}.{k}": v for res in results
                   for k, v in metrics_of(res, args.trace).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
