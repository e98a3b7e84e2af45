"""One repetition of a workload, in a fresh process.

Run by run.py, one process per repetition, so that set-up (imports,
scenario generation, construction) is paid and timed every time and the
peak resident size belongs to this workload alone.  An untraced
repetition times its phases (set-up, the timed call, replay) against the
host-speed reference of speed.py and reports each in reference seconds
(`setup_s`, `wall_s`, `replay_s`) and raw (`*_raw_s`); a traced one
reports raw times only.  Prints one JSON object as its last line.
Exits 3 if the program cannot be imported from the checkout's src/; a
workload that raises or fails a check is reported in the JSON instead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# each workload's reference chunk does its kind of work (speed.py):
# (digests, large product) for small QPs, the ledger's canonical JSON and
# the oracle's L3-sized matrices
REF_CHUNK = {"co3": (0, False), "ledger20": (3, False), "oracle5": (0, True)}


def parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scenario-seed", type=int, default=None)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--full-check", action="store_true")
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import scipy
        import vppsim
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        sys.exit(3)
    src = (ROOT / "src").resolve()
    if Path(vppsim.__file__).resolve().parent.parent != src:
        print(f"vppsim imported from {vppsim.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(3)
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def begin(sampler):
    return sampler.begin() if sampler is not None else time.perf_counter()


def timed(out, name, sampler, phase):
    """Record a phase as `<name>_raw_s` and `<name>_s`.

    With a sampler `<name>_s` is in reference seconds; without one (a
    traced repetition) both are the raw time.  phase None is set-up,
    which runs from the process's start.
    """
    if sampler is None:
        start = T0 if phase is None else phase
        out[f"{name}_raw_s"] = out[f"{name}_s"] = time.perf_counter() - start
        return
    raw, ref = sampler.end(sampler.origin if phase is None else phase)
    out[f"{name}_raw_s"], out[f"{name}_s"] = raw, ref


def main(argv=None):
    args = parse(argv)
    if args.trace:
        repetition(args, None)
        return
    # the reference chunks start before the imports, which are set-up
    from speed import Sampler
    sampler = Sampler(T0, *REF_CHUNK[args.workload])
    sampler.start()
    try:
        repetition(args, sampler)
    finally:
        sampler.stop()


def repetition(args, sampler):
    versions = import_program()
    from layers import attach_probes, baseline_rows, derive
    from tracer import Tracer
    import workloads

    name = args.workload
    scenario_seed = args.scenario_seed
    if scenario_seed is None:
        scenario_seed = workloads.BASELINE_SCENARIO.get(name)
    out = {"ok": False, "errors": [], "versions": versions,
           "threads": {v: os.environ[v] for v in THREAD_VARS},
           "traced": args.trace}
    tracer = None
    try:
        if args.trace:
            tracer = Tracer()
            attach_probes(tracer)
            tracer.install()
            # the benchmark's own agents are a layer of their own, so their
            # time is not counted as simnet self time
            tracer.wrap_attr(workloads.ScriptedAgent, "solve_round",
                             "ScriptedAgent.solve_round", "bench")
        wl = workloads.WORKLOADS[name](args.seed, scenario_seed, args.smoke,
                                       args.workdir)
        timed(out, "setup", sampler, None)
        phase = begin(sampler)
        wl.run()
        timed(out, "wall", sampler, phase)
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        if args.full_check and hasattr(wl, "replay"):
            phase = begin(sampler)
            wl.replay()
            timed(out, "replay", sampler, phase)
        if sampler is not None:
            sampler.stop()
            out["chunk_ms"] = 1e3 * statistics.median(sampler.samples)
            out["chunk_nominal_ms"] = 1e3 * sampler.ref.nominal
            out["chunks"] = len(sampler.samples)
        if tracer is not None:
            tracer.uninstall()      # the checks below are not traced

        errors, outputs = wl.check(args.full_check)
        out["outputs"] = outputs
        out["errors"] = errors
        if tracer is not None:
            silent = [s for s in workloads.EXPECTED_SPANS[name]
                      if tracer.calls[s] == 0]
            if silent:
                errors.append(f"expected spans never fired: {silent}")
            out["layers"] = derive(tracer, out["wall_s"], outputs)
            out["baseline"] = baseline_rows(out["layers"],
                                            tracer.samples["cold"])
            tracer.write_spans(os.path.join(
                args.workdir, f"spans-{name}.tsv"))
        out["ok"] = not errors
    except Exception:
        out["errors"].append(traceback.format_exc(limit=4).strip())
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
