"""Command-line entry point.

Subcommands cover the full experiment surface: standalone and
cooperative runs, the side-by-side comparison, the centralized-oracle
check, synthetic scenario generation, and rendering a chain log.  Exit
status is 0 only when every run converged and every check passed, so
the tool scripts cleanly.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .agent import AgentSolveError, BuildError
from .chain import ChainError, dump_text
from .experiment import (ExperimentError, run_co, run_compare, run_sa,
                         run_verify_oracle)
from .model import InvalidInput
from .scenario_io import (ScenarioError, gen_synthetic, load_scenario,
                          scenario_conf_text, write_results, write_scenario)
from .simnet import SimError, write_events


def _add_run_flags(p):
    p.add_argument("--scenario", required=True, metavar="DIR",
                   help="scenario directory with scenario.conf")
    p.add_argument("--out", metavar="DIR",
                   help="results directory (default: <scenario>/results)")
    p.add_argument("--rho", type=float, help="override penalty parameter")
    p.add_argument("--eps", type=float,
                   help="override both stopping thresholds")
    p.add_argument("--max-iter", type=int,
                   help="override the iteration budget")
    p.add_argument("--seed", type=int, help="override the network seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vppsim",
        description="Day-ahead energy scheduling for a virtual power "
                    "plant: standalone and peer-to-peer cooperative modes "
                    "over a simulated ledger.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-sa", help="solve each household alone")
    _add_run_flags(p)
    p = sub.add_parser("run-co",
                       help="run the trading loop over network and chain")
    _add_run_flags(p)
    p = sub.add_parser("compare", help="run both modes and tabulate costs")
    _add_run_flags(p)
    p = sub.add_parser("verify-oracle",
                       help="check the trading result against the "
                            "centralized solve")
    _add_run_flags(p)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="relative objective gap allowed (default 1e-3)")

    p = sub.add_parser("gen-data", help="generate a synthetic scenario")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--users", type=int, default=10)
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--complementary", action="store_true",
                   help="sharpen the producer/consumer split")

    p = sub.add_parser("chain-dump", help="replay and render a chain log")
    p.add_argument("log", help="path to a saved chain log")
    p.add_argument("--out", metavar="FILE",
                   help="write here instead of stdout")
    return parser


def _load(args):
    sc = load_scenario(args.scenario)
    algo = sc.algo
    if args.rho is not None:
        algo = replace(algo, rho=args.rho)
    if args.eps is not None:
        algo = replace(algo, eps1=args.eps, eps2=args.eps)
    if args.max_iter is not None:
        algo = replace(algo, max_iter=args.max_iter)
    net = sc.net
    if args.seed is not None:
        net = replace(net, seed=args.seed)
    sc = replace(sc, algo=algo, net=net)
    out = Path(args.out) if args.out else Path(args.scenario) / "results"
    return sc, out


def _write_chain_artifacts(out: Path, co):
    for day, transport in enumerate(co.transports):
        transport.chain.save_log(out / f"chain_day{day}.log")
        write_events(transport.events, out / f"events_day{day}.log")


def cmd_run_sa(args) -> int:
    sc, out = _load(args)
    res = run_sa(sc)
    write_results(out, schedules=res.schedules,
                  config_text=scenario_conf_text(sc))
    for uid in sorted(res.costs):
        print(f"{uid}  cost {res.costs[uid]:.6f}")
    print(f"total {sum(res.costs.values()):.6f}  "
          f"feasible={res.feasible}")
    return 0 if res.feasible else 1


def cmd_run_co(args) -> int:
    sc, out = _load(args)
    res = run_co(sc)
    write_results(out, schedules=res.schedules,
                  trace=dict(enumerate(res.traces)),
                  config_text=scenario_conf_text(sc))
    _write_chain_artifacts(out, res)
    for uid in sorted(res.costs):
        print(f"{uid}  cost {res.costs[uid]:.6f}")
    print(f"total {sum(res.costs.values()):.6f}  "
          f"iterations {res.iterations}  converged={res.converged}  "
          f"feasible={res.feasible}  "
          f"trade_residual {res.trade_residual:.3e}")
    return 0 if res.converged and res.feasible else 1


def cmd_compare(args) -> int:
    sc, out = _load(args)
    cmp = run_compare(sc)
    write_results(out, schedules=cmp.co.schedules,
                  sa_costs=cmp.sa.costs, co_costs=cmp.co.costs,
                  trace=dict(enumerate(cmp.co.traces)),
                  config_text=scenario_conf_text(sc))
    _write_chain_artifacts(out, cmp.co)
    print(f"{'user':<8} {'sa_total':>12} {'co_total':>12} "
          f"{'reduction_pct':>14}")
    for uid in sorted(cmp.sa.costs):
        print(f"{uid:<8} {cmp.sa.costs[uid]:>12.6f} "
              f"{cmp.co.costs[uid]:>12.6f} "
              f"{cmp.reduction_pct[uid]:>14.2f}")
    print(f"aggregate reduction {cmp.aggregate_reduction_pct:.2f}%  "
          f"converged={cmp.co.converged}  feasible={cmp.co.feasible}")
    return 0 if cmp.co.converged and cmp.co.feasible \
        and cmp.sa.feasible else 1


def cmd_verify_oracle(args) -> int:
    sc, out = _load(args)
    res = run_verify_oracle(sc)
    write_results(out, schedules=res.co.schedules,
                  trace=dict(enumerate(res.co.traces)),
                  config_text=scenario_conf_text(sc))
    lines = [f"cooperative total  {res.co_total!r}",
             f"centralized total  {res.oracle_total!r}",
             f"relative gap       {res.rel_gap!r}"]
    for day, gap in enumerate(res.day_gaps):
        lines.append(f"day {day} gap          {gap!r}")
    (out / "oracle.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    ok = res.co.converged and res.co.feasible and res.rel_gap <= args.tol
    print(f"gap within {args.tol:g}: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def cmd_gen_data(args) -> int:
    sc = gen_synthetic(seed=args.seed, users=args.users, days=args.days,
                       complementary=args.complementary)
    write_scenario(sc, args.out)
    print(f"wrote {len(sc.users)} users x {sc.days} day(s) "
          f"({sc.horizon.slots} slots) to {args.out}")
    return 0


def cmd_chain_dump(args) -> int:
    text = dump_text(args.log)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "run-sa": cmd_run_sa,
    "run-co": cmd_run_co,
    "compare": cmd_compare,
    "verify-oracle": cmd_verify_oracle,
    "gen-data": cmd_gen_data,
    "chain-dump": cmd_chain_dump,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioError, ExperimentError, ChainError, SimError,
            InvalidInput, BuildError, AgentSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
