#!/usr/bin/env python3
"""Survey random scenarios: trading loop vs centralized solve vs standalone.

For each seed, generate a small synthetic community, run the trading
loop, the per-household standalone solve, and the centralized oracle,
then tabulate the optimality gap, the cost reduction, and wall times.
This is the quickest way to see how tightly the decentralized loop
tracks the social optimum across problem instances.

    python3 scripts/survey_gaps.py --seeds 20 --users 3 --out survey.tsv
    python3 scripts/survey_gaps.py --seeds 20 --users 3 --complementary
"""

import argparse
import sys
import time

from vppsim.experiment import centralized_day, run_co, run_sa
from vppsim.scenario_io import gen_synthetic


def survey_one(seed: int, users: int, slots: int,
               complementary: bool = False) -> dict:
    sc = gen_synthetic(seed=seed, users=users, slots=slots,
                       complementary=complementary)
    t0 = time.perf_counter()
    co = run_co(sc, settle=False)
    t_co = time.perf_counter() - t0
    t0 = time.perf_counter()
    sa = run_sa(sc)
    t_sa = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle, _ = centralized_day(sc, 0)
    t_oracle = time.perf_counter() - t0
    co_total = sum(co.costs.values())
    sa_total = sum(sa.costs.values())
    return {
        "seed": seed,
        "users": users,
        "iters": co.iterations[0],
        "sa": sa_total,
        "co": co_total,
        "oracle": oracle,
        "gap": abs(co_total - oracle) / max(1.0, abs(oracle)),
        "saving_pct": (100.0 * (sa_total - co_total) / abs(sa_total)
                       if sa_total else 0.0),
        "t_co": t_co,
        "t_sa": t_sa,
        "t_oracle": t_oracle,
    }


COLUMNS = ["seed", "users", "iters", "sa", "co", "oracle", "gap",
           "saving_pct", "t_co", "t_sa", "t_oracle"]


def fmt(rec: dict) -> str:
    return (f"{rec['seed']:4d} {rec['users']:5d} {rec['iters']:5d} "
            f"{rec['sa']:10.4f} {rec['co']:10.4f} {rec['oracle']:10.4f} "
            f"{rec['gap']:9.2e} {rec['saving_pct']:8.2f} "
            f"{rec['t_co']:6.2f} {rec['t_sa']:6.2f} {rec['t_oracle']:8.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20,
                    help="number of random scenarios (seeds 0..N-1)")
    ap.add_argument("--users", type=int, default=3)
    ap.add_argument("--slots", type=int, default=24)
    ap.add_argument("--complementary", action="store_true",
                    help="sharpen the producer/consumer split, as "
                         "gen-data --complementary does")
    ap.add_argument("--out", default=None, help="optional TSV path")
    args = ap.parse_args(argv)

    print("seed users iters         sa         co     oracle       gap"
          "   saving%   t_co   t_sa t_oracle")
    records = []
    for seed in range(args.seeds):
        rec = survey_one(seed, args.users, args.slots, args.complementary)
        records.append(rec)
        print(fmt(rec))

    worst = max(records, key=lambda r: r["gap"])
    mean_saving = sum(r["saving_pct"] for r in records) / len(records)
    print(f"\nworst oracle gap {worst['gap']:.2e} (seed {worst['seed']}), "
          f"mean saving {mean_saving:.2f}%")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\t".join(COLUMNS) + "\n")
            for rec in records:
                fh.write("\t".join(repr(rec[c]) for c in COLUMNS) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
