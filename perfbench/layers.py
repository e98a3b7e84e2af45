"""vppsim's per-layer metrics, derived from a traced repetition.

`attach_probes` adds the counts that need arguments or results of a
call; `derive` turns the tracer's calls, times and counts into the
per-layer metrics of BENCHMARK.json; `baseline_rows` renders the ROADMAP
baseline rows from the same numbers.
"""

from __future__ import annotations

import math
import os
import statistics

# (name, unit, better); the order is the order of the report
PER_LAYER = (
    ("qp.solve_calls", "count", "lower"),
    ("qp.solve_s", "s", "lower"),
    ("qp.solve_share", "ratio", "lower"),
    ("qp.admm_iters", "count", "lower"),
    ("qp.iters_cold_mean", "count", "lower"),
    ("qp.iters_warm_mean", "count", "lower"),
    ("qp.iters_warm_p90", "count", "lower"),
    ("qp.us_per_iter", "us", "lower"),
    ("qp.nonoptimal", "count", "lower"),
    ("qp.init_s", "s", "lower"),
    ("qp.factorizations", "count", "lower"),
    ("qp.refactorizations", "count", "lower"),
    ("qp.kkt_factorizations", "count", "lower"),
    ("qp.kkt_factor_s", "s", "lower"),
    ("qp.polished_frac", "ratio", "higher"),
    ("agent.build_calls", "count", "lower"),
    ("agent.build_s", "s", "lower"),
    ("agent.round_calls", "count", "lower"),
    ("agent.round_self_s", "s", "lower"),
    ("model.cost_s", "s", "lower"),
    ("model.feasibility_s", "s", "lower"),
    ("coordinator.outer_iters", "count", "lower"),
    ("coordinator.update_calls", "count", "lower"),
    ("coordinator.update_s", "s", "lower"),
    ("coordinator.final_primal_gap", "kWh", "lower"),
    ("coordinator.oracle_gap", "ratio", "lower"),
    ("chain.blocks", "count", "lower"),
    ("chain.txs", "count", "lower"),
    ("chain.seal_ms_mean", "ms", "lower"),
    ("chain.state_copy_calls", "count", "lower"),
    ("chain.state_copy_s", "s", "lower"),
    ("chain.digest_calls", "count", "lower"),
    ("chain.digest_s", "s", "lower"),
    ("chain.digest_bytes", "bytes", "lower"),
    ("chain.submit_s", "s", "lower"),
    ("chain.read_dual_s", "s", "lower"),
    ("chain.settle_s", "s", "lower"),
    ("chain.log_bytes", "bytes", "lower"),
    ("chain.save_s", "s", "lower"),
    ("chain.replay_s", "s", "lower"),
    ("simnet.rounds", "count", "lower"),
    ("simnet.round_self_s", "s", "lower"),
    ("simnet.events", "count", "lower"),
    ("simnet.sim_ticks", "ticks", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("scenario_io.gen_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

SOLVE = "QpSolver.solve"
FACTOR = ("cho_factor", "splu", "factorized")
BUILD = ("build_sa_problem", "build_co_primal", "build_centralized")


def attach_probes(tracer):
    counts, samples = tracer.counts, tracer.samples

    def solve_before(args, kwargs):
        warm = kwargs.get("warm", args[3] if len(args) > 3 else False)
        return bool(warm), bool(args[0].settings.polish)

    def solve_after(token, args, kwargs, sol, dur):
        warm, polish = token
        samples["warm" if warm else "cold"].append(sol.iterations)
        counts["qp.nonoptimal"] += sol.status != "optimal"
        if polish:
            counts["polish_on"] += 1
            counts["polished"] += bool(sol.polished)

    def factor_after(token, args, kwargs, result, dur):
        if any(f.name == SOLVE for f in tracer.stack):
            counts["factor_in_solve_s"] += dur

    def run_after(token, args, kwargs, res, dur):
        counts["coordinator.outer_iters"] += res.iterations
        if res.trace:
            counts["coordinator.final_primal_gap"] = res.trace[-1].primal_gap

    def block_after(token, args, kwargs, block, dur):
        counts["chain.txs"] += len(block.txs)

    def canonical_after(token, args, kwargs, data, dur):
        if tracer.caller() == "digest":
            counts["chain.digest_bytes"] += len(data)

    def save_after(token, args, kwargs, result, dur):
        path = args[1] if len(args) > 1 else kwargs["path"]
        counts["chain.log_bytes"] += os.path.getsize(path)

    tracer.probes.update({
        SOLVE: (solve_before, solve_after),
        "run_decentralized": (None, run_after),
        "Chain.produce_block": (None, block_after),
        "canonical": (None, canonical_after),
        "Chain.save_log": (None, save_after),
    })
    for name in FACTOR:
        tracer.probes[name] = (None, factor_after)


def _p90(values):
    """Nearest-rank 90th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)])


def derive(tracer, wall, outputs) -> dict:
    """Per-layer metrics of one traced repetition.

    wall is the traced timed call; outputs carries what the workload
    reports about its own result (events, ticks, the oracle gap).
    """
    C, T, X = tracer.calls, tracer.total, tracer.exclusive
    K, S = tracer.counts, tracer.samples
    cold, warm = S["cold"], S["warm"]
    iters = sum(cold) + sum(warm)
    factorizations = sum(C[f] for f in FACTOR)
    return {
        "qp.solve_calls": C[SOLVE],
        "qp.solve_s": T[SOLVE],
        "qp.solve_share": T[SOLVE] / wall,
        "qp.admm_iters": iters,
        "qp.iters_cold_mean": statistics.fmean(cold) if cold else 0.0,
        "qp.iters_warm_mean": statistics.fmean(warm) if warm else 0.0,
        "qp.iters_warm_p90": _p90(warm),
        "qp.us_per_iter": ((T[SOLVE] - K["factor_in_solve_s"]) / iters * 1e6
                           if iters else 0.0),
        "qp.nonoptimal": K["qp.nonoptimal"],
        "qp.init_s": T["QpSolver.__init__"],
        "qp.factorizations": factorizations,
        "qp.refactorizations": factorizations - C["QpSolver.__init__"],
        "qp.kkt_factorizations": C["lu_factor"],
        "qp.kkt_factor_s": T["lu_factor"],
        "qp.polished_frac": (K["polished"] / K["polish_on"]
                             if K["polish_on"] else 0.0),
        "agent.build_calls": sum(C[b] for b in BUILD),
        "agent.build_s": sum(T[b] for b in BUILD),
        "agent.round_calls": C["AgentRuntime.solve_round"],
        "agent.round_self_s": X["AgentRuntime.solve_round"],
        "model.cost_s": T["cost_breakdown"],
        "model.feasibility_s": T["check_feasibility"],
        "coordinator.outer_iters": K["coordinator.outer_iters"],
        "coordinator.update_calls": C["dual_update"],
        "coordinator.update_s": T["dual_update"] + T["lambda_update"],
        "coordinator.final_primal_gap": K["coordinator.final_primal_gap"],
        "coordinator.oracle_gap": outputs.get("oracle_gap", 0.0),
        "chain.blocks": C["Chain.produce_block"],
        "chain.txs": K["chain.txs"],
        "chain.seal_ms_mean": (T["Chain.produce_block"]
                               / C["Chain.produce_block"] * 1e3
                               if C["Chain.produce_block"] else 0.0),
        "chain.state_copy_calls": C["ContractState.copy"],
        "chain.state_copy_s": T["ContractState.copy"],
        "chain.digest_calls": C["digest"],
        "chain.digest_s": T["digest"],
        "chain.digest_bytes": K["chain.digest_bytes"],
        "chain.submit_s": T["Chain.submit_tx"],
        "chain.read_dual_s": T["Chain.contract_call"],
        "chain.settle_s": T["Chain.settle"],
        "chain.log_bytes": K["chain.log_bytes"],
        "chain.save_s": T["Chain.save_log"],
        "chain.replay_s": T["replay"],
        "simnet.rounds": C["run_round"],
        "simnet.round_self_s": X["run_round"],
        "simnet.events": outputs.get("events", 0),
        "simnet.sim_ticks": outputs.get("ticks", 0),
        "experiment.self_s": tracer.layer_self["experiment"],
        "scenario_io.gen_s": T["gen_synthetic"],
    }


def baseline_rows(m: dict, cold_iters) -> list[str]:
    """The ROADMAP baseline rows, from one traced repetition's metrics."""
    cold = "/".join(str(i) for i in cold_iters) or "none"
    return [
        f"ADMM iterations per solve: cold {cold}; warm mean "
        f"{m['qp.iters_warm_mean']:.1f}, warm p90 "
        f"{m['qp.iters_warm_p90']:.0f}",
        f"share of the timed call in QpSolver.solve: "
        f"{100 * m['qp.solve_share']:.1f} %",
        f"refactorizations: {m['qp.refactorizations']:.0f} "
        f"(factorizations {m['qp.factorizations']:.0f}, KKT "
        f"{m['qp.kkt_factorizations']:.0f} in {m['qp.kkt_factor_s']:.3f} s)",
        f"ledger: digests {m['chain.digest_s']:.3f} s over "
        f"{m['chain.digest_calls']:.0f} calls "
        f"({m['chain.digest_bytes']:.0f} bytes); state copies "
        f"{m['chain.state_copy_s']:.3f} s over "
        f"{m['chain.state_copy_calls']:.0f} calls",
    ]
