"""Smoke tests of the benchmark harness, so it cannot rot unnoticed.

    python3 -m pytest perfbench

They run the seconds-long smoke mode (2 households, a 3-agent 3-round
ledger); the full benchmark stays out of the project's test suite.
"""

import json
import statistics
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_traced_smoke_run_reports_every_layer_metric():
    proc, lines = bench("--workload", "all", "--smoke", "--seconds", "1",
                        "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    m = result["metrics"]
    for workload in WORKLOADS:
        for name, unit, _ in PER_LAYER:
            assert m[f"{workload}.{name}"]["unit"] == unit
        assert f"{workload}.fail_frac" in proc.stdout
    # the layers separate
    assert m["ledger20.qp.solve_calls"]["value"] == 0
    assert m["oracle5.chain.blocks"]["value"] == 0
    assert m["co3.qp.solve_share"]["value"] >= 0.9
    assert m["ledger20.chain.blocks"]["value"] == 3
    assert "baseline: ADMM iterations per solve: cold" in proc.stdout


def test_untraced_run_reports_the_end_to_end_metrics():
    proc, lines = bench("--workload", "ledger20", "--smoke", "--seed", "7",
                        "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(n for n, _ in END_TO_END)
    assert "ledger20.replay_s" in proc.stdout
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = bench("--workload", "co3", "--seed", "1", "--seconds",
                        "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any('"correct"' in line for line in lines)


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from vppsim import chain, coordinator, simnet
    from tracer import Tracer

    update, dig = coordinator.dual_update, chain.digest
    tracer = Tracer()
    tracer.install()
    try:
        assert chain.dual_update is coordinator.dual_update is not update
        assert simnet.digest is chain.digest is not dig
        chain.digest({"a": 1.0})
        simnet.digest({"a": 1.0})
        assert tracer.calls["digest"] == 2
        assert tracer.calls["canonical"] == 2
    finally:
        tracer.uninstall()
    assert chain.dual_update is coordinator.dual_update is update
    assert simnet.digest is chain.digest is dig


@pytest.mark.parametrize("digests, large", [(0, False), (3, False),
                                            (0, True)])
def test_sampler_interleaves_chunks_and_charges_them(digests, large):
    import time
    from speed import PERIOD_S, Sampler

    sampler = Sampler(time.perf_counter(), digests, large)
    sampler.start()
    try:
        phase = sampler.begin()
        t = time.perf_counter()
        while time.perf_counter() - t < 10 * PERIOD_S:
            pass
        elapsed = time.perf_counter() - t
        raw, ref = sampler.end(phase)
    finally:
        sampler.stop()
    chunks = sampler.samples[phase.first:]
    assert len(chunks) >= 5        # both ends and the ticks between
    assert 0 < raw < elapsed
    assert ref == raw * sampler.ref.nominal / statistics.median(chunks)
