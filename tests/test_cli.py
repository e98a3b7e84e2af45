"""End-to-end command-line behavior, driven through main()."""

import shutil
from dataclasses import replace

import pytest
from conftest import read_comparison

from vppsim import qp
from vppsim.chain import load_log
from vppsim.cli import main
from vppsim.scenario_io import gen_synthetic, write_scenario


@pytest.fixture(scope="module")
def pair_scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenario")
    assert main(["gen-data", "--out", str(root), "--users", "2",
                 "--seed", "0", "--complementary"]) == 0
    return root


@pytest.fixture(scope="module")
def base_compare(pair_scenario, tmp_path_factory, capsys=None):
    out = tmp_path_factory.mktemp("base") / "results"
    code = main(["compare", "--scenario", str(pair_scenario),
                 "--out", str(out)])
    return code, out


def test_compare_finds_gains_for_both_households(base_compare, capsys):
    code, out = base_compare
    capsys.readouterr()
    assert code == 0
    rows = read_comparison(out / "comparison.csv")
    assert len(rows) == 2
    for row in rows:
        assert row["co_total"] < row["sa_total"]
        assert row["reduction_pct"] > 0.0
    assert (out / "trace.csv").exists()
    assert (out / "effective.conf").exists()
    assert (out / "chain_day0.log").exists()
    assert (out / "events_day0.log").exists()
    assert (out / "schedules" / "u01.csv").exists()


def test_chain_log_from_a_run_renders_as_text(pair_scenario, tmp_path,
                                              capsys):
    out = tmp_path / "results"
    assert main(["run-co", "--scenario", str(pair_scenario),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["chain-dump", str(out / "chain_day0.log")]) == 0
    text = capsys.readouterr().out
    assert text.startswith("genesis")
    assert "block 0" in text
    assert "trading u01" in text


def test_every_event_ref_resolves_in_the_chain_log(pair_scenario, tmp_path,
                                                  capsys):
    out = tmp_path / "results"
    assert main(["run-co", "--scenario", str(pair_scenario),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    genesis, *blocks = load_log(out / "chain_day0.log")
    digests = {b["digest"] for b in blocks}
    txids = {t["txid"] for b in blocks for t in b["txs"]}
    resolves = {"deliver": digests | {genesis["state_root"]},
                "solve": txids, "arrive": txids, "service": txids,
                "block": digests, "settle": digests | {"none"}}
    header, *lines = (out / "events_day0.log").read_text().splitlines()
    assert header == "# tick\tkind\tnode\tref"
    kinds = set()
    for line in lines:
        _, kind, _, ref = line.split("\t")
        assert ref in resolves[kind], line
        kinds.add(kind)
    assert kinds == set(resolves)


def test_oracle_check_passes_at_default_tolerance(pair_scenario, tmp_path,
                                                  capsys):
    out = tmp_path / "results"
    code = main(["verify-oracle", "--scenario", str(pair_scenario),
                 "--out", str(out)])
    shown = capsys.readouterr().out
    assert code == 0
    assert "gap within 0.001: yes" in shown
    report = (out / "oracle.txt").read_text()
    gap = float(report.splitlines()[2].split()[-1])
    assert gap <= 1e-3


def test_peer_price_moves_the_split_not_the_aggregate(pair_scenario,
                                                      base_compare,
                                                      tmp_path, capsys):
    # The peer price is a pure transfer inside each trading pair, so the
    # social optimum (and the aggregate cost) cannot depend on it; only
    # the bill split does.  Price peer energy above the grid tariff and
    # the consumer loses its individual gain while the producer profits.
    import shutil
    root = tmp_path / "scenario"
    shutil.copytree(pair_scenario, root)
    conf = root / "scenario.conf"
    conf.write_text(conf.read_text().replace("tariff.pi_p2p = 0.6",
                                             "tariff.pi_p2p = 3.6"))
    out = tmp_path / "results"
    with pytest.warns(UserWarning):
        code = main(["compare", "--scenario", str(root),
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = {r["user"]: r for r in read_comparison(out / "comparison.csv")}
    _, base_out = base_compare
    base = {r["user"]: r for r in read_comparison(base_out /
                                                  "comparison.csv")}
    agg = sum(r["co_total"] for r in rows.values())
    base_agg = sum(r["co_total"] for r in base.values())
    assert agg == pytest.approx(base_agg, rel=1e-3, abs=1e-3)
    assert rows["u01"]["reduction_pct"] > base["u01"]["reduction_pct"]
    assert rows["u02"]["reduction_pct"] < 0.0


def test_exhausted_iteration_budget_exits_nonzero(pair_scenario, tmp_path,
                                                  capsys):
    out = tmp_path / "results"
    code = main(["run-co", "--scenario", str(pair_scenario),
                 "--out", str(out), "--max-iter", "1"])
    shown = capsys.readouterr().out
    assert code == 1
    assert "converged=False" in shown
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 2  # header plus the single iteration


def test_empty_iteration_budget_is_a_clean_error(pair_scenario, tmp_path,
                                                 capsys):
    code = main(["run-co", "--scenario", str(pair_scenario),
                 "--out", str(tmp_path / "results"), "--max-iter", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: max_iter")
    assert "Traceback" not in err


def test_failed_agent_solve_is_a_clean_error(pair_scenario, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.setattr(qp, "ITER_LIMIT", 1)
    code = main(["run-co", "--scenario", str(pair_scenario),
                 "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: agent ")
    assert "subproblem ended with status max-iter" in err
    assert "Traceback" not in err


def test_silent_agent_is_a_clean_error(pair_scenario, tmp_path, capsys):
    root = tmp_path / "slow"
    shutil.copytree(pair_scenario, root)
    conf = root / "scenario.conf"
    text = conf.read_text()
    assert "net.latency = 1:5\n" in text and "net.timeout = 50\n" in text
    conf.write_text(text.replace("net.latency = 1:5", "net.latency = 20:30")
                    .replace("net.timeout = 50", "net.timeout = 31"))
    code = main(["run-co", "--scenario", str(root),
                 "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: agent 'u02' silent past tick 31; "
                          "round aborted")
    assert "Traceback" not in err


def test_standalone_run_writes_schedules(pair_scenario, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["run-sa", "--scenario", str(pair_scenario),
                 "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "feasible=True" in shown
    assert (out / "schedules" / "u02.csv").exists()
    assert not (out / "comparison.csv").exists()


def test_missing_scenario_is_a_clean_error(tmp_path, capsys):
    code = main(["run-sa", "--scenario", str(tmp_path / "nope")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


def test_bad_generation_request_is_a_clean_error(tmp_path, capsys):
    code = main(["gen-data", "--out", str(tmp_path / "x"),
                 "--users", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_unbuildable_household_is_a_clean_error(tmp_path, capsys):
    # a room that starts at 35 C: the first-slot temperature, which no
    # control reaches, lies above the 30 C comfort bound
    sc = gen_synthetic(seed=1, users=2)
    hot = replace(sc.users[0], ac=replace(sc.users[0].ac, t_init=35.0))
    write_scenario(replace(sc, users=[hot] + sc.users[1:]), tmp_path)
    code = main(["run-sa", "--scenario", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: user u01:")
    assert "first-slot temperature" in err
