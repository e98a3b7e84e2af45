"""Scenario files, synthetic generation, and result emission."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import read_comparison

from vppsim.coordinator import AlgoConfig, TraceRecord
from vppsim.experiment import run_sa
from vppsim.model import Schedule
from vppsim.scenario_io import (COMPARISON_COLUMNS, ScenarioError,
                                gen_synthetic, load_scenario,
                                scenario_conf_text, write_results,
                                write_scenario)
from vppsim.simnet import NetConfig


def scenario_bytes(root):
    chunks = [(root / "scenario.conf").read_bytes()]
    for udir in sorted((root / "users").iterdir()):
        chunks.append((udir / "traces.csv").read_bytes())
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_generation_is_byte_deterministic(tmp_path):
    for name in ("a", "b"):
        write_scenario(gen_synthetic(seed=3, users=4), tmp_path / name)
    assert scenario_bytes(tmp_path / "a") == scenario_bytes(tmp_path / "b")
    write_scenario(gen_synthetic(seed=4, users=4), tmp_path / "c")
    assert scenario_bytes(tmp_path / "a") != scenario_bytes(tmp_path / "c")


@pytest.mark.parametrize("slots", [12, 24, 48])
def test_outdoor_phase_scales_with_the_slot_count(slots):
    sc = gen_synthetic(seed=1, users=2, slots=slots)
    assert sc.users[0].exo.t_out[0] == pytest.approx(24.5, abs=1e-12)


def test_short_horizon_scenario_builds_stand_alone():
    # a 12-slot day once started near the daily temperature peak, out of
    # the comfort window's reach
    run = run_sa(gen_synthetic(seed=1, users=2, slots=12))
    assert run.feasible
    assert set(run.costs) == {"u01", "u02"}


def test_horizons_shorter_than_the_wind_window_build():
    # u02 has wind, smoothed by a 5-slot mean
    for slots in (2, 3, 4):
        wind = gen_synthetic(seed=3, users=2, slots=slots).users[1].exo
        assert wind.renewable_cap.size == slots
        assert np.all(wind.renewable_cap > 0)
    run = run_sa(gen_synthetic(seed=3, users=2, slots=4))
    assert run.feasible
    assert set(run.costs) == {"u01", "u02"}


def test_solar_households_are_dark_at_night():
    sc = gen_synthetic(seed=0, users=4)
    solar = sc.users[0]  # odd-indexed ids carry wind instead
    cap = solar.exo.renewable_cap
    assert np.all(cap[:6] == 0.0) and np.all(cap[20:] == 0.0)
    assert cap.max() > 1.0
    wind = sc.users[1]
    assert wind.exo.renewable_cap.max() > 0.0


def test_generated_parameters_stay_in_band():
    sc = gen_synthetic(seed=7, users=6)
    for u in sc.users:
        assert 10.0 <= u.battery.capacity <= 15.0
        assert u.fuse_limit == 10.0
        assert np.all(u.exo.inflexible > 0.0)
    assert sc.tariff.beta > sc.tariff.alpha > sc.tariff.pi_p2p \
        > sc.tariff.pi_fit


def test_complementary_split_creates_producers_and_consumers():
    sc = gen_synthetic(seed=1, users=4, complementary=True)
    producer, consumer = sc.users[0], sc.users[1]
    assert producer.exo.renewable_cap.sum() > 10.0
    assert consumer.exo.renewable_cap.sum() == 0.0
    assert consumer.exo.inflexible.sum() > producer.exo.inflexible.sum()


def test_multi_day_series_span_the_full_range():
    sc = gen_synthetic(seed=2, users=2, days=3, slots=24)
    assert sc.users[0].horizon == 72
    assert len(sc.tariff.pi_dr) == 72


# ---------------------------------------------------------------------------
# scenario round trip and error reporting
# ---------------------------------------------------------------------------

def test_write_then_load_preserves_everything(tmp_path):
    sc = gen_synthetic(seed=5, users=3)
    write_scenario(sc, tmp_path)
    back = load_scenario(tmp_path)
    assert back.horizon.slots == sc.horizon.slots
    assert back.days == sc.days
    assert back.tariff.alpha == sc.tariff.alpha
    np.testing.assert_allclose(back.tariff.pi_dr, sc.tariff.pi_dr,
                               rtol=1e-12)
    assert [u.user_id for u in back.users] == \
        [u.user_id for u in sc.users]
    for orig, load in zip(sc.users, back.users):
        np.testing.assert_allclose(load.exo.renewable_cap,
                                   orig.exo.renewable_cap, rtol=1e-12)
        np.testing.assert_allclose(load.exo.inflexible,
                                   orig.exo.inflexible, rtol=1e-12)
        np.testing.assert_allclose(load.flex.reference,
                                   orig.flex.reference, rtol=1e-12)
        assert load.battery.capacity == orig.battery.capacity
        assert load.battery.b_init == orig.battery.b_init
        assert load.ac.t_init == orig.ac.t_init


def test_truncated_trace_names_the_file(tmp_path):
    write_scenario(gen_synthetic(seed=0, users=2), tmp_path)
    trace = tmp_path / "users" / "u01" / "traces.csv"
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert "traces.csv" in str(err.value)
    assert "u01" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_trace_cell_names_the_line(tmp_path, cell):
    write_scenario(gen_synthetic(seed=0, users=2), tmp_path)
    trace = tmp_path / "users" / "u01" / "traces.csv"
    lines = trace.read_text().splitlines()
    row = lines[4].split(",")
    row[1] = cell  # a renewable cell
    lines[4] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert str(err.value) == f"{trace}:5: non-finite cell"


def test_zero_days_names_the_days_key(tmp_path):
    write_scenario(gen_synthetic(seed=0, users=2), tmp_path)
    conf = tmp_path / "scenario.conf"
    conf.write_text(conf.read_text().replace("days = 1", "days = 0"))
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert str(err.value) == f"{conf}: days: must be >= 1, got 0"


def test_missing_column_names_the_file(tmp_path):
    write_scenario(gen_synthetic(seed=0, users=2), tmp_path)
    trace = tmp_path / "users" / "u02" / "traces.csv"
    lines = trace.read_text().splitlines()
    lines[0] = "slot,renewable_cap,t_out,inflexible"
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert "u02" in str(err.value)


def test_bad_tariff_is_reported_against_the_conf(tmp_path):
    write_scenario(gen_synthetic(seed=0, users=2), tmp_path)
    conf = tmp_path / "scenario.conf"
    text = conf.read_text().replace("tariff.beta = 2.5",
                                    "tariff.beta = 0.5")
    conf.write_text(text)
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert "scenario.conf" in str(err.value)
    assert "beta" in str(err.value)


def test_missing_required_key_is_an_error(tmp_path):
    write_scenario(gen_synthetic(seed=0, users=2), tmp_path)
    conf = tmp_path / "scenario.conf"
    lines = [ln for ln in conf.read_text().splitlines()
             if not ln.startswith("tariff.pi_p2p")]
    conf.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert "pi_p2p" in str(err.value)


def test_absent_optional_keys_take_the_dataclass_defaults(tmp_path):
    sc = gen_synthetic(seed=0, users=2)
    write_scenario(sc, tmp_path)
    conf = tmp_path / "scenario.conf"
    optional = ("horizon.", "algo.", "net.", ".ac.t_init", ".ac.decay",
                ".flex.lo", ".flex.hi", ".battery.b_init")
    lines = [ln for ln in conf.read_text().splitlines()
             if not any(part in ln.split(" = ")[0] for part in optional)]
    conf.write_text("\n".join(lines) + "\n")
    back = load_scenario(tmp_path)
    assert back.horizon.slots == 24
    assert back.algo == AlgoConfig()
    assert back.net == NetConfig()
    for orig, load in zip(sc.users, back.users):
        assert load.battery.b_init == 0.5 * load.battery.capacity
        assert load.ac.decay == math.exp(-1.0 / (load.ac.r_thermal
                                                 * load.ac.c_thermal))
        assert load.ac.t_init == orig.exo.t_out[0]
        np.testing.assert_array_equal(load.flex.lo, np.zeros(24))
        np.testing.assert_array_equal(load.flex.hi,
                                      np.full(24, load.flex.total))


@pytest.mark.parametrize("key", ["algo.rh0", "user.u01.battery.capcity",
                                 "horizon.dt", "user.u01.flex.reference"])
def test_unknown_key_names_the_file_and_the_key(tmp_path, key):
    write_scenario(gen_synthetic(seed=0, users=2), tmp_path)
    conf = tmp_path / "scenario.conf"
    conf.write_text(conf.read_text() + f"{key} = 1.0\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert "scenario.conf" in str(err.value)
    assert f"unknown key {key}" in str(err.value)


@pytest.mark.parametrize("line, named", [
    ("algo.max_iter = 0", "algo"),
    ("horizon.slots = 2.5", "horizon.slots"),
    ("tariff.alpha = inf", "tariff.alpha"),
    ("net.latency = 1:2:3", "net.latency"),
    ("tariff.pi_dr = 1.0,2.0", "tariff.pi_dr"),
    ("tariff.pi_as = nan", "tariff.pi_as"),
])
def test_bad_value_names_the_file_and_the_key(tmp_path, line, named):
    write_scenario(gen_synthetic(seed=0, users=2), tmp_path)
    conf = tmp_path / "scenario.conf"
    key = line.split(" = ")[0]
    lines = [ln for ln in conf.read_text().splitlines()
             if not ln.startswith(key + " ")]
    conf.write_text("\n".join(lines + [line]) + "\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert "scenario.conf" in str(err.value)
    assert named in str(err.value)


def test_conf_round_trips_byte_for_byte(tmp_path):
    sc = gen_synthetic(seed=2, users=3, days=2)
    user = sc.users[1]
    lo = np.linspace(0.0, 0.1, user.horizon)
    sc = replace(sc, algo=replace(sc.algo, trade_cap=2.5),
                 users=[sc.users[0], replace(user, flex=replace(
                     user.flex, lo=lo)), sc.users[2]])
    write_scenario(sc, tmp_path)
    text = (tmp_path / "scenario.conf").read_text()
    assert "algo.trade_cap = 2.5\n" in text
    assert scenario_conf_text(load_scenario(tmp_path)) == text


def test_missing_directory_is_an_error(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nowhere")


def test_conf_text_compresses_constant_vectors():
    sc = gen_synthetic(seed=0, users=2)
    text = scenario_conf_text(sc)
    # pi_as is constant over the horizon and collapses to one number
    assert "tariff.pi_as = 0.02\n" in text


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def fake_schedule(H, seed, peers=()):
    rng = np.random.default_rng(seed)
    vals = {k: rng.uniform(0, 3, H) for k in
            ("g", "r", "l_ac", "l_fl", "c", "d", "e_fit", "e_dr", "e_as")}
    trades = {v: rng.normal(size=H) for v in peers}
    return Schedule(peak=float(vals["g"].max()), trades=trades, **vals)


def test_schedule_files_round_trip_exactly(tmp_path):
    daily = [fake_schedule(4, 0, peers=("u02",)),
             fake_schedule(4, 1, peers=("u02",))]
    write_results(tmp_path, schedules={"u01": daily})
    path = tmp_path / "schedules" / "u01.csv"
    header = path.read_text().splitlines()[0]
    assert header == ("day,slot,g,r,l_ac,l_fl,c,d,e_fit,e_dr,e_as,peak,"
                      "trade_u02")
    with open(path, newline="") as fh:
        rows = [[float(c) for c in row] for row in csv.reader(fh)
                if row[0] != "day"]
    assert len(rows) == 8
    for day, orig in enumerate(daily):
        for t in range(4):
            want = [day, t] + [getattr(orig, name)[t] for name in (
                "g", "r", "l_ac", "l_fl", "c", "d", "e_fit", "e_dr",
                "e_as")] + [orig.peak, orig.trades["u02"][t]]
            assert rows[4 * day + t] == want


def test_comparison_table_and_reduction_rule(tmp_path):
    write_results(tmp_path,
                  sa_costs={"u01": 10.0, "u02": 0.0, "u03": -2.0},
                  co_costs={"u01": 9.0, "u02": 0.0, "u03": -2.0})
    rows = read_comparison(tmp_path / "comparison.csv")
    header = (tmp_path / "comparison.csv").read_text().splitlines()[0]
    assert tuple(header.split(",")) == COMPARISON_COLUMNS
    by_user = {r["user"]: r for r in rows}
    assert by_user["u01"]["reduction_pct"] == pytest.approx(10.0)
    assert by_user["u02"]["reduction_pct"] == 0.0  # zero base, no ratio
    assert by_user["u03"]["reduction_pct"] == 0.0  # unchanged cost


def test_trace_and_config_echo(tmp_path):
    trace = {0: [TraceRecord(iteration=1, primal_gap=0.5, dual_gap=0.25,
                             costs={"u01": 2.0, "u02": 1.0},
                             inner_iters_sum=150, inner_iters_max=100)],
             1: [TraceRecord(iteration=1, primal_gap=0.0, dual_gap=0.0,
                             costs={"u01": 1.5, "u02": 0.5})]}
    write_results(tmp_path, trace=trace, config_text="days = 2\n")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == ("day,iteration,primal_gap,dual_gap,aggregate_cost,"
                        "inner_iters_sum,inner_iters_max")
    assert lines[1] == "0,1,0.5,0.25,3.0,150,100"
    assert lines[2] == "1,1,0.0,0.0,2.0,0,0"
    assert (tmp_path / "effective.conf").read_text() == "days = 2\n"
