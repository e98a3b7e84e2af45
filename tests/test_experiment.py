"""Day slicing, multi-day battery chaining, and the oracle cross-check."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import toy_profile, toy_tariff

import vppsim
from vppsim.chain import replay
from vppsim.experiment import (ExperimentError, day_profile, day_tariff,
                               run_co, run_sa, run_verify_oracle)
from vppsim.model import Horizon, battery_trajectory
from vppsim.scenario_io import Scenario, gen_synthetic


def storage_user():
    """Free renewable on day 0, bare load on day 1, lossless battery."""
    p = toy_profile("u01", H=8,
                    renewable=np.array([4.0] * 4 + [0.0] * 4),
                    inflexible=np.array([0.0] * 4 + [1.0] * 4),
                    capacity=8.0, b_init=0.0)
    return replace(p, battery=replace(p.battery, eta=1.0, omega_ba=0.001))


def storage_scenario():
    # Each day is solved on its own, so day 0 needs an in-day reason to
    # end charged: an ancillary reward on held energy.  Day 1 then runs
    # on the carried level.
    from vppsim.coordinator import AlgoConfig
    from vppsim.simnet import NetConfig
    user = storage_user()
    tariff = toy_tariff(8, pi_fit=0.05,
                        pi_as=[0.2] * 4 + [0.0] * 4)
    return Scenario(horizon=Horizon(slots=4), days=2,
                    users=[user], tariff=tariff,
                    algo=AlgoConfig(), net=NetConfig())


def test_day_slices_cut_the_right_windows():
    user = storage_user()
    d1 = day_profile(user, 1, 4)
    np.testing.assert_array_equal(d1.exo.renewable_cap, np.zeros(4))
    np.testing.assert_array_equal(d1.exo.inflexible, np.ones(4))
    assert d1.horizon == 4
    assert d1.ac.t_init == user.ac.t_init  # temperature restarts daily
    assert d1.battery.b_init == user.battery.b_init
    carried = day_profile(user, 1, 4, b_start=3.25)
    assert carried.battery.b_init == 3.25
    with pytest.raises(ExperimentError):
        day_profile(user, 2, 4)
    t = day_tariff(toy_tariff(8, pi_dr=np.arange(8.0)), 1, 4)
    np.testing.assert_array_equal(t.pi_dr, [4.0, 5.0, 6.0, 7.0])


def test_battery_carries_the_surplus_into_the_next_day():
    res = run_sa(storage_scenario())
    assert res.feasible
    day0, day1 = res.schedules["u01"]
    user = storage_user()
    end_level = battery_trajectory(day0.c, day0.d, user.battery)[-1]
    assert end_level >= 7.5  # reserve reward keeps the battery full
    assert float(np.sum(day1.d)) >= 3.5
    assert float(np.sum(day1.g)) <= 0.5  # load served from storage
    assert res.costs["u01"] < 0.0  # reserve and feed-in both earn


def test_two_day_trading_matches_the_oracle_day_by_day():
    sc = gen_synthetic(seed=0, users=2, days=2, slots=8,
                       complementary=True)
    res = run_verify_oracle(sc)
    assert res.co.converged and res.co.feasible
    assert len(res.day_gaps) == 2
    assert res.rel_gap <= 1e-3
    assert all(gap <= 1e-3 for gap in res.day_gaps)
    assert res.co.settlements == []  # the oracle run does not settle


def test_each_converged_day_settles_and_replays():
    sc = gen_synthetic(seed=1, users=2, days=2, slots=8,
                       complementary=True)
    res = run_co(sc)
    assert res.converged and res.feasible
    assert len(res.transports) == 2
    assert len(res.settlements) == 2
    for day, transport in enumerate(res.transports):
        state = transport.chain.state()
        assert set(state.services) == {"u01", "u02"}
        assert transport.chain.height >= res.iterations[day] + 1
        rebuilt = replay(list(transport.chain.records))
        assert rebuilt.root() == state.root()


def test_a_stuck_day_stops_the_run():
    sc = gen_synthetic(seed=2, users=2, days=2, slots=8,
                       complementary=True)
    sc = replace(sc, algo=replace(sc.algo, max_iter=1))
    res = run_co(sc)
    assert not res.converged
    assert len(res.traces) == 1
    assert res.settlements == []
    assert all(len(daily) == 1 for daily in res.schedules.values())
    gap = run_verify_oracle(sc)
    assert gap.rel_gap == float("inf")
    assert gap.day_gaps == []


def test_expensive_peer_energy_ends_feasible():
    # Round solves stop at the loose loop tolerance; on this day the
    # schedules read off the last round break feasibility at 1e-6, and
    # the final tight solve per household is what makes them feasible.
    sc = gen_synthetic(seed=0, users=2, complementary=True)
    with pytest.warns(UserWarning):   # peer price above the grid price
        sc = replace(sc, tariff=replace(sc.tariff, pi_p2p=3.6))
        res = run_co(sc, settle=False)
    assert res.converged
    assert res.feasible


PINNED_DAY = """
import sys
from vppsim.experiment import run_co
from vppsim.scenario_io import gen_synthetic
from vppsim.simnet import write_events
run = run_co(gen_synthetic(seed=1, users=2, slots=8, complementary=True))
transport = run.transports[0]
write_events(transport.events, sys.argv[1])
print(transport.chain.tip(), run.iterations[0])
"""

# the benchmark's co3 day (perfbench's Co3 workload at network seed 1)
CO3_DAY = """
from dataclasses import replace
from vppsim.experiment import run_co
from vppsim.scenario_io import gen_synthetic
sc = gen_synthetic(seed=1, users=3, complementary=True)
run = run_co(replace(sc, net=replace(sc.net, seed=1)))
print(run.transports[0].chain.tip(), run.iterations[0])
"""


def _run_pinned(script, *args):
    """The script's stdout, run in its own process on one BLAS thread.

    A tip repeats only at a fixed BLAS thread count (the 2-household day
    gives c8d2f121... at two threads).
    """
    src = str(Path(vppsim.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True,
                          check=True).stdout


def test_a_run_co_day_has_pinned_bytes(tmp_path):
    events = tmp_path / "events_day0.log"
    tip, rounds = _run_pinned(PINNED_DAY, str(events)).split()
    assert tip == ("e3f3f701feaa8b5cfd30fd77f267fabd"
                   "e2d7dee8875a26beaf13f50e92102c11")
    assert int(rounds) == 11
    assert hashlib.sha256(events.read_bytes()).hexdigest() == (
        "cb700fda86f2dc79a18d6ceb5eb4de4e2b8dc3036334aacdef255bec6be50e4e")


def test_the_co3_day_has_a_pinned_tip():
    tip, rounds = _run_pinned(CO3_DAY).split()
    assert tip == ("a5436f04363bb809f6f742e2c40fc69f"
                   "b8fb3003aaac153916c106a9aff0b61a")
    assert int(rounds) == 58


# a 2-household, 2-day verify-oracle run: day 1 starts from the battery
# levels day 0 of the trading run ended on
VERIFY_ORACLE = """
import sys
from vppsim.cli import main
main(["gen-data", "--out", sys.argv[1], "--users", "2", "--days", "2",
      "--seed", "3", "--complementary"])
main(["verify-oracle", "--scenario", sys.argv[1], "--out", sys.argv[2]])
"""


def test_a_verify_oracle_report_has_pinned_bytes(tmp_path):
    _run_pinned(VERIFY_ORACLE, str(tmp_path / "scenario"),
                str(tmp_path / "out"))
    report = (tmp_path / "out" / "oracle.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "f4676d089996d8dba3e64dc888a7a4d9915a1ce4d087174306b864d5096fe3b5")
