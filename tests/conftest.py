"""Shared builders for small household instances used across the suite."""

import csv

import numpy as np
import pytest

from vppsim.model import (AcParams, BatteryParams, ExogenousSeries,
                          FlexParams, Tariff, UserProfile)
from vppsim.scenario_io import COMPARISON_COLUMNS


def toy_tariff(H, alpha=1.0, beta=2.5, pi_p2p=0.6, pi_fit=0.25,
               pi_dr=None, pi_as=None):
    return Tariff(alpha=alpha, beta=beta, pi_p2p=pi_p2p, pi_fit=pi_fit,
                  pi_dr=np.zeros(H) if pi_dr is None else np.asarray(pi_dr),
                  pi_as=np.zeros(H) if pi_as is None else np.asarray(pi_as))


def toy_profile(uid="u01", H=4, renewable=0.0, inflexible=0.0,
                flex_total=0.0, flex_hi=None, capacity=0.0, t_out=24.0,
                tau=24.0, fuse=10.0, omega_ac=0.1, omega_fl=0.1,
                omega_ba=0.02, gamma=-2.0, b_init=None):
    """Minimal valid profile; scalars broadcast to the horizon."""
    renewable = np.full(H, float(renewable)) \
        if np.isscalar(renewable) else np.asarray(renewable, float)
    inflexible = np.full(H, float(inflexible)) \
        if np.isscalar(inflexible) else np.asarray(inflexible, float)
    t_out = np.full(H, float(t_out)) \
        if np.isscalar(t_out) else np.asarray(t_out, float)
    if flex_hi is None:
        flex_hi = max(flex_total, 1.0)
    return UserProfile(
        user_id=uid, fuse_limit=fuse,
        ac=AcParams(r_thermal=2.0, c_thermal=2.0, gamma=gamma, tau=tau,
                    t_min=18.0, t_max=30.0, omega_ac=omega_ac,
                    t_init=float(t_out[0])),
        flex=FlexParams(total=flex_total, reference=np.zeros(H),
                        lo=np.zeros(H), hi=np.full(H, float(flex_hi)),
                        omega_fl=omega_fl),
        battery=BatteryParams(capacity=capacity, max_charge=7.0,
                              max_discharge=7.0, eta=0.95,
                              omega_ba=omega_ba, b_init=b_init),
        exo=ExogenousSeries(renewable_cap=renewable, t_out=t_out,
                            inflexible=inflexible))


def surplus_pair(H=4):
    """Producer with free renewable next to a consumer with bare load."""
    a = toy_profile("ua", H, renewable=1.0)
    b = toy_profile("ub", H, inflexible=1.0)
    return [a, b]


@pytest.fixture
def pair_tariff():
    return toy_tariff(4)


def read_comparison(path) -> list:
    """Rows of a written comparison.csv, the cost columns as floats."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == COMPARISON_COLUMNS
        return [{k: v if k == "user" else float(v) for k, v in row.items()}
                for row in reader]
