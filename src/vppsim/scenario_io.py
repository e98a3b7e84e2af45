"""Scenario files on disk, synthetic generation, and results emission.

A scenario directory holds one scenario.conf with key = value scalars
(dotted keys group related settings) and a users/<id>/traces.csv per
household with the exogenous series.  Results land in comma-separated
text with documented headers so they diff cleanly and load back without
loss: floats are written with repr, which round-trips exactly.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coordinator import AlgoConfig
from .model import (AcParams, BatteryParams, ExogenousSeries, FlexParams,
                    Horizon, InvalidInput, Tariff, UserProfile)
from .simnet import NetConfig, SimError

TRACE_COLUMNS = ("slot", "renewable_cap", "t_out", "inflexible", "flex_ref")
SCHEDULE_COLUMNS = ("day", "slot", "g", "r", "l_ac", "l_fl", "c", "d",
                    "e_fit", "e_dr", "e_as", "peak")
COMPARISON_COLUMNS = ("user", "sa_total", "co_total", "reduction_pct")


class ScenarioError(Exception):
    """Scenario file problem; the message names the file and field."""


@dataclass
class Scenario:
    horizon: Horizon
    days: int
    users: list
    tariff: Tariff
    algo: AlgoConfig
    net: NetConfig

    def __post_init__(self):
        if self.days < 1:
            raise ScenarioError(f"days must be >= 1, got {self.days}")
        ids = [u.user_id for u in self.users]
        if len(ids) != len(set(ids)):
            raise ScenarioError("duplicate user ids in scenario")
        n = self.horizon.slots * self.days
        for u in self.users:
            if u.horizon != n:
                raise ScenarioError(
                    f"user {u.user_id}: series length {u.horizon}, "
                    f"expected slots*days = {n}")
        for name in ("pi_dr", "pi_as"):
            if len(getattr(self.tariff, name)) != n:
                raise ScenarioError(
                    f"tariff.{name}: length "
                    f"{len(getattr(self.tariff, name))}, expected {n}")


# ---------------------------------------------------------------------------
# scenario.conf parsing
# ---------------------------------------------------------------------------

def _parse_conf(path: Path) -> dict:
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(
                    f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in entries:
                raise ScenarioError(f"{path}:{lineno}: duplicate key {key}")
            entries[key] = value
    return entries


class _Conf:
    """Typed access to conf entries with file/field error context."""

    def __init__(self, path: Path, entries: dict):
        self.path = path
        self.entries = entries

    def raw(self, key, default=None, required=False):
        if key not in self.entries:
            if required:
                raise ScenarioError(
                    f"{self.path}: missing required key {key}")
            return default
        return self.entries[key]

    def number(self, key, default=None, required=False):
        raw = self.raw(key, required=required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ScenarioError(f"{self.path}: {key}: not a number: {raw!r}")
        if not math.isfinite(value):
            raise ScenarioError(f"{self.path}: {key}: non-finite value")
        return value

    def integer(self, key, default=None, required=False):
        raw = self.raw(key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ScenarioError(
                f"{self.path}: {key}: not an integer: {raw!r}")

    def vector(self, key, length, default=0.0):
        """Comma list, broadcast from one value, or the default."""
        raw = self.raw(key)
        if raw is None:
            return np.full(length, float(default))
        try:
            values = [float(s) for s in raw.split(",")]
        except ValueError:
            raise ScenarioError(f"{self.path}: {key}: bad number list")
        if len(values) == 1:
            return np.full(length, values[0])
        if len(values) != length:
            raise ScenarioError(
                f"{self.path}: {key}: {len(values)} values, "
                f"expected 1 or {length}")
        return np.asarray(values)

    def latency(self, key, default):
        raw = self.raw(key)
        if raw is None:
            return default
        try:
            if ":" in raw:
                lo, hi = (int(s) for s in raw.split(":"))
                return (lo, hi)
            return int(raw)
        except ValueError:
            raise ScenarioError(
                f"{self.path}: {key}: expected ticks or lo:hi, got {raw!r}")


def _read_traces(path: Path, expected_len: int):
    if not path.exists():
        raise ScenarioError(f"{path}: missing trace file")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ScenarioError(f"{path}: empty file")
        if tuple(h.strip() for h in header) != TRACE_COLUMNS:
            raise ScenarioError(
                f"{path}: header {header} does not match "
                f"{list(TRACE_COLUMNS)}")
        rows = []
        for lineno, row in enumerate(reader, 2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(TRACE_COLUMNS):
                raise ScenarioError(
                    f"{path}:{lineno}: {len(row)} columns, expected "
                    f"{len(TRACE_COLUMNS)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ScenarioError(f"{path}:{lineno}: non-numeric cell")
    if len(rows) != expected_len:
        raise ScenarioError(
            f"{path}: {len(rows)} data rows, expected slots*days = "
            f"{expected_len}")
    data = np.asarray(rows)
    slots = data[:, 0]
    if not np.array_equal(slots, np.arange(expected_len, dtype=float)):
        raise ScenarioError(
            f"{path}: slot column must run 0..{expected_len - 1}")
    return {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}


def load_scenario(root) -> Scenario:
    root = Path(root)
    conf_path = root / "scenario.conf"
    if not conf_path.exists():
        raise ScenarioError(f"{conf_path}: no such file")
    conf = _Conf(conf_path, _parse_conf(conf_path))

    slots = conf.integer("horizon.slots", 24)
    dt = conf.number("horizon.dt", 1.0)
    days = conf.integer("days", 1)
    n = slots * days

    try:
        tariff = Tariff(
            alpha=conf.number("tariff.alpha", required=True),
            beta=conf.number("tariff.beta", required=True),
            pi_p2p=conf.number("tariff.pi_p2p", required=True),
            pi_fit=conf.number("tariff.pi_fit", required=True),
            pi_dr=conf.vector("tariff.pi_dr", n),
            pi_as=conf.vector("tariff.pi_as", n))
    except InvalidInput as exc:
        raise ScenarioError(f"{conf_path}: tariff: {exc}")

    algo = AlgoConfig(
        rho=conf.number("algo.rho", 1.0),
        eps1=conf.number("algo.eps1", 1e-6),
        eps2=conf.number("algo.eps2", 1e-6),
        max_iter=conf.integer("algo.max_iter", 2000),
        trade_cap=conf.number("algo.trade_cap", None))
    try:
        net = NetConfig(
            latency=conf.latency("net.latency", (1, 5)),
            timeout=conf.integer("net.timeout", 50),
            seed=conf.integer("net.seed", 0))
    except SimError as exc:
        raise ScenarioError(f"{conf_path}: net: {exc}")

    ids = sorted({key.split(".")[1] for key in conf.entries
                  if key.startswith("user.")})
    if not ids:
        raise ScenarioError(f"{conf_path}: no user.<id>.* entries")
    users = []
    for uid in ids:
        users.append(_load_user(root, conf, uid, n))
    try:
        return Scenario(horizon=Horizon(slots=slots, dt=dt), days=days,
                        users=users, tariff=tariff, algo=algo, net=net)
    except InvalidInput as exc:
        raise ScenarioError(f"{conf_path}: {exc}")


def _load_user(root: Path, conf: _Conf, uid: str, n: int) -> UserProfile:
    pre = f"user.{uid}"
    traces = _read_traces(root / "users" / uid / "traces.csv", n)
    t_init = conf.number(f"{pre}.ac.t_init")
    if t_init is None:
        t_init = float(traces["t_out"][0])
    try:
        ac = AcParams(
            r_thermal=conf.number(f"{pre}.ac.r_thermal", required=True),
            c_thermal=conf.number(f"{pre}.ac.c_thermal", required=True),
            gamma=conf.number(f"{pre}.ac.gamma", required=True),
            tau=conf.number(f"{pre}.ac.tau", required=True),
            t_min=conf.number(f"{pre}.ac.t_min", required=True),
            t_max=conf.number(f"{pre}.ac.t_max", required=True),
            omega_ac=conf.number(f"{pre}.ac.omega_ac", required=True),
            t_init=t_init,
            decay=conf.number(f"{pre}.ac.decay"))
        total = conf.number(f"{pre}.flex.total", required=True)
        flex = FlexParams(
            total=total,
            reference=traces["flex_ref"],
            lo=conf.vector(f"{pre}.flex.lo", n, default=0.0),
            hi=conf.vector(f"{pre}.flex.hi", n, default=total),
            omega_fl=conf.number(f"{pre}.flex.omega_fl", required=True))
        battery = BatteryParams(
            capacity=conf.number(f"{pre}.battery.capacity", required=True),
            max_charge=conf.number(f"{pre}.battery.max_charge",
                                   required=True),
            max_discharge=conf.number(f"{pre}.battery.max_discharge",
                                      required=True),
            eta=conf.number(f"{pre}.battery.eta", required=True),
            omega_ba=conf.number(f"{pre}.battery.omega_ba", required=True),
            b_init=conf.number(f"{pre}.battery.b_init"))
        exo = ExogenousSeries(renewable_cap=traces["renewable_cap"],
                              t_out=traces["t_out"],
                              inflexible=traces["inflexible"])
        return UserProfile(
            user_id=uid,
            fuse_limit=conf.number(f"{pre}.fuse_limit", required=True),
            ac=ac, flex=flex, battery=battery, exo=exo)
    except InvalidInput as exc:
        raise ScenarioError(f"{conf.path}: user {uid}: {exc}")


# ---------------------------------------------------------------------------
# writing scenarios
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_vector(vec) -> str:
    vec = np.asarray(vec, float)
    if vec.size and np.all(vec == vec[0]):
        return repr(float(vec[0]))
    return ",".join(repr(float(x)) for x in vec)


def scenario_conf_text(sc: Scenario) -> str:
    lines = [
        "# scenario configuration",
        f"horizon.slots = {sc.horizon.slots}",
        f"horizon.dt = {_fmt(sc.horizon.dt)}",
        f"days = {sc.days}",
        "",
        f"tariff.alpha = {_fmt(sc.tariff.alpha)}",
        f"tariff.beta = {_fmt(sc.tariff.beta)}",
        f"tariff.pi_p2p = {_fmt(sc.tariff.pi_p2p)}",
        f"tariff.pi_fit = {_fmt(sc.tariff.pi_fit)}",
        f"tariff.pi_dr = {_fmt_vector(sc.tariff.pi_dr)}",
        f"tariff.pi_as = {_fmt_vector(sc.tariff.pi_as)}",
        "",
        f"algo.rho = {_fmt(sc.algo.rho)}",
        f"algo.eps1 = {_fmt(sc.algo.eps1)}",
        f"algo.eps2 = {_fmt(sc.algo.eps2)}",
        f"algo.max_iter = {sc.algo.max_iter}",
    ]
    if sc.algo.trade_cap is not None:
        lines.append(f"algo.trade_cap = {_fmt(sc.algo.trade_cap)}")
    lat = sc.net.latency
    lat_text = f"{lat[0]}:{lat[1]}" if isinstance(lat, tuple) else str(lat)
    lines += [
        "",
        f"net.latency = {lat_text}",
        f"net.timeout = {sc.net.timeout}",
        f"net.seed = {sc.net.seed}",
    ]
    for u in sc.users:
        pre = f"user.{u.user_id}"
        lines += [
            "",
            f"{pre}.fuse_limit = {_fmt(u.fuse_limit)}",
            f"{pre}.ac.r_thermal = {_fmt(u.ac.r_thermal)}",
            f"{pre}.ac.c_thermal = {_fmt(u.ac.c_thermal)}",
            f"{pre}.ac.gamma = {_fmt(u.ac.gamma)}",
            f"{pre}.ac.tau = {_fmt(u.ac.tau)}",
            f"{pre}.ac.t_min = {_fmt(u.ac.t_min)}",
            f"{pre}.ac.t_max = {_fmt(u.ac.t_max)}",
            f"{pre}.ac.omega_ac = {_fmt(u.ac.omega_ac)}",
            f"{pre}.ac.t_init = {_fmt(u.ac.t_init)}",
            f"{pre}.ac.decay = {_fmt(u.ac.decay)}",
            f"{pre}.flex.total = {_fmt(u.flex.total)}",
            f"{pre}.flex.lo = {_fmt_vector(u.flex.lo)}",
            f"{pre}.flex.hi = {_fmt_vector(u.flex.hi)}",
            f"{pre}.flex.omega_fl = {_fmt(u.flex.omega_fl)}",
            f"{pre}.battery.capacity = {_fmt(u.battery.capacity)}",
            f"{pre}.battery.max_charge = {_fmt(u.battery.max_charge)}",
            f"{pre}.battery.max_discharge = "
            f"{_fmt(u.battery.max_discharge)}",
            f"{pre}.battery.eta = {_fmt(u.battery.eta)}",
            f"{pre}.battery.omega_ba = {_fmt(u.battery.omega_ba)}",
            f"{pre}.battery.b_init = {_fmt(u.battery.b_init)}",
        ]
    return "\n".join(lines) + "\n"


def write_scenario(sc: Scenario, root):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "scenario.conf").write_text(scenario_conf_text(sc))
    for u in sc.users:
        udir = root / "users" / u.user_id
        udir.mkdir(parents=True, exist_ok=True)
        with open(udir / "traces.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            ref = u.flex.reference
            for t in range(u.horizon):
                writer.writerow([t, repr(float(u.exo.renewable_cap[t])),
                                 repr(float(u.exo.t_out[t])),
                                 repr(float(u.exo.inflexible[t])),
                                 repr(float(ref[t]))])


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def gen_synthetic(seed: int, users: int = 10, days: int = 1,
                  slots: int = 24, complementary: bool = False) -> Scenario:
    """Deterministic synthetic scenario in the shape of field data.

    Even-indexed households get rooftop solar (half-sine over daylight
    slots 6..19, zero at night), odd-indexed ones get smoothed wind.
    Outdoor temperature is a diurnal sinusoid, inflexible load a
    morning/evening double hump, batteries uniform 10..15 kWh with
    7 kWh/slot charge and discharge limits.  With complementary=True the
    split is sharpened into large producers facing renewable-free heavy
    consumers, which guarantees gains from trading.
    """
    if users < 2:
        raise ScenarioError(f"need at least 2 users, got {users}")
    rng = np.random.default_rng(seed)
    n = slots * days
    sod = np.arange(n) % slots
    # the phase is 10 h of a 24 h day at every slot count, so slot 0 sits
    # at 24.5 C (a first slot near the daily peak cannot be cooled into
    # the comfort window)
    t_out = 27.0 + 5.0 * np.sin(2 * np.pi * (sod - 10 * slots / 24) / slots)
    profiles = []
    for i in range(users):
        uid = f"u{i + 1:02d}"
        solar_user = i % 2 == 0
        if complementary:
            amp = rng.uniform(4.0, 6.0) if solar_user else 0.0
            wind_base = 0.0
            load_scale = rng.uniform(0.25, 0.45) if solar_user \
                else rng.uniform(1.2, 1.8)
        else:
            amp = rng.uniform(2.5, 5.0) if solar_user else 0.0
            wind_base = 0.0 if solar_user else rng.uniform(0.5, 1.2)
            load_scale = rng.uniform(0.6, 1.4)
        cap = np.zeros(n)
        if amp > 0:
            day_mask = (sod >= 6) & (sod <= 19)
            cap[day_mask] = amp * np.sin(
                np.pi * (sod[day_mask] - 6) / 13)
            cap = np.maximum(cap, 0.0)
        if wind_base > 0:
            noise = rng.uniform(0.0, 1.0, n)
            cap = wind_base * np.convolve(noise, np.ones(5) / 5,
                                          mode="same")
            cap = np.maximum(cap, 0.0)
        hump = (0.25 + 0.5 * np.exp(-((sod - 8.0) ** 2) / 4.0)
                + 0.8 * np.exp(-((sod - 20.0) ** 2) / 6.0))
        infl = load_scale * hump * (1.0 + 0.05 * rng.normal(size=n))
        infl = np.maximum(infl, 0.05)
        ref = load_scale * 0.4 * np.exp(-((sod - 19.0) ** 2) / 5.0)
        total = float(ref[:slots].sum())
        profiles.append(UserProfile(
            user_id=uid,
            fuse_limit=10.0,
            ac=AcParams(r_thermal=2.0, c_thermal=2.0, gamma=-2.0,
                        tau=24.0, t_min=18.0, t_max=30.0, omega_ac=0.1,
                        t_init=float(t_out[0])),
            flex=FlexParams(total=total, reference=ref,
                            lo=np.zeros(n),
                            hi=np.full(n, max(total, 2 * float(ref.max()))),
                            omega_fl=0.1),
            battery=BatteryParams(capacity=float(rng.uniform(10.0, 15.0)),
                                  max_charge=7.0, max_discharge=7.0,
                                  eta=0.95, omega_ba=0.02),
            exo=ExogenousSeries(renewable_cap=cap, t_out=t_out,
                                inflexible=infl)))
    pi_dr = np.where((sod >= 18) & (sod <= 21), 1.3, 0.0)
    tariff = Tariff(alpha=1.0, beta=2.5, pi_p2p=0.6, pi_fit=0.25,
                    pi_dr=pi_dr, pi_as=np.full(n, 0.02))
    return Scenario(horizon=Horizon(slots=slots, dt=1.0), days=days,
                    users=profiles, tariff=tariff,
                    algo=AlgoConfig(), net=NetConfig(seed=seed))


# ---------------------------------------------------------------------------
# results emission
# ---------------------------------------------------------------------------

def write_results(out, schedules=None, sa_costs=None, co_costs=None,
                  trace=None, config_text=None):
    """Emit run outputs as comma-separated text under out/.

    schedules maps user id to a list of per-day Schedule objects.  The
    comparison table is written whenever both cost columns are known;
    reduction is relative to the standalone cost, 0 when that cost is 0.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if schedules:
        sdir = out / "schedules"
        sdir.mkdir(exist_ok=True)
        for uid, daily in sorted(schedules.items()):
            _write_schedule_file(sdir / f"{uid}.csv", daily)
    if sa_costs is not None and co_costs is not None:
        with open(out / "comparison.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COMPARISON_COLUMNS)
            for uid in sorted(set(sa_costs) | set(co_costs)):
                sa = float(sa_costs[uid])
                co = float(co_costs[uid])
                red = 0.0 if sa == 0.0 else 100.0 * (sa - co) / abs(sa)
                writer.writerow([uid, repr(sa), repr(co), repr(red)])
    if trace is not None:
        if not isinstance(trace, dict):
            trace = {0: trace}
        with open(out / "trace.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["day", "iteration", "primal_gap", "dual_gap",
                             "aggregate_cost", "inner_iters_sum",
                             "inner_iters_max"])
            for day in sorted(trace):
                for rec in trace[day]:
                    writer.writerow([day, rec.iteration,
                                     repr(rec.primal_gap),
                                     repr(rec.dual_gap),
                                     repr(float(sum(rec.costs.values()))),
                                     rec.inner_iters_sum,
                                     rec.inner_iters_max])
    if config_text is not None:
        (out / "effective.conf").write_text(config_text)


def _write_schedule_file(path, daily):
    peers = sorted(daily[0].trades) if daily and daily[0].trades else []
    header = list(SCHEDULE_COLUMNS) + [f"trade_{v}" for v in peers]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for day, s in enumerate(daily):
            H = len(s.g)
            for t in range(H):
                row = [day, t] + [
                    repr(float(getattr(s, name)[t]))
                    for name in ("g", "r", "l_ac", "l_fl", "c", "d",
                                 "e_fit", "e_dr", "e_as")]
                row.append(repr(float(s.peak)))
                row += [repr(float(s.trades[v][t])) for v in peers]
                writer.writerow(row)
