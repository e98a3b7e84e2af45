"""Scenario files on disk, synthetic generation, and results emission.

A scenario directory holds one scenario.conf of key = value lines, each
key a field of a config dataclass, and a users/<id>/traces.csv per
household with the exogenous series.  Results land in comma-separated
text with documented headers so they diff cleanly and load back without
loss: floats are written with repr, which round-trips exactly.
"""

import csv
import math
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .coordinator import AlgoConfig
from .model import (SLOT_FIELDS, AcParams, BatteryParams, ExogenousSeries,
                    FlexParams, Horizon, InvalidInput, Tariff, UserProfile)
from .simnet import NetConfig, SimError

TRACE_COLUMNS = ("slot", "renewable_cap", "t_out", "inflexible", "flex_ref")
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
        # Tariff holds pi_as to the length of pi_dr
        if self.tariff.pi_dr.size != n:
            raise ScenarioError(f"tariff.pi_dr: length "
                                f"{self.tariff.pi_dr.size}, expected {n}")


# ---------------------------------------------------------------------------
# scenario.conf schema and parsing
# ---------------------------------------------------------------------------

# Field kinds: parse(raw, n) reads a value (n is the series length) and
# raises ValueError on a bad one.
def _float(raw, n):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _int(raw, n):
    return int(raw)


def _vector(raw, n):
    """One number per slot, or one number for every slot."""
    values = [_float(s, n) for s in raw.split(",")]
    if len(values) not in (1, n):
        raise ValueError(f"{len(values)} values, expected 1 or {n}")
    return np.resize(values, n)


def _latency(raw, n):
    lo, sep, hi = raw.partition(":")
    return (int(lo), int(hi)) if sep else int(lo)


# The kind of every section field that is not a float.  None marks a
# field the loader supplies, which is no key: the household id, the
# nested sections and the trace series.
_KINDS = {
    Horizon: {"slots": _int},
    Tariff: {"pi_dr": _vector, "pi_as": _vector},
    AlgoConfig: {"max_iter": _int},
    NetConfig: {"latency": _latency, "timeout": _int, "seed": _int},
    UserProfile: {"user_id": None, "ac": None, "flex": None,
                  "battery": None, "exo": None},
    FlexParams: {"reference": None, "lo": _vector, "hi": _vector},
}

# The scenario's sections, and each household's devices, whose keys sit
# under user.<id>.<device> (the profile's own fields under user.<id>).
_SECTIONS = (("horizon", Horizon), ("tariff", Tariff), ("algo", AlgoConfig),
             ("net", NetConfig))
_DEVICES = (("ac", AcParams), ("flex", FlexParams),
            ("battery", BatteryParams))


def _kind(cls, name):
    return _KINDS.get(cls, {}).get(name, _float)


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


def _value(path, entries, key, kind, n=0):
    """Parse and consume one key."""
    if key not in entries:
        raise ScenarioError(f"{path}: missing required key {key}")
    raw = entries.pop(key)
    try:
        return kind(raw, n)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {key}: {exc}")


def _section(path, entries, prefix, cls, n=0, **given):
    """Build cls from the keys `<prefix>.<field>`.

    A field takes its key, else its value in `given` (a callable gets
    the fields read so far), else its dataclass default; a key field
    with none of these is missing.
    """
    kw = {}
    for f in fields(cls):
        key, kind = f"{prefix}.{f.name}", _kind(cls, f.name)
        if kind is not None and key in entries:
            kw[f.name] = _value(path, entries, key, kind, n)
        elif f.name in given:
            value = given[f.name]
            kw[f.name] = value(kw) if callable(value) else value
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(f"{path}: missing required key {key}")
    try:
        return cls(**kw)
    except (InvalidInput, SimError) as exc:
        raise ScenarioError(f"{path}: {prefix}: {exc}")


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
            if not all(map(math.isfinite, rows[-1])):
                raise ScenarioError(f"{path}:{lineno}: non-finite cell")
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
    """Read a scenario directory.

    Every key of scenario.conf is `days` or `<section>.<field>`, the
    field belonging to the section's dataclass; any other key is an
    error.
    """
    root = Path(root)
    path = root / "scenario.conf"
    if not path.exists():
        raise ScenarioError(f"{path}: no such file")
    entries = _parse_conf(path)
    ids = sorted({key.split(".")[1] for key in entries
                  if key.startswith("user.")})
    if not ids:
        raise ScenarioError(f"{path}: no user.<id>.* entries")
    section = partial(_section, path, entries)
    horizon = section("horizon", Horizon)
    days = _value(path, entries, "days", _int)
    if days < 1:
        raise ScenarioError(f"{path}: days: must be >= 1, got {days}")
    n = horizon.slots * days
    rest = {name: section(name, cls, n) for name, cls in _SECTIONS[1:]}
    users = [_load_user(root, section, uid, n) for uid in ids]
    if entries:  # every key of the schema has been consumed
        raise ScenarioError(f"{path}: unknown key {min(entries)}")
    return Scenario(horizon=horizon, days=days, users=users, **rest)


def _load_user(root: Path, section, uid: str, n: int) -> UserProfile:
    pre = f"user.{uid}"
    trace_path = root / "users" / uid / "traces.csv"
    traces = _read_traces(trace_path, n)
    # conf-only defaults: the room starts at the first outdoor
    # temperature, and the flexible load may use any slot up to its total
    ac = section(f"{pre}.ac", AcParams, t_init=float(traces["t_out"][0]))
    flex = section(f"{pre}.flex", FlexParams, n,
                   reference=traces["flex_ref"], lo=np.zeros(n),
                   hi=lambda kw: np.full(n, kw["total"]))
    battery = section(f"{pre}.battery", BatteryParams)
    try:
        exo = ExogenousSeries(**{f.name: traces[f.name]
                                 for f in fields(ExogenousSeries)})
    except InvalidInput as exc:
        raise ScenarioError(f"{trace_path}: {exc}")
    return section(pre, UserProfile, user_id=uid, ac=ac, flex=flex,
                   battery=battery, exo=exo)


# ---------------------------------------------------------------------------
# writing scenarios
# ---------------------------------------------------------------------------

def _text(value) -> str:
    """A field value as its kind reads it back."""
    if isinstance(value, np.ndarray):  # one number when constant
        same = value.size and np.all(value == value[0])
        return ",".join(map(repr, (value[:1] if same else value).tolist()))
    if isinstance(value, tuple):  # a lo:hi latency range
        return f"{value[0]}:{value[1]}"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _lines(prefix, obj) -> list:
    """`<prefix>.<field> = value` for each key field of obj that is set."""
    return [f"{prefix}.{f.name} = {_text(getattr(obj, f.name))}"
            for f in fields(obj) if _kind(type(obj), f.name) is not None
            and getattr(obj, f.name) is not None]


def scenario_conf_text(sc: Scenario) -> str:
    paragraphs = [["# scenario configuration",
                   *_lines("horizon", sc.horizon), f"days = {sc.days}"]]
    paragraphs += [_lines(name, getattr(sc, name))
                   for name, _ in _SECTIONS[1:]]
    for u in sc.users:
        pre = f"user.{u.user_id}"
        paragraphs.append(_lines(pre, u) + [
            line for name, _ in _DEVICES
            for line in _lines(f"{pre}.{name}", getattr(u, name))])
    return "\n\n".join("\n".join(p) for p in paragraphs) + "\n"


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
            cols = [getattr(u.exo, f.name) for f in fields(ExogenousSeries)]
            cols.append(u.flex.reference)
            for t in range(u.horizon):
                writer.writerow([t] + [repr(float(c[t])) for c in cols])


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
            # centred 5-slot mean that keeps n values also when n < 5
            cap = wind_base * np.convolve(noise, np.ones(5) / 5,
                                          mode="full")[2:2 + n]
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
    return Scenario(horizon=Horizon(slots=slots), days=days,
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
    peers = sorted(daily[0].trades) if daily else []
    header = ["day", "slot", *SLOT_FIELDS, "peak"] + [
        f"trade_{v}" for v in peers]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for day, s in enumerate(daily):
            cols = [getattr(s, name) for name in SLOT_FIELDS]
            cols += [np.full(s.horizon, s.peak)] + [s.trades[v] for v in peers]
            for t in range(s.horizon):
                writer.writerow([day, t] + [repr(float(c[t])) for c in cols])
