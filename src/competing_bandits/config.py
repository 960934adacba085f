"""Experiment configuration files and random instance generation.

Configs are INI-style section/key files (see README for the grammar). A
config describes the market and timeline either explicitly or through a
random generator spec; both paths are fully validated before any
simulation starts, and every defaulted field is reported back so runs are
reproducible from the echoed block alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .engine import BASELINES
from .environment import NOISE_FAMILIES, ChangeEvent, MeanRewardTimeline
from .errors import ConfigError, InputError
from .market import MarketInstance

CONFIG_VERSION = 1

MODES = ("rcb", "meta")


@dataclass(frozen=True)
class GeneratorSpec:
    """Random market/timeline generator parameters.

    ``delta`` is the minimum gap enforced between any two arm means of the
    same player, in every constant segment. ``change_fractions``, when
    given, pins the change times to fixed fractions of the horizon so the
    same schedule scales across horizons.
    """

    seed: int
    n_players: int
    n_arms: int
    delta: float
    n_changes: int
    mu_bar: float = 1.0
    change_fractions: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.n_players < 1:
            raise ConfigError("generator: n_players must be positive")
        if self.n_arms < self.n_players:
            raise ConfigError("market requires K >= N")
        if self.delta <= 0:
            raise ConfigError("generator: delta floor must be positive")
        if self.n_changes < 0:
            raise ConfigError("generator: changes cannot be negative")
        if self.n_arms * self.delta > self.mu_bar:
            raise ConfigError(
                "generator: delta floor infeasible, need n_arms * delta <= mu_bar "
                f"({self.n_arms} * {self.delta} = {self.n_arms * self.delta} > {self.mu_bar})"
            )
        if self.change_fractions is not None and len(self.change_fractions) != self.n_changes:
            raise ConfigError("generator: change_fractions length must equal changes")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    version: int
    mode: str
    horizon: int
    restart_period: Optional[int]  # None means "auto"
    seeds: tuple[int, ...]
    baseline: str
    noise: str
    market: Optional[MarketInstance] = None
    timeline: Optional[MeanRewardTimeline] = None
    generator: Optional[GeneratorSpec] = None
    out_dir: str = "."


def _allowed_intervals(others: Sequence[float], delta: float, lo: float, hi: float):
    """Sub-intervals of [lo, hi] at distance >= delta from every value in
    ``others``."""
    points = [(lo, hi)]
    for o in sorted(others):
        a, b = o - delta, o + delta
        nxt = []
        for s, e in points:
            if b <= s or a >= e:
                nxt.append((s, e))
                continue
            if a > s:
                nxt.append((s, a))
            if b < e:
                nxt.append((b, e))
        points = nxt
    return [(s, e) for s, e in points if e > s]


def _sample_from_intervals(intervals, rng: np.random.Generator) -> float:
    lengths = [e - s for s, e in intervals]
    total = sum(lengths)
    x = rng.uniform(0.0, total)
    for (s, e), w in zip(intervals, lengths):
        if x <= w:
            return s + x
        x -= w
    return intervals[-1][1]


def generate_instance(
    spec: GeneratorSpec,
    horizon: int,
    rng: Optional[np.random.Generator] = None,
) -> tuple[MarketInstance, MeanRewardTimeline]:
    """Random market and timeline honouring the spec's gap floor.

    Arm utilities are random strict orderings. Each player's segment means
    keep pairwise gaps of at least ``delta`` inside [0, mu_bar]. Exactly
    ``n_changes`` single-cell change events are placed, at uniformly drawn
    distinct times in [2, horizon] unless fixed fractions are given.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    n, k, t_max = spec.n_players, spec.n_arms, horizon
    if spec.n_changes > 0 and t_max < 2:
        raise InputError("cannot place change events on a horizon shorter than 2")
    if spec.n_changes > max(0, t_max - 1):
        field = "changes" if spec.change_fractions is None else "change_fractions"
        raise InputError(
            f"cannot place {spec.n_changes} {field} at distinct times in [2, {t_max}]"
        )

    utilities = tuple(tuple(float(v) for v in rng.permutation(n)) for _ in range(k))
    market = MarketInstance(n, k, utilities)

    slack = spec.mu_bar - (k - 1) * spec.delta
    initial = []
    for _ in range(n):
        base = np.sort(rng.uniform(0.0, slack, size=k))
        values = base + spec.delta * np.arange(k)
        row = np.empty(k)
        row[rng.permutation(k)] = values
        initial.append(tuple(float(v) for v in row))

    if spec.change_fractions is not None:
        times = []
        for f in spec.change_fractions:
            t = int(round(f * t_max))
            t = max(2, min(t_max, t))
            # A time taken by an earlier fraction moves to the nearest free
            # round above it, or else below it.
            up = (u for u in range(t, t_max + 1) if u not in times)
            down = (u for u in range(t - 1, 1, -1) if u not in times)
            times.append(next(up, None) or next(down))
        times.sort()
    else:
        pool = np.arange(2, t_max + 1)
        times = sorted(int(v) for v in rng.choice(pool, size=spec.n_changes, replace=False))

    current = [list(row) for row in initial]
    events = []
    for t in times:
        for _ in range(100):
            i = int(rng.integers(n))
            j = int(rng.integers(k))
            others = [current[i][a] for a in range(k) if a != j]
            intervals = _allowed_intervals(others, spec.delta, 0.0, spec.mu_bar)
            if not intervals:
                continue
            new = _sample_from_intervals(intervals, rng)
            if new != current[i][j]:
                break
        else:
            raise InputError("could not place a change event honouring the gap floor")
        events.append(ChangeEvent(t, i, j, new))
        current[i][j] = new

    timeline = MeanRewardTimeline(t_max, initial, events, spec.mu_bar)
    return market, timeline


def resolve_instance(
    config: ExperimentConfig,
    horizon: Optional[int] = None,
    n_changes: Optional[int] = None,
) -> tuple[MarketInstance, MeanRewardTimeline]:
    """Materialize the market/timeline pair, regenerating when the config
    uses a generator (sweeps override horizon or change count per point)."""
    horizon = horizon if horizon is not None else config.horizon
    if config.generator is not None:
        spec = config.generator
        if n_changes is not None and n_changes != spec.n_changes:
            spec = replace(spec, n_changes=n_changes, change_fractions=None)
        return generate_instance(spec, horizon)
    if config.market is None or config.timeline is None:
        raise ConfigError("config has neither an explicit instance nor a generator")
    if n_changes is not None or horizon != config.horizon:
        raise ConfigError("sweeping T or L requires a [generator] section")
    return config.market, config.timeline


def _parse_matrix(text: str, section: str, key: str) -> list[list[float]]:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError:
            raise ConfigError(f"[{section}] {key}: non-numeric entry in row {line!r}")
    if not rows:
        raise ConfigError(f"[{section}] {key}: empty matrix")
    return rows


def _parse_int(section, key, value, minimum=None):
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key}: expected an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"[{section.name}] {key}: must be at least {minimum}, got {number}")
    return number


def _parse_float(section, key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key}: expected a number, got {value!r}")


def parse_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file.

    Raises ConfigError with the offending section/key (configparser syntax
    errors carry their line numbers through).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}")

    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    if "version" not in exp:
        raise ConfigError("[experiment] version: required key is missing")
    version = _parse_int(exp, "version", exp["version"])
    if version != CONFIG_VERSION:
        raise ConfigError(f"[experiment] version: unsupported version {version}")
    if "horizon" not in exp:
        raise ConfigError("[experiment] horizon: required key is missing")
    horizon = _parse_int(exp, "horizon", exp["horizon"], minimum=1)

    mode = exp.get("mode", "rcb").strip()
    if mode not in MODES:
        raise ConfigError(f"[experiment] mode: must be one of {MODES}, got {mode!r}")
    raw_period = exp.get("restart_period", "auto").strip()
    if raw_period == "auto":
        restart_period = None
    else:
        restart_period = _parse_int(exp, "restart_period", raw_period)
        if restart_period < 1:
            raise ConfigError("[experiment] restart_period: must be at least 1 or 'auto'")
    try:
        seeds = tuple(int(s) for s in exp.get("seeds", "0").replace(",", " ").split())
    except ValueError:
        raise ConfigError("[experiment] seeds: expected comma-separated integers")
    if not seeds or min(seeds) < 0:
        raise ConfigError("[experiment] seeds: need at least one seed, none negative")
    baseline = exp.get("baseline", "pessimal").strip()
    if baseline not in BASELINES:
        raise ConfigError(f"[experiment] baseline: must be one of {BASELINES}")
    noise = exp.get("noise", "gaussian").strip()
    if noise not in NOISE_FAMILIES:
        raise ConfigError(f"[experiment] noise: must be one of {NOISE_FAMILIES}")
    out_dir = exp.get("out", ".").strip()

    has_explicit = "market" in parser or "timeline" in parser
    has_generator = "generator" in parser
    if has_explicit and has_generator:
        raise ConfigError("config must use either [market]+[timeline] or [generator], not both")
    if not has_explicit and not has_generator:
        raise ConfigError("config needs [market]+[timeline] sections or a [generator] section")

    market = timeline = generator = None
    if has_generator:
        gen = parser["generator"]
        for key in ("n_players", "n_arms", "delta"):
            if key not in gen:
                raise ConfigError(f"[generator] {key}: required key is missing")
        fractions = None
        if "change_fractions" in gen:
            try:
                fractions = tuple(
                    float(v) for v in gen["change_fractions"].replace(",", " ").split()
                )
            except ValueError:
                raise ConfigError("[generator] change_fractions: expected numbers")
        generator = GeneratorSpec(
            seed=_parse_int(gen, "seed", gen.get("seed", "0"), minimum=0),
            n_players=_parse_int(gen, "n_players", gen["n_players"]),
            n_arms=_parse_int(gen, "n_arms", gen["n_arms"]),
            delta=_parse_float(gen, "delta", gen["delta"]),
            n_changes=_parse_int(gen, "changes", gen.get("changes", "0")),
            mu_bar=_parse_float(gen, "mu_bar", gen.get("mu_bar", "1.0")),
            change_fractions=fractions,
        )
    else:
        if "market" not in parser:
            raise ConfigError("missing [market] section")
        if "timeline" not in parser:
            raise ConfigError("missing [timeline] section")
        mkt = parser["market"]
        for key in ("n_players", "n_arms", "arm_utilities"):
            if key not in mkt:
                raise ConfigError(f"[market] {key}: required key is missing")
        n_players = _parse_int(mkt, "n_players", mkt["n_players"])
        n_arms = _parse_int(mkt, "n_arms", mkt["n_arms"])
        if n_arms < n_players:
            raise ConfigError("market requires K >= N")
        utilities = _parse_matrix(mkt["arm_utilities"], "market", "arm_utilities")
        try:
            market = MarketInstance(n_players, n_arms, tuple(tuple(r) for r in utilities))
        except InputError as exc:
            raise ConfigError(f"[market] arm_utilities: {exc}")

        tl = parser["timeline"]
        if "initial_means" not in tl:
            raise ConfigError("[timeline] initial_means: required key is missing")
        mu_bar = _parse_float(tl, "mu_bar", tl.get("mu_bar", "1.0"))
        means = _parse_matrix(tl["initial_means"], "timeline", "initial_means")
        events = []
        if "events" in tl:
            for line in tl["events"].strip().splitlines():
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise ConfigError(
                        f"[timeline] events: expected 'time player arm new_mean', got {line!r}"
                    )
                try:
                    events.append(
                        ChangeEvent(int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]))
                    )
                except ValueError:
                    raise ConfigError(f"[timeline] events: non-numeric entry in {line!r}")
        try:
            timeline = MeanRewardTimeline(horizon, means, events, mu_bar)
        except InputError as exc:
            raise ConfigError(f"[timeline]: {exc}")
        if timeline.n_players != n_players or timeline.n_arms != n_arms:
            raise ConfigError("[timeline] initial_means shape disagrees with [market] sizes")

    return ExperimentConfig(
        version=version,
        mode=mode,
        horizon=horizon,
        restart_period=restart_period,
        seeds=seeds,
        baseline=baseline,
        noise=noise,
        market=market,
        timeline=timeline,
        generator=generator,
        out_dir=out_dir,
    )


def echo_config(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Every resolved field (defaults included) as key/value pairs."""
    pairs = [
        ("version", str(config.version)),
        ("mode", config.mode),
        ("horizon", str(config.horizon)),
        ("restart_period", "auto" if config.restart_period is None else str(config.restart_period)),
        ("seeds", ",".join(str(s) for s in config.seeds)),
        ("baseline", config.baseline),
        ("noise", config.noise),
        ("out", config.out_dir),
    ]
    if config.generator is not None:
        g = config.generator
        pairs += [
            ("generator.seed", str(g.seed)),
            ("generator.n_players", str(g.n_players)),
            ("generator.n_arms", str(g.n_arms)),
            ("generator.delta", repr(g.delta)),
            ("generator.changes", str(g.n_changes)),
            ("generator.mu_bar", repr(g.mu_bar)),
        ]
        if g.change_fractions is not None:
            pairs.append(
                ("generator.change_fractions", ",".join(repr(f) for f in g.change_fractions))
            )
    else:
        pairs += [
            ("market.n_players", str(config.market.n_players)),
            ("market.n_arms", str(config.market.n_arms)),
            ("market.arm_utilities",
             "; ".join(" ".join(repr(v) for v in row) for row in config.market.arm_utilities)),
            ("timeline.mu_bar", repr(config.timeline.mu_bar)),
            ("timeline.initial_means",
             "; ".join(" ".join(repr(v) for v in row) for row in config.timeline.initial_means)),
            ("timeline.events",
             "; ".join(f"{e.time} {e.player} {e.arm} {e.new_mean!r}"
                       for e in config.timeline.events)),
        ]
    return pairs
