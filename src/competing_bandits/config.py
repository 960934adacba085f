"""Experiment configuration files and random instance generation.

Configs are INI-style section/key files (see README for the grammar). A
config describes the market and timeline either explicitly or through a
random generator spec; both paths are fully validated before any
simulation starts, and every defaulted field is reported back so runs are
reproducible from the echoed block alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .engine import SimulationConfig
from .environment import ChangeEvent, MeanRewardTimeline
from .errors import ConfigError, InputError, _check_choice, _check_integer, _check_real
from .market import MarketInstance
from .meta import build_ensemble

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
        for name, least in (("seed", 0), ("n_players", 1), ("n_arms", None), ("n_changes", 0)):
            _check_integer(name, getattr(self, name), ConfigError, least)
        for name, value in (("delta", self.delta), ("mu_bar", self.mu_bar),
                            *(("change_fractions", f) for f in self.change_fractions or ())):
            _check_real(name, value, ConfigError)
        if self.n_arms < self.n_players:
            raise ConfigError(f"market requires K >= N, got K = {self.n_arms} < "
                              f"N = {self.n_players}", "n_arms")
        if self.delta <= 0:
            raise ConfigError("floor must be positive", "delta")
        if self.n_arms * self.delta > self.mu_bar:
            raise ConfigError(
                "floor infeasible, need n_arms * delta <= mu_bar "
                f"({self.n_arms} * {self.delta} = {self.n_arms * self.delta} > {self.mu_bar})",
                "delta")
        if self.change_fractions is not None and len(self.change_fractions) != self.n_changes:
            raise ConfigError("length must equal changes", "change_fractions")

    def check_horizon(self, horizon: int, owner: str = "") -> None:
        """ConfigError naming ``owner`` + field unless the changes fit in [2, horizon]."""
        if self.n_changes > max(0, horizon - 1):
            field = "n_changes" if self.change_fractions is None else "change_fractions"
            raise ConfigError(f"cannot place {self.n_changes} changes at distinct times "
                              f"in [2, {horizon}]", owner + field)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description, the one home of its rules for
    config files, overrides, sweep points and library callers alike. An error
    names the field, as ``generator.<field>`` for a field of a section object."""

    version: int
    mode: str
    horizon: int
    restart_period: Optional[int]  # None means "auto"
    seeds: tuple[int, ...]
    baseline: str
    noise: str
    instance: GeneratorSpec | tuple[MarketInstance, MeanRewardTimeline]
    out_dir: str = "."

    def __post_init__(self):
        _check_integer("version", self.version, ConfigError)
        for seed in self.seeds:
            _check_integer("seeds", seed, ConfigError, least=0)
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"must be {CONFIG_VERSION}, got {self.version}", "version")
        _check_choice("mode", self.mode, MODES, ConfigError)
        # The rules of one run: horizon, restart_period, noise, baseline.
        SimulationConfig(self.horizon, self.restart_period, 0, self.noise, self.baseline)
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"must be one or more distinct integers, got {self.seeds}", "seeds")
        if self.mode == "meta" and self.restart_period is not None:
            raise ConfigError("meta mode tunes the restart_period itself; it must be 'auto', "
                              f"got {self.restart_period}", "restart_period")
        if self.mode == "meta":
            build_ensemble(self.horizon)  # the meta loop's own check: T >= 2
        match self.instance:
            case GeneratorSpec():
                self.instance.check_horizon(self.horizon, "generator.")
            case tuple((MarketInstance() as market, MeanRewardTimeline() as timeline)):
                if timeline.horizon != self.horizon:
                    raise ConfigError(f"horizon {timeline.horizon} differs from the experiment's "
                                      f"{self.horizon}", "timeline")
                if (timeline.n_players, timeline.n_arms) != (market.n_players, market.n_arms):
                    raise ConfigError("shape disagrees with [market] sizes",
                                      "timeline.initial_means")
            case _:
                raise ConfigError("must be a GeneratorSpec or a (market, timeline) tuple, "
                                  f"got {self.instance!r:.80}", "instance")
        # A line break would end the trace header's ``# out =`` comment line.
        if not isinstance(self.out_dir, str) or "\n" in self.out_dir or "\r" in self.out_dir:
            raise ConfigError(f"must be one line of text, got {self.out_dir!r}", "out_dir")


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
    spec.check_horizon(horizon)
    n, k, t_max = spec.n_players, spec.n_arms, horizon

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
            t = round(max(2, min(t_max, f * t_max)))  # clamped first: f * t_max may be inf
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


def resolve_instance(config: ExperimentConfig) -> tuple[MarketInstance, MeanRewardTimeline]:
    """The config's market/timeline pair: the explicit one, or one generated
    for the config's horizon."""
    if isinstance(config.instance, GeneratorSpec):
        return generate_instance(config.instance, config.horizon)
    return config.instance


def _rows(text: str) -> list[str]:
    """Non-empty rows of a multi-row value: one per line or per ';' (the
    separator ``echo_config`` writes)."""
    return [row.strip() for row in text.replace(";", "\n").splitlines() if row.strip()]


def _number(text: str, kind: type = float):
    """One integer (``kind=int``) or finite float."""
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"expected {'an integer' if kind is int else 'a finite number'}, "
                     f"got {text!r}")


_integer = partial(_number, kind=int)


def _numbers(text: str, kind: type = float) -> tuple:
    """Numbers separated by commas or whitespace."""
    return tuple(_number(v, kind) for v in text.replace(",", " ").split())


def _matrix(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(_number(v) for v in row.split()) for row in _rows(text))


def _events(text: str) -> tuple[ChangeEvent, ...]:
    events = []
    for row in _rows(text):
        parts = row.split()
        if len(parts) != 4:
            raise ValueError(f"expected 'time player arm new_mean', got {row!r}")
        events.append(ChangeEvent(*map(_integer, parts[:3]), _number(parts[3])))
    return tuple(events)


def _joined(fmt: Callable[[Any], str], sep: str) -> Callable[[Any], str]:
    return lambda values: sep.join(fmt(v) for v in values)


class _Key(NamedTuple):
    """One config key: the field it fills, the converter of its stripped
    text (its ValueError is reported under the key), its default text
    (``_REQUIRED``, or None if it has none) and its echo formatter."""

    key: str
    field: str
    parse: Callable[[str], Any]
    default: Any
    echo: Callable[[Any], str] = str


_REQUIRED = object()
_matrix_text = _joined(_joined(repr, " "), "; ")

# The config grammar: the keys of each section, in echo order. [experiment]
# fills ExperimentConfig; the others fill the object of the same name.
_GRAMMAR = {
    "experiment": (
        _Key("version", "version", _integer, _REQUIRED),
        _Key("mode", "mode", str, "rcb"),
        _Key("horizon", "horizon", _integer, _REQUIRED),
        _Key("restart_period", "restart_period", lambda t: None if t == "auto" else _integer(t),
             "auto"),
        _Key("seeds", "seeds", partial(_numbers, kind=int), "0", _joined(str, ",")),
        _Key("baseline", "baseline", str, "pessimal"),
        _Key("noise", "noise", str, "gaussian"),
        # A '%' echoes as '%%', the escape that parses back to it.
        _Key("out", "out_dir", str, ".", lambda out: out.replace("%", "%%")),
    ),
    "generator": (
        _Key("seed", "seed", _integer, "0"),
        _Key("n_players", "n_players", _integer, _REQUIRED),
        _Key("n_arms", "n_arms", _integer, _REQUIRED),
        _Key("delta", "delta", _number, _REQUIRED, repr),
        _Key("changes", "n_changes", _integer, "0"),
        _Key("mu_bar", "mu_bar", _number, "1.0", repr),
        _Key("change_fractions", "change_fractions", _numbers, None, _joined(repr, ",")),
    ),
    "market": (
        _Key("n_players", "n_players", _integer, _REQUIRED),
        _Key("n_arms", "n_arms", _integer, _REQUIRED),
        _Key("arm_utilities", "arm_utilities", _matrix, _REQUIRED, _matrix_text),
    ),
    "timeline": (
        _Key("mu_bar", "mu_bar", _number, "1.0", repr),
        _Key("initial_means", "initial_means", _matrix, _REQUIRED, _matrix_text),
        _Key("events", "events", _events, "",
             _joined(lambda e: f"{e.time} {e.player} {e.arm} {e.new_mean!r}", "; ")),
    ),
}


def _read_section(parser: configparser.ConfigParser, name: str) -> dict[str, Any]:
    """The fields of section ``name``, parsed through its key table. An
    unknown section or key, a missing required key or a bad value raises
    ConfigError naming ``[name] key``."""
    if name not in _GRAMMAR:
        raise ConfigError(f"unknown section; expected one of {', '.join(_GRAMMAR)}", f"[{name}]")
    section, keys = parser[name], _GRAMMAR[name]
    for key in section:
        if key not in {row.key for row in keys}:
            raise ConfigError("unknown key; expected one of " + ", ".join(row.key for row in keys),
                              f"[{name}] {key}")
    fields = {}
    for row in keys:
        try:
            text = section.get(row.key, row.default)  # raises on a bad '%' interpolation
            if text is _REQUIRED:
                raise ValueError("required key is missing")
            fields[row.field] = None if text is None else row.parse(text.strip())
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(str(exc), f"[{name}] {row.key}") from None
    return fields


def _build(name: str, make: Callable, fields: dict[str, Any]):
    """``make(**fields)``, the object of section ``name``. An InputError
    becomes a ConfigError naming the ``[section] key`` of its field."""
    try:
        return make(**fields)
    except InputError as exc:
        section, field = f"{name}.{exc.field}".split(".")[-2:]  # "generator.n_changes"
        key = next((row.key for row in _GRAMMAR[section] if row.field == field), None)
        raise ConfigError(exc.message, f"[{section}] {key}" if key else f"[{section}]") from None


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

    sections = {name: _read_section(parser, name) for name in parser.sections()}
    if "experiment" not in sections:
        raise ConfigError("missing section", "[experiment]")
    experiment = sections.pop("experiment")
    # [experiment]'s errors come first, on a placeholder spec that fits any horizon.
    _build("experiment", ExperimentConfig, experiment | {"instance": GeneratorSpec(0, 1, 1, 1, 0)})
    if "generator" in sections and len(sections) > 1:
        raise ConfigError("use either [market]+[timeline] or [generator], not both", "[generator]")
    for name in () if "generator" in sections else ("market", "timeline"):
        if name not in sections:
            raise ConfigError("missing section (or use a [generator] section)", f"[{name}]")
    makers = {"generator": GeneratorSpec, "market": MarketInstance,
              "timeline": partial(MeanRewardTimeline, experiment["horizon"])}
    built = [_build(n, make, sections[n]) for n, make in makers.items() if n in sections]
    instance = tuple(built) if len(built) == 2 else built[0]  # (market, timeline) or a spec
    return _build("experiment", ExperimentConfig, experiment | {"instance": instance})


def echo_config(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Every resolved field (defaults included) as key/value pairs in grammar
    order, [experiment] keys bare and the others as ``section.key``. A None
    field echoes its key's default text, or nothing if the key has none."""
    sources = ({"generator": config.instance} if isinstance(config.instance, GeneratorSpec)
               else dict(zip(("market", "timeline"), config.instance)))
    pairs = []
    for name, source in {"experiment": config, **sources}.items():
        for row in _GRAMMAR[name]:
            value = getattr(source, row.field)
            text = row.default if value is None else row.echo(value)
            if text is not None:
                pairs.append((row.key if source is config else f"{name}.{row.key}", text))
    return pairs
