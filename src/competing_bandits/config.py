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
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, NamedTuple, Optional, Sequence

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
        if self.seed < 0:
            raise ConfigError(f"generator: seed must be non-negative, got {self.seed}")
        for name, value in (("delta", self.delta), ("mu_bar", self.mu_bar),
                            *(("change_fractions", f) for f in self.change_fractions or ())):
            if not math.isfinite(value):
                raise ConfigError(f"generator: {name} must be finite, got {value}")
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


def _rows(text: str) -> list[str]:
    """Non-empty rows of a multi-row value: one per line or per ';' (the
    separator ``echo_config`` writes)."""
    return [row.strip() for row in text.replace(";", "\n").splitlines() if row.strip()]


def _number(text: str, kind: type = float, minimum: Optional[int] = None):
    """One integer (``kind=int``) or finite float, at least ``minimum``."""
    try:
        value = kind(text)
        finite = kind is int or math.isfinite(value)
    except ValueError:
        finite = False
    if not finite:
        raise ValueError(f"expected {'an integer' if kind is int else 'a finite number'}, "
                         f"got {text!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"must be at least {minimum}, got {value}")
    return value


def _numbers(text: str, kind: type = float, minimum: Optional[int] = None) -> tuple:
    """Numbers separated by commas or whitespace."""
    return tuple(_number(v, kind, minimum) for v in text.replace(",", " ").split())


def _seeds(text: str) -> tuple[int, ...]:
    if not (seeds := _numbers(text, int, minimum=0)):
        raise ValueError("need at least one seed")
    return seeds


def _one_of(options: Sequence, value):
    if value not in options:
        raise ValueError(f"must be one of {options}, got {value!r}")
    return value


def _matrix(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(_number(v) for v in row.split()) for row in _rows(text))


def _events(text: str) -> tuple[ChangeEvent, ...]:
    events = []
    for row in _rows(text):
        parts = row.split()
        if len(parts) != 4:
            raise ValueError(f"expected 'time player arm new_mean', got {row!r}")
        events.append(ChangeEvent(*(_number(p, int) for p in parts[:3]), _number(parts[3])))
    return tuple(events)


def _joined(fmt: Callable[[Any], str], sep: str) -> Callable[[Any], str]:
    return lambda values: sep.join(fmt(v) for v in values)


class _Key(NamedTuple):
    """One config key: the field it fills, the parser of its stripped text
    (its ValueError is reported under the key), its default text
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
        _Key("version", "version", lambda t: _one_of([CONFIG_VERSION], _number(t, int)), _REQUIRED),
        _Key("mode", "mode", partial(_one_of, MODES), "rcb"),
        _Key("horizon", "horizon", partial(_number, kind=int, minimum=1), _REQUIRED),
        _Key("restart_period", "restart_period",
             lambda t: None if t == "auto" else _number(t, int, minimum=1), "auto"),
        _Key("seeds", "seeds", _seeds, "0", _joined(str, ",")),
        _Key("baseline", "baseline", partial(_one_of, BASELINES), "pessimal"),
        _Key("noise", "noise", partial(_one_of, NOISE_FAMILIES), "gaussian"),
        # A '%' echoes as '%%', the escape that parses back to it.
        _Key("out", "out_dir", str, ".", lambda out: out.replace("%", "%%")),
    ),
    "generator": (
        _Key("seed", "seed", partial(_number, kind=int, minimum=0), "0"),
        _Key("n_players", "n_players", partial(_number, kind=int), _REQUIRED),
        _Key("n_arms", "n_arms", partial(_number, kind=int), _REQUIRED),
        _Key("delta", "delta", _number, _REQUIRED, repr),
        _Key("changes", "n_changes", partial(_number, kind=int), "0"),
        _Key("mu_bar", "mu_bar", _number, "1.0", repr),
        _Key("change_fractions", "change_fractions", _numbers, None, _joined(repr, ",")),
    ),
    "market": (
        _Key("n_players", "n_players", partial(_number, kind=int), _REQUIRED),
        _Key("n_arms", "n_arms", partial(_number, kind=int), _REQUIRED),
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
        raise ConfigError(f"[{name}]: unknown section; expected one of {', '.join(_GRAMMAR)}")
    section, keys = parser[name], _GRAMMAR[name]
    for key in section:
        if key not in {row.key for row in keys}:
            raise ConfigError(f"[{name}] {key}: unknown key; expected one of "
                              + ", ".join(row.key for row in keys))
    fields = {}
    for row in keys:
        try:
            text = section.get(row.key, row.default)  # raises on a bad '%' interpolation
            if text is _REQUIRED:
                raise ValueError("required key is missing")
            fields[row.field] = None if text is None else row.parse(text.strip())
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(f"[{name}] {row.key}: {exc}") from None
    return fields


def check_mode(mode: str, horizon: int, restart_period: Optional[int], source: str = "") -> None:
    """Meta mode tunes the restart period itself and needs T >= 2; errors
    name ``source`` (the flag that set the mode) or the [experiment] key."""
    if mode == "meta" and restart_period is not None:
        raise ConfigError(f"{source or '[experiment] restart_period'}: meta mode tunes the "
                          f"restart_period itself; it must be 'auto', got {restart_period}")
    if mode == "meta" and horizon < 2:
        raise ConfigError(f"{source or '[experiment] horizon'}: meta mode needs a horizon "
                          f"of at least 2, got {horizon}")


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
        raise ConfigError("missing [experiment] section")
    fields = sections.pop("experiment")
    check_mode(fields["mode"], fields["horizon"], fields["restart_period"])
    if "generator" in sections:
        if len(sections) > 1:
            raise ConfigError("config must use either [market]+[timeline] or [generator], not both")
        return ExperimentConfig(**fields, generator=GeneratorSpec(**sections["generator"]))
    for name in ("market", "timeline"):
        if name not in sections:
            raise ConfigError(f"missing [{name}] section (or use a [generator] section)")
    if sections["market"]["n_arms"] < sections["market"]["n_players"]:
        raise ConfigError("market requires K >= N")
    try:
        market = MarketInstance(**sections["market"])
    except InputError as exc:
        raise ConfigError(f"[market] arm_utilities: {exc}")
    try:
        timeline = MeanRewardTimeline(fields["horizon"], **sections["timeline"])
    except InputError as exc:
        raise ConfigError(f"[timeline]: {exc}")
    if timeline.n_players != market.n_players or timeline.n_arms != market.n_arms:
        raise ConfigError("[timeline] initial_means shape disagrees with [market] sizes")
    return ExperimentConfig(**fields, market=market, timeline=timeline)


def echo_config(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Every resolved field (defaults included) as key/value pairs in grammar
    order, [experiment] keys bare and the others as ``section.key``. A None
    field echoes its key's default text, or nothing if the key has none."""
    pairs = []
    for name, keys in _GRAMMAR.items():
        source = getattr(config, name, config)  # [experiment] keys are fields of config
        for row in keys if source is not None else ():
            value = getattr(source, row.field)
            text = row.default if value is None else row.echo(value)
            if text is not None:
                pairs.append((row.key if source is config else f"{name}.{row.key}", text))
    return pairs
