"""Config parsing, instance generation, sweeps, and the CLI surface."""

import contextlib
import io
import math
import pathlib
import re
import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from competing_bandits import (
    ConfigError,
    InputError,
    MarketInstance,
    SimulationConfig,
    regret_report,
    run_rcb,
    total_changes,
    write_trace_csv,
)
from competing_bandits import cli
from competing_bandits.cli import main, oracle_check, run_sweep
from competing_bandits.config import (
    _GRAMMAR,
    _REQUIRED,
    MODES,
    ExperimentConfig,
    GeneratorSpec,
    echo_config,
    generate_instance,
    parse_config,
    resolve_instance,
)
from competing_bandits.engine import BASELINES
from competing_bandits.environment import NOISE_FAMILIES
from competing_bandits.meta import run_rcb_meta
from timeline_oracle import min_gap

EXPLICIT_CONFIG = """
[experiment]
version = 1
horizon = 60

[market]
n_players = 2
n_arms = 2
arm_utilities =
    2.0 1.0
    2.0 1.0

[timeline]
initial_means =
    0.9 0.4
    0.8 0.3
events =
    30 0 1 0.95
"""

GENERATOR_CONFIG = """
[experiment]
version = 1
horizon = 400
seeds = 0, 1
noise = none

[generator]
seed = 7
n_players = 2
n_arms = 3
delta = 0.1
changes = 3
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- parsing ---------------------------------------------------------------------

def test_parse_explicit_config_defaults(tmp_path):
    config = parse_config(write_config(tmp_path, EXPLICIT_CONFIG))
    assert config.version == 1
    assert config.mode == "rcb"
    assert config.horizon == 60
    assert config.restart_period is None  # auto
    assert config.seeds == (0,)
    assert config.baseline == "pessimal"
    assert config.noise == "gaussian"
    market, timeline = config.instance
    assert market.n_players == 2
    assert total_changes(timeline) == 1


def test_echo_reports_every_default(tmp_path):
    config = parse_config(write_config(tmp_path, EXPLICIT_CONFIG))
    echoed = dict(echo_config(config))
    assert echoed["restart_period"] == "auto"
    assert echoed["noise"] == "gaussian"
    assert echoed["baseline"] == "pessimal"
    assert echoed["seeds"] == "0"
    assert "timeline.events" in echoed


def test_parse_generator_config(tmp_path):
    config = parse_config(write_config(tmp_path, GENERATOR_CONFIG))
    assert config.instance == GeneratorSpec(
        seed=7, n_players=2, n_arms=3, delta=0.1, n_changes=3
    )
    assert config.seeds == (0, 1)
    assert config.noise == "none"


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ("version = 1\nhorizon = 60", "version = 1", "horizon"),  # missing key
        ("version = 1", "version = 2", "version"),
        ("horizon = 60", "horizon = 0", "horizon"),
        ("horizon = 60", "horizon = soon", "integer"),
        ("version = 1", "version = 1\nmode = oracle-check", "mode"),
        ("version = 1", "version = 1\nseeds = -1", "[experiment] seeds"),
        ("version = 1", "version = 1\nseeds = 0, 3, -2", "[experiment] seeds"),
        ("version = 1", "version = 1\nseeds = 3, 3", "[experiment] seeds"),
        ("version = 1", "version = 1\nmode = meta\nrestart_period = 10",
         "[experiment] restart_period"),
        ("horizon = 60", "horizon = 1\nmode = meta", "[experiment] horizon"),
        ("version = 1", "version = 1\nout = results%", "[experiment] out"),
    ],
)
def test_parse_rejects_bad_experiment_section(tmp_path, old, new, fragment):
    text = EXPLICIT_CONFIG.replace(old, new)
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, text))
    assert fragment in str(err.value)


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.ini")


def test_parse_rejects_k_below_n(tmp_path):
    text = EXPLICIT_CONFIG.replace("n_players = 2", "n_players = 3")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, text))
    assert "K >= N" in str(err.value)


def test_parse_rejects_duplicate_means(tmp_path):
    text = EXPLICIT_CONFIG.replace("0.9 0.4", "0.4 0.4")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, text))
    assert "distinct" in str(err.value)


def test_parse_rejects_both_instance_styles(tmp_path):
    text = EXPLICIT_CONFIG + "\n[generator]\nn_players = 2\nn_arms = 2\ndelta = 0.1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, text))
    assert "not both" in str(err.value)


def test_parse_rejects_negative_generator_seed(tmp_path):
    text = GENERATOR_CONFIG.replace("seed = 7", "seed = -3")
    with pytest.raises(ConfigError, match=r"\[generator\] seed"):
        parse_config(write_config(tmp_path, text))


@pytest.mark.parametrize("text, error", [
    (EXPLICIT_CONFIG.replace("horizon = 60", "horizon = 60\nrestart_perod = 10"),
     "[experiment] restart_perod: unknown key"),
    (GENERATOR_CONFIG.replace("changes = 3", "chnges = 3"), "[generator] chnges: unknown key"),
    (EXPLICIT_CONFIG.replace("n_players = 2", "n_player = 2"), "[market] n_player: unknown key"),
    (EXPLICIT_CONFIG.replace("events =", "event ="), "[timeline] event: unknown key"),
    (EXPLICIT_CONFIG + "\n[notes]\nauthor = me\n", "[notes]: unknown section"),
    (GENERATOR_CONFIG.replace("delta = 0.1", "delta = nan"), "[generator] delta: expected a finite"),
    (GENERATOR_CONFIG + "mu_bar = inf\n", "[generator] mu_bar: expected a finite"),
    (GENERATOR_CONFIG + "change_fractions = 0.2, nan, 0.8\n",
     "[generator] change_fractions: expected a finite"),
    (EXPLICIT_CONFIG.replace("    2.0 1.0\n\n", "    inf 1.0\n\n"),
     "[market] arm_utilities: expected a finite"),
    (EXPLICIT_CONFIG.replace("0.8 0.3", "0.8 nan"), "[timeline] initial_means: expected a finite"),
    (EXPLICIT_CONFIG.replace("30 0 1 0.95", "30 0 1 nan"), "[timeline] events: expected a finite"),
    (EXPLICIT_CONFIG.replace("[timeline]", "[timeline]\nmu_bar = inf"),
     "[timeline] mu_bar: expected a finite"),
    (EXPLICIT_CONFIG.replace("n_players = 2", "n_players = 0"), "[market] n_players: must be"),
    (EXPLICIT_CONFIG.replace("n_players = 2", "n_players = 3"),
     "[market] n_arms: market requires K >= N"),
    (GENERATOR_CONFIG.replace("n_arms = 3", "n_arms = 1"),
     "[generator] n_arms: market requires K >= N"),
    (EXPLICIT_CONFIG.replace("0.9 0.4", "0.2 1.5"),
     "[timeline] initial_means: player 0: mean 1.5 outside [0, 1.0]"),
    (EXPLICIT_CONFIG.replace("0.9 0.4", "0.4 0.4"),
     "[timeline] initial_means: player 0: duplicate arm means"),
    (EXPLICIT_CONFIG.replace("30 0 1 0.95", "90 0 1 0.95"),
     "[timeline] events: event time 90 outside [2, 60]"),
    (EXPLICIT_CONFIG.replace("30 0 1 0.95", "30 0 5 0.95"),
     "[timeline] events: event at t=30 has out-of-range indices"),
    (EXPLICIT_CONFIG.replace("30 0 1 0.95", "30 0 1 0.4"),
     "[timeline] events: event at t=30 for player 0, arm 1 does not change the mean"),
    (EXPLICIT_CONFIG.replace("30 0 1 0.95", "30 0 1 1.95"),
     "[timeline] events: event at t=30 sets mean 1.95 outside [0, 1.0]"),
    (EXPLICIT_CONFIG.replace("30 0 1 0.95", "30 0 1 1.95; 30 0 1 0.5"),
     "[timeline] events: event at t=30 sets mean 1.95 outside [0, 1.0]"),
    (EXPLICIT_CONFIG.replace("30 0 1 0.95", "30 0 1 0.5; 30 0 1 0.4"),
     "[timeline] events: second event at t=30 for player 0, arm 1"),
    (EXPLICIT_CONFIG.replace("[timeline]", "[timeline]\nmu_bar = 0"),
     "[timeline] mu_bar: must be positive"),
    (GENERATOR_CONFIG.replace("n_players = 2", "n_players = 0"),
     "[generator] n_players: must be positive"),
    (GENERATOR_CONFIG.replace("delta = 0.1", "delta = 0.6"),
     "[generator] delta: floor infeasible"),
    (GENERATOR_CONFIG.replace("changes = 3", "changes = -1"),
     "[generator] changes: cannot be negative"),
    (GENERATOR_CONFIG + "change_fractions = 0.5\n",
     "[generator] change_fractions: length must equal changes"),
    (GENERATOR_CONFIG.replace("horizon = 400", "horizon = 3"),
     "[generator] changes: cannot place 3 changes at distinct times in [2, 3]"),
    (GENERATOR_CONFIG.replace("horizon = 400", "horizon = 1") + "change_fractions = 0, .5, 1\n",
     "[generator] change_fractions: cannot place 3 changes at distinct times in [2, 1]"),
], ids=["experiment_key", "generator_key", "market_key", "timeline_key", "section",
        "delta", "generator_mu_bar", "change_fractions", "arm_utilities", "initial_means",
        "events", "timeline_mu_bar", "market_n_players", "market_k_below_n",
        "generator_k_below_n", "initial_mean_range", "initial_means_duplicate",
        "event_time", "event_indices", "event_no_op", "event_mean_range",
        "event_mean_overwritten", "event_same_cell", "timeline_mu_bar_zero",
        "generator_n_players", "infeasible_delta", "negative_changes",
        "change_fractions_length", "changes_past_horizon", "change_fractions_past_horizon"])
def test_validate_rejects_unknown_names_and_non_finite_numbers(tmp_path, capsys, text, error):
    """A misspelt key, an extra section, a nan/inf number or a value that
    the section's object rejects fails validation, naming the section and
    key, instead of running with a default or crashing later."""
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert error in str(err.value)
    assert main(["validate", "--config", str(path)]) == 1
    assert error in capsys.readouterr().err


def ini_from_echo(pairs):
    """Config text holding echoed pairs: plain keys in [experiment],
    ``<section>.<key>`` ones (generator, market, timeline) in [<section>]."""
    sections = {"experiment": []}
    for key, value in pairs:
        section, _, name = key.rpartition(".")
        sections.setdefault(section or "experiment", []).append(f"{name} = {value}\n")
    return "".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())


@st.composite
def generator_configs(draw):
    """Valid ExperimentConfigs with a [generator] section; meta mode gets
    an auto restart period and a horizon of at least 2, and the horizon has
    a distinct round in [2, T] for each change."""
    n = draw(st.integers(1, 5), label="N")
    k = draw(st.integers(n, 8), label="K")
    mu_bar = draw(st.floats(0.1, 100.0), label="mu_bar")
    n_changes = draw(st.integers(0, 5), label="changes")
    fractions = draw(st.none() | st.tuples(*[st.floats(0.0, 1.0)] * n_changes),
                     label="change_fractions")
    generator = GeneratorSpec(
        seed=draw(st.integers(0, 2**32 - 1), label="generator seed"),
        n_players=n, n_arms=k, mu_bar=mu_bar, n_changes=n_changes, change_fractions=fractions,
        delta=draw(st.floats(0.01, 0.99), label="delta fraction") * mu_bar / k,
    )
    mode = draw(st.sampled_from(MODES), label="mode")
    return ExperimentConfig(
        version=1,
        mode=mode,
        horizon=draw(st.integers(max(2 if mode == "meta" else 1, n_changes + 1), 10**6),
                     label="T"),
        restart_period=None if mode == "meta" else draw(st.none() | st.integers(1, 10**6),
                                                        label="H"),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4,
                                  unique=True), label="seeds")),
        baseline=draw(st.sampled_from(BASELINES), label="baseline"),
        noise=draw(st.sampled_from(NOISE_FAMILIES), label="noise"),
        instance=generator,
        out_dir=draw(st.text(string.ascii_letters + string.digits + "_-./", min_size=1,
                             max_size=12), label="out"),
    )


@settings(max_examples=60, deadline=None)
@given(generator_configs())
def test_echoed_generator_config_parses_back(tmp_path_factory, config):
    """The echo of a [generator] config, written back as a config file,
    parses to the same ExperimentConfig."""
    path = tmp_path_factory.mktemp("echo") / "echo.ini"
    path.write_text(ini_from_echo(echo_config(config)))
    assert parse_config(path) == config


def test_echo_escapes_percent_and_parses_back(tmp_path):
    """``out = a%%b`` holds ``a%b``; its echo must escape the '%' again, or
    the echo written back as a config fails to parse."""
    config = parse_config(write_config(tmp_path, GENERATOR_CONFIG.replace(
        "noise = none", "noise = none\nout = a%%b")))
    assert config.out_dir == "a%b"
    assert dict(echo_config(config))["out"] == "a%%b"
    path = write_config(tmp_path, ini_from_echo(echo_config(config)), name="echo.ini")
    assert parse_config(path) == config


WIDE_EXPLICIT_CONFIG = """
[experiment]
version = 1
horizon = 90
mode = meta
noise = uniform

[market]
n_players = 2
n_arms = 3
arm_utilities =
    2.0 1.0
    1.0 2.0
    0.5 3.0

[timeline]
mu_bar = 2.0
initial_means =
    0.9 0.4 1.7
    0.8 0.3 0.1
events =
    30 0 1 0.95
    61 1 2 1.25
"""


@pytest.mark.parametrize("text", [EXPLICIT_CONFIG, WIDE_EXPLICIT_CONFIG], ids=["2x2", "2x3_meta"])
def test_echoed_explicit_config_parses_back(tmp_path, text):
    """The echo of a [market]+[timeline] config, written back as a config
    file, parses to a config with the same echo (timelines have no __eq__)."""
    echo = echo_config(parse_config(write_config(tmp_path, text)))
    path = write_config(tmp_path, ini_from_echo(echo), name="echo.ini")
    assert echo_config(parse_config(path)) == echo


# --- grammar-driven fuzzing ----------------------------------------------------------
#
# Config texts are drawn key by key from the rows of ``config._GRAMMAR``. At
# most one value per config is an edge case (a size below 1 or K < N, a
# horizon of 0, a mean outside [0, mu_bar], nan, inf, a lone '%' in ``out``,
# a missing required key); the others are values their key accepts, so many
# configs validate. Half the time the horizon is drawn near the change
# count, where the changes stop fitting in rounds [2, T]. Most edges hold a
# value that no valid config has; a config carrying one must be rejected.

EDGES = ("T", "N", "K", "mu_bar", "changes", "missing", "version", "mode", "restart_period",
         "seeds", "baseline", "noise", "out", "seed", "delta", "change_fractions",
         "arm_utilities", "initial_means", "events")


def numbers(values, sep=" "):
    """Text of a number, or of a list of numbers joined by ``sep``."""
    def text(v):
        return repr(v) if isinstance(v, float) else str(v)

    return values.map(lambda v: sep.join(map(text, v)) if isinstance(v, list) else text(v))


@st.composite
def config_texts(draw):
    """(text, must_fail): a config file, [experiment] plus either [generator]
    or [market]+[timeline], an optional key left out one time in three; and
    whether its edge value is written where every config holding it is
    invalid."""
    edge = draw(st.none() | st.sampled_from(EDGES), label="edge")
    form = draw(st.sampled_from([("generator",), ("market", "timeline")]), label="form")
    keys = [(section, row) for section in ("experiment",) + form for row in _GRAMMAR[section]]
    written = {(section, row.key) for section, row in keys
               if row.default is _REQUIRED or draw(st.integers(0, 2), label=row.key) > 0}
    if edge == "missing":
        written.remove(draw(st.sampled_from(sorted(
            (section, row.key) for section, row in keys if row.default is _REQUIRED))))

    def pick(name, valid, bad):
        return draw(bad if name == edge else valid, label=name)

    changes = pick("changes", st.integers(0, 6), st.just(-1))
    horizon = pick("T", st.integers(1, 60) | st.integers(max(changes - 1, 1), changes + 2),
                   st.integers(-1, 0))
    n = pick("N", st.integers(1, 4), st.just(0))
    k = pick("K", st.integers(n, 5), st.just(n - 1))
    mu_bar = pick("mu_bar", st.floats(0.01, 100.0),
                  st.sampled_from([0.0, -1.0, math.inf, math.nan]))
    mu = mu_bar if 0 < mu_bar < math.inf else 1.0
    sep = draw(st.sampled_from(["; ", ";", "\n    "]), label="row separator")

    def matrix(name, rows, row, bad_row):
        """``rows`` rows; as the edge, one of them is dropped or made bad."""
        lines = [draw(row) for _ in range(rows)]
        if name == edge and lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = draw(st.lists(bad_row, max_size=1))
        return sep.join(" ".join(map(repr, map(float, line))) for line in lines)

    events = [[draw(st.integers(2, max(horizon, 2))), draw(st.integers(0, max(n - 1, 0))),
               draw(st.integers(0, max(k - 1, 0))), draw(st.floats(0, mu))]
              for _ in range(draw(st.integers(0, 3)))]
    if edge == "events":  # a time, player, arm or mean just out of range, or no mean
        timeline_mu = mu if ("timeline", "mu_bar") in written else 1.0
        field, bad = draw(st.sampled_from([(0, 1), (0, horizon + 1), (1, -1), (1, n), (2, -1),
                                           (2, k), (3, 1.5 * timeline_mu), (3, None)]))
        event = draw(st.sampled_from(events)) if events else [2, 0, 0, mu / 2]
        # Anywhere in the list: before a good event on the same cell and round too.
        events.insert(draw(st.integers(0, len(events))),
                      event[:field] + ([bad] if bad is not None else []) + event[field + 1:])
    means_row = st.lists(st.floats(0, mu), min_size=k, max_size=k, unique=True)
    bad_means_row = st.lists(st.floats(-0.1, 1.1 * mu), min_size=k, max_size=k + 1)
    values = {
        "experiment": {
            "version": pick("version", st.just("1"), st.sampled_from(["2", "1.0"])),
            "mode": pick("mode", st.sampled_from(MODES), st.just("oracle")),
            "horizon": str(horizon),
            "restart_period": pick("restart_period",
                                   st.just("auto") | numbers(st.integers(1, horizon + 2)),
                                   st.sampled_from(["0", "-1"])),
            "seeds": pick("seeds", numbers(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                                                    max_size=3, unique=True), ", "),
                          st.sampled_from(["", "-1", "3, 3"])),
            "baseline": pick("baseline", st.sampled_from(BASELINES), st.just("best")),
            "noise": pick("noise", st.sampled_from(NOISE_FAMILIES), st.just("cauchy")),
            "out": pick("out", st.sampled_from(["out", "a%%b", "%%"]), st.just("a%b")),
        },
        "generator": {
            "seed": pick("seed", numbers(st.integers(0, 2**32)), st.just("-1")),
            "n_players": str(n),
            "n_arms": str(k),
            "delta": repr(mu_bar / max(k, 1) * pick("delta", st.floats(0.01, 1.0),
                                                     st.sampled_from([0.0, -0.05, 1.05]))),
            "changes": str(changes),
            "mu_bar": repr(mu_bar),
            "change_fractions": pick(
                "change_fractions",
                numbers(st.lists(st.floats(0, 1), min_size=max(changes, 0),
                                 max_size=max(changes, 0)), ", "),
                numbers(st.lists(st.floats(), min_size=max(changes, 0), max_size=changes + 1),
                        ", ")),
        },
        "market": {
            "n_players": str(n),
            "n_arms": str(k),
            "arm_utilities": matrix("arm_utilities", k, st.permutations(range(n)),
                                    st.lists(st.integers(0, 1), min_size=n, max_size=n + 1)),
        },
        "timeline": {
            "mu_bar": repr(mu_bar),
            "initial_means": matrix("initial_means", n, means_row, bad_means_row),
            "events": sep.join(" ".join(map(str, event)) for event in events),
        },
    }
    text = []
    for section in ("experiment",) + form:
        text.append(f"[{section}]\n")
        text.extend(f"{row.key} = {values[section][row.key]}\n"
                    for row in _GRAMMAR[section] if (section, row.key) in written)
    # The key that carries each edge whose value no valid config holds. A bad
    # [generator] mu_bar makes delta bad; a bad delta is scaled to the drawn
    # mu_bar, so it is infeasible only where that mu_bar is written. The other
    # edges can yield valid configs.
    carrier = {"T": ("experiment", "horizon"), "N": (form[0], "n_players"),
               "K": (form[0], "n_arms"), "changes": ("generator", "changes"),
               "seed": ("generator", "seed"), "delta": ("generator", "mu_bar"),
               "mu_bar": ("generator", "delta") if form == ("generator",)
               else ("timeline", "mu_bar"),
               "events": ("timeline", "events"),
               **{key: ("experiment", key) for key in ("version", "mode", "restart_period",
                                                       "seeds", "baseline", "noise", "out")}}
    return "".join(text), edge == "missing" or carrier.get(edge) in written


@settings(max_examples=150, deadline=None)
@given(config_texts())
def test_grammar_configs_run_or_fail_naming_a_key(tmp_path_factory, drawn):
    """Every config that validates runs (T <= 60) to exit 0 and echoes back
    to itself; every config that does not raises ConfigError naming the
    ``[section] key`` at fault, and no other exception. A config holding a
    value no valid config has does not validate."""
    text, must_fail = drawn
    workdir = tmp_path_factory.mktemp("fuzz")
    path = write_config(workdir, text)
    try:
        config = parse_config(path)
    except ConfigError as exc:
        named = re.fullmatch(r"\[(\w+)\] (\w+)", exc.field or "")
        assert named and named[2] in [row.key for row in _GRAMMAR[named[1]]], str(exc)
        return
    assert not must_fail, "accepted a config holding an invalid value"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(workdir / "out")])
    assert code == 0, err.getvalue()
    echoed = parse_config(write_config(workdir, ini_from_echo(echo_config(config)), "echo.ini"))
    if isinstance(config.instance, GeneratorSpec):
        assert echoed == config
    else:  # timelines have no __eq__
        assert echo_config(echoed) == echo_config(config)


# --- library-boundary fuzzing ----------------------------------------------------------
#
# ExperimentConfigs are built directly, as a library caller builds them, in
# either instance form: a GeneratorSpec, or the (market, timeline) tuple it
# generates. Integers come as Python or numpy integers. At most one value is
# an edge that no valid config holds (a float or a bool in an integer field,
# a value below its minimum, an unknown option name, a line break in out_dir,
# an instance in neither form or in both, changes or a timeline that do not
# fit the horizon, a market of another size), keyed by the field its error
# must name.

LIBRARY_EDGES = {
    "version": [7, 0, 1.0, True],
    "mode": ["bogus", "oracle-check"],
    "horizon": [0, -1, 30.0, True],
    "restart_period": [0, -5, 2.5, True],
    "seeds": [(), (-1,), (3, 3), (1.5,), (np.int64(-2),), (True,), (0, False)],
    "baseline": ["best"],
    "noise": ["pink", "cauchy"],
    "out_dir": ["a\nb", "a\rb", pathlib.PurePath("out")],
    # GeneratorSpec fields
    "seed": [-1, 2.0, True],
    "n_players": [0, True],
    "n_changes": [-1, False],
    "delta": [0.0, -0.1, math.nan],
    # Instance forms, named as in library_config
    "instance": ["none", "market alone", "reversed pair", "list pair", "spec and pair"],
    # Rules spanning the instance and the experiment
    "generator.n_changes": [],  # as many changes as rounds
    "timeline": [],  # an explicit timeline one round longer than the horizon
    "timeline.initial_means": [],  # an explicit market one player and arm larger
}


def integers(lo, hi):
    """Python or numpy integers in [lo, hi]."""
    return st.integers(lo, hi) | st.integers(lo, hi).map(np.int64)


@st.composite
def library_configs(draw):
    """(fields, spec, form, edge, h): the ExperimentConfig fields other than
    the instance, the GeneratorSpec fields, the instance form (an edge form
    at the instance edge), the edge (or None) and a restart period to sweep."""
    form = draw(st.sampled_from(["generator", "explicit"]), label="form")
    excluded = ("timeline", "timeline.initial_means") if form == "generator" else (
        "generator.n_changes",)
    edge = draw(st.none() | st.sampled_from([e for e in LIBRARY_EDGES if e not in excluded]),
                label="edge")
    mode = draw(st.sampled_from(MODES), label="mode")
    n = draw(st.integers(1, 3), label="N")
    k = draw(st.integers(n, 4), label="K")
    n_changes = draw(st.integers(0, 3), label="changes")
    mu_bar = draw(st.floats(0.5, 10.0), label="mu_bar")
    spec = dict(
        seed=draw(integers(0, 2**32 - 1), label="generator seed"), n_players=n, n_arms=k,
        # Below mu_bar / (2 (K - 1)) a free value always exists for a change.
        delta=draw(st.floats(0.01, 0.45), label="delta fraction") * mu_bar / k,
        n_changes=n_changes, mu_bar=mu_bar,
        change_fractions=draw(st.none() | st.tuples(*[st.floats(0, 1)] * n_changes),
                              label="change_fractions"))
    fields = dict(
        version=draw(st.sampled_from([1, np.int64(1)]), label="version"), mode=mode,
        horizon=draw(integers(max(n_changes + 1, 2 if mode == "meta" else 1), 60), label="T"),
        restart_period=None if mode == "meta" else draw(st.none() | integers(1, 70), label="H"),
        seeds=tuple(draw(st.lists(integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
                         label="seeds")),
        baseline=draw(st.sampled_from(BASELINES), label="baseline"),
        noise=draw(st.sampled_from(NOISE_FAMILIES), label="noise"),
        out_dir=draw(st.text("ab_-./%", min_size=1, max_size=8), label="out_dir"))
    if edge in fields:
        fields[edge] = draw(st.sampled_from(LIBRARY_EDGES[edge]), label="edge value")
    elif edge in spec:
        spec[edge] = draw(st.sampled_from(LIBRARY_EDGES[edge]), label="edge value")
    elif edge == "instance":
        form = draw(st.sampled_from(LIBRARY_EDGES[edge]), label="edge value")
    elif edge == "generator.n_changes":
        spec.update(n_changes=fields["horizon"], change_fractions=None)
    return fields, spec, form, edge, draw(integers(1, 70), label="swept H")


def library_config(fields, spec, form, edge):
    """The ExperimentConfig a library caller builds from the drawn values."""
    generator = GeneratorSpec(**spec)
    if form == "generator":
        return ExperimentConfig(**fields, instance=generator)
    horizon = 10 if edge == "horizon" else fields["horizon"] + (edge == "timeline")
    market, timeline = generate_instance(generator, horizon)
    if edge == "timeline.initial_means":
        n, k = market.n_players + 1, market.n_arms + 1
        market = MarketInstance(n, k, ((*map(float, range(n)),),) * k)
    instance = {"explicit": (market, timeline), "none": None, "market alone": (market,),
                "reversed pair": (timeline, market), "list pair": [market, timeline],
                "spec and pair": (generator, market, timeline)}[form]
    return ExperimentConfig(**fields, instance=instance)


def parent_fault(edge, form="generator", **values):
    """A library config that the single validation layer must reject
    naming ``edge``: a 2x3 generator with one change at T = 50 in instance
    form ``form``, one value replaced."""
    fields = dict(version=1, mode="rcb", horizon=50, restart_period=None, seeds=(0,),
                  baseline="pessimal", noise="gaussian") | values
    spec = dict(seed=3, n_players=2, n_arms=3, delta=0.1, n_changes=1)
    return fields, spec, form, edge, 1


@settings(max_examples=100, deadline=None)
@given(library_configs())
@example(parent_fault("horizon", horizon=0))  # the point `rcb sweep --grid T=0` builds
@example(parent_fault("restart_period", restart_period=0))  # that of `--grid H=0`
@example(parent_fault("noise", noise="pink"))
@example(parent_fault("mode", mode="bogus"))
@example(parent_fault("version", version=7))
@example(parent_fault("out_dir", out_dir="a\nb"))
@example(parent_fault("instance", form="none"))  # no instance at all
@example(parent_fault("instance", form="spec and pair"))  # both instance forms
@example(parent_fault("instance", form="list pair"))  # a list would make the config unhashable
@example(parent_fault("version", version=True, seeds=(True,)))  # booleans are not integers
def test_library_configs_run_or_fail_naming_their_field(tmp_path_factory, drawn):
    """An ExperimentConfig built directly either fails at construction with
    an InputError naming the field at fault, or echoes to text that
    ``parse_config`` reads back and runs (T <= 60): the path of ``rcb run``
    from the resolved instance to the trace CSVs, and a one-point H sweep. A
    config holding an edge value does not construct."""
    fields, spec, form, edge, h = drawn
    try:
        config = library_config(fields, spec, form, edge)
    except InputError as exc:
        assert edge is not None and exc.field == edge, str(exc)
        return
    assert edge is None, f"accepted a config with a bad {edge}"
    out = tmp_path_factory.mktemp("library")
    echo = echo_config(config)
    echoed = parse_config(write_config(out, ini_from_echo(echo), "echo.ini"))
    if form == "generator":
        assert echoed == config
    else:  # timelines have no __eq__
        assert echo_config(echoed) == echo
    market, timeline = resolve_instance(config)
    runner = run_rcb_meta if config.mode == "meta" else run_rcb
    for seed in config.seeds:
        trace = runner(cli._sim_config(config, seed), market, timeline)
        write_trace_csv(trace, out / f"trace_seed{seed}.csv", extra_metadata=echo)
    if config.mode == "rcb":
        assert run_sweep(config, "H", [h])[0].restart_period == min(h, config.horizon)


def test_generator_spec_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        GeneratorSpec(seed=-3, n_players=2, n_arms=2, delta=0.1, n_changes=0)


@pytest.mark.parametrize("field, values", [
    ("delta", {"delta": math.nan}),
    ("delta", {"delta": math.inf}),
    ("mu_bar", {"mu_bar": math.nan}),
    ("mu_bar", {"mu_bar": math.inf}),
    ("change_fractions", {"n_changes": 2, "change_fractions": (0.5, math.nan)}),
    ("seed", {"seed": 1.0}),
    ("n_players", {"n_players": 2.0}),
    ("n_arms", {"n_arms": 2.0}),
    ("n_changes", {"n_changes": 0.0}),
    ("seed", {"seed": True, "n_players": True, "n_arms": True}),
])
def test_generator_spec_rejects_non_finite_numbers(field, values):
    """Non-finite floats, and floats or booleans in integer fields, fail
    naming the field."""
    message = f"{field}: (must be finite|expected an integer)"
    with pytest.raises(ConfigError, match=message) as err:
        GeneratorSpec(**{"seed": 0, "n_players": 2, "n_arms": 2, "delta": 0.1,
                         "n_changes": 0, **values})
    assert err.value.field == field


def test_parse_rejects_infeasible_delta(tmp_path):
    text = GENERATOR_CONFIG.replace("delta = 0.1", "delta = 0.6")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, text))
    assert "delta" in str(err.value)


# --- instance generation ------------------------------------------------------------

def test_generator_honours_change_count_and_gap():
    spec = GeneratorSpec(seed=0, n_players=3, n_arms=3, delta=0.2, n_changes=8)
    market, timeline = generate_instance(spec, 500)
    assert market.n_players == 3 and market.n_arms == 3
    assert timeline.horizon == 500
    assert total_changes(timeline) == 8
    assert min_gap(timeline) >= 0.2 - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generated_instances_keep_a_positive_gap(data):
    """Every segment of every generated timeline keeps its arms apart:
    min_gap > 0, and at least the delta floor up to rounding."""
    n = data.draw(st.integers(1, 4), label="N")
    k = data.draw(st.integers(n, 6), label="K")
    mu_bar = data.draw(st.floats(0.5, 20.0), label="mu_bar")
    # Below mu_bar / (2 (K - 1)) a free value always exists for a change.
    delta = data.draw(st.floats(0.01, 0.45), label="delta fraction") * mu_bar / k
    horizon = data.draw(st.integers(1, 300), label="T")
    spec = GeneratorSpec(seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                         n_players=n, n_arms=k, delta=delta, mu_bar=mu_bar,
                         n_changes=data.draw(st.integers(0, min(12, horizon - 1)), label="L"))
    _, timeline = generate_instance(spec, horizon)
    assert min_gap(timeline) > 0
    assert min_gap(timeline) >= delta - 1e-9 * mu_bar


def test_generator_stationary():
    spec = GeneratorSpec(seed=1, n_players=2, n_arms=4, delta=0.05, n_changes=0)
    _, timeline = generate_instance(spec, 100)
    assert total_changes(timeline) == 0
    assert len(timeline.segments()) == 1


def test_generator_deterministic_per_seed():
    spec = GeneratorSpec(seed=5, n_players=2, n_arms=2, delta=0.1, n_changes=2)
    a = generate_instance(spec, 200)
    b = generate_instance(spec, 200)
    assert a[0].arm_utilities == b[0].arm_utilities
    assert a[1].initial_means == b[1].initial_means
    assert a[1].events == b[1].events


def test_generator_change_fractions_scale_with_horizon():
    for horizon in (100, 1_000):
        spec = GeneratorSpec(
            seed=2, n_players=2, n_arms=2, delta=0.1, n_changes=2,
            change_fractions=(0.25, 0.75),
        )
        _, timeline = generate_instance(spec, horizon)
        assert [e.time for e in timeline.events] == [horizon // 4, 3 * horizon // 4]


def test_generator_change_fractions_fit_the_horizon():
    # 0.99 and 1.0 both round to T = 10; the second moves down to 9.
    spec = GeneratorSpec(seed=0, n_players=2, n_arms=2, delta=0.1, n_changes=2,
                         change_fractions=(0.99, 1.0))
    _, timeline = generate_instance(spec, 10)
    assert [e.time for e in timeline.events] == [9, 10]
    # Fractions far outside [0, 1] clamp to the ends without overflowing.
    spec = replace(spec, change_fractions=(-1e308, 1e308))
    _, timeline = generate_instance(spec, 10)
    assert [e.time for e in timeline.events] == [2, 10]
    # Three changes cannot fit in rounds [2, 3].
    spec = GeneratorSpec(seed=0, n_players=2, n_arms=2, delta=0.1, n_changes=3,
                         change_fractions=(0.2, 0.5, 0.9))
    with pytest.raises(InputError, match="change_fractions"):
        generate_instance(spec, 3)


def test_generator_rejects_infeasible_spec():
    with pytest.raises(ConfigError):
        GeneratorSpec(seed=0, n_players=2, n_arms=3, delta=0.4, n_changes=0)
    with pytest.raises(ConfigError):
        GeneratorSpec(seed=0, n_players=3, n_arms=2, delta=0.1, n_changes=0)


def test_resolve_explicit_instance_cannot_sweep(tmp_path):
    config = parse_config(write_config(tmp_path, EXPLICIT_CONFIG))
    with pytest.raises(ConfigError):
        run_sweep(config, "T", [120])


# --- sweeps ------------------------------------------------------------------------

def test_h_sweep_matches_direct_run(tmp_path):
    config = parse_config(write_config(tmp_path, EXPLICIT_CONFIG))
    rows = run_sweep(config, "H", [15])
    market, timeline = resolve_instance(config)
    trace = run_rcb(
        SimulationConfig(60, restart_period=15, seed=0), market, timeline
    )
    expected = float(regret_report(trace, "pessimal").final().max())
    assert rows[0].grid_value == 15
    assert rows[0].restart_period == 15
    assert rows[0].mean_regret == pytest.approx(expected)
    assert rows[0].std_regret == 0.0


def test_l_sweep_reports_tuned_periods(tmp_path):
    text = GENERATOR_CONFIG.replace("horizon = 400", "horizon = 10000")
    config = parse_config(write_config(tmp_path, text))
    rows = run_sweep(config, "L", [1, 4, 16])
    assert [r.restart_period for r in rows] == [100, 50, 25]


def test_t_sweep_changes_horizon(tmp_path):
    config = parse_config(write_config(tmp_path, GENERATOR_CONFIG))
    rows = run_sweep(config, "T", [200, 400])
    assert [r.grid_value for r in rows] == [200, 400]
    assert all(np.isfinite(r.mean_regret) for r in rows)


@pytest.mark.parametrize("grid, named", [
    ("H=10,0", "--grid H"),
    ("T=60,1", "--grid T=1"),
    ("T=60,0", "--grid T"),
    ("T=60,0", "--grid T=0: horizon"),
    ("H=10,0", "--grid H=0: restart_period"),
    ("L=1,-1", "--grid L"),
    ("L=1,60", "--grid L=60"),
])
def test_cli_sweep_rejects_bad_grid_value_before_running(tmp_path, capsys, monkeypatch,
                                                         grid, named):
    """A grid value that cannot run fails before the first point runs,
    naming the grid key and the value, and creates no output directory."""
    path = write_config(tmp_path, """
[experiment]
version = 1
horizon = 50

[generator]
seed = 3
n_players = 2
n_arms = 3
delta = 0.1
changes = 1
""")
    runs = []
    monkeypatch.setattr(cli, "run_rcb_seeds", lambda *args: runs.append(args))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--grid", grid, "--out", str(out_dir)]) == 1
    assert named in capsys.readouterr().err
    assert runs == []
    assert not out_dir.exists()


@pytest.mark.parametrize("grid_key, value, error", [
    ("L", -1, "--grid L=-1: n_changes: cannot be negative"),
    ("T", 2, "--grid T=2: n_changes: cannot place 3 changes at distinct times in [2, 2]"),
])
def test_sweep_grid_error_names_the_point_and_its_field(tmp_path, grid_key, value, error):
    config = parse_config(write_config(tmp_path, GENERATOR_CONFIG))
    with pytest.raises(ConfigError, match=re.escape(error)):
        run_sweep(config, grid_key, [value])


@pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "H=1,2"]], ids=["run", "sweep"])
def test_cli_changes_past_the_horizon_fail_before_running(tmp_path, capsys, command):
    """Changes that cannot fit at distinct rounds in [2, T] fail validation
    naming the key, not a grid point, and no output directory is made."""
    path = write_config(tmp_path, GENERATOR_CONFIG.replace("horizon = 400", "horizon = 3"))
    out_dir = tmp_path / "out"
    assert main(command + ["--config", str(path), "--out", str(out_dir)]) == 1
    assert "error: [generator] changes: cannot place 3 changes" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_sweep_rejects_meta_mode(tmp_path, capsys):
    text = GENERATOR_CONFIG.replace("noise = none", "noise = none\nmode = meta")
    path = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--grid", "T=200,400", "--out", str(out_dir)]) == 1
    assert "[experiment] mode" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_rejects_unknown_grid_key(tmp_path):
    config = parse_config(write_config(tmp_path, EXPLICIT_CONFIG))
    with pytest.raises(Exception):
        run_sweep(config, "Q", [1])


# --- oracle check --------------------------------------------------------------------

def test_oracle_check_clean_on_random_instances():
    assert oracle_check(50, (2, 3, 4), seed=0) == []


def test_oracle_check_draws_wide_markets(monkeypatch):
    sizes = []
    enumerate_stable_matchings = cli.enumerate_stable_matchings

    def spy(orderings, market):
        sizes.append((market.n_players, market.n_arms))
        return enumerate_stable_matchings(orderings, market)

    monkeypatch.setattr(cli, "enumerate_stable_matchings", spy)
    assert oracle_check(60, (2, 3, 4), seed=0) == []
    assert all(n in (2, 3, 4) and n <= k <= 4 for n, k in sizes)
    assert any(k > n for n, k in sizes)


def test_oracle_check_mismatch_names_n_and_k(monkeypatch):
    # Answering with arm-proposing DA for both orientations is wrong wherever
    # an instance has more than one stable matching.
    deferred_acceptance = cli.deferred_acceptance

    def arms_propose(orderings, market, side):
        return deferred_acceptance(orderings, market, "arms")

    monkeypatch.setattr(cli, "deferred_acceptance", arms_propose)
    mismatches = oracle_check(100, (3, 4), seed=0)
    assert mismatches
    assert all(re.search(r"\(N=\d, K=\d\): player-proposing DA", m) for m in mismatches)


# --- CLI ---------------------------------------------------------------------------------

def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, EXPLICIT_CONFIG)
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "restart_period = auto" in out


def test_cli_validate_bad_config_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, EXPLICIT_CONFIG.replace("version = 1", "version = 9"))
    assert main(["validate", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_validate_missing_file_exits_one(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "missing.ini")]) == 1


def test_cli_run_writes_reproducible_trace(tmp_path, capsys):
    path = write_config(tmp_path, EXPLICIT_CONFIG)
    out_dir = tmp_path / "out"
    args = ["run", "--config", str(path), "--out", str(out_dir)]
    assert main(args) == 0
    trace_path = out_dir / "trace_rcb_seed0.csv"
    assert trace_path.exists()
    first = trace_path.read_bytes()
    assert main(args) == 0
    assert trace_path.read_bytes() == first


def test_cli_run_meta_writes_epoch_summary(tmp_path):
    path = write_config(tmp_path, GENERATOR_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir),
                 "--mode", "meta", "--seed", "3"]) == 0
    assert (out_dir / "trace_meta_seed3.csv").exists()
    assert (out_dir / "epochs_seed3.csv").exists()


SMALL_GENERATOR_CONFIG = """
[experiment]
version = 1
horizon = 60
restart_period = 10

[generator]
seed = 1
n_players = 2
n_arms = 2
delta = 0.1
"""


def header(path):
    return [line.rstrip("\n") for line in path.open() if line.startswith("#")]


def test_cli_run_mode_override_is_validated_naming_the_flag(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_GENERATOR_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--mode", "meta"]) == 1
    err = capsys.readouterr().err
    assert "--mode meta" in err and "restart_period" in err
    assert not out_dir.exists()


def test_cli_run_mode_override_is_echoed(tmp_path, capsys):
    text = SMALL_GENERATOR_CONFIG.replace("restart_period = 10", "restart_period = auto")
    path = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--mode", "meta"]) == 0
    assert "  mode = meta" in capsys.readouterr().out
    lines = header(out_dir / "trace_meta_seed0.csv")
    assert "# mode = meta" in lines
    assert "# mode = rcb" not in lines


def test_cli_run_seed_override_is_echoed(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_GENERATOR_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--seed", "5"]) == 0
    assert "  seeds = 5" in capsys.readouterr().out
    lines = header(out_dir / "trace_rcb_seed5.csv")
    assert "# seed = 5" in lines
    assert "# seeds = 5" in lines
    assert "# seeds = 0" not in lines


def test_cli_sweep_writes_summary(tmp_path, capsys):
    path = write_config(tmp_path, EXPLICIT_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--grid", "H=5,20",
                 "--out", str(out_dir)]) == 0
    lines = (out_dir / "sweep_H.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].split(",")[:2] == ["grid_value", "mean_regret"]
    assert len(data) == 3


def test_cli_sweep_rejects_malformed_grid(tmp_path, capsys):
    path = write_config(tmp_path, EXPLICIT_CONFIG)
    assert main(["sweep", "--config", str(path), "--grid", "H=a,b"]) == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--seed", "abc"], "--seed"),
        (["run", "--seed", "1,,2"], "--seed"),
        (["run", "--seed", ""], "--seed"),
        (["run", "--seed", "0,-1"], "--seed"),
        (["sweep", "--grid", "H="], "--grid"),
        (["sweep", "--grid", "H=5,x"], "--grid"),
        (["oracle-check", "--sizes", "2,x"], "--sizes"),
        (["oracle-check", "--sizes", "0,2"], "--sizes"),
        (["oracle-check", "--instances", "-5"], "--instances"),
        (["oracle-check", "--instances", "0"], "--instances"),
        (["run", "--seed", "1,1"], "--seed"),
        (["sweep", "--grid", "H=1,1"], "--grid"),
        (["oracle-check", "--sizes", "2,7"], "--sizes"),
        (["oracle-check", "--seed", "-1"], "--seed"),
    ],
)
def test_cli_rejects_malformed_flag_values(tmp_path, capsys, argv, flag):
    out_dir = tmp_path / "out"
    if argv[0] != "oracle-check":
        argv = argv + ["--config", str(write_config(tmp_path, EXPLICIT_CONFIG)),
                       "--out", str(out_dir)]
    assert main(argv) == 1
    assert flag in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "H=5,20"]],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("source", ["--out", "[experiment] out"])
def test_cli_out_path_that_cannot_be_a_directory_fails_before_running(
        tmp_path, capsys, monkeypatch, command, source):
    """An output path below a regular file fails before anything runs,
    naming the flag or the config key that gave it."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    argv = command
    if source == "--out":
        argv = argv + ["--out", str(out)]
        text = EXPLICIT_CONFIG
    else:
        text = EXPLICIT_CONFIG.replace("version = 1", f"version = 1\nout = {out}")
    runs = []
    monkeypatch.setattr(cli, "run_rcb", lambda *args: runs.append(args))
    monkeypatch.setattr(cli, "run_rcb_seeds", lambda *args: runs.append(args))
    assert main(argv + ["--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and source in err
    assert runs == []


@pytest.mark.parametrize("command", [["validate"], ["run"], ["sweep", "--grid", "H=5,20"]],
                         ids=["validate", "run", "sweep"])
def test_cli_rejects_line_break_in_out(tmp_path, capsys, command):
    """A continuation line would put a line break in the output directory's
    name, and an unprefixed line in the trace CSV's comment header; the
    key fails validation instead, and no directory is made."""
    outs = tmp_path / "outs"
    text = EXPLICIT_CONFIG.replace("version = 1", f"version = 1\nout = {outs}/o\n    second")
    assert main(command + ["--config", str(write_config(tmp_path, text))]) == 1
    assert "[experiment] out" in capsys.readouterr().err
    assert not outs.exists()


def test_cli_oracle_check_exits_zero(capsys):
    assert main(["oracle-check", "--instances", "20", "--sizes", "2,3", "--seed", "1"]) == 0
    assert "oracle check passed" in capsys.readouterr().out
