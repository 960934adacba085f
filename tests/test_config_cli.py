"""Config parsing, instance generation, sweeps, and the CLI surface."""

import math
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from competing_bandits import (
    ConfigError,
    InputError,
    SimulationConfig,
    min_gap,
    regret_report,
    run_rcb,
    total_changes,
)
from competing_bandits import cli
from competing_bandits.cli import main, oracle_check, run_sweep
from competing_bandits.config import (
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
    assert config.market.n_players == 2
    assert total_changes(config.timeline) == 1


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
    assert config.generator == GeneratorSpec(
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
], ids=["experiment_key", "generator_key", "market_key", "timeline_key", "section",
        "delta", "generator_mu_bar", "change_fractions", "arm_utilities", "initial_means",
        "events", "timeline_mu_bar"])
def test_validate_rejects_unknown_names_and_non_finite_numbers(tmp_path, capsys, text, error):
    """A misspelt key, an extra section or a nan/inf number fails
    validation, naming the section and key, instead of running with a
    default or crashing later."""
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
    an auto restart period and a horizon of at least 2."""
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
        horizon=draw(st.integers(2 if mode == "meta" else 1, 10**6), label="T"),
        restart_period=None if mode == "meta" else draw(st.none() | st.integers(1, 10**6),
                                                        label="H"),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
                         label="seeds")),
        baseline=draw(st.sampled_from(BASELINES), label="baseline"),
        noise=draw(st.sampled_from(NOISE_FAMILIES), label="noise"),
        generator=generator,
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


def test_generator_spec_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        GeneratorSpec(seed=-3, n_players=2, n_arms=2, delta=0.1, n_changes=0)


@pytest.mark.parametrize("field, values", [
    ("delta", {"delta": math.nan}),
    ("delta", {"delta": math.inf}),
    ("mu_bar", {"mu_bar": math.nan}),
    ("mu_bar", {"mu_bar": math.inf}),
    ("change_fractions", {"n_changes": 2, "change_fractions": (0.5, math.nan)}),
])
def test_generator_spec_rejects_non_finite_numbers(field, values):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        GeneratorSpec(**{"seed": 0, "n_players": 2, "n_arms": 2, "delta": 0.1,
                         "n_changes": 0, **values})


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
        resolve_instance(config, horizon=120)


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


def test_cli_oracle_check_exits_zero(capsys):
    assert main(["oracle-check", "--instances", "20", "--sizes", "2,3", "--seed", "1"]) == 0
    assert "oracle check passed" in capsys.readouterr().out
