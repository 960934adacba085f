"""Bounded-integer, real-number and named-choice inputs: one rule each,
and every entry point that takes such an input fails naming it."""

import argparse
import functools
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from competing_bandits import (
    ChangeEvent,
    ConfigError,
    Exp3State,
    InputError,
    MarketInstance,
    MeanRewardTimeline,
    RankOrdering,
    SimulationConfig,
    UcbState,
    build_ensemble,
    compute_restart_period,
    deferred_acceptance,
    exp3_update,
    means_at,
    run_rcb,
    run_rcb_seeds,
    sample_reward,
    write_trace_csv,
)
from competing_bandits import cli
from competing_bandits.config import ExperimentConfig, GeneratorSpec
from competing_bandits.engine import BASELINES
from competing_bandits.environment import NOISE_FAMILIES, draw_noise
from competing_bandits.errors import _check_choice, _check_integer, _check_real

MARKET = MarketInstance(1, 2, ((1.0,), (2.0,)))
TIMELINE = MeanRewardTimeline(5, ((0.1, 0.2),))
SPEC = GeneratorSpec(0, 1, 1, 1, 0)


def rng():
    return np.random.default_rng(0)


def exp3(n_arms=3):
    return Exp3State.fresh(n_arms, 0.5, rng())


@functools.cache
def trace():
    return run_rcb(SimulationConfig(5), MARKET, TIMELINE)


def experiment(**fields):
    return ExperimentConfig(**{"version": 1, "mode": "rcb", "horizon": 5, "restart_period": None,
                               "seeds": (0,), "baseline": "pessimal", "noise": "gaussian",
                               "instance": SPEC, **fields})


def oracle_check(**flags):
    return cli._cmd_oracle_check(argparse.Namespace(**{"sizes": "2", "instances": 1, "seed": 0,
                                                       **flags}))


# (site, call, field, error class, least, most): ``call(value)`` hands
# ``value`` to one bounded-integer input, every other input valid. ``most``
# is None where the input has no upper bound.
INTEGER_SITES = [
    ("SimulationConfig", lambda v: SimulationConfig(v), "horizon", InputError, 1, None),
    ("SimulationConfig", lambda v: SimulationConfig(5, v), "restart_period", InputError, 1, None),
    ("SimulationConfig", lambda v: SimulationConfig(5, seed=v), "seed", InputError, 0, None),
    ("compute_restart_period", lambda v: compute_restart_period(v, 0), "horizon", InputError,
     1, None),
    ("compute_restart_period", lambda v: compute_restart_period(9, v), "change_count",
     InputError, 0, None),
    ("run_rcb_seeds", lambda v: run_rcb_seeds(SimulationConfig(5), MARKET, TIMELINE, [v]),
     "seeds", InputError, 0, None),
    ("MarketInstance", lambda v: MarketInstance(v, 1, ((1.0,),)), "n_players", InputError,
     1, None),
    ("MeanRewardTimeline", lambda v: MeanRewardTimeline(v, ((0.1, 0.2),)), "horizon",
     InputError, 1, None),
    ("means_at", lambda v: means_at(TIMELINE, v), "t", InputError, 1, 5),
    ("sample_reward", lambda v: sample_reward(TIMELINE, v, 0, 1, rng()), "player", InputError,
     0, 0),
    ("sample_reward", lambda v: sample_reward(TIMELINE, 0, v, 1, rng()), "arm", InputError, 0, 1),
    ("GeneratorSpec", lambda v: GeneratorSpec(v, 1, 2, 0.1, 0), "seed", ConfigError, 0, None),
    ("GeneratorSpec", lambda v: GeneratorSpec(0, v, 1, 0.1, 0), "n_players", ConfigError,
     1, None),
    ("GeneratorSpec", lambda v: GeneratorSpec(0, 1, 2, 0.1, v), "n_changes", ConfigError,
     0, None),
    ("ExperimentConfig", lambda v: experiment(seeds=(v,)), "seeds", ConfigError, 0, None),
    ("UcbState", lambda v: UcbState(0, v), "n_arms", InputError, 1, None),
    ("UcbState.observe", lambda v: UcbState(0, 3).observe(v, 0.5), "arm", InputError, 0, 2),
    ("exp3_update", lambda v: exp3_update(exp3(), v, 0.5), "chosen", InputError, 0, 2),
    ("Exp3State.fresh", lambda v: exp3(v), "n_arms", InputError, 1, None),
    ("build_ensemble", build_ensemble, "horizon", InputError, 2, None),
    ("oracle_check", lambda v: cli.oracle_check(v, (2,), 0), "n_instances", InputError,
     1, None),
    ("oracle_check", lambda v: cli.oracle_check(1, (v,), 0), "sizes", InputError, 1, 6),
    ("oracle_check", lambda v: cli.oracle_check(1, (2,), v), "seed", InputError, 0, None),
    # Flags arrive as text (--sizes) or as argparse integers.
    ("oracle-check", lambda v: oracle_check(sizes=str(v)), "--sizes", InputError, 1, 6),
    ("oracle-check", lambda v: oracle_check(instances=v), "--instances", InputError, 1, None),
    ("oracle-check", lambda v: oracle_check(seed=v), "--seed", InputError, 0, None),
]

# (site, call, field, error class, choices), as above for a named choice.
CHOICE_SITES = [
    ("SimulationConfig", lambda v: SimulationConfig(5, noise=v), "noise", InputError,
     NOISE_FAMILIES),
    ("SimulationConfig", lambda v: SimulationConfig(5, baseline=v), "baseline", InputError,
     BASELINES),
    ("SimulationTrace.benchmark_arms", lambda v: trace().benchmark_arms(v), "baseline",
     InputError, BASELINES),
    ("deferred_acceptance", lambda v: deferred_acceptance([RankOrdering(0, (1, 0))], MARKET, v),
     "proposing_side", InputError, ("players", "arms")),
    ("draw_noise", lambda v: draw_noise(rng(), v, 3), "noise", InputError, NOISE_FAMILIES),
    ("sample_reward", lambda v: sample_reward(TIMELINE, 0, 0, 1, rng(), v), "noise", InputError,
     NOISE_FAMILIES),
    ("ExperimentConfig", lambda v: experiment(mode=v), "mode", ConfigError, ("rcb", "meta")),
    ("sweep", lambda v: cli.run_sweep(experiment(), v, []), "--grid", InputError,
     ("T", "L", "H")),
]


# Inputs whose None is a valid value: an "auto" period, the trace's own baseline.
NONE_IS_VALID = {("SimulationConfig", "restart_period"),
                 ("SimulationTrace.benchmark_arms", "baseline")}


def helper_site(draw, kind):
    """The helper itself as a site, with drawn bounds or choices."""
    error = draw(st.sampled_from([InputError, ConfigError]), label="error class")
    if kind == "integer":
        least = draw(st.integers(-5, 5), label="least")
        most = draw(st.none() | st.integers(least, least + 5), label="most")
        return ("_check_integer", lambda v: _check_integer("value", v, error, least, most),
                "value", error, least, most)
    choices = tuple(draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True),
                         label="choices"))
    return ("_check_choice", lambda v: _check_choice("value", v, choices, error), "value", error,
            choices)


def not_integer_text(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


SITES = ([("integer", None), ("choice", None)] + [("integer", s) for s in INTEGER_SITES]
         + [("choice", s) for s in CHOICE_SITES])


@pytest.mark.parametrize("kind, site", SITES, ids=[
    f"_check_{kind}" if site is None else f"{site[0]}-{site[2]}" for kind, site in SITES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bounded_inputs_fail_naming_their_field(kind, site, data):
    """At each helper (drawn bounds or choices) and at every entry point in
    the site tables, a float, a numpy float, a bool, a str, None and an
    integer one past either bound raise the site's error class naming its
    field, and so does a value outside the choices; Python and numpy
    integers at both bounds, and every choice, pass."""
    name, call, field, error, *spec = site or helper_site(data.draw, kind)
    none = st.nothing() if (name, field) in NONE_IS_VALID else st.none()
    if kind == "integer":
        least, most = spec
        bounds = [least] if most is None else [least, most]
        good = data.draw(st.sampled_from([*bounds, *map(np.int64, bounds)]), label="good")
        past = [least - 1] if most is None else [least - 1, most + 1]
        bad = data.draw(st.one_of(
            st.floats() | st.sampled_from([float(least), least + 0.5]),
            st.sampled_from([np.float64(least), np.float32(least)]),
            st.booleans(),
            st.text(max_size=4).filter(not_integer_text),
            none,
            st.sampled_from([*past, *map(np.int64, past)]),
        ), label="bad")
    else:
        choices = spec[0]
        good = data.draw(st.sampled_from(choices), label="good")
        bad = data.draw(st.one_of(st.text(max_size=8), none, st.integers(), st.floats(),
                                  st.booleans()).filter(lambda v: v not in choices), label="bad")
    result = call(good)
    if site is None:  # the helpers return the value, an integer as a Python int
        assert result == good and (kind == "choice" or type(result) is int)
    with pytest.raises(error) as err:
        call(bad)
    assert type(err.value) is error and err.value.field == field, (name, bad, str(err.value))


# (site, call, field, error class, good values, finite): ``call(value)`` hands
# ``value`` to one real-number input, every other input valid. ``finite`` is
# False where the site's own range check, not the rule, rejects nan and inf.
REAL_SITES = [
    ("GeneratorSpec", lambda v: GeneratorSpec(0, 1, 1, v, 0), "delta", ConfigError,
     [1, np.int64(1), 0.5, np.float32(0.5)], True),
    ("GeneratorSpec", lambda v: GeneratorSpec(0, 1, 1, 0.1, 0, mu_bar=v), "mu_bar", ConfigError,
     [1, np.int64(2), 1.5, np.float32(1.5)], True),
    ("GeneratorSpec", lambda v: GeneratorSpec(0, 1, 1, 0.1, 1, change_fractions=(v,)),
     "change_fractions", ConfigError, [0, np.int64(1), 0.5, np.float64(0.5)], True),
    ("MeanRewardTimeline", lambda v: MeanRewardTimeline(5, ((v, 0.5),)), "initial_means",
     InputError, [0, np.int64(1), 0.25, np.float32(0.25)], False),
    ("MeanRewardTimeline", lambda v: MeanRewardTimeline(5, ((0.1, 0.2),), mu_bar=v), "mu_bar",
     InputError, [1, np.int64(3), 0.5, np.float32(0.5)], False),
    ("ChangeEvent", lambda v: ChangeEvent(3, 0, 0, v), "event new_mean", InputError,
     [0, np.int64(1), 0.5, np.float32(0.5)], False),
    ("Exp3State", lambda v: Exp3State(np.ones(2), v, rng()), "gamma", InputError,
     [1, np.int64(1), 0.5, np.float32(0.5)], True),
    ("exp3_update", lambda v: exp3_update(exp3(), 0, v), "reward", InputError,
     [0, np.int64(1), 0.5, np.float32(0.5)], True),
]


@pytest.mark.parametrize("site", [None] + REAL_SITES, ids=[
    "_check_real"] + [f"{site[0]}-{site[2]}" for site in REAL_SITES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_real_inputs_fail_naming_their_field(site, data):
    """At the helper (drawn error class and finiteness) and at every entry
    point in the site table, a bool, a numpy bool, a str, None, a complex
    and a Decimal raise the site's error class naming its field, and so do
    nan and inf where the rule checks finiteness; Python and numpy integers
    and floats pass, the helper returning them as a Python float."""
    if site is None:
        error = data.draw(st.sampled_from([InputError, ConfigError]), label="error class")
        finite = data.draw(st.booleans(), label="finite")
        site = ("_check_real", lambda v: _check_real("value", v, error, finite), "value", error,
                [data.draw(st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False)
                           | st.sampled_from([np.int64(3), np.float32(0.5)]), label="good")],
                finite)
    name, call, field, error, goods, finite = site
    good = data.draw(st.sampled_from(goods), label="good")
    result = call(good)
    if name == "_check_real":
        assert type(result) is float and result == float(good)
    bad = data.draw(st.one_of(
        st.booleans(), st.sampled_from([np.bool_(True), np.bool_(False)]), st.text(max_size=4),
        st.none(), st.sampled_from([1j, Decimal("0.5")]),
        st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]) if finite
        else st.nothing()), label="bad")
    with pytest.raises(error) as err:
        call(bad)
    assert type(err.value) is error and err.value.field == field, (name, bad, str(err.value))


def test_integer_and_float_means_export_the_same_bytes(tmp_path):
    """An integer event mean is stored as a float, so ``ChangeEvent(3, 0, 1,
    1)`` and ``ChangeEvent(3, 0, 1, 1.0)`` give the same segments and the
    same trace bytes (``1.0`` and ``0.0``, not ``1`` and ``0``), and so do
    integer and float initial means."""
    market = MarketInstance(1, 2, ((1.0,), (1.0,)))
    exports = []
    for low, high in ((0, 1), (0.0, 1.0)):
        timeline = MeanRewardTimeline(6, ((low, 0.5),), (ChangeEvent(3, 0, 1, high),))
        assert type(timeline.events[0].new_mean) is float
        assert all(type(v) is float for _, _, means in timeline.segments() for v in means[0])
        path = tmp_path / f"{high!r}.csv"
        write_trace_csv(run_rcb(SimulationConfig(6), market, timeline), path)
        exports.append(path.read_bytes())
    assert exports[0] == exports[1]
    assert b",1.0,1,0.0," in exports[1]  # a round matched to the benchmark arm, mean 1.0
