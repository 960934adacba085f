"""Restart-period ensemble, EXP3 meta-learner, the epoch loop and the
trace export that runs while the epochs play."""

import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from competing_bandits import (
    Exp3State,
    InputError,
    MarketInstance,
    MeanRewardTimeline,
    SimulationConfig,
    build_ensemble,
    compute_restart_period,
    exp3_select,
    exp3_update,
    regret_report,
    run_rcb,
    run_rcb_meta,
    write_epoch_summary_csv,
    write_trace_csv,
)
from competing_bandits import cli, engine, meta
from competing_bandits.config import GeneratorSpec, generate_instance
from competing_bandits.engine import _TraceStream
from competing_bandits.environment import NOISE_FAMILIES
from competing_bandits.meta import default_gamma
from test_engine import assert_no_child_left
from trace_oracle import matched_means, schedule_columns


def single_player_setup(horizon, means=(0.1, 6.4), mu_bar=6.5):
    market = MarketInstance(1, 2, ((1.0,), (1.0,)))
    timeline = MeanRewardTimeline(horizon, (means,), (), mu_bar)
    return market, timeline


# --- ensemble construction -----------------------------------------------------

def test_ensemble_ten_thousand():
    e = build_ensemble(10_000)
    assert e.periods == (1, 2, 4, 8, 16, 32, 64, 128)
    assert e.epoch_length == 100
    assert e.epoch_count == 100


def test_ensemble_tiny_horizon():
    e = build_ensemble(4)
    assert e.periods == (1, 2)
    assert e.epoch_length == 2
    assert e.epoch_count == 2


def test_ensemble_rejects_degenerate_horizon():
    with pytest.raises(InputError):
        build_ensemble(1)


def test_ensemble_epochs_cover_horizon():
    for t in (2, 7, 100, 999, 10_000, 123_456):
        e = build_ensemble(t)
        assert e.epoch_length * e.epoch_count >= t
        assert e.epoch_length * (e.epoch_count - 1) < t


def test_ensemble_covers_tuned_period_within_factor_two():
    # Whatever the (unknown) change count, some ensemble member is within a
    # factor two of the period the tuned rule would pick.
    for horizon in (100, 1_024, 10_000, 50_000):
        e = build_ensemble(horizon)
        for changes in (1, 2, 3, 5, 10, 50, horizon // 2, horizon):
            tuned = compute_restart_period(horizon, changes)
            assert any(p / 2 <= tuned <= p * 2 for p in e.periods)


# --- EXP3 -------------------------------------------------------------------------

def test_exp3_rejects_bad_construction():
    rng = np.random.default_rng(0)
    # Non-finite weights would give NaN probabilities that exp3_select dies on.
    for weights, gamma, field in (([], 0.5, "weights"), ([1.0, -1.0], 0.5, "weights"),
                                  ([1.0, math.inf], 0.1, "weights"),
                                  ([1.0, math.nan], 0.1, "weights"), ([1.0, 1.0], 0.0, "gamma")):
        with pytest.raises(InputError, match=field) as err:
            Exp3State(weights, gamma, rng)
        assert err.value.field == field


def test_fresh_probabilities_uniform():
    state = Exp3State.fresh(4, 0.5, np.random.default_rng(0))
    assert np.allclose(state.probabilities(), 0.25)
    assert state.probabilities().sum() == pytest.approx(1.0)


def test_full_exploration_draws_uniformly():
    state = Exp3State.fresh(4, 1.0, np.random.default_rng(1))
    draws = np.array([exp3_select(state) for _ in range(100_000)])
    for arm in range(4):
        assert abs((draws == arm).mean() - 0.25) < 0.01


def test_dominant_weight_dominates_draws():
    rng = np.random.default_rng(2)
    state = Exp3State(np.array([1e-9, 1.0, 1e-9]), 1e-6, rng)
    draws = [exp3_select(state) for _ in range(1_000)]
    assert draws.count(1) >= 990


def test_update_rejects_out_of_range_reward():
    state = Exp3State.fresh(2, 0.5, np.random.default_rng(0))
    for chosen, reward, field in ((0, 1.5, "reward"), (0, -0.1, "reward"), (5, 0.5, "chosen")):
        with pytest.raises(InputError) as err:
            exp3_update(state, chosen, reward)
        assert err.value.field == field


def test_zero_reward_leaves_probabilities_unchanged():
    state = Exp3State.fresh(3, 0.3, np.random.default_rng(0))
    before = state.probabilities().copy()
    exp3_update(state, 1, 0.0)
    assert np.allclose(state.probabilities(), before)


def test_repeated_wins_concentrate_probability():
    state = Exp3State.fresh(2, 0.2, np.random.default_rng(0))
    last = state.probabilities()[0]
    for _ in range(400):
        exp3_update(state, 0, 1.0)
        p = state.probabilities()[0]
        assert p >= last - 1e-12
        last = p
    # Probability saturates at 1 - gamma + gamma / J.
    assert last == pytest.approx(1 - 0.2 + 0.2 / 2, abs=1e-3)
    assert state.probabilities().sum() == pytest.approx(1.0)


def test_default_gamma_bounds():
    assert default_gamma(1, 100) == 1.0
    g = default_gamma(8, 100)
    assert 0 < g <= 1
    assert g == pytest.approx(
        math.sqrt(8 * math.log(8) / ((math.e - 1) * 100))
    )
    assert default_gamma(8, 1) == 1.0  # capped


# --- epoch loop ---------------------------------------------------------------------

def test_meta_rejects_explicit_restart_period():
    market, timeline = single_player_setup(100)
    with pytest.raises(InputError):
        run_rcb_meta(SimulationConfig(100, restart_period=10), market, timeline)


def test_single_epoch_equals_plain_run_with_drawn_period():
    # T=2 gives one epoch covering the whole horizon; after replaying the
    # meta-learner's single draw, the base loop must match round for round,
    # and its noise must come next from the same generator.
    market, timeline = single_player_setup(2)
    meta = run_rcb_meta(SimulationConfig(2, seed=5), market, timeline)

    rng = np.random.default_rng(5)
    gamma = default_gamma(2, 1)
    probs = np.full(2, (1 - gamma) / 2 + gamma / 2)
    chosen = int(rng.choice(2, p=probs / probs.sum()))
    period = (1, 2)[chosen]
    plain = run_rcb(SimulationConfig(2, restart_period=period, seed=5), market, timeline)

    assert meta.schedule == plain.schedule == [(1, 2, period)]
    assert np.array_equal(meta.matchings, plain.matchings)
    expected = matched_means(meta) + rng.standard_normal((2, 1))
    assert meta.rewards.tobytes() == expected.tobytes()


def test_epoch_bookkeeping_consistent():
    market, timeline = single_player_setup(1_000)
    trace = run_rcb_meta(SimulationConfig(1_000, seed=0), market, timeline)
    ensemble = build_ensemble(1_000)
    assert len(trace.matchings) == 1_000
    assert len(trace.epoch_summaries) == ensemble.epoch_count
    _, flags, epochs, periods = schedule_columns(trace)
    for t in range(1_000):
        epoch = t // ensemble.epoch_length
        assert epochs[t] == epoch
        assert periods[t] == trace.epoch_summaries[epoch].chosen_h
        offset = t - epoch * ensemble.epoch_length
        assert flags[t] == (offset % periods[t] == 0)
    # The regret report's blocks start at exactly the flagged rounds.
    assert [lo for lo, _ in regret_report(trace).block_bounds.tolist()] == [
        t for t, flag in enumerate(flags, start=1) if flag]


def test_normalized_rewards_in_unit_interval():
    market, timeline = single_player_setup(2_000)
    trace = run_rcb_meta(SimulationConfig(2_000, seed=1), market, timeline)
    for summary in trace.epoch_summaries:
        assert 0.0 <= summary.normalized_reward <= 1.0
        assert sum(summary.probabilities) == pytest.approx(1.0)


def left_to_right_sum(values):
    """``sum(values)`` as Python 3.10 and 3.11 compute it: one add per value,
    in order, from 0 (3.12 and later compensate float sums)."""
    total = 0
    for value in values:
        total += value
    return total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_epoch_reward_sums_rows_left_to_right(data):
    """Each epoch's normalized reward is bit for bit the clipped
    ``sum(sum(r) for r in rows.tolist()) / norm`` over the epoch's reward
    rows, with norm = N * epoch_length * mu_bar: each row summed from 0 left
    to right, then the row sums in order. Markets with K >= N, every noise
    family, and horizons whose last epoch is short."""
    n = data.draw(st.integers(1, 4), label="N")
    k = data.draw(st.integers(n, 6), label="K")
    horizon = data.draw(st.integers(2, 200).filter(
        lambda t: t % build_ensemble(t).epoch_length), label="T")
    spec = GeneratorSpec(seed=data.draw(st.integers(0, 2**31 - 1), label="instance"),
                         n_players=n, n_arms=k, delta=0.05,
                         n_changes=data.draw(st.integers(0, min(3, horizon - 1)), label="L"),
                         mu_bar=data.draw(st.sampled_from([0.5, 1.0, 10.0]), label="mu_bar"))
    market, timeline = generate_instance(spec, horizon)
    config = SimulationConfig(horizon, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                              noise=data.draw(st.sampled_from(NOISE_FAMILIES), label="noise"))
    trace = run_rcb_meta(config, market, timeline)
    ensemble = build_ensemble(horizon)
    norm = n * ensemble.epoch_length * timeline.mu_bar
    assert len(trace.schedule) == len(trace.epoch_summaries) == ensemble.epoch_count
    for (start, end, _), summary in zip(trace.schedule, trace.epoch_summaries):
        rows = trace.rewards[start - 1:end].tolist()
        total = left_to_right_sum(left_to_right_sum(r) for r in rows)
        assert summary.normalized_reward == min(1.0, max(0.0, total / norm))
        assert type(summary.normalized_reward) is float


def test_meta_run_deterministic_per_seed():
    market, timeline = single_player_setup(500)
    a = run_rcb_meta(SimulationConfig(500, seed=9), market, timeline)
    b = run_rcb_meta(SimulationConfig(500, seed=9), market, timeline)
    assert np.array_equal(a.matchings, b.matchings)
    assert a.epoch_summaries == b.epoch_summaries
    c = run_rcb_meta(SimulationConfig(500, seed=10), market, timeline)
    assert a.epoch_summaries != c.epoch_summaries


def test_selection_drifts_toward_longer_periods():
    # On a stationary instance where tiny restart periods forfeit almost all
    # reward, the average chosen period should grow from the first quarter
    # of the epochs to the last (aggregated over seeds).
    market, timeline = single_player_setup(10_000)
    firsts, lasts = [], []
    for seed in range(20):
        trace = run_rcb_meta(SimulationConfig(10_000, seed=seed), market, timeline)
        hs = [s.chosen_h for s in trace.epoch_summaries]
        quarter = len(hs) // 4
        firsts.append(np.mean([math.log2(h) for h in hs[:quarter]]))
        lasts.append(np.mean([math.log2(h) for h in hs[-quarter:]]))
    assert np.mean(lasts) > np.mean(firsts)


def test_epoch_summary_csv(tmp_path):
    market, timeline = single_player_setup(400)
    trace = run_rcb_meta(SimulationConfig(400, seed=2), market, timeline)
    path = tmp_path / "epochs.csv"
    write_epoch_summary_csv(trace, path)
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    header = lines[len(comments)].split(",")
    n_periods = len(build_ensemble(400).periods)
    assert header == ["epoch", "chosen_H", "normalized_reward"] + [
        f"p_{j}" for j in range(n_periods)
    ]
    assert len(lines) - len(comments) - 1 == len(trace.epoch_summaries)


def test_epoch_summary_csv_rejects_plain_trace(tmp_path):
    market, timeline = single_player_setup(50)
    trace = run_rcb(SimulationConfig(50), market, timeline)
    with pytest.raises(InputError, match="not a meta run") as exc:
        write_epoch_summary_csv(trace, tmp_path / "epochs.csv")
    assert exc.value.field == "epoch_summaries"


# --- trace export while the epochs play -------------------------------------------

def fork_spy(monkeypatch):
    """Record every ``os.fork`` call (the forks still happen)."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_streamed_export_equals_write_trace_csv(tmp_path_factory, data):
    """With an export, ``run_rcb_meta`` writes the trace CSV while its
    epochs play: on 2 usable CPUs one forked worker appends each epoch's
    chunks as the epoch's rows arrive, on 1 the run exports after it plays.
    Either way the file and ``export.final`` equal ``write_trace_csv`` of the
    run's trace (unsplit) byte for byte, the trace and the epoch CSV equal
    those of a run without an export, and no other file is left. The stream
    threshold is 0 and the chunks are drawn short, so they end inside
    epochs as well as at epoch and segment ends; N <= 4, K in [N, 6], every
    noise family, 0 to 3 changes."""
    n = data.draw(st.integers(1, 4), label="N")
    k = data.draw(st.integers(n, 6), label="K")
    horizon = data.draw(st.integers(2, 150), label="T")
    spec = GeneratorSpec(seed=data.draw(st.integers(0, 2**31 - 1), label="instance"),
                         n_players=n, n_arms=k, delta=0.05,
                         n_changes=data.draw(st.integers(0, min(3, horizon - 1)), label="L"))
    market, timeline = generate_instance(spec, horizon)
    config = SimulationConfig(horizon, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                              noise=data.draw(st.sampled_from(NOISE_FAMILIES), label="noise"))
    chunk = data.draw(st.integers(1, 40), label="chunk rounds")
    cpus = data.draw(st.sampled_from([1, 2]), label="CPUs")
    out = tmp_path_factory.mktemp("stream")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_EXPORT_CHUNK_ROUNDS", chunk)
        patch.setattr(engine, "_FORK_ROWS", 0)
        patch.setattr(engine, "_usable_cpus", lambda: cpus)
        export = _TraceStream(out / "streamed.csv", [("extra", "x")])
        trace = run_rcb_meta(config, market, timeline, export=export)
        patch.setattr(engine, "_usable_cpus", lambda: 1)
        final = write_trace_csv(trace, out / "whole.csv", [("extra", "x")])
    assert (out / "streamed.csv").read_bytes() == (out / "whole.csv").read_bytes()
    assert export.final.tobytes() == final.tobytes()
    plain = run_rcb_meta(config, market, timeline)
    assert (trace.matchings.tobytes(), trace.rewards.tobytes(), trace.schedule) == (
        plain.matchings.tobytes(), plain.rewards.tobytes(), plain.schedule)
    write_epoch_summary_csv(trace, out / "streamed_epochs.csv")
    write_epoch_summary_csv(plain, out / "plain_epochs.csv")
    assert (out / "streamed_epochs.csv").read_bytes() == (out / "plain_epochs.csv").read_bytes()
    assert sorted(os.listdir(out)) == ["plain_epochs.csv", "streamed.csv", "streamed_epochs.csv",
                                       "whole.csv"]
    assert_no_child_left()


META_CONFIG = """
[experiment]
version = 1
mode = meta
horizon = 300
seeds = 4, 9

[generator]
seed = 3
n_players = 3
n_arms = 4
delta = 0.1
changes = 2
"""


def test_cli_meta_run_streams_every_seed(monkeypatch, tmp_path, capsys):
    """A two-seed ``rcb run --mode meta`` that streams each seed's export
    (threshold 0, 16-round chunks, 2 usable CPUs) writes the same files and
    prints the same lines as one that exports after each run (1 CPU)."""
    path = tmp_path / "meta.ini"
    path.write_text(META_CONFIG)
    monkeypatch.setattr(engine, "_FORK_ROWS", 0)
    monkeypatch.setattr(engine, "_EXPORT_CHUNK_ROUNDS", 16)
    runs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        forks = fork_spy(monkeypatch)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        runs[cpus] = printed, {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert len(forks) == (2 if cpus == 2 else 0)  # one worker per streamed seed
    assert sorted(runs[2][1]) == ["epochs_seed4.csv", "epochs_seed9.csv",
                                  "trace_meta_seed4.csv", "trace_meta_seed9.csv"]
    assert runs[2] == runs[1]
    assert runs[2][0].count("max-player pessimal regret") == 2
    assert_no_child_left()


def stream_setup(monkeypatch, tmp_path, horizon=200):
    """A meta run of ``horizon`` rounds whose export streams (threshold 0,
    2 usable CPUs) to ``tmp_path / "trace.csv"``; returns the export and the
    call that runs it."""
    monkeypatch.setattr(engine, "_FORK_ROWS", 0)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    market, timeline = single_player_setup(horizon)
    export = _TraceStream(tmp_path / "trace.csv")
    return export, lambda: run_rcb_meta(SimulationConfig(horizon, seed=1), market, timeline,
                                        export=export)


def faulty_writer(fault):
    """``engine._formatter`` whose row writer calls ``fault()`` first in a
    forked worker."""
    formatter, parent = engine._formatter, os.getpid()

    def wrapped(*args):
        header, write = formatter(*args)

        def faulty(out, chunk):
            if os.getpid() != parent:
                fault()
            return write(out, chunk)
        return header, faulty
    return wrapped


def test_failing_stream_worker_is_named_with_its_exit_status(monkeypatch, tmp_path):
    def fault():
        raise ValueError("fault in the stream worker")

    monkeypatch.setattr(engine, "_formatter", faulty_writer(fault))
    _, run = stream_setup(monkeypatch, tmp_path)
    with pytest.raises(RuntimeError, match=r"export worker \d+ exited with status 1 after "
                                           r"sending 0 of \d+ bytes"):
        run()
    assert_no_child_left()


def test_epoch_loop_error_kills_and_reaps_the_stream_worker(monkeypatch, tmp_path):
    """An error in the epoch loop, here ``exp3_update`` at epoch 3, stops
    the worker while it is still writing (it would sleep for a minute)."""
    monkeypatch.setattr(engine, "_formatter", faulty_writer(lambda: time.sleep(60)))
    updates, update = [], meta.exp3_update

    def exp3_update(*args):
        updates.append(1)
        if len(updates) == 4:
            raise ValueError("fault in the epoch loop")
        update(*args)

    monkeypatch.setattr(meta, "exp3_update", exp3_update)
    _, run = stream_setup(monkeypatch, tmp_path)
    began = time.monotonic()
    with pytest.raises(ValueError, match="fault in the epoch loop"):
        run()
    assert time.monotonic() - began < 30
    assert_no_child_left()


def test_bad_output_fails_before_any_fork(monkeypatch, tmp_path, capsys):
    """An ``--out`` that cannot be a directory, a trace path that cannot be
    opened and a multi-line metadata value fail in this process before any
    worker starts."""
    forks = fork_spy(monkeypatch)
    path = tmp_path / "meta.ini"
    path.write_text(META_CONFIG)
    monkeypatch.setattr(engine, "_FORK_ROWS", 0)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    (tmp_path / "file").write_text("")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "file")]) == 1
    assert "--out: cannot make directory" in capsys.readouterr().err
    export, run = stream_setup(monkeypatch, tmp_path)
    (tmp_path / "trace.csv").mkdir()  # the trace path is taken by a directory
    with pytest.raises(IsADirectoryError):
        run()
    export.path, export.extra_metadata = tmp_path / "other.csv", [("note", "two\nlines")]
    with pytest.raises(InputError, match="extra_metadata: must be one line each"):
        run()
    assert forks == []
    assert_no_child_left()


def test_one_usable_cpu_forks_nothing(monkeypatch, tmp_path):
    export, run = stream_setup(monkeypatch, tmp_path)
    forks = fork_spy(monkeypatch)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
    trace = run()
    assert forks == []
    assert export.final.tobytes() == write_trace_csv(trace, tmp_path / "whole.csv").tobytes()
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
