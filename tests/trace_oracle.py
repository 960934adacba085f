"""Row-at-a-time trace CSV writer: the reference the column-wise
``engine.write_trace_csv`` must match byte for byte.

It is the writer the library shipped before the export became
column-wise, kept here unchanged apart from its name, the expansion of
the per-segment benchmark arms to one entry per round, the matched arms'
true means, which ``matched_means`` expands the same way, and the schedule
columns, which ``schedule_columns`` expands once above the per-round loop.
"""

import csv

import numpy as np

from competing_bandits.engine import (META_TRACE_COLUMNS, TRACE_COLUMNS, regret_report,
                                      trace_metadata)


def schedule_columns(trace):
    """Per-round block number (from 1), restart flag, epoch and restart
    period, expanded from ``trace.schedule`` one round at a time: a schedule
    entry (start, end, period) is epoch e of its list, and the learners
    restart at ``start`` and every ``period`` rounds after it."""
    blocks, flags, epochs, periods = [], [], [], []
    for epoch, (start, end, period) in enumerate(trace.schedule):
        assert start == len(flags) + 1, "schedule entries must tile the rounds in order"
        for t in range(start, end + 1):
            flags.append(int((t - start) % period == 0))
            blocks.append((blocks[-1] if blocks else 0) + flags[-1])
            epochs.append(epoch)
            periods.append(period)
    assert len(flags) == trace.horizon, "schedule must cover the horizon"
    return blocks, flags, epochs, periods


def matched_means(trace):
    """(T, N) true means of the matched arms, one round at a time: each
    round's means come from the segment that holds it, expanded from
    ``trace.segments`` per round like the benchmark arms below."""
    round_means = [means for start, end, means in trace.segments for _ in range(start, end + 1)]
    return np.array([[row[arm] for row, arm in zip(round_means[t], arms)]
                     for t, arms in enumerate(trace.matchings.tolist())])


def write_trace_csv_rows(trace, path, extra_metadata=()):
    """Write one row per (round, player) through ``csv.writer``, one round
    at a time; returns the regret report the rows were computed from."""
    report = regret_report(trace)
    bench_arms = [arms for (start, end, _), arms in zip(trace.segments, trace.benchmark_arms())
                  for _ in range(start, end + 1)]
    true_means = matched_means(trace)
    block_index, restart_flags, epoch_index, chosen_h = schedule_columns(trace)
    is_meta = trace.epoch_summaries is not None
    columns = META_TRACE_COLUMNS if is_meta else TRACE_COLUMNS
    with open(path, "w", newline="") as fh:
        for key, value in list(trace_metadata(trace)) + list(extra_metadata):
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for t in range(trace.horizon):
            # One round at a time: Python floats for repr, little memory.
            arms = trace.matchings[t].tolist()
            rewards = trace.rewards[t].tolist()
            means = true_means[t].tolist()
            increments = report.increments[t].tolist()
            cumulative = report.cumulative[t].tolist()
            head = (t + 1, block_index[t], restart_flags[t])
            tail = (epoch_index[t], chosen_h[t]) if is_meta else ()
            writer.writerows(
                (*head, i, arms[i], repr(rewards[i]), repr(means[i]), bench_arms[t][i],
                 repr(increments[i]), repr(cumulative[i]), *tail)
                for i in range(trace.n_players)
            )
    return report
