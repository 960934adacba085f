"""Row-at-a-time trace CSV writer: the reference the column-wise
``engine.write_trace_csv`` must match byte for byte.

It is the writer the library shipped before the export became
column-wise, kept here unchanged apart from its name, the expansion of
the per-segment benchmark arms to one entry per round and the schedule
columns read once above the per-round loop.
"""

import csv

from competing_bandits.engine import (META_TRACE_COLUMNS, TRACE_COLUMNS, regret_report,
                                      trace_metadata)


def write_trace_csv_rows(trace, path, extra_metadata=()):
    """Write one row per (round, player) through ``csv.writer``, one round
    at a time; returns the regret report the rows were computed from."""
    report = regret_report(trace)
    bench_arms = [arms for (start, end, _), arms in zip(trace.segments, trace.benchmark_arms())
                  for _ in range(start, end + 1)]
    true_means = trace.true_means
    # The schedule views rebuild a T-long list on each access: read them once.
    block_index, restart_flags = trace.block_index, trace.restart_flags
    epoch_index, chosen_h = trace.epoch_index, trace.chosen_h
    is_meta = chosen_h is not None
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
