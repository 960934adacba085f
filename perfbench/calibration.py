"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, and process CPU time drifts with wall time. While an
untraced pass does its measured work, a SIGALRM handler in the same
process therefore times a short fixed kernel of the benchmark's own eight
times a second. The kernel has the op mix of a simulated round (pure-Python
UCB indices, a sort, player-proposing deferred acceptance on lists, small
numpy random draws) and imports nothing from the program, so a change to
the program moves the scaled timings in full. The handler's own time is
taken out of the measured work. The mean kernel time, against the
reference time recorded in ``reference.json``, gives the host's speed
during that work.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.125
N_PLAYERS = 6
N_ARMS = 8
ROUNDS = 240  # one chunk, about 10 ms on a 2-vCPU cloud host (Xeon, 2026)
SEED = 12345


def _chunk(rng) -> int:
    """One deterministic chunk of simulated rounds; returns a checksum so
    the work cannot be skipped."""
    counts = [[1] * N_ARMS for _ in range(N_PLAYERS)]
    sums = [[0.5] * N_ARMS for _ in range(N_PLAYERS)]
    arm_rank = [list(range(N_PLAYERS)) for _ in range(N_ARMS)]
    checksum = 0
    for t in range(2, ROUNDS + 2):
        log_t = math.log(t)
        orderings = []
        for p in range(N_PLAYERS):
            c, s = counts[p], sums[p]
            values = [s[j] / c[j] + math.sqrt(1.5 * log_t / c[j]) for j in range(N_ARMS)]
            orderings.append(sorted(range(N_ARMS), key=lambda j: (-values[j], j)))
        holder = [-1] * N_ARMS
        nxt = [0] * N_PLAYERS
        free = list(range(N_PLAYERS))
        while free:
            p = free.pop()
            arm = orderings[p][nxt[p]]
            nxt[p] += 1
            q = holder[arm]
            if q < 0:
                holder[arm] = p
            elif arm_rank[arm][p] < arm_rank[arm][q]:
                holder[arm] = p
                free.append(q)
            else:
                free.append(p)
        rewards = rng.normal(0.5, 0.1, size=N_PLAYERS)
        for arm, p in enumerate(holder):
            if p >= 0:
                counts[p][arm] += 1
                sums[p][arm] += float(rewards[p])
                checksum += arm
    return checksum


class Sampler:
    """Context manager that times one calibration chunk every
    ``INTERVAL_S`` seconds of wall time while its body runs. ``times``
    holds the chunk times in seconds; ``busy_ns`` is the handler's whole
    time, for the caller to subtract from its own measurement."""

    def __init__(self):
        self.times: list[float] = []
        self.busy_ns = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter_ns()
        rng = np.random.default_rng(SEED)
        start = time.perf_counter_ns()
        _chunk(rng)
        self.times.append((time.perf_counter_ns() - start) / 1e9)
        self.busy_ns += time.perf_counter_ns() - entered

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
