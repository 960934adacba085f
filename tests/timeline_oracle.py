"""The minimum gap of a timeline, the quantity the generator's ``delta``
floor bounds from below. No simulation path needs it; the timeline and
generator tests check against it."""

import math


def min_gap(timeline):
    """Smallest |mu_i(k) - mu_i(k')| over all segments, players, arm pairs."""
    gap = math.inf
    for _, _, means in timeline.segments():
        for row in means:
            vals = sorted(row)
            for a, b in zip(vals, vals[1:]):
                gap = min(gap, b - a)
    return gap
