"""Golden digests of exported traces.

Criterion 9 compares two runs of the same code, so it cannot see a byte
change introduced by a refactor. These digests pin the exact trace and
epoch CSV bytes of a fixed instance and seed in both modes and under both
noise families, plus the trace of a market with more arms than players; a
change that moves any of them changes observable output and must say so.
"""

import hashlib

import pytest

from competing_bandits import (
    ChangeEvent,
    MarketInstance,
    MeanRewardTimeline,
    SimulationConfig,
    run_rcb,
    run_rcb_meta,
    write_trace_csv,
)
from competing_bandits.meta import write_epoch_summary_csv
from test_acceptance import toggle_instance

GOLDEN = {
    ("gaussian", "rcb"):
        "85e40e1665ea6fa89f42992ad24818856dcc40560fae6201fc6eed61bbb3da15",
    ("gaussian", "meta"):
        "f4f04f71ab33811e4a2d74137ec0d1203116beda5cdb703e32418f72a70331b9",
    ("uniform", "rcb"):
        "6967fdf84172e8380465743f424d7ef240b5e61cb90c3eaac10f39d28adfb15f",
    ("uniform", "meta"):
        "f21a8076bf9a1ed30ba9a046537a6c35195dd006bb00cf8821e953fb2cabdf0f",
}
GOLDEN_WIDE = {
    "gaussian":
        "174e87457dc7b50f6848ce798f82e4c2fa6564eca449cf43a316b5ea6ddfc1ea",
    "uniform":
        "fe7f1173151e933ab842d67559c90d663e926b39f49e7062db91fa58add04c4b",
}
GOLDEN_EPOCHS = {
    "gaussian":
        "9b6140eb89ece963bf85d51c8a0f335d21d20ca77c28fe44a3c3675ea9abb5b7",
    "uniform":
        "0f7dc48cffefece8f6338203fb94fecb6cf186d5cd6b81b9d61a57761df8a419",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("noise", ["gaussian", "uniform"])
@pytest.mark.parametrize("mode", ["rcb", "meta"])
def test_trace_csv_matches_golden_digest(tmp_path, noise, mode):
    market, timeline = toggle_instance(horizon=2_000, n_toggles=19)
    runner = run_rcb_meta if mode == "meta" else run_rcb
    trace = runner(SimulationConfig(2_000, seed=42, noise=noise), market, timeline)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert _sha256(path) == GOLDEN[(noise, mode)]
    if mode == "meta":
        epochs = tmp_path / "epochs.csv"
        write_epoch_summary_csv(trace, epochs)
        assert _sha256(epochs) == GOLDEN_EPOCHS[noise]


def wide_instance(horizon):
    """Three players, five arms (K > N), so two arms stay unmatched every
    round and the players' rankings reach past the matched arms; two change
    events move a player's favourite mid-run."""
    utilities = ((3.0, 1.0, 2.0), (1.0, 2.0, 3.0), (2.0, 3.0, 1.0),
                 (3.0, 2.0, 1.0), (1.0, 3.0, 2.0))
    initial = ((0.9, 0.7, 0.5, 0.3, 0.1),
               (0.2, 0.8, 0.6, 0.4, 0.0),
               (0.5, 0.3, 0.9, 0.1, 0.7))
    events = (ChangeEvent(horizon // 3, 1, 4, 0.95),
              ChangeEvent(2 * horizon // 3, 2, 0, 0.05))
    return MarketInstance(3, 5, utilities), MeanRewardTimeline(horizon, initial, events)


@pytest.mark.parametrize("noise", ["gaussian", "uniform"])
def test_wide_market_trace_csv_matches_golden_digest(tmp_path, noise):
    market, timeline = wide_instance(2_000)
    trace = run_rcb(SimulationConfig(2_000, seed=7, noise=noise), market, timeline)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert _sha256(path) == GOLDEN_WIDE[noise]
