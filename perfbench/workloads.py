"""The benchmark's workloads: inputs made from a workload seed, the work of
one pass, the checks on its output and the call counts it implies.

Each workload is generated from the workload seed alone; the program only
sees the generated config file. See ``reference.json`` for why each
workload was chosen and which layer metric should move which end-to-end
metric on it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "meta" (rcb run --mode meta), "sweep" (rcb sweep), "library" (run_rcb)
    n_players: int
    n_arms: int
    horizon: int
    changes: int
    # Gap floor with (n_arms - 1) * 2 * delta < 1, so every change event
    # always has room for a new mean in the generator.
    delta: float
    noise: str
    run_seeds: int
    grid: tuple[int, ...] = ()

    @property
    def runs(self) -> int:
        return self.run_seeds * max(1, len(self.grid))

    @property
    def rounds(self) -> int:
        return self.horizon * self.runs


WORKLOADS = {
    w.name: w
    for w in (
        # T is not a perfect square, so the short last epoch runs.
        Workload("meta_export", "meta", 3, 3, 60_000, 20, 0.2, "gaussian", 1),
        Workload("sweep_H", "sweep", 4, 6, 3_000, 6, 0.08, "uniform", 8, (1, 10, 100, 1000)),
        Workload("large_market", "library", 20, 20, 10_000, 10, 0.02, "gaussian", 1),
    )
}


def make_config(workload: Workload, seed: int) -> str:
    """INI text of the workload at ``seed``: the generator seed and the run
    seeds are drawn from it."""
    rng = random.Random(f"{workload.name}/{seed}")
    generator_seed = rng.randrange(2**31)
    run_seeds = [rng.randrange(2**31) for _ in range(workload.run_seeds)]
    mode = "meta" if workload.kind == "meta" else "rcb"
    return (
        "[experiment]\n"
        "version = 1\n"
        f"horizon = {workload.horizon}\n"
        f"mode = {mode}\n"
        f"seeds = {', '.join(str(s) for s in run_seeds)}\n"
        f"noise = {workload.noise}\n"
        "out = out\n"
        "\n"
        "[generator]\n"
        f"seed = {generator_seed}\n"
        f"n_players = {workload.n_players}\n"
        f"n_arms = {workload.n_arms}\n"
        f"delta = {workload.delta!r}\n"
        f"changes = {workload.changes}\n"
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


class PassWork:
    """Set-up, measured work, checks and expected call counts of one pass.

    ``setup`` parses the config and builds the instance. ``run`` is the
    measured work: the simulation, ``regret_report`` and any export.
    ``check`` inspects the artifacts after timing stops and returns the
    digests, a list of failed checks and the expected call counts.
    """

    def __init__(self, workload: Workload, workdir: Path, package):
        self.workload = workload
        self.config_path = workdir / "workload.ini"
        self.out = workdir / "out"
        self.pkg = package
        self.config = None
        self.market = self.timeline = None
        self.report = self.trace = None

    def setup(self) -> None:
        config_mod = self.pkg.config
        self.config = config_mod.parse_config(self.config_path)
        self.market, self.timeline = config_mod.resolve_instance(self.config)

    def run(self) -> None:
        w, pkg = self.workload, self.pkg
        paths = ["--config", str(self.config_path), "--out", str(self.out)]
        if w.kind == "meta":
            argv = ["run", "--mode", "meta"] + paths
        elif w.kind == "sweep":
            argv = ["sweep", "--grid", "H=" + ",".join(str(h) for h in w.grid)] + paths
        else:
            sim = pkg.engine.SimulationConfig(
                horizon=w.horizon, seed=self.config.seeds[0],
                noise=self.config.noise, baseline=self.config.baseline,
            )
            self.trace = pkg.engine.run_rcb(sim, self.market, self.timeline)
            self.report = pkg.engine.regret_report(self.trace)
            return
        code = pkg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rcb {argv[0]} exited with code {code}")

    def check(self) -> tuple[dict, list[str], dict]:
        w = self.workload
        errors: list[str] = []
        n, horizon = w.n_players, w.horizon
        expected = {
            "config.parse_config": 1,
            "config.resolve_instance": 1,
            "market.deferred_acceptance": w.rounds,
            "environment.sample_reward": w.rounds * n,
            "learner.rank_ordering": w.rounds * n,
            "learner.observe": w.rounds * n,
            "environment.stable_benchmarks": w.runs,
        }
        if w.kind == "meta":
            digests, blocks = self._check_meta(errors)
            expected.update({
                "cli.main": 1, "config.parse_config": 2, "config.resolve_instance": 2,
                "meta.run_rcb_meta": 1, "meta.exp3_select": self._epoch_count(),
                "meta.exp3_update": self._epoch_count(),
                # one inside write_trace_csv, one for the printed summary
                "engine.regret_report": 2,
                "engine.write_trace_csv": 1, "meta.write_epoch_summary_csv": 1,
                "learner.restart": n * blocks,
            })
        elif w.kind == "sweep":
            digests = self._check_sweep(errors)
            blocks = w.run_seeds * sum(math.ceil(horizon / min(h, horizon)) for h in w.grid)
            expected.update({
                "cli.main": 1, "config.parse_config": 2,
                "config.resolve_instance": 1 + w.runs,
                "engine.run_rcb": w.runs, "engine.regret_report": w.runs,
                "learner.restart": n * blocks,
            })
        else:
            digests = self._check_library(errors)
            period = self.pkg.engine.compute_restart_period(horizon, w.changes)
            expected.update({
                "engine.run_rcb": 1, "engine.regret_report": 1,
                "learner.restart": n * math.ceil(horizon / period),
            })
        return digests, errors, expected

    def trace_csv(self) -> Path:
        return self.out / f"trace_meta_seed{self.config.seeds[0]}.csv"

    def _epoch_count(self) -> int:
        return self.pkg.meta.build_ensemble(self.workload.horizon).epoch_count

    def _check_meta(self, errors: list[str]) -> tuple[dict, int]:
        import numpy as np

        w = self.workload
        trace_path = self.trace_csv()
        epochs_path = self.out / f"epochs_seed{self.config.seeds[0]}.csv"
        header, rows = _data_rows(trace_path)
        col = {name: i for i, name in enumerate(header)}
        if len(rows) != w.horizon * w.n_players:
            errors.append(f"trace has {len(rows)} rows, expected {w.horizon * w.n_players}")
            return {}, 0
        columns = list(zip(*rows))
        shape = (w.horizon, w.n_players)
        arms = np.array(columns[col["matched_arm"]], dtype=np.int64).reshape(shape)
        _check_matchings(arms, w.n_arms, errors)
        inc = np.array(columns[col["regret_increment"]], dtype=float).reshape(shape)
        cum = np.array(columns[col["cumulative_regret"]], dtype=float).reshape(shape)
        _check_running_sum(inc, cum, errors)
        epochs_in_trace = int(rows[-1][col["epoch_index"]]) + 1
        _, epoch_rows = _data_rows(epochs_path)
        expected_epochs = self._epoch_count()
        if not (len(epoch_rows) == epochs_in_trace == expected_epochs):
            errors.append(f"epoch count: summary {len(epoch_rows)}, trace {epochs_in_trace}, "
                          f"build_ensemble {expected_epochs}")
        blocks = int(rows[-1][col["block_index"]])
        return {"trace_csv": _sha256(trace_path), "epoch_csv": _sha256(epochs_path)}, blocks

    def _check_sweep(self, errors: list[str]) -> dict:
        w = self.workload
        path = self.out / "sweep_H.csv"
        header, rows = _data_rows(path)
        col = {name: i for i, name in enumerate(header)}
        grid = [int(r[col["grid_value"]]) for r in rows]
        if grid != list(w.grid):
            errors.append(f"sweep grid {grid}, expected {list(w.grid)}")
        for r in rows:
            if int(r[col["restart_period"]]) != min(int(r[col["grid_value"]]), w.horizon):
                errors.append(f"sweep row {r[0]}: restart period {r[col['restart_period']]}")
            if len(r[col["seeds"]].split()) != w.run_seeds:
                errors.append(f"sweep row {r[0]}: seed list {r[col['seeds']]!r}")
            mean, std = float(r[col["mean_regret"]]), float(r[col["std_regret"]])
            if not (math.isfinite(mean) and math.isfinite(std) and std >= 0):
                errors.append(f"sweep row {r[0]}: mean {mean}, std {std}")
        return {"sweep_csv": _sha256(path)}

    def _check_library(self, errors: list[str]) -> dict:
        import numpy as np

        w = self.workload
        arms = np.array(self.trace.matchings)
        if arms.shape != (w.horizon, w.n_players):
            errors.append(f"trace matchings have shape {arms.shape}")
        else:
            _check_matchings(arms, w.n_arms, errors)
        _check_running_sum(self.report.increments, self.report.cumulative, errors)
        digest = hashlib.sha256(self.report.cumulative.tobytes()).hexdigest()
        return {"cumulative_regret": digest}


def _check_matchings(arms, n_arms: int, errors: list[str]) -> None:
    """Every round's assignment is injective and inside [0, n_arms)."""
    if arms.min() < 0 or arms.max() >= n_arms:
        errors.append("matched arm out of range")
    ordered = arms.copy()
    ordered.sort(axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        errors.append("a matching assigns one arm to two players")


def _check_running_sum(increments, cumulative, errors: list[str]) -> None:
    import numpy as np

    if not np.array_equal(np.cumsum(increments, axis=0), cumulative):
        errors.append("cumulative regret is not the running sum of the increments")
