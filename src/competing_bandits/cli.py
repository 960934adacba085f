"""Command line driver: single runs, grid sweeps, config linting, and the
deferred-acceptance-vs-enumeration self check.

Exit codes: 0 success, 1 any rejected input (usage errors too), 2 oracle mismatch.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig, GeneratorSpec, echo_config, parse_config, resolve_instance
from .engine import (SimulationConfig, _TraceStream, regret_report, run_rcb, run_rcb_seeds,
                     write_trace_csv)
from .errors import CompetingBanditsError, ConfigError, InputError, _check_choice, _check_integer
from .market import (
    ENUMERATION_LIMIT,
    MarketInstance,
    RankOrdering,
    deferred_acceptance,
    enumerate_stable_matchings,
)
from .meta import run_rcb_meta, write_epoch_summary_csv

SWEEP_COLUMNS = ("grid_value", "mean_regret", "std_regret", "seeds", "restart_period")


@dataclass(frozen=True)
class SweepRow:
    grid_value: int
    mean_regret: float
    std_regret: float
    seeds: tuple[int, ...]
    restart_period: int


def _sim_config(config: ExperimentConfig, seed: int = 0) -> SimulationConfig:
    return SimulationConfig(config.horizon, config.restart_period, seed, config.noise,
                            config.baseline)


def run_sweep(config: ExperimentConfig, grid_key: str,
              grid_values: Sequence[int]) -> list[SweepRow]:
    """Average the max-over-players final regret, against the config's
    baseline, across seeds for each grid point. Grid keys: T (horizon), L
    (change count), H (restart period); the values must not repeat, T and L
    require a [generator] config, and the mode must be rcb."""
    return _sweep_rows(config, _sweep_points(config, grid_key, grid_values))


def _sweep_points(config: ExperimentConfig, grid_key: str, grid_values: Sequence[int]) -> list:
    """Each grid point's (value, config, market, timeline), all validated
    and resolved before any point runs, so a bad one fails early."""
    _check_choice("--grid", grid_key, ("T", "L", "H"))
    if len(set(grid_values)) < len(grid_values):
        raise InputError(f"values must not repeat, got {list(grid_values)}", f"--grid {grid_key}")
    if config.mode == "meta":
        raise ConfigError("rcb sweep runs mode rcb only, got 'meta'", "[experiment] mode")
    spec = config.instance
    if grid_key != "H" and not isinstance(spec, GeneratorSpec):
        raise ConfigError("sweeping T or L requires a [generator] section", f"--grid {grid_key}")
    shared = resolve_instance(config) if grid_key == "H" else None  # every H point runs it
    points = []
    for value in grid_values:
        try:
            if grid_key == "T":
                point = replace(config, horizon=value)
            elif grid_key == "H":
                point = replace(config, restart_period=value)
            else:  # a point at the spec's own change count keeps its fractions
                fractions = spec.change_fractions if value == spec.n_changes else None
                point = replace(config, instance=replace(spec, n_changes=value,
                                                         change_fractions=fractions))
            points.append((value, point, *(shared or resolve_instance(point))))
        except InputError as exc:  # named by the point, its field unqualified as in a run config
            raise type(exc)(str(exc).removeprefix("generator."),
                            f"--grid {grid_key}={value}") from None
    return points


def _sweep_rows(config: ExperimentConfig, points: list) -> list[SweepRow]:
    rows = []
    for value, point, market, timeline in points:
        traces = run_rcb_seeds(_sim_config(point), market, timeline, config.seeds)
        finals = [float(regret_report(trace).final().max()) for trace in traces]
        period = traces[0].restart_period
        del traces  # free this point's arrays before the next point allocates its own
        rows.append(SweepRow(value, statistics.fmean(finals), statistics.pstdev(finals),
                             config.seeds, period))
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path, grid_key: str,
                    config: ExperimentConfig) -> None:
    with open(path, "w", newline="") as fh:
        for key, value in echo_config(config):
            fh.write(f"# {key} = {value}\n")
        fh.write(f"# grid_key = {grid_key}\n")
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([
                row.grid_value,
                repr(row.mean_regret),
                repr(row.std_regret),
                " ".join(str(s) for s in row.seeds),
                row.restart_period,
            ])


def random_market_and_orderings(
    n_players: int, n_arms: int, rng: np.random.Generator,
) -> tuple[MarketInstance, list[RankOrdering]]:
    """Uniform random strict market plus random player orderings."""
    utilities = tuple(tuple(float(v) for v in rng.permutation(n_players)) for _ in range(n_arms))
    market = MarketInstance(n_players, n_arms, utilities)
    orderings = [
        RankOrdering(i, tuple(int(a) for a in rng.permutation(n_arms)))
        for i in range(n_players)
    ]
    return market, orderings


def oracle_check(n_instances: int, sizes: Sequence[int], seed: int) -> list[str]:
    """Cross-validate both DA orientations against exhaustive enumeration.

    Returns a list of mismatch descriptions (empty means all clean). Each
    instance draws N from ``sizes`` (non-empty, each in [1,
    ``ENUMERATION_LIMIT``]) and K uniformly from N to the largest size,
    then checks that player-proposing DA matches the enumeration's
    player-optimal element and arm-proposing DA its player-pessimal one.
    """
    n_instances = _check_integer("n_instances", n_instances, least=1)
    sizes = [_check_integer("sizes", size, least=1, most=ENUMERATION_LIMIT) for size in sizes]
    if not sizes:
        raise InputError("must hold at least one size", "sizes")
    rng = np.random.default_rng(_check_integer("seed", seed, least=0))
    k_max = max(sizes)
    mismatches = []
    for idx in range(n_instances):
        n = int(rng.choice(sizes))
        k = int(rng.integers(n, k_max + 1))
        market, orderings = random_market_and_orderings(n, k, rng)
        stable = enumerate_stable_matchings(orderings, market)
        positions = [{m.assignment[p] for m in stable} for p in range(n)]
        best = tuple(min(positions[p], key=orderings[p].position_of) for p in range(n))
        worst = tuple(max(positions[p], key=orderings[p].position_of) for p in range(n))
        da_opt = deferred_acceptance(orderings, market, "players").assignment
        da_pess = deferred_acceptance(orderings, market, "arms").assignment
        if da_opt != best:
            mismatches.append(
                f"instance {idx} (N={n}, K={k}): player-proposing DA {da_opt} != optimal {best}"
            )
        if da_pess != worst:
            mismatches.append(
                f"instance {idx} (N={n}, K={k}): arm-proposing DA {da_pess} != pessimal {worst}"
            )
    return mismatches


def _print_echo(config: ExperimentConfig) -> None:
    print("resolved configuration:")
    for key, value in echo_config(config):
        print(f"  {key} = {value}")


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated flag value; InputError names the flag."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}", flag) from None


def _out_dir(args, config: ExperimentConfig) -> Path:
    """The output directory, made now; an error names the flag or key that
    gave the path."""
    out_dir = Path(args.out or config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        source = "--out" if args.out else "[experiment] out"
        raise InputError(f"cannot make directory {str(out_dir)!r}: {exc.strerror}",
                         source) from None
    return out_dir


def _cmd_validate(args) -> int:
    config = parse_config(args.config)
    _print_echo(config)
    print("config OK")
    return 0


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    # Overrides replace config fields, so the echo and trace headers show what ran.
    overrides = {} if args.mode is None else {"mode": args.mode}
    if args.seed is not None:
        overrides["seeds"] = tuple(_int_list(args.seed, "--seed"))
    try:
        config = replace(config, **overrides)
    except InputError as exc:  # a seeds rule, or a meta rule that --mode brought in
        raise type(exc)(exc.message, "--seed" if exc.field == "seeds"
                        else f"--mode {args.mode}") from None
    out_dir = _out_dir(args, config)
    _print_echo(config)
    metadata = echo_config(config)
    market, timeline = resolve_instance(config)
    for seed in config.seeds:
        trace_path = out_dir / f"trace_{config.mode}_seed{seed}.csv"
        if config.mode == "meta":  # the trace CSV is written while the epochs play
            export = _TraceStream(trace_path, metadata)
            trace = run_rcb_meta(_sim_config(config, seed), market, timeline, export=export)
            final = export.final
            write_epoch_summary_csv(trace, out_dir / f"epochs_seed{seed}.csv")
        else:
            trace = run_rcb(_sim_config(config, seed), market, timeline)
            final = write_trace_csv(trace, trace_path, extra_metadata=metadata)
        print(f"seed {seed}: wrote {trace_path} "
              f"(max-player {trace.baseline} regret {final.max():.4f})")
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    grid_key, eq, raw = args.grid.partition("=")
    if not eq:
        raise InputError("must look like KEY=v1,v2,... with integer values", "--grid")
    grid_key = grid_key.strip()
    points = _sweep_points(config, grid_key, _int_list(raw, f"--grid {grid_key}"))
    out_dir = _out_dir(args, config)
    rows = _sweep_rows(config, points)
    path = out_dir / f"sweep_{grid_key}.csv"
    write_sweep_csv(rows, path, grid_key, config)
    print(f"wrote {path}")
    for row in rows:
        print(f"  {grid_key}={row.grid_value}: mean_regret={row.mean_regret:.4f} "
              f"std={row.std_regret:.4f} H={row.restart_period}")
    return 0


def _cmd_oracle_check(args) -> int:
    sizes = _int_list(args.sizes, "--sizes")
    try:
        mismatches = oracle_check(args.instances, sizes, args.seed)
    except InputError as exc:  # named by the flag that gave the field
        raise type(exc)(exc.message, "--instances" if exc.field == "n_instances"
                        else f"--{exc.field}") from None
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH: {line}", file=sys.stderr)
        return 2
    print(f"oracle check passed: {args.instances} instances, sizes {sizes}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error leaves through main, exit 1
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rcb",
        description="Restart-based bandit learning in two-sided matching markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment per seed, write trace CSVs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", help="comma-separated seed list overriding the config")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--mode", help="rcb or meta, overriding the config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid sweep, write a summary CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", required=True, help="KEY=v1,v2,... with KEY in {T,L,H}")
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="cross-validate deferred acceptance against brute-force enumeration",
    )
    p_oracle.add_argument("--instances", type=int, default=200)
    p_oracle.add_argument("--sizes", default="2,3,4", help="N sizes; K is drawn in [N, max N]")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle_check)

    p_validate = sub.add_parser("validate", help="parse and lint a config file")
    p_validate.add_argument("--config", required=True)
    p_validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CompetingBanditsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
