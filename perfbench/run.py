"""Benchmark of the competing_bandits simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload meta_export --seed 0 --seconds 40 --trace 0

The workload's config is generated from ``--seed``. Passes run one after
another in fresh interpreters (one client, one process, closed loop) for
``--seconds`` seconds; each pass sets up, does the measured work and checks
its output. With ``--trace 0`` every pass is untraced and the end-to-end
metrics of BENCHMARK.json are reported as medians over the passes, with
each pass's timings scaled to the reference host speed that
``calibration.py`` samples during the pass (unscaled medians are printed
too). With
``--trace 1`` untraced and traced passes alternate; the per-layer metrics
of BENCHMARK.json come from the traced passes and ``trace.overhead`` from
the two kinds together. Human-readable lines come first; the last line of
standard output is one JSON object with the result. Per-pass details and
the host record are saved under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_config  # noqa: E402

BARE_START = "import time, numpy; print(time.perf_counter_ns())"

# Every run must end within 180 s; no pass starts once this has elapsed
# and a running pass is killed at it.
RUN_LIMIT_S = 165.0


def _steal_s() -> float | None:
    """Cumulative steal time of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _host() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def _bare_start_s() -> float:
    """Time from spawning a bare interpreter to the end of its numpy
    import: the host's cost for the bulk of a pass's set-up, with nothing
    of the program in it."""
    spawn_ns = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", BARE_START], capture_output=True,
                          text=True, timeout=60, check=True)
    return (int(proc.stdout) - spawn_ns) / 1e9


def _run_pass(workload: str, workdir: Path, traced: bool, index: int, timeout: float) -> dict:
    result_path = workdir / f"pass-{index}.json"
    begin_ns = time.perf_counter_ns()
    bare = [] if traced else [_bare_start_s()]
    steal_before = _steal_s()
    spawn_ns = time.perf_counter_ns()
    argv = [sys.executable, str(HERE / "one_pass.py"), workload, str(workdir),
            "1" if traced else "0", str(spawn_ns), str(result_path)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        result = {"errors": [f"pass killed after {timeout:.0f} s"]}
    else:
        if result_path.exists():
            result = json.loads(result_path.read_text())
        else:
            result = {"errors": [f"pass exited with code {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}"]}
        if proc.returncode != 0 and not result["errors"]:
            result["errors"].append(f"pass exited with code {proc.returncode}")
    steal_after = _steal_s()
    if bare:
        bare.append(_bare_start_s())
        result["bare_start_s"] = statistics.fmean(bare)
    result["traced"] = traced
    result["elapsed_s"] = (time.perf_counter_ns() - begin_ns) / 1e9
    result["steal_s"] = None if steal_before is None else steal_after - steal_before
    return result


def _run_passes(workload: str, workdir: Path, seconds: float, trace: bool) -> list[dict]:
    """Closed loop: the next pass starts when the previous one has ended,
    as long as it is expected to end within ``seconds``."""
    kinds = [False, True] if trace else [False]
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        elapsed = time.monotonic() - start
        same = [p["elapsed_s"] for p in passes if p["traced"] == traced]
        done_once = len(passes) >= len(kinds)
        if done_once and (elapsed + statistics.median(same) > seconds
                          or elapsed > RUN_LIMIT_S / 2):
            return passes
        passes.append(_run_pass(workload, workdir, traced, len(passes), RUN_LIMIT_S - elapsed))
        if passes[-1]["errors"] and "wall_s" not in passes[-1]:
            return passes  # a crash repeats; stop rather than loop until the deadline


def _judge(passes: list[dict], expected_digests: dict | None) -> None:
    """Mark each pass failed or not: its own checks, identical digests in
    every pass (traced or not), and the recorded digests at the default
    seed."""
    first = next((p["digests"] for p in passes if "digests" in p), None)
    for p in passes:
        if "digests" not in p:
            continue
        if p["digests"] != first:
            p["errors"].append(f"digests {p['digests']} differ from the first pass's {first}")
        if expected_digests is not None and p["digests"] != expected_digests:
            p["errors"].append(f"digests {p['digests']} differ from the recorded "
                               f"{expected_digests}")


def _scale(passes: list[dict], reference: dict) -> None:
    """Add each pass's timings at the reference host speed. The host's
    speed for the measured work is the reference calibration time over the
    mean calibration time sampled during that work; its speed for set-up is
    the reference bare start-up time over the mean of the two bare
    start-ups timed around the pass."""
    for p in passes:
        speed = reference["calibration_reference_s"] / p["calibration_s"]
        start_speed = reference["bare_start_reference_s"] / p["bare_start_s"]
        p["host_speed"] = speed
        p["host_start_speed"] = start_speed
        p["scaled_rounds_per_s"] = p["rounds_per_s"] / speed
        p["scaled_setup_s"] = p["setup_s"] * start_speed
        p["scaled_wall_s"] = p["scaled_setup_s"] + p["work_s"] * speed


def _median(passes: list[dict], key: str):
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else None


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples above it ({n} samples)"
    ordered = sorted(values)
    q = 100.0 * (n - 10) / n
    return f"p{q:.0f} = {ordered[n - 11]:.4f} s ({n} samples)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "competing_bandits" / "__init__.py").is_file():
        print(f"error: no competing_bandits sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload]
    trace = args.trace == 1

    workdir = ROOT / ".perfbench" / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (workdir / "workload.ini").write_text(make_config(workload, args.seed))
        passes = _run_passes(workload.name, workdir, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recorded = None
    if args.seed == reference["digests_seed"]:
        recorded = reference["digests"][workload.name]
    _judge(passes, recorded)
    failed = sum(1 for p in passes if p["errors"])
    untraced = [p for p in passes
                if not p["traced"] and "calibration_s" in p and "bare_start_s" in p]
    traced = [p for p in passes if p["traced"] and "layers" in p]
    host = _host()

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} ({len(untraced)} untraced, {len(traced)} traced)")
    print(f"host: python {host['python']}, numpy {host['numpy']}, nproc {host['nproc']}, "
          f"cpu {host['cpu_model']}; steal per pass (s) {[p['steal_s'] for p in passes]}")
    for p in passes:
        for error in p["errors"]:
            print(f"FAILED pass: {error}")
    print(f"  error_rate = {failed / len(passes)} failed/attempted ({failed}/{len(passes)})")
    digests = next((p["digests"] for p in passes if "digests" in p), {})
    if recorded is None:
        status = "no recorded digests at this seed"
    else:
        status = "match" if digests == recorded else "DIFFER from"
        status += " the recorded digests"
    print(f"  digests ({status}): {digests}")

    metrics = {}
    if not trace:
        _scale(untraced, reference)
        metrics = {
            "rounds_per_s": _median(untraced, "scaled_rounds_per_s"),
            "wall_s": _median(untraced, "scaled_wall_s"),
            "setup_s": _median(untraced, "scaled_setup_s"),
            "peak_rss_mib": _median(untraced, "peak_rss_mib"),
        }
        specs = bench["end_to_end"]
        if untraced:
            print(f"  host speed (reference time / this run's): calibration kernel "
                  f"{_median(untraced, 'host_speed'):.4f}, bare start-up "
                  f"{_median(untraced, 'host_start_speed'):.4f}; unscaled medians: rounds_per_s "
                  f"{_median(untraced, 'rounds_per_s'):.6g} rounds/s, wall_s "
                  f"{_median(untraced, 'wall_s'):.6g} s, setup_s "
                  f"{_median(untraced, 'setup_s'):.6g} s")
        print(f"  wall_s tail: {_tail([p['scaled_wall_s'] for p in untraced])}")
        baseline = reference["layer_map"][workload.name].get("reference_us_per_round")
        if baseline and metrics["rounds_per_s"]:
            print(f"  us_per_round = {1e6 / metrics['rounds_per_s']:.1f} us; ROADMAP baseline "
                  f"{baseline['roadmap_baseline_n20']} us at N=K=20, for reference only")
    else:
        if traced:
            for name in traced[0]["layers"]:
                # median_low keeps exact counts integral: it returns a sample
                metrics[name] = statistics.median_low(p["layers"][name] for p in traced)
            untraced_wall = _median(untraced, "wall_s")
            if untraced_wall:
                metrics["trace.overhead"] = _median(traced, "wall_s") / untraced_wall - 1
            print("  coverage (wrapped function: expected calls / observed calls):")
            for name, (want, seen) in traced[0]["coverage"].items():
                note = "ok" if seen == want else "differs"
                if seen == 0:
                    note = "unobserved" + (" (not on this workload's path)" if want == 0 else "")
                print(f"    {name:32s} {want:>9d} / {seen:<9d} {note}")
        specs = bench["per_layer"]

    report = {}
    for spec in specs:
        value = metrics.get(spec["name"])
        if value is None:
            print(f"  {spec['name']} = missing")
            continue
        report[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']} = {value:.6g} {spec['unit']}")

    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    saved = {"host": host, "args": vars(args), "metrics": report, "passes": passes}
    results = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(saved, indent=1))

    correct = failed == 0 and len(report) == len(specs)
    print(json.dumps({"correct": correct, "attempted": len(passes), "failed": failed,
                      "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
