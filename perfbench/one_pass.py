"""One benchmark pass in a fresh interpreter.

Usage (started by ``run.py``, once per pass):

    python perfbench/one_pass.py WORKLOAD WORKDIR TRACE SPAWN_NS RESULT

``SPAWN_NS`` is the parent's ``perf_counter_ns`` just before it started
this process; on Linux that clock is system-wide, so set-up and wall time
include interpreter start-up. The pass imports the package from the
checkout's ``src``, sets up, does the measured work, then checks its
artifacts and writes a JSON result to ``RESULT``.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _pass(workload_name: str, workdir: Path, traced: bool, spawn_ns: int) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (import cost belongs to set-up)

    import competing_bandits
    import competing_bandits.cli  # noqa: F401

    from calibration import Sampler
    from tracing import Tracer, layer_metrics, wrapper_cost_ns
    from workloads import WORKLOADS, PassWork

    if Path(competing_bandits.__file__).resolve().parent != SRC / "competing_bandits":
        raise RuntimeError(f"imported {competing_bandits.__file__}, not the checkout's {SRC}")
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install("competing_bandits")
    work = PassWork(WORKLOADS[workload_name], workdir, competing_bandits)

    work.setup()
    setup_end = time.perf_counter_ns()
    # Untraced passes sample the host's speed during the measured work
    # (see calibration.py); the sampler's own time is taken out of it.
    sampler = Sampler()
    start = time.perf_counter_ns()
    if traced:
        work.run()
    else:
        with sampler:
            work.run()
    end = time.perf_counter_ns() - sampler.busy_ns
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": (setup_end - spawn_ns) / 1e9,
        "work_s": (end - start) / 1e9,
        "rounds": work.workload.rounds,
        "peak_rss_mib": peak_rss_kib / 1024,
    }
    result["wall_s"] = result["setup_s"] + result["work_s"]
    result["rounds_per_s"] = result["rounds"] / result["work_s"]
    digests, errors, expected = work.check()
    if sampler.times:
        result["calibration_s"] = statistics.fmean(sampler.times)
        result["calibration_samples"] = len(sampler.times)
    elif not traced:
        errors.append("no host-speed sample was taken during the measured work")
    result.update(digests=digests, errors=errors)
    if tracer is not None:
        totals = tracer.totals()
        export_rows = export_bytes = 0
        if totals["engine.write_trace_csv"][0]:
            export_rows = work.workload.horizon * work.workload.n_players
            export_bytes = work.trace_csv().stat().st_size
        layers = layer_metrics(tracer, end - spawn_ns, export_rows, export_bytes)
        layers["trace.wrapper_ns_per_call"] = wrapper_cost_ns()
        result["layers"] = layers
        result["coverage"] = {
            name: [expected.get(name, 0), s[0]] for name, s in totals.items()
        }
        result["spans"] = [
            {"caller": caller, "span": name, "calls": e[0], "total_ns": e[1], "self_ns": e[2]}
            for (caller, name), e in tracer.edges.items()
        ]
    shutil.rmtree(work.out, ignore_errors=True)
    return result


def main(argv: list[str]) -> int:
    workload_name, workdir, traced, spawn_ns, result_path = argv
    try:
        result = _pass(workload_name, Path(workdir), traced == "1", int(spawn_ns))
    except Exception:
        result = {"errors": [traceback.format_exc()]}
    Path(result_path).write_text(json.dumps(result))
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
