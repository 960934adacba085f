"""Outside-in layer tracing for one benchmark pass.

The program is not edited: each public function is replaced, at the module
(or class) attribute its caller looks up, by a wrapper that times the call
with ``perf_counter_ns``. A span's self time is its duration minus the
durations of the spans nested inside it. Spans are aggregated in memory per
(caller span, span) edge and handed back when the pass ends; per-call
records would cost tens of bytes for each of the ~10^6 calls a pass makes.

Three waste ratios are counted inside the wrappers from the call arguments
alone: repeated deferred-acceptance inputs, instance resolutions per
distinct instance, and stable-benchmark builds per distinct timeline.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, module or class path, attribute). Several attributes may
# hold the same function; they share one span name. Modules are addressed
# relative to the ``competing_bandits`` package.
WRAP_POINTS = (
    ("cli.main", "cli", "main"),
    ("config.parse_config", "cli", "parse_config"),
    ("config.parse_config", "config", "parse_config"),
    ("config.resolve_instance", "cli", "resolve_instance"),
    ("config.resolve_instance", "config", "resolve_instance"),
    ("engine.run_rcb", "cli", "run_rcb"),
    ("engine.run_rcb", "engine", "run_rcb"),
    ("meta.run_rcb_meta", "cli", "run_rcb_meta"),
    ("engine.regret_report", "cli", "regret_report"),
    ("engine.regret_report", "engine", "regret_report"),
    ("engine.write_trace_csv", "cli", "write_trace_csv"),
    ("meta.write_epoch_summary_csv", "cli", "write_epoch_summary_csv"),
    ("market.deferred_acceptance", "engine", "deferred_acceptance"),
    ("environment.sample_reward", "engine", "sample_reward"),
    ("environment.stable_benchmarks", "engine", "stable_benchmarks"),
    ("environment.stable_benchmarks", "meta", "stable_benchmarks"),
    ("meta.exp3_select", "meta", "exp3_select"),
    ("meta.exp3_update", "meta", "exp3_update"),
    ("learner.rank_ordering", "learner.UcbState", "rank_ordering"),
    ("learner.observe", "learner.UcbState", "observe"),
    ("learner.restart", "learner.UcbState", "restart"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in WRAP_POINTS))


class Tracer:
    """Span statistics for one process.

    ``edges[(caller, name)]`` is ``[calls, total_ns, self_ns]`` of span
    ``name`` inside span ``caller`` (``None`` at the top level).
    """

    def __init__(self):
        self.edges = {}
        self._stack = []  # [name, child_ns] per open span
        self.da_calls = 0
        self.da_repeats = 0
        self._da_previous = None
        self.instances = set()
        self.timelines = set()

    def wrap(self, name, fn, before=None):
        """Return ``fn`` wrapped in a span named ``name``. ``before``, if
        given, sees the call arguments first (for the waste counters)."""
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                caller = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += own

        return functools.wraps(fn)(traced)

    def totals(self) -> dict:
        """``[calls, total_ns, self_ns]`` per span name, over all callers."""
        out = {name: [0, 0, 0] for name in SPAN_NAMES}
        for (_, name), edge in self.edges.items():
            out[name] = [a + b for a, b in zip(out[name], edge)]
        return out

    # Waste counters, fed the positional and keyword arguments of a call.

    def _see_da(self, args, kwargs):
        side = args[2] if len(args) > 2 else kwargs.get("proposing_side", "players")
        key = (tuple(args[0]), args[1], side)
        self.da_calls += 1
        if key == self._da_previous:
            self.da_repeats += 1
        self._da_previous = key

    def _see_instance(self, args, kwargs):
        config = args[0]
        horizon = args[1] if len(args) > 1 else kwargs.get("horizon")
        n_changes = args[2] if len(args) > 2 else kwargs.get("n_changes")
        self.instances.add((config, horizon, n_changes))

    def _see_timeline(self, args, kwargs):
        timeline, market = args[0], args[1]
        self.timelines.add((timeline.horizon, timeline.mu_bar, timeline.initial_means,
                            timeline.events, market))

    def install(self, package):
        """Replace every attribute in WRAP_POINTS by its traced wrapper."""
        counters = {
            "market.deferred_acceptance": self._see_da,
            "config.resolve_instance": self._see_instance,
            "environment.stable_benchmarks": self._see_timeline,
        }
        wrappers = {}
        for name, owner_path, attr in WRAP_POINTS:
            module_path, _, class_name = owner_path.partition(".")
            owner = importlib.import_module(f"{package}.{module_path}")
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            key = (name, id(original))
            if key not in wrappers:
                wrappers[key] = self.wrap(name, original, counters.get(name))
            setattr(owner, attr, wrappers[key])


def wrapper_cost_ns(repeats: int = 50_000) -> float:
    """Cost per call of an empty traced wrapper, net of the bare call,
    measured in this process (best of five batches)."""

    def empty():
        return None

    traced = Tracer().wrap("cli.main", empty)
    clock = time.perf_counter_ns
    best_bare = best_traced = float("inf")
    loop = range(repeats)
    for _ in range(5):
        start = clock()
        for _ in loop:
            empty()
        best_bare = min(best_bare, clock() - start)
        start = clock()
        for _ in loop:
            traced()
        best_traced = min(best_traced, clock() - start)
    return max(best_traced - best_bare, 0) / repeats


def layer_metrics(tracer: Tracer, wall_ns: int, trace_csv_rows: int,
                  trace_csv_bytes: int) -> dict:
    """Per-layer metrics of one traced pass. ``wall_ns`` is the traced pass
    from interpreter start to the end of the measured work."""
    stats = tracer.totals()

    def calls(name):
        return stats[name][0]

    def per_call(name):
        c, _, own = stats[name]
        return own / c if c else 0.0

    def share(name):
        return stats[name][2] / wall_ns

    def seconds(name):
        return stats[name][1] / 1e9

    def ratio(count, distinct):
        return count / len(distinct) if distinct else 0.0

    top_level = sum(edge[1] for (caller, _), edge in tracer.edges.items() if caller is None)
    export_s = seconds("engine.write_trace_csv")
    return {
        "learner.rank_ordering.calls": calls("learner.rank_ordering"),
        "learner.rank_ordering.ns_per_call": per_call("learner.rank_ordering"),
        "learner.rank_ordering.share": share("learner.rank_ordering"),
        "learner.observe.ns_per_call": per_call("learner.observe"),
        "learner.restart.calls": calls("learner.restart"),
        "market.deferred_acceptance.calls": calls("market.deferred_acceptance"),
        "market.deferred_acceptance.ns_per_call": per_call("market.deferred_acceptance"),
        "market.deferred_acceptance.share": share("market.deferred_acceptance"),
        "market.deferred_acceptance.repeat_input_share":
            tracer.da_repeats / tracer.da_calls if tracer.da_calls else 0.0,
        "environment.sample_reward.calls": calls("environment.sample_reward"),
        "environment.sample_reward.ns_per_call": per_call("environment.sample_reward"),
        "environment.sample_reward.share": share("environment.sample_reward"),
        "environment.stable_benchmarks.calls": calls("environment.stable_benchmarks"),
        "environment.stable_benchmarks.ns_per_call": per_call("environment.stable_benchmarks"),
        "environment.stable_benchmarks.calls_per_timeline":
            ratio(calls("environment.stable_benchmarks"), tracer.timelines),
        "engine.run_rcb.self_share": share("engine.run_rcb"),
        "engine.regret_report.ns_per_call": per_call("engine.regret_report"),
        "engine.write_trace_csv.s": export_s,
        "engine.write_trace_csv.rows_per_s": trace_csv_rows / export_s if export_s else 0.0,
        "engine.write_trace_csv.bytes": trace_csv_bytes,
        "meta.run_rcb_meta.self_share": share("meta.run_rcb_meta"),
        "meta.exp3_select.calls": calls("meta.exp3_select"),
        "meta.exp3_update.ns_per_call": per_call("meta.exp3_update"),
        "meta.write_epoch_summary_csv.s": seconds("meta.write_epoch_summary_csv"),
        "config.parse_config.s": seconds("config.parse_config"),
        "config.resolve_instance.calls": calls("config.resolve_instance"),
        "config.resolve_instance.s": seconds("config.resolve_instance"),
        "config.resolve_instance.calls_per_instance":
            ratio(calls("config.resolve_instance"), tracer.instances),
        "cli.main.s": seconds("cli.main"),
        "trace.unaccounted_share": (wall_ns - top_level) / wall_ns,
    }
