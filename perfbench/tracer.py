"""Layer tracing inside the program process, plus the curve scaling probe.

``install`` wraps the public functions each layer calls, where the caller
looks them up (``multinav.cli.run_stage``, ``multinav.navigability.decompose``
and so on), and ``AnalyticCoverageState.survival``; ``Tracer.uninstall``
puts the originals back. Each wrapped call records a span (name, start, end,
parent, run id) and counts in memory; worker.py sends them to the benchmark
when the call ends. ``layer_metrics`` turns a traced call and a probe into
the per-layer metrics, using self time: a span's duration minus its
children's.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

# One rwc report per size, at two layers: the curve costs T*N^2*(N*L), so the
# exponent in N does not depend on L, and L=2 keeps the N=128 report short.
PROBE_NODES = (32, 64, 128)
PROBE_LAYERS = 2
WORKLOAD_RUN = "workload"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.stack: list[int] = []
        self.run = WORKLOAD_RUN
        self.wrapped: list[tuple[object, str, object]] = []

    def call(self, name: str, func, args, kwargs):
        span = {"name": name, "start": time.monotonic(), "end": None,
                "parent": self.stack[-1] if self.stack else None, "run": self.run}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return func(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()
            self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[self.run][name] += value

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, args, kwargs)
            if counter is not None:
                counter(self, result, *args, **kwargs)
            return result

        self.wrapped.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.wrapped):
            setattr(owner, attr, original)
        self.wrapped.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _count_curve(tracer, delta, state, times):
    t, n = delta.shape[0], delta.shape[1]
    tracer.count("navigability.curve_calls", 1)
    tracer.count("navigability.curve_points", t)
    tracer.count("navigability.curve_cmacs", t * n * n * state.eigenvalues.size)


def _count_supra(tracer, supra, *args, **kwargs):
    tracer.count("walks.supra_calls", 1)
    tracer.count("walks.supra_nnz_share", (supra.matrix != 0).sum() / supra.dim**2)


def _count_montecarlo(tracer, curve, supra, walkers_per_origin, horizon, seed, all_replicas=False):
    walkers = walkers_per_origin * (supra.dim if all_replicas else supra.n_nodes)
    tracer.count("navigability.walker_steps", walkers * horizon)
    # each step gathers one dense cumulative row per walker
    tracer.count("navigability.mc_gather_bytes", walkers * supra.dim * 8 * horizon)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point at each module that binds it."""
    from multinav import cli, multiplex, navigability, prediction, walks

    def sized(key):
        return lambda tr, result, *a, **k: tr.count(key, len(result))

    def edges_parsed(tr, result, *a, **k):
        tr.count("multiplex.edges_parsed", len(result.edges))

    for owner in (cli, multiplex):
        tracer.wrap(owner, "parse_edge_list", "multiplex.parse", edges_parsed)
        tracer.wrap(owner, "trim_edges", "multiplex.trim", sized("multiplex.edges_kept"))
        tracer.wrap(owner, "build_multiplex", "multiplex.build")
    tracer.wrap(cli, "integrate_links", "multiplex.integrate")

    tracer.wrap(cli, "run_stage", "prediction.stage")
    tracer.wrap(prediction, "modified_jaccard", "prediction.score", sized("prediction.pairs_scored"))
    tracer.wrap(prediction, "modified_adamic_adar", "prediction.score", sized("prediction.pairs_scored"))
    tracer.wrap(prediction, "normalize_scores", "prediction.normalize")
    tracer.wrap(prediction, "threshold_filter", "prediction.threshold", sized("prediction.links_kept"))
    tracer.wrap(prediction, "assign_weights", "prediction.weights")
    for owner in (cli, prediction):
        tracer.wrap(owner, "dedupe_links", "prediction.dedupe")

    for owner in (navigability, walks):
        tracer.wrap(owner, "build_supra_transition", "walks.supra_build", _count_supra)
    tracer.wrap(walks, "simulate_walk", "walks.simulate")

    tracer.wrap(cli, "navigability_report", "navigability.report")
    tracer.wrap(navigability, "navigability_report", "navigability.report")
    tracer.wrap(navigability, "spectral_gap", "navigability.gap")
    tracer.wrap(navigability, "analytic_state", "navigability.state")
    tracer.wrap(navigability, "decompose", "navigability.decompose")
    tracer.wrap(navigability.AnalyticCoverageState, "survival", "navigability.curve", _count_curve)
    tracer.wrap(navigability, "coverage_montecarlo", "navigability.montecarlo", _count_montecarlo)
    tracer.wrap(navigability, "poisson_clock", "navigability.clock")


def probe(tracer: Tracer, seed: int) -> None:
    """One rwc report per probe size, each under its own run id."""
    import gen
    from multinav import multiplex, navigability

    for n in PROBE_NODES:
        tracer.run = f"probe-{n}"
        rows = gen.lattice_edges(n, PROBE_LAYERS, False, seed)
        edges = [multiplex.FlowEdge(u, v, layer, flow) for layer, u, v, flow in rows]
        net = multiplex.build_multiplex(edges, n_layers=PROBE_LAYERS, n_nodes=n)
        navigability.navigability_report(net, "rwc")


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _busy(trace: dict) -> dict[tuple[str, str], float]:
    """Self seconds per (run id, span name)."""
    busy: dict[tuple[str, str], float] = defaultdict(float)
    for span, seconds in zip(trace["spans"], _self_times(trace["spans"])):
        busy[span["run"], span["name"]] += seconds
    return busy


def layer_metrics(call: dict, probe_trace: dict, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced call and the probe.

    ``call`` holds the call's ``trace``, its ``wall_s``, and ``startup_s`` and
    ``artifact_bytes`` as the benchmark measured them; ``untraced_s`` is the
    wall time of the same call untraced.
    """
    busy, probe_busy = _busy(call["trace"]), _busy(probe_trace)
    counts = defaultdict(float, call["trace"]["counts"].get(WORKLOAD_RUN, {}))

    def self_s(name):
        return busy[WORKLOAD_RUN, name]

    metrics = {
        f"{name}_s": self_s(name)
        for name in (
            "multiplex.parse", "multiplex.trim", "multiplex.build", "multiplex.integrate",
            "prediction.score", "prediction.normalize", "prediction.threshold",
            "prediction.weights", "prediction.dedupe",
            "walks.supra_build", "walks.simulate",
            "navigability.curve", "navigability.decompose", "navigability.gap",
            "navigability.state", "navigability.montecarlo", "navigability.clock",
        )
    }
    for name in (
        "multiplex.edges_parsed", "multiplex.edges_kept",
        "prediction.pairs_scored", "prediction.links_kept",
        "walks.supra_calls",
        "navigability.curve_calls", "navigability.curve_points", "navigability.curve_cmacs",
        "navigability.walker_steps", "navigability.mc_gather_bytes",
    ):
        metrics[name] = counts[name]
    metrics["prediction.kept_ratio"] = (
        counts["prediction.links_kept"] / counts["prediction.pairs_scored"]
        if counts["prediction.pairs_scored"] else 0.0
    )
    metrics["walks.supra_density"] = (
        counts["walks.supra_nnz_share"] / counts["walks.supra_calls"] if counts["walks.supra_calls"] else 0.0
    )
    metrics["navigability.curve_exponent"] = _slope(
        [math.log(n) for n in PROBE_NODES],
        [math.log(probe_busy[f"probe-{n}", "navigability.curve"]) for n in PROBE_NODES],
    )
    metrics["cli.startup_s"] = call["startup_s"]
    metrics["cli.self_s"] = self_s("cli")
    metrics["cli.artifact_bytes"] = float(call["artifact_bytes"])
    metrics["trace.overhead_s"] = call["wall_s"] - untraced_s
    return metrics
