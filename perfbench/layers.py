"""The traced layer boundaries and the per-layer metrics derived from them.

Every traced run installs all boundaries, so each workload reports every
per-layer metric; a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Any, Dict

from common import median, metric
from tracing import Boundary, Tracer

_REF = "repro.algorithms.reference"


def _scatter_cycles(result: Any) -> float:
    return float(sum(result.stats.scatter_cycles))


#: A function imported with ``from module import name`` is looked up in
#: the importing module, so it is patched there as well as where it is
#: defined.
BOUNDARIES = (
    Boundary("graph.load", "repro.experiments.runner", "load_benchmark_graph"),
    Boundary("graph.rmat", "repro.graph.generators", "rmat_graph"),
    Boundary("graph.rmat", "repro.graph.datasets", "rmat_graph"),
    Boundary("algorithms.reference", _REF, "run_reference"),
    Boundary("algorithms.reference", "repro.experiments.runner", "run_reference"),
    Boundary("algorithms.reference", "repro.core.accelerator", "run_reference"),
    Boundary("algorithms.reference", "repro.baselines.base", "run_reference"),
    Boundary("algorithms.reference", "repro.baselines.gunrock", "run_reference"),
    Boundary("algorithms.gather", _REF, "gather_frontier_edges"),
    Boundary("algorithms.gather", "repro.core.accelerator", "gather_frontier_edges"),
    Boundary("algorithms.gather", "repro.core.cycle_sim", "gather_frontier_edges"),
    Boundary("algorithms.gather", "repro.baselines.base", "gather_frontier_edges"),
    Boundary("algorithms.gather", "repro.baselines.gunrock", "gather_frontier_edges"),
    Boundary("analytic.run", "repro.core.accelerator:ScalaGraph", "run"),
    Boundary("noc_model.scatter", "repro.core.accelerator", "scatter_noc_stats"),
    Boundary("baselines.gunrock", "repro.baselines.gunrock:Gunrock", "run"),
    Boundary("baselines.graphdyns", "repro.baselines.base:CrossbarAccelerator", "run"),
    Boundary(
        "cycle_sim.run",
        "repro.core.cycle_sim:CycleAccurateScalaGraph",
        "run",
        returned=_scatter_cycles,
    ),
    Boundary("fastsim.scatter_phase", "repro.core.cycle_sim", "scatter_phase_fast"),
    Boundary("fastsim.dispatch_schedule", "repro.core.fastsim", "dispatch_schedule"),
    Boundary(
        "aggregation.offer",
        "repro.noc.aggregation:BatchedAggregationArray",
        "offer_batch",
    ),
    Boundary(
        "aggregation.emit",
        "repro.noc.aggregation:BatchedAggregationArray",
        "emit_round_robin",
    ),
    Boundary("fastmesh.step", "repro.noc.fastmesh:FastMeshNetwork", "step"),
    Boundary("fastmesh.inject", "repro.noc.fastmesh:FastMeshNetwork", "inject_batch"),
    Boundary(
        "fastmesh.fast_forward",
        "repro.noc.fastmesh:FastMeshNetwork",
        "fast_forward",
        returned=float,
    ),
    Boundary("service.submit", "repro.service.client:ServiceClient", "submit"),
    Boundary(
        "service.stream",
        "repro.service.client:ServiceClient",
        "stream",
        generator=True,
    ),
)

#: Simulated counts reported by the cycle workload (0 elsewhere).
SIM_COUNTS = (
    "sim.total_cycles",
    "sim.scatter_cycles",
    "sim.noc_hops",
    "sim.updates_coalesced",
    "sim.spd_reduces",
    "sim.degraded_cycles",
    "analytic.scatter_cycles",
)

#: Client-side service figures reported by the service workload (0 elsewhere).
SERVICE_FIGURES = (
    ("service.dedupe_ratio", "frac"),
    ("service.retries", "count"),
    ("service.pool_generation", "count"),
    ("store.hit_ratio", "frac"),
)


def per_layer_metrics(
    tracer: Tracer, extras: Dict[str, Any], overhead_frac: float, unattributed_s: float
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run."""
    times = tracer.layer_times()

    def self_s(*names: str) -> float:
        return sum(times.get(name, (0.0, 0))[0] for name in names)

    def calls(name: str) -> int:
        return times.get(name, (0.0, 0))[1]

    def span_ms(name: str) -> float:
        durations = [end - start for n, start, end, *_ in tracer.spans if n == name]
        return 1e3 * median(durations) if durations else 0.0

    scatter_cycles = tracer.counters.get("cycle_sim.run.returned", 0.0)
    out = {
        "graph.build_s": metric(self_s("graph.load", "graph.rmat"), "s"),
        "algorithms.reference_s": metric(self_s("algorithms.reference"), "s"),
        "algorithms.gather_s": metric(self_s("algorithms.gather"), "s"),
        "analytic.self_s": metric(self_s("analytic.run"), "s"),
        "noc_model.scatter_s": metric(self_s("noc_model.scatter"), "s"),
        "noc_model.calls": metric(calls("noc_model.scatter"), "count"),
        "baselines.gunrock_s": metric(self_s("baselines.gunrock"), "s"),
        "baselines.graphdyns_s": metric(self_s("baselines.graphdyns"), "s"),
        "cycle_sim.self_s": metric(self_s("cycle_sim.run"), "s"),
        "fastsim.driver_self_s": metric(self_s("fastsim.scatter_phase"), "s"),
        "fastsim.dispatch_schedule_s": metric(
            self_s("fastsim.dispatch_schedule"), "s"
        ),
        "aggregation.offer_s": metric(self_s("aggregation.offer"), "s"),
        "aggregation.emit_s": metric(self_s("aggregation.emit"), "s"),
        "aggregation.offer_calls": metric(calls("aggregation.offer"), "count"),
        "fastmesh.step_s": metric(self_s("fastmesh.step"), "s"),
        "fastmesh.step_calls": metric(calls("fastmesh.step"), "count"),
        "fastmesh.inject_s": metric(self_s("fastmesh.inject"), "s"),
        "fastmesh.fast_forward_cycles": metric(
            tracer.counters.get("fastmesh.fast_forward.returned", 0.0), "cycles"
        ),
        "fastmesh.stepped_fraction": metric(
            calls("fastmesh.step") / scatter_cycles if scatter_cycles else 0.0,
            "frac",
        ),
        "service.submit_ms": metric(span_ms("service.submit"), "ms"),
        "service.stream_ms": metric(span_ms("service.stream"), "ms"),
        "trace.overhead_frac": metric(overhead_frac, "frac"),
        "trace.unattributed_s": metric(unattributed_s, "s"),
    }
    sim = extras.get("sim", {})
    for name in SIM_COUNTS:
        out[name] = metric(sim.get(name, 0), "cycles" if "cycles" in name else "count")
    service = extras.get("service", {})
    for name, unit in SERVICE_FIGURES:
        out[name] = metric(service.get(name, 0), unit)
    return out
