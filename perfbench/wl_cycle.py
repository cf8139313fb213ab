"""cycle-32x32: a seeded stream of cycle-accurate runs on a 32x32 mesh.

Set-up generates ``GRAPHS`` scale-12 R-MAT graphs from the seed.  The
stream repeats one round of requests, interleaved so that any prefix of
it is balanced across kinds; per graph the round holds

* a dense PageRank iteration,
* a sparse BFS from the highest out-degree vertex, whose small
  frontiers exercise the drain-mode loop and its fast-forward, and
* one of the two, armed with a seeded ``FaultSchedule`` (link outages,
  frozen FIFOs, PE stalls), which takes the detour and stall branches
  and the stall-window fast-forward.

Each request builds its ``CycleAccurateScalaGraph`` (mapping ``rom``,
vectorized engines) and runs it.  The analytic model and the functional
reference run only after the timed loop: they check every request's
properties and give ``model_error_x`` over the first round.
"""

from __future__ import annotations

import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import HostFigures, Phase, digest, geomean, median
from hostspeed import HostClock

NAME = "cycle-32x32"
MESH = 32
SCALE = 12
EDGE_FACTOR = 8
GRAPHS = 4
WARM_UP_SCALE = 9
KINDS = ("pagerank", "bfs", "faulted")
ROUND = GRAPHS * len(KINDS)

REQUIRED_SPANS = (
    "graph.rmat",
    "cycle_sim.run",
    "fastsim.scatter_phase",
    "fastsim.dispatch_schedule",
    "algorithms.gather",
    "aggregation.offer",
    "aggregation.emit",
    "fastmesh.step",
    "fastmesh.inject",
    "fastmesh.fast_forward",
)


def import_program() -> None:
    global repro_algorithms, repro_core, faults, generators
    import repro.algorithms as repro_algorithms
    import repro.core as repro_core
    import repro.faults as faults
    import repro.graph.generators as generators


def config() -> Any:
    return repro_core.ScalaGraphConfig(
        num_tiles=1,
        pe_rows=MESH,
        pe_cols=MESH,
        aggregation_registers=64,
        mapping="rom",
        cycle_engine="vectorized",
    )


@dataclass(frozen=True)
class Request:
    graph: int
    algorithm: str  # "pagerank" or "bfs"
    fault_seed: Optional[int]


@dataclass
class State:
    seed: int
    graphs: List[Any]
    roots: List[int]
    stream: List[Request]


def make_stream(seed: int) -> List[Request]:
    """One round, interleaved by kind: PR, BFS, faulted, PR, BFS, ..."""
    rng = np.random.default_rng([seed, 1])
    stream = []
    for g in range(GRAPHS):
        stream.append(Request(g, "pagerank", None))
        stream.append(Request(g, "bfs", None))
        stream.append(
            Request(
                g,
                "pagerank" if g % 2 == 0 else "bfs",
                int(rng.integers(0, 2**31)),
            )
        )
    return stream


def fault_config(seed: int) -> Any:
    """Enough long PE stalls over the phase that stalled PEs hold the
    last work with the mesh empty, which takes the stall-window
    fast-forward; the link outages force detours."""
    return faults.FaultConfig(
        seed=seed,
        link_outages=4,
        fifo_stalls=2,
        pe_stalls=32,
        max_duration=128,
        horizon=384,
    )


def program(state: State, request: Request) -> Any:
    if request.algorithm == "pagerank":
        return repro_algorithms.PageRank(max_iters=1)
    return repro_algorithms.BFS(root=state.roots[request.graph])


def run_request(state: State, request: Request) -> Any:
    cfg = config()
    sim = repro_core.CycleAccurateScalaGraph(cfg)
    if request.fault_seed is not None:
        schedule = faults.FaultSchedule(
            sim.topology,
            fault_config(request.fault_seed),
        )
        sim = repro_core.CycleAccurateScalaGraph(cfg, faults=schedule)
    return sim.run(program(state, request), state.graphs[request.graph])


def build_graphs(
    seeds: List[int], scale: int = SCALE
) -> Tuple[List[Any], List[int]]:
    """R-MAT graphs and their BFS roots (highest out-degree vertex)."""
    graphs = [
        generators.rmat_graph(scale, edge_factor=EDGE_FACTOR, seed=s)
        for s in seeds
    ]
    roots = [int(np.argmax(np.diff(g.indptr))) for g in graphs]
    return graphs, roots


def graph_seeds(seed: int, count: int) -> List[int]:
    rng = np.random.default_rng([seed, 0])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def setup(seed: int) -> State:
    graphs, roots = build_graphs(graph_seeds(seed, GRAPHS))
    state = State(seed, graphs, roots, make_stream(seed))
    # Warm-up: the first call into each engine path the stream takes, on
    # a small fixed graph so that its cost does not depend on the seed.
    small, small_roots = build_graphs([0], scale=WARM_UP_SCALE)
    warm = State(seed, small, small_roots, [])
    for request in state.stream[:3]:
        run_request(warm, Request(0, request.algorithm, request.fault_seed))
    return state


def measure(state: State, seconds: float, tracer: Any = None) -> Phase:
    """Run the stream for ``seconds`` reference seconds (and at least one
    full round), sampling the host-speed kernel before each request."""
    clock = HostClock()
    intervals: List[Tuple[float, float]] = []
    outputs: List[Tuple[int, Any]] = []
    cycles = 0
    failed = 0
    with tracer.thread_window() if tracer else nullcontext():
        start = clock.start()
        while True:
            clock.sample()
            if len(intervals) >= ROUND and clock.elapsed() >= seconds:
                break
            index = len(intervals) % ROUND
            if tracer:
                tracer.set_request(f"request-{len(intervals)}")
            t0 = time.perf_counter()
            try:
                result = run_request(state, state.stream[index])
            except Exception:  # counted, not fatal: the run goes on
                traceback.print_exc()
                failed += 1
                result = None
            intervals.append((t0, time.perf_counter()))
            if result is not None:
                cycles += result.stats.total_cycles
            outputs.append((index, result))
        end = time.perf_counter()
    latencies = clock.rescale_all(intervals)
    throughput, p50 = typical_round(outputs, latencies)
    return Phase(
        wall_s=clock.rescale(start, end),
        latencies_s=latencies,
        work=float(cycles),
        host=HostFigures(end - start, clock.median_factor()),
        throughput=throughput,
        p50_s=p50,
        attempted=len(latencies),
        failed=failed,
        outputs=outputs,
    )


def typical_round(
    outputs: List[Tuple[int, Any]], latencies: List[float]
) -> Tuple[float, float]:
    """``(throughput, p50)`` of a typical round.

    Each request of the round is repeated through the run; its time is
    taken as its median over the repetitions, so that a request slowed
    by one outlier (a collection, a page fault) does not move either
    figure.
    Throughput is the round's simulated cycles over the sum of those
    times; p50 is their median.
    """
    times: Dict[int, List[float]] = {}
    cycles: Dict[int, int] = {}
    for (index, result), latency in zip(outputs, latencies):
        times.setdefault(index, []).append(latency)
        if result is not None:
            cycles[index] = result.stats.total_cycles
    typical = {index: median(times[index]) for index in cycles}
    return sum(cycles.values()) / sum(typical.values()), median(
        list(typical.values())
    )


def model_error(state: State, request: Request, result: Any) -> Tuple[float, float]:
    """``(analytic scatter cycles, max(r, 1/r))`` of one fault-free request,
    with ``r`` = cycle-accurate scatter cycles / analytic scatter cycles
    net of the fixed per-phase overhead, as in the cycle-sim validation
    bench."""
    cfg = config()
    report = repro_core.ScalaGraph(cfg).run(
        program(state, request), state.graphs[request.graph]
    )
    overhead = cfg.timing.phase_overhead_cycles
    modelled = float(
        sum(max(it.scatter_cycles - overhead, 1.0) for it in report.iterations)
    )
    ratio = sum(result.stats.scatter_cycles) / modelled
    return modelled, max(ratio, 1.0 / ratio)


def properties_match(result: Any, reference: Any, algorithm: str) -> bool:
    if algorithm == "pagerank":
        # One PageRank iteration sums floats in another order than the
        # functional engine, so equality is to 1e-9 relative.
        return bool(
            np.allclose(result.properties, reference.properties, rtol=1e-9, atol=0)
        )
    return bool(np.array_equal(result.properties, reference.properties))


def finish(state: State, phase: Phase) -> Dict[str, Any]:
    """Check every request against the functional reference, and derive
    the first round's simulated counts, model error and digest."""
    references: Dict[Tuple[int, str], Any] = {}
    for index, result in phase.outputs:
        request = state.stream[index]
        key = (request.graph, request.algorithm)
        if key not in references:
            references[key] = repro_algorithms.run_reference(
                program(state, request), state.graphs[request.graph]
            )
        if result is None:
            continue  # already counted as failed
        if not properties_match(result, references[key], request.algorithm):
            phase.failed += 1

    first = phase.outputs[:ROUND]
    if any(result is None for _, result in first):
        return {"sim": {}, "model_error_x": float("nan"), "digest": "failed"}
    sim = {
        "sim.total_cycles": 0,
        "sim.scatter_cycles": 0,
        "sim.noc_hops": 0,
        "sim.updates_coalesced": 0,
        "sim.spd_reduces": 0,
        "sim.degraded_cycles": 0,
        "analytic.scatter_cycles": 0.0,
    }
    errors = []
    per_request = []
    for index, result in first:
        request = state.stream[index]
        stats = result.stats
        measured = sum(stats.scatter_cycles)
        sim["sim.total_cycles"] += stats.total_cycles
        sim["sim.scatter_cycles"] += measured
        sim["sim.noc_hops"] += stats.noc_hops
        sim["sim.updates_coalesced"] += stats.updates_coalesced
        sim["sim.spd_reduces"] += stats.spd_reduces
        sim["sim.degraded_cycles"] += stats.degraded_cycles
        per_request.append(
            [
                index,
                stats.total_cycles,
                list(stats.scatter_cycles),
                stats.noc_hops,
                stats.updates_coalesced,
                stats.spd_reduces,
                stats.degraded_cycles,
                stats.rerouted_packets,
                digest(result.properties.tolist()),
            ]
        )
        if request.fault_seed is None:
            modelled, error = model_error(state, request, result)
            sim["analytic.scatter_cycles"] += modelled
            errors.append(error)
    return {
        "sim": sim,
        "model_error_x": geomean(errors),
        "digest": digest(per_request),
        "provenance": {
            "first_round_rerouted_packets": sum(row[7] for row in per_request)
        },
    }


def model_error_probe(seed: int) -> float:
    """``model_error_x`` of the seed's first round, for workloads that run
    no cycle-accurate simulation of their own: the same fault-free
    requests, hence the value ``cycle-32x32`` reports for the seed."""
    import_program()
    graphs, roots = build_graphs(graph_seeds(seed, GRAPHS))
    state = State(seed, graphs, roots, make_stream(seed))
    return geomean(
        [
            model_error(state, request, run_request(state, request))[1]
            for request in state.stream
            if request.fault_seed is None
        ]
    )


def teardown(state: State) -> None:
    pass
