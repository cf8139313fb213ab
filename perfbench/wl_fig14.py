"""fig14-analytic: the full Figure 14 matrix, serially, with no cache.

5 graphs x 4 algorithms x 5 systems = 100 reports at ``scale_shift`` 0,
the way :func:`repro.experiments.runner.execute_cell` computes a cell:
one functional reference run per cell, shared by the cell's five
``build_system(label).run(...)`` reports.  Set-up loads the 20 cell
graphs; the seed only permutes the order in which the cells run (the
figure's inputs are fixed).  A matrix is the unit of work: the measured
phase runs whole matrices until ``--seconds`` reference seconds have
passed, at least one.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from common import HostFigures, Phase, digest
from hostspeed import HostClock

NAME = "fig14-analytic"

REQUIRED_SPANS = (
    "graph.load",
    "graph.rmat",
    "algorithms.reference",
    "algorithms.gather",
    "analytic.run",
    "noc_model.scatter",
    "baselines.gunrock",
    "baselines.graphdyns",
)


def import_program() -> None:
    global runner, make_algorithm
    import repro.experiments.runner as runner
    from repro.algorithms import make_algorithm


@dataclass
class State:
    seed: int
    cells: List[Tuple[str, str]]
    graphs: Dict[Tuple[str, str], Any]


def setup(seed: int) -> State:
    cells = [(g, a) for g in runner.GRAPH_ORDER for a in runner.ALGORITHM_ORDER]
    random.Random(seed).shuffle(cells)
    graphs = {
        (g, a): runner.load_benchmark_graph(g, a, 0) for g, a in cells
    }
    # Warm-up: the first call into every system and the reference engine.
    tiny = runner.load_benchmark_graph("PK", "sssp", -6)
    for algorithm in runner.ALGORITHM_ORDER:
        program = make_algorithm(algorithm)
        reference = runner.run_reference(program, tiny)
        for label in runner.SYSTEM_ORDER:
            runner.build_system(label).run(program, tiny, reference=reference)
    return State(seed, cells, graphs)


def measure(state: State, seconds: float, tracer: Any = None) -> Phase:
    """Whole matrices until ``seconds`` reference seconds have passed,
    sampling the host-speed kernel before each report."""
    clock = HostClock()
    intervals: List[Tuple[float, float]] = []
    reports: Dict[Tuple[str, str, str], Any] = {}
    failed = 0
    with tracer.thread_window() if tracer else nullcontext():
        start = clock.start()
        while not intervals or clock.elapsed() < seconds:
            reports = {}
            for graph_name, algorithm in state.cells:
                if tracer:
                    tracer.set_request(f"{graph_name}/{algorithm}")
                graph = state.graphs[(graph_name, algorithm)]
                program = make_algorithm(algorithm)
                reference = runner.run_reference(program, graph, None)
                for label in runner.SYSTEM_ORDER:
                    clock.sample()
                    t0 = time.perf_counter()
                    try:
                        report = runner.build_system(label).run(
                            program, graph, reference=reference
                        )
                    except Exception:  # counted, not fatal
                        traceback.print_exc()
                        failed += 1
                        report = None
                    intervals.append((t0, time.perf_counter()))
                    reports[(graph_name, algorithm, label)] = report
            clock.sample()
        end = time.perf_counter()
    return Phase(
        wall_s=clock.rescale(start, end),
        latencies_s=clock.rescale_all(intervals),
        work=float(len(intervals)),
        host=HostFigures(end - start, clock.median_factor()),
        attempted=len(intervals),
        failed=failed,
        outputs=[reports],
    )


def shape_checks(matrix: Any) -> List[Tuple[str, bool]]:
    """The shape assertions of ``benchmarks/bench_fig14_throughput.py``."""
    checks = []
    for graph, algorithm in matrix.cells():
        sg512 = matrix.gteps(graph, algorithm, "ScalaGraph-512")
        checks.append(
            (
                f"order:{graph}:{algorithm}",
                all(
                    sg512 > matrix.gteps(graph, algorithm, other)
                    for other in ("GraphDynS-512", "GraphDynS-128", "Gunrock")
                ),
            )
        )
    bands = [
        ("ScalaGraph-512", "Gunrock", 2.0, 5.0),
        ("ScalaGraph-512", "GraphDynS-512", 1.5, 3.2),
        ("ScalaGraph-512", "GraphDynS-128", 3.0, 6.5),
        ("ScalaGraph-128", "GraphDynS-128", 1.0, 2.5),
    ]
    for num, den, low, high in bands:
        checks.append(
            (f"band:{num}/{den}", low < matrix.speedup(num, den) < high)
        )
    by_algo = matrix.speedup_by_algorithm("ScalaGraph-512", "Gunrock")
    checks.append(("bfs-lowest", by_algo["bfs"] == min(by_algo.values())))
    checks.append(
        (
            "pagerank-highest",
            by_algo["pagerank"] >= 0.95 * max(by_algo.values()),
        )
    )
    return checks


def finish(state: State, phase: Phase) -> Dict[str, Any]:
    """Run the figure's shape checks on the last matrix; each check is one
    more attempted operation and each failing one a failure."""
    from wl_cycle import model_error_probe

    reports = phase.outputs[-1]
    matrix = runner.ExperimentMatrix()
    complete = all(report is not None for report in reports.values())
    if complete:
        matrix.reports = dict(reports)
        matrix.sort_nominal(
            runner.GRAPH_ORDER, runner.ALGORITHM_ORDER, runner.SYSTEM_ORDER
        )
        checks = shape_checks(matrix)
    else:
        checks = [("matrix-complete", False)]
    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"failed Fig. 14 checks: {failed}", file=sys.stderr)
    phase.attempted += len(checks)
    phase.failed += len(failed)
    rows = (
        [
            [g, a, s, report.gteps, float(report.total_cycles)]
            for (g, a, s), report in matrix.reports.items()
        ]
        if complete
        else []
    )
    return {
        "model_error_x": model_error_probe(state.seed),
        "digest": digest(rows),
    }


def teardown(state: State) -> None:
    pass
