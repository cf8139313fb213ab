"""Detailed functional ScalaGraph: real routing, aggregation, and SPDs.

Where :class:`~repro.core.accelerator.ScalaGraph` replays a functional
trace through analytic bounds, this simulator actually *executes* the
architecture on small graphs: every Scatter update is processed at the PE
chosen by the mapping, coalesced in that PE's aggregation pipeline,
routed hop by hop through the cycle-level mesh, and reduced into the
destination PE's scratchpad slice.  Integration tests use it to show the
architecture computes exactly what the Figure 1 reference engine does,
and to cross-check the analytic NoC model's hop accounting.

It is O(edges x hops) pure Python — use it on graphs with up to a few
thousand edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.algorithms.base import ProgramContext, VertexProgram
from repro.core.config import ScalaGraphConfig
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.mapping import make_mapping
from repro.noc.aggregation import AggregationPipeline, aggregation_geometry
from repro.noc.fastmesh import make_mesh_network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology


@dataclass
class FunctionalRunStats:
    """Cycle-level observations of a functional run."""

    iterations: int = 0
    updates_generated: int = 0
    updates_injected: int = 0
    updates_coalesced: int = 0
    noc_hops: int = 0
    noc_cycles: int = 0
    spd_reduces: int = 0
    per_iteration_hops: list = field(default_factory=list)


@dataclass
class FunctionalResult:
    """Functional outcome plus NoC statistics."""

    properties: np.ndarray
    stats: FunctionalRunStats
    converged: bool


class FunctionalScalaGraph:
    """Executes a vertex program through the real architecture pieces."""

    def __init__(self, config: Optional[ScalaGraphConfig] = None) -> None:
        self.config = config or ScalaGraphConfig(
            num_tiles=1, pe_rows=4, pe_cols=4
        )
        self.topology = MeshTopology(
            rows=self.config.pe_rows, cols=self.config.total_cols
        )
        self.mapping = make_mapping(self.config.mapping, self.topology)

    def run(
        self,
        program: VertexProgram,
        graph: CSRGraph,
        max_iterations: Optional[int] = None,
    ) -> FunctionalResult:
        ctx = ProgramContext(graph=graph)
        program.validate(ctx)
        props = program.initial_properties(ctx)
        active = np.asarray(program.initial_active(ctx), dtype=np.int64)
        limit = (
            max_iterations
            if max_iterations is not None
            else program.max_iterations(ctx)
        )
        stats = FunctionalRunStats()

        iteration = 0
        while active.size and iteration < limit:
            vtemp = np.full(
                graph.num_vertices, program.reduce_identity, dtype=np.float64
            )
            hops_before = stats.noc_hops
            self._scatter(program, ctx, graph, active, props, vtemp, stats)
            stats.per_iteration_hops.append(stats.noc_hops - hops_before)

            new_props = program.apply_values(ctx, props, vtemp)
            updated = program.is_updated(props, new_props)
            props = new_props
            active = (
                np.arange(graph.num_vertices, dtype=np.int64)
                if (program.all_active and np.any(updated))
                else np.flatnonzero(updated).astype(np.int64)
            )
            iteration += 1
            stats.iterations = iteration

        return FunctionalResult(
            properties=props,
            stats=stats,
            converged=active.size == 0,
        )

    # ------------------------------------------------------------------
    # Scatter through the real components
    # ------------------------------------------------------------------
    def _scatter(
        self,
        program: VertexProgram,
        ctx: ProgramContext,
        graph: CSRGraph,
        active: np.ndarray,
        props: np.ndarray,
        vtemp: np.ndarray,
        stats: FunctionalRunStats,
    ) -> None:
        from repro.algorithms.reference import gather_frontier_edges

        src, dst, weights = gather_frontier_edges(graph, active)
        if src.size == 0:
            return
        values = program.scatter_value(ctx, src, weights, props[src])
        exec_pe = self.mapping.execution_pe(src, dst)
        home_pe = self.mapping.home(dst)
        stats.updates_generated += int(src.size)

        # Per-PE aggregation pipelines coalesce same-vertex updates
        # before they enter the network (Section IV-B).
        reduce_fn = lambda a, b: float(program.reduce_ufunc(a, b))
        registers = self.config.aggregation_registers
        pipelines: Dict[int, AggregationPipeline] = {}
        outgoing: Dict[int, list] = {pe: [] for pe in range(self.topology.num_nodes)}
        for pe, vertex, value in zip(exec_pe, dst, values):
            pe = int(pe)
            if registers > 0:
                pipe = pipelines.get(pe)
                if pipe is None:
                    stages, cols = aggregation_geometry(registers)
                    pipe = AggregationPipeline(
                        num_stages=stages,
                        num_columns=cols,
                        reduce_fn=reduce_fn,
                    )
                    pipelines[pe] = pipe
                outcome = pipe.offer(int(vertex), float(value))
                if outcome == "rejected":
                    # Register column full: make room by forwarding the
                    # oldest resident update of that column, then store.
                    evicted = pipe.emit(column=pipe.column_of(int(vertex)))
                    if evicted is not None:
                        outgoing[pe].append(evicted)
                    if pipe.offer(int(vertex), float(value)) == "rejected":
                        raise SimulationError("aggregation pipeline stuck")
            else:
                outgoing[pe].append((int(vertex), float(value)))
        for pe, pipe in pipelines.items():
            outgoing[pe].extend(pipe.drain())
            stats.updates_coalesced += pipe.stats.coalesced

        # Route surviving updates; local ones bypass the network.
        network = make_mesh_network(
            self.topology, buffer_depth=8, engine=self.config.cycle_engine
        )
        reduce_ufunc = program.reduce_ufunc
        injected = 0
        for pe, items in outgoing.items():
            for slot, (vertex, value) in enumerate(items):
                target = int(self.mapping.home(np.int64(vertex)))
                if target == pe:
                    vtemp[vertex] = reduce_ufunc(vtemp[vertex], value)
                    stats.spd_reduces += 1
                    continue
                packet = Packet(
                    src=pe,
                    dst=target,
                    vertex=int(vertex),
                    value=float(value),
                    injected_cycle=slot,  # one injection per PE per cycle
                )
                network.schedule(packet)
                injected += 1
        stats.updates_injected += injected
        if injected:
            mesh_stats = network.run_until_drained()
            stats.noc_hops += mesh_stats.total_hops
            stats.noc_cycles += mesh_stats.cycles
            for packet in network.delivered:
                vtemp[packet.vertex] = reduce_ufunc(
                    vtemp[packet.vertex], packet.value
                )
                stats.spd_reduces += 1
