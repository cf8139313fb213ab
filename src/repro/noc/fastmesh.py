"""Vectorised struct-of-arrays mesh NoC engine.

:class:`~repro.noc.mesh.MeshNetwork` is the *reference* simulator: one
:class:`~repro.noc.router.Router` object per node, advanced with Python
loops every cycle.  That is ideal for auditing but caps Figure 6-style
routing-conflict studies and analytic-model cross-checks at tiny meshes.
This module provides :class:`FastMeshNetwork`, a drop-in engine that
keeps **all** router state in a handful of NumPy buffers —

* ``(nodes, 5-ports, depth)`` FIFO ring buffers of packet indices,
* ``(nodes, 5)`` head/occupancy/round-robin matrices,
* flat per-packet ``dst``/``injected_cycle`` arrays —

and advances a whole cycle with batched array operations: XY route
computation, switch allocation with the reference's deterministic
round-robin priority, credit backpressure, and link traversal.

**Equivalence contract.**  The vectorised engine is packet-for-packet
and cycle-for-cycle identical to the reference simulator: identical
:class:`~repro.noc.mesh.MeshStats` (cycles, injected, delivered, hops,
latency, peak occupancy, stalled moves) and identical delivery order,
for any workload — including deferred injections and single-entry
buffers.  ``tests/test_fastmesh.py`` enforces this differentially
across mesh sizes, traffic patterns, and the full cycle-accurate
simulator; treat any divergence as a bug in this module,
never as acceptable drift.

Both engines also support an *idle-cycle fast-forward*: when every FIFO
is empty, :meth:`run_until_drained` jumps the cycle counter to the next
pending injection instead of spinning one cycle at a time.  The jump is
stats-neutral — idle cycles change nothing but the counter — so
fast-forwarded and stepped runs report identical ``MeshStats``.

Standalone mesh studies pick an engine through the
:func:`make_mesh_network` factory.  The cycle-level simulators pick a
whole engine pair through
:attr:`repro.core.config.ScalaGraphConfig.cycle_engine`: the vectorised
scatter phase of :mod:`repro.core.fastsim` builds its own lean
:class:`FastMeshNetwork`.  Either way :func:`resolve_engine` turns
``"auto"`` into the vectorised engine for meshes of
:data:`AUTO_VECTORIZE_MIN_NODES` nodes or more.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.noc.mesh import MeshNetwork, MeshStats
from repro.noc.packet import Packet, batch_packets
from repro.noc.router import (
    EAST,
    LOCAL,
    NORTH,
    NUM_PORTS,
    PORT_NAMES,
    SOUTH,
    WEST,
)
from repro.noc.topology import MeshTopology

if TYPE_CHECKING:  # import-free at runtime: the hooks are duck-typed
    from repro.analysis.sanitizer import SimSanitizer
    from repro.faults.schedule import FaultSchedule

__all__ = [
    "AUTO_VECTORIZE_MIN_NODES",
    "FastMeshNetwork",
    "MeshEngine",
    "make_mesh_network",
    "resolve_engine",
]

#: ``"auto"`` selects the vectorised engine (mesh, or the whole
#: cycle-simulator pair) for meshes with at least this many nodes.
#: Below it the reference simulator's per-object Python loops are cheap
#: enough that NumPy dispatch overhead dominates.
AUTO_VECTORIZE_MIN_NODES = 64

#: Either cycle-level mesh engine (they are behaviourally identical).
MeshEngine = Union[MeshNetwork, "FastMeshNetwork"]

#: Input port seen by the downstream router of each output port
#: (mirrors ``mesh._LINK_OF_OUTPUT``; LOCAL has no link).
_DOWN_IN = np.array([-1, SOUTH, NORTH, EAST, WEST], dtype=np.int64)

#: ``_WINNER_LUT[r, m]`` — winning input port when the requesting
#: inputs form bitmask ``m`` and the round-robin pointer is ``r``: the
#: set bit with the smallest ``(i - r) % NUM_PORTS`` distance, i.e.
#: exactly ``argmin`` over the per-input keys.  ``m = 0`` (no request)
#: is never read because such outputs are not granted.
_WINNER_LUT = np.zeros((NUM_PORTS, 1 << NUM_PORTS), dtype=np.int64)
for _r in range(NUM_PORTS):
    for _m in range(1, 1 << NUM_PORTS):
        _WINNER_LUT[_r, _m] = min(
            (i for i in range(NUM_PORTS) if _m >> i & 1),
            key=lambda i, _r=_r: (i - _r) % NUM_PORTS,
        )
del _r, _m

#: Base-6 digit weights packing a node's five head-of-line output
#: requests (each ``-1..4``, stored as ``out + 1``) into one code.
_POW6 = (6 ** np.arange(NUM_PORTS)).astype(np.int64)

#: Flat view of :data:`_WINNER_LUT` for single-gather ``np.take`` with a
#: precomputed ``rr * 32 + mask`` index (row stride is ``1 << NUM_PORTS``).
_WINNER_FLAT = _WINNER_LUT.reshape(-1)

#: ``_MASK_LUT[code, o]`` — bitmask of input ports whose packed request
#: digit equals output port ``o`` (digit value ``o + 1``; digit 0 is
#: the "no request" sentinel).
_MASK_LUT = np.zeros((6**NUM_PORTS, NUM_PORTS), dtype=np.int64)
for _c in range(6**NUM_PORTS):
    for _i in range(NUM_PORTS):
        _d = _c // (6**_i) % 6
        if _d:
            _MASK_LUT[_c, _d - 1] |= 1 << _i
del _c, _i, _d


def _xy_ports(row, col, dst_row, dst_col):
    """Dimension-order (X then Y) output port from ``(row, col)`` toward
    ``(dst_row, dst_col)``; broadcasts like ``np.where``."""
    return np.where(
        col < dst_col,
        EAST,
        np.where(
            col > dst_col,
            WEST,
            np.where(
                row < dst_row, SOUTH, np.where(row > dst_row, NORTH, LOCAL)
            ),
        ),
    )


#: Engine-twin declaration consumed by the whole-program analyzer
#: (:mod:`repro.analysis.project`).  SIM601 audits that this module and
#: the reference mesh consume the same config fields, emit/read the
#: same ``MeshStats`` fields, and query the same fault *kinds* (the
#: query methods may differ — the reference reroutes per-packet via
#: ``route`` while this engine masks whole links via ``link_dead_mask``;
#: both consume link-outage faults).
ENGINE_TWIN = {
    "pair": "noc-engine",
    "reference": "repro.noc.mesh",
}

#: Declared dtype contract for the struct-of-arrays router state.
#: SIM604 checks every ``np.zeros/full/empty/ones`` call site assigned
#: to these attributes against this table, so a dtype change must be
#: made here — visibly — rather than slipping through one allocation.
BUFFER_DTYPES = {
    "_buf": "int64",
    "_head": "int64",
    "_count": "int64",
    "_rr": "int64",
    "_pkt_dst": "int64",
    "_pkt_injected": "int64",
    "_pkt_vertex": "int64",
    "_pkt_value": "float64",
    # Delivery log: registry indices in delivery order (cursor _dlv_n).
    "_dlv_pidx": "int64",
    # Per-cycle arbitration scratch, sliced to the active-node count and
    # written with np.take(..., out=)/in-place ufuncs so steady-state
    # cycles allocate no full-width temporaries.
    "_scr_cnt": "int64",
    "_scr_occ": "bool",
    "_scr_nocc": "bool",
    "_scr_heads": "int64",
    "_scr_dst": "int64",
    "_scr_out": "int64",
    "_scr_flat": "int64",
    "_scr_rr": "int64",
    "_scr_mask": "int64",
    "_scr_winner": "int64",
    "_scr_granted": "bool",
    "_scr_code": "int64",
    "_scr_nbase": "int64",
    "_scr_pernode": "int64",
    "_scr_route8": "int8",
    # Head-route cache: fault-free XY output port of each (node, port)
    # head-of-line packet, -1 when that FIFO is empty.
    "_head_route": "int64",
}


class FastMeshNetwork:
    """A ``rows x cols`` mesh advanced one cycle at a time, vectorised.

    Public surface mirrors :class:`~repro.noc.mesh.MeshNetwork`:
    :meth:`schedule` / :meth:`inject` packets, :meth:`step` or
    :meth:`run_until_drained`, read :attr:`delivered` and :attr:`stats`.

    Packets are registered once and referenced by integer index inside
    the FIFO arrays; the :class:`~repro.noc.packet.Packet` objects
    themselves are only touched at injection and delivery, so the
    per-cycle work is pure array math.
    """

    def __init__(
        self,
        topology: MeshTopology,
        buffer_depth: int = 4,
        sanitizer: Optional["SimSanitizer"] = None,
        faults: Optional["FaultSchedule"] = None,
        lean_packets: bool = False,
    ) -> None:
        if buffer_depth <= 0:
            raise ConfigurationError("buffer_depth must be positive")
        self.topology = topology
        self.buffer_depth = buffer_depth
        #: With ``lean_packets``, :meth:`inject_batch` is the only entry
        #: point and no Packet objects are materialised: the packet
        #: lifecycle lives entirely in the registry arrays,
        #: :attr:`delivered` stays empty, and :meth:`delivered_arrays` /
        #: :meth:`delivered_count` are the delivery views.  Stats are
        #: identical either way; this only drops the per-packet object
        #: work for callers (the vectorised scatter engine) that never
        #: read Packet instances.
        self.lean_packets = lean_packets
        #: Optional runtime invariant checker (see
        #: :mod:`repro.analysis.sanitizer`); None = zero overhead.
        self.sanitizer = sanitizer
        #: Optional fault schedule (see :mod:`repro.faults`); None =
        #: fault-free, zero overhead.  Must replay fault-for-fault
        #: identically to the reference engine (equivalence contract).
        self.faults = faults
        self.cycle = 0
        self.delivered: List[Packet] = []
        self.stats = MeshStats()

        n = topology.num_nodes
        depth = buffer_depth
        # --- struct-of-arrays router state -----------------------------
        #: FIFO ring buffers of packet indices, (node, port, slot).
        self._buf = np.zeros((n, NUM_PORTS, depth), dtype=np.int64)
        #: Ring-buffer head slot per (node, port).
        self._head = np.zeros((n, NUM_PORTS), dtype=np.int64)
        #: Entries queued per (node, port) — the occupancy ledger.
        self._count = np.zeros((n, NUM_PORTS), dtype=np.int64)
        #: Round-robin pointer per (node, output port).
        self._rr = np.zeros((n, NUM_PORTS), dtype=np.int64)

        # --- packet registry (None entries = lean, array-only packets) -
        self._pkts: List[Optional[Packet]] = []
        cap = 1024
        self._pkt_dst = np.zeros(cap, dtype=np.int64)
        self._pkt_injected = np.zeros(cap, dtype=np.int64)
        self._pkt_vertex = np.zeros(cap, dtype=np.int64)
        self._pkt_value = np.zeros(cap, dtype=np.float64)
        #: Registry indices of delivered packets, in delivery order
        #: (parallel to :attr:`delivered`; feeds
        #: :meth:`delivered_arrays`).  Growable array + cursor, so the
        #: per-cycle delivery log is a slice assignment and
        #: :meth:`delivered_arrays` reads a view, never a Python list.
        self._dlv_pidx = np.zeros(1024, dtype=np.int64)
        self._dlv_n = 0
        #: Router-FIFO occupancy as of the end of the last :meth:`step`
        #: (cheap read for per-cycle driver loops; equal to
        #: :meth:`total_occupancy` until the next injection).
        self.last_occupancy = 0

        # --- injection / link-traversal bookkeeping --------------------
        # Per source node: (future-injection heap keyed (when, seq),
        # ready deque of (seq, pidx, when, merged_cycle)).  Splitting
        # ready packets out of the heap avoids the reference's
        # pop-and-repush churn for backpressured injections while
        # reproducing its (when, seq) ordering exactly.
        self._pending: Dict[
            int, Tuple[List[List[int]], Deque[Tuple[int, int, int, int]]]
        ] = {}
        self._seq = 0

        # --- precomputed geometry --------------------------------------
        node = np.arange(n, dtype=np.int64)
        cols = topology.cols
        self._node_row = node // cols
        self._node_col = node % cols
        down = np.full((n, NUM_PORTS), -1, dtype=np.int64)
        down[:, NORTH] = node - cols
        down[:, SOUTH] = node + cols
        down[:, WEST] = node - 1
        down[:, EAST] = node + 1
        self._down_node = down
        self._arange_nodes = np.arange(n, dtype=np.int64)
        # (node, dst) -> XY output port, one gather per cycle instead of
        # the divmod/where route chain.  Quadratic in nodes, so only
        # built for meshes where the table stays small (int8, <= 16 MiB
        # — covers the 48x48 paper-scale probes).
        if n <= 4096:
            nr = self._node_row[:, None]
            nc = self._node_col[:, None]
            dr = self._node_row[None, :]
            dc = self._node_col[None, :]
            self._route_table = _xy_ports(nr, nc, dr, dc).astype(np.int8)
        else:
            self._route_table = None
        self._port_row = np.arange(NUM_PORTS, dtype=np.int64).reshape(
            1, NUM_PORTS
        )

        # --- preallocated arbitration scratch --------------------------
        # One row per node, sliced to the active subset each cycle; all
        # hot-path gathers/compares land here via np.take(..., out=) and
        # in-place ufuncs, so a steady-state cycle performs zero
        # full-width allocations (only grant-sized index arrays remain).
        self._buf_flat = self._buf.reshape(-1)
        self._head_flat = self._head.reshape(-1)
        self._count_flat = self._count.reshape(-1)
        self._rr_flat = self._rr.reshape(-1)
        self._down_node_flat = self._down_node.reshape(-1)
        #: Flat base index of (node, port, slot 0) into ``_buf_flat``;
        #: adding the head slot yields the head-of-line gather index.
        self._flat_node_port = (
            node[:, None] * NUM_PORTS + np.arange(NUM_PORTS, dtype=np.int64)
        ) * depth
        #: Flat base index of (node, dst 0) into the route table.
        self._rt_base = node * np.int64(n)
        #: Downstream flat (node, port) row per flat (node, out-port)
        #: grant index: ``down_node * NUM_PORTS + down_in`` in one
        #: gather when the whole mesh is active.
        self._down_flat_lut = (
            self._down_node * NUM_PORTS + _DOWN_IN[None, :]
        ).reshape(-1)
        self._route_flat = (
            self._route_table.reshape(-1)
            if self._route_table is not None
            else None
        )
        self._scr_cnt = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._scr_occ = np.zeros((n, NUM_PORTS), dtype=bool)
        self._scr_nocc = np.zeros((n, NUM_PORTS), dtype=bool)
        self._scr_heads = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._scr_dst = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._scr_out = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._scr_flat = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._scr_rr = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._scr_mask = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._scr_winner = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._scr_granted = np.zeros((n, NUM_PORTS), dtype=bool)
        self._scr_code = np.zeros(n, dtype=np.int64)
        self._scr_nbase = np.zeros(n, dtype=np.int64)
        self._scr_pernode = np.zeros(n, dtype=np.int64)
        self._scr_route8 = np.zeros((n, NUM_PORTS), dtype=np.int8)
        # Head-route cache: the fault-free XY output port of the
        # head-of-line packet per (node, port), -1 when empty.  Kept
        # current at every write that can change a head (injection,
        # commit-pass pop, link traversal), which touches far fewer rows
        # per cycle than the full head+route gather chain it replaces in
        # the fault-free arbitrate pass.  Routes are destination-only,
        # so the cache stays valid across fault windows (the fault
        # branch recomputes deflections from scratch and never reads
        # it).
        if self._route_flat is not None:
            self._head_route = np.full((n, NUM_PORTS), -1, dtype=np.int64)
            self._head_route_flat = self._head_route.reshape(-1)
        else:
            self._head_route = None
            self._head_route_flat = None
        # Deferred maintenance: mutation sites append their touched flat
        # rows here; the fault-free arbitrate pass flushes the union in
        # ONE recompute per cycle (a per-site eager refresh costs more
        # in fixed numpy overhead than the cached gather saves).
        self._hr_dirty: List[np.ndarray] = []
        # Cleared when the fault branch runs (it bypasses maintenance
        # reads); the next fault-free pass then rebuilds every row.
        self._hr_valid = True
        #: node * num_nodes per flat (node, port) row — route-table row
        #: base for :meth:`_refresh_head_route` without a divide.
        self._rt_base_pp = np.repeat(node * np.int64(n), NUM_PORTS)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def schedule(self, packet: Packet, cycle: Optional[int] = None) -> None:
        """Queue a packet for injection at ``cycle`` (default: its
        ``injected_cycle``).  Injection is retried every cycle until the
        source router's local buffer has space."""
        when = packet.injected_cycle if cycle is None else cycle
        if self.lean_packets:
            raise ConfigurationError(
                "lean_packets networks accept only inject_batch"
            )
        self._check_node(packet.src)
        self._check_node(packet.dst)
        pidx = self._register(packet)
        entry = self._pending.get(packet.src)
        if entry is None:
            entry = ([], deque())
            self._pending[packet.src] = entry
        heapq.heappush(entry[0], [when, self._seq, pidx])
        self._seq += 1

    def inject(self, packet: Packet) -> bool:
        """Immediately place a packet into its source router's local
        input buffer.  Returns False when the buffer is full."""
        if self.lean_packets:
            raise ConfigurationError(
                "lean_packets networks accept only inject_batch"
            )
        self._check_node(packet.src)
        self._check_node(packet.dst)
        src = packet.src
        if self._count[src, LOCAL] >= self.buffer_depth:
            return False
        packet.injected_cycle = self.cycle
        pidx = self._register(packet)
        slot = (self._head[src, LOCAL] + self._count[src, LOCAL]) % (
            self.buffer_depth
        )
        self._buf[src, LOCAL, slot] = pidx
        self._count[src, LOCAL] += 1
        if self._head_route_flat is not None:
            self._hr_dirty.append(
                np.array([src * NUM_PORTS + LOCAL], dtype=np.int64)
            )
        self._pkt_injected[pidx] = self.cycle
        self.stats.injected += 1
        return True

    def inject_batch(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        vertices: np.ndarray,
        values: np.ndarray,
        assume_unique: bool = False,
        checked: bool = True,
    ) -> np.ndarray:
        """Inject one packet per entry, in argument order; returns the
        per-entry acceptance mask.

        Equivalent to calling :meth:`inject` sequentially on freshly
        built packets: entries from the same source compete for that
        router's remaining local-buffer space in argument order, so
        entry ``i`` is accepted iff fewer earlier same-source entries
        fit than there were free slots.  One Packet object is built per
        *accepted* entry (rejected entries cost nothing), and all
        registry/buffer updates are batched array writes.

        ``assume_unique=True`` asserts that ``srcs`` has no repeats
        (one packet per PE per cycle), skipping the duplicate scan.
        ``checked=False`` additionally asserts every node index is in
        range, skipping the bounds scan (four array reductions) — for
        trusted per-cycle callers like the vectorised scatter engine.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        if srcs.size == 0:
            return np.zeros(0, dtype=bool)
        dsts = np.asarray(dsts, dtype=np.int64)
        n = self.topology.num_nodes
        if checked:
            lo = min(int(srcs.min()), int(dsts.min()))
            hi = max(int(srcs.max()), int(dsts.max()))
            if lo < 0 or hi >= n:
                bad = lo if lo < 0 else hi
                raise ConfigurationError(
                    f"node {bad} outside mesh with {n} nodes"
                )
        sf = srcs * NUM_PORTS  # flat (src, LOCAL) rows; LOCAL == 0
        space = self.buffer_depth - self._count_flat.take(sf)
        # Rank each entry within its source group (argument order) —
        # rank r fits iff r < free slots, exactly sequential inject().
        # The scatter engines inject at most one packet per source per
        # cycle, so the all-unique fast path is the common one.
        unique = assume_unique or (
            srcs.size == 1
            or int(np.bincount(srcs, minlength=n).max()) <= 1
        )
        if unique:
            rank = None
            ok = space > 0
        else:
            order = np.argsort(srcs, kind="stable")
            sorted_srcs = srcs[order]
            group_start = np.concatenate(
                ([True], sorted_srcs[1:] != sorted_srcs[:-1])
            )
            starts = np.flatnonzero(group_start)
            rank = np.empty(srcs.size, dtype=np.int64)
            rank[order] = np.arange(srcs.size) - starts[
                np.cumsum(group_start) - 1
            ]
            ok = rank < space
        if ok.all():
            # All accepted (the steady-state case): skip the nonzero
            # and five masked gathers below.
            acc = None
            a_src, a_dst = srcs, dsts
            a_vtx = np.asarray(vertices, dtype=np.int64)
            a_val = np.asarray(values, dtype=np.float64)
            a_sf = sf
        else:
            acc = ok.nonzero()[0]
            if acc.size == 0:
                return ok
            a_src = srcs[acc]
            a_dst = dsts[acc]
            a_vtx = np.asarray(vertices, dtype=np.int64)[acc]
            a_val = np.asarray(values, dtype=np.float64)[acc]
            a_sf = sf[acc]
        cycle = self.cycle
        n_acc = int(a_src.size)
        base = len(self._pkts)
        need = base + n_acc
        if need > self._pkt_dst.size:
            grow = self._pkt_dst.size
            while grow < need:
                grow *= 2
            self._grow_registry(grow)
        if self.lean_packets:
            self._pkts += [None] * n_acc
        else:
            self._pkts.extend(
                batch_packets(
                    a_src.tolist(),
                    a_dst.tolist(),
                    a_vtx.tolist(),
                    a_val.tolist(),
                    cycle,
                )
            )
        pidx = np.arange(base, need, dtype=np.int64)
        self._pkt_dst[base:need] = a_dst
        self._pkt_injected[base:need] = cycle
        self._pkt_vertex[base:need] = a_vtx
        self._pkt_value[base:need] = a_val
        slot = self._head_flat.take(a_sf)
        slot += self._count_flat.take(a_sf)
        if rank is not None:
            slot += rank if acc is None else rank[acc]
        slot %= self.buffer_depth
        bidx = a_sf * self.buffer_depth
        bidx += slot
        self._buf_flat[bidx] = pidx
        if rank is None:
            self._count_flat[a_sf] += 1
        else:
            np.add.at(self._count_flat, a_sf, 1)
        if self._head_route_flat is not None:
            self._hr_dirty.append(a_sf)
        self.stats.injected += n_acc
        return ok

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle (same phases as the
        reference: injection, then one batched arbitrate/reserve/commit
        pass over every router)."""
        if self._pending:
            self._inject_pending()

        per_node = self._scr_pernode
        self._count.sum(axis=1, out=per_node)
        active = per_node.nonzero()[0]
        if active.size:
            # Link moves are occupancy-neutral and only ejections leave
            # the FIFOs, so post-pass occupancy follows from the pre-pass
            # sum and the delivery cursor without a second full
            # reduction.
            ejected_before = self._dlv_n
            self._arbitrate_and_move(active)
            occupancy = int(per_node.sum()) - (self._dlv_n - ejected_before)
        else:
            occupancy = 0
        self.last_occupancy = occupancy
        if occupancy > self.stats.max_occupancy:
            self.stats.max_occupancy = occupancy
        self.cycle += 1
        self.stats.cycles = self.cycle
        if self.sanitizer is not None:
            self._run_sanitizer(occupancy)

    def _arbitrate_and_move(self, active: np.ndarray) -> None:
        """One switch-allocation pass over the ``active`` node subset.

        Reproduces the reference pipeline exactly: per-output round-robin
        grants from head-of-line XY requests, downstream space
        reservation against *pre-commit* occupancy, then simultaneous
        commit of every accepted move.
        """
        depth = self.buffer_depth
        count = self._count
        a = active.size
        faults = self.faults
        out = self._scr_out[:a]
        flat = self._scr_flat[:a]
        if faults is None and self._head_route is not None:
            # Fault-free fast path: the head-route cache already holds
            # each head packet's XY output port (-1 for empty rows), so
            # one 2-D gather replaces the whole head+route chain below.
            # Flush deferred maintenance first — one batched recompute
            # of every row touched since the last read.
            dirty = self._hr_dirty
            if not self._hr_valid:
                self._refresh_head_route(
                    np.arange(
                        self._head_route_flat.size, dtype=np.int64
                    )
                )
                self._hr_valid = True
                dirty.clear()
            elif dirty:
                self._refresh_head_route(
                    dirty[0] if len(dirty) == 1 else np.concatenate(dirty)
                )
                dirty.clear()
            self._head_route.take(active, axis=0, out=out, mode="clip")
        elif faults is None:
            # No route table (mesh too large): gather head-of-line
            # state and compute dimension-order routes directly.
            cnt = self._scr_cnt[:a]
            count.take(active, axis=0, out=cnt, mode="clip")
            occ = self._scr_occ[:a]  # ports with a head-of-line packet
            np.greater(cnt, 0, out=occ)
            self._flat_node_port.take(active, axis=0, out=flat, mode="clip")
            heads = self._scr_heads[:a]
            self._head.take(active, axis=0, out=heads, mode="clip")
            flat += heads  # flat (node, port, head-slot) index into _buf
            self._buf_flat.take(
                flat.reshape(-1), out=heads.reshape(-1), mode="clip"
            )
            dst = self._scr_dst[:a]
            self._pkt_dst.take(heads, out=dst, mode="clip")
            nocc = self._scr_nocc[:a]
            np.logical_not(occ, out=nocc)
            dst_row, dst_col = np.divmod(dst, self.topology.cols)
            row = self._node_row[active][:, None]
            col = self._node_col[active][:, None]
            out[...] = _xy_ports(row, col, dst_row, dst_col)
            np.copyto(out, -1, where=nocc)
        else:
            # Fault branch: gather head-of-line state, then apply the
            # vectorised deflection policy.  It never reads the cache,
            # so maintenance pauses here: mark the cache invalid and
            # drop the dirty backlog — the next fault-free pass
            # rebuilds every row from the live FIFO arrays.
            if self._head_route is not None:
                self._hr_valid = False
                self._hr_dirty.clear()
            cnt = self._scr_cnt[:a]
            count.take(active, axis=0, out=cnt, mode="clip")
            occ = self._scr_occ[:a]  # ports with a head-of-line packet
            np.greater(cnt, 0, out=occ)
            self._flat_node_port.take(active, axis=0, out=flat, mode="clip")
            heads = self._scr_heads[:a]
            self._head.take(active, axis=0, out=heads, mode="clip")
            flat += heads  # flat (node, port, head-slot) index into _buf
            self._buf_flat.take(
                flat.reshape(-1), out=heads.reshape(-1), mode="clip"
            )
            dst = self._scr_dst[:a]
            self._pkt_dst.take(heads, out=dst, mode="clip")
            dst_row, dst_col = np.divmod(dst, self.topology.cols)
            row = self._node_row[active][:, None]
            col = self._node_col[active][:, None]
            # Dimension-order routing for every head packet at once.
            fout = _xy_ports(row, col, dst_row, dst_col)
            # Vectorised mirror of repro.faults.route_with_faults: dead
            # XY links deflect one hop along the other axis (toward the
            # destination row, or the mesh interior), a dead deflection
            # blocks the packet this cycle, and frozen FIFOs withhold
            # their requests entirely.  Kept decision-for-decision
            # identical to the reference engine's scalar policy.
            dead = faults.link_dead_mask(self.cycle)[active]
            stall = faults.fifo_stall_mask(self.cycle)[active]
            valid = occ & ~stall
            a_col = np.arange(active.size)[:, None]
            xy_dead = valid & dead[a_col, fout]  # dead[:, LOCAL] is False
            fault_seen = bool(xy_dead.any()) or bool((stall & occ).any())
            if xy_dead.any():
                rows_total = self.topology.rows
                cols_total = self.topology.cols
                is_x = (fout == EAST) | (fout == WEST)
                deflect_same_row = np.where(
                    row + 1 < rows_total, SOUTH, NORTH
                )
                alt_x = np.where(
                    row < dst_row,
                    SOUTH,
                    np.where(row > dst_row, NORTH, deflect_same_row),
                )
                alt_y = np.where(col + 1 < cols_total, EAST, WEST)
                alt = np.where(is_x, alt_x, alt_y)
                blocked = dead[a_col, alt]
                if rows_total == 1:
                    blocked = blocked | is_x  # no Y axis to deflect along
                if cols_total == 1:
                    blocked = blocked | ~is_x  # no X axis to deflect along
                fout = np.where(
                    xy_dead, np.where(blocked, -1, alt), fout
                )
            if fault_seen:
                self.stats.degraded_cycles += 1
            out[...] = np.where(valid, fout, -1)

        # Switch allocation: for each (node, out port), the contending
        # input port closest at-or-after the round-robin pointer wins.
        # A node's five head requests (each -1..4) form one base-6 code;
        # _MASK_LUT turns the code into per-output request bitmasks and
        # _WINNER_LUT resolves each mask against the round-robin
        # pointer — two table gathers instead of an (active, out, in)
        # match/argmin tensor pass.
        out += 1  # request digits 0..5 (0 = no request)
        code = self._scr_code[:a]
        np.dot(out, _POW6, out=code)  # (a,)
        mask = self._scr_mask[:a]  # (a, out) request bitmasks
        _MASK_LUT.take(code, axis=0, out=mask, mode="clip")
        rr = self._scr_rr[:a]
        self._rr.take(active, axis=0, out=rr, mode="clip")
        np.multiply(rr, _WINNER_LUT.shape[1], out=flat)
        flat += mask
        winner = self._scr_winner[:a]  # (a, out)
        _WINNER_FLAT.take(
            flat.reshape(-1), out=winner.reshape(-1), mode="clip"
        )
        granted = self._scr_granted[:a]
        np.not_equal(mask, 0, out=granted)

        # Split local ejections from link traversals.  All gathers and
        # scatters below index the flat (node*NUM_PORTS + port) views —
        # single-array integer indexing skips the multi-array iterator
        # setup that dominated this tail.
        winner_flat = winner.reshape(-1)
        full = a == self._arange_nodes.size
        lm = np.flatnonzero(granted[:, LOCAL])
        local_nodes = lm if full else active.take(lm)
        local_in = winner_flat.take(lm * NUM_PORTS)  # LOCAL == 0
        granted[:, LOCAL] = False
        # Flat nonzero over the contiguous grant matrix, then split the
        # flat index into its (node-row, out-port) digits — one pass
        # instead of np.nonzero's two output arrays, and when every
        # node is active the flat index doubles directly as the
        # (node, port) gather index.
        gfl = np.flatnonzero(granted.reshape(-1))
        gin = winner_flat.take(gfl)
        go = gfl % NUM_PORTS
        if full:
            gnode = gfl // NUM_PORTS
            dnf = self._down_flat_lut.take(gfl)
        else:
            gnode = active.take(gfl // NUM_PORTS)
            dnf = self._down_flat_lut.take(gnode * NUM_PORTS + go)
        # Credit backpressure: reserve downstream space now (pre-commit
        # occupancy); a grant without space is a stalled move.
        space = self._count_flat.take(dnf) < depth
        stalled = int(go.size - np.count_nonzero(space))
        if stalled:
            self.stats.stalled_moves += stalled
            gnode, go, gin = gnode[space], go[space], gin[space]
            dnf = dnf[space]

        # Commit: dequeue every granted head and rotate the pointers.
        # (node, in) pairs are unique — each input port requests exactly
        # one output — so the fancy-indexed updates cannot collide.
        num_local = local_nodes.size
        if num_local and gnode.size:
            pop_node = np.concatenate([local_nodes, gnode])
            pop_in = np.concatenate([local_in, gin])
        elif num_local:
            pop_node, pop_in = local_nodes, local_in
        else:
            pop_node, pop_in = gnode, gin
        pf = pop_node * NUM_PORTS + pop_in
        pop_head = self._head_flat.take(pf)
        bidx = pf * depth
        bidx += pop_head
        pidx = self._buf_flat.take(bidx)
        pop_head += 1
        pop_head %= depth
        self._head_flat[pf] = pop_head
        self._count_flat[pf] -= 1
        # Round-robin pointer of the granting *output* port: the flat
        # index is node*NUM_PORTS + out, i.e. pf with the input digit
        # swapped for the output digit (LOCAL == 0 for ejections).
        rr_idx = pf - pop_in
        rr_idx[num_local:] += go
        rr_val = pop_in + 1
        rr_val %= NUM_PORTS
        self._rr_flat[rr_idx] = rr_val
        if self._head_route_flat is not None:
            self._hr_dirty.append(pf)
        if faults is not None and gnode.size:
            # Committed traversals leaving through a non-XY port are the
            # detours (counted at commit, same as the reference engine).
            t_dst = self._pkt_dst[pidx[num_local:]]
            t_row, t_col = np.divmod(t_dst, self.topology.cols)
            pure = _xy_ports(
                self._node_row[gnode], self._node_col[gnode], t_row, t_col
            )
            self.stats.rerouted_packets += int(np.count_nonzero(go != pure))

        if num_local:
            self._deliver(pidx[:num_local])
        if gnode.size:
            self._traverse(dnf, pidx[num_local:])

    def _deliver(self, pidx: np.ndarray) -> None:
        """Eject packets at their destination (ascending node order —
        the same intra-cycle delivery order the reference produces)."""
        self.stats.delivered += pidx.size
        self.stats.total_latency += int(
            pidx.size * self.cycle - self._pkt_injected[pidx].sum()
        )
        n0 = self._dlv_n
        need = n0 + pidx.size
        if need > self._dlv_pidx.size:
            grow = self._dlv_pidx.size
            while grow < need:
                grow *= 2
            log = np.zeros(grow, dtype=np.int64)
            log[:n0] = self._dlv_pidx[:n0]
            self._dlv_pidx = log
        self._dlv_pidx[n0:need] = pidx
        self._dlv_n = need
        if self.lean_packets:
            return
        packets = self._pkts
        out = self.delivered
        for i in range(pidx.size):
            packet = packets[pidx[i]]
            packet.delivered_cycle = self.cycle
            out.append(packet)

    def delivered_count(self) -> int:
        """Packets delivered so far (lean-mode-safe cursor for
        :meth:`delivered_arrays`; equals ``len(delivered)`` when packets
        are materialised)."""
        return self._dlv_n

    def delivered_arrays(
        self, start: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dst, vertex, value)`` of ``delivered[start:]`` as arrays.

        Batched read of the delivery stream for the vectorised scatter
        engine: the same packets as ``self.delivered[start:]``, without
        touching the Packet objects (three fancy-indexed reads of the
        registry sliced straight off the delivery log).
        """
        idx = self._dlv_pidx[start:self._dlv_n]
        return (
            self._pkt_dst[idx],
            self._pkt_vertex[idx],
            self._pkt_value[idx],
        )

    def _traverse(self, df: np.ndarray, pidx: np.ndarray) -> None:
        """Move packets across links into their downstream FIFOs this
        cycle.  ``df`` is the flat ``down_node * NUM_PORTS + down_in``
        row per packet."""
        depth = self.buffer_depth
        self.stats.total_hops += pidx.size
        slot = self._head_flat.take(df)
        slot += self._count_flat.take(df)
        slot %= depth
        bidx = df * depth
        bidx += slot
        self._buf_flat[bidx] = pidx
        self._count_flat[df] += 1
        if self._head_route_flat is not None:
            self._hr_dirty.append(df)

    def run_until_drained(
        self, max_cycles: int = 1_000_000, fast_forward: bool = True
    ) -> MeshStats:
        """Step until every scheduled packet has been delivered.

        With ``fast_forward`` (default), idle gaps — no FIFO occupancy —
        are skipped by jumping straight to the next pending-injection
        cycle; the resulting stats are identical to stepping through the
        gap.
        """
        while True:
            occupancy = self.total_occupancy()
            if not (self._pending or occupancy):
                break
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"mesh did not drain within {max_cycles} cycles"
                )
            if fast_forward and not occupancy:
                target = self.next_event_cycle()
                if target is not None and target > self.cycle:
                    self.fast_forward(min(target, max_cycles))
            self.step()
        return self.stats

    # ------------------------------------------------------------------
    # Engine-agnostic inspection (shared with MeshNetwork)
    # ------------------------------------------------------------------
    def total_occupancy(self) -> int:
        """Total packets buffered in router FIFOs."""
        return int(self._count.sum())

    def next_event_cycle(self) -> Optional[int]:
        """Cycle of the next pending injection while the mesh is idle.

        Returns None unless every FIFO is empty and an injection is
        still scheduled.  Jumping the cycle counter to the returned
        value is then observationally identical to stepping.
        """
        if self.total_occupancy():
            return None
        events: List[int] = []
        for future, ready in self._pending.values():
            if ready:
                return None  # a past-due packet is retrying: not idle
            if future:
                events.append(future[0][0])
        return min(events) if events else None

    def fast_forward(self, target: int) -> int:
        """Jump the idle network's cycle counter to ``target``; returns
        the number of cycles skipped.  Callers must only pass targets at
        or before :meth:`next_event_cycle` (the jump assumes nothing can
        move in between)."""
        skipped = target - self.cycle
        if skipped <= 0:
            return 0
        self.cycle = target
        self.stats.cycles = self.cycle
        return skipped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_head_route(self, pf: np.ndarray) -> None:
        """Recompute the head-route cache for the flat
        ``node * NUM_PORTS + port`` rows ``pf``.

        Idempotent — rows may be in any state (duplicates included),
        each is recomputed from the live FIFO arrays: the XY route of
        the current head packet, or -1 when the row is empty.
        """
        bidx = pf * self.buffer_depth
        bidx += self._head_flat.take(pf)
        pidx = self._buf_flat.take(bidx)
        dst = self._pkt_dst.take(pidx, mode="clip")
        rt = self._rt_base_pp.take(pf)
        rt += dst
        route = self._route_flat.take(rt)
        self._head_route_flat[pf] = np.where(
            self._count_flat.take(pf) > 0, route, -1
        )

    def _register(self, packet: Packet) -> int:
        pidx = len(self._pkts)
        self._pkts.append(packet)
        if pidx >= self._pkt_dst.size:
            self._grow_registry(self._pkt_dst.size * 2)
        self._pkt_dst[pidx] = packet.dst
        self._pkt_injected[pidx] = packet.injected_cycle
        self._pkt_vertex[pidx] = packet.vertex
        self._pkt_value[pidx] = packet.value
        return pidx

    def _grow_registry(self, grow: int) -> None:
        self._pkt_dst = np.resize(self._pkt_dst, grow)
        self._pkt_injected = np.resize(self._pkt_injected, grow)
        self._pkt_vertex = np.resize(self._pkt_vertex, grow)
        self._pkt_value = np.resize(self._pkt_value, grow)

    def _inject_pending(self) -> None:
        """Drain due injections into local buffers, in (when, seq) order
        per node, deferring what does not fit.

        Deferred packets wait in the ready deque instead of being
        re-pushed into the heap every cycle (the reference's behaviour);
        the merge below reproduces the reference's ordering exactly,
        because a deferred packet's effective injection key is
        ``(current_cycle, seq)``.
        """
        cycle = self.cycle
        depth = self.buffer_depth
        # One vectorised read of the local-port state, then plain-int
        # arithmetic inside the loop; the (unique-node) writes are
        # committed with a single fancy-indexed scatter at the end.
        local_count = self._count[:, LOCAL].tolist()
        local_head = self._head[:, LOCAL].tolist()
        pkts = self._pkts
        slot_node: List[int] = []
        slot_pos: List[int] = []
        slot_pidx: List[int] = []
        slot_when: List[int] = []
        upd_node: List[int] = []
        upd_fits: List[int] = []
        for node in list(self._pending):
            future, ready = self._pending[node]
            if future and future[0][0] <= cycle:
                fresh = []
                while future and future[0][0] <= cycle:
                    fresh.append(heapq.heappop(future))
                if ready:
                    merged = [
                        (cycle, seq, pidx, when, merged_at)
                        for seq, pidx, when, merged_at in ready
                    ]
                    merged += [
                        (when, seq, pidx, when, cycle)
                        for when, seq, pidx in fresh
                    ]
                    merged.sort()
                    ready.clear()
                    ready.extend(
                        (seq, pidx, when, merged_at)
                        for _eff, seq, pidx, when, merged_at in merged
                    )
                else:
                    ready.extend(
                        (seq, pidx, when, cycle)
                        for when, seq, pidx in fresh
                    )
            if ready:
                space = depth - local_count[node]
                fits = min(space, len(ready)) if space > 0 else 0
                if fits:
                    base = local_head[node] + local_count[node]
                    for j in range(fits):
                        _seq, pidx, when, merged_at = ready.popleft()
                        # A packet deferred by backpressure injects "now";
                        # one arriving on schedule keeps its own cycle.
                        injected = when if merged_at == cycle else cycle
                        slot_node.append(node)
                        slot_pos.append((base + j) % depth)
                        slot_pidx.append(pidx)
                        slot_when.append(injected)
                        pkts[pidx].injected_cycle = injected
                    upd_node.append(node)
                    upd_fits.append(fits)
            if not ready and not future:
                del self._pending[node]
        if slot_node:
            self._buf[slot_node, LOCAL, slot_pos] = slot_pidx
            self._pkt_injected[slot_pidx] = slot_when
            self._count[upd_node, LOCAL] += np.asarray(
                upd_fits, dtype=np.int64
            )
            if self._head_route_flat is not None:
                self._hr_dirty.append(
                    np.asarray(upd_node, dtype=np.int64) * NUM_PORTS
                )
            self.stats.injected += len(slot_node)

    def _run_sanitizer(self, occupancy: int) -> None:
        """End-of-cycle invariant audit over the array state (opt-in)."""
        san = self.sanitizer
        assert san is not None
        san.check_cycle_monotonic(self.cycle)
        san.check_fifo_depth_array(
            self._count,
            self.buffer_depth,
            where="fastmesh router",
            cycle=self.cycle,
            port_names=PORT_NAMES,
        )
        san.check_conservation(
            injected=self.stats.injected,
            delivered=self.stats.delivered,
            coalesced=0,  # the mesh moves packets; it never merges them
            in_flight=occupancy,
            where="fastmesh",
            cycle=self.cycle,
        )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.topology.num_nodes:
            raise ConfigurationError(
                f"node {node} outside mesh with "
                f"{self.topology.num_nodes} nodes"
            )


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def resolve_engine(engine: str, topology: MeshTopology) -> str:
    """Resolve an engine name (``auto``/``reference``/``vectorized``)
    to a concrete one, choosing by mesh size for ``auto``."""
    name = engine.lower()
    if name == "auto":
        return (
            "vectorized"
            if topology.num_nodes >= AUTO_VECTORIZE_MIN_NODES
            else "reference"
        )
    if name in ("reference", "vectorized"):
        return name
    raise ConfigurationError(
        f"unknown engine {engine!r} (auto/reference/vectorized)"
    )


def make_mesh_network(
    topology: MeshTopology,
    buffer_depth: int = 4,
    sanitizer: Optional["SimSanitizer"] = None,
    engine: str = "auto",
    faults: Optional["FaultSchedule"] = None,
) -> MeshEngine:
    """Build a cycle-level mesh simulator.

    ``engine`` selects the implementation: ``"reference"`` (one Router
    object per node — the auditable golden model), ``"vectorized"``
    (:class:`FastMeshNetwork`), or ``"auto"`` (vectorised at or above
    :data:`AUTO_VECTORIZE_MIN_NODES` nodes).  Both produce identical
    packets, cycles, and stats — including fault replay when a
    :class:`~repro.faults.schedule.FaultSchedule` is armed.
    """
    if resolve_engine(engine, topology) == "vectorized":
        return FastMeshNetwork(
            topology,
            buffer_depth=buffer_depth,
            sanitizer=sanitizer,
            faults=faults,
        )
    return MeshNetwork(
        topology, buffer_depth=buffer_depth, sanitizer=sanitizer,
        faults=faults,
    )
