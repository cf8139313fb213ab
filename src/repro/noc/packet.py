"""Packet records exchanged over the cycle-level NoC simulators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_packet_ids = itertools.count()


@dataclass
class Packet:
    """One vertex-update packet in flight on the NoC.

    Attributes:
        src: source node ID (the PE whose GU produced the update).
        dst: destination node ID (the PE whose SPD owns the vertex).
        vertex: destination vertex ID carried by the update.
        value: scatter result to be reduced into the vertex's V_temp.
        injected_cycle: cycle at which the packet entered the network.
        delivered_cycle: set by the simulator on arrival.
        pid: unique packet ID (diagnostics).
        payload: optional arbitrary extra payload for tests.
    """

    src: int
    dst: int
    vertex: int = 0
    value: float = 0.0
    injected_cycle: int = 0
    delivered_cycle: Optional[int] = None
    pid: int = field(default_factory=lambda: next(_packet_ids))
    payload: Any = None

    @property
    def latency(self) -> Optional[int]:
        """Cycles from injection to delivery, once delivered."""
        if self.delivered_cycle is None:
            return None
        return self.delivered_cycle - self.injected_cycle


def batch_packets(srcs, dsts, vertices, values, injected_cycle: int):
    """Build one :class:`Packet` per entry.

    Shared helper for the batched injection paths, which construct
    hundreds of thousands of packets per run — one tight listcomp
    instead of per-call argument marshalling at every call site.
    """
    return [
        Packet(src, dst, vertex, value, injected_cycle)
        for src, dst, vertex, value in zip(srcs, dsts, vertices, values)
    ]
