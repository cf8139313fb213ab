"""Per-config-family circuit breakers for the sweep service.

A *config family* is the blast radius of a systematic failure: the
(algorithm, fidelity) slice of the sweep space whose cells share the
code paths that crash together.  When a family's attempts on the
:class:`~repro.experiments.executor.CellExecutor` keep failing — worker
deaths (``BrokenProcessPool``), timeouts, or a
:class:`~repro.errors.ReproError` such as
:class:`~repro.errors.SanitizerError` — retrying every new request against it just burns the worker
pool (each crash costs a pool rebuild) and starves healthy families.
The breaker converts that into fast, explicit degradation:

* **CLOSED** — normal operation; consecutive failures are counted and
  any success resets the count.
* **OPEN** — tripped after ``failure_threshold`` consecutive failures;
  cells in the family are *shed to the analytic model in-process* and
  marked ``degraded: true`` (reason ``breaker-open``) without touching
  the pool.  After ``cooldown_s`` the next asking cell becomes a probe.
* **HALF_OPEN** — exactly one probe runs at full fidelity; success
  closes the breaker, failure re-opens it and restarts the cooldown.
  Concurrent cells during the probe stay degraded.

State is a struct-of-arrays over family slots with the dtype contract
in :data:`BUFFER_DTYPES`; clocks are injected (``time.monotonic``
values) so tests drive transitions without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import CircuitOpenError

#: Breaker states as stored in the ``_state`` array.
CLOSED = 0
OPEN = 1
HALF_OPEN = 2

_STATE_NAMES = {CLOSED: "closed", OPEN: "open", HALF_OPEN: "half-open"}

#: Declared dtype contract for the per-family-slot state arrays
#: (SIM604 checks every allocation site against this table).
BUFFER_DTYPES = {
    "_state": "int64",
    "_failures": "int64",
    "_opened_at": "float64",
    "_trips": "int64",
    "_successes": "int64",
}


@dataclass(frozen=True)
class BreakerPolicy:
    """Tunables of one :class:`CircuitBreakerBank`.

    Attributes:
        failure_threshold: consecutive failures that trip a family from
            CLOSED to OPEN.
        cooldown_s: seconds an OPEN family sheds before the next asking
            cell is admitted as a HALF_OPEN probe.
        max_families: family-slot table size (slots are never
            reclaimed; the family alphabet is small and static).
    """

    failure_threshold: int = 3
    cooldown_s: float = 30.0
    max_families: int = 64


class CircuitBreakerBank:
    """A bank of circuit breakers keyed by config-family label."""

    def __init__(self, policy: Optional[BreakerPolicy] = None) -> None:
        self.policy = policy or BreakerPolicy()
        if self.policy.failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if self.policy.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        size = self.policy.max_families
        self._slots: Dict[str, int] = {}
        self._state = np.zeros(size, dtype=np.int64)
        self._failures = np.zeros(size, dtype=np.int64)
        self._opened_at = np.zeros(size, dtype=np.float64)
        self._trips = np.zeros(size, dtype=np.int64)
        self._successes = np.zeros(size, dtype=np.int64)

    def _slot(self, family: str) -> int:
        slot = self._slots.get(family)
        if slot is None:
            if len(self._slots) >= self.policy.max_families:
                raise ValueError(
                    f"breaker bank full ({self.policy.max_families} "
                    f"families); cannot track {family!r}"
                )
            slot = len(self._slots)
            self._slots[family] = slot
        return slot

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, family: str, now: float) -> bool:
        """Gate one full-fidelity attempt for ``family`` at time ``now``.

        Returns True when the attempt may run (CLOSED, or this call won
        the HALF_OPEN probe slot after the cooldown elapsed); raises
        :class:`~repro.errors.CircuitOpenError` when the family is shed
        (OPEN within cooldown, or another probe is already in flight).
        The caller must report the attempt's outcome via
        :meth:`record_success` / :meth:`record_failure`, otherwise a
        HALF_OPEN breaker would wedge.
        """
        slot = self._slot(family)
        state = int(self._state[slot])
        if state == CLOSED:
            return True
        if state == OPEN:
            if now - float(self._opened_at[slot]) >= self.policy.cooldown_s:
                self._state[slot] = HALF_OPEN
                return True
            raise CircuitOpenError(family)
        # HALF_OPEN: a probe is already in flight; shed until it lands.
        raise CircuitOpenError(family)

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def record_success(self, family: str) -> None:
        """A full-fidelity attempt in ``family`` completed cleanly."""
        slot = self._slot(family)
        self._successes[slot] += 1
        self._failures[slot] = 0
        self._state[slot] = CLOSED

    def record_failure(self, family: str, now: float) -> bool:
        """A full-fidelity attempt failed; returns True if now OPEN.

        A failed HALF_OPEN probe re-opens immediately (the cooldown
        restarts from ``now``); in CLOSED the consecutive-failure count
        advances and trips at the policy threshold.
        """
        slot = self._slot(family)
        self._failures[slot] += 1
        state = int(self._state[slot])
        should_open = state == HALF_OPEN or (
            int(self._failures[slot]) >= self.policy.failure_threshold
        )
        if should_open:
            self._state[slot] = OPEN
            self._opened_at[slot] = now
            self._trips[slot] += 1
        return bool(should_open)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state(self, family: str) -> str:
        slot = self._slots.get(family)
        return "closed" if slot is None else _STATE_NAMES[int(self._state[slot])]

    def open_families(self) -> Dict[str, str]:
        """Families currently not CLOSED, for readiness reporting."""
        return {
            family: _STATE_NAMES[int(self._state[slot])]
            for family, slot in sorted(self._slots.items())
            if int(self._state[slot]) != CLOSED
        }

    def snapshot(self) -> Dict[str, Any]:
        """Breaker state for the health/stats endpoints."""
        return {
            "policy": {
                "failure_threshold": self.policy.failure_threshold,
                "cooldown_s": self.policy.cooldown_s,
            },
            "families": {
                family: {
                    "state": _STATE_NAMES[int(self._state[slot])],
                    "consecutive_failures": int(self._failures[slot]),
                    "trips": int(self._trips[slot]),
                    "successes": int(self._successes[slot]),
                }
                for family, slot in sorted(self._slots.items())
            },
        }
