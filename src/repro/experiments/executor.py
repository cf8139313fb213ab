"""The one execution core of the batch sweep and the sweep daemon.

:func:`~repro.experiments.parallel.run_matrix_parallel` is a
synchronous client of it (``asyncio.run``), the ``repro serve``
daemon's :class:`~repro.service.scheduler.SweepScheduler` an async one.
Both journal through :class:`Journal` (the batch checkpoint and the
service journal are record layouts folded over it), retry under one
:class:`RetryPolicy` on a :class:`CellExecutor` pool, and answer cells
through :func:`run_cell`.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from io import BufferedWriter
from multiprocessing.context import BaseContext
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

import numpy as np

from repro.core.stats import SimulationReport
from repro.errors import ConfigurationError
from repro.experiments.runner import execute_cell
from repro.experiments.store import ResultCache
from repro.graph.datasets import stable_seed

T = TypeVar("T")
R = TypeVar("R")

#: One decoded journal line.
Record = Dict[str, Any]

#: Computes the named systems of one cell, like
#: :func:`~repro.experiments.runner.execute_cell`.
Execute = Callable[
    [str, str, Sequence[str], int, Optional[int]],
    List[Tuple[str, SimulationReport]],
]


class Journal(Generic[T]):
    """Append-only fsync'd JSONL journal behind a header record.

    Replay trusts the valid prefix (each record was fsync'd before the
    next began); :meth:`open` truncates whatever follows it before
    appending, so a resumed writer never glues a record onto a torn
    half-line.

    Args:
        path: journal file; it and its parent directories are created
            on the first :meth:`open`.
        header: first record of a fresh journal.
        parse: turns one record into a replayed value.  A record it
            rejects (``KeyError``/``TypeError``/``ValueError``) ends
            the valid prefix, like a torn line.
        identity: header keys a stored journal must match to be
            replayed and kept; any other journal is rewritten.
        sort_keys: serialise records with sorted keys.
    """

    def __init__(
        self,
        path: Path,
        header: Record,
        *,
        parse: Callable[[Record], T],
        identity: Tuple[str, ...] = ("schema",),
        sort_keys: bool = True,
    ) -> None:
        self.path = Path(path)
        self.header = header
        self.parse = parse
        self.identity = identity
        self.sort_keys = sort_keys
        self._fh: Optional[BufferedWriter] = None

    def replay(self) -> Tuple[List[T], int]:
        """The parsed records of the valid prefix, and its byte length.

        Reading stops at the first line that is incomplete (no trailing
        newline), is not a JSON object, or that ``parse`` rejects.  A
        missing file or a foreign header replays as ``([], 0)``: an
        incompatible journal must not be half-replayed.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return [], 0
        values: List[T] = []
        valid = 0
        while valid < len(raw):
            end = raw.find(b"\n", valid)
            if end < 0:
                break  # torn tail: the writer died mid-record
            try:
                record = json.loads(raw[valid : end + 1])
                if not isinstance(record, dict):
                    raise ValueError("journal record is not an object")
                if valid > 0:
                    values.append(self.parse(record))
                elif any(record.get(k) != self.header[k] for k in self.identity):
                    return [], 0
            except (KeyError, TypeError, ValueError):
                break
            valid = end + 1
        return values, valid

    def open(self, reset: bool = False) -> None:
        """Open for appending after the valid prefix; with ``reset`` or
        a foreign header, rewrite the file from a fresh header."""
        keep = 0 if reset else self.replay()[1]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")
        self._fh.truncate(keep)
        if keep == 0:
            self.append(self.header)

    def append(self, record: Record) -> None:
        """Write one record, flushed and fsync'd before returning."""
        assert self._fh is not None, "journal not open"
        line = json.dumps(record, sort_keys=self.sort_keys)
        self._fh.write(line.encode() + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout, retry and backoff knobs of a :class:`CellExecutor`.

    Attributes:
        cell_timeout: wall-clock seconds one attempt may take before it
            is cancelled (or its pool torn down) and retried; None
            disables timeouts.
        max_retries: attempts after the first before a cell is given up
            on (0 = no retries).
        backoff: base of the retry delay: retry *n* waits
            ``min(backoff * 2**(n-1), backoff_cap)`` plus a uniform
            jitter of up to as much again.
        backoff_cap: upper bound on the un-jittered retry delay.
        serial_fallback: batch runner only — recompute cells that
            exhausted their retries in-process instead of raising
            :class:`~repro.errors.WorkerCrashError` (the daemon
            degrades them).
        seed: root of the jitter's RNG stream, so a replay backs off
            identically.
    """

    cell_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05
    backoff_cap: float = 2.0
    serial_fallback: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive or None")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff and backoff_cap must be >= 0")


@dataclass(eq=False)
class CellFailed(Exception):
    """A cell ran out of attempts (or, with ``deadline`` set, out of
    time) unanswered; ``cause`` failed its last attempt, if any."""

    attempts: int
    cause: Optional[BaseException]
    deadline: bool = False


class CellExecutor:
    """A process pool that runs cells under one :class:`RetryPolicy`.

    A dead worker breaks the whole pool (``BrokenProcessPool``): it is
    torn down and rebuilt once per failure generation, and every attempt
    it took down is retried.  At most ``workers`` attempts are in flight,
    so an attempt's timeout runs from when it gets a worker, not while
    it queues.  ``mp_context`` picks the pool's start method (None: the
    platform default).
    """

    def __init__(
        self,
        workers: int,
        policy: RetryPolicy,
        mp_context: Optional[BaseContext] = None,
    ) -> None:
        self.workers = workers
        self.policy = policy
        self.generation = 0  # pool teardowns so far
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._slots = asyncio.Semaphore(workers)
        self._rng = np.random.default_rng(
            stable_seed(f"retry-backoff:{policy.seed}")
        )

    async def run(
        self,
        fn: Callable[..., R],
        *args: Any,
        deadline: Optional[float] = None,
        retry_on: Tuple[Type[BaseException], ...] = (),
        on_failure: Optional[Callable[[BaseException], None]] = None,
    ) -> Tuple[R, int]:
        """``fn(*args)`` on the pool; returns ``(result, attempts)``.

        Worker deaths, timeouts and the ``retry_on`` exception types are
        retried (``on_failure`` sees each); any other exception
        propagates.  ``deadline``, a ``time.monotonic()`` instant, caps
        every attempt's timeout.  Raises :class:`CellFailed` once the
        retries are spent or the deadline has passed.
        """
        retryable = (BrokenProcessPool, TimeoutError) + retry_on
        cause: Optional[BaseException] = None
        attempts = 0
        while attempts <= self.policy.max_retries:
            timeout = self.policy.cell_timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CellFailed(attempts, cause, deadline=True)
                timeout = remaining if timeout is None else min(timeout, remaining)
            attempts += 1
            try:
                return await self._attempt(fn, args, timeout), attempts
            except retryable as exc:
                cause = exc
                if on_failure is not None:
                    on_failure(exc)
            if attempts <= self.policy.max_retries:
                base = min(
                    self.policy.backoff * 2.0 ** (attempts - 1),
                    self.policy.backoff_cap,
                )
                await asyncio.sleep(base + float(self._rng.uniform(0.0, base)))
        raise CellFailed(attempts, cause)

    async def _attempt(
        self, fn: Callable[..., R], args: Tuple[Any, ...], timeout: Optional[float]
    ) -> R:
        async with self._slots:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self._mp_context
                )
            generation = self.generation
            try:
                future = self._pool.submit(fn, *args)
            except BrokenProcessPool:
                self._discard(generation)
                raise
            waiter = asyncio.wrap_future(future)
            done, _ = await asyncio.wait({waiter}, timeout=timeout)
            if not done:
                if not future.cancel():
                    # Already running: tearing the pool down is the only
                    # way to reclaim a hung worker.
                    self._discard(generation)
                waiter.cancel()
                raise TimeoutError(f"cell attempt exceeded its {timeout:g}s budget")
        if waiter.cancelled():  # queued on a pool a timeout tore down
            raise BrokenProcessPool("attempt cancelled by a pool teardown")
        error = waiter.exception()
        if isinstance(error, BrokenProcessPool):
            self._discard(generation)
        if error is not None:
            raise error
        return future.result(timeout=0)

    def _discard(self, generation: int) -> None:
        """Tear the pool down, once per failure generation: every attempt
        that saw the same broken pool calls in, and a later caller must
        not destroy the freshly built replacement."""
        if generation == self.generation:
            self.close()
            self.generation += 1

    def close(self) -> None:
        """Tear the pool down without waiting on (possibly hung) workers;
        the next attempt builds a fresh one."""
        if self._pool is not None:
            processes = getattr(self._pool, "_processes", None) or {}
            for proc in list(processes.values()):
                proc.terminate()
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


def run_cell(
    graph: str,
    algorithm: str,
    systems: Sequence[str],
    scale_shift: int = 0,
    max_iterations: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
    execute: Optional[Execute] = None,
) -> List[Tuple[str, SimulationReport, bool]]:
    """Answer one (graph, algorithm) cell through the result cache.

    Systems the cache holds are read back, unless ``refresh``;
    ``execute`` (default :func:`~repro.experiments.runner.execute_cell`)
    computes the rest, and each fresh report is written back.  Returns
    ``(system, report, cached)`` in ``systems`` order for every system
    answered; a system ``execute`` leaves out is absent.
    """
    answers: Dict[str, Tuple[str, SimulationReport, bool]] = {}
    if cache is not None and not refresh:
        for system in systems:
            report = cache.get(graph, algorithm, system, scale_shift, max_iterations)
            if report is not None:
                answers[system] = (system, report, True)
    missing = [system for system in systems if system not in answers]
    if missing:
        compute: Execute = execute or execute_cell
        for system, report in compute(
            graph, algorithm, missing, scale_shift, max_iterations
        ):
            answers[system] = (system, report, False)
            if cache is not None:
                cache.put(graph, algorithm, system, report, scale_shift, max_iterations)
    return [answers[system] for system in systems if system in answers]
