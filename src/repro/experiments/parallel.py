"""Parallel fan-out of the experiment matrix.

The paper's evaluation is a (graph x algorithm x system) sweep whose
cells are independent; :func:`run_matrix_parallel` fans them out over
the process pool of a :class:`~repro.experiments.executor.CellExecutor`
and merges the results back deterministically, so a parallel sweep's
:class:`ExperimentMatrix` is identical — per-cell ``to_dict()`` output
included — to the serial :func:`~repro.experiments.runner.run_matrix`'s.

The unit of work is one (graph, algorithm) cell with all of its
missing systems, because the functional reference execution is shared
across systems.  A dead worker or an overdue cell costs a pool rebuild
and a retry, not the sweep; a cell the pool cannot run at all (no
multiprocessing support, an unpicklable payload) is recomputed
in-process.  Every cell goes through
:func:`~repro.experiments.executor.run_cell`, so cached cells never
reach a worker and fresh ones are written back as each lands; a
:class:`SweepCheckpoint` makes an interrupted sweep resumable even
without a cache, losing at most the in-flight cells.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import SimulationReport
from repro.errors import ConfigurationError, WorkerCrashError
from repro.experiments.executor import (
    CellExecutor,
    CellFailed,
    Execute,
    Journal,
    Record,
    RetryPolicy,
    run_cell,
)
from repro.experiments.runner import (
    ALGORITHM_ORDER,
    GRAPH_ORDER,
    SYSTEM_ORDER,
    ExperimentMatrix,
    execute_cell,
)
from repro.experiments.store import CODE_MODEL_VERSION, ResultCache

#: A (graph, algorithm, system) cell key.
CellKey = Tuple[str, str, str]

#: (graph, algorithm, missing-systems) work unit shipped to a worker.
_CellJob = Tuple[str, str, Tuple[str, ...]]

#: Computes a job's systems with the given function and persists them.
_Complete = Callable[[str, str, Tuple[str, ...], Execute], None]

_CHECKPOINT_SCHEMA = "repro-sweep-checkpoint/1"


def _parse_checkpoint_cell(record: Record) -> Tuple[CellKey, SimulationReport]:
    key = tuple(record["key"])
    if len(key) != 3:
        raise ValueError("malformed cell key")
    return key, SimulationReport.from_dict(record["report"])


class SweepCheckpoint:
    """A sweep's completed cells, journaled as they land.

    The record layout over a :class:`~repro.experiments.executor.Journal`:
    a header carrying the SHA-256 of the sweep's identity, then one
    ``{"key", "report"}`` record per completed (graph, algorithm,
    system) cell.  A journal written for a *different* sweep is ignored
    and rewritten rather than trusted — resuming PageRank cells into a
    BFS sweep would silently corrupt the matrix.

    Args:
        path: journal file location.
        signature: JSON-serialisable description of the sweep's identity
            (axes, scale shift, iteration cap, model version); only its
            digest is stored.
    """

    def __init__(self, path: os.PathLike, signature: Dict) -> None:
        self.path = Path(path)
        digest = hashlib.sha256(
            json.dumps(signature, sort_keys=True, default=str).encode()
        ).hexdigest()
        self._journal = Journal(
            self.path,
            {"schema": _CHECKPOINT_SCHEMA, "signature": digest},
            parse=_parse_checkpoint_cell,
            identity=("schema", "signature"),
            sort_keys=False,
        )

    def load(self) -> Dict[CellKey, SimulationReport]:
        """Completed cells journaled by a previous (interrupted) run;
        for duplicate keys the last complete entry wins."""
        return dict(self._journal.replay()[0])

    def start(self, reset: bool = False) -> None:
        """Open for appending; ``reset`` discards the journaled cells."""
        self._journal.open(reset)

    def append(self, key: CellKey, report: SimulationReport) -> None:
        """Journal one completed cell (durable on return)."""
        self._journal.append(
            {"key": list(key), "report": report.to_dict(include_iterations=True)}
        )

    def close(self) -> None:
        self._journal.close()


def _cell_worker(
    graph_name: str,
    algorithm_name: str,
    systems: Tuple[str, ...],
    scale_shift: int,
    max_iterations: Optional[int],
) -> List[Tuple[str, SimulationReport]]:
    """Top-level (hence picklable) worker entry point."""
    return execute_cell(
        graph_name, algorithm_name, systems, scale_shift, max_iterations
    )


def run_matrix_parallel(
    graphs: Sequence[str] = GRAPH_ORDER,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    systems: Sequence[str] = SYSTEM_ORDER,
    scale_shift: int = 0,
    max_iterations: Optional[int] = None,
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[Path] = None,
) -> ExperimentMatrix:
    """Run the sweep with cell-level process parallelism.

    Args:
        max_workers: worker processes; ``None`` uses one per CPU
            (bounded by the number of dispatched cells), ``1`` runs
            serially in-process without spawning a pool.
        cache: optional on-disk result cache; hits skip computation
            entirely and fresh cells are written back as they complete.
        refresh: recompute every cell even when cached/checkpointed.
        policy: timeout/retry knobs of the pooled path (defaults to
            :class:`RetryPolicy`'s defaults).
        checkpoint: optional path to a :class:`SweepCheckpoint`
            journal.  Completed cells are journaled as they land and an
            interrupted sweep re-invoked with the same path resumes
            from the journal, losing at most the in-flight cells.

    Returns:
        The same :class:`ExperimentMatrix` the serial runner produces —
        deterministic cell order, identical reports.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be >= 1 (got {max_workers})"
        )
    graphs = tuple(graphs)
    algorithms = tuple(algorithms)
    systems = tuple(systems)

    ckpt: Optional[SweepCheckpoint] = None
    resumed: Dict[CellKey, SimulationReport] = {}
    if checkpoint is not None:
        ckpt = SweepCheckpoint(
            checkpoint,
            signature={
                "graphs": list(graphs),
                "algorithms": list(algorithms),
                "systems": list(systems),
                "scale_shift": scale_shift,
                "max_iterations": max_iterations,
                "model_version": (
                    cache.model_version
                    if cache is not None
                    else CODE_MODEL_VERSION
                ),
            },
        )
        if not refresh:
            resumed = ckpt.load()

    done: Dict[CellKey, SimulationReport] = {}
    jobs: List[_CellJob] = []

    def from_checkpoint(
        graph: str, algorithm: str, missing: Sequence[str], *_: object
    ) -> List[Tuple[str, SimulationReport]]:
        # Planning pass: the cache missed these systems.  Journaled ones
        # are answered now (run_cell promotes them into the cache, so
        # later sweeps hit without the checkpoint file); the rest are
        # left out of the answer and become one job.
        todo = tuple(s for s in missing if (graph, algorithm, s) not in resumed)
        if todo:
            jobs.append((graph, algorithm, todo))
        return [(s, resumed[(graph, algorithm, s)]) for s in missing if s not in todo]

    for graph_name in graphs:
        for algorithm_name in algorithms:
            for system_label, report, _ in run_cell(
                graph_name,
                algorithm_name,
                systems,
                scale_shift,
                max_iterations,
                cache,
                refresh,
                execute=from_checkpoint,
            ):
                done[(graph_name, algorithm_name, system_label)] = report

    def complete(
        graph: str, algorithm: str, missing: Tuple[str, ...], execute: Execute
    ) -> None:
        # Runs in the parent the moment a job's results exist, so a
        # crash later in the sweep loses nothing.  The planning pass
        # already looked these systems up, hence ``refresh=True``.
        for system, report, _ in run_cell(
            graph,
            algorithm,
            missing,
            scale_shift,
            max_iterations,
            cache,
            refresh=True,
            execute=execute,
        ):
            done[(graph, algorithm, system)] = report
            if ckpt is not None:
                ckpt.append((graph, algorithm, system), report)

    if jobs:
        if ckpt is not None:
            ckpt.start(reset=refresh)
        try:
            if max_workers == 1 or len(jobs) == 1:
                for job in jobs:
                    complete(*job, execute_cell)
            else:
                _run_pooled(
                    jobs,
                    complete,
                    scale_shift,
                    max_iterations,
                    max_workers,
                    policy or RetryPolicy(),
                )
        finally:
            if ckpt is not None:
                ckpt.close()

    matrix = ExperimentMatrix(done)
    matrix.sort_nominal(graphs, algorithms, systems)
    return matrix


def _run_pooled(
    jobs: Sequence[_CellJob],
    complete: _Complete,
    scale_shift: int,
    max_iterations: Optional[int],
    max_workers: Optional[int],
    policy: RetryPolicy,
) -> None:
    """Fan the jobs over a :class:`CellExecutor` pool.

    Cells that exhaust their retries are recomputed in-process, or
    reported via :class:`~repro.errors.WorkerCrashError` when the policy
    forbids the fallback; so are cells the pool cannot run at all.
    """
    failed: Dict[_CellJob, Optional[BaseException]] = {}
    in_process: List[_CellJob] = []

    async def sweep() -> None:
        executor = CellExecutor(
            min(max_workers or os.cpu_count() or 1, len(jobs)), policy
        )

        async def one(job: _CellJob) -> None:
            try:
                results, _ = await executor.run(
                    _cell_worker, *job, scale_shift, max_iterations
                )
            except CellFailed as exc:
                if policy.serial_fallback:
                    in_process.append(job)
                else:
                    failed[job] = exc.cause
            except (pickle.PicklingError, OSError, ImportError):
                in_process.append(job)
            else:
                complete(*job, lambda *_: results)

        try:
            await asyncio.gather(*(one(job) for job in jobs))
        finally:
            executor.close()

    asyncio.run(sweep())
    for job in in_process:
        complete(*job, execute_cell)
    if not failed:
        return
    cells = [(g, a, s) for g, a, missing in failed for s in missing]
    causes = {
        (g, a, s): cause
        for (g, a, missing), cause in failed.items()
        if cause is not None
        for s in missing
    }
    # Chain the first original failure so the traceback shows what
    # actually broke inside the pool.
    raise WorkerCrashError(cells, causes=causes) from next(
        iter(causes.values()), None
    )
