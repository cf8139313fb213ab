"""Units of the shared execution core: journal, executor, run_cell.

The batch sweep and the sweep daemon both sit on these; their
end-to-end crash, resume and recovery behaviour is exercised in
``test_parallel_resilience.py`` and ``test_service_server.py``.
"""

import asyncio
import json

import pytest

from repro.errors import ReproError
from repro.experiments.executor import (
    CellExecutor,
    CellFailed,
    Journal,
    RetryPolicy,
    run_cell,
)
from repro.experiments.runner import execute_cell
from repro.experiments.store import ResultCache

HEADER = {"schema": "test-journal/1", "note": "free-form"}


def strict_parse(record):
    """Accepts only ``{"n": int}`` records."""
    if not isinstance(record["n"], int):
        raise ValueError("n must be an int")
    return record["n"]


def journal(path, **kwargs):
    return Journal(path, HEADER, parse=strict_parse, **kwargs)


class TestJournal:
    def test_missing_file_replays_empty(self, tmp_path):
        assert journal(tmp_path / "j.jsonl").replay() == ([], 0)

    def test_round_trip_and_identity(self, tmp_path):
        path = tmp_path / "sub" / "j.jsonl"
        writer = journal(path)
        writer.open()
        writer.append({"n": 1})
        writer.append({"n": 2})
        writer.close()
        values, valid = journal(path).replay()
        assert values == [1, 2]
        assert valid == path.stat().st_size
        # Keys outside ``identity`` may differ; ``schema`` may not.
        other_note = Journal(path, dict(HEADER, note="x"), parse=strict_parse)
        assert other_note.replay()[0] == [1, 2]
        foreign = Journal(path, {"schema": "other/1"}, parse=strict_parse)
        assert foreign.replay() == ([], 0)
        foreign.open()  # a foreign journal is rewritten, not appended to
        foreign.close()
        assert json.loads(path.read_text()) == {"schema": "other/1"}

    def test_rejected_record_ends_prefix_and_is_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = journal(path)
        writer.open()
        writer.append({"n": 1})
        writer.append({"n": "bad"})
        writer.append({"n": 3})
        writer.close()
        values, valid = journal(path).replay()
        assert values == [1]
        resumed = journal(path)
        resumed.open()
        assert path.stat().st_size == valid
        resumed.append({"n": 4})
        resumed.close()
        assert journal(path).replay()[0] == [1, 4]

    def test_reset_discards_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = journal(path)
        writer.open()
        writer.append({"n": 1})
        writer.close()
        writer.open(reset=True)
        writer.close()
        assert journal(path).replay()[0] == []

    def test_sort_keys_controls_the_bytes(self, tmp_path):
        for sort_keys, line in (
            (True, b'{"a": 1, "n": 5}'),
            (False, b'{"n": 5, "a": 1}'),
        ):
            path = tmp_path / f"j-{sort_keys}.jsonl"
            writer = journal(path, sort_keys=sort_keys)
            writer.open()
            writer.append({"n": 5, "a": 1})
            writer.close()
            assert path.read_bytes().splitlines()[-1] == line


# Pool workers: top-level so they pickle by reference.
def square(x):
    return x * x


def always_fails(_):
    raise ReproError("worker refused")


def retry_case(policy, fn, *args, **kwargs):
    async def body():
        executor = CellExecutor(1, policy)
        try:
            return await executor.run(fn, *args, **kwargs)
        finally:
            executor.close()
    return asyncio.run(body())


class TestCellExecutor:
    def test_success_reports_one_attempt(self):
        assert retry_case(RetryPolicy(), square, 7) == (49, 1)

    def test_retry_on_exhausts_then_fails(self):
        failures = []
        with pytest.raises(CellFailed) as excinfo:
            retry_case(
                RetryPolicy(max_retries=2, backoff=0.0),
                always_fails,
                0,
                retry_on=(ReproError,),
                on_failure=failures.append,
            )
        assert excinfo.value.attempts == 3
        assert not excinfo.value.deadline
        assert isinstance(excinfo.value.cause, ReproError)
        assert len(failures) == 3

    def test_other_exceptions_propagate(self):
        with pytest.raises(ReproError):
            retry_case(RetryPolicy(max_retries=2), always_fails, 0)

    def test_past_deadline_fails_without_an_attempt(self):
        with pytest.raises(CellFailed) as excinfo:
            retry_case(RetryPolicy(), square, 3, deadline=0.0)
        assert excinfo.value.deadline
        assert excinfo.value.attempts == 0


class TestRunCell:
    KW = dict(scale_shift=-9, max_iterations=3)

    def test_cache_hits_are_flagged_and_not_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        systems = ["Gunrock", "ScalaGraph-128"]
        cold = run_cell("PK", "bfs", systems, cache=cache, **self.KW)
        assert [(s, cached) for s, _, cached in cold] == [
            ("Gunrock", False),
            ("ScalaGraph-128", False),
        ]

        def forbidden(*args):  # pragma: no cover - guard
            raise AssertionError("a cached system was recomputed")

        warm = run_cell(
            "PK", "bfs", systems, cache=cache, execute=forbidden, **self.KW
        )
        assert [cached for _, _, cached in warm] == [True, True]
        for (_, fresh, _), (_, hit, _) in zip(cold, warm):
            assert json.dumps(fresh.to_dict()) == json.dumps(hit.to_dict())

    def test_systems_execute_leaves_out_are_absent(self):
        def only_first(graph, algorithm, missing, *rest):
            return execute_cell(graph, algorithm, missing[:1], *rest)

        rows = run_cell(
            "PK", "bfs", ["Gunrock", "GraphDynS-128"], execute=only_first,
            **self.KW,
        )
        assert [s for s, _, _ in rows] == ["Gunrock"]
