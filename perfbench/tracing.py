"""Span tracing installed from outside the program.

The tracer wraps public functions and methods of the ``repro`` layers
at the attribute each caller looks up (a name imported with ``from x
import f`` is patched in the importing module, not only where it is
defined), records one span per call — name, start, end, parent span and
request id — and restores every attribute when it is removed.  Spans
stay in memory until :meth:`Tracer.dump` writes them out.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Time a traced
thread window spends outside every top-level span of that thread is
``unattributed``; it is measured from the windows and the union of the
top-level spans, independently of the self times, so the two add up to
the traced thread time only if every span lies in a window of its own
thread and no two top-level spans of a thread overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Boundary:
    """One traced callable.

    Attributes:
        span: span name recorded for each call.
        owner: dotted module path, optionally followed by ``:Class``.
        attr: attribute name on that module or class.
        returned: optional function of the return value whose sum is
            kept as the counter ``<span>.returned``.
        generator: the callable returns a generator; the span then lasts
            until the generator is exhausted.
    """

    span: str
    owner: str
    attr: str
    returned: Optional[Callable[[Any], float]] = None
    generator: bool = False

    def resolve(self) -> Any:
        module, _, cls = self.owner.partition(":")
        target = importlib.import_module(module)
        return getattr(target, cls) if cls else target


class Tracer:
    """In-memory span recorder with per-thread call stacks."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, str, int, int]] = []
        self.windows: List[Tuple[int, float, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: str) -> None:
        """Tag this thread's following spans with ``request_id``."""
        self._local.request = request_id

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (
                    name,
                    start,
                    end,
                    parent,
                    getattr(self._local, "request", ""),
                    span_id,
                    threading.get_ident(),
                )
            )

    @contextmanager
    def thread_window(self) -> Iterator[None]:
        """Count the enclosed wall time as traced thread time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.windows.append(
                (threading.get_ident(), start, time.perf_counter())
            )

    def wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        name = boundary.span
        returned = boundary.returned
        counters = self.counters

        if boundary.generator:

            @functools.wraps(fn)
            def traced_generator(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    yield from fn(*args, **kwargs)

            traced_generator.__wrapped_by_perfbench__ = True  # type: ignore
            return traced_generator

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if returned is not None:
                counters[name + ".returned"] += returned(result)
            return result

        traced.__wrapped_by_perfbench__ = True  # type: ignore
        return traced

    # -- installation -------------------------------------------------
    def install(self, boundaries: Sequence[Boundary]) -> None:
        for boundary in boundaries:
            owner = boundary.resolve()
            original = owner.__dict__[boundary.attr]
            if getattr(original, "__wrapped_by_perfbench__", False):
                raise RuntimeError(f"{boundary} is already traced")
            self._saved.append((owner, boundary.attr, original))
            setattr(owner, boundary.attr, self.wrap(original, boundary))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------
    def layer_times(self) -> Dict[str, Tuple[float, int]]:
        """``{span name: (self seconds, calls)}``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for name, start, end, _parent, _req, span_id, _thread in self.spans:
            entry = out[name]
            entry[0] += (end - start) - child_time[span_id]
            entry[1] += 1
        return {name: (v[0], int(v[1])) for name, v in out.items()}

    @property
    def thread_time(self) -> float:
        """Wall time of all traced thread windows, summed over threads."""
        return sum(end - start for _thread, start, end in self.windows)

    def unattributed_time(self) -> float:
        """Window time of each thread not covered by its top-level spans."""
        covered = 0.0
        for thread, w_start, w_end in self.windows:
            intervals = sorted(
                (max(start, w_start), min(end, w_end))
                for _n, start, end, parent, _r, _i, span_thread in self.spans
                if parent < 0 and span_thread == thread
                and start < w_end and end > w_start
            )
            reach = w_start
            for start, end in intervals:
                covered += max(0.0, end - max(start, reach))
                reach = max(reach, end)
        return self.thread_time - covered

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "request", "id", "thread"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)

