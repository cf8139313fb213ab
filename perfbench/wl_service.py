"""service-sweep: two closed-loop clients against a ``repro serve`` daemon.

Set-up starts the daemon as a subprocess (one worker, fresh state dir
under ``.perfbench-run/``) and warms it up with one analytic and one
cycle-fidelity request, which spawns the worker pool and makes the
first call into each engine.  Two client threads with distinct
``client_id`` values then each send their next request only after the
previous one's ``/stream`` delivered its terminal ``done`` record;
latency is submit to that record.  Each client repeats a seeded round:

* ``fresh``   — a new analytic cell (scale shift -4, all five systems):
  a cache miss, a cache write and journal appends.  Fresh cells differ
  by an iteration cap far above convergence, so each does the same work
  as an uncapped run of its base cell;
* ``cycle``   — a cycle-fidelity cell, never cached;
* ``retag``   — the fresh cell again under a new ``tag``: a new request
  for cached results (``store.hit_ratio`` shows whether the daemon's
  result cache served them);
* ``dedupe``  — the fresh payload resubmitted as is: request dedupe.

The seed picks each client's order of the 15 base cells (5 graphs x
bfs/sssp/cc); the cycle cells alternate between two graphs, so that
every seed asks for the same cycle-fidelity work.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import HostFigures, Phase, digest
from hostspeed import HostClock

NAME = "service-sweep"
CLIENTS = 2
SCALE_SHIFT = -4
CYCLE_SCALE_SHIFT = -5
SYSTEMS = [
    "Gunrock",
    "GraphDynS-128",
    "GraphDynS-512",
    "ScalaGraph-128",
    "ScalaGraph-512",
]
CYCLE_SYSTEMS = ["ScalaGraph-128"]
GRAPHS = ["PK", "LJ", "OR", "RM", "TW"]
ALGORITHMS = ["bfs", "sssp", "cc"]
CYCLE_GRAPHS = ["LJ", "OR"]
#: Iteration caps of fresh cells start here: far above the iterations
#: any of ALGORITHMS needs to converge at this scale.
FRESH_CAP_BASE = 100_000
#: Requests per client whose records enter the output digest.
DIGEST_REQUESTS = 8

REQUIRED_SPANS = ("service.submit", "service.stream")

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench-run"


def import_program() -> None:
    global ServiceClient
    from repro.service.client import ServiceClient


@dataclass
class State:
    seed: int
    state_dir: Path
    daemon: subprocess.Popen
    host: str
    port: int


@dataclass
class Outcome:
    kind: str
    ok: bool
    deduped: bool = False
    records: List[Dict[str, Any]] = field(default_factory=list)


def start_daemon(seed: int) -> State:
    RUN_DIR.mkdir(exist_ok=True)
    state_dir = Path(tempfile.mkdtemp(prefix="service-", dir=RUN_DIR))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(state_dir),
            "--workers",
            "1",
            "--seed",
            str(seed),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    line = daemon.stdout.readline() if daemon.stdout else ""
    if not line:
        stop_daemon(daemon, state_dir)
        raise RuntimeError("daemon exited before announcing its endpoint")
    endpoint = json.loads(line)["serving"]
    return State(seed, state_dir, daemon, endpoint["host"], int(endpoint["port"]))


def stop_daemon(daemon: subprocess.Popen, state_dir: Path) -> None:
    """Drain the daemon (SIGTERM), then reap anything left in its group."""
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    # A drained daemon has joined its workers; anything still in its
    # process group is killed and waited for (bounded).
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(daemon.pid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.05)
            os.killpg(daemon.pid, 0)
    except ProcessLookupError:
        pass
    if daemon.stdout:
        daemon.stdout.close()
    shutil.rmtree(state_dir, ignore_errors=True)


def request(
    client: Any, payload: Dict[str, Any]
) -> Tuple[bool, bool, List[Dict[str, Any]]]:
    """Submit and stream to the terminal record: ``(ok, deduped, records)``."""
    http, body = client.submit(payload)
    if http not in (200, 202):
        return False, False, []
    records = list(client.stream(body["request_id"]))
    done = records[-1] if records else {}
    cells = [r for r in records if r.get("kind") == "cell"]
    expected = len(payload["graphs"]) * len(payload["algorithms"]) * len(
        payload["systems"]
    )
    ok = (
        done.get("kind") == "done"
        and done.get("cells") == expected
        and len(cells) == expected
        and done.get("degraded") == 0
        and not any(r.get("degraded") for r in cells)
    )
    return ok, bool(body.get("deduped")), cells


def setup(seed: int) -> State:
    state = start_daemon(seed)
    try:
        client = ServiceClient(state.host, state.port, timeout_s=60.0)
        warm = {
            "client_id": "warm-up",
            "graphs": ["PK"],
            "algorithms": ["bfs"],
            "systems": SYSTEMS,
            "scale_shift": SCALE_SHIFT,
            "max_iterations": 1,
        }
        cycle = dict(
            warm,
            systems=CYCLE_SYSTEMS,
            scale_shift=CYCLE_SCALE_SHIFT,
            fidelity="cycle",
            max_iterations=None,
        )
        for payload in (warm, cycle):
            ok, _, _ = request(client, payload)
            if not ok:
                raise RuntimeError(f"warm-up request failed: {payload}")
    except BaseException:
        stop_daemon(state.daemon, state.state_dir)
        raise
    return state


def client_plan(seed: int, client: int) -> List[Tuple[str, str]]:
    """The client's seeded order of the base cells."""
    cells = [(g, a) for g in GRAPHS for a in ALGORITHMS]
    random.Random(f"{seed}:{client}").shuffle(cells)
    return cells


def run_client(
    state: State,
    index: int,
    seconds: float,
    clock: HostClock,
    tracer: Any,
    intervals: List[Tuple[float, float]],
    outcomes: List[Outcome],
) -> None:
    client = ServiceClient(state.host, state.port, timeout_s=60.0)
    client_id = f"client-{index}"
    cells = client_plan(state.seed, index)
    step = 0
    with tracer.thread_window() if tracer else nullcontext():
        while True:
            round_no, kind_no = divmod(step, 4)
            graph, algorithm = cells[round_no % len(cells)]
            fresh = {
                "client_id": client_id,
                "graphs": [graph],
                "algorithms": [algorithm],
                "systems": SYSTEMS,
                "scale_shift": SCALE_SHIFT,
                "max_iterations": FRESH_CAP_BASE + 1000 * index + round_no,
            }
            kind, payload = [
                ("fresh", fresh),
                (
                    "cycle",
                    {
                        "client_id": client_id,
                        "graphs": [CYCLE_GRAPHS[round_no % len(CYCLE_GRAPHS)]],
                        "algorithms": ["bfs"],
                        "systems": CYCLE_SYSTEMS,
                        "scale_shift": CYCLE_SCALE_SHIFT,
                        "fidelity": "cycle",
                        "tag": f"{client_id}:{round_no}",
                    },
                ),
                ("retag", dict(fresh, tag="retag")),
                ("dedupe", fresh),
            ][kind_no]
            if tracer:
                tracer.set_request(f"{client_id}#{step}")
            clock.sample()
            t0 = time.perf_counter()
            try:
                ok, deduped, records = request(client, payload)
            except Exception:  # counted, not fatal
                traceback.print_exc()
                ok, deduped, records = False, False, []
            intervals.append((t0, time.perf_counter()))
            outcomes.append(Outcome(kind, ok, deduped, records))
            step += 1
            if clock.elapsed() >= seconds and step >= DIGEST_REQUESTS:
                break


def measure(state: State, seconds: float, tracer: Any = None) -> Phase:
    """Both clients until ``seconds`` reference seconds have passed; each
    samples the host-speed kernel before each of its requests."""
    clock = HostClock()
    per_client: List[Tuple[List[Tuple[float, float]], List[Outcome]]] = [
        ([], []) for _ in range(CLIENTS)
    ]
    start = clock.start()
    threads = [
        threading.Thread(
            target=run_client,
            args=(state, i, seconds, clock, tracer, *per_client[i]),
        )
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    clock.sample()
    end = time.perf_counter()
    intervals = [span for spans, _ in per_client for span in spans]
    outcomes = [o for _, outs in per_client for o in outs]
    _, stats = ServiceClient(state.host, state.port).stats()
    return Phase(
        wall_s=clock.rescale(start, end),
        latencies_s=clock.rescale_all(intervals),
        work=float(len(intervals)),
        host=HostFigures(end - start, clock.median_factor()),
        attempted=len(intervals),
        failed=sum(1 for o in outcomes if not o.ok),
        outputs=[outs for _, outs in per_client],
        notes={"pool_generation": stats.get("pool_generation", -1)},
    )


def finish(state: State, phase: Phase) -> Dict[str, Any]:
    """Client-side service figures, the model-error probe, and a digest of
    each client's first ``DIGEST_REQUESTS`` answers (retry counts left
    out: they depend on timing, not on what was computed)."""
    from wl_cycle import model_error_probe

    outcomes = [o for outs in phase.outputs for o in outs]
    records = [r for o in outcomes for r in o.records]
    analytic = [r for r in records if r["summary"].get("fidelity") == "analytic"]
    cached = [r for r in analytic if r["summary"].get("cached")]
    first = [
        [o.kind, [{k: v for k, v in r.items() if k != "attempts"} for r in o.records]]
        for outs in phase.outputs
        for o in outs[:DIGEST_REQUESTS]
    ]
    return {
        "model_error_x": model_error_probe(state.seed),
        "digest": digest(first),
        "service": {
            "service.dedupe_ratio": sum(o.deduped for o in outcomes) / len(outcomes),
            "service.retries": sum(r["attempts"] - 1 for r in records),
            "service.pool_generation": phase.notes["pool_generation"],
            "store.hit_ratio": len(cached) / len(analytic) if analytic else 0.0,
        },
    }


def teardown(state: State) -> None:
    stop_daemon(state.daemon, state.state_dir)
