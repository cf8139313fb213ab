"""ScalaGraph reproduction benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cycle-32x32 --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``fig14-analytic`` — the full Figure 14 matrix, serial, no cache;
* ``cycle-32x32``    — a seeded stream of cycle-accurate 32x32 runs;
* ``service-sweep``  — two closed-loop clients against a ``repro serve``
  daemon with one worker.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics.  ``--trace 1`` runs the workload once untraced and once with
span wrappers installed on every layer boundary (see ``layers.py``),
checks that the traced run saw each required boundary and that the
layer self times plus the unattributed time add up to the traced thread
time, writes the spans to ``.perfbench-out/`` and prints the per-layer
metrics.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it are for people: provenance (seed, output digest), the latency
tail's percentile and sample count, the host-time figures, and the
conservation row.

End-to-end times are in reference seconds: host seconds rescaled by a
host-speed kernel timed between operations (see ``hostspeed.py``), so
that the host's own drift in speed divides out.

The program is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Set-ups per ``--trace 0`` run (this process's plus fresh interpreters);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Allowed gap between the traced thread time and the sum of layer self
#: times plus unattributed time (seconds per traced second).
CONSERVATION_TOLERANCE = 1e-3

WORKLOAD_MODULES = {
    "fig14-analytic": "wl_fig14",
    "cycle-32x32": "wl_cycle",
    "service-sweep": "wl_service",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load(workload: str) -> Any:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    return importlib.import_module(WORKLOAD_MODULES[workload])


def _check_program_origin() -> None:
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"repro imported from {origin}, not {SRC}")


def setup_once(wl: Any, seed: int) -> Tuple[Any, float]:
    """Import the program and set the workload up; returns the state and
    the reference seconds it took."""
    from hostspeed import timed

    def setup() -> Any:
        wl.import_program()
        _check_program_origin()
        return wl.setup(seed)

    return timed(setup)


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--setup-only",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=120,
        check=True,
        text=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(
    workload: str, wl: Any, seed: int, seconds: float
) -> Dict[str, Any]:
    from common import median, metric, peak_rss_mb, tail_percentile

    state, first_setup = setup_once(wl, seed)
    setups = [first_setup]
    try:
        phase = wl.measure(state, seconds)
        extras = wl.finish(state, phase)
    finally:
        wl.teardown(state)
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(setup_in_fresh_interpreter(workload, seed))

    pct, tail, beyond = tail_percentile(phase.latencies_s)
    ok = phase.attempted - phase.failed
    _provenance(workload, seed, extras)
    print(
        f"latency_tail_ms = p{pct:g} of {len(phase.latencies_s)} samples "
        f"({beyond} beyond it); setup samples (s) = "
        + ", ".join(f"{s:.3f}" for s in setups)
    )
    print(
        f"host time: measured phase {phase.host.wall_s:.3f} host s; "
        f"{phase.host.factor:.4f} reference s per host s (median)"
    )
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "wall_s": metric(phase.wall_s, "s"),
        "throughput_per_s": metric(
            phase.throughput or phase.work / phase.wall_s, "1/s"
        ),
        "latency_p50_ms": metric(
            1e3 * (phase.p50_s or median(phase.latencies_s)), "ms"
        ),
        "latency_tail_ms": metric(1e3 * tail, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "model_error_x": metric(extras["model_error_x"], "x"),
        "success_frac": metric(ok / phase.attempted, "frac"),
    }
    return {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }


def traced(workload: str, wl: Any, seed: int, seconds: float) -> Dict[str, Any]:
    from layers import BOUNDARIES, per_layer_metrics
    from tracing import Tracer

    wl.import_program()
    _check_program_origin()

    def window(tracer: Any) -> tuple:
        start = time.perf_counter()
        with tracer.thread_window() if tracer else nullcontext():
            state = wl.setup(seed)
        try:
            phase = wl.measure(state, seconds, tracer)
            elapsed = time.perf_counter() - start
        finally:
            wl.teardown(state)
        return state, phase, elapsed

    state_u, phase_u, wall_u = window(None)
    extras_u = wl.finish(state_u, phase_u)
    del state_u

    tracer = Tracer()
    tracer.install(BOUNDARIES)
    try:
        state_t, phase_t, wall_t = window(tracer)
    finally:
        tracer.remove()
    extras_t = wl.finish(state_t, phase_t)

    attempted = phase_u.attempted + phase_t.attempted
    failed = phase_u.failed + phase_t.failed
    # Tracing must not change what is simulated.
    attempted += 1
    if extras_u.get("digest") != extras_t.get("digest") or extras_u.get(
        "sim"
    ) != extras_t.get("sim"):
        failed += 1
        print("traced and untraced outputs differ", file=sys.stderr)

    times = tracer.layer_times()
    missing = [name for name in wl.REQUIRED_SPANS if times.get(name, (0, 0))[1] == 0]
    attempted += 1
    if missing:
        failed += 1
        print(f"required boundaries recorded no calls: {missing}", file=sys.stderr)

    self_total = sum(s for s, _ in times.values())
    thread_time = tracer.thread_time
    unattributed = tracer.unattributed_time()
    residual = thread_time - (self_total + unattributed)
    conserved = abs(residual) <= CONSERVATION_TOLERANCE * thread_time
    attempted += 1
    if not conserved:
        failed += 1
        print("layer self times do not add up to the traced time", file=sys.stderr)

    # Overhead per unit of work: time-bounded workloads do less work when
    # traced rather than taking longer.
    overhead = (phase_t.wall_s / phase_t.work) / (phase_u.wall_s / phase_u.work) - 1.0
    _provenance(workload, seed, extras_t)
    print(
        f"conservation: traced thread time {thread_time:.4f} s = "
        f"layer self times {self_total:.4f} s + unattributed "
        f"{unattributed:.4f} s (residual {residual:+.2e} s, tolerance "
        f"{CONSERVATION_TOLERANCE:g} x traced time); traced window "
        f"{wall_t:.3f} s vs untraced {wall_u:.3f} s; {len(tracer.spans)} spans"
    )
    for name, (self_s, calls) in sorted(times.items()):
        print(f"  {name:28s} self {self_s:10.4f} s  calls {calls}")
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
    tracer.dump(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer_metrics(tracer, extras_t, overhead, unattributed),
    }


def _provenance(workload: str, seed: int, extras: Dict[str, Any]) -> None:
    fields = {
        "workload": workload,
        "seed": seed,
        "output_digest": extras.get("digest"),
    }
    fields.update(extras.get("provenance", {}))
    print("provenance: " + json.dumps(fields, sort_keys=True))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC}; run from a full checkout")
    wl = _load(args.workload)
    if args.setup_only:
        state, seconds = setup_once(wl, args.seed)
        wl.teardown(state)
        print(json.dumps({"setup_s": seconds}))
        return 0
    run = traced if args.trace else end_to_end
    result = run(args.workload, wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
