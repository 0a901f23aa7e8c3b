"""One fresh benchmark process: import quadspec, warm up, then measure or trace.

Started by ``run.py``; not meant to be run by hand.  It imports the
quadspec source tree of the checkout it lives in, runs the workload's
fixed warm-up item untimed, and then, by ``--mode``:

* ``setup``: stops there;
* ``measure``: runs whole rounds of seeded items until ``--seconds`` have
  passed, with a burst of speed probes before the first item and after
  every item;
* ``trace``: runs each of the first ``TRACE_ITEMS`` items untraced and then
  traced, and writes the spans under ``perfbench/out/``.

Its last stdout line is ``RESULT`` and a JSON object.  ``ready`` is the
CLOCK_MONOTONIC reading when the warm-up finished, which the parent
compares with its own reading from just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Upper bound on the rounds generated for one run; a run stops earlier,
#: at the first round boundary after ``--seconds``.
ROUND_CAP = 500
#: Items in a traced batch, the first of the seed's sequence; fixed so that
#: work counts repeat exactly.
TRACE_ITEMS = {"critical_sweep": 9, "channel_map": 200, "oracle_verify": 26}


def _eigensolve_probe() -> None:
    diag, off = np.arange(48.0) ** 2, np.full(47, 5.0)
    for _ in range(24):
        eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(2, 2))
    total = 0
    for i in range(6000):
        total += i * i


def _mathieu_rhs(x, y):
    return (y[1], (2.0 * math.cos(2.0 * x) - 3.0) * y[0])


def _integration_probe() -> None:
    for _ in range(4):
        solve_ivp(_mathieu_rhs, (0.0, 1.5), (1.0, 0.0), method="DOP853", rtol=1e-10, atol=1e-12)


@dataclass(frozen=True)
class Probe:
    """A workload's speed probe and how it is taken around the items.

    After every item ``burst`` probes run back to back, and an item's time
    is scaled by the median of the bursts of the ``window`` items before
    and after it.  Long items get a burst each side and nothing further
    away, since the host's speed moves within seconds; short items get
    single probes from a few items each side.
    """

    run: Callable[[], None]
    reference_s: float  # probe time that defines the reference speed
    burst: int
    window: int


#: Speed probe of each workload.  The host's speed drifts by +-20% over
#: tens of seconds, and not evenly: interpreted small-array code and LAPACK
#: calls slow down by different amounts.  So each probe times, on fixed
#: inputs and without quadspec, the scipy kernel that the workload's items
#: spend their time in.
PROBES = {
    "critical_sweep": Probe(_eigensolve_probe, 0.002, burst=5, window=1),
    "channel_map": Probe(_eigensolve_probe, 0.002, burst=1, window=3),
    "oracle_verify": Probe(_integration_probe, 0.006, burst=3, window=1),
}


def probe(workload: str) -> float:
    """Seconds taken by the workload's speed probe."""
    start = time.perf_counter()
    PROBES[workload].run()
    return time.perf_counter() - start


def probe_burst(workload: str) -> list[float]:
    return [probe(workload) for _ in range(PROBES[workload].burst)]


def _import_quadspec():
    sys.path.insert(0, str(SRC))
    import quadspec

    if not Path(quadspec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported quadspec from {quadspec.__file__}, not from {SRC}")
    import quadspec.cli  # noqa: F401  (the CLI is what every item calls)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    _import_quadspec()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    # Untimed and unchecked here: a wrong answer shows in the items that follow.
    workloads.run_items(workload, [workload.warmup], workloads.Tally())
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC),
              "probe_ref_s": PROBES[args.workload].reference_s,
              "probe_window": PROBES[args.workload].window}

    if args.mode == "measure":
        tally, probes = workloads.Tally(), [probe_burst(args.workload)]
        start = time.perf_counter()
        for items in workload.rounds(args.seed, ROUND_CAP):
            for item in items:
                workloads.run_items(workload, [item], tally)
                probes.append(probe_burst(args.workload))
            if time.perf_counter() - start >= args.seconds:
                break
        result.update(
            attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
            latencies=tally.latencies, ok=tally.ok, problems=tally.problems,
            probes=probes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    elif args.mode == "trace":
        import tracing

        items = [item for rnd in workload.rounds(args.seed, ROUND_CAP) for item in rnd]
        items = items[:TRACE_ITEMS[args.workload]]
        # Each item runs untraced and then traced, so the two passes see
        # the same machine speed and their ratio is the tracing overhead.
        plain, traced, tracer = workloads.Tally(), workloads.Tally(), tracing.Tracer()
        for item in items:
            workloads.run_items(workload, [item], plain)
            with tracer:
                workloads.run_items(workload, [item], traced, tracer)
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.items"] = len(items)
        metrics["trace.overhead_frac"] = traced.busy_s / plain.busy_s - 1.0
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        result.update(
            attempted=traced.attempted, failed=traced.failed, wrong=traced.wrong,
            problems=traced.problems, metrics=metrics, spans=str(spans_path.relative_to(HERE.parent)),
        )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
