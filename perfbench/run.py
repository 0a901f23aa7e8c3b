"""quadspec benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload critical_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``critical_sweep``: ``quadspec table --max-pairs P``, P in 6..14;
* ``channel_map``: ``quadspec channels --xi X`` plus an eigenfunction
  check per open channel, X log-uniform in [1e-2, 10**2.7];
* ``oracle_verify``: ``quadspec char --label L --q Q --oracle``, m <= 6,
  q in (0, 40].

With ``--trace 0`` the run starts ``SETUP_SAMPLES`` fresh interpreters of
``worker.py`` one after another; each imports quadspec and runs one fixed
warm-up item, and the last one then runs whole rounds of seeded items for
``--seconds``.  It reports:

* ``items_per_s``: successful items per second spent inside items;
* ``latency_p50_ms``: median latency of successful items;

* ``setup_s``: median, over the fresh interpreters, of the time from
  starting the interpreter to the end of its warm-up item;
* ``peak_rss_mb``: peak resident memory of the measuring process.

The three times are given at a fixed reference speed of the host.  The
host's speed drifts by +-20% over tens of seconds, which no length of run
averages away, so the worker times a fixed probe (``worker.PROBES``) right
after its warm-up and in a burst before and after every item.  Each item's
time is scaled by the probe's reference time over the median of the
probes around it (``worker.Probe``).  Set-up is mostly interpreter start
and imports, which a compute probe does not track, so each set-up time is
scaled instead by ``IMPORT_PROBE_REF_S`` over the time a fresh interpreter
takes, right before, to import the numpy and scipy modules quadspec and
the benchmark use.  The summary also prints the unscaled figures.

It also prints ``latency_p95_ms`` when at least ten items lie beyond it
(200 items) and ``failed_frac``.  With ``--trace 1`` one fresh process runs
each item of a fixed batch untraced and then traced, and reports the
per-layer metrics of ``tracing.layer_metrics`` plus ``trace.items`` and
``trace.overhead_frac``; the spans go to ``perfbench/out/``.

Every item's output is checked (``workloads.py``).  The last stdout line is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts items that raised, exited nonzero or failed their check;
``correct`` is false when an item gave a wrong answer or crashed, but not
when the program itself reported a solver failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("critical_sweep", "channel_map", "oracle_verify")
SETUP_SAMPLES = 3
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Set-up probe: a fresh interpreter importing the scientific stack that
#: quadspec and the benchmark import, and its reference time.
IMPORT_PROBE = "import numpy, scipy.integrate, scipy.linalg, scipy.optimize, scipy.special"
IMPORT_PROBE_REF_S = 1.0

END_TO_END_UNITS = {"items_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name == "mathieu.truncation_mean":
        return "rows"
    if "_per_" in name:
        return "ratio"
    return "count"


def run_to_end(command: list[str], deadline: float) -> str:
    """Run a fresh process to completion and return its stdout."""
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: {command[1]} did not finish in time")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {command[1]} failed with exit code {proc.returncode}")
    return out


def start_worker(args, mode: str, deadline: float) -> dict:
    """Run one fresh worker to completion; return its result and set-up time."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    run_to_end([sys.executable, "-c", IMPORT_PROBE], deadline)
    import_probe_s = time.clock_gettime(time.CLOCK_MONOTONIC) - started
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    lines = run_to_end(command, deadline).splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        sys.exit(f"perfbench: {mode} worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["raw_setup_s"] = result["ready"] - started
    result["setup_s"] = result["raw_setup_s"] * IMPORT_PROBE_REF_S / import_probe_s
    return result


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "quadspec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quadspec source tree at {ROOT / 'src' / 'quadspec'}")
    deadline = time.monotonic() + RUN_LIMIT_S

    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{'traced' if args.trace else f'{args.seconds} s'}"]
    if args.trace:
        result = start_worker(args, "trace", deadline)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["metrics"].items()}
        lines.append(f"  spans written to {result['spans']}")
    else:
        starts = [start_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = start_worker(args, "measure", deadline)
        starts.append(result)
        setups = [start["setup_s"] for start in starts]
        raw = result["latencies"]
        bursts, reference, window = result["probes"], result["probe_ref_s"], result["probe_window"]
        # Item i ran between probe bursts i and i + 1.
        scaled = [t * reference / statistics.median(
                      [p for burst in bursts[max(0, i + 1 - window):i + 1 + window] for p in burst])
                  for i, t in enumerate(raw)]
        probes = [p for burst in bursts for p in burst]
        ok = result["ok"]
        # Latency is that of successful items, or of all when none succeeded.
        good = [t for t, success in zip(scaled, ok) if success] or scaled
        good_raw = [t for t, success in zip(raw, ok) if success] or raw
        metrics = {
            "items_per_s": sum(ok) / sum(scaled),
            "latency_p50_ms": 1e3 * statistics.median(good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
        lines.append(f"  unscaled: items_per_s {sum(ok) / sum(raw):.6g} 1/s, "
                     f"latency_p50_ms {1e3 * statistics.median(good_raw):.6g} ms, "
                     f"median probe {1e3 * statistics.median(probes):.4g} ms "
                     f"(reference {1e3 * reference:g} ms)")
        if len(good) >= 200:
            p95 = f"{1e3 * percentile(good, 95):.6g} ms"
        else:
            p95 = f"not reported: {len(good)} items, needs 200 for 10 beyond p95"
        lines += [
            f"  latency_p95_ms {p95}",
            f"  failed_frac {result['failed'] / result['attempted']:.6g} "
            f"({result['failed']} of {result['attempted']} items)",
            "  setup_s samples " + ", ".join(f"{s:.4f}" for s in setups) + ", unscaled "
            + ", ".join(f"{start['raw_setup_s']:.4f}" for start in starts),
        ]
    for name, metric in metrics.items():
        lines.append(f"  {name} {metric['value']:.6g} {metric['unit']}")
    lines += [f"  failure: {problem}" for problem in result["problems"]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
