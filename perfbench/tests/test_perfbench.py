"""Self-tests of the benchmark: seeded inputs, repeatable work counts, checkers.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from quadspec import mathieu, model
from quadspec.errors import ConvergenceError

BENCH = Path(__file__).resolve().parents[1]
NAMES = sorted(workloads.WORKLOADS)
EXACT_COUNTS = ["mathieu.eigensolves", "criticality.curve_evals",
                "oracle.integrations", "oracle.integrator_steps"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.rounds(7, 3) == workload.rounds(7, 3)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_changes_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.rounds(7, 3) != workload.rounds(8, 3)


def test_rounds_cover_each_workload_range_once():
    sweep = workloads.WORKLOADS["critical_sweep"].rounds(3, 1)[0]
    assert sorted(p for p, _ in sweep) == list(range(6, 15))
    channels = workloads.WORKLOADS["channel_map"].rounds(3, 1)[0]
    strata = sorted(int((math.log10(xi) + 2.0) / 4.7 * 20) for xi, _ in channels)
    assert strata == list(range(20))
    oracle = workloads.WORKLOADS["oracle_verify"].rounds(3, 1)[0]
    pairs = {}
    for label, q, _ in oracle:
        pairs.setdefault(label, []).append(q)
    assert sorted(pairs) == sorted(workloads.OracleVerify.LABELS)
    for qs in pairs.values():
        assert sorted(int(q // 5.0) for q in qs) == list(range(8))
        assert all(0.0 < q <= 40.0 for q in qs)


def _traced_counts(name, seed, count):
    workload = workloads.WORKLOADS[name]
    items = workload.rounds(seed, 1)[0][:count]
    tally = workloads.Tally()
    with tracing.Tracer() as tracer:
        workloads.run_items(workload, items, tally, tracer)
    assert tally.failed == 0, tally.problems
    return tracing.layer_metrics(tracer.spans)


@pytest.mark.parametrize("name, count", [("critical_sweep", 1), ("channel_map", 3),
                                         ("oracle_verify", 1)])
def test_same_seed_gives_identical_work_counts(name, count):
    first = _traced_counts(name, 5, count)
    second = _traced_counts(name, 5, count)
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["mathieu.eigensolves"] > 0
    if name == "critical_sweep":
        assert first["criticality.evals_per_root"] >= 10
    elif name == "channel_map":
        assert first["model.classify_per_command"] == 2
    else:
        assert first["oracle.integrations"] == (first["oracle.scan_integrations"]
                                                + first["oracle.refine_integrations"]) > 0


def test_tracer_restores_every_namespace():
    original = mathieu.char_value
    with tracing.Tracer():
        assert model.char_value is not original
        assert mathieu.char_value is model.char_value
    assert model.char_value is original and mathieu.char_value is original


def test_self_time_excludes_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0, None, None],
             ["mathieu.char_value", 1.0, 4.0, 0, 0, 32, None],
             ["mathieu.eigh_tridiagonal", 2.0, 3.0, 1, 0, 32, None]]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.main.self_s"] == 7.0
    assert metrics["mathieu.char_value.self_s"] == 2.0
    assert metrics["mathieu.eigensolve_s"] == 1.0


def _corrupt_table(text):
    # b1's xi_c 0.2270115834 moved in its sixth digit
    return text.replace("0.227011", "0.227021", 1)


def _corrupt_root(text):
    # the last row is beyond the paper's ten; move its root consistently
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    cells[4] = repr(float(cells[4]) + 2.5e-7)
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def _corrupt_regime(text):
    return text.replace("unbounded_below", "no_negative_spectrum", 1)


def _corrupt_energy(text):
    # the highest channel, with alpha kept consistent with its E
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[6] = repr(float(cells[6]) + 1e-6)
    cells[7] = repr(float(cells[7]) - 2e-6)
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def _corrupt_discrepancy(text):
    header, row = text.splitlines()
    cells = row.split(",")
    cells[-1] = "1e-06"
    return f"{header}\n{','.join(cells)}\n"


class _Fixed(workloads.Workload):
    """A workload whose program returns a given output."""

    def __init__(self, real, output):
        self.real, self.output = real, output

    def run(self, item):
        if isinstance(self.output, Exception):
            raise self.output
        return self.output

    def check(self, item, output):
        return self.real.check(item, output)


@pytest.mark.parametrize("name, item, corrupt", [
    ("critical_sweep", (6, "csv"), _corrupt_table),
    ("critical_sweep", (6, "csv"), _corrupt_root),
    ("channel_map", (1.0, "csv"), _corrupt_regime),
    ("channel_map", (1.0, "csv"), _corrupt_energy),
    ("oracle_verify", ("a0", 1.0, "csv"), _corrupt_discrepancy),
])
def test_wrong_output_is_counted_as_failed(name, item, corrupt):
    real = workloads.WORKLOADS[name]
    output = real.run(item)
    assert real.check(item, output) is None
    bad = workloads.Output(output.code, corrupt(output.text), output.extra)
    assert bad.text != output.text
    tally = workloads.Tally()
    workloads.run_items(_Fixed(real, bad), [item], tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    assert tally.ok == [False]


def test_bad_eigenfunction_residual_is_counted_as_failed():
    real = workloads.WORKLOADS["channel_map"]
    output = real.run((1.0, "csv"))
    residuals = dict(output.extra)
    residuals[next(iter(residuals))] = 10 * mathieu.RESIDUAL_TOL
    tally = workloads.Tally()
    bad = workloads.Output(output.code, output.text, residuals)
    workloads.run_items(_Fixed(real, bad), [(1.0, "csv")], tally)
    assert (tally.failed, tally.wrong) == (1, 1)


@pytest.mark.parametrize("outcome", [ConvergenceError("no"), workloads.Output(1, "")])
def test_solver_failure_is_failed_but_not_wrong(outcome):
    real = workloads.WORKLOADS["oracle_verify"]
    tally = workloads.Tally()
    workloads.run_items(_Fixed(real, outcome), [("a0", 1.0, "csv")], tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_crash_is_wrong():
    real = workloads.WORKLOADS["oracle_verify"]
    tally = workloads.Tally()
    workloads.run_items(_Fixed(real, KeyError("x")), [("a0", 1.0, "csv")], tally)
    assert (tally.failed, tally.wrong) == (1, 1)


@pytest.mark.parametrize("xi", [4.367862047876533, 12.868140662377078])
def test_scipy_reference_is_skipped_where_it_returns_another_curve(xi):
    # scipy's a4 is a2's value at the first strength, its b11 about b13's
    # at the second
    assert workloads.reference_values(["a2", "a4", "b11"], 4.0 * xi) == {}
    assert set(workloads.reference_values(["a2", "a4", "b11"], 4.0)) == {"a2", "a4", "b11"}


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="ROADMAP item 5: 1e-12 is below two ulps of |a| > 4096")
def test_channel_map_holds_beyond_its_range():
    # channel_map stops at xi = 10**2.7 because of this failure; once it
    # passes, widen ChannelMap.LOG_XI back to xi <= 1e3.
    assert model.count_open_channels(1000.0) == workloads.ChannelMap.CHANNELS


def test_large_q_reference_matches_quadspec():
    q = 2500.0
    labels = ["a0", "b1", "a12", "b12"]
    for label, (ref, band) in workloads.reference_values(labels, q).items():
        symmetry, m = mathieu.parse_label(label)
        assert abs(mathieu.char_value(symmetry, m, q).value - ref) <= band


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "channel_map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
