"""Seeded workloads of the quadspec benchmark: inputs, timed items, output checks.

Every workload is a closed loop with one client in one process and no
threads: the next item starts only after the previous one returns, the way
a CLI user or a script drives the library.  Items are in-process calls of
``quadspec.cli.main`` with the argv a user would type.

Inputs come in *rounds*.  A round covers the workload's input range once,
in strata, and the seed draws the value inside each stratum, the output
format and the order.  A run executes whole rounds only, so every run sees
the same mix of cheap and expensive items and its medians do not depend on
which items happened to be drawn.

Each workload has ``run(item)``, the timed part, and ``check(item, output)``,
the untimed output check, which returns a description of what is wrong or
``None``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.special import mathieu_a, mathieu_b

from quadspec import cli, mathieu, parse_label
from quadspec.errors import SolverError
from quadspec.model import CLASSIFICATION_TOL

FORMATS = ("csv", "json")

#: Paper's critical strengths (README table) in table order, and the
#: acceptance suite's row tolerances for them.
PAPER_LABELS = ["a0", "b1", "a1", "b2", "a2", "b3", "a3", "b4", "a4", "b5"]
PAPER_XI = [0.0, 0.2270115834, 1.878402574, 1.894922593, 5.324657803,
            5.325793406, 10.48179309, 10.48186048, 17.35709457, 17.35709827]
PAPER_TOL = [1e-8] * 6 + [5e-7] * 4
#: Acceptance bound on |recurrence - shooting oracle|.
ORACLE_BOUND = 1e-9

#: Where scipy.special.mathieu_a/b return the right curves they agree with
#: quadspec to <= 4e-13 relative for m <= 12 and q <= 1e3.  They do not
#: always: at scattered q (a4 at q = 17.47, b11 at q = 51.5, ...) they
#: return another order's value, and above q ~ 1.5e3 they are off by
#: hundreds.
SCIPY_Q_MAX = 1e3
SCIPY_BAND = 1e-10
#: The CLI prints 12 significant digits; allow that rounding on each value.
PRINT_REL = 1e-11
#: Characteristic values in ascending order for every q > 0, four orders
#: beyond the highest channel so that a value borrowed from a higher
#: order breaks the order.
INTERLACED = ["a0"] + [f"{letter}{m}" for m in range(1, 17) for letter in "ba"]


def asymptotic_value(label: str, q: float) -> tuple[float, float]:
    """Large-q value of a curve (DLMF 28.8.1) and the band it is good to.

    a_m ~ b_m+1 ~ -2q + 2sh - (s^2+1)/8 - ... with h = sqrt(q) and
    s = 2m+1, through the h^-5 term.  For s <= 25 and q >= 1e3 the series
    is cut while its terms still shrink, so its error stays below the last
    term kept; 1e-10*q covers double rounding in eigenvalues of magnitude
    2q held in truncations of up to 4096 harmonics.
    """
    m = int(label[1:])
    s = 2 * m + 1 if label[0] == "a" else 2 * m - 1
    h = math.sqrt(q)
    terms = [
        -2.0 * q,
        2.0 * s * h,
        -(s**2 + 1) / 8.0,
        -(s**3 + 3 * s) / (2**7 * h),
        -(5 * s**4 + 34 * s**2 + 9) / (2**12 * h**2),
        -(33 * s**5 + 410 * s**3 + 405 * s) / (2**17 * h**3),
        -(63 * s**6 + 1260 * s**4 + 2943 * s**2 + 486) / (2**20 * h**4),
        -(527 * s**7 + 15617 * s**5 + 69001 * s**3 + 41607 * s) / (2**25 * h**5),
    ]
    return math.fsum(terms), abs(terms[-1]) + 1e-10 * q


def scipy_value(label: str, q: float) -> float:
    m = int(label[1:])
    return float((mathieu_a if label[0] == "a" else mathieu_b)(m, q))


def reference_values(labels: list[str], q: float) -> dict[str, tuple[float, float]]:
    """Independent (value, band) of each label, where a reference holds.

    Up to SCIPY_Q_MAX the reference is scipy, trusted at q only when all
    its values there keep the order a0 < b1 < a1 < b2 < ...; among 6000
    log-uniform strengths in (0, 1e3] that test rejected 8% of them and
    let no wrong value through.  Above SCIPY_Q_MAX it is the large-q
    expansion.
    """
    if q > SCIPY_Q_MAX:
        return {label: asymptotic_value(label, q) for label in labels}
    values = [scipy_value(label, q) for label in INTERLACED]
    if any(lo > hi + 1e-9 * max(1.0, abs(lo)) for lo, hi in zip(values, values[1:])):
        return {}
    return {label: (values[INTERLACED.index(label)], SCIPY_BAND) for label in labels}


def _close(value: float, ref: float, band: float) -> bool:
    return abs(value - ref) <= band + PRINT_REL * max(1.0, abs(ref))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def parse_rows(fmt: str, text: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def num(row: dict, key: str) -> float:
    """A numeric cell of either format; JSON null (non-finite) becomes nan."""
    value = row[key]
    return float("nan") if value is None else float(value)


@dataclass(frozen=True)
class Output:
    """What one item produced: the command's exit code and stdout, plus
    the follow-up results of items that do more than one call."""

    code: int
    text: str
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: Fixed, cheap item run once untimed in every fresh process.
    warmup: tuple = ()

    def round(self, rng: random.Random) -> list[tuple]:
        raise NotImplementedError

    def run(self, item: tuple) -> Output:
        raise NotImplementedError

    def check(self, item: tuple, output: Output) -> str | None:
        raise NotImplementedError

    def rounds(self, seed: int, count: int) -> list[list[tuple]]:
        """The first ``count`` rounds of inputs for this seed."""
        rng = random.Random(f"{self.name}:{seed}")
        return [self.round(rng) for _ in range(count)]


class CriticalSweep(Workload):
    """``quadspec table --max-pairs P``, a round being P = 6..14 once each."""

    name = "critical_sweep"
    warmup = (6, "csv")
    PAIRS = range(6, 15)

    def round(self, rng):
        pairs = list(self.PAIRS)
        rng.shuffle(pairs)
        return [(p, rng.choice(FORMATS)) for p in pairs]

    def run(self, item):
        pairs, fmt = item
        return Output(*run_cli(["table", "--max-pairs", str(pairs), "--format", fmt]))

    def check(self, item, output):
        pairs, fmt = item
        rows = parse_rows(fmt, output.text)
        labels = [row["eigenvalue_label"] for row in rows]
        expected = {f"a{m}" for m in range(pairs)} | {f"b{m}" for m in range(1, pairs + 1)}
        if len(rows) != 2 * pairs or set(labels) != expected:
            return f"rows {labels} are not a0..a{pairs - 1}, b1..b{pairs}"
        if labels[:10] != PAPER_LABELS:
            return f"first ten rows {labels[:10]} are not in the paper's order"
        xi = [num(row, "xi_c") for row in rows]
        if any(lo > hi for lo, hi in zip(xi, xi[1:])):
            return "xi_c column is not ascending"
        for label, value, ref, tol in zip(labels, xi, PAPER_XI, PAPER_TOL):
            if not abs(value - ref) < tol:
                return f"{label}: xi_c {value!r} is not within {tol} of the paper's {ref}"
        for row in rows:
            q_c = num(row, "q_c")
            if not _close(num(row, "xi_c"), q_c / 4.0, 0.0):
                return f"{row['eigenvalue_label']}: xi_c is not q_c/4"
            # |da/dq| <= 2, so the 12-digit rounding of q_c moves the
            # curve by at most twice half a unit in its last digit.
            half_unit = 0.5 * 10.0 ** (math.floor(math.log10(q_c)) - 11) if q_c > 0 else 0.0
            curve = scipy_value(row["eigenvalue_label"], q_c)
            if not abs(curve) <= 2.0 * half_unit + 1e-11:
                return f"{row['eigenvalue_label']}: scipy gives |a(q_c)| = {abs(curve):.3g}"
        return None


class ChannelMap(Workload):
    """``quadspec channels --xi X`` and, for each channel it reports open,
    ``fourier_solution`` plus ``equation_residual``; a round draws X once
    from each of 20 equal slices of log10 X in [-2, 2.7]."""

    name = "channel_map"
    warmup = (1.0, "csv")
    #: Up to xi = 10**2.7 ~ 501 (q ~ 2005), where every characteristic value
    #: has |a| < 4096 and two ulps are below char_value's 1e-12 tolerance.
    #: Above that the tolerance is unreachable (ROADMAP item 5) and
    #: ``channels`` raises ConvergenceError from xi ~ 820 on; the strengths
    #: beyond saturate at all 25 channels open (from xi ~ 160) anyway.
    LOG_XI = (-2.0, 2.7)
    STRATA = 20
    #: 7 even-pi, 6 even-2pi, 6 odd-2pi and 6 odd-pi channels up to order 12.
    CHANNELS = 25
    THETA = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)

    def round(self, rng):
        lo, hi = self.LOG_XI
        strata = list(range(self.STRATA))
        rng.shuffle(strata)
        return [
            (10.0 ** (lo + (hi - lo) * (k + rng.random()) / self.STRATA), rng.choice(FORMATS))
            for k in strata
        ]

    def run(self, item):
        xi, fmt = item
        code, text = run_cli(["channels", "--xi", repr(xi), "--format", fmt])
        if code != 0:
            return Output(code, text)
        q = 4.0 * xi
        residuals = {}
        for row in parse_rows(fmt, text):
            if row["regime"] == "unbounded_below":
                symmetry, m = parse_label(row["label"])
                sol = mathieu.fourier_solution(symmetry, m, q)
                residuals[row["label"]] = float(np.max(mathieu.equation_residual(sol, self.THETA)))
        return Output(code, text, residuals)

    def check(self, item, output):
        xi, fmt = item
        q = 4.0 * xi
        rows = parse_rows(fmt, output.text)
        if len(rows) != self.CHANNELS:
            return f"{len(rows)} channels, expected {self.CHANNELS}"
        energies = [num(row, "e_theta") for row in rows]
        if any(lo > hi for lo, hi in zip(energies, energies[1:])):
            return "channels are not sorted by e_theta"
        open_labels = {row["label"] for row in rows if row["regime"] == "unbounded_below"}
        if any(int(num(row, "count")) != len(open_labels) for row in rows):
            return f"count column disagrees with {len(open_labels)} unbounded channels"
        if set(output.extra) != open_labels:
            return "eigenfunctions were not checked for exactly the open channels"
        refs = reference_values([row["label"] for row in rows], q)
        for row, e in zip(rows, energies):
            label = row["label"]
            if not _close(num(row, "alpha"), 0.25 - 2.0 * e, 0.0):
                return f"{label}: alpha is not 1/4 - 2E"
            if label not in refs:
                continue
            ref, band = refs[label]
            if not _close(2.0 * e, ref, band):
                return f"{label}: a = {2.0 * e!r}, reference {ref!r} +- {band:.2g}"
            margin = CLASSIFICATION_TOL + band
            if ref / 2.0 < -margin:
                expected = ("unbounded_below",)
            elif ref / 2.0 > margin:
                expected = ("no_negative_spectrum",)
            else:  # the reference cannot tell which side of E = 0
                expected = ("unbounded_below", "critical", "no_negative_spectrum")
            if row["regime"] not in expected:
                return f"{label}: regime {row['regime']} but reference a = {ref!r}"
        for label, residual in output.extra.items():
            if not residual <= mathieu.RESIDUAL_TOL:
                return f"{label}: eigenfunction residual {residual:.3g} > {mathieu.RESIDUAL_TOL}"
        return None


class OracleVerify(Workload):
    """``quadspec char --label L --q Q --oracle`` for a_0..a_6 and b_1..b_6,
    each once in each eighth of q in (0, 40] per round."""

    name = "oracle_verify"
    warmup = ("a0", 1.0, "csv")
    LABELS = [f"a{m}" for m in range(7)] + [f"b{m}" for m in range(1, 7)]
    Q_MAX = 40.0
    Q_STRATA = 8

    def round(self, rng):
        # Each (family, order) once in each of Q_STRATA equal slices of
        # (0, Q_MAX], slices k and Q_STRATA-1-k mirroring one draw about
        # Q_MAX/2.  Scan lengths grow about linearly in q, so every round
        # has nearly the same spread of item costs whatever the seed.
        width = self.Q_MAX / self.Q_STRATA
        items = []
        for label in self.LABELS:
            for k in range(self.Q_STRATA // 2):
                q = width * (k + 1.0 - rng.random())
                items += [(label, q, rng.choice(FORMATS)),
                          (label, self.Q_MAX - q, rng.choice(FORMATS))]
        rng.shuffle(items)
        return items

    def run(self, item):
        label, q, fmt = item
        return Output(*run_cli(["char", "--label", label, "--q", repr(q), "--oracle",
                                "--format", fmt]))

    def check(self, item, output):
        label, q, fmt = item
        rows = parse_rows(fmt, output.text)
        if len(rows) != 1 or rows[0]["label"] != label:
            return f"expected one {label} row, got {output.text!r}"
        row = rows[0]
        if not _close(num(row, "q"), q, 0.0):
            return f"q column {row['q']} is not {q!r}"
        discrepancy = num(row, "discrepancy")
        if not abs(discrepancy) < ORACLE_BOUND:
            return f"|discrepancy| {abs(discrepancy):.3g} >= {ORACLE_BOUND}"
        return None


WORKLOADS = {w.name: w for w in (CriticalSweep(), ChannelMap(), OracleVerify())}


@dataclass
class Tally:
    """Outcome of the items run so far.

    ``failed`` counts items that raised, exited nonzero or failed their
    check; ``wrong`` counts those that did so other than through the CLI's
    own solver-failure path (exit code 1 or a SolverError), i.e. wrong
    output or a crash.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latencies: list = field(default_factory=list)  # seconds, every attempted item
    ok: list = field(default_factory=list)  # whether each attempted item succeeded
    problems: list = field(default_factory=list)  # first few failures

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def _judge(workload: Workload, item: tuple, output: Output) -> tuple[str | None, bool]:
    """What is wrong with a finished item, and whether it is a wrong answer."""
    if output.code == 1:
        return "solver failure (exit code 1)", False
    if output.code != 0:
        return f"exit code {output.code}", True
    try:
        problem = workload.check(item, output)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problem = f"unreadable output ({type(exc).__name__}: {exc})"
    return problem, problem is not None


def run_items(workload: Workload, items: list[tuple], tally: Tally, tracer=None) -> None:
    """Run items one after another, timing each and checking its output."""
    for item in items:
        if tracer is not None:
            tracer.item = tally.attempted
        tally.attempted += 1
        start = time.perf_counter()
        try:
            output = workload.run(item)
        except SolverError as exc:
            output, problem, wrong = None, f"{type(exc).__name__}: {exc}", False
        except Exception:  # a crash must not end the run: record and go on
            output, problem, wrong = None, traceback.format_exc(limit=3), True
        tally.latencies.append(time.perf_counter() - start)
        if output is not None:
            problem, wrong = _judge(workload, item, output)
        tally.ok.append(problem is None)
        if problem is not None:
            tally.failed += 1
            tally.wrong += wrong
            if len(tally.problems) < 5:
                tally.problems.append(f"{item!r}: {problem}")
