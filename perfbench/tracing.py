"""Outside-in tracing of quadspec for the benchmark's traced runs.

A :class:`Tracer` replaces, for the duration of a ``with`` block, the layer
entry points of each quadspec module and the numerical kernels those
modules bind at import time with wrappers that record one span per call.
A function is replaced under every quadspec namespace that holds it (for
instance ``quadspec.model.char_value`` and ``quadspec.criticality.char_value``
are both ``quadspec.mathieu.char_value``), so calls between modules are
seen whichever name they use.  Kernels are replaced by name in the module
that calls them; ``brentq`` is traced separately in ``criticality`` and
``oracle`` although it is one scipy function.

Spans stay in memory as ``[name, start, end, parent, item, value, error]``:
``parent`` is the index of the enclosing span or -1, ``item`` the benchmark
item being run, ``value`` one number recorded from the call (rows passed to
the eigensolver, ``rtol`` of an integration, truncation of a converged
value, integrator steps of a shooting) and ``error`` the name of the
exception the call raised.  Cheap helpers (``parse_label``, ``to_mathieu``,
``angular_energy``, ...) are not wrapped; their time is part of their
caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from pathlib import Path

#: Layer entry points, by defining module and name.
LAYER_FUNCTIONS = [
    ("cli", "main"),
    ("model", "classify_channels"),
    ("model", "count_open_channels"),
    ("criticality", "critical_table"),
    ("criticality", "find_critical"),
    ("mathieu", "char_value"),
    ("mathieu", "fourier_solution"),
    ("mathieu", "equation_residual"),
    ("oracle", "oracle_char_value"),
    ("oracle", "shooting_defect"),
]
#: Numerical kernels, by the module namespace they are bound in.
KERNELS = [
    ("mathieu", "eigh_tridiagonal"),
    ("oracle", "solve_ivp"),
    ("criticality", "brentq"),
    ("oracle", "brentq"),
]
NAMESPACES = ["", "cli", "model", "criticality", "mathieu", "oracle"]

#: Integrations at this rtol or tighter are the oracle's refinement stage;
#: looser ones are its sign-only bracketing scan.
REFINE_RTOL = 1e-9

FIELDS = ["name", "start", "end", "parent", "item", "value", "error"]


def _rows(args, kwargs, result):
    return len(args[0]) if args else len(kwargs["d"])


def _rtol(args, kwargs, result):
    return kwargs.get("rtol", 1e-3)


def _truncation(args, kwargs, result):
    return result.truncation


def _steps(args, kwargs, result):
    return result.step_count


RECORD = {
    "mathieu.eigh_tridiagonal": _rows,
    "oracle.solve_ivp": _rtol,
    "mathieu.char_value": _truncation,
    "mathieu.fourier_solution": _truncation,
    "oracle.shooting_defect": _steps,
}


def _module(name: str):
    return importlib.import_module("quadspec" + (f".{name}" if name else ""))


class Tracer:
    """Records spans of quadspec calls while active as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, open_spans, record = self.spans, self._open, RECORD.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.item, None, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[6] = type(exc).__name__
                raise
            finally:
                open_spans.pop()
            span[2] = clock()
            if record is not None:
                span[5] = record(args, kwargs, result)
            return result

        return traced

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def __enter__(self):
        namespaces = [_module(name) for name in NAMESPACES]
        for module_name, attr in LAYER_FUNCTIONS:
            original = getattr(_module(module_name), attr, None)
            if original is None:  # not in this version of the package
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)
        for module_name, attr in KERNELS:
            namespace = _module(module_name)
            if hasattr(namespace, attr):
                self._patch(namespace, attr, self._wrap(f"{module_name}.{attr}",
                                                        getattr(namespace, attr)))
        return self

    def __exit__(self, *exc_info):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
        return False

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, a field list first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(FIELDS) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced batch of items.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs the items, so children never overlap.
    """
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    value_sum: dict[str, float] = {}
    value_n: dict[str, int] = {}
    durations = [span[2] - span[1] for span in spans]
    # Ancestor flags, in start order so a parent is done before its children.
    under = {"criticality.find_critical": [], "criticality.brentq": [],
             "model.classify_channels": []}
    for i, span in enumerate(spans):
        name, parent = span[0], span[3]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + durations[i]
        self_s[name] = self_s.get(name, 0.0) + durations[i]
        if parent >= 0:
            self_s[spans[parent][0]] -= durations[i]
        if span[5] is not None:
            value_sum[name] = value_sum.get(name, 0.0) + span[5]
            value_n[name] = value_n.get(name, 0) + 1
        for ancestor, flags in under.items():
            flags.append(parent >= 0 and (spans[parent][0] == ancestor or flags[parent]))

    def n(name):
        return count.get(name, 0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def counted(name, flag):
        return sum(1 for i, span in enumerate(spans) if span[0] == name and under[flag][i])

    eigensolves = n("mathieu.eigh_tridiagonal")
    values = n("mathieu.char_value") + n("mathieu.fourier_solution")
    curve_evals = counted("mathieu.char_value", "criticality.find_critical")
    classify_eigensolves = counted("mathieu.eigh_tridiagonal", "model.classify_channels")
    refine = sum(1 for span in spans
                 if span[0] == "oracle.solve_ivp" and span[5] <= REFINE_RTOL)
    truncations = value_n.get("mathieu.char_value", 0) + value_n.get("mathieu.fourier_solution", 0)
    return {
        "cli.main.calls": n("cli.main"),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "criticality.roots": n("criticality.find_critical"),
        "criticality.curve_evals": curve_evals,
        "criticality.evals_per_root": per(curve_evals, n("criticality.find_critical")),
        "criticality.refine_evals": counted("mathieu.char_value", "criticality.brentq"),
        "criticality.find_critical.self_s": self_s.get("criticality.find_critical", 0.0),
        "mathieu.eigensolves": eigensolves,
        "mathieu.eig_rows": int(value_sum.get("mathieu.eigh_tridiagonal", 0)),
        "mathieu.doublings": eigensolves - values,
        "mathieu.eigensolve_s": total.get("mathieu.eigh_tridiagonal", 0.0),
        "mathieu.truncation_mean": per(
            value_sum.get("mathieu.char_value", 0.0) + value_sum.get("mathieu.fourier_solution", 0.0),
            truncations),
        "mathieu.char_value.calls": n("mathieu.char_value"),
        "mathieu.char_value.self_s": self_s.get("mathieu.char_value", 0.0),
        "mathieu.fourier_solution.calls": n("mathieu.fourier_solution"),
        "mathieu.fourier_solution.self_s": self_s.get("mathieu.fourier_solution", 0.0),
        "mathieu.convergence_errors": sum(
            1 for span in spans
            if span[0] in ("mathieu.char_value", "mathieu.fourier_solution")
            and span[6] == "ConvergenceError"),
        "model.classify_channels.calls": n("model.classify_channels"),
        "model.classify_channels.self_s": self_s.get("model.classify_channels", 0.0),
        "model.classify_per_command": per(n("model.classify_channels"), n("cli.main")),
        "model.eigensolves_per_classify": per(classify_eigensolves, n("model.classify_channels")),
        "oracle.values": n("oracle.oracle_char_value"),
        "oracle.integrations": n("oracle.solve_ivp"),
        "oracle.integrations_per_value": per(n("oracle.solve_ivp"), n("oracle.oracle_char_value")),
        "oracle.scan_integrations": n("oracle.solve_ivp") - refine,
        "oracle.refine_integrations": refine,
        "oracle.integrator_steps": int(value_sum.get("oracle.shooting_defect", 0)),
        "oracle.shooting_s": total.get("oracle.shooting_defect", 0.0),
        "oracle.oracle_char_value.self_s": self_s.get("oracle.oracle_char_value", 0.0),
    }
