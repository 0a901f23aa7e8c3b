"""The CLI's output as committed data: every command of `tests/cli_corpus.json`.

`python tests/test_corpus.py` runs each command of `corpus_commands()` through
`cli.main` in process and writes its exit code, stdout and stderr to
`tests/cli_corpus.json`, with the Python, numpy and scipy versions that made
them.  The tests run the stored commands again.  Where those versions match,
they must reproduce the stored bytes; anywhere else the exit codes must match
and stdout must match to the CLI's 12-digit rendering.  A change that moves a
printed number on purpose regenerates the file, and its diff lists each row.
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path
from unittest import mock

import numpy
import pytest
import scipy

from quadspec.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")
#: Agreement of two 12-significant-digit cells, as perfbench's PRINT_REL.
PRINT_REL = 1e-11
#: Columns that hold rounding noise (|a(q_c)| and value - oracle, ~1e-13 up to
#: ~2.5e-11): compared across builds only as finite and below NOISE_BOUND.
NOISE_COLUMNS = ("residual", "discrepancy")
NOISE_BOUND = 1e-9


def corpus_commands():
    """The argv of every stored command, each in CSV and JSON."""
    commands = [["table", "--max-pairs", str(n)] for n in [*range(1, 21), 60]]
    strengths = ["0", "-0.0", "1e-06"] + [repr(10.0 ** (-2 + 5 * i / 99)) for i in range(100)]
    commands += [["channels", "--xi", xi] for xi in strengths]
    commands += [["channels", "--xi", "1", "--max-order", order] for order in ("1", "2")]
    # (12, 700)'s computed gap is -2.8e-14, so its log_gap prints as nan.
    commands += [["gap", "--m", str(m), "--q", "0.5,5" + (",700" if m == 12 else "")]
                 for m in range(13)]
    commands += [["char", "--label", label, "--q", q]
                 for label in ("a0", "b1", "a3", "b12") for q in ("-0", "0.5", "17.47", "1000")]
    commands += [
        ["char", "--label", "b1", "--xi", "0.2270115834"],
        ["char", "--label", "b1", "--xi", "0.2270115834", "--oracle"],
        # Solver failures, exit 1, and usage errors, exit 2, from CI's list.
        ["char", "--label", "a0", "--q", "1e150"],
        ["char", "--label", "a0", "--q", "1e300"],
        ["char", "--label", "a0", "--q", "1.7e308"],
        ["channels", "--xi", "4e307"],
        ["table", "--max-pairs", "1519"],
        ["table", "--max-pairs", "1000000000"],
        ["char", "--label", "a0", "--q", "1e7", "--oracle"],
        ["channels", "--xi", "1e308"],
    ]
    return [argv + ["--format", fmt] for argv in commands for fmt in ("csv", "json")]


def run(argv):
    """(exit code, stdout, stderr) of `quadspec argv`; usage text wraps at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def installed_versions():
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def write_corpus():
    entries = []
    for argv in corpus_commands():
        code, out, err = run(argv)
        entries.append({"command": " ".join(argv), "exit": code,
                        "stdout": out.splitlines(keepends=True),
                        "stderr": err.splitlines(keepends=True)})
    corpus = {"versions": installed_versions(), "commands": entries}
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def corpus():
    """(stored entry, (exit code, stdout, stderr) now) per stored command."""
    stored = json.loads(CORPUS.read_text(encoding="utf-8"))
    runs = [(entry, run(entry["command"].split())) for entry in stored["commands"]]
    return stored["versions"], runs


def rows_of(text):
    """Rows of one stdout, CSV or JSON, as dicts of floats and strings; null reads nan."""
    if not text:
        return []
    if text.startswith("["):
        return [{c: math.nan if v is None else v for c, v in row.items()}
                for row in json.loads(text)]
    header, *lines = text.splitlines()
    return [dict(zip(header.split(","), map(number_or_text, line.split(","))))
            for line in lines]


def number_or_text(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def cell_agrees(column, new, ref, ref_row):
    if isinstance(new, str) or isinstance(ref, str):
        return new == ref
    if column in NOISE_COLUMNS:
        return math.isfinite(new) and abs(new) < NOISE_BOUND
    if column == "log_gap" and not abs(ref_row["gap"]) > NOISE_BOUND:
        # The log of a gap below resolution is noise too: nan, or below log(NOISE_BOUND).
        return math.isnan(new) or new < math.log(NOISE_BOUND)
    if math.isnan(ref):
        return math.isnan(new)
    return new == ref or abs(new - ref) <= PRINT_REL * max(1.0, abs(ref))


def rows_agree(new_rows, ref_rows):
    """Row by row and cell by cell, each side in label order: E ties below
    resolution may swap a pair of channels between builds (ROADMAP item 2)."""
    def label_order(rows):
        return sorted(rows, key=lambda row: str(row.get("label", row.get("eigenvalue_label", ""))))
    new_rows, ref_rows = label_order(new_rows), label_order(ref_rows)
    return len(new_rows) == len(ref_rows) and all(
        list(new) == list(ref) and all(cell_agrees(c, new[c], ref[c], ref) for c in ref)
        for new, ref in zip(new_rows, ref_rows))


def report(failed):
    return f"{len(failed)} commands differ, first: " + "; ".join(failed[:3])


def test_bytes_match_where_versions_match(corpus):
    versions, runs = corpus
    if versions != installed_versions():
        pytest.skip(f"corpus made with {versions}, installed {installed_versions()}: "
                    "compared by exit code and numbers only")
    failed = [entry["command"] for entry, now in runs
              if now != (entry["exit"], "".join(entry["stdout"]), "".join(entry["stderr"]))]
    assert not failed, report(failed)


def test_exit_codes_and_numbers_match(corpus):
    _, runs = corpus
    failed = [entry["command"] for entry, (code, out, _) in runs
              if code != entry["exit"]
              or not rows_agree(rows_of(out), rows_of("".join(entry["stdout"])))]
    assert not failed, report(failed)


if __name__ == "__main__":
    write_corpus()
