"""Tests for the command-line interface and its CSV/JSON renderer."""

import csv
import io
import json
import re
import subprocess
import sys

import pytest

from quadspec import BracketError, PairingGap, Regime, SymmetryClass
from quadspec import cli as cli_mod
from quadspec import mathieu as mathieu_mod
from quadspec import oracle as oracle_mod
from quadspec.cli import main

TABLE_COLUMNS = ["eigenvalue_label", "class", "order", "q_c", "xi_c", "residual"]
CHAR_COLUMNS = ["label", "class", "order", "q", "xi", "value", "truncation"]
ORACLE_COLUMNS = CHAR_COLUMNS + ["oracle_value", "discrepancy"]
CHANNELS_COLUMNS = ["xi", "max_order", "count", "label", "class", "order",
                    "e_theta", "alpha", "regime"]
GAP_COLUMNS = ["m", "q", "gap", "log_gap"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_of(capsys, *argv):
    """Stdout of main(argv), which must return 0."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return out


def usage_error(capsys, *argv):
    """What main(argv) captured, after it exited 2 through argparse's SystemExit."""
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    return capsys.readouterr()


# `table --max-pairs N` for N = 1, 2, 3 and `char --label a3 --q 17.47 --oracle` as
# `python -m quadspec.cli` runs them, each building its parser anew, then the
# imports; importing first makes runpy warn.
FRESH_SCRIPT = """
import contextlib, io, json, runpy, sys
def run(*argv):
    sys.argv, out, err = ["quadspec", *argv], io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("quadspec.cli", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            return [stop.code, out.getvalue(), err.getvalue()]
facts = {"table": {pairs: run("table", "--max-pairs", pairs) for pairs in "123"},
         "oracle": run("char", "--label", "a3", "--q", "17.47", "--oracle")}
import quadspec, quadspec.cli
facts["integrate_loaded"] = "scipy.integrate" in sys.modules
facts["parsers_built"] = quadspec.cli.build_parser.cache_info().currsize
star = {}
exec("from quadspec import *", star)
facts["star_binds_all"] = all(name in star for name in quadspec.__all__)
facts["oracle_bound"] = star["oracle_char_value"] is quadspec.oracle.oracle_char_value
print(json.dumps(facts))
"""


@pytest.fixture(scope="session")
def fresh():
    """The facts FRESH_SCRIPT prints from the run's one new interpreter."""
    result = subprocess.run([sys.executable, "-c", FRESH_SCRIPT],
                            capture_output=True, text=True, timeout=300)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return json.loads(result.stdout)


def fresh_run(fresh, max_pairs):
    """Stdout of `table --max-pairs max_pairs` in the new interpreter."""
    code, out, err = fresh["table"][max_pairs]
    assert (code, err) == (0, ""), err
    return out


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no data rows in {text!r}"
    return rows


class TestChar:
    def test_free_rotor(self, capsys):
        (row,) = parse_csv(stdout_of(capsys, "char", "--label", "a0", "--q", "0"))
        assert row["label"] == "a0"
        assert float(row["value"]) == 0.0
        assert row["truncation"] == "16"  # rank 0 + 16 rows at q = 0

    def test_label_and_xi(self, capsys):
        (row,) = parse_csv(stdout_of(capsys, "char", "--label", "b1", "--xi", "0.2270115834"))
        assert row["class"] == "odd-2pi"
        assert abs(float(row["value"])) < 1e-8
        assert float(row["q"]) == pytest.approx(0.9080463336, rel=1e-12)

    def test_oracle_flag(self, capsys):
        (row,) = parse_csv(stdout_of(capsys, "char", "--label", "a0", "--q", "5", "--oracle"))
        assert "oracle_value" in row and "discrepancy" in row
        assert abs(float(row["value"]) - float(row["oracle_value"])) < 1e-9
        assert abs(float(row["discrepancy"])) < 1e-9

    def test_large_value_is_certified(self, capsys):
        # |a| ~ 2e6, where tol 1e-12 is below one ulp; it used to exit 1.
        (row,) = parse_csv(stdout_of(capsys, "char", "--label", "a0", "--q", "1e6"))
        assert (row["value"], row["truncation"]) == ("-1998000.25003", "1016")

    @pytest.mark.parametrize(
        "argv",
        [
            ("char", "--label", "a0", "--q", "1", "--xi", "1"),
            ("char", "--label", "a0"),
            ("char", "--q", "1"),
            ("char", "--label", "a0", "--class", "even-pi", "--order", "0", "--q", "1"),
            ("char", "--label", "b0", "--q", "1"),
            ("char", "--label", "a0", "--q", "-1"),
            ("char", "--label", "a0", "--xi", "-0.5"),
            ("char", "--label", "a5000", "--q", "1"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        usage_error(capsys, *argv)


class TestTable:
    def test_default_reproduces_ten_rows(self, capsys):
        rows = parse_csv(stdout_of(capsys, "table"))
        assert len(rows) == 10
        assert list(rows[0].keys()) == TABLE_COLUMNS
        assert float(rows[0]["xi_c"]) == 0.0
        assert float(rows[1]["xi_c"]) == pytest.approx(0.2270115834, abs=1e-8)
        assert [r["eigenvalue_label"] for r in rows[:4]] == ["a0", "b1", "a1", "b2"]

    def test_single_pair(self, capsys):
        assert len(parse_csv(stdout_of(capsys, "table", "--max-pairs", "1"))) == 2

    def test_six_pairs_extend(self, capsys):
        rows = parse_csv(stdout_of(capsys, "table", "--max-pairs", "6"))
        assert len(rows) == 12
        assert float(rows[10]["xi_c"]) > 17.35709827
        assert float(rows[11]["xi_c"]) > 17.35709827

    def test_rejects_zero_pairs(self, capsys):
        usage_error(capsys, "table", "--max-pairs", "0")


class TestFormats:
    def test_csv_json_round_trip(self, capsys):
        out_csv = stdout_of(capsys, "table", "--max-pairs", "2")
        out_json = stdout_of(capsys, "table", "--max-pairs", "2", "--format", "json")
        csv_rows = parse_csv(out_csv)
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows) == 4
        for c_row, j_row in zip(csv_rows, json_rows):
            assert list(c_row.keys()) == list(j_row.keys()) == TABLE_COLUMNS
            for key in TABLE_COLUMNS:
                j_val = j_row[key]
                if isinstance(j_val, str):
                    assert c_row[key] == j_val
                else:
                    # identical 12-significant-digit rendering both sides
                    assert float(c_row[key]) == float(j_val)
                    assert c_row[key] == cli_mod._format_value(float(j_val))

    @pytest.mark.parametrize(
        "argv,columns",
        [
            (("char", "--label", "b1", "--q", "1"), CHAR_COLUMNS),
            (("char", "--label", "a0", "--q", "0.5", "--oracle"), ORACLE_COLUMNS),
            (("channels", "--xi", "1", "--max-order", "2"), CHANNELS_COLUMNS),
            (("gap", "--m", "1", "--q", "10,20"), GAP_COLUMNS),
        ],
    )
    def test_column_order(self, capsys, argv, columns):
        out_csv = stdout_of(capsys, *argv)
        assert out_csv.splitlines()[0] == ",".join(columns)
        out_json = stdout_of(capsys, *argv, "--format", "json")
        assert all(list(row) == columns for row in json.loads(out_json))

    def test_non_finite_rendering(self):
        assert cli_mod._format_value(float("nan")) == "nan"
        assert cli_mod._format_value(float("inf")) == "inf"
        assert cli_mod._format_value(float("-inf")) == "-inf"

    def test_non_finite_cell_is_null_in_json_and_nan_in_csv(self, capsys, monkeypatch):
        # A computed gap <= 0 has no log (ROADMAP item 2).
        monkeypatch.setattr(cli_mod, "pairing_gap", lambda m, q, tol: PairingGap(m, q, 0.0))
        out = stdout_of(capsys, "gap", "--m", "1", "--q", "10", "--format", "json")
        assert out == '[\n  {"m": 1, "q": 10, "gap": 0, "log_gap": null}\n]\n'
        out = stdout_of(capsys, "gap", "--m", "1", "--q", "10")
        assert out == "m,q,gap,log_gap\n1,10,0,nan\n"

    def test_no_printed_word_needs_csv_quoting(self):
        # CSV cells are written unquoted: no class, regime, label or column
        # name holds a comma, a quote or a line break.  A label is a family
        # letter followed by decimal digits.
        words = [s.cli_name for s in SymmetryClass] + [regime.value for regime in Regime]
        words += [mathieu_mod.Mode(s, s.order_at(r)).label for s in SymmetryClass for r in (0, 759)]
        words += TABLE_COLUMNS + ORACLE_COLUMNS + CHANNELS_COLUMNS + GAP_COLUMNS
        assert not [word for word in words if set(word) & set(',"\r\n')]

    def test_negative_zero_renders_as_zero(self):
        assert cli_mod._format_value(-0.0) == "0"

    @pytest.mark.parametrize("argv", [
        ("char", "--label", "a0", "--q", "-0"),
        ("char", "--label", "b1", "--xi", "-0.0"),
        ("channels", "--xi", "-0.0", "--max-order", "1"),
    ])
    def test_negative_zero_strength_prints_0(self, capsys, argv):
        # -0.0 passes the q >= 0 check; no cell prints it as -0.
        out = stdout_of(capsys, *argv)
        for row in parse_csv(out):
            assert row["xi"] == row.get("q", "0") == "0"
            assert "-0" not in row.values()
        out = stdout_of(capsys, *argv, "--format", "json")
        assert '"xi": 0,' in out and not re.search(r": -0[,}]", out)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "table", "--max-pairs", "1",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert len(parse_csv(target.read_text())) == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "t.csv"
        captured = usage_error(capsys, "table", "--max-pairs", "1", "--out", str(target))
        assert captured.out == ""
        assert f"cannot write --out {target}: No such file or directory" in captured.err
        assert "Traceback" not in captured.err


class TestChannels:
    def test_zero_strength(self, capsys):
        rows = parse_csv(stdout_of(capsys, "channels", "--xi", "0", "--max-order", "4"))
        assert all(row["count"] == "0" for row in rows)
        assert all(row["regime"] != "unbounded_below" for row in rows)

    @pytest.mark.parametrize("xi,expected", [("1.0", 2), ("0.3", 2)])
    def test_counts_between_thresholds(self, capsys, xi, expected):
        rows = parse_csv(stdout_of(capsys, "channels", "--xi", xi, "--max-order", "6"))
        assert all(int(row["count"]) == expected for row in rows)
        open_rows = [r for r in rows if r["regime"] == "unbounded_below"]
        assert len(open_rows) == expected
        # breakdown covers every family up to max-order
        assert len(rows) == 13

    @pytest.mark.parametrize("xi", ["0.01", "1.9", "10.5", "250"])
    def test_count_is_number_of_open_rows(self, capsys, xi):
        rows = parse_csv(stdout_of(capsys, "channels", "--xi", xi))
        open_rows = [r for r in rows if r["regime"] == "unbounded_below"]
        assert {int(row["count"]) for row in rows} == {len(open_rows)}

    def test_every_channel_open_at_xi_1000(self, capsys):
        # Values reach |a| ~ 8000, where tol 1e-12 is below two ulps; it used
        # to exit 1 from xi ~ 820 on.
        rows = json.loads(stdout_of(capsys, "channels", "--xi", "1000", "--format", "json"))
        assert len(rows) == 25
        assert all(row["count"] == 25 and row["regime"] == "unbounded_below" for row in rows)
        energies = [row["e_theta"] for row in rows]
        assert energies == sorted(energies) and energies[0] == pytest.approx(-3936.87969533)

    def test_rejects_negative_xi(self, capsys):
        usage_error(capsys, "channels", "--xi", "-1")


class TestGap:
    def test_near_zero_strength(self, capsys):
        (row,) = parse_csv(stdout_of(capsys, "gap", "--m", "0", "--q", "0.0001"))
        assert float(row["gap"]) == pytest.approx(1.0, abs=2e-4)
        assert float(row["log_gap"]) == pytest.approx(0.0, abs=2e-4)

    def test_list_is_strictly_decreasing(self, capsys):
        out = stdout_of(capsys, "gap", "--m", "1", "--q", "10,20,30,40")
        gaps = [float(row["gap"]) for row in parse_csv(out)]
        assert len(gaps) == 4
        assert all(hi < lo for lo, hi in zip(gaps, gaps[1:]))

    def test_gap_scale_at_last_crossing(self, capsys):
        (row,) = parse_csv(stdout_of(capsys, "gap", "--m", "4", "--q", "69.42837828"))
        assert 1e-6 < float(row["gap"]) < 1e-4

    @pytest.mark.parametrize(
        "argv",
        [
            ("gap", "--m", "0", "--q", "0"),
            ("gap", "--m", "0", "--q", "-3"),
            ("gap", "--m", "-1", "--q", "1"),
            ("gap", "--m", "0", "--q", ","),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        usage_error(capsys, *argv)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("char", "--label", "a0", "--q", "inf"), "q must be finite"),
            (("char", "--label", "a0", "--xi", "inf"), "xi must be finite"),
            (("char", "--label", "a0", "--q", "nan"), "q must be finite"),
            (("char", "--label", "a0", "--xi", "nan"), "xi must be finite"),
            (("char", "--label", "a0", "--q", "1", "--tol", "inf"),
             "tol must be positive and finite"),
            (("channels", "--xi", "nan"), "xi must be finite"),
            (("channels", "--xi", "inf"), "xi must be finite"),
            (("gap", "--m", "1", "--q", "nan"), "--q values must be finite"),
            (("gap", "--m", "1", "--q", "1,inf"), "--q values must be finite"),
            (("table", "--max-pairs", "1", "--tol", "inf"),
             "tol must be positive and finite"),
        ],
    )
    def test_exit_2_naming_the_argument(self, capsys, argv, message):
        stderr = usage_error(capsys, *argv).err
        assert message in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("argv", [("channels", "--xi", "1e308"),
                                      ("char", "--label", "a0", "--xi", "1e308")])
    def test_xi_whose_q_overflows_exits_2_naming_xi(self, capsys, argv):
        stderr = usage_error(capsys, *argv).err
        assert "xi must be <= 4.4942328371557893e+307" in stderr
        assert "q must be finite" not in stderr


class TestExitCodes:
    def test_solver_failure_exits_1(self, capsys, monkeypatch):
        def boom(max_pairs, tol):
            raise BracketError("no zero crossing found in the scan window")

        monkeypatch.setattr(cli_mod, "critical_table", boom)
        code, out, err = run_cli(capsys, "table")
        assert code == 1
        assert out == ""
        assert "no zero crossing" in err

    @pytest.mark.parametrize("argv", [
        ("char", "--label", "a0", "--q", "1e300"),
        ("channels", "--xi", "1e300"),
        ("gap", "--m", "0", "--q", "1e300"),
    ])
    def test_lapack_failure_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "eigensolve at truncation 4096 failed" in err
        assert "usage:" not in err

    def test_inverse_iteration_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(mathieu_mod, "dstein", lambda *args: (None, 1))
        code, out, err = run_cli(capsys, "char", "--label", "a3", "--q", "17.47")
        assert (code, out) == (1, "")
        assert "dstein did not converge (LAPACK info=1)" in err
        assert "usage:" not in err

    @pytest.mark.parametrize("argv", [
        ("char", "--label", "a0", "--q", "1e150"),
        ("channels", "--xi", "1e150"),
    ])
    def test_non_finite_eigensolve_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "eigensolve at truncation 4096 returned non-finite eigenvectors" in err
        assert "usage:" not in err

    @pytest.mark.parametrize("argv", [
        ("char", "--label", "a0", "--q", "1.7e308"),
        ("channels", "--xi", "4e307"),
    ])
    def test_overflowed_recurrence_exits_1(self, capsys, argv):
        # Past q ~ 1.27e308 even/pi's sqrt(2) * q is inf; b1 there already exits 1.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "recurrence at truncation 4096 overflows to inf" in err
        assert "usage:" not in err

    def test_oracle_past_its_cap_exits_2(self, capsys, monkeypatch):
        def never(symmetry, grid, q, steps):
            raise AssertionError(f"a grid of {len(grid)} points was integrated")

        monkeypatch.setattr(oracle_mod, "_grid_defects", never)
        stderr = usage_error(capsys, "char", "--label", "a0", "--q", "4096", "--oracle").err
        assert "needs wavenumbers up to 128.004, above its cap of 128" in stderr

    def test_module_entry_point(self, fresh):
        rows = parse_csv(fresh_run(fresh, "1"))
        assert rows[0]["eigenvalue_label"] == "a0"

    def test_the_oracle_runs_without_scipy_integrate(self, fresh):
        # The oracle propagates in numpy and loads with the package; even after
        # `char --oracle` ran, scipy.integrate is not loaded, and a star import
        # binds every exported name.
        code, out, err = fresh["oracle"]
        assert (code, err) == (0, "") and parse_csv(out)[0]["label"] == "a3"
        assert not fresh["integrate_loaded"], "scipy.integrate loaded"
        assert fresh["star_binds_all"] and fresh["oracle_bound"]


class TestOneParserPerProcess:
    """main builds its parser once and keeps no other state between calls."""

    def test_the_parser_is_built_once(self):
        assert cli_mod.build_parser() is cli_mod.build_parser()

    def test_import_builds_no_parser(self, fresh):
        assert fresh["parsers_built"] == 0

    def test_oracle_flag_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--label", "a0", "--q", "1", "--oracle")
        assert (code, list(parse_csv(out)[0])) == (0, ORACLE_COLUMNS)
        code, out, _ = run_cli(capsys, "char", "--label", "a0", "--q", "1")
        assert (code, list(parse_csv(out)[0])) == (0, CHAR_COLUMNS)

    def test_format_and_tol_do_not_carry_over(self, capsys, fresh):
        code, out, _ = run_cli(capsys, "table", "--max-pairs", "2", "--tol", "1e-8",
                               "--format", "json")
        assert code == 0 and len(json.loads(out)) == 4
        code, out, err = run_cli(capsys, "table", "--max-pairs", "2")
        assert (code, out, err) == (0, fresh_run(fresh, "2"), "")

    def test_usage_error_and_out_do_not_carry_over(self, capsys, fresh, tmp_path):
        usage_error(capsys, "table", "--max-pairs", "0")
        path = tmp_path / "t.csv"
        assert run_cli(capsys, "table", "--max-pairs", "3", "--out", str(path)) == (0, "", "")
        code, out, err = run_cli(capsys, "table", "--max-pairs", "3")
        assert (code, out, err) == (0, fresh_run(fresh, "3"), "")
        assert path.read_text(encoding="utf-8") == out
