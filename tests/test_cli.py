"""Tests for the command-line interface and its CSV/JSON emitters."""

import csv
import io
import json
import subprocess
import sys

import pytest

from quadspec import BracketError
from quadspec import cli as cli_mod
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


def fresh_run(*argv):
    """Stdout of the CLI in a new interpreter, where its parser is built anew."""
    result = subprocess.run([sys.executable, "-m", "quadspec.cli", *argv],
                            capture_output=True, text=True, timeout=300)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return result.stdout


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no data rows in {text!r}"
    return rows


class TestChar:
    def test_free_rotor(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--label", "a0", "--q", "0")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["label"] == "a0"
        assert float(row["value"]) == 0.0
        assert row["truncation"] == "16"  # rank 0 + 16 rows at q = 0

    def test_label_and_xi(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--label", "b1",
                               "--xi", "0.2270115834")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["class"] == "odd-2pi"
        assert abs(float(row["value"])) < 1e-8
        assert float(row["q"]) == pytest.approx(0.9080463336, rel=1e-12)

    def test_oracle_flag(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--label", "a0", "--q", "5", "--oracle")
        assert code == 0
        (row,) = parse_csv(out)
        assert "oracle_value" in row and "discrepancy" in row
        assert abs(float(row["value"]) - float(row["oracle_value"])) < 1e-9
        assert abs(float(row["discrepancy"])) < 1e-9

    def test_large_value_is_certified(self, capsys):
        # |a| ~ 2e6, where tol 1e-12 is below one ulp; it used to exit 1.
        code, out, _ = run_cli(capsys, "char", "--label", "a0", "--q", "1e6")
        assert code == 0
        (row,) = parse_csv(out)
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
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2


class TestTable:
    def test_default_reproduces_ten_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 10
        assert list(rows[0].keys()) == TABLE_COLUMNS
        assert float(rows[0]["xi_c"]) == 0.0
        assert float(rows[1]["xi_c"]) == pytest.approx(0.2270115834, abs=1e-8)
        assert [r["eigenvalue_label"] for r in rows[:4]] == ["a0", "b1", "a1", "b2"]

    def test_single_pair(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-pairs", "1")
        assert code == 0
        assert len(parse_csv(out)) == 2

    def test_six_pairs_extend(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-pairs", "6")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 12
        assert float(rows[10]["xi_c"]) > 17.35709827
        assert float(rows[11]["xi_c"]) > 17.35709827

    def test_rejects_zero_pairs(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table", "--max-pairs", "0"])
        assert err.value.code == 2


class TestFormats:
    def test_csv_json_round_trip(self, capsys):
        code, out_csv, _ = run_cli(capsys, "table", "--max-pairs", "2")
        assert code == 0
        code, out_json, _ = run_cli(capsys, "table", "--max-pairs", "2",
                                    "--format", "json")
        assert code == 0
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
        code, out_csv, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out_csv.splitlines()[0] == ",".join(columns)
        code, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert all(list(row) == columns for row in json.loads(out_json))

    def test_non_finite_rendering(self):
        assert cli_mod._format_value(float("nan")) == "nan"
        assert cli_mod._format_value(float("inf")) == "inf"
        assert cli_mod._format_value(float("-inf")) == "-inf"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "table", "--max-pairs", "1",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert len(parse_csv(target.read_text())) == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "t.csv"
        with pytest.raises(SystemExit) as err:
            main(["table", "--max-pairs", "1", "--out", str(target)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write --out {target}: No such file or directory" in captured.err
        assert "Traceback" not in captured.err


class TestChannels:
    def test_zero_strength(self, capsys):
        code, out, _ = run_cli(capsys, "channels", "--xi", "0",
                               "--max-order", "4")
        assert code == 0
        rows = parse_csv(out)
        assert all(row["count"] == "0" for row in rows)
        assert all(row["regime"] != "unbounded_below" for row in rows)

    @pytest.mark.parametrize("xi,expected", [("1.0", 2), ("0.3", 2)])
    def test_counts_between_thresholds(self, capsys, xi, expected):
        code, out, _ = run_cli(capsys, "channels", "--xi", xi,
                               "--max-order", "6")
        assert code == 0
        rows = parse_csv(out)
        assert all(int(row["count"]) == expected for row in rows)
        open_rows = [r for r in rows if r["regime"] == "unbounded_below"]
        assert len(open_rows) == expected
        # breakdown covers every family up to max-order
        assert len(rows) == 13

    @pytest.mark.parametrize("xi", ["0.01", "1.9", "10.5", "250"])
    def test_count_is_number_of_open_rows(self, capsys, xi):
        code, out, _ = run_cli(capsys, "channels", "--xi", xi)
        assert code == 0
        rows = parse_csv(out)
        open_rows = [r for r in rows if r["regime"] == "unbounded_below"]
        assert {int(row["count"]) for row in rows} == {len(open_rows)}

    def test_every_channel_open_at_xi_1000(self, capsys):
        # Values reach |a| ~ 8000, where tol 1e-12 is below two ulps; it used
        # to exit 1 from xi ~ 820 on.
        code, out, _ = run_cli(capsys, "channels", "--xi", "1000", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 25
        assert all(row["count"] == 25 and row["regime"] == "unbounded_below" for row in rows)
        energies = [row["e_theta"] for row in rows]
        assert energies == sorted(energies) and energies[0] == pytest.approx(-3936.87969533)

    def test_rejects_negative_xi(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["channels", "--xi", "-1"])
        assert err.value.code == 2


class TestGap:
    def test_near_zero_strength(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--m", "0", "--q", "0.0001")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["gap"]) == pytest.approx(1.0, abs=2e-4)
        assert float(row["log_gap"]) == pytest.approx(0.0, abs=2e-4)

    def test_list_is_strictly_decreasing(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--m", "1", "--q", "10,20,30,40")
        assert code == 0
        gaps = [float(row["gap"]) for row in parse_csv(out)]
        assert len(gaps) == 4
        assert all(hi < lo for lo, hi in zip(gaps, gaps[1:]))

    def test_gap_scale_at_last_crossing(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--m", "4", "--q", "69.42837828")
        assert code == 0
        (row,) = parse_csv(out)
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
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2


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
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        stderr = capsys.readouterr().err
        assert err.value.code == 2
        assert message in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("argv", [("channels", "--xi", "1e308"),
                                      ("char", "--label", "a0", "--xi", "1e308")])
    def test_xi_whose_q_overflows_exits_2_naming_xi(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        stderr = capsys.readouterr().err
        assert err.value.code == 2
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

    def test_oracle_past_its_scan_cap_exits_2(self, capsys, monkeypatch):
        def never(symmetry, grid, q):
            raise AssertionError(f"a grid of {len(grid)} points was built")

        monkeypatch.setattr(oracle_mod, "_grid_defects", never)
        with pytest.raises(SystemExit) as err:
            main(["char", "--label", "a0", "--q", "4094", "--oracle"])
        assert err.value.code == 2
        assert "above its cap of 65536" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "quadspec.cli", "table", "--max-pairs", "1"],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        assert rows[0]["eigenvalue_label"] == "a0"

    def test_import_leaves_the_oracle_unloaded(self):
        # Only `char --oracle` needs scipy.integrate; the package resolves the
        # oracle's names on first use, and a star import still binds them.
        script = "\n".join([
            "import sys, quadspec, quadspec.cli",
            "assert 'scipy.integrate' not in sys.modules, 'loaded at import'",
            "from quadspec import *",
            "assert all(name in globals() for name in quadspec.__all__)",
            "assert oracle_char_value is quadspec.oracle.oracle_char_value",
        ])
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr


class TestOneParserPerProcess:
    """main builds its parser once and keeps no other state between calls."""

    def test_the_parser_is_built_once(self):
        assert cli_mod.build_parser() is cli_mod.build_parser()

    def test_import_builds_no_parser(self):
        script = "import quadspec.cli as c; assert c.build_parser.cache_info().currsize == 0"
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    def test_oracle_flag_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--label", "a0", "--q", "1", "--oracle")
        assert (code, list(parse_csv(out)[0])) == (0, ORACLE_COLUMNS)
        code, out, _ = run_cli(capsys, "char", "--label", "a0", "--q", "1")
        assert (code, list(parse_csv(out)[0])) == (0, CHAR_COLUMNS)

    def test_format_and_tol_do_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-pairs", "2", "--tol", "1e-8",
                               "--format", "json")
        assert code == 0 and len(json.loads(out)) == 4
        code, out, err = run_cli(capsys, "table", "--max-pairs", "2")
        assert (code, out, err) == (0, fresh_run("table", "--max-pairs", "2"), "")

    def test_usage_error_and_out_do_not_carry_over(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["table", "--max-pairs", "0"])
        assert err.value.code == 2
        capsys.readouterr()
        path = tmp_path / "t.csv"
        assert run_cli(capsys, "table", "--max-pairs", "3", "--out", str(path)) == (0, "", "")
        code, out, err = run_cli(capsys, "table", "--max-pairs", "3")
        assert (code, out, err) == (0, fresh_run("table", "--max-pairs", "3"), "")
        assert path.read_text(encoding="utf-8") == out
