"""Command-line frontend.

Four subcommands -- char, table, channels, gap -- emit flat records as
CSV (default) or JSON, to stdout or to --out.  Numbers are rendered with
12 significant digits in both formats so the two emitters round-trip.
Exit codes: 0 on success, 1 on solver failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

from .criticality import critical_table, log_gap, pairing_gap
from .errors import SolverError
from .mathieu import DEFAULT_TOL, char_value, parse_label
from .model import _open_count, classify_channels, to_mathieu


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_text(rows) -> str:
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_value(row[c]) for c in columns])
    return buf.getvalue()


def _json_text(rows) -> str:
    # Hand-rolled so numeric fields carry exactly the same 12-digit
    # rendering as the CSV cells; non-finite floats become null.
    rendered = []
    for row in rows:
        fields = []
        for c, value in row.items():
            if isinstance(value, str):
                text = json.dumps(value)
            else:
                text = _format_value(value) if math.isfinite(value) else "null"
            fields.append(f"{json.dumps(c)}: {text}")
        rendered.append("  {" + ", ".join(fields) + "}")
    return "[\n" + ",\n".join(rendered) + "\n]\n"


def _cmd_char(args):
    symmetry, order = parse_label(args.label)
    q = to_mathieu(args.xi) if args.xi is not None else args.q
    cv = char_value(symmetry, order, q, args.tol)
    row = {
        "label": cv.label,
        "class": symmetry.cli_name,
        "order": order,
        "q": q,
        "xi": q / 4.0,
        "value": cv.value,
        "truncation": cv.truncation,
    }
    if args.oracle:
        from .oracle import oracle_char_value  # loads scipy.integrate, needed only here
        reference = oracle_char_value(symmetry, order, q, args.tol)
        row["oracle_value"] = reference
        row["discrepancy"] = cv.value - reference
    return [row]


def _cmd_table(args):
    return [
        {
            "eigenvalue_label": p.label,
            "class": p.symmetry.cli_name,
            "order": p.order,
            "q_c": p.q_c,
            "xi_c": p.xi_c,
            "residual": p.residual,
        }
        for p in critical_table(args.max_pairs, args.tol)
    ]


def _cmd_channels(args):
    classified = classify_channels(args.xi, args.max_order, args.tol)
    count = _open_count(classified)
    return [
        {
            "xi": args.xi,
            "max_order": args.max_order,
            "count": count,
            "label": channel.label,
            "class": channel.symmetry.cli_name,
            "order": channel.order,
            "e_theta": channel.e_theta,
            "alpha": radial.alpha,
            "regime": radial.regime.value,
        }
        for channel, radial in classified
    ]


def _parse_q_list(text: str) -> list[float]:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece:
            values.append(float(piece))
    if not values:
        raise ValueError("--q must list at least one value")
    if not all(math.isfinite(q) and q > 0 for q in values):
        raise ValueError("all --q values must be finite and > 0")
    return values


def _cmd_gap(args):
    gaps = [pairing_gap(args.m, q, args.tol) for q in _parse_q_list(args.q)]
    return [{"m": g.m, "q": g.q, "gap": g.gap, "log_gap": log_gap(g)} for g in gaps]


@functools.cache  # built on the first main call, then reused: parse_args only reads it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadspec",
        description="Angular Mathieu spectrum and critical strengths of a "
                    "charged particle in a planar electric-quadrupole field.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=float, default=DEFAULT_TOL)
    shared.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    shared.add_argument("--out", metavar="PATH",
                        help="write to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", parents=[shared],
                            help="one characteristic value a_m(q) / b_m(q)")
    p_char.add_argument("--label", required=True, help="eigenvalue label such as a0 or b3")
    strength = p_char.add_mutually_exclusive_group(required=True)
    strength.add_argument("--q", type=float, help="Mathieu strength q >= 0")
    strength.add_argument("--xi", type=float, help="quadrupole strength xi (q = 4 xi)")
    p_char.add_argument("--oracle", action="store_true",
                        help="also report the shooting-oracle value and discrepancy")
    p_char.set_defaults(handler=_cmd_char)

    p_table = sub.add_parser(
        "table", parents=[shared], help="critical strengths xi_c where curves cross zero")
    p_table.add_argument("--max-pairs", type=int, default=5,
                        help="number of (a_m, b_m+1) pairs (default 5)")
    p_table.set_defaults(handler=_cmd_table)

    p_channels = sub.add_parser(
        "channels", parents=[shared],
        help="per-channel radial classification at one strength")
    p_channels.add_argument("--xi", type=float, required=True,
                            help="quadrupole strength xi >= 0")
    p_channels.add_argument("--max-order", type=int, default=12)
    p_channels.set_defaults(handler=_cmd_channels)

    p_gap = sub.add_parser(
        "gap", parents=[shared], help="pairing gap b_m+1(q) - a_m(q) at one or more q")
    p_gap.add_argument("--m", type=int, required=True, help="pair index m >= 0")
    p_gap.add_argument("--q", required=True,
                       help="comma-separated list of strengths, all > 0")
    p_gap.set_defaults(handler=_cmd_gap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = args.handler(args)
    except SolverError as exc:
        print(f"quadspec: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
    text = _csv_text(rows) if args.format == "csv" else _json_text(rows)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
