"""Command-line frontend.

Four subcommands -- char, table, channels, gap -- emit flat records as
CSV (default) or JSON, to stdout or to --out, from one renderer.  Numbers
print with 12 significant digits in both formats, so the two round-trip.
Exit codes: 0 on success, 1 on solver failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .criticality import critical_table, log_gap, pairing_gap
from .errors import SolverError
from .mathieu import DEFAULT_TOL, char_value, parse_label
from .model import _open_count, classify_channels, to_mathieu
from .oracle import oracle_char_value


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"  # -0.0 + 0.0 is 0.0: a negative zero prints as 0
    return str(value)


def _render(rows, fmt: str) -> str:
    """CSV or JSON text of the rows, one pass; numeric cells read the same in
    both, and JSON prints a non-finite one as null.  No cell needs CSV quoting."""
    columns = list(rows[0])
    if fmt == "csv":
        lines = [columns] + [[_format_value(row[c]) for c in columns] for row in rows]
        return "".join(",".join(cells) + "\n" for cells in lines)
    keys = [json.dumps(c) + ": " for c in columns]
    rendered = []
    for row in rows:
        values = [row[c] for c in columns]
        cells = [json.dumps(v) if isinstance(v, str)
                 else _format_value(v) if math.isfinite(v) else "null" for v in values]
        rendered.append("  {" + ", ".join(k + cell for k, cell in zip(keys, cells)) + "}")
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
    text = _render(rows, args.format)
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
