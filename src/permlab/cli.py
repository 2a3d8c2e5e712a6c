"""Command-line front door for the package.

Subcommands reproduce the reference tables, print distributions by any of
the three computation routes (enumeration, recurrence, series), run the
verification suites of :mod:`permlab.suites`, and trace the bijection on a
single permutation.

Exit codes: 0 all good, 1 a verification failed, 2 usage or resource error.
JSON output carries a versioned ``schema`` field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, suites
from .perms import (
    Pair,
    ResourceLimitError,
    first_letter_distribution,
    format_permutation,
    parse_pair,
    parse_permutation,
)
from .schroeder import triangle_rows

SCHEMA = "permlab/v1"


def _emit(text: str, out_path: str | None) -> None:
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


# ---------------------------------------------------------------------------
# triangle
# ---------------------------------------------------------------------------

def cmd_triangle(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= 40:
        raise ResourceLimitError("triangle rows are limited to 1 <= n <= 40")
    rows = triangle_rows(args.n)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "triangle",
            "n_max": args.n,
            "rows": rows,
            "row_sums": [sum(r) for r in rows],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit("\n".join("\t".join(map(str, row)) for row in rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------

def _distribution_methods(pair: Pair) -> list[str]:
    from . import recurrences

    methods = ["brute"]
    key = tuple(sorted(pair))
    if any(key == tuple(sorted(p)) for p in (
        recurrences.FIRST_LETTER_PAIRS + recurrences.SITE_PAIRS + recurrences.JOINT_PAIRS
    )):
        methods.append("recurrence")
    if any(key == tuple(sorted(p)) for p in recurrences.JOINT_PAIRS):
        methods.append("series")
    return methods


def _distribution_by(pair: Pair, n: int, method: str) -> list[int]:
    from . import recurrences

    key = tuple(sorted(pair))
    if method == "brute":
        return first_letter_distribution(n, pair)
    if n > 40:
        raise ResourceLimitError(f"method {method!r} is limited to n <= 40")
    if method == "recurrence":
        if any(key == tuple(sorted(p)) for p in recurrences.FIRST_LETTER_PAIRS):
            return recurrences.first_letter_row(n, pair)
        if any(key == tuple(sorted(p)) for p in recurrences.SITE_PAIRS):
            table = recurrences.site_table(n, pair)
            return [sum(table[i]) for i in range(1, n + 1)]
        if n == 1:
            return [1]
        return recurrences.joint_table(n, pair).first_letter()
    if method == "series":
        from .closedforms import expand

        tag = "_".join("".join(map(str, p)) for p in sorted(pair))
        series = expand(f"first_letter_{tag}", n, guard=2 * n + 4)
        coeff = series.coefficient(n)
        return [coeff.coefficient(i, 0) for i in range(1, n + 1)]
    raise ValueError(f"unknown method {method!r}")


def cmd_distribution(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"n must be at least 1, got {args.n}")
    pair = parse_pair(args.pair)
    methods = _distribution_methods(pair)
    if args.check:
        results = {m: _distribution_by(pair, args.n, m) for m in methods}
        agree = len({tuple(v) for v in results.values()}) == 1
        if args.format == "json":
            payload = {
                "schema": SCHEMA,
                "command": "distribution",
                "pair": args.pair,
                "n": args.n,
                "methods": results,
                "agree": agree,
            }
            _emit(json.dumps(payload, indent=2), args.out)
        else:
            lines = [f"{m}\t" + " ".join(map(str, v)) for m, v in results.items()]
            verdict = "agree" if agree else "DISAGREE"
            _emit("\n".join(lines) + f"\n# methods {verdict} for pair={args.pair} n={args.n}", args.out)
        return 0 if agree else 1

    method = args.method or "brute"
    if method not in methods:
        raise ResourceLimitError(
            f"method {method!r} is not available for pair {args.pair}; "
            f"available: {', '.join(methods)}"
        )
    counts = _distribution_by(pair, args.n, method)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "distribution",
            "pair": args.pair,
            "n": args.n,
            "method": method,
            "counts": counts,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(
            " ".join(map(str, counts))
            + f"\n# pair={args.pair} n={args.n} method={method}",
            args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# table2
# ---------------------------------------------------------------------------

def cmd_table2(args: argparse.Namespace) -> int:
    from .catalog import CATALOG, REFERENCE_N, diff_catalog, entries

    t0 = time.time()
    mismatches = diff_catalog()
    triangle_entries = entries("triangle")
    reversed_entries = entries("reversed")
    triangle_row = triangle_rows(REFERENCE_N)[-1]
    nine_ok = len(triangle_entries) == 9 and all(
        list(e.counts) == triangle_row for e in triangle_entries
    )
    reversed_ok = all(
        list(e.counts) == triangle_row[::-1] for e in reversed_entries
    )
    elapsed = time.time() - t0
    all_ok = not mismatches and nine_ok and reversed_ok
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "table2",
            "rows": len(CATALOG),
            "mismatches": [
                {"pair": e.label, "expected": list(e.counts), "recomputed": got}
                for e, got in mismatches
            ],
            "triangle_rows_ok": nine_ok,
            "reversed_rows_ok": reversed_ok,
            "elapsed_seconds": round(elapsed, 3),
            "all_ok": all_ok,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"rows checked: {len(CATALOG)}",
            f"brute-force mismatches: {len(mismatches)}",
            f"nine triangle rows match row {REFERENCE_N}: {nine_ok}",
            f"reversed rows are the mirrored triangle row: {reversed_ok}",
            f"elapsed: {elapsed:.2f}s",
        ]
        for e, got in mismatches:
            lines.append(f"MISMATCH {e.label}: expected {list(e.counts)}, got {got}")
        _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    suite = suites.SUITES[args.suite]
    scale = args.deg if args.deg is not None else (args.n if args.n is not None else suite.default_scale)
    if scale < 1:
        raise ValueError(f"the scale of a suite must be at least 1, got {scale}")
    t0 = time.time()
    checks = suite.run(scale)
    elapsed = time.time() - t0
    ok = suites.all_ok(checks)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "verify",
            "suite": args.suite,
            "scale": scale,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
            ],
            "elapsed_seconds": round(elapsed, 3),
            "all_ok": ok,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [str(c) for c in checks]
        lines.append(
            f"suite={args.suite} scale={scale} checks={len(checks)} "
            f"ok={sum(c.ok for c in checks)} elapsed={elapsed:.2f}s"
        )
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bijection
# ---------------------------------------------------------------------------

def _mark_minima(perm, minima) -> str:
    marked = dict(minima)
    parts = []
    for pos, value in enumerate(perm, start=1):
        parts.append(f"[{value}]" if marked.get(pos) == value else str(value))
    return " ".join(parts)


def cmd_bijection(args: argparse.Namespace) -> int:
    from .bijection import forward_trace

    perm = parse_permutation(args.perm)
    trace = forward_trace(perm)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "bijection",
            "input": list(perm),
            "minima": [list(m) for m in trace.minima],
            "stages": [list(stage) for stage in trace.stages],
            "image": list(trace.image),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"minima (pos, val): {' '.join(str(m) for m in trace.minima)}"]
        for index, stage in enumerate(trace.stages):
            label = "input " if index == 0 else f"stage {index}"
            lines.append(f"{label}: {_mark_minima(stage, trace.minima)}")
        lines.append(f"image : {format_permutation(trace.image)}")
        _emit("\n".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="Exact enumeration laboratory for Schroeder-triangle avoidance classes.",
    )
    parser.add_argument("--version", action="version", version=f"permlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="print triangle rows 1..n")
    p.add_argument("--n", type=int, default=6)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("distribution", help="first-letter census for a pattern pair")
    p.add_argument("--pair", required=True, help='e.g. "1243,1423"')
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--method", choices=("brute", "recurrence", "series"))
    p.add_argument("--check", action="store_true", help="run all available methods and diff")
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("table2", help="audit the embedded size-8 reference table")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(suites.SUITES))
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--n", type=int, help="enumeration size for brute-force suites")
    scale.add_argument("--deg", type=int, help="series truncation for series/systems suites")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bijection", help="trace the class bijection on one permutation")
    p.add_argument("perm", help='e.g. "3 5 2 4 1" or "35241"')
    p.set_defaults(func=cmd_bijection)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("tsv", "json"), default="tsv")
        sp.add_argument("--out", help="also write the output to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ResourceLimitError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
