"""Command-line front door for the package.

Subcommands reproduce the reference tables, print distributions by any of
the three computation routes (enumeration, recurrence, series), run the
verification suites, and trace the bijection on a single permutation.

Exit codes: 0 all good, 1 a verification failed, 2 usage or resource error.
JSON output carries a versioned ``schema`` field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .perms import (
    Pair,
    ResourceLimitError,
    enumeration_cap,
    first_letter_distribution,
    format_permutation,
    parse_pair,
    parse_permutation,
)
from .schroeder import schroeder_numbers, triangle_rows

SCHEMA = "permlab/v1"

#: Default brute-force size cap; --big raises it to the library cap.
DEFAULT_BRUTE_CAP = 9
BIG_BRUTE_CAP = 11


class CheckFailure(Exception):
    """A verification ran to completion and found a mismatch."""


def _brute_cap(big: bool) -> int:
    return min(enumeration_cap(), BIG_BRUTE_CAP if big else DEFAULT_BRUTE_CAP)


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


def _distribution_by(pair: Pair, n: int, method: str, big: bool) -> list[int]:
    from . import recurrences

    key = tuple(sorted(pair))
    if method == "brute":
        cap = _brute_cap(big)
        if n > cap:
            hint = "raise PERMLAB_MAX_N" if big else "pass --big"
            raise ResourceLimitError(
                f"brute-force census at n={n} exceeds the cap of {cap}; {hint}"
            )
        return first_letter_distribution(n, pair, max_n=cap)
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
    pair = parse_pair(args.pair)
    methods = _distribution_methods(pair)
    if args.check:
        results = {m: _distribution_by(pair, args.n, m, args.big) for m in methods}
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
    counts = _distribution_by(pair, args.n, method, args.big)
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

def _suite_conjecture(n_max: int) -> list:
    from .catalog import TRIANGLE_PAIRS
    from .closedforms import CheckResult

    rows = triangle_rows(n_max)
    checks = []
    for pair in TRIANGLE_PAIRS:
        ok = True
        detail = f"n <= {n_max}"
        for n in range(1, n_max + 1):
            got = first_letter_distribution(n, pair, max_n=n_max)
            if got != rows[n - 1]:
                ok = False
                detail = f"first mismatch at n={n}: {got}"
                break
        label = ",".join("".join(map(str, p)) for p in pair)
        checks.append(CheckResult(f"census for {label} equals the triangle rows", ok, detail))
    return checks


def _suite_recurrences(n_max: int) -> list:
    from . import recurrences
    from .closedforms import CheckResult
    from .perms import active_site_census, first_second_distribution

    checks = []
    rows = triangle_rows(n_max)
    for pair in recurrences.FIRST_LETTER_PAIRS:
        label = ",".join("".join(map(str, p)) for p in pair)
        ok = all(
            recurrences.first_letter_row(n) == first_letter_distribution(n, pair, max_n=n_max)
            for n in range(1, n_max + 1)
        )
        checks.append(CheckResult(f"first-letter recurrence matches brute force for {label}", ok))
    for pair in recurrences.SITE_PAIRS:
        label = ",".join("".join(map(str, p)) for p in pair)
        ok = True
        for n in range(1, n_max + 1):
            table = recurrences.site_table(n, pair)
            census = active_site_census(n, pair, max_n=n_max)
            if any(
                table[i][j] != int(census[i][j])
                for i in range(1, n + 1)
                for j in range(0, n + 2)
            ):
                ok = False
                break
        checks.append(CheckResult(f"active-site recurrence matches brute force for {label}", ok))
    for pair in recurrences.JOINT_PAIRS:
        label = ",".join("".join(map(str, p)) for p in pair)
        ok = all(
            recurrences.joint_table(n, pair).cells == first_second_distribution(n, pair, max_n=n_max).cells
            for n in range(2, n_max + 1)
        )
        checks.append(CheckResult(f"joint-table recurrence matches brute force for {label}", ok))
    ok = all(rows[n - 1] == recurrences.first_letter_row(n) for n in range(1, n_max + 1))
    checks.append(CheckResult("first-letter recurrence reproduces the triangle", ok))
    return checks


def _suite_bijection(n_max: int) -> list:
    from . import bijection
    from .closedforms import CheckResult
    from .perms import enumerate_avoiders, left_right_minima

    checks = []
    for n in range(1, n_max + 1):
        source = enumerate_avoiders(n, bijection.SOURCE_PAIR, max_n=n_max)
        target = set(enumerate_avoiders(n, bijection.TARGET_PAIR, max_n=n_max))
        images = set()
        ok = True
        detail = ""
        for perm in source:
            image = bijection.forward(perm)
            if image not in target:
                ok, detail = False, f"{perm} maps outside the target class"
                break
            if left_right_minima(perm) != left_right_minima(image):
                ok, detail = False, f"{perm} does not preserve minima"
                break
            if bijection.inverse(image) != perm:
                ok, detail = False, f"{perm} fails the round trip"
                break
            images.add(image)
        if ok and images != target:
            ok, detail = False, f"not onto at n={n}"
        checks.append(CheckResult(f"bijection exhaustive at n={n}", ok, detail))
    return checks


def _suite_series(depth: int) -> list:
    from .closedforms import CheckResult, expand, verify_cleared
    from .series import PolyAux, XSeries

    checks = []
    tri = expand("triangle_gf", 12)
    rows = triangle_rows(12)
    ok = all(
        [tri.coefficient(n).coefficient(k, 0) for k in range(1, n + 1)] == rows[n - 1]
        for n in range(1, 13)
    )
    checks.append(CheckResult("triangle closed form expands to the triangle rows (order 12)", ok))
    sch = expand("schroeder_gf", 12)
    ok = [sch.coefficient(n).coefficient(0, 0) for n in range(1, 13)] == schroeder_numbers(12)
    checks.append(CheckResult("Schroeder closed form expands to the Schroeder numbers (order 12)", ok))
    for tag in ("1243_1423", "1243_1342", "1243_1324"):
        pair = parse_pair(tag.replace("_", ","))
        coeffs = [PolyAux.zero()]
        for n in range(1, depth + 1):
            counts = first_letter_distribution(n, pair, max_n=depth)
            coeffs.append(PolyAux({(i + 1, 0): c for i, c in enumerate(counts) if c}))
        brute_gf = XSeries(coeffs, depth, guard=2 * depth + 4)
        checks.append(
            verify_cleared(
                brute_gf, f"first_letter_{tag}", guard=2 * depth + 4,
                name=f"first-letter closed form for {tag.replace('_', '/')} matches brute force",
            )
        )
    return checks


def _suite_systems(depth: int) -> list:
    from .systems import verify_all

    checks = []
    for name, results in verify_all(depth=depth).items():
        for result in results:
            checks.append(type(result)(f"{name}: {result.name}", result.ok, result.detail))
    return checks


def _suite_inversion(n_max: int) -> list:
    from .closedforms import CheckResult
    from .schroeder import inversion_seq_distribution

    rows = triangle_rows(n_max)
    checks = []
    for n in range(1, n_max + 1):
        got = inversion_seq_distribution(n)
        checks.append(
            CheckResult(
                f"inversion-sequence census equals triangle row at n={n}",
                got == rows[n - 1],
                "",
            )
        )
    return checks


SUITES = {
    "conjecture": (_suite_conjecture, 9),
    "recurrences": (_suite_recurrences, 9),
    "bijection": (_suite_bijection, 8),
    "series": (_suite_series, 9),
    "systems": (_suite_systems, 8),
    "inversion": (_suite_inversion, 9),
}


def cmd_verify(args: argparse.Namespace) -> int:
    runner, default_scale = SUITES[args.suite]
    scale = args.deg if args.deg is not None else (args.n if args.n is not None else default_scale)
    if args.suite in ("conjecture", "recurrences", "bijection"):
        scale = min(scale, _brute_cap(args.big))
    t0 = time.time()
    checks = runner(scale)
    elapsed = time.time() - t0
    all_ok = all(c.ok for c in checks)
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
            "all_ok": all_ok,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [str(c) for c in checks]
        lines.append(
            f"suite={args.suite} scale={scale} checks={len(checks)} "
            f"ok={sum(c.ok for c in checks)} elapsed={elapsed:.2f}s"
        )
        _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


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
    p.add_argument("suite", choices=tuple(SUITES))
    p.add_argument("--n", type=int, help="enumeration size for brute-force suites")
    p.add_argument("--deg", type=int, help="series truncation for series/systems suites")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bijection", help="trace the class bijection on one permutation")
    p.add_argument("perm", help='e.g. "3 5 2 4 1" or "35241"')
    p.set_defaults(func=cmd_bijection)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("tsv", "json"), default="tsv")
        sp.add_argument("--out", help="also write the output to this file")
        sp.add_argument("--big", action="store_true", help="raise the brute-force cap")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
