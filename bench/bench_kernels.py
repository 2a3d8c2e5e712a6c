"""Time the enumeration kernels and the series layer, optionally against an
earlier revision.

Usage:
    python3 bench/bench_kernels.py [--baseline REV] [--repeat R] [--out FILE]

Each run of a case is a fresh interpreter that imports permlab from one
``src/`` tree, makes one untimed warm-up call of the case's statement (so
lazy set-up is not timed) and then times one call.  The tree is this
checkout's ``src/``; with ``--baseline REV`` it is also the ``src/`` of that
git revision (exported with ``git archive``), and the two sides must give
equal results.  The sides are interleaved: for each case, R rounds each run
both sides once, the order alternating from round to round, so a drifting
machine load falls on both.  Every side reports its median, minimum and
maximum over the R runs; ``speedup`` is the baseline median over the change
median.

The cases are the kernels on the triangle pair 1243/1423 (``census_pair`` at
n = 8 and 9, ``active_census`` at n = 8, ``inv021_census`` at n = 9, and the
materialising walk at n = 8 through ``perms.enumerate_avoiders``, whose
kernel ``fill_avoiders`` changed its signature), ``census_pair`` on the hard
catalog pair 2413/4123 at n = 8 and 9, and the series layer:
``systems.verify_all`` at depths 14 and 20 and ``closedforms.expand`` of
every closed form to order 20 (for these ``n`` is the depth or order).
Kernels are called with int64 pattern arrays, which every revision accepts.

With ``--out`` the timings are written as JSON together with the backend
that ran, the Python and numpy versions, the CPU count and the git revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR = "1243,1423"
HARD_PAIR = "2413,4123"

#: (label, pattern pair, size, statement timed); ``pa``, ``pb`` and ``pair``
#: are the case's pair in scope.
CASES = (
    ("census_pair", PAIR, 8, "kernels.census_pair(8, pa, pb)"),
    ("census_pair", PAIR, 9, "kernels.census_pair(9, pa, pb)"),
    ("census_pair", HARD_PAIR, 8, "kernels.census_pair(8, pa, pb)"),
    ("census_pair", HARD_PAIR, 9, "kernels.census_pair(9, pa, pb)"),
    ("fill_avoiders (perms.enumerate_avoiders)", PAIR, 8, "perms.enumerate_avoiders(8, pair)"),
    ("active_census", PAIR, 8, "kernels.active_census(8, pa, pb)"),
    ("inv021_census", None, 9, "kernels.inv021_census(9)"),
    ("systems.verify_all", None, 14, "systems.verify_all(14)"),
    ("systems.verify_all", None, 20, "systems.verify_all(20)"),
    ("closedforms.expand (all forms)", None, 20,
     "[closedforms.expand(name, 20) for name in closedforms.closed_form_names()]"),
)

#: Runs in the child: argv = [src, statement, pair]; prints one JSON line.
CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from permlab import closedforms, kernels, perms, systems
pair = perms.parse_pair(sys.argv[3])
pa, pb = (np.asarray(p, np.int64) for p in pair)
out = eval(sys.argv[2])
t0 = time.perf_counter()
eval(sys.argv[2])
took = time.perf_counter() - t0
flat = [a.tolist() for a in out] if isinstance(out, tuple) else (
    out.tolist() if hasattr(out, "tolist") else out)
print(json.dumps({
    "seconds": took,
    "digest": hashlib.sha256(repr(flat).encode()).hexdigest()[:16],
    "backend": "numba" if getattr(kernels, "NUMBA_ENABLED", False) else "pure python",
    "numpy": np.__version__,
}))
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export_src(rev: str, into: str) -> str:
    """Write the ``src/`` tree of git revision `rev` under `into`."""
    blob = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(blob)) as tar:
        tar.extractall(into)
    return str(Path(into) / "src")


def _run(src: str, statement: str, pair: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, src, statement, pair],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", metavar="REV", help="git revision to compare with")
    parser.add_argument("--repeat", type=int, default=5, help="rounds per case (R)")
    parser.add_argument("--out", help="write the timings as JSON to this file")
    args = parser.parse_args()

    rows, backend = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": str(ROOT / "src")}
        if args.baseline:
            trees["baseline"] = _export_src(args.baseline, tmp)
        for label, pair, n, statement in CASES:
            row = {"case": label, "pair": pair, "n": n, "statement": statement}
            runs = {side: [] for side in trees}
            digests = set()
            for r in range(args.repeat):
                for side in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                    got = _run(trees[side], statement, pair or PAIR)
                    runs[side].append(got["seconds"])
                    digests.add(got["digest"])
                    backend[side] = got["backend"]
                    numpy_version = got["numpy"]
            if len(digests) != 1:
                raise SystemExit(f"{label} n={n}: the runs disagree")
            for side, times in runs.items():
                row[f"{side}_median_s"] = round(statistics.median(times), 4)
                row[f"{side}_min_s"] = round(min(times), 4)
                row[f"{side}_max_s"] = round(max(times), 4)
                row[f"{side}_runs_s"] = [round(t, 4) for t in times]
            if args.baseline:
                row["speedup"] = round(row["baseline_median_s"] / row["change_median_s"], 1)
            rows.append(row)
            print("  ".join(f"{k}={v}" for k, v in row.items()
                            if k != "statement" and not k.endswith("runs_s")))

    if args.out:
        record = {
            "bench": "bench/bench_kernels.py",
            "repeat": args.repeat,
            "change": _git("describe", "--always", "--dirty", "--abbrev=12"),
            "baseline": _git("rev-parse", "--short=12", args.baseline) if args.baseline else None,
            "backend": backend,
            "python": platform.python_version(),
            "numpy": numpy_version,
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "rows": rows,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
