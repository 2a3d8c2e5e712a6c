"""Time the enumeration kernels and the series layer, optionally against an
earlier revision.

Usage:
    python3 bench/bench_kernels.py [--baseline REV] [--repeat R] [--out FILE]

Each case runs in a fresh interpreter that imports permlab from this
checkout's ``src/``; with ``--baseline REV`` it runs a second time on the
``src/`` of that git revision (exported with ``git archive``), and the two
results must be equal.  The cases are the four kernels on the triangle pair
1243/1423: ``census_pair`` at n = 8 and 9, ``active_census`` at n = 8 and
``inv021_census`` at n = 9, called with int64 pattern arrays as both
revisions accept, and the materialising walk at n = 8 through
``perms.enumerate_avoiders`` (whose kernel, ``fill_avoiders``, changed its
signature).  The series cases are ``systems.verify_all`` at depths 14 and
20 and ``closedforms.expand`` of every closed form to order 20; for them
``n`` is the depth or order.  Each figure is the best of R runs.

With ``--out`` the timings are written as JSON together with the backend
that ran, the Python and numpy versions, the CPU count and the git revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR = "1243,1423"

#: (label, size, statement timed); ``pa``, ``pb`` and ``pair`` are in scope.
CASES = (
    ("census_pair", 8, "kernels.census_pair(8, pa, pb)"),
    ("census_pair", 9, "kernels.census_pair(9, pa, pb)"),
    ("fill_avoiders (perms.enumerate_avoiders)", 8, "perms.enumerate_avoiders(8, pair)"),
    ("active_census", 8, "kernels.active_census(8, pa, pb)"),
    ("inv021_census", 9, "kernels.inv021_census(9)"),
    ("systems.verify_all", 14, "systems.verify_all(14)"),
    ("systems.verify_all", 20, "systems.verify_all(20)"),
    ("closedforms.expand (all forms)", 20,
     "[closedforms.expand(name, 20) for name in closedforms.closed_form_names()]"),
)

#: Runs in the child: argv = [src, statement, repeat]; prints one JSON line.
CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from permlab import closedforms, kernels, perms, systems
pair = perms.parse_pair(%r)
pa, pb = (np.asarray(p, np.int64) for p in pair)
times = []
for _ in range(int(sys.argv[3])):
    t0 = time.perf_counter()
    out = eval(sys.argv[2])
    times.append(time.perf_counter() - t0)
flat = [a.tolist() for a in out] if isinstance(out, tuple) else (
    out.tolist() if hasattr(out, "tolist") else out)
print(json.dumps({
    "times": times,
    "digest": hashlib.sha256(repr(flat).encode()).hexdigest()[:16],
    "backend": "numba" if getattr(kernels, "NUMBA_ENABLED", False) else "pure python",
    "numpy": np.__version__,
}))
""" % PAIR


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


def _run(src: str, statement: str, repeat: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, src, statement, str(repeat)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", metavar="REV", help="git revision to compare with")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", help="write the timings as JSON to this file")
    args = parser.parse_args()

    rows, backend = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": str(ROOT / "src")}
        if args.baseline:
            trees["baseline"] = _export_src(args.baseline, tmp)
        for label, n, statement in CASES:
            row = {"case": label, "n": n, "statement": statement}
            digests = set()
            for side, src in trees.items():
                got = _run(src, statement, args.repeat)
                row[f"{side}_s"] = round(min(got["times"]), 4)
                row[f"{side}_runs_s"] = [round(t, 4) for t in got["times"]]
                digests.add(got["digest"])
                backend[side] = got["backend"]
                numpy_version = got["numpy"]
            if args.baseline:
                row["speedup"] = round(row["baseline_s"] / row["change_s"], 1)
                if len(digests) != 1:
                    raise SystemExit(f"{label} n={n}: the two revisions disagree")
            rows.append(row)
            print("  ".join(f"{k}={v}" for k, v in row.items() if not k.endswith("runs_s")))

    if args.out:
        record = {
            "bench": "bench/bench_kernels.py",
            "pair": PAIR,
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
