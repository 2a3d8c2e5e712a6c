"""Shows that every workload's checks can fail.

    python3 perfbench/selftest.py

For each workload this runs one real round (seed 0) and requires the checks
to pass it, then hands the checker a corrupted copy and requires a
rejection: one census cell changed (``catalog``, ``sites``), two bijection
images swapped, one closed-form coefficient changed (``algebra``).  Exits 0
when every corruption was caught; takes about half a minute.
"""

from __future__ import annotations

import copy
import sys

import lazy_setup
from run import permlab_modules
from workloads import WORKLOADS, Ops


def _census_cell(results: dict) -> dict:
    bad = copy.copy(results)
    key = next(iter(bad))
    bad[key] = list(bad[key])
    bad[key][3] += 1
    return bad


def _site_cell(results: dict) -> dict:
    bad = copy.deepcopy(results)
    census = bad["census"][next(iter(bad["census"]))]
    census[2, 4] += 1
    return bad


def _swapped_images(results: dict) -> dict:
    bad = copy.copy(results)
    images = bad["images"] = list(bad["images"])
    j = next(j for j, q in enumerate(images) if q[0] != images[0][0])
    images[0], images[j] = images[j], images[0]
    return bad


def _form_coefficient(results: dict) -> dict:
    from permlab.series import PolyAux, XSeries

    bad = copy.copy(results)
    bad["expanded"] = dict(bad["expanded"])
    name = "first_letter_1243_1342"
    series = bad["expanded"][name]
    coeffs = list(series.coeffs)
    coeffs[6] = coeffs[6] + PolyAux.monomial(1, 3, 0)
    bad["expanded"][name] = XSeries(coeffs, series.trunc, series.guard)
    return bad


CORRUPTIONS = {
    "catalog": ("one census cell changed", _census_cell),
    "sites": ("one site-census cell changed", _site_cell),
    "bijection": ("two images swapped", _swapped_images),
    "algebra": ("one closed-form coefficient changed", _form_coefficient),
}


def main() -> int:
    failures = 0
    for name, (what, corrupt) in CORRUPTIONS.items():
        lazy_setup.set_up(name)
        ops = Ops()
        workload = WORKLOADS[name](permlab_modules(), 0, ops)
        results = workload.round(ops)
        clean = workload.problems + ops.errors + workload.check(results)
        caught = workload.check(corrupt(results))
        ok = not clean and bool(caught)
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: clean round "
              f"{'accepted' if not clean else 'REJECTED: ' + clean[0]}; {what}: "
              f"{'rejected (' + caught[0] + ')' if caught else 'NOT DETECTED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
