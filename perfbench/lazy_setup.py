"""Cold set-up of one workload: the imports and first calls a CLI run pays.

``set_up(workload)`` imports the permlab modules the workload uses and
finishes their lazy set-up: one call of each kernel at n = 4 (which is where
numba would compile) and, for ``algebra``, the closed-form registry of
``closedforms.build_closed_form``.  Run as a script,

    python3 perfbench/lazy_setup.py <workload>

it does only that in a fresh interpreter; ``run.py`` times the process from
start to exit as ``setup_s``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = {
    "catalog": ("catalog", "perms", "kernels"),
    "sites": ("perms", "kernels", "recurrences"),
    "bijection": ("bijection", "perms", "kernels"),
    "algebra": ("closedforms", "systems", "recurrences", "series", "schroeder", "kernels"),
}

_WARM_PAIR = ((1, 2, 3, 4), (1, 2, 4, 3))


def set_up(workload: str) -> dict:
    """Import and warm the workload's modules; returns {name: module}."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"permlab.{name}") for name in MODULES[workload]}
    perms = importlib.import_module("permlab.perms")
    if workload == "catalog":
        perms.first_letter_distribution(4, _WARM_PAIR)
    elif workload == "sites":
        perms.active_site_census(4, _WARM_PAIR)
    elif workload == "bijection":
        perms.enumerate_avoiders(4, _WARM_PAIR)
    else:
        closedforms = mods["closedforms"]
        for name in closedforms.closed_form_names():
            closedforms.build_closed_form(name)
        mods["schroeder"].inversion_seq_distribution(4)
    return mods


if __name__ == "__main__":
    set_up(sys.argv[1])
