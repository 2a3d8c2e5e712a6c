"""The verification suites: every route to the triangle checked against another.

Each suite maps a scale (an enumeration size or a series order) to a list of
:class:`CheckResult`.  ``permlab verify`` and the acceptance gate run the same
functions.  Only the standard library is imported at the top level, because
``closedforms`` and ``systems`` import :class:`CheckResult` from here; each
suite imports the layers it checks inside its body.  The four suites that
enumerate permutations (``conjecture``, ``recurrences``, ``bijection`` and
``series``) pass their scale to :func:`permlab.perms.check_cap` before their
first census, so a scale above the enumeration cap is refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single verification, with a human-readable detail."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


def all_ok(checks: list[CheckResult]) -> bool:
    """True when at least one check ran and every check passed."""
    return bool(checks) and all(c.ok for c in checks)


def _label(pair) -> str:
    return ",".join("".join(map(str, p)) for p in pair)


def _first_mismatch(name: str, ns, same: Callable[[int], bool]) -> CheckResult:
    for n in ns:
        if not same(n):
            return CheckResult(name, False, f"first mismatch at n={n}")
    return CheckResult(name, True)


def check_conjecture(n_max: int) -> list[CheckResult]:
    """Criterion 3: the nine pairs' first-letter censuses are the triangle rows."""
    from .catalog import TRIANGLE_PAIRS
    from .perms import check_cap, first_letter_distribution
    from .schroeder import triangle_rows

    check_cap(n_max)
    rows = triangle_rows(n_max)
    checks = []
    for pair in TRIANGLE_PAIRS:
        ok = True
        detail = f"n <= {n_max}"
        for n in range(1, n_max + 1):
            got = first_letter_distribution(n, pair)
            if got != rows[n - 1]:
                ok = False
                detail = f"first mismatch at n={n}: {got}"
                break
        checks.append(
            CheckResult(f"census for {_label(pair)} equals the triangle rows", ok, detail)
        )
    return checks


def check_recurrences(n_max: int) -> list[CheckResult]:
    """Criterion 4: the recurrence families equal the enumeration censuses."""
    from . import recurrences
    from .perms import active_site_census, check_cap, first_letter_distribution, first_second_distribution
    from .schroeder import triangle_rows

    def sites_agree(n: int, pair) -> bool:
        return recurrences.site_table(n, pair) == active_site_census(n, pair).tolist()

    check_cap(n_max)
    checks = []
    for pair in recurrences.FIRST_LETTER_PAIRS:
        rows = recurrences.first_letter_rows(n_max, pair)
        checks.append(_first_mismatch(
            f"first-letter recurrence matches brute force for {_label(pair)}",
            range(1, n_max + 1),
            lambda n: rows[n - 1] == first_letter_distribution(n, pair),
        ))
    for pair in recurrences.SITE_PAIRS:
        checks.append(_first_mismatch(
            f"active-site recurrence matches brute force for {_label(pair)}",
            range(1, n_max + 1), lambda n: sites_agree(n, pair),
        ))
    for pair in recurrences.JOINT_PAIRS:
        checks.append(_first_mismatch(
            f"joint-table recurrence matches brute force for {_label(pair)}",
            range(2, n_max + 1),
            lambda n: recurrences.joint_table(n, pair).cells
            == first_second_distribution(n, pair).cells,
        ))
    rows = triangle_rows(n_max)
    checks.append(_first_mismatch(
        "first-letter recurrence reproduces the triangle",
        range(1, n_max + 1), lambda n: rows[n - 1] == recurrences.first_letter_row(n),
    ))
    return checks


def check_bijection(n_max: int) -> list[CheckResult]:
    """Criterion 6: the bijection is onto, minima-preserving and two-sided."""
    from . import bijection
    from .perms import check_cap, enumerate_avoiders, left_right_minima

    check_cap(n_max)
    checks = []
    for n in range(1, n_max + 1):
        source = enumerate_avoiders(n, bijection.SOURCE_PAIR)
        target = set(enumerate_avoiders(n, bijection.TARGET_PAIR))
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
        if ok and (len(images) != len(source) or images != target):
            ok, detail = False, f"not one-to-one and onto at n={n}"
        checks.append(CheckResult(f"bijection exhaustive at n={n}", ok, detail))
    return checks


# stated low-order terms of the joint-letter closed forms: one dict
# {(v-degree, w-degree): count} per order of x
APLUS_TERMS = [
    {(1, 2): 1},
    {(2, 3): 1, (1, 3): 1, (1, 2): 1},
    {(3, 4): 2, (2, 4): 2, (2, 3): 2, (1, 4): 2, (1, 3): 1, (1, 2): 1},
]
AMINUS_TERMS = [
    {(2, 1): 1},
    {(3, 2): 1, (3, 1): 1, (2, 1): 1},
    {(4, 3): 2, (4, 2): 2, (4, 1): 2, (3, 2): 2, (3, 1): 2, (2, 1): 2},
]
B_1342_TERMS = [
    {(1, 4): 2},
    {(2, 5): 8, (1, 5): 4, (1, 4): 2},
    {(3, 6): 34, (2, 6): 20, (2, 5): 10, (1, 6): 8, (1, 5): 4, (1, 4): 2},
]
B_1324_TERMS = [
    {(1, 3): 1},
    {(2, 4): 3, (1, 4): 2, (1, 3): 1},
    {(3, 5): 11, (2, 5): 8, (2, 4): 4, (1, 5): 4, (1, 4): 2, (1, 3): 1},
]
C_TERMS = [
    {(1, 0): 1},
    {(2, 0): 2, (1, 0): 1},
    {(3, 0): 6, (2, 0): 3, (1, 0): 1},
    {(4, 0): 22, (3, 0): 11, (2, 0): 4, (1, 0): 1},
]

#: closed form -> (lowest order listed, the stated terms from that order on)
STATED_TERMS = {
    **{f"{stem}_{tag}": (low, terms)
       for tag in ("1243_1342", "1243_1324")
       for stem, low, terms in (("aplus", 2, APLUS_TERMS), ("aminus", 2, AMINUS_TERMS),
                                ("c", 3, C_TERMS))},
    "b_1243_1342": (5, B_1342_TERMS),
    "b_1243_1324": (4, B_1324_TERMS),
}


def check_series(depth: int) -> list[CheckResult]:
    """Criterion 7: closed forms against the tables (order 12), brute-force
    counts through x^depth and their stated low-order terms."""
    from .closedforms import expand, verify_cleared
    from .perms import check_cap, first_letter_distribution, parse_pair
    from .schroeder import schroeder_numbers, triangle_rows
    from .series import PolyAux, XSeries

    check_cap(depth)
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
            counts = first_letter_distribution(n, pair)
            coeffs.append(PolyAux({(i + 1, 0): c for i, c in enumerate(counts) if c}))
        brute_gf = XSeries(coeffs, depth, guard=2 * depth + 4)
        checks.append(
            verify_cleared(
                brute_gf, f"first_letter_{tag}", guard=2 * depth + 4,
                name=f"first-letter closed form for {tag.replace('_', '/')} matches brute force",
            )
        )
    for name, (low, stated) in STATED_TERMS.items():
        order = low + len(stated) - 1
        series = expand(name, order, guard=2 * order + 4)
        checks.append(_first_mismatch(
            f"{name} expands to its stated low-order terms", range(low, order + 1),
            lambda n: dict(series.coefficient(n).iter_terms()) == stated[n - low],
        ))
    return checks


def check_systems(depth: int) -> list[CheckResult]:
    """Criterion 8: every functional-equation residual vanishes through x^depth."""
    from .systems import verify_all

    return [
        CheckResult(f"{name}: {result.name}", result.ok, result.detail)
        for name, results in verify_all(depth=depth).items()
        for result in results
    ]


def check_inversion(n_max: int) -> list[CheckResult]:
    """Criterion 10: the inversion-sequence census is the triangle row."""
    from .schroeder import inversion_seq_distribution, triangle_rows

    rows = triangle_rows(n_max)
    return [
        CheckResult(
            f"inversion-sequence census equals triangle row at n={n}",
            inversion_seq_distribution(n) == rows[n - 1],
        )
        for n in range(1, n_max + 1)
    ]


class Suite(NamedTuple):
    run: Callable[[int], list[CheckResult]]
    default_scale: int


SUITES = {
    "conjecture": Suite(check_conjecture, 9),
    "recurrences": Suite(check_recurrences, 9),
    "bijection": Suite(check_bijection, 8),
    "series": Suite(check_series, 9),
    "systems": Suite(check_systems, 8),
    "inversion": Suite(check_inversion, 9),
}
