"""The four workloads: inputs made from the seed, one round of calls, the checks.

Each workload object is built once per run from the seed and the run's
:class:`Ops` caller.  Building it makes the inputs and the reference values
(from ``oracle`` and ``reference``, never from permlab) and runs the small-n
checks that need no timing, through the same caller, so that a program call
that raises there is counted like one in a round.  ``round``
makes the workload's fixed set of program calls one after another through
an :class:`Ops` caller; ``check`` returns a list of problems with a round's
results, empty when every output is right.  Program functions are looked
up on their modules at call time, so a tracer's wrappers take effect.

The seed only orders the work (and, for ``bijection``, the order in which
the avoiders are mapped), so every seed does the same amount of work.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import numpy as np

import oracle
import reference


class Ops:
    """Closed-loop caller: each call starts after the previous one returned.

    ``phase`` times a block of calls.  Around each phase it also times a
    fixed pure-Python loop (see ``calibrate``), so that a phase's time can
    be read relative to how fast the machine ran the interpreter just then.
    ``times`` and ``loops`` hold the current round's figures per phase.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # the first few failures, for the report
        self.times: dict[str, float] = {}
        self.loops: dict[str, list[float]] = {}

    @contextmanager
    def phase(self, name: str):
        before = calibrate()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - t0
            self.loops[name] = before + calibrate()

    def __call__(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{getattr(fn, '__name__', fn)}{args[:1]}: {exc!r}")
            return None


def calibrate(repeats: int = 5) -> list[float]:
    """Seconds taken by each of `repeats` runs of a fixed loop.

    The loop reads, compares and writes numpy scalars from Python, as the
    pure-Python kernels do.  On the shared host the benchmark was defined
    on, the program's phase times divided by this loop's time spread about
    half as much as when divided by a plain integer loop's: contention from
    other tenants slows this kind of work more than it slows integer
    arithmetic.
    """
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a = np.zeros(16, np.int64)
        u = np.zeros(16, np.uint8)
        for i in range(4000):
            v = a[i & 15]
            if v < a[(i * 7) & 15] or u[i & 15] == 1:
                a[(i + 1) & 15] = v + 1
            else:
                a[(i + 3) & 15] = v - 1
        out.append(time.perf_counter() - t0)
    return out


def _key(pair) -> tuple:
    return tuple(sorted(tuple(p) for p in pair))


def _first_difference(got, want) -> str:
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"entry {k}: {a} != {b}"
    return f"length {len(got)} != {len(want)}"


class Catalog:
    """First-letter censuses of six catalog pairs at the reference size n = 8."""

    N = reference.TABLE2_N
    SMALL_N = 6

    def __init__(self, pl: dict, seed: int, ops: Ops):
        rng = random.Random(seed)
        self.pl = pl
        couples = [tuple(reference.pair_of(text) for text, _ in c)
                   for c in reference.TABLE2_COUPLES]
        rng.shuffle(couples)
        self.couples = [c if rng.random() < 0.5 else c[::-1] for c in couples]
        self.problems = [f"{b} is not the complement of {a}" for a, b in self.couples
                         if _key(oracle.complement(a)) != _key(b)]
        by_pair = {_key(e.pair): e for e in pl["catalog"].CATALOG}
        self.entries = [by_pair[_key(p)] for c in self.couples for p in c]
        schroeder = oracle.schroeder_numbers(self.N)
        self.want: dict[tuple, tuple[int, ...]] = {}
        self.size: dict[tuple, int] = {}
        for entry in self.entries:
            row = reference.TABLE2[_key(entry.pair)]
            self.want[_key(entry.pair)] = row
            if tuple(entry.counts) != row:
                self.problems.append(f"catalog row {entry.label} differs from Table 2")
            if sum(row) == schroeder[-1]:
                self.size[_key(entry.pair)] = schroeder[-1]
            else:
                own = oracle.first_letter_census(oracle.avoiders(self.N, entry.pair), self.N)
                if tuple(own) != row:
                    self.problems.append(f"Table 2 row {entry.label} differs from the oracle")
                self.size[_key(entry.pair)] = sum(own)
        perms = pl["perms"]
        for entry in self.entries:
            for n in range(1, self.SMALL_N + 1):
                got = ops(perms.first_letter_distribution, n, entry.pair)
                if got is not None and got != oracle.census_bruteforce(n, entry.pair):
                    self.problems.append(f"{entry.label} at n={n} differs from brute force")

    def round(self, ops: Ops) -> dict:
        catalog, results = self.pl["catalog"], {}
        for e in self.entries:
            with ops.phase(e.label):
                results[_key(e.pair)] = ops(catalog.recompute_entry, e)
        return results

    def check(self, results: dict) -> list[str]:
        problems = []
        for key, got in results.items():
            if got is None:
                continue
            if tuple(got) != self.want[key]:
                problems.append(f"census of {key} at n={self.N}: "
                                f"{_first_difference(got, self.want[key])}")
            if sum(got) != self.size[key]:
                problems.append(f"census of {key} totals {sum(got)}, not {self.size[key]}")
        for a, b in self.couples:
            got_a, got_b = results.get(_key(a)), results.get(_key(b))
            if got_a is not None and got_b is not None and list(got_b) != list(got_a)[::-1]:
                problems.append(f"censuses of {a} and its complement {b} are not mirrors")
        return problems

    def walk_size(self, n: int, pair) -> int | None:
        return self.size.get(_key(pair)) if n == self.N and pair else None


class Sites:
    """Active-site censuses of the nine triangle pairs at n = 6."""

    N = 6

    def __init__(self, pl: dict, seed: int, ops: Ops):
        rng = random.Random(seed)
        self.pl = pl
        self.pairs = list(reference.TRIANGLE_PAIRS)
        rng.shuffle(self.pairs)
        self.site_pairs = list(pl["recurrences"].SITE_PAIRS)
        self.problems = [f"site pair {p} is not a triangle pair" for p in self.site_pairs
                         if _key(p) not in {_key(q) for q in self.pairs}]
        self.schroeder = oracle.schroeder_numbers(self.N + 1)
        self.row = oracle.triangle_rows(self.N)[-1]

    def round(self, ops: Ops) -> dict:
        perms, recurrences = self.pl["perms"], self.pl["recurrences"]
        census = {}
        for p in self.pairs:
            with ops.phase(f"active_site_census {p}"):
                census[_key(p)] = ops(perms.active_site_census, self.N, p)
        with ops.phase("site_table"):
            tables = {_key(p): ops(recurrences.site_table, self.N, p) for p in self.site_pairs}
        return {"census": census, "tables": tables}

    def check(self, results: dict) -> list[str]:
        n, problems = self.N, []
        for key, u in results["census"].items():
            if u is None:
                continue
            if tuple(u.shape) != (n + 1, n + 2):
                problems.append(f"site census of {key} has shape {u.shape}")
                continue
            u = [[int(v) for v in row] for row in u]
            # every avoider of size n+1 has exactly one parent in the tree
            children = sum(j * u[i][j] for i in range(n + 1) for j in range(n + 2))
            if children != self.schroeder[n]:
                problems.append(f"site census of {key}: {children} children, "
                                f"not S_{n + 1} = {self.schroeder[n]}")
            marginal = [sum(u[i]) for i in range(1, n + 1)]
            if any(u[0]) or marginal != self.row:
                problems.append(f"site census of {key}: first letters "
                                f"{_first_difference(marginal, self.row)}")
        for key, table in results["tables"].items():
            u = results["census"].get(key)
            if table is None or u is None:
                continue
            for i in range(1, n + 1):
                for j in range(n + 2):
                    if table[i][j] != int(u[i][j]):
                        problems.append(f"site_table of {key} at ({i}, {j}): "
                                        f"{table[i][j]} != census {int(u[i][j])}")
        return problems

    def walk_size(self, n: int, pair) -> int | None:
        return self.schroeder[n - 1] if n == self.N and pair else None


class Bijection:
    """Both classes of the bijection at n = 8, then forward and inverse on each."""

    N = 8
    #: Maps per timed phase: short phases sit close to their calibration loops.
    CHUNK = 1000

    def __init__(self, pl: dict, seed: int, ops: Ops):
        self.pl = pl
        bijection = pl["bijection"]
        self.source, self.target = bijection.SOURCE_PAIR, bijection.TARGET_PAIR
        self.problems = []
        if (_key(self.source), _key(self.target)) != (
                _key(reference.BIJECTION_SOURCE), _key(reference.BIJECTION_TARGET)):
            self.problems.append("the bijection maps between other classes than the paper's")
        self.own_source = oracle.avoiders(self.N, self.source)
        self.own_target = oracle.avoiders(self.N, self.target)
        self.target_set = set(self.own_target)
        self.size = oracle.schroeder_numbers(self.N)[-1]
        if not len(self.own_source) == len(self.own_target) == self.size:
            self.problems.append(f"the classes do not have S_{self.N} = {self.size} members")
        self.order = list(self.own_source)
        random.Random(seed).shuffle(self.order)

    def round(self, ops: Ops) -> dict:
        perms, bijection = self.pl["perms"], self.pl["bijection"]
        with ops.phase("enumerate source"):
            source = ops(perms.enumerate_avoiders, self.N, self.source)
        with ops.phase("enumerate target"):
            target = ops(perms.enumerate_avoiders, self.N, self.target)
        images, back = [], []
        for k in range(0, len(self.order), self.CHUNK):
            with ops.phase(f"forward {k}"):
                images += [ops(bijection.forward, p) for p in self.order[k:k + self.CHUNK]]
        for k in range(0, len(images), self.CHUNK):
            with ops.phase(f"inverse {k}"):
                back += [None if q is None else ops(bijection.inverse, q)
                         for q in images[k:k + self.CHUNK]]
        return {"source": source, "target": target, "images": images, "back": back}

    def check(self, results: dict) -> list[str]:
        problems = []
        for name, own in (("source", self.own_source), ("target", self.own_target)):
            got = results[name]
            if got is not None and got != own:
                problems.append(f"enumerated {name} class: {_first_difference(got, own)}")
        images = results["images"]
        outside = [q for q in images if q is not None and q not in self.target_set]
        if outside:
            problems.append(f"{len(outside)} images outside the target class, e.g. {outside[0]}")
        if None not in images and set(images) != self.target_set:
            problems.append(f"forward is not onto: {len(set(images))} distinct images "
                            f"of {self.size}")
        for p, q, r in zip(self.order, images, results["back"]):
            if q is None:
                continue
            if oracle.left_right_minima(p) != oracle.left_right_minima(q):
                problems.append(f"forward{p} = {q} moves a left-to-right minimum")
                break
            if r is not None and r != p:
                problems.append(f"inverse(forward{p}) = {r}")
                break
        return problems

    def walk_size(self, n: int, pair) -> int | None:
        return self.size if n == self.N and pair else None


class Algebra:
    """All four systems at depth 14, every closed form to order 20, I_9(021)."""

    DEPTH = 14
    ORDER = 20
    INV_N = 9

    def __init__(self, pl: dict, seed: int, ops: Ops):
        self.pl = pl
        self.names = list(ops(pl["closedforms"].closed_form_names) or ())
        random.Random(seed).shuffle(self.names)
        checked = ("triangle_gf", "schroeder_gf", "schroeder_tail_gf",
                   *reference.FIRST_LETTER_FORMS)
        self.problems = [f"no closed form {name}" for name in checked if name not in self.names]
        self.schroeder = oracle.schroeder_numbers(self.ORDER)
        self.rows = oracle.triangle_rows(self.ORDER)

    def round(self, ops: Ops) -> dict:
        pl = self.pl
        with ops.phase("verify_all"):
            checks = ops(pl["systems"].verify_all, self.DEPTH)
        with ops.phase("expand"):
            expanded = {name: ops(pl["closedforms"].expand, name, self.ORDER)
                        for name in self.names}
        with ops.phase("joint_tables"):
            joint = {name: ops(pl["recurrences"].joint_tables, self.ORDER, pair)
                     for name, pair in reference.FIRST_LETTER_FORMS.items()}
        with ops.phase("inversion"):
            inversion = ops(pl["schroeder"].inversion_seq_distribution, self.INV_N)
        return {"checks": checks, "expanded": expanded, "joint": joint, "inversion": inversion}

    def _coefficients(self, problems, name, series, want) -> None:
        """Compare x^n of `series` with want(n), a dict {(da, db): coeff}."""
        if series is None:
            return
        for n in range(self.ORDER + 1):
            got = dict(series.coefficient(n).iter_terms())
            if got != want(n):
                problems.append(f"{name} at x^{n}: {got} != {want(n)}")
                return

    def check(self, results: dict) -> list[str]:
        problems = []
        checks = results["checks"]
        if checks is not None:
            if sorted(checks) != sorted(reference.SYSTEMS):
                problems.append(f"verify_all ran systems {sorted(checks)}")
            for system, items in checks.items():
                if not items:
                    problems.append(f"system {system} ran no checks")
                problems += [f"system {system}: {c}" for c in items if not c.ok]
        rows, schroeder, expanded = self.rows, self.schroeder, results["expanded"]

        def row_terms(n):
            return {(k, 0): v for k, v in enumerate(rows[n - 1], start=1)} if n else {}

        self._coefficients(problems, "triangle_gf", expanded.get("triangle_gf"), row_terms)
        self._coefficients(problems, "schroeder_gf", expanded.get("schroeder_gf"),
                           lambda n: {(0, 0): schroeder[n - 1]} if n else {})
        self._coefficients(problems, "schroeder_tail_gf", expanded.get("schroeder_tail_gf"),
                           lambda n: {(0, 0): schroeder[n - 1]} if n >= 2 else {})
        for name in reference.FIRST_LETTER_FORMS:
            self._coefficients(problems, name, expanded.get(name), row_terms)
            tables = results["joint"][name]
            if tables is None:
                continue
            if [t.n for t in tables] != list(range(2, self.ORDER + 1)):
                problems.append(f"joint tables for {name} cover n = {[t.n for t in tables]}")
            for table in tables:
                marginal, want = table.first_letter(), rows[table.n - 1]
                if marginal != want:
                    problems.append(f"joint table for {name} at n={table.n}: first "
                                    f"letters {_first_difference(marginal, want)}")
                    break
        if results["inversion"] is not None and results["inversion"] != rows[self.INV_N - 1]:
            problems.append(f"I_{self.INV_N}(021) by last letter: "
                            f"{_first_difference(results['inversion'], rows[self.INV_N - 1])}")
        return problems

    def walk_size(self, n: int, pair) -> int | None:
        return self.schroeder[n - 1] if n == self.INV_N and pair is None else None


WORKLOADS = {"catalog": Catalog, "sites": Sites, "bijection": Bijection, "algebra": Algebra}
