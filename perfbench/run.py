"""permlab benchmark: one workload in one single-threaded process, checked.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
After a cold set-up timed in a fresh interpreter (``setup_s``), the run
repeats the workload's round, a fixed set of program calls made one after
another, until the next round would end past ``--seconds``.  Every round's
outputs are checked against ``oracle`` and ``reference``.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics of ``BENCHMARK.json``: the round time at a reference
interpreter speed (see ``_round_seconds``), the median cold set-up time and
the peak resident memory.  With ``--trace 1`` the rounds alternate untraced and
traced, and the result carries the per-layer metrics (medians over the
traced rounds) and the tracing overhead.  A full report and, when traced,
every span go to ``perfbench/results/``.  A run is correct when no program
call raised and every check passed.  The exit code is 0 when it is correct,
1 when it is not and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process, set before numpy is imported here or in a child.
# numpy's BLAS would start a thread per CPU at import: idle in this work, but
# it made a cold set-up spread three times as much from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_RUNS = 5


def _cold_setup_seconds(workload: str) -> float:
    """Median wall time of fresh interpreters that only import and set up.

    Each interpreter is a new process, so each set-up is a cold one; the
    median of several damps the noise of a single 0.2-0.4 s process.
    """
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "lazy_setup.py"), workload], cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up failed:\n{proc.stderr}")
    return statistics.median(times)


def permlab_modules() -> dict:
    """Every loaded permlab module by short name; the package is 'permlab'."""
    prefix = "permlab."
    mods = {name[len(prefix):]: mod for name, mod in sys.modules.items()
            if name.startswith(prefix)}
    mods["permlab"] = sys.modules["permlab"]
    return mods


def _round_caches(mods: dict) -> list:
    """Caches of permlab that a fresh CLI run starts without.

    The closed-form registry is set-up and stays filled; every other cache
    is emptied before each round, so each round costs what one run would.
    """
    keep = getattr(mods.get("closedforms"), "build_closed_form", None)
    caches = {}
    for mod in mods.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and obj is not keep:
                caches[id(obj)] = obj
    return list(caches.values())


#: Time of one ``workloads.calibrate`` loop at the reference speed: close to
#: its median on an undisturbed run of the machine the benchmark was defined
#: on (2 vCPU Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6), so that ``wall_s``
#: reads near the wall time of an undisturbed round there.
REFERENCE_LOOP_S = 0.0016


def _round_seconds(rounds: list) -> float:
    """A round's time at the reference interpreter speed, in seconds.

    On a shared machine the host slows this process by up to 2x for
    stretches of seconds to minutes, which no choice of run length averages
    out.  So each phase's time is divided by the median of the calibration
    loops timed around it and scaled by ``REFERENCE_LOOP_S``; the round's
    figure sums, over its phases, the median of that over the run's rounds.
    """
    return REFERENCE_LOOP_S * sum(
        statistics.median(times[name] / statistics.median(loops[name])
                          for times, loops in rounds)
        for name in rounds[0][0]
    )


def _declared(spec: dict, key: str, metrics: dict) -> dict:
    """The metrics in the form printed, checked against BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in spec[key]}
    if set(units) != set(metrics):
        raise RuntimeError(f"{key} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permlab" / "__init__.py").is_file():
        print(f"permlab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import lazy_setup
    import tracer as tracing
    import workloads

    sys.path.insert(0, str(SRC))
    for name in lazy_setup.MODULES[args.workload]:
        __import__(f"permlab.{name}")
    import permlab
    if Path(permlab.__file__).resolve().parent != SRC / "permlab":
        print(f"permlab imported from {permlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from permlab import kernels

    setup_s = _cold_setup_seconds(args.workload)
    tracer = tracing.Tracer(permlab_modules()) if args.trace else None
    with tracer.traced("setup") if tracer else contextlib.nullcontext():
        lazy_setup.set_up(args.workload)
    mods = permlab_modules()
    caches = _round_caches(mods)
    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](mods, args.seed, ops)
    problems = list(workload.problems)

    rounds: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        for cache in caches:
            cache.cache_clear()
        traced = tracer is not None and len(rounds[False]) > len(rounds[True])
        ops.times, ops.loops = {}, {}
        t0 = time.perf_counter()
        with tracer.traced(f"round{len(rounds[False]) + len(rounds[True])}") if traced \
                else contextlib.nullcontext():
            results = workload.round(ops)
        rounds[traced].append((ops.times, ops.loops))
        problems += workload.check(results)
        results = None  # so the next round's peak memory holds one round's outputs
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds and (tracer is None or rounds[True]):
            break

    if tracer is None:
        metrics = _declared(spec, "end_to_end", {
            "wall_s": _round_seconds(rounds[False]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    else:
        segments = [seg for seg in tracer.segments if seg.tag != "setup"]
        for seg in segments:
            for idx, n, pair, leaves in seg.walks:
                size = workload.walk_size(n, pair)
                if size != leaves:
                    problems.append(f"{tracer.spans[idx][0]}(n={n}, {pair}) reached "
                                    f"{leaves} leaves, the oracle counts {size}")
        per_round = [tracer.summarize(seg) for seg in segments]
        layer = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        setup_seg = tracer.segments[0]
        layer["closedforms.build.s"] = tracer.summarize(setup_seg)["closedforms.build.s"]
        layer["trace.overhead_ratio"] = (_round_seconds(rounds[True])
                                         / _round_seconds(rounds[False]) - 1)
        metrics = _declared(spec, "per_layer", layer)

    backend = "numba" if kernels.NUMBA_ENABLED else "pure python"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": backend, "numba_enabled": kernels.NUMBA_ENABLED,
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "cpus": os.cpu_count(), "rounds": rounds[False], "traced_rounds": rounds[True],
        "setup_s": setup_s, "raw_round_s": [sum(t.values()) for t, _ in rounds[False]],
        "errors": ops.errors[:20], "problems": problems[:20],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write_csv(RESULTS / f"{stem}-spans.csv.gz")

    print(f"backend: {backend} (kernels.NUMBA_ENABLED={kernels.NUMBA_ENABLED}); "
          f"{len(rounds[False])} rounds, {len(rounds[True])} traced")
    for line in ops.errors[:5] + problems[:5]:
        print(f"problem: {line}", file=sys.stderr)
    correct = not problems and not ops.failed
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
