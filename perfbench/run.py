#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide-shared --seed 1 --seconds 55 --trace 0

Load is a closed loop with one client: one process, one BLAS thread, the
next op issued when the previous one and its output check are done.  An
op's inputs are generated and its outputs checked outside its timer.

``--trace 0`` prints the end-to-end metrics, both as raw wall times and
relative to a fixed reference block timed between ops (see
``reference_block``); ``--trace 1`` runs half the
time with every layer traced (see ``layertrace.py``), then half untraced,
and prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object.  Run from the repository
root, which must hold ``src/l0limits`` and ``fixtures``.
"""

import os

# Before numpy loads: one BLAS/LAPACK thread for the whole closed loop.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fewest ops in a timed run: ten of them lie beyond the 90th percentile.
MIN_OPS = 100
#: A loop stops this long after its ``seconds`` even short of its op count.
OVERRUN_S = 30.0
#: Set-ups measured per run (this process plus fresh child processes).
SETUP_REPEATS = 5
#: Of those, the ones measured before the timed loop; the rest run after
#: it, so that their median samples the host at both ends of the run.
SETUPS_BEFORE = 3
#: Index of the untimed warm-up op; timed ops start at 0.
WARMUP_INDEX = 1 << 30
#: First op index of the untraced half of a traced run, so that its
#: inputs never repeat those of the traced half.
UNTRACED_OFFSET = 1 << 20

#: The metrics of the result line, which ``BENCHMARK.json`` gates.
END_TO_END = (
    ("op_p50_rel", "ref"),
    ("op_p90_rel", "ref"),
    ("ops_per_kref", "1/kref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Printed with their sample counts, not gated: raw wall times swing with
#: the host's speed (see README.md).
RAW = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ref_block_ms", "ms"),
    ("setup_wall_s", "s"),
)

#: Units of work in a reference block, and in a reference slice (run at
#: each pause an op makes between its steps).
REF_UNITS = 60
SLICE_UNITS = 6
#: ``setup_s`` is set-up time rescaled to a host on which one reference
#: block takes this long (about this machine's fast phases).
REF_NOMINAL_NS = 6_000_000
#: Fixed inputs of the reference work, independent of the seed.
_REF_INTS = list(range(200_000))


def _library_present() -> bool:
    return (SRC / "l0limits" / "__init__.py").is_file() and (ROOT / "fixtures").is_dir()


def setup(name: str, seed: int):
    """Import the library, build the inputs, run and check one warm-up op.

    Returns the workload and the seconds this took, followed by the time
    of a reference block run right after it (the second of two, so that
    first-call costs stay out of it)."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    x = workload.prepare(WARMUP_INDEX)
    workload.check(x, workload.run(x))
    seconds = time.perf_counter() - start
    reference_block()
    return workload, (seconds, reference_block())


def reference_block(units: int = REF_UNITS) -> int:
    """Run ``units`` units of fixed work that never calls the library and
    return their wall time in ns.

    A unit mixes what the library's ops are made of (a small dense solve
    and spectral norm, a tuple lookup, a slice of a large list, a small
    dict), so a slower host phase slows it about as much as it slows an
    op.  The garbage collector is held off so that it cannot collect the
    ops' garbage inside the block."""
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    rng = np.random.default_rng(0)
    shift = 4.0 * np.eye(4)
    acc = 0.0
    for k in range(units):
        m = rng.standard_normal((4, 4))
        acc += float(np.linalg.norm(np.linalg.solve(m + shift, m), 2))
        acc += tuple(str(j) for j in range(40)).index("39")
        acc += sum(_REF_INTS[k * 1000:k * 1000 + 3000:3])
        acc += sum(v[1] for v in {j: (j, 2 * j) for j in range(100)}.values())
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


def run_ops(workload, first: int, seconds: float, min_ops: int, tracer=None,
            reference: bool = False):
    """Closed loop of ops ``first, first+1, ...``.

    Returns (op ns, reference ns, failed).  With ``reference``, a
    reference block runs before the first op and after every op, and a
    reference slice at every ``pause()`` the op makes between its steps;
    neither counts in the op's time.  An op's reference time is then the
    host's current speed as one block's time: the blocks on either side
    of it and its slices, averaged per unit.  Without ``reference`` that
    list is empty."""
    from workloads import CheckFailed

    times, refs, failed = [], [], 0
    slices = []  # (reference ns, wall ns away from the op) per pause
    before = reference_block() if reference else 0

    def pause():
        start = time.perf_counter_ns()
        ns = reference_block(SLICE_UNITS)
        slices.append((ns, time.perf_counter_ns() - start))

    begin = time.perf_counter()
    i = first
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds + OVERRUN_S or (elapsed >= seconds and len(times) >= min_ops):
            break
        if tracer is not None:
            tracer.op_id = i - first
        x = workload.prepare(i)
        ok = True
        slices.clear()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter_ns()
        try:
            out = workload.run(x, pause) if reference else workload.run(x)
        except Exception as exc:  # a raising op is a failed op, not a crash
            ok = False
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            times.append(time.perf_counter_ns() - start - sum(away for _, away in slices))
            if tracer is not None:
                tracer.active = False
        if ok:
            try:
                workload.check(x, out)
            except CheckFailed as exc:
                ok = False
                print(f"op {i} failed its check: {exc}", file=sys.stderr)
        failed += not ok
        if reference:
            after = reference_block()
            units = 2 * REF_UNITS + SLICE_UNITS * len(slices)
            refs.append(REF_UNITS * (before + after + sum(ns for ns, _ in slices)) / units)
            before = after
        i += 1
    return times, refs, failed


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def child_setup(name: str, seed: int):
    """Set-up seconds and the reference ns after them, measured in a fresh
    interpreter."""
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, ref = done.stdout.split()[-2:]
    return float(seconds), int(ref)


def end_to_end(workload, seconds: float, setups, setups_after) -> dict:
    """Timed loop with reference work; ``setups_after()`` measures the
    set-ups that follow it.  Prints every metric, returns the result."""
    times, refs, failed = run_ops(workload, 0, seconds, MIN_OPS, reference=True)
    setups = setups + setups_after()
    ms = [t / 1e6 for t in times]
    rel = [t / r for t, r in zip(times, refs)]
    attempted = len(times)
    metrics = {
        "op_p50_rel": statistics.median(rel),
        "op_p90_rel": percentile(rel, 90),
        "ops_per_kref": 1000.0 * (attempted - failed) / sum(rel),
        "setup_s": statistics.median(t * REF_NOMINAL_NS / r for t, r in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": percentile(ms, 90),
        "ops_per_s": (attempted - failed) / (sum(times) / 1e9),
        "ref_block_ms": statistics.median(refs) / 1e6,
        "setup_wall_s": statistics.median(t for t, _ in setups),
    }
    counts = dict.fromkeys(metrics, attempted)
    counts.update(setup_s=len(setups), setup_wall_s=len(setups), peak_rss_mb=1,
                  ref_block_ms=len(refs))
    for name, unit in END_TO_END + RAW:
        print(f"{name:12s} {metrics[name]:12.4f} {unit:6s} n={counts[name]}")
    print(f"{'fail_ratio':12s} {failed / attempted:12.4f} {'':6s} n={attempted}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}}


def traced(workload, seconds: float, seed: int) -> dict:
    """Half the time traced (op ids from 0), half untraced; per-layer metrics."""
    import workloads
    from layertrace import Tracer, metric_names

    tracer = Tracer()
    tracer.install(workloads)
    try:
        traced_times, _, traced_failed = run_ops(workload, 0, seconds / 2, workload.calls_window, tracer)
    finally:
        tracer.uninstall()
    plain_times, _, plain_failed = run_ops(workload, UNTRACED_OFFSET, seconds / 2, 5)
    metrics = tracer.metrics(workload.calls_window, len(traced_times))
    metrics["trace_overhead_pct"] = 100.0 * (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    units = {"calls": "count", "self_ms": "ms", "trace_overhead_pct": "%"}
    for name in metric_names():
        print(f"{name:48s} {metrics[name]:14.4f} {units[name.rsplit('.', 1)[-1]]}")
    print(f"traced ops {len(traced_times)}, untraced ops {len(plain_times)}, "
          f"calls counted over the first {workload.calls_window}")
    attempted = len(traced_times) + len(plain_times)
    failed = traced_failed + plain_failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n.rsplit(".", 1)[-1]]}
                        for n in metric_names()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("report", "wide-shared", "wide-distinct", "deep-systems"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _library_present():
        print(f"library sources not found under {ROOT}", file=sys.stderr)
        return 2
    workload, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(*own_setup)
        return 0
    if args.trace:
        result = traced(workload, args.seconds, args.seed)
    else:
        def children(n):
            return [child_setup(args.workload, args.seed) for _ in range(n)]

        result = end_to_end(workload, args.seconds, [own_setup] + children(SETUPS_BEFORE - 1),
                            lambda: children(SETUP_REPEATS - SETUPS_BEFORE))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
