"""Run one workload of the orthoforms benchmark and print its metrics.

    python3 benchmark/run.py --workload series --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
tree.  One process, one thread, one client in a closed loop: each
operation starts when the previous one has ended.  With ``--trace 0`` the
run measures for about ``--seconds`` (whole passes of the workload) and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed list of
operations untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  End-to-end times are scaled to a reference machine
speed by calibration units timed throughout the run (see speed.py); the
raw times are printed beside them.  Every operation's output is checked.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
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
import traceback
from pathlib import Path

from speed import LOCAL_UNITS, Speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_UNITS = 10
PROBE_ITERATIONS = 1_000_000
P90_MIN_SAMPLES = 100
MAX_REPORTED_FAILURES = 5

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "cpu_s_per_op": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.setup({name!r})
print(repr(time.perf_counter() - start))
"""


def import_library():
    """Put the checkout's sources first on the path and import them; refuse
    to measure an orthoforms found anywhere else."""
    if not (SRC / "orthoforms" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no orthoforms sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import orthoforms
    if Path(orthoforms.__file__).resolve().parent != SRC / "orthoforms":
        raise SystemExit(f"benchmark: imported {orthoforms.__file__}, "
                         f"not the sources under {SRC}")


def probe_loop() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed diagnostic,
    by which no metric is scaled."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def measure_setup(name: str, repeats: int) -> tuple[list[float], Speed]:
    """Fresh-process import plus workload set-up, in seconds, per repeat,
    and the calibration units run before and after each fresh process."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name)
    times, speed = [], Speed()
    for _ in range(repeats):
        speed.sample(SETUP_UNITS)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    speed.sample(SETUP_UNITS)
    return times, speed


# ---------------------------------------------------------------------------
# executing and checking operations


def _no_count(fn, suffix):
    return fn


class Ledger:
    """Per-operation timings and check outcomes of one run."""

    def __init__(self, references: dict, need_reference: bool):
        self.references = references
        self.need_reference = need_reference
        self.start: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.labels: list[str] = []
        self.failures: list[str] = []
        self.pass_ends: list[int] = []
        # calibration units sampled while operations run (timed runs)
        self.speed: Speed | None = None

    def end_pass(self) -> None:
        self.pass_ends.append(len(self.wall))

    def per_pass(self, wall: list[float],
                 cpu: list[float]) -> list[tuple[int, float, float]]:
        """(operations, wall seconds, CPU seconds) of each pass, from the
        given per-operation times."""
        out, begin = [], 0
        for end in self.pass_ends:
            out.append((end - begin, sum(wall[begin:end]),
                        sum(cpu[begin:end])))
            begin = end
        return out

    def execute(self, op, tracer=None) -> None:
        """Time one operation, inside a root span when traced, then check
        its output outside the timing and the span."""
        error = None
        count = tracer.counted if tracer else _no_count
        with tracer.root("op") if tracer else contextlib.nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            spent0 = (self.speed.spent, self.speed.cpu_spent) \
                if self.speed else (0.0, 0.0)
            try:
                raw = op.run(count)
            except Exception as exc:  # a raising operation is a failure
                raw = None
                error = "".join(traceback.format_exception_only(exc)).strip()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if self.speed:
                # calibration units that interrupted the operation
                wall -= self.speed.spent - spent0[0]
                cpu -= self.speed.cpu_spent - spent0[1]
        self.start.append(wall0)
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.labels.append(op.label)
        errors = [error] if error else self.check(op, raw)
        if errors:
            self.failures.append(f"{op.label} [{op.key}]: {'; '.join(errors)}")

    def check(self, op, raw) -> list[str]:
        from workloads import compare
        errors = op.oracle(raw)
        frozen = self.references.get(op.key)
        if frozen is not None:
            errors += compare(op.observe(raw), frozen["output"], op.tol)
        elif self.need_reference:
            errors.append("no frozen output for these inputs")
        return errors


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _scaled(times: list[float], factors: list[float] | None) -> list[float]:
    return times if factors is None else [
        t * f for t, f in zip(times, factors)]


def end_to_end(ledger: Ledger, setup_times: list[float],
               op_factors: list[float] | None = None,
               setup_factor: float = 1.0) -> dict:
    """Throughput and CPU cost per operation are the worse quartile over
    the run's passes: the level sustained in three passes out of four.
    Each operation's times are multiplied by its speed factor, and the
    set-up times by the factor of the set-up's units (see speed.py);
    without factors the values are the raw ones."""
    count = len(ledger.wall)
    wall = _scaled(ledger.wall, op_factors)
    passes = ledger.per_pass(wall, _scaled(ledger.cpu, op_factors))
    rate_low, _ = _quartiles([n / w for n, w, _ in passes])
    _, cpu_high = _quartiles([cpu / n for n, _, cpu in passes])
    return {
        "ops_per_s": (rate_low, count),
        "op_p50_s": (statistics.median(wall), count),
        "cpu_s_per_op": (cpu_high, count),
        "setup_s": (statistics.median(setup_times) * setup_factor,
                    len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }


def print_end_to_end(ledger: Ledger, values: dict, raw: dict,
                     op_factors: list[float]) -> None:
    for name, (value, samples) in values.items():
        print(f"metric {name} {value:.6g} {END_TO_END_UNITS[name]} "
              f"(n={samples}; raw {raw[name][0]:.6g})")
    print(f"passes {len(ledger.pass_ends)}")
    count = len(ledger.wall)
    if count >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(_scaled(ledger.wall, op_factors),
                                   n=10)[-1]
        raw_p90 = statistics.quantiles(ledger.wall, n=10)[-1]
        print(f"metric op_p90_s {p90:.6g} s (n={count}; raw {raw_p90:.6g})")
    else:
        print(f"metric op_p90_s not reported: {count} operations, "
              f"fewer than {P90_MIN_SAMPLES}")
    print(f"metric fail_frac {len(ledger.failures) / count:.6g} 1 "
          f"({len(ledger.failures)} of {count})")
    by_label: dict[str, list[float]] = {}
    for label, wall in zip(ledger.labels, ledger.wall):
        by_label.setdefault(label, []).append(wall)
    if len(by_label) <= 32:
        for label, walls in sorted(by_label.items()):
            print(f"op {label}: median {statistics.median(walls):.6g} s "
                  f"(n={len(walls)})")


def report_failures(ledger: Ledger) -> None:
    for line in ledger.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(ledger.failures) > MAX_REPORTED_FAILURES:
        print(f"... and {len(ledger.failures) - MAX_REPORTED_FAILURES} more",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# the two kinds of run


def warm_up(workload, references: dict) -> None:
    """Run one operation, unrecorded, so lazily built state (cached
    properties, numpy tables) is in place before timing."""
    Ledger(references, False).execute(workload.smoke_ops(1)[0])


def timed_run(workload, ledger: Ledger, seconds: float,
              limit: int | None) -> Speed:
    """Run the operations, with calibration units sampled throughout the
    run and around its ends."""
    speed = Speed()
    speed.sample(LOCAL_UNITS // 2)
    ledger.speed = speed
    with speed:
        if limit is not None:
            for op in workload.smoke_ops(limit):
                ledger.execute(op)
            ledger.end_pass()
        else:
            start = time.perf_counter()
            for done, ops in enumerate(workload.passes(), 1):
                for op in ops:
                    ledger.execute(op)
                ledger.end_pass()
                elapsed = time.perf_counter() - start
                # stop at the pass boundary nearest to the requested length
                if elapsed + 0.5 * elapsed / done >= seconds:
                    break
    ledger.speed = None
    speed.sample(LOCAL_UNITS // 2)
    return speed


def traced_run(name: str, seed: int, ledger: Ledger,
               limit: int | None) -> dict:
    import layers
    import workloads
    from tracer import Tracer

    setup_tracer = Tracer()
    layers.install(setup_tracer)
    try:
        with setup_tracer.root("setup"):
            ctx = workloads.setup(name)
    finally:
        setup_tracer.restore()
    workload = workloads.Workload(name, seed, ctx)
    warm_up(workload, ledger.references)
    if limit is not None:
        ops = workload.smoke_ops(limit)
    else:
        passes = workload.passes()
        ops = [op for _ in range(workloads.TRACE_PASSES[name])
               for op in next(passes)]

    # each operation runs untraced and traced back to back, in alternating
    # order, so machine-speed drift falls on both sides of the overhead
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                layers.install(tracer)
                try:
                    ledger.execute(op, tracer)
                finally:
                    tracer.restore()
            else:
                ledger.execute(op)
            walls[traced] += ledger.wall[-1]
    untraced_wall, traced_wall = walls[False], walls[True]

    summary = tracer.summary()
    metrics = layers.metrics(summary, tracer.counters, setup_tracer.summary(),
                             len(ops), untraced_wall, traced_wall)
    layers.print_table(summary)
    OUT_DIR.mkdir(exist_ok=True)
    import numpy as np
    np.savez_compressed(OUT_DIR / f"spans-{name}.npz",
                        names=np.array(tracer.names), **tracer.arrays())
    with open(OUT_DIR / f"layers-{name}-seed{seed}.json", "w") as fh:
        json.dump({"summary": summary, "counters": dict(tracer.counters),
                   "metrics": metrics}, fh, indent=1, sort_keys=True)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first LIMIT operations, in "
                             "canonical order (smoke test)")
    parser.add_argument("--reference", type=Path, default=None,
                        help="frozen outputs to check against (default: "
                             "reference/<workload>.json)")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"probe_before_s {probe_loop():.6g} "
          f"({PROBE_ITERATIONS} loop iterations; diagnostic only)")

    references = workloads.load_reference(
        args.reference or workloads.reference_path(args.workload))
    ledger = Ledger(references, need_reference=args.workload != "pointwise")
    if args.trace:
        metrics = traced_run(args.workload, seed, ledger, args.limit)
    else:
        repeats = 1 if args.limit is not None else SETUP_REPEATS
        setup_times, setup_speed = measure_setup(args.workload, repeats)
        workload = workloads.Workload(args.workload, seed)
        warm_up(workload, references)
        speed = timed_run(workload, ledger, args.seconds, args.limit)
        op_factors = speed.factors(ledger.start, ledger.wall)
        setup_factor = setup_speed.factor()
        values = end_to_end(ledger, setup_times, op_factors, setup_factor)
        print_end_to_end(ledger, values, end_to_end(ledger, setup_times),
                         op_factors)
        print(f"speed_factor run {statistics.median(op_factors):.6g} "
              f"({len(speed.units)} units) "
              f"setup {setup_factor:.6g} ({len(setup_speed.units)} units); "
              f"the run's is the median over its operations")
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"ops-{args.workload}-seed{seed}.json", "w") as fh:
            json.dump({"label": ledger.labels, "wall_s": ledger.wall,
                       "cpu_s": ledger.cpu, "setup_s": setup_times,
                       "start_s": ledger.start, "units_s": speed.units,
                       "unit_stamps_s": speed.stamps,
                       "setup_units_s": setup_speed.units}, fh)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, (value, _) in values.items()}
    print(f"probe_after_s {probe_loop():.6g} "
          f"({PROBE_ITERATIONS} loop iterations; diagnostic only)")
    report_failures(ledger)
    attempted = len(ledger.wall)
    print(json.dumps({"correct": not ledger.failures, "attempted": attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
