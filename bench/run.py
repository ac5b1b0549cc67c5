#!/usr/bin/env python3
"""Closed-loop benchmark of the sdepth engine, timed in reference seconds.

Usage:
  python3 bench/run.py --workload sdepth|depth|corpus --seed N --seconds S --trace 0|1

One process, one thread: each operation starts when the last one returned.
The run sets up its inputs from the seed, then attempts whole rounds of
operations until S seconds have passed, checking every output outside the
timed region.  The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics of bench/layers.py with --trace 1.

Reference seconds: between operations, at most every CALIBRATE_EVERY_S, the
run times a fixed pure-Python kernel with the garbage collector paused.  An
operation's raw time is scaled by KERNEL_NOMINAL_S over the mean kernel time
measured just before and just after it, which takes out most of the drift
in the speed of a shared machine.  Raw figures and the speed factor are
printed on the lines before the result.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

KERNEL_NOMINAL_S = 0.0015  # the kernel's time at reference speed
KERNEL_LOOPS = 3000
CALIBRATE_EVERY_S = 0.25
SETUP_REPEATS = 5


def _kernel_body() -> int:
    # dict, tuple and integer work, like the program's own inner loops
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(KERNEL_LOOPS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= (key[0] * 31 + key[1]) & 0xFFFF
    return acc + len(table)


def kernel_seconds() -> float:
    """Median of five timings of the calibration kernel, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            _kernel_body()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sdepth", "depth", "corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def timed_ref(fn) -> tuple[object, float, float]:
    """Run fn between two kernel timings: (result, raw s, reference s)."""
    before = kernel_seconds()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = kernel_seconds()
    return result, raw, raw * KERNEL_NOMINAL_S / ((before + after) / 2)


def load_program():
    """Import the program from the checkout's src directory."""
    if not (SRC / "sdepth" / "__init__.py").is_file():
        raise ImportError(f"no sdepth package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    return workloads, layers


@dataclass
class Loop:
    """What the measured loop did."""

    ops: list[tuple[float, int, bool]] = field(default_factory=list)  # raw s, calibration before, failed
    calibrations: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    rounds: int = 0
    wall: float = 0.0

    def ratios(self) -> list[float]:
        """Reference seconds per raw second, for each operation."""
        cal = self.calibrations
        return [KERNEL_NOMINAL_S / ((cal[i] + cal[i + 1]) / 2) for _, i, _ in self.ops]


def measure(rounds, seconds: float, tracer) -> Loop:
    """Run whole rounds until the time is up, checking every output."""
    loop = Loop(calibrations=[kernel_seconds()])
    last_calibration = start = time.perf_counter()
    for round_ops in rounds:
        if time.perf_counter() - start >= seconds:
            break
        loop.rounds += 1
        for op in round_ops:
            if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
                loop.calibrations.append(kernel_seconds())
                last_calibration = time.perf_counter()
            if tracer:
                tracer.begin_op(len(loop.ops))
            op_start = time.perf_counter()
            result = op.run()
            raw = time.perf_counter() - op_start
            failed, problem = op.check(result)
            if problem:
                loop.problems.append(f"{op.label}: {problem}")
            loop.ops.append((raw, len(loop.calibrations) - 1, failed))
    loop.wall = time.perf_counter() - start
    loop.calibrations.append(kernel_seconds())
    return loop


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        (workloads, layers), import_raw, import_ref = timed_ref(load_program)
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS[args.workload]()
    tracer = layers.Tracer() if args.trace else None

    # set-up: input generation and warm-up, repeated for a steady median,
    # each from the same heap so that garbage collection costs the same
    setup_raw, setup_ref = [], []
    rounds = None
    for _ in range(1 if tracer else SETUP_REPEATS):
        rounds = None
        gc.collect()
        (rounds, _), raw, ref = timed_ref(lambda: (workload.rounds(args.seed), workload.warm_up()))
        setup_raw.append(raw)
        setup_ref.append(ref)

    loop = measure(rounds, args.seconds, tracer)
    ratios = loop.ratios()
    failed_ops = {i for i, (_, _, f) in enumerate(loop.ops) if f}
    done_raw = sorted(raw for i, (raw, _, _) in enumerate(loop.ops) if i not in failed_ops)
    done_ref = sorted(raw * r for i, ((raw, _, _), r) in enumerate(zip(loop.ops, ratios)) if i not in failed_ops)
    if not done_ref:
        print(f"no operation completed: {loop.problems[:3]}", file=sys.stderr)
        return 1
    q = workload.tail_q
    speed = sorted(KERNEL_NOMINAL_S / k for k in loop.calibrations)
    for problem in loop.problems[:20]:
        print("PROBLEM", problem)
    if loop.wall < args.seconds:
        print(f"NOTE all {len(rounds)} rounds of inputs done after {loop.wall:.1f}s of {args.seconds:g}s")
    print(
        f"workload={args.workload} seed={args.seed} rounds={loop.rounds} attempted={len(loop.ops)}"
        f" failed={len(failed_ops)} loop_wall_s={loop.wall:.2f} calibrations={len(loop.calibrations)}"
    )
    print(
        f"speed_factor median={statistics.median(speed):.4f} min={speed[0]:.4f} max={speed[-1]:.4f};"
        f" tail p{q * 100:g}: {sum(v > quantile(done_ref, q) for v in done_ref)} of {len(done_ref)}"
        " completed operations beyond it"
    )
    print(f"setup: import {import_ref:.4f}s, inputs and warm-up {[round(v, 4) for v in setup_ref]}s")
    print(
        f"raw: setup_s={import_raw + statistics.median(setup_raw):.4f}"
        f" ops_per_s={len(done_raw) / sum(done_raw):.4f}"
        f" latency_p50_s={statistics.median(done_raw):.5f}"
        f" latency_tail_s={quantile(done_raw, q):.5f}"
    )

    if tracer:
        op_ratio = dict(enumerate(ratios))
        op_ratio[layers.SETUP_OP] = setup_ref[0] / setup_raw[0]
        metrics = tracer.metrics(op_ratio, failed_ops)
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.uninstall()
    else:
        metrics = {
            "setup_s": {"value": import_ref + statistics.median(setup_ref), "unit": "s"},
            "ops_per_s": {"value": len(done_ref) / sum(done_ref), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(done_ref), "unit": "s"},
            "latency_tail_s": {"value": quantile(done_ref, q), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": len(loop.ops),
        "failed": len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
