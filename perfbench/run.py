"""seqopt benchmark: guided sampling, forward-only evaluation and training at
the synthetic-hard config.

    python3 perfbench/run.py --workload {guide,evaluate,train} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout. The first run in a checkout trains
the frozen model stack (a few minutes) and caches it under `.bench_build/`;
later runs load it. With `--trace 0` the run measures end-to-end metrics
for S seconds; with `--trace 1` it runs two passes of one cycle of ops
untraced and the same cycle traced, and reports per-layer metrics and the
tracing overhead.
Informational lines come first; the last line of standard output is the
JSON result. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PERCENTILES = (50, 90, 95, 99, 99.9)

# End-to-end metrics: (name, unit, better); every workload reports each.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("op_s.p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("quality", "score", "higher"),
]

# Units of the printed, ungated figures.
INFO_UNITS = {"quality": "score", "median_fitness": "score", "diversity": "edits",
              "novelty": "edits", "train_loss.vae": "loss",
              "train_loss.predictor": "loss", "train_loss.flow": "loss"}

perf = time.perf_counter


def _rank(p: float, n: int) -> int:
    """Nearest rank (1-based) of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100, 6)))


def tail_percentile(n: int):
    """Highest of PERCENTILES with at least 10 of n samples beyond it, or
    None when n is too small for any."""
    fitting = [p for p in PERCENTILES if n - _rank(p, n) >= 10]
    return max(fitting) if fitting else None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def environment() -> dict:
    import numpy as np

    env = {"nproc": os.cpu_count(), "nproc_affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "threads": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        env["blas"] = None
    env["git_commit"] = env["git_dirty"] = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            env["git_commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                               text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout
            env["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return env


@dataclass
class Record:
    index: int
    seconds: float
    items: int
    output: object
    problems: list = field(default_factory=list)


def run_op(workload, state, seed: int, index: int, tracer=None) -> Record:
    """One op, timed; its checks run after the clock stops and outside the
    op's spans. An exception or a failed check marks the op failed without
    ending the run."""
    if tracer is not None:
        tracer.set_op(index)
    start = perf()
    try:
        op = workload.op(state, seed, index)
    except Exception as exc:  # a failed op is counted, not fatal
        traceback.print_exc()
        return Record(index, perf() - start, 0, None, [f"{type(exc).__name__}: {exc}"])
    finally:
        if tracer is not None:
            tracer.set_op(None)
    seconds = perf() - start
    try:
        problems = workload.check(state, index, op.output)
    except Exception as exc:
        traceback.print_exc()
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    for p in problems:
        print(f"op {index} failed: {p}", file=sys.stderr)
    return Record(index, seconds, op.items, op.output, problems)


def run_loop(workload, state, seed: int, seconds: float, first: int = 0,
             tracer=None) -> list[Record]:
    """Closed loop from op `first`: stop at the first cycle boundary after
    `seconds`. With a tracer, run exactly one cycle, each op under its own
    op id."""
    records, start, index = [], perf(), first
    cycle = len(workload.cycle)
    while True:
        records.append(run_op(workload, state, seed, index, tracer))
        index += 1
        if index % cycle == 0 and (tracer is not None or perf() - start >= seconds):
            return records


def quality_of(workload, state, records, cycles: int) -> dict | None:
    """Quality over the first `cycles` cycles of ops, or None if one of them
    failed. Those ops run in every run, so the value depends only on the
    seed and the code."""
    head = records[:cycles * len(workload.cycle)]
    if any(r.problems for r in head):
        return None
    return workload.quality(state, [r.output for r in head])


def timing_metrics(workload, records) -> dict:
    """Per complete, unfailed cycle: items per second and mean op time. A
    cycle holds one op of each kind, so its mean does not depend on which
    kind an op happens to be; for guide a cycle is one op."""
    cycle = len(workload.cycle)
    rates, op_times = [], []
    for start in range(0, len(records) - cycle + 1, cycle):
        chunk = records[start:start + cycle]
        if not any(r.problems for r in chunk):
            seconds = sum(r.seconds for r in chunk)
            rates.append(sum(r.items for r in chunk) / seconds)
            op_times.append(seconds / cycle)
    return {"op_s.p50": statistics.median(op_times) if op_times else 0.0,
            "items_per_s": statistics.median(rates) if rates else 0.0,
            "times": [r.seconds for r in records if not r.problems],
            "cycles": len(rates)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["guide", "evaluate", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqopt" / "__init__.py").is_file():
        print(f"perfbench: no seqopt source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stack
    import tracing
    import workloads

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    try:
        entry, _ = stack.ensure_stack(log=lambda m: print(m, flush=True))
    except stack.StackError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(f"stack {entry.name} source={stack.source_hash()[:16]}", flush=True)

    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    # Set-up runs SETUP_REPEATS times and ops use the first set-up's state.
    # An untraced run measures a window of ops after each set-up, which
    # spreads the samples over the whole run.
    state, setup_times, records = None, [], []
    for rep in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.install()
            tracer.set_op(f"setup{rep}")
        start = perf()
        try:
            fresh = workload.setup(entry)
        finally:
            setup_times.append(perf() - start)
            if tracer is not None:
                tracer.uninstall()
        if state is None:
            state = fresh
            workload.prepare(state, entry)
            workload.warm_up(state)
        del fresh
        if tracer is None:
            records += run_loop(workload, state, args.seed, args.seconds / SETUP_REPEATS,
                                first=len(records))
    if tracer is None:
        correct, metrics, failed = measured(workload, state, records, setup_times)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        records, correct, metrics, failed = traced(workload, state, args.seed, tracer)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        out = stack.CACHE / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"trace: {len(tracer.spans)} spans written to {out.relative_to(ROOT)}", flush=True)

    result = {"correct": bool(correct), "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    print(json.dumps(result), flush=True)
    return 0


def measured(workload, state, records, setup_times):
    """End-to-end metrics of an untraced run; prints the informational
    figures (fail rate, tail percentile, quality details) first."""
    timing = timing_metrics(workload, records)
    quality = quality_of(workload, state, records, SETUP_REPEATS)
    failed = sum(1 for r in records if r.problems)
    n = len(timing["times"])
    tail = tail_percentile(n)
    info = {"ops": len(records), "failed": failed,
            "fail_rate": {"value": failed / len(records), "unit": "ratio"},
            "cycles": timing["cycles"], "op_s.p50": timing["op_s.p50"], "samples": n,
            "tail_percentile": tail,
            "op_s.tail": percentile(timing["times"], tail) if tail else None,
            "setup_s.all": setup_times}
    print(f"{workload.name} " + json.dumps(info), flush=True)
    print("quality " + json.dumps(quality and {k: {"value": v, "unit": INFO_UNITS[k]}
                                                for k, v in quality.items()}), flush=True)
    metrics = {"setup_s": statistics.median(setup_times),
               "items_per_s": timing["items_per_s"],
               "op_s.p50": timing["op_s.p50"],
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "quality": (quality or {}).get("quality", 0.0)}
    return failed == 0 and quality is not None, metrics, failed


def traced(workload, state, seed, tracer):
    """Per-layer metrics: two passes of (one cycle untraced, the same cycle
    traced). Layer metrics come from the first traced cycle; the overhead is
    the traced op_s.p50 minus the untraced one over both passes."""
    cycle = len(workload.cycle)
    plain, spanned = [], []
    for k in range(2):
        plain += run_loop(workload, state, seed, 0.0, first=k * cycle)
        with tracer:
            spanned += run_loop(workload, state, seed, 0.0, first=k * cycle, tracer=tracer)
    records = plain + spanned
    failed = sum(1 for r in records if r.problems)
    quality = quality_of(workload, state, plain, 2)
    traced_quality = quality_of(workload, state, spanned, 2)
    print("quality " + json.dumps(quality), flush=True)
    if traced_quality != quality:
        print(f"traced quality {traced_quality} != untraced {quality}", file=sys.stderr)
    plain_p50 = timing_metrics(workload, plain)["op_s.p50"]
    spanned_p50 = timing_metrics(workload, spanned)["op_s.p50"]
    print(f"{workload.name} op_s.p50 traced {spanned_p50:.4f} s, untraced {plain_p50:.4f} s",
          flush=True)
    metrics = tracer.layer_metrics(ops=range(cycle),
                                   setup_ops=[f"setup{r}" for r in range(SETUP_REPEATS)])
    metrics["trace.overhead_s"] = spanned_p50 - plain_p50
    correct = failed == 0 and quality is not None and traced_quality == quality
    return records, correct, metrics, failed


if __name__ == "__main__":
    sys.exit(main())
