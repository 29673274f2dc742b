#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of adimlab.

Run from the repository root:

    python3 perfbench/run.py --workload solve-random --seed 1 --seconds 20 --trace 0

Workloads: solve-random, join-pairs, sweep-n6 (see README.md).  The program
is imported from ``src/`` of the checkout; nothing is built.  Each run does
one untimed warm-up pass of the workload's fixed op list, then whole timed
passes until ``--seconds`` of op time have gone by, then checks the outputs
against independent computations.  ``--trace 1`` instead times one untraced
and one traced pass and reports per-layer metrics.  Durations are rescaled
to a reference machine speed by ``probe``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from probe import REFERENCE_S, Sampler, probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
SETUP_SAMPLES = 19  # after one discarded sample that warms the file cache
TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10

# setup_s: a fresh interpreter reads its inputs, then the clock runs over
# prep.program_setup alone, between two probes
SETUP_CHILD = """
import sys, time
lines = sys.stdin.read().split()
sys.path.insert(0, sys.argv[2])
import prep, probe
probe.probe()
before = probe.probe()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
prep.program_setup(sys.argv[3], lines)
elapsed = time.perf_counter() - start
after = probe.probe()
print(elapsed, elapsed * probe.REFERENCE_S * 2 / (before + after))
"""


class Pass(NamedTuple):
    raw: list[float]  # wall seconds per op
    scaled: list[float]  # the same, rescaled to the reference probe speed
    outputs: list
    probes: list[float]

    @property
    def scale(self) -> float:
        """Rescaling factor of the pass's op time as a whole."""
        return sum(self.scaled) / sum(self.raw)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_pass(wl, after_op=None) -> Pass:
    """One pass over the op list.  The build_table cache is emptied before
    each op and the probe runs after it, both outside the op's timing.  An
    op long enough for the sampler to probe it is rescaled by those probes,
    a shorter one by the probes either side of it."""
    gc.collect()
    result = Pass([], [], [], [probe()])
    for i in range(len(wl.ops)):
        wl.clear_cache()
        with Sampler(wl.pool_cpus()) as sampler:
            start = perf_counter()
            try:
                out = wl.run(i)
            except Exception as exc:  # a raising op is counted as failed, not fatal
                out = exc
            elapsed = perf_counter() - start
        if after_op is not None:
            after_op()
        result.probes.append(probe())
        speed = sampler.speed() or (result.probes[-2] + result.probes[-1]) / 2
        result.raw.append(elapsed)
        result.scaled.append(elapsed * REFERENCE_S / speed)
        result.outputs.append(out)
    return result


def measure_setup(wl) -> tuple[float, list[float], list[float]]:
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(HERE), wl.name],
            input="\n".join(wl.lines),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            die(f"set-up interpreter failed:\n{done.stderr}")
        seconds, rescaled = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(rescaled)
    return statistics.median(scaled[1:]), raw[1:], scaled[1:]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any reaped child (the
    sweep's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; with fewer
    than 40 samples there is no such tail and the slowest op stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= TAIL_MIN_SAMPLES:
        rank = n - TAIL_BEYOND
        return ordered[rank - 1], f"p{100.0 * rank / n:.1f} of {n} op latencies"
    return ordered[-1], f"slowest of {n} op latencies (fewer than {TAIL_MIN_SAMPLES}: no tail)"


def latency_metrics(per_op: list[float], ok_per_pass: int) -> tuple[dict, str]:
    tail_value, tail_label = tail(per_op)
    return {
        "ops_per_s": (ok_per_pass / sum(per_op), "1/s"),
        "latency_p50_s": (statistics.median(per_op), "s"),
        "latency_tail_s": (tail_value, "s"),
    }, tail_label


def traced_metrics(wl, program) -> tuple[list[Pass], dict, dict]:
    """Untraced pass, then the same pass traced; for sweep-n6 also the
    parallel sweep, since spans stay in the process that makes them."""
    from tracer import Tracer

    passes, notes = [], {}
    if wl.name == "sweep-n6":
        pool = run_pass(wl)
        wl.jobs = 1
        notes["traced_jobs"] = "1: spans are not collected from pool workers"
        passes.append(pool)
    untraced = run_pass(wl)
    cache_info = program["metric"].build_table.cache_info
    cache = {"hits": 0, "misses": 0}

    def count_cache():
        info = cache_info()
        cache["hits"] += info.hits
        cache["misses"] += info.misses

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, count_cache)
    finally:
        tracer.uninstall()
    passes += [untraced, traced]
    metrics = {
        name: (value * traced.scale if unit == "s" else value, unit)
        for name, (value, unit) in tracer.metrics().items()
    }
    lookups = cache["hits"] + cache["misses"]
    metrics["metric.build_table_hits"] = (cache["hits"], "count")
    metrics["metric.build_table_hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    notes["build_table_hit_ratio_base"] = f"{lookups} lookups"
    untraced_s, traced_s = sum(untraced.scaled), sum(traced.scaled)
    # every workload reports the sweep's figures; only sweep-n6 has a pool
    pool_s = serial_s = speedup = 0.0
    if wl.name == "sweep-n6":
        pool_s, serial_s = sum(pool.scaled), untraced_s
        speedup = serial_s / pool_s
        notes["pool_speedup_base"] = f"serial {serial_s:.3f} s / jobs=2 {pool_s:.3f} s"
    else:
        notes["pool_speedup_base"] = "no pool on this workload: sweep and speed-up read 0"
    metrics["verify.sweep_pool_s"] = (pool_s, "s")
    metrics["verify.sweep_serial_s"] = (serial_s, "s")
    metrics["verify.pool_speedup"] = (speedup, "ratio")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return passes, metrics, notes


@contextlib.contextmanager
def stdout_to_stderr():
    """Send what native code prints (the MILP solver's notes) to standard
    error, so that the result stays the last line of standard output."""
    libc = ctypes.CDLL(None)
    libc.fflush.argtypes = [ctypes.c_void_p]
    libc.fflush.restype = ctypes.c_int
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        libc.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def check_manifest(metrics: dict, trace: int) -> None:
    """The result must hold exactly the metrics that BENCHMARK.json lists for
    this kind of run (per-layer when traced, end-to-end otherwise), each in
    its unit."""
    manifest = HERE.parent / "BENCHMARK.json"
    if not manifest.is_file():
        return
    listed = {
        m["name"]: m["unit"]
        for m in json.loads(manifest.read_text())["per_layer" if trace else "end_to_end"]
    }
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != listed:
        wrong = sorted(set(listed.items()) ^ set(reported.items()))
        die(f"metrics differ from BENCHMARK.json in {wrong}")


def verdict(wl, warmup: Pass, passes: list[Pass]) -> tuple[bool, int, int, dict[int, str]]:
    """Check one pass against the independent computations and require every
    other pass to repeat it: (correct, attempted, failed, reasons by op)."""
    reference = passes[0].outputs
    reasons = wl.check(reference)
    wrong = bool(reasons)
    for p in [warmup] + passes:
        for i, out in enumerate(p.outputs):
            if isinstance(out, Exception):
                reasons.setdefault(i, f"raised {out!r}")
            elif out != reference[i]:
                wrong = True
                reasons.setdefault(i, "output differs between passes")
    attempted = sum(len(p.outputs) for p in passes)
    failed = sum(1 for p in passes for i, out in enumerate(p.outputs) if i in reasons)
    return not wrong, attempted, failed, reasons


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "adimlab" / "__init__.py").is_file():
        die(f"no adimlab sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import prep
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; pick one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    program = prep.program_setup(wl.name, wl.lines)
    if Path(program["adimlab"].__file__).resolve().parent != SRC / "adimlab":
        die(f"adimlab was imported from {program['adimlab'].__file__}, not from {SRC}")
    wl.attach(program)

    warmup = run_pass(wl)
    notes: dict = {}
    if args.trace:
        passes, metrics, notes = traced_metrics(wl, program)
    else:
        passes, elapsed = [], 0.0
        while not passes or elapsed < args.seconds:
            passes.append(run_pass(wl))
            elapsed += sum(passes[-1].raw)
        rss = peak_rss_mb()
        setup_s, setup_raw, setup_scaled = measure_setup(wl)
    with stdout_to_stderr():
        correct, attempted, failed, reasons = verdict(wl, warmup, passes)

    if not args.trace:
        ok_per_pass = len(wl.ops) - len(reasons)
        # an op's latency is its median over the timed passes
        n_ops = len(wl.ops)
        scaled = [statistics.median(p.scaled[i] for p in passes) for i in range(n_ops)]
        raw = [statistics.median(p.raw[i] for p in passes) for i in range(n_ops)]
        metrics, notes["latency_tail"] = latency_metrics(scaled, ok_per_pass)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (rss, "MB")
        unscaled, _ = latency_metrics(raw, ok_per_pass)
        notes["wall_clock"] = {name: value for name, (value, _) in unscaled.items()}
        notes["wall_clock"]["setup_s"] = statistics.median(setup_raw)
        notes["setup_samples_s"] = setup_scaled
    notes["probe_median_s"] = statistics.median(pr for p in passes for pr in p.probes)

    check_manifest(metrics, args.trace)
    header = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "kernel": program["kernel"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "ops_per_pass": len(wl.ops),
        "passes": len(passes),
        "warmup_passes": 1,
        **notes,
    }
    failures = {str(i): why for i, why in sorted(reasons.items())}
    record = {**header, "metrics": metrics, "failures": failures}
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for key, value in header.items():
        print(f"{key}: {value}")
    for i, why in sorted(reasons.items()):
        print(f"FAILED op {i}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
