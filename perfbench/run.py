#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seconds S --trace 0|1 --steady RUNS

Run from the repository root.  One workload runs per process as a closed
loop: one client, one thread, each query sent after the previous one
returned and was checked.  The timed phase is the summed latency of the
queries; reference checks run between queries and are not timed.  Times are
scaled to a reference host speed (see speed.py), and whole rounds run until
the scaled timed phase reaches --seconds; the raw wall-clock figures are
printed beside the scaled ones.

--trace 0 prints the end-to-end metrics.  --trace 1 replays a fixed number
of rounds three times from a fresh setup: untraced, with span wrappers, and
with counters on the hot paths (algebra products, field operations); each
replay starts with the untimed layer probe of workloads.py, and checks are
not traced.  It prints the per-layer metrics and the tracing overhead, and
writes the spans to perfbench/traces/.  --steady RUNS runs RUNS processes with seeds
1..RUNS and prints each metric's median and quartiles.  The last line of a
run is one JSON object; the exit code is 0 only when every answer matched
its reference.
"""

import argparse
import contextlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
TRACE_SHARE = 0.25  # untraced pass of a traced run: this share of --seconds
# the speed kernel whose arithmetic matches each workload's (see speed.py)
KERNEL = {"combinatorial": "rational", "linear_q": "rational", "syzygy_fp": "modular"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS")
    return parser.parse_args(argv)


class Tally:
    """Per-query wall intervals, their reference-speed durations, and failures."""

    def __init__(self, probe):
        self.probe = probe
        self.intervals = []  # (kind, start, end)
        self._scaled = []
        self.failed = 0
        self.errors = []

    @property
    def busy(self):
        return sum(self.latencies())

    def latencies(self):
        """Reference-speed latencies.  Call only after a speed sample that
        follows the last query, so that every interval's bracket is final."""
        done = len(self._scaled)
        self._scaled += [self.probe.scaled(start, end)
                         for _kind, start, end in self.intervals[done:]]
        return self._scaled

    def fail(self, query, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{query.kind}: {message}")


def run_round(queries, state, tally, mismatch, quiet=contextlib.nullcontext):
    """Run and check each query; checks run inside quiet(), untraced."""
    for query in queries:
        tally.probe.maybe_sample()
        start = time.perf_counter()
        try:
            out = query.run(state)
        except Exception:
            tally.intervals.append((query.kind, start, time.perf_counter()))
            tally.fail(query, "raised\n" + traceback.format_exc())
            continue
        tally.intervals.append((query.kind, start, time.perf_counter()))
        try:
            with quiet():
                query.check(state, out)
        except mismatch as exc:
            tally.fail(query, str(exc))
        except Exception:
            tally.fail(query, "check raised\n" + traceback.format_exc())


def round_rng(seed):
    return random.Random(f"rounds:{seed}")


def timed(probe, fn):
    """(result, reference-speed seconds) of fn(), bracketed by speed samples."""
    probe.sample()
    start = time.perf_counter()
    result = fn()
    end = time.perf_counter()
    probe.sample()
    return result, probe.scaled(start, end)


def end_to_end(workloads, workload, args, probe, import_s):
    setups = [timed(probe, lambda: workload.setup(args.seed)) for _ in range(SETUP_REPEATS)]
    state = setups[-1][0]
    setup_s = statistics.median(s for _state, s in setups)
    rng = round_rng(args.seed)
    tally = Tally(probe)
    while tally.busy < args.seconds:
        run_round(workload.make_round(state, rng), state, tally, workloads.Mismatch)
        probe.sample()
    raw = [end - start for _k, start, end in tally.intervals]
    scaled = tally.latencies()
    n = len(scaled)
    tail_index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1

    def timings(lat):
        ordered = sorted(lat)
        return n / sum(lat), 1000 * statistics.median(lat), 1000 * ordered[tail_index]

    qps, p50, tail = timings(scaled)
    raw_qps, raw_p50, raw_tail = timings(raw)
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "throughput_qps": (qps, "queries/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"import {import_s:.4f} s + median of {SETUP_REPEATS} setups",
        "throughput_qps": f"raw {raw_qps:.4g}; {n} queries in {sum(scaled):.3f} s timed",
        "latency_p50_ms": f"raw {raw_p50:.4g}; n={n}",
        "latency_tail_ms": f"raw {raw_tail:.4g}; p{100 * (tail_index + 1) / n:.1f}, "
                           f"{n - tail_index - 1} samples beyond, n={n}",
        "peak_rss_mb": "getrusage ru_maxrss of this process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({notes[name]})")
    print(f"failed_ratio = {tally.failed / n:.6g} fraction ({tally.failed}/{n})")
    by_kind = defaultdict(list)
    for (kind, _start, _end), lat in zip(tally.intervals, scaled):
        by_kind[kind].append(lat)
    for kind, lat in sorted(by_kind.items()):
        print(f"  {kind}: {len(lat)} queries, median {1000 * statistics.median(lat):.4g} ms")
    print(f"  host speed: median kernel {1000 * statistics.median(probe.costs):.4g} ms "
          f"over {len(probe.costs)} samples")
    return tally, n, metrics


def traced(workloads, workload, args, probe):
    import tracing

    rounds = max(1, round(args.seconds * TRACE_SHARE / workload.round_seconds))

    def replay(tracer, **install):
        tally = Tally(probe)
        with tracing.Installed(tracer, **install):
            layers = Tally(probe)  # untimed
            for query, state in workloads.layer_probe():
                run_round([query], state, layers, workloads.Mismatch, tracer.paused)
            state = workload.setup(args.seed)
            rng = round_rng(args.seed)
            for _ in range(rounds):
                run_round(workload.make_round(state, rng), state, tally, workloads.Mismatch,
                          tracer.paused)
            probe.sample()
        tally.failed += layers.failed
        tally.errors += layers.errors
        return tally

    base = replay(tracing.Tracer())
    tracer = tracing.Tracer()
    spanned = replay(tracer, spans=True)
    counter = tracing.Tracer()
    counted = replay(counter, counters=True)
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"{workload.name}.json")
    metrics = tracing.layer_metrics(tracer, counter.counts)
    metrics["trace.overhead_ratio"] = (spanned.busy / base.busy - 1, "fraction")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    print(f"{rounds} rounds replayed 3 times; timed at reference speed: untraced "
          f"{base.busy:.3f} s, spans {spanned.busy:.3f} s, counters {counted.busy:.3f} s; "
          "layer times below are raw wall clock under spans")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    tally = Tally(probe)
    for part in (base, spanned, counted):
        tally.intervals += part.intervals
        tally.failed += part.failed
        tally.errors += part.errors
    return tally, len(tally.intervals), metrics


def steady(args):
    """Run args.steady processes with seeds 1..RUNS; print medians, quartiles
    and the spread (q3 - q1) / median next to the bound in BENCHMARK.json."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    values = {}
    code = 0
    for seed in range(1, args.steady + 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}"
                                           for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE")
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound}{verdict}")
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.steady:
        return steady(args)
    if args.workload not in KERNEL:
        print(f"unknown workload {args.workload!r}; have {sorted(KERNEL)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    probe = SpeedProbe(KERNEL[args.workload])
    try:
        workloads, import_s = timed(probe, lambda: __import__("workloads"))
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        tally, attempted, metrics = traced(workloads, workload, args, probe)
    else:
        tally, attempted, metrics = end_to_end(workloads, workload, args, probe, import_s)
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
