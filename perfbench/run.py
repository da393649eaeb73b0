#!/usr/bin/env python3
"""End-to-end benchmark of the repro pipeline, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload event-burst --seed 1 --seconds 30 --trace 0

One process, one thread, no sockets.  The run imports the package from
``src/``, builds its inputs from ``--seed`` (timed several times as
``setup_s``), then repeats the workload's legs until ``--seconds`` have
passed and reports the best of those repetitions.  Output checks run
outside the timed region; any failure clears ``correct`` and counts the
leg's operations as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
legs once untraced and twice under :class:`tracer.Tracer`, asserts the
per-layer counts repeat exactly, and reports the per-layer metrics plus
the tracing overhead.  Sampled spans go to ``perfbench/.out/``, as does
the native-kernel build cache.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")

#: Environment switches that would override the resolved defaults.
ENV_OVERRIDES = ("REPRO_ENGINE", "REPRO_KERNEL", "REPRO_AQM")

#: Timed repetitions of the legs, at least.
MIN_ROUNDS = 3
#: Rounds spread evenly over the run also re-time the set-up and a
#: package import in a fresh interpreter; ``setup_s`` is the best import
#: plus the best set-up.
SETUP_REPEATS = 6
#: Lines per ingest latency window (p99 leaves 50 samples beyond it); a
#: serve leg's window is its own ~1000 lines (10 beyond).
INGEST_WINDOW = 5000
#: Request ids whose full span trees the traced run keeps.
SPAN_SAMPLES = 8

#: How host timings are reduced.  On a shared 2-core x86 box the host
#: switches between a fast state and one about 1.8x slower, sometimes
#: every few hundred milliseconds and sometimes for tens of seconds, so
#: the medians of two runs' samples can differ by 0.3.  Every host-time
#: metric is instead the best of many short (15-50 ms) samples spread
#: over the whole run (every round also times the workload's own Cmin
#: searches and a 5000-line ingest window): a short sample fits inside
#: a fast stretch in almost every run.
best = min

END_TO_END_UNITS = {
    "sim_req_per_s": "1/s",
    "plan_per_s": "1/s",
    "ingest_p50_us": "us",
    "within_delta": "ratio",
    "served_frac": "ratio",
    "mem_bytes_per_req": "B",
    "setup_s": "s",
}

#: Printed beside the end-to-end metrics but left out of the result: the
#: p99 of a ~3 us operation is set by co-tenant interference on a shared
#: box, and its best window still spreads 0.2-0.4 across runs.
UNGATED_UNITS = {"ingest_p99_us": "us"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("event-burst", "plan-batch", "serve-chaos"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count multiplier (reduced-size runs)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def bootstrap() -> bool:
    """Point imports at ``src/`` and the kernel cache at ``.out/``.

    Returns whether the native-kernel build cache was already warm.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"error: no package at {src}/repro; run from a checkout")
    for var in ENV_OVERRIDES:
        os.environ.pop(var, None)
    cache = os.path.join(OUT, "kernels")
    os.makedirs(cache, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = cache
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    return any(name.endswith(".so") for name in os.listdir(cache))


class Round:
    """One timed repetition of every leg, plus the samples spread over it."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.summaries: dict = {}
        #: Ingest latency windows (seconds per line) taken in this round.
        self.windows: list[list[float]] = []
        #: (searches, seconds) of the workload's own Cmin searches.
        self.plans: list[tuple[int, float]] = []
        self.setups: list[float] = []
        self.imports: list[float] = []


def run_round(workload, legs, tracer=None, sample=False) -> Round:
    """Run every leg once; with ``sample``, time the side metrics too."""
    from workloads import ingest_probe

    out = Round()
    for leg in legs:
        gc.collect()
        if tracer is not None:
            tracer.label = leg.name
            tracer.resume()
        start = time.perf_counter()
        raw = leg.run()
        out.times[leg.name] = time.perf_counter() - start
        if tracer is not None:
            tracer.pause()
        summary = out.summaries[leg.name] = workload.summarize(leg, raw)
        del raw
        lines = summary.ingest
        size = min(INGEST_WINDOW, len(lines))
        if size:
            out.windows += [
                lines[i:i + size] for i in range(0, len(lines) - size + 1, size)
            ]
    if sample:
        window = ingest_probe(workload, INGEST_WINDOW)
        if window is not None:
            out.windows.append(window)
        if not workload.sweeps:
            gc.collect()
            start = time.perf_counter()
            n = workload.plans()
            out.plans.append((n, time.perf_counter() - start))
    return out


def timed_rounds(factory, args, workload, legs) -> list[Round]:
    rounds = []
    setups = 0
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        r = run_round(workload, legs, sample=True)
        due = setups * args.seconds / SETUP_REPEATS
        if setups < SETUP_REPEATS and time.perf_counter() - start >= due:
            setups += 1
            gc.collect()
            t0 = time.perf_counter()
            factory(args.seed, args.scale)
            r.setups.append(time.perf_counter() - t0)
            r.imports.append(import_seconds())
        rounds.append(r)
    return rounds


def output_problems(workload, rounds: list[Round]) -> dict[str, list[str]]:
    """Every check, grouped by leg: per-leg, repetition, and workload checks."""
    import checks

    problems: dict[str, list[str]] = {name: [] for name in rounds[0].summaries}
    for name in problems:
        for r in rounds:
            for p in r.summaries[name].problems:
                if p not in problems[name]:
                    problems[name].append(p)
        problems[name] += checks.repeats(name, [r.summaries[name].digest for r in rounds])
    for name, found in workload.checks(rounds[0].summaries).items():
        problems[name] += found
    return problems


def tally(rounds: list[Round], problems) -> tuple[int, int]:
    """(attempted, failed) operations over the timed rounds."""
    attempted = failed = 0
    for r in rounds:
        for name, s in r.summaries.items():
            attempted += s.ops
            failed += s.ops if problems[name] else s.failed
    return attempted, failed


def memory_per_request(workload, legs) -> tuple[float, int]:
    """Peak traced heap growth of each simulating leg, summed, per request."""
    growth = requests = runs = 0
    for leg in legs:
        if not leg.requests:
            continue
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            raw = leg.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        growth += peak - base
        requests += workload.summarize(leg, raw).submitted
        runs += 1
    return growth / requests, runs


def plan_rate(workload, rounds: list[Round]) -> tuple[float, int]:
    """Cmin searches per host second, and the sample count."""
    if workload.sweeps:
        sweeps = [name for name in rounds[0].times if name.startswith("sweep")]
        searches = sum(rounds[0].summaries[name].ops for name in sweeps)
        host = sum(best(r.times[name] for r in rounds) for name in sweeps)
        return searches / host, len(rounds) * len(sweeps)
    samples = [p for r in rounds for p in r.plans]
    return 1.0 / best(t / n for n, t in samples), len(samples)


def ingest_latency(rounds: list[Round]) -> tuple[float, float, int, int]:
    """Best window's p50 and p99 line latency (us), lines and windows."""
    from workloads import percentile

    windows = [w for r in rounds for w in r.windows]
    p50 = best(percentile(w, 50) for w in windows) * 1e6
    p99 = best(percentile(w, 99) for w in windows) * 1e6
    return p50, p99, sum(len(w) for w in windows), len(windows)


def end_to_end(workload, legs, rounds, problems) -> tuple[dict, dict]:
    sim_legs = [leg.name for leg in legs if rounds[0].summaries[leg.name].submitted]
    first = rounds[0].summaries
    submitted = sum(first[n].submitted for n in sim_legs)
    host = sum(best(r.times[n] for r in rounds) for n in sim_legs)
    within = sum(first[n].within for n in sim_legs)
    lost = sum(first[n].submitted if problems[n] else first[n].failed for n in sim_legs)
    plans, plan_samples = plan_rate(workload, rounds)
    setups = [t for r in rounds for t in r.setups]
    imports = [t for r in rounds for t in r.imports]
    p50, p99, lines, windows = ingest_latency(rounds)
    mem, mem_runs = memory_per_request(workload, legs)
    values = {
        "sim_req_per_s": submitted / host,
        "plan_per_s": plans,
        "ingest_p50_us": p50,
        "ingest_p99_us": p99,
        "within_delta": within / submitted,
        "served_frac": 1.0 - lost / submitted,
        "mem_bytes_per_req": mem,
        "setup_s": best(imports) + best(setups),
    }
    samples = {
        "sim_req_per_s": f"best of {len(rounds)} rounds, {len(sim_legs)} legs",
        "plan_per_s": f"best of {plan_samples} timings",
        "ingest_p50_us": f"best of {windows} windows, {lines} lines",
        "ingest_p99_us": f"best of {windows} windows (printed only, not gated)",
        "within_delta": f"{submitted} requests",
        "served_frac": f"{submitted} requests",
        "mem_bytes_per_req": f"1 run of each of {mem_runs} legs",
        "setup_s": f"best of {len(imports)} imports + best of {len(setups)} set-ups",
    }
    return values, samples


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def traced(workload, legs, seed: int, name: str):
    """One untraced and two traced rounds; per-layer metrics and counts."""
    import numpy as np

    from layers import deterministic_counts, layer_metrics
    from repro.sim.rng import derive_seed
    from tracer import Tracer

    base = run_round(workload, legs)
    smallest = min(s.submitted for s in base.summaries.values() if s.submitted)
    rng = np.random.default_rng(derive_seed(seed, "perfbench", "spans"))
    sample = rng.choice(smallest, size=min(SPAN_SAMPLES, smallest), replace=False)
    rounds, per_round, counts = [base], [], []
    with Tracer(int(i) for i in sample) as tracer:
        tracer.pause()
        for i in range(2):
            tracer.reset()
            r = run_round(workload, legs, tracer)
            rounds.append(r)
            per_round.append(layer_metrics(tracer, r, base))
            counts.append(deterministic_counts(tracer, r))
            if i == 0:
                path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
                spans = tracer.write_spans(path)
    metrics = {
        key: statistics.median([m[key] for m in per_round]) for key in per_round[0]
    }
    return rounds, metrics, counts, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    warm = bootstrap()
    import checks
    import workloads
    from layers import PER_LAYER_UNITS
    from repro.perf import engines, kernels

    # Resolving the backend builds the native kernels on a cold cache;
    # that build is not part of set-up time.
    backend = kernels.active_backend()
    engine = engines.active_engine()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale:g}")
    print(f"# kernel backend={backend} engine={engine} native cache warm={warm} "
          f"({', '.join(ENV_OVERRIDES)} unset)")

    factory = workloads.WORKLOADS[args.workload]
    workload = factory(args.seed, args.scale)
    legs = workload.legs

    if args.trace:
        rounds, metrics, counts, spans = traced(workload, legs, args.seed, args.workload)
        problems = output_problems(workload, rounds)
        problems["counts"] = checks.counts_repeat("per-layer", counts)
        units, samples = PER_LAYER_UNITS, {}
        print(f"# deterministic counts per traced round: {json.dumps(counts[0])}")
        print(f"# {spans} sampled spans written to perfbench/.out/")
    else:
        rounds = timed_rounds(factory, args, workload, legs)
        problems = output_problems(workload, rounds)
        metrics, samples = end_to_end(workload, legs, rounds, problems)
        units = END_TO_END_UNITS
        for leg in legs:
            times = [r.times[leg.name] for r in rounds]
            print(f"# leg {leg.name}: {rounds[0].summaries[leg.name].submitted} requests, "
                  f"best {best(times):.4f} s, median {statistics.median(times):.4f} s "
                  f"of {len(times)} rounds")

    for name, value in metrics.items():
        unit = units.get(name) or UNGATED_UNITS[name]
        print(f"{name:40s} {value:16.6g} {unit:6s} {samples.get(name, '')}")
    found = [p for group in problems.values() for p in group]
    for p in found:
        print(f"CHECK FAILED: {p}")
    if not found:
        print(f"# all output checks passed ({len(problems)} groups)")
    attempted, failed = tally(rounds, problems)
    print(json.dumps({
        "correct": not found,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
