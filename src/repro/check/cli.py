"""``repro-check``: the verification subsystem's command-line front end.

Three verification passes, composable in one invocation:

* ``--corpus DIR`` — replay every golden trace under ``DIR`` and fail
  on any drift from the pinned outcomes (the regression pass CI runs on
  every push);
* ``--fuzz N`` — generate ``N`` fresh traces (round-robin over the
  poisson / onoff / bmodel / adversarial generators) and certify each
  against the exact DP oracle, shrinking any counterexample;
* ``--differential N`` — run ``N`` fuzzed traces through every
  recombination policy with the invariant auditors on, plus the kernel
  parity, execution-engine parity (scalar event loop vs columnar batch
  engine), serve-vs-simulate parity (one rotating policy per case), and
  server-model cross-checks;
* ``--serve-parity DIR`` — replay every golden trace under ``DIR``
  through the online serving plane (:mod:`repro.serve`) and certify
  serve ≡ simulate bit-for-bit across every policy.

With no pass selected, a default smoke run executes: the corpus (when
``tests/corpus`` exists), a small fuzz batch, and a small differential
batch.  Exit status is non-zero iff *any* selected pass found a
problem, so the command slots directly into CI.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .corpus import load_golden, replay_corpus
from .differential import (
    DEFAULT_POLICIES,
    differential_policies,
    engine_parity,
    fcfs_lindley_check,
    kernel_parity,
    serve_parity,
)
from .fuzz import GENERATORS, fuzz_oracle, make_case

#: Default corpus location relative to the working directory.
DEFAULT_CORPUS = Path("tests") / "corpus"


def _run_corpus(directory: Path) -> tuple[int, list[str]]:
    report = replay_corpus(directory)
    lines = [report.summary()]
    return (0 if report.ok else 1), lines


def _run_fuzz(n_cases: int, seed: int, budget: float | None) -> tuple[int, list[str]]:
    lines: list[str] = []
    start = time.monotonic()
    failures = []
    done = 0
    # Chunked so a --budget cap lands between cases, not mid-oracle.
    chunk = 16
    while done < n_cases:
        take = min(chunk, n_cases - done)
        batch = fuzz_oracle(take, seed=seed + done, shrink=True)
        failures.extend(batch)
        done += take
        if (
            budget is not None
            and done < n_cases
            and time.monotonic() - start > budget
        ):
            lines.append(
                f"fuzz budget of {budget:g}s reached after {done} cases "
                f"(requested {n_cases}) — coverage truncated, not failed"
            )
            break
    if failures:
        lines.append(f"fuzz FAILED: {len(failures)} of {done} cases disagree "
                     "with the oracle")
        for failure in failures:
            lines.extend(f"  {p}" for p in failure.problems)
            if failure.shrunk is not None:
                lines.append(
                    f"  shrunk reproducer ({len(failure.shrunk.arrivals)} "
                    f"requests): {list(failure.shrunk.arrivals)} "
                    f"C={failure.shrunk.capacity:g} "
                    f"delta={failure.shrunk.delta:g}"
                )
        return 1, lines
    lines.append(f"fuzz OK: {done} traces certified optimal by the DP oracle")
    return 0, lines


def _run_differential(
    n_cases: int, seed: int, policies: tuple[str, ...]
) -> tuple[int, list[str]]:
    lines: list[str] = []
    for index in range(n_cases):
        generator = GENERATORS[index % len(GENERATORS)]
        case = make_case(generator, seed, index, max_requests=120)
        workload = case.workload()
        capacity, delta = case.capacity, case.delta
        delta_c = max(1.0, capacity / 2)
        kernels = kernel_parity(workload, capacity, delta)
        lindley = fcfs_lindley_check(workload, capacity)
        engines = engine_parity(workload, capacity, delta_c, delta)
        report = differential_policies(
            workload, capacity, delta_c, delta, policies=policies
        )
        # Serve-vs-simulate parity: one policy per case, rotating through
        # the full set so N >= len(policies) covers every policy.
        serving = serve_parity(
            workload, capacity, delta_c, delta,
            policies=(DEFAULT_POLICIES[index % len(DEFAULT_POLICIES)],),
        )
        lines += [kernels.summary()] if not kernels.ok else []
        lines += lindley
        lines += [r.summary() for r in (engines, report, serving) if not r.ok]
    if not lines:
        return 0, [
            f"differential OK: {n_cases} traces x {len(policies)} policies, "
            "kernels, engines, serve harness and invariants agree"
        ]
    return 1, [f"differential FAILED: {len(lines)} problem(s)"] + lines


def _run_serve_parity(directory: Path) -> tuple[int, list[str]]:
    """Replay every golden trace through the serving plane, all policies."""
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        return 1, [f"serve-parity: no golden traces under {directory}"]
    lines: list[str] = []
    status = 0
    for path in paths:
        golden = load_golden(path)
        report = serve_parity(
            golden.workload(), golden.capacity, golden.delta_c, golden.delta
        )
        if not report.ok:
            status = 1
            lines.append(f"{path.name}: {report.summary()}")
    if status == 0:
        lines.append(
            f"serve parity OK: {len(paths)} golden traces x "
            f"{len(DEFAULT_POLICIES)} policies, serve == simulate bit-for-bit"
        )
    return status, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Oracle, differential, and golden-trace verification.",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="replay the golden-trace corpus under DIR",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        metavar="N",
        default=None,
        help="certify N fuzzed traces against the DP oracle",
    )
    parser.add_argument(
        "--differential",
        type=int,
        metavar="N",
        default=None,
        help="run N fuzzed traces through every policy with auditors on",
    )
    parser.add_argument(
        "--serve-parity",
        metavar="DIR",
        default=None,
        help="replay every golden trace under DIR through the serving "
        "plane and certify serve == simulate bit-for-bit",
    )
    parser.add_argument(
        "--budget",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock cap for the fuzz pass (smoke jobs)",
    )
    parser.add_argument("--seed", type=int, default=0, help="fuzz base seed")
    parser.add_argument(
        "--policies",
        nargs="+",
        default=list(DEFAULT_POLICIES),
        help="policies for the differential pass",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    passes: list[tuple[int, list[str]]] = []
    selected = any(
        value is not None
        for value in (args.corpus, args.fuzz, args.differential, args.serve_parity)
    )
    corpus = args.corpus
    fuzz_n = args.fuzz
    diff_n = args.differential
    if not selected:
        # Default smoke run: everything, lightly.
        corpus = str(DEFAULT_CORPUS) if DEFAULT_CORPUS.is_dir() else None
        fuzz_n = 24
        diff_n = 4
    if corpus is not None:
        passes.append(_run_corpus(Path(corpus)))
    if args.serve_parity is not None:
        passes.append(_run_serve_parity(Path(args.serve_parity)))
    if fuzz_n is not None:
        passes.append(_run_fuzz(fuzz_n, args.seed, args.budget))
    if diff_n is not None:
        passes.append(_run_differential(diff_n, args.seed, tuple(args.policies)))
    status = 0
    for code, lines in passes:
        status = max(status, code)
        for line in lines:
            print(line)
    print("repro-check:", "PASS" if status == 0 else "FAIL")
    return status


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
