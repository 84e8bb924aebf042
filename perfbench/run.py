"""Whole-retrieval benchmark: one workload per run, every record checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-burst --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (no wrappers installed);
``--trace 1`` splits the time between an untraced phase, a traced phase
(timing wrappers around each layer's public entry points; spans are written
to ``.perfbench/spans-<workload>-seed<seed>.json``) and, on ``fleet-rw``, a
phase with the observability hub detached, and reports per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 on success, 1 when a record was wrong or missing (the
offending indices are printed), 2 when the library cannot be imported,
3 when an open-loop run is invalid because the generator fell behind.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve-small", "serve-burst", "batch-large", "fleet-rw")
#: Set-ups per run: at least the first figure, and more while they took
#: under the second in all (cheap set-ups need many for a steady median),
#: up to the third.  ``setup_s`` is their median.
SETUP_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 7, 0.2, 31
EXIT_WRONG, EXIT_NO_LIBRARY, EXIT_INVALID = 1, 2, 3


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small shapes, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process (so peak RSS is per workload)."""
    status, results = 0, {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        command += ["--tiny"] if args.tiny else []
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1] if child.returncode in (0, EXIT_WRONG) else lines))
        status = max(status, child.returncode)
        if child.returncode in (0, EXIT_WRONG) and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }))
    return status


def run_one(args: argparse.Namespace) -> int:
    from perfbench import report
    from perfbench.context import run_context
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    context = run_context(ROOT, args.workload, args.seed, args.seconds)

    # Time set-ups back to back, each dropped before the next, so every one
    # starts from the same memory state (serving first would leave its freed
    # buffers behind).  Then warm the serving path on a throw-away instance
    # and build the instance the drive uses afresh.
    setup_seconds: List[float] = []
    while len(setup_seconds) < SETUP_MAX_REPEATS and (
        len(setup_seconds) < SETUP_REPEATS or sum(setup_seconds) < SETUP_MIN_SECONDS
    ):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        setup_seconds.append(time.perf_counter() - started)
    state = None
    workload.warm(workload.setup())
    gc.collect()
    state = workload.setup()

    phases = []
    if not args.trace:
        untraced = workload.drive(state, args.seconds)
        phases.append(untraced)
        metrics = report.end_to_end(untraced, setup_seconds)
    else:
        with_hub_detached = args.workload == "fleet-rw"
        share = args.seconds / (3 if with_hub_detached else 2)
        untraced = workload.drive(state, share)
        state = None
        recorder = SpanRecorder()
        state = workload.setup()
        workload.instrument(state, recorder)
        traced = workload.drive(state, share)
        state = None
        detached = None
        if with_hub_detached:
            detached = workload.drive(workload.setup(hub=False), share)
        phases += [phase for phase in (untraced, traced, detached) if phase is not None]
        metrics = report.per_layer(workload, untraced, traced, recorder, detached)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        recorder.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json", context)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    for line in report.notes(phases[0]):
        print(line)

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    correct = failed == 0
    digests = {phase.episode.get("records_sha256") for phase in phases}
    if len(digests) > 1:
        correct = False
        print(f"records differ between phases of one seed: {sorted(digests)}")
    for phase in phases:
        for what in phase.offending:
            print(f"offending: {what}")
    if args.trace:
        coverage = metrics["trace.coverage_frac"][0]
        verdict = "ok" if coverage >= report.COVERAGE_MIN else "OUTSIDE TOLERANCE"
        print(f"trace reconciliation: coverage {coverage:.3f} >= {report.COVERAGE_MIN} {verdict}")
    late_p99 = report.percentile(phases[0].late_ms, 99.0)
    if late_p99 > report.LATE_LIMIT_MS:
        print(
            f"invalid run: the load generator issued requests up to {late_p99:.1f} ms "
            f"late at p99 (limit {report.LATE_LIMIT_MS} ms)"
        )
        return EXIT_INVALID
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else EXIT_WRONG


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro  # the library under test, from this checkout only
    except ImportError as error:
        print(f"perfbench: cannot import the library from {source}: {error}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    if source not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not the copy in {source}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
