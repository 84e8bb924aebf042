#!/usr/bin/env python3
"""Diff benchmark JSON artifacts, or print a whole history's trajectory.

Usage::

    python tools/bench_compare.py BASELINE.json CANDIDATE.json
    python tools/bench_compare.py benchmarks/history

With two files, every numeric leaf shared by both is printed side by side
with its relative change; leaves present in only one file are listed
separately so a schema drift is visible instead of silently ignored.  If the
two runs disagree on their ``shape`` or ``hardware`` context (different
database shape, core count, numpy version or thread-cap env), a warning is
printed to stderr first — wall-clock numbers from different shapes or
machines diff apples against oranges.

With a directory (the ``make bench`` archive), every ``BENCH_*.json`` in it
is listed oldest first — one row of headline metrics per run — followed by
the full first-vs-last diff.  Exit code is 0 unless inputs cannot be read
or share no numeric leaves.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Dict, List, Tuple


def flatten_numeric(value: object, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts/lists to ``dotted.path -> float`` for numeric leaves."""
    leaves: Dict[str, float] = {}
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(flatten_numeric(child, path))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            path = f"{prefix}[{index}]"
            leaves.update(flatten_numeric(child, path))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        leaves[prefix] = float(value)
    return leaves


#: Context sections that must match for a two-file diff to be meaningful.
CONTEXT_KEYS = ("shape", "hardware")


def context_warnings(baseline: Dict[str, object], candidate: Dict[str, object]) -> List[str]:
    """Human-readable mismatches between two runs' measurement contexts.

    Compares the raw (unflattened) ``shape`` and ``hardware`` sections; a
    section missing from either side is only a mismatch if the other side
    has it (old artifacts predate the ``hardware`` section).
    """
    warnings: List[str] = []
    for key in CONTEXT_KEYS:
        old, new = baseline.get(key), candidate.get(key)
        if old is None and new is None:
            continue
        if old != new:
            warnings.append(
                f"warning: {key} context differs between runs "
                f"({json.dumps(old, sort_keys=True)} vs "
                f"{json.dumps(new, sort_keys=True)}); "
                f"wall-clock changes may reflect the context, not the code"
            )
    return warnings


def compare(baseline: Dict[str, float], candidate: Dict[str, float]) -> str:
    """Render a side-by-side comparison of two flattened metric maps."""
    shared = sorted(set(baseline) & set(candidate))
    only_base = sorted(set(baseline) - set(candidate))
    only_cand = sorted(set(candidate) - set(baseline))

    width = max((len(path) for path in shared), default=20)
    lines = [f"{'metric':<{width}} {'baseline':>14} {'candidate':>14} {'change':>9}"]
    for path in shared:
        old, new = baseline[path], candidate[path]
        if old != 0:
            change = f"{(new - old) / abs(old) * 100.0:+8.1f}%"
        else:
            change = "    n/a" if new != 0 else "   +0.0%"
        lines.append(f"{path:<{width}} {old:>14.6g} {new:>14.6g} {change:>9}")
    for path in only_base:
        lines.append(f"{path:<{width}} {baseline[path]:>14.6g} {'-':>14} {'removed':>9}")
    for path in only_cand:
        lines.append(f"{path:<{width}} {'-':>14} {candidate[path]:>14.6g} {'added':>9}")
    return "\n".join(lines)


#: Headline columns for the trajectory table: (heading, dotted path, scale).
_HEADLINE: Tuple[Tuple[str, str, float], ...] = (
    ("batched q/s", "wall_clock.batched_qps", 1.0),
    ("speedup", "wall_clock.batched_vs_sequential_speedup", 1.0),
    ("records/s", "wall_clock.records_per_second", 1.0),
    ("p50 us", "simulated_impir.p50_latency_seconds", 1e6),
    ("p99 us", "simulated_impir.p99_latency_seconds", 1e6),
)


def load_history(directory: str) -> List[Tuple[str, Dict[str, float]]]:
    """The ``BENCH_*.json`` artifacts in ``directory``, oldest first.

    Ordered by each artifact's archive sequence number ``seq`` (written by
    ``archive_metrics``), so the order survives a checkout that gives every
    file the same mtime; artifacts without one sort first, by modification
    time and then name.  Returns ``(label, flattened metrics)`` pairs;
    unreadable files raise.
    """
    runs = []
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        runs.append(((int(data.get("seq", 0)), os.path.getmtime(path), path), data))
    history = []
    for (_, _, path), data in sorted(runs, key=lambda run: run[0]):
        label = data.get("tag") or os.path.basename(path)
        history.append((str(label), flatten_numeric(data)))
    return history


def render_trajectory(history: List[Tuple[str, Dict[str, float]]]) -> str:
    """One headline-metrics row per archived run, oldest first."""
    width = max(max(len(label) for label, _ in history), len("run"))
    header = f"{'run':<{width}}" + "".join(
        f" {heading:>14}" for heading, _, _ in _HEADLINE
    )
    lines = [header]
    for label, flat in history:
        cells = []
        for _, path, scale in _HEADLINE:
            value = flat.get(path)
            cells.append(
                f" {value * scale:>14,.2f}" if value is not None else f" {'-':>14}"
            )
        lines.append(f"{label:<{width}}" + "".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1 and os.path.isdir(argv[0]):
        try:
            history = load_history(argv[0])
        except (OSError, ValueError) as error:
            print(f"cannot read history in {argv[0]}: {error}", file=sys.stderr)
            return 2
        if not history:
            print(f"no BENCH_*.json artifacts in {argv[0]}", file=sys.stderr)
            return 1
        try:
            print(render_trajectory(history))
            if len(history) > 1:
                first, last = history[0], history[-1]
                print()
                print(f"full diff, {first[0]} -> {last[0]}:")
                print(compare(first[1], last[1]))
        except BrokenPipeError:
            return 0
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    raw = []
    for path in argv:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw.append(json.load(handle))
        except (OSError, ValueError) as error:
            print(f"cannot read {path}: {error}", file=sys.stderr)
            return 2
    for warning in context_warnings(raw[0], raw[1]):
        print(warning, file=sys.stderr)
    baseline, candidate = (flatten_numeric(data) for data in raw)
    if not set(baseline) & set(candidate):
        print("the two files share no numeric metrics", file=sys.stderr)
        return 1
    try:
        print(compare(baseline, candidate))
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
