"""Turning measured phases and spans into the named metrics.

End-to-end metrics come from an untraced phase; per-layer metrics from a
traced phase's spans, compared against the untraced one where a metric is
an overhead.  Every name here is also listed, with its unit, in the
repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import resource
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.spans import SpanRecorder, coverage, self_seconds
from perfbench.workloads import RECORD_SIZE, Phase, Workload

#: Percentiles tried for the latency tail, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
#: Independent samples (flushes) a tail percentile needs beyond it.
MIN_BEYOND = 10

#: ``trace.coverage_frac`` must reach this: layer spans account for at
#: least this share of the time the program spent on the benchmark's calls.
#: The rest is frontend bookkeeping the wrappers do not split out (answer
#: pairing, metrics folding, the asyncio hand-offs and max-wait timer).
COVERAGE_MIN = 0.80

#: Generator lateness p99 above this marks an open-loop run invalid: the
#: longest single call the program makes on the event loop is a few
#: milliseconds, so issuing this late means the generator or the host
#: stalled, and latencies would no longer describe the program.
LATE_LIMIT_MS = 50.0

END_TO_END_UNITS = {
    "retrievals_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "client.query.ms_per_req": "ms",
    "client.reconstruct.ms_per_req": "ms",
    "frontend.queue_wait_ms_p50": "ms",
    "frontend.batch_size_mean": "count",
    "frontend.dedup_frac": "fraction",
    "engine.eval.ms_per_query": "ms",
    "engine.scan.ms_per_query": "ms",
    "engine.scan.gb_per_s": "GB/s",
    "engine.answer.self_ms_per_query": "ms",
    "shard.execute.ms_per_query": "ms",
    "pim.execute.ms_per_query": "ms",
    "cache.hit_frac": "fraction",
    "control.observe.ms_per_flush": "ms",
    "control.migrations": "count",
    "obs.observe_flush.ms_per_flush": "ms",
    "obs.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

Metrics = Dict[str, Tuple[float, str]]


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(values, pct)) if len(values) else 0.0


def tail(values: Sequence[float], independent: int) -> Tuple[float, float]:
    """``(percentile, value)`` of ``values``: the highest ladder percentile
    with at least :data:`MIN_BEYOND` of the ``independent`` samples beyond it
    (the median when none qualifies).

    Retrievals served by one flush share its completion time, so the rule
    counts flushes, not retrievals.
    """
    for pct in TAIL_LADDER:
        if round(independent * (100.0 - pct), 6) >= 100 * MIN_BEYOND:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def retrievals_per_s(phase: Phase) -> float:
    """Verified retrievals per wall second over the whole timed window (on
    the open loop a shortfall against the offered rate means backlog)."""
    return phase.verified / phase.elapsed_s if phase.elapsed_s > 0 else 0.0


def end_to_end(phase: Phase, setup_seconds: Sequence[float]) -> Metrics:
    values = {
        "retrievals_per_s": retrievals_per_s(phase),
        "latency_p50_ms": percentile(phase.latencies_ms, 50.0),
        "latency_tail_ms": tail(phase.latencies_ms, phase.flushes)[1],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(setup_seconds),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def notes(phase: Phase) -> List[str]:
    """The end-to-end figures that hold on some workloads only, and the
    detail behind the headline ones, as printable lines."""
    pct, _ = tail(phase.latencies_ms, phase.flushes)
    lines = [
        f"latency_tail_ms is p{pct:g} of {len(phase.latencies_ms)} retrievals "
        f"served by {phase.flushes} flushes",
        f"error_frac {phase.failed / max(1, phase.attempted):.6g} "
        f"({phase.failed} failed of {phase.attempted} attempted)",
    ]
    if phase.update_ms:
        lines.append(
            f"update_p50_ms {percentile(phase.update_ms, 50.0):.6g} ms "
            f"({len(phase.update_ms)} apply_updates calls)"
        )
    if phase.episode:
        lines.append(
            f"sim_retrievals_per_s {phase.episode['sim_retrievals_per_s']!r} 1/s "
            "(simulated UPMEM throughput over the first episode; deterministic)"
        )
    if phase.late_ms:
        lines.append(
            f"loadgen late p99 {percentile(phase.late_ms, 99.0):.6g} ms, "
            f"backlog at window end {phase.backlog} request(s)"
        )
    return lines


def _queue_waits_from_spans(spans) -> List[float]:
    """Admission to dispatch per query, for frontends that generate a
    query when the request is submitted (no dedup)."""
    dispatched: Dict[int, float] = {}
    for span in spans:
        if span.name == "replica.answer_batch":
            for query_id in span.queries:
                dispatched[query_id] = min(dispatched.get(query_id, span.start), span.start)
    return [
        (dispatched[span.request] - span.start) * 1e3
        for span in spans
        if span.name == "client.query" and span.request in dispatched
    ]


def per_layer(
    workload: Workload,
    untraced: Phase,
    traced: Phase,
    recorder: SpanRecorder,
    detached: Optional[Phase] = None,
) -> Metrics:
    """Per-layer figures from the traced phase ``traced``.

    Per-query figures divide by replica queries (each retrieval sends one
    query to each of the two replicas); ``engine.scan`` covers whatever
    backend the engine drives, so on the sharded fleet it equals shard
    plus PIM time.
    """
    spans = recorder.spans
    own = self_seconds(spans)
    count: Dict[str, int] = {}
    units: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    self_total: Dict[str, float] = {}
    for span in spans:
        count[span.name] = count.get(span.name, 0) + 1
        units[span.name] = units.get(span.name, 0) + span.units
        seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
        self_total[span.name] = self_total.get(span.name, 0.0) + own[span.sid]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def ms_per_call(name: str) -> float:
        return ratio(seconds.get(name, 0.0), count.get(name, 0)) * 1e3

    scan_seconds = seconds.get("engine.scan", 0.0) + seconds.get("shard.execute", 0.0)
    scan_units = units.get("engine.scan", 0) + units.get("shard.execute", 0)
    frontend = traced.frontend_metrics
    served = frontend.requests_served
    waits = traced.queue_wait_ms or _queue_waits_from_spans(spans)
    if untraced.late_ms:  # open loop: throughput is the offered rate, compare latency
        overhead = ratio(
            percentile(traced.latencies_ms, 50.0), percentile(untraced.latencies_ms, 50.0)
        ) - 1.0
    else:
        overhead = ratio(retrievals_per_s(untraced), retrievals_per_s(traced)) - 1.0
    obs_overhead = 0.0
    if detached is not None:
        obs_overhead = ratio(untraced.episode["seconds"], detached.episode["seconds"]) - 1.0

    values = {
        "client.query.ms_per_req": ms_per_call("client.query"),
        "client.reconstruct.ms_per_req": ms_per_call("client.reconstruct"),
        "frontend.queue_wait_ms_p50": percentile(waits, 50.0),
        "frontend.batch_size_mean": ratio(served, frontend.batches_dispatched),
        "frontend.dedup_frac": ratio(frontend.deduped_requests, served),
        "engine.eval.ms_per_query": ratio(seconds.get("engine.eval", 0.0), units.get("engine.eval", 0)) * 1e3,
        "engine.scan.ms_per_query": ratio(scan_seconds, scan_units) * 1e3,
        "engine.scan.gb_per_s": ratio(
            scan_units * workload.num_records * RECORD_SIZE, scan_seconds
        ) / 1e9,
        "engine.answer.self_ms_per_query": ratio(
            self_total.get("replica.answer_batch", 0.0), units.get("replica.answer_batch", 0)
        ) * 1e3,
        "shard.execute.ms_per_query": ratio(
            self_total.get("shard.execute", 0.0), units.get("shard.execute", 0)
        ) * 1e3,
        "pim.execute.ms_per_query": ratio(
            seconds.get("pim.execute", 0.0), units.get("shard.execute", 0)
        ) * 1e3,
        "cache.hit_frac": traced.episode.get(
            "cache_hit_frac", ratio(frontend.cache_hits, served)
        ),
        "control.observe.ms_per_flush": ms_per_call("control.observe"),
        "control.migrations": traced.episode.get("migrations", 0),
        "obs.observe_flush.ms_per_flush": ms_per_call("obs.observe_flush"),
        "obs.overhead_frac": obs_overhead,
        "trace.coverage_frac": coverage(spans, traced.busy),
        "trace.overhead_frac": overhead,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
