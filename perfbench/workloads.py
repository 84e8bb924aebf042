"""The benchmark's workloads: seeded inputs, set-up, drive loop, checks.

Each workload turns a seed into its inputs before anything is timed, builds
the system through the public library surface (:meth:`Workload.setup`, the
part ``setup_s`` times), and drives one measured phase
(:meth:`Workload.drive`) that checks every retrieved record against the
database contents in effect when its flush ran.

* ``serve-small`` -- open loop: seeded Poisson arrivals at 50 req/s into an
  :class:`~repro.pir.async_frontend.AsyncPIRFrontend` over two ``reference``
  replicas of a 4096 x 32 B database (fits in L2).  The latency-bound
  serving path: flushes hold one or two queries, so DPF work dominates.
* ``serve-burst`` -- closed loop, one caller: the same frontend and
  database, driven in rounds that await 16 concurrent submits, so every
  flush fills on size.  The asyncio serving path without open-loop timing.
* ``batch-large`` -- closed loop, one caller:
  :meth:`~repro.pir.frontend.PIRFrontend.retrieve_batch` of 16 uniform
  indices over two ``reference`` replicas of 2^18 x 32 B (8 MiB: above L2,
  inside the LLC).  The throughput-bound server path.
* ``fleet-rw`` -- closed loop, one caller, over a
  :func:`~repro.control.plane.controlled_fleet` of 2^14 x 32 B in four
  shards with PIM children, dedup, a 64-record hot cache, rebalancing and an
  :class:`~repro.obs.hub.ObservabilityHub`.  Zipf(1.2) reads whose hot spot
  jumps between the first and the last shard; one operation in ten writes
  8 records.  The only workload that exercises shard, pim, control and obs.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import BatchingPolicy, Database, PIRClient, PIRFrontend, create_server
from repro.control.plane import controlled_fleet
from repro.dpf.prf import make_prg
from repro.obs.hub import ObservabilityHub
from repro.pir.async_frontend import AsyncPIRFrontend
from repro.shard.fleet import heats_from_trace
from repro.shard.plan import ShardPlan

from perfbench.spans import Interval, SpanRecorder

RECORD_SIZE = 32
#: Offending operations printed per run (the count is always complete).
MAX_REPORTED = 10


def _batch_len(args, kwargs, result) -> int:
    return len(args[0])


def _batch_query_ids(args, kwargs, result):
    return [query.query_id for query in args[0]]


def _query_id(args, kwargs, result) -> int:
    return result[0].query_id


def _answers_query_id(args, kwargs, result) -> int:
    return args[0][0].query_id


def wrap_client(recorder: SpanRecorder, client: PIRClient) -> None:
    recorder.wrap(client, "query", "client.query", request=_query_id)
    recorder.wrap(client, "reconstruct", "client.reconstruct", request=_answers_query_id)


def wrap_engine(recorder: SpanRecorder, engine, scan_name: str = "engine.scan") -> None:
    recorder.wrap(engine, "selector_matrix", "engine.eval", units=_batch_len)
    recorder.wrap(engine.backend, "execute_many", scan_name, units=_batch_len)


def wrap_replica(recorder: SpanRecorder, replica) -> None:
    recorder.wrap(
        replica,
        "answer_batch",
        "replica.answer_batch",
        units=_batch_len,
        queries=_batch_query_ids,
    )


@dataclass
class Phase:
    """What one measured drive produced."""

    #: Operations attempted (reads and writes) and how many failed.
    attempted: int = 0
    failed: int = 0
    #: Reads whose record came back byte-identical.
    verified: int = 0
    offending: List[str] = field(default_factory=list)
    #: Wall seconds from the first operation to the last completion.
    elapsed_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    #: Admission to flush start, where the drive loop can see both.
    queue_wait_ms: List[float] = field(default_factory=list)
    #: Open loop only: how late each request was issued, and the requests
    #: admitted but unanswered when the schedule's window closed.
    late_ms: List[float] = field(default_factory=list)
    backlog: int = 0
    #: Independent latency samples: flushes (a batch, a round) whose
    #: completion times the retrievals they served.
    flushes: int = 0
    #: Intervals during which the program worked for the benchmark.
    busy: List[Interval] = field(default_factory=list)
    frontend_metrics: Optional[object] = None
    #: ``fleet-rw``: figures snapshotted after exactly ``episode_ops`` ops.
    episode: Dict[str, object] = field(default_factory=dict)

    def note(self, what: str) -> None:
        if len(self.offending) < MAX_REPORTED:
            self.offending.append(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.note(what)

    def check(self, index: int, record, expected: bytes, latency_ms: float) -> None:
        """Count one read; a wrong or missing record is a failure."""
        self.attempted += 1
        if record is None:
            self.fail(f"index {index}: no record")
        elif record != expected:
            self.fail(f"index {index}: record differs from the database")
        else:
            self.verified += 1
            self.latencies_ms.append(latency_ms)


class Workload:
    """One workload's seeded inputs plus how to build and drive the system."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self, hub: bool = True):
        raise NotImplementedError

    def warm(self, state) -> None:
        """Exercise the code paths once on an instance that is then dropped."""
        raise NotImplementedError

    def instrument(self, state, recorder: SpanRecorder) -> None:
        raise NotImplementedError

    def drive(self, state, seconds: float) -> Phase:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# serve-small and serve-burst: the asyncio frontend over a small database
# ---------------------------------------------------------------------------


@dataclass
class _Replicated:
    database: Database
    client: PIRClient
    replicas: list
    frontend: object


def _instrument_replicated(state: _Replicated, recorder: SpanRecorder) -> None:
    wrap_client(recorder, state.client)
    for replica in state.replicas:
        wrap_replica(recorder, replica)
        wrap_engine(recorder, replica.engine)


def _reference_pair(num_records: int, seed: int) -> Tuple[Database, PIRClient, list]:
    database = Database.random(num_records, RECORD_SIZE, seed=seed)
    client = PIRClient(num_records, RECORD_SIZE, seed=seed, prg=make_prg("numpy"))
    replicas = [create_server("reference", database, server_id=i) for i in range(2)]
    return database, client, replicas


class _AsyncSmall(Workload):
    policy = BatchingPolicy(max_batch_size=16, max_wait_seconds=0.002)

    @property
    def num_records(self) -> int:
        return 256 if self.tiny else 4096

    def setup(self, hub: bool = True) -> _Replicated:
        database, client, replicas = _reference_pair(self.num_records, self.seed)
        frontend = AsyncPIRFrontend(client, replicas, policy=self.policy)
        return _Replicated(database, client, replicas, frontend)

    def instrument(self, state: _Replicated, recorder: SpanRecorder) -> None:
        _instrument_replicated(state, recorder)


class ServeSmall(_AsyncSmall):
    name = "serve-small"
    rate_per_s = 50.0
    warm_requests = 8

    def schedule(self, seconds: float) -> Tuple[np.ndarray, np.ndarray]:
        """Arrival offsets and indices, fixed from the seed before sending.

        A Poisson process conditioned on ``rate x seconds`` arrivals: the
        arrival instants are sorted uniform draws over the window.
        """
        rng = np.random.default_rng([self.seed, 1])
        count = max(1, int(round(self.rate_per_s * seconds)))
        offsets = np.sort(rng.uniform(0.0, seconds, count))
        indices = rng.integers(0, self.num_records, count)
        return offsets, indices

    def warm(self, state: _Replicated) -> None:
        self.drive(state, 0.2)

    def drive(self, state: _Replicated, seconds: float) -> Phase:
        offsets, indices = self.schedule(seconds)
        return asyncio.run(self._serve(state, seconds, offsets, indices))

    async def _serve(self, state, seconds, offsets, indices) -> Phase:
        loop = asyncio.get_running_loop()
        frontend = state.frontend
        records = state.database.records
        clock = time.perf_counter
        # Sequential warm-up inside this loop: starts the replica worker
        # threads and the wait timer before the schedule begins.
        for index in range(min(self.warm_requests, self.num_records)):
            await frontend.submit(index)
        warm_flushes = frontend.metrics.batches_dispatched

        count = len(offsets)
        issued = [0.0] * count
        done = [0.0] * count
        results: List[object] = [None] * count

        async def request(k: int) -> None:
            issued[k] = loop.time()
            try:
                results[k] = await frontend.submit(int(indices[k]))
            except Exception as error:  # counted and reported below
                results[k] = error
            done[k] = loop.time()

        tasks = []
        start = loop.time() + 0.01
        pc_offset = clock() - loop.time()
        for k in range(count):
            delay = start + offsets[k] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(request(k)))
        await asyncio.gather(*tasks)

        phase = Phase()
        window_end = start + seconds
        for k in range(count):
            due = start + offsets[k]
            index = int(indices[k])
            phase.late_ms.append((issued[k] - due) * 1e3)
            if issued[k] <= window_end < done[k]:
                phase.backlog += 1
            phase.busy.append((issued[k] + pc_offset, done[k] + pc_offset))
            result = results[k]
            if isinstance(result, Exception):
                phase.attempted += 1
                phase.fail(f"index {index}: {type(result).__name__}: {result}")
                continue
            phase.check(index, result, records[index].tobytes(), (done[k] - due) * 1e3)
        phase.elapsed_s = max(done) - start
        phase.frontend_metrics = frontend.metrics
        phase.flushes = frontend.metrics.batches_dispatched - warm_flushes
        await frontend.close()
        return phase


class ServeBurst(_AsyncSmall):
    name = "serve-burst"
    round_size = 16

    def rounds(self) -> Iterator[np.ndarray]:
        rng = np.random.default_rng([self.seed, 4])
        while True:
            yield rng.integers(0, self.num_records, self.round_size)

    def warm(self, state: _Replicated) -> None:
        self.drive(state, 0.0)

    def drive(self, state: _Replicated, seconds: float) -> Phase:
        return asyncio.run(self._rounds(state, seconds))

    async def _rounds(self, state: _Replicated, seconds: float) -> Phase:
        frontend = state.frontend
        records = state.database.records
        clock = time.perf_counter
        # One untimed round inside this loop starts the replica worker threads.
        await asyncio.gather(*(frontend.submit(i) for i in range(self.round_size)))

        async def request(index: int):
            # Submit generates the query before it yields, so the requests
            # of a round are admitted one after another: time each from its own
            # submit to the flush completion that resumes it.
            submitted = clock()
            try:
                result = await frontend.submit(index)
            except Exception as error:  # counted and reported below
                result = error
            return result, (clock() - submitted) * 1e3

        phase = Phase()
        start = clock()
        for indices in self.rounds():
            issued = clock()
            results = await asyncio.gather(*(request(int(index)) for index in indices))
            phase.busy.append((issued, clock()))
            phase.flushes += 1
            for index, (result, latency_ms) in zip(indices, results):
                index = int(index)
                if isinstance(result, Exception):
                    phase.attempted += 1
                    phase.fail(f"index {index}: {type(result).__name__}: {result}")
                    continue
                phase.check(index, result, records[index].tobytes(), latency_ms)
            if clock() - start >= seconds:
                break
        phase.elapsed_s = clock() - start
        phase.frontend_metrics = frontend.metrics
        await frontend.close()
        return phase


# ---------------------------------------------------------------------------
# batch-large: closed-loop retrieve_batch over an LLC-resident database
# ---------------------------------------------------------------------------


class BatchLarge(Workload):
    name = "batch-large"
    batch_size = 16

    @property
    def num_records(self) -> int:
        return 1024 if self.tiny else 1 << 18

    def batches(self) -> Iterator[np.ndarray]:
        rng = np.random.default_rng([self.seed, 2])
        while True:
            yield rng.integers(0, self.num_records, self.batch_size)

    def setup(self, hub: bool = True) -> _Replicated:
        database, client, replicas = _reference_pair(self.num_records, self.seed)
        frontend = PIRFrontend(
            client, replicas, policy=BatchingPolicy(max_batch_size=self.batch_size)
        )
        return _Replicated(database, client, replicas, frontend)

    def warm(self, state: _Replicated) -> None:
        state.frontend.retrieve_batch(range(self.batch_size))

    def instrument(self, state: _Replicated, recorder: SpanRecorder) -> None:
        _instrument_replicated(state, recorder)

    def drive(self, state: _Replicated, seconds: float) -> Phase:
        clock = time.perf_counter
        records = state.database.records
        phase = Phase()
        start = clock()
        for indices in self.batches():
            issued = clock()
            try:
                got = state.frontend.retrieve_batch([int(i) for i in indices])
            except Exception as error:  # each index is then counted missing
                got = [None] * len(indices)
                phase.note(f"retrieve_batch raised {type(error).__name__}: {error}")
            finished = clock()
            phase.busy.append((issued, finished))
            phase.flushes += 1
            for index, record in zip(indices, got):
                phase.check(
                    int(index), record, records[index].tobytes(), (finished - issued) * 1e3
                )
            if finished - start >= seconds:
                break
        phase.elapsed_s = clock() - start
        phase.frontend_metrics = state.frontend.metrics
        return phase


# ---------------------------------------------------------------------------
# fleet-rw: reads and writes through the controlled, observed shard fleet
# ---------------------------------------------------------------------------


@dataclass
class _Fleet:
    database: Database
    client: PIRClient
    router: object
    plane: object
    hub: Optional[ObservabilityHub]


@dataclass(frozen=True)
class _Op:
    index: int = -1
    #: ``(index, record bytes)`` pairs; empty for a read.
    updates: Tuple[Tuple[int, bytes], ...] = ()


class FleetRW(Workload):
    name = "fleet-rw"
    num_shards = 4
    zipf_exponent = 1.2
    write_every = 10
    records_per_write = 8
    #: Simulated seconds between operations (heat windows repeat exactly).
    gap_seconds = 0.02
    policy = BatchingPolicy(max_batch_size=16, max_wait_seconds=10.0)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.heat_sample, self.heat_stamps = self._first_half_reads()

    @property
    def num_records(self) -> int:
        return 1024 if self.tiny else 1 << 14

    @property
    def block_records(self) -> int:
        return 16 if self.tiny else 64

    @property
    def episode_ops(self) -> int:
        """Operations after which the deterministic figures are read off.

        The hot spot sits on the first shard for the first half of every
        episode and on the last shard for the second half.
        """
        return 200 if self.tiny else 800

    @property
    def plan(self) -> ShardPlan:
        return ShardPlan.uniform(
            self.num_records, self.num_shards, block_records=self.block_records
        )

    def ops(self) -> Iterator[_Op]:
        """The seeded operation stream (same seed, same stream)."""
        rng = np.random.default_rng([self.seed, 3])
        ranks = np.arange(1, self.num_records + 1, dtype=np.float64)
        cdf = np.cumsum(ranks ** -self.zipf_exponent)
        cdf /= cdf[-1]
        shards = self.plan.shards
        half = self.episode_ops // 2
        position = 0
        while True:
            offset = shards[0 if (position // half) % 2 == 0 else -1].start
            draws = np.searchsorted(cdf, rng.random(self.records_per_write), side="right")
            picks = [(offset + int(draw)) % self.num_records for draw in draws]
            if position % self.write_every == self.write_every - 1:
                payload = rng.integers(
                    0, 256, (self.records_per_write, RECORD_SIZE), dtype=np.uint8
                )
                yield _Op(updates=tuple((i, row.tobytes()) for i, row in zip(picks, payload)))
            else:
                yield _Op(index=picks[0])
            position += 1

    def _first_half_reads(self) -> Tuple[List[int], List[float]]:
        """The first half-episode's reads and their simulated arrival times."""
        sample, stamps = [], []
        for position, op in zip(range(self.episode_ops // 2), self.ops()):
            if not op.updates:
                sample.append(op.index)
                stamps.append(position * self.gap_seconds)
        return sample, stamps

    def setup(self, hub: bool = True) -> _Fleet:
        database = Database.random(self.num_records, RECORD_SIZE, seed=self.seed)
        client = PIRClient(
            self.num_records, RECORD_SIZE, seed=self.seed, prg=make_prg("numpy")
        )
        observability = ObservabilityHub() if hub else None
        plan = self.plan
        # Placement input: heat measured on the first half-episode's reads.
        heats = heats_from_trace(
            plan,
            self.heat_sample,
            arrival_seconds=self.heat_stamps,
            window_seconds=0.2,
            decay=0.5,
        )
        router, plane = controlled_fleet(
            client,
            database,
            plan,
            heats,
            window_seconds=0.2,
            decay=0.5,
            rebalance_interval_seconds=0.4,
            cache_capacity=64,
            admit_min_heat=1.0,
            dedup=True,
            policy=self.policy,
            hub=observability,
        )
        return _Fleet(database, client, router, plane, observability)

    def warm(self, state: _Fleet) -> None:
        self._run(state, float("inf"), max_ops=3 * self.write_every)

    def instrument(self, state: _Fleet, recorder: SpanRecorder) -> None:
        wrap_client(recorder, state.client)
        for group in state.router.replicas:
            wrap_replica(recorder, group)
            recorder.wrap(group, "apply_updates", "replica.apply_updates")
            for member in group.members:
                self._wrap_sharded(recorder, member)
        recorder.wrap(state.plane, "observe_batch", "control.observe")
        if state.hub is not None:
            recorder.wrap(state.hub, "observe_flush", "obs.observe_flush")

    @staticmethod
    def _wrap_sharded(recorder: SpanRecorder, member) -> None:
        """Wrap a sharded server's engine, and its shard children per call.

        Migrations swap children in, so every scan first wraps whatever
        children the fleet holds at that moment (a no-op for ones already
        wrapped).
        """
        backend = member.engine.backend
        execute_many = backend.execute_many

        def rewrap_children_then_scan(*args, **kwargs):
            for _, child in backend.members:
                recorder.wrap(child, "execute_many", "pim.execute", units=_batch_len)
            return execute_many(*args, **kwargs)

        backend.execute_many = rewrap_children_then_scan
        wrap_engine(recorder, member.engine, scan_name="shard.execute")

    def drive(self, state: _Fleet, seconds: float) -> Phase:
        return self._run(state, seconds, min_ops=self.episode_ops)

    def _run(
        self, state: _Fleet, seconds: float, min_ops: int = 0, max_ops: Optional[int] = None
    ) -> Phase:
        clock = time.perf_counter
        router = state.router
        shadow = state.database.records.copy()
        phase = Phase()
        pending: List[Tuple[int, int, float, int]] = []
        episode_records: List[bytes] = []

        def settle(trigger: float, finished: float) -> None:
            phase.flushes += bool(pending)
            for request_id, index, submitted, position in pending:
                try:
                    record = router.take_record(request_id)
                except Exception:  # counted as a missing record
                    record = None
                phase.check(
                    index, record, shadow[index].tobytes(), (finished - submitted) * 1e3
                )
                phase.queue_wait_ms.append((trigger - submitted) * 1e3)
                if position < self.episode_ops:
                    episode_records.append(record or b"")
            pending.clear()

        def lose_pending(error: Exception) -> None:
            for _, index, _, _ in pending:
                phase.attempted += 1
                phase.fail(f"index {index}: {type(error).__name__}: {error}")
            pending.clear()

        now = 0.0
        start = clock()
        for position, op in enumerate(self.ops()):
            if position == self.episode_ops:
                phase.episode = self._snapshot(state, clock() - start)
            if max_ops is not None and position >= max_ops:
                break
            if position >= min_ops and clock() - start >= seconds:
                break
            issued = clock()
            if not op.updates:
                try:
                    request_id = router.submit(op.index, arrival_seconds=now)
                except Exception as error:  # the flush it triggered failed
                    lose_pending(error)
                    phase.attempted += 1
                    phase.fail(f"index {op.index}: {type(error).__name__}: {error}")
                else:
                    finished = clock()
                    phase.busy.append((issued, finished))
                    pending.append((request_id, op.index, issued, position))
                    if router.pending_count == 0:
                        settle(issued, finished)
            else:
                try:
                    router.close()
                    flushed = clock()
                    settle(issued, flushed)
                    router.apply_updates(op.updates)
                except Exception as error:  # counted and reported below
                    lose_pending(error)
                    phase.attempted += 1
                    phase.fail(f"write {[i for i, _ in op.updates]}: {error}")
                else:
                    finished = clock()
                    phase.attempted += 1
                    phase.busy.append((issued, finished))
                    phase.update_ms.append((finished - flushed) * 1e3)
                    for index, record in op.updates:
                        shadow[index] = np.frombuffer(record, dtype=np.uint8)
            now += self.gap_seconds
        issued = clock()
        try:
            router.close()
        except Exception as error:  # counted and reported below
            lose_pending(error)
        finished = clock()
        phase.busy.append((issued, finished))
        settle(issued, finished)
        phase.elapsed_s = clock() - start
        phase.frontend_metrics = router.metrics
        if phase.episode:
            phase.episode["records_sha256"] = hashlib.sha256(
                b"".join(episode_records)
            ).hexdigest()
        return phase

    @staticmethod
    def _snapshot(state: _Fleet, seconds: float) -> Dict[str, object]:
        metrics = state.router.metrics
        rebalancer = state.plane.rebalancer
        return {
            "seconds": seconds,
            "sim_retrievals_per_s": metrics.throughput_qps,
            "cache_hit_frac": metrics.cache_hits / max(1, metrics.requests_served),
            "migrations": rebalancer.total_migrations if rebalancer is not None else 0,
        }


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    workload.name: workload for workload in (ServeSmall, ServeBurst, BatchLarge, FleetRW)
}
