"""The benchmark's three workloads: set-up, measured run and checks.

Each workload builds its inputs from the seed, drives the program only
through its public calls (``build_offline_layout``,
``build_sharded_layout``, ``serve_query``/``serve_trace`` and
``GatewayCore.submit``) and returns a :class:`Outcome` holding its raw
measurements.  ``run.py`` turns outcomes into the printed metrics.

Closed-loop workloads (``engine-criteo``, ``cluster-criteo_tb-ha``)
replay the live half of the trace: one warm-up pass, then passes until
the wall budget is spent.  The first ``sim_passes`` measured passes are
fixed work, so their simulated figures depend on the seed only; the
wall figures cover every measured query.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import selectors
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import ClusterEngine, build_sharded_layout
from repro.core import MaxEmbedConfig, build_offline_layout
from repro.faults import FaultPlan
from repro.overload import AdmissionConfig, BrownoutConfig
from repro.partition import ShpConfig
from repro.service import CoalescerConfig, GatewayCore, ServiceConfig
from repro.serving import EngineConfig, ServingEngine
from repro.serving.stats import QueryResult, aggregate_results
from repro.types import Query
from repro.workloads import make_trace

import calibrate
from spans import Recorder

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Replication ratio r and forward-index limit k of every workload.
RATIO = 0.4
INDEX_LIMIT = 5
#: Simulated serving threads of the closed loops (the paper's 8).
THREADS = 8
#: Measured queries per latency window of the closed loops: the p99 of
#: a window rests on ten samples beyond it.
WINDOW_QUERIES = 1000


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """Measurements of one workload run (wall figures speed-normalised
    on the closed loops, see ``calibrate``)."""

    setup_s: float
    #: Seconds ``completed`` is divided by for ``wall_qps``.
    wall_s: float
    completed: int
    #: Operations attempted and those that errored (no answer at all).
    attempted: int
    failed: int
    #: Share of operations answered in full: closed loops, queries with
    #: no missing key (fixed-work passes); the gateway, requests neither
    #: shed, deadline-missed nor errored.
    ok_frac: float
    wall_p50_us: float
    wall_p99_us: float
    wall_samples: int
    slo_goodput_qps: float
    sim_qps: float
    sim_p50_us: float
    sim_p99_us: float
    sim_samples: int
    pages_per_query: float
    effective_bw: float
    dram_hit_rate: float
    coverage: float
    #: Median host speed over the run's calibration samples.
    host_speed: float
    #: Simulated per-query results of the fixed-work passes (closed loops).
    sim_results: List[QueryResult] = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in (0, 1] (0 for no samples)."""
    if len(values) == 0:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, int(np.ceil(q * len(ordered))) - 1)])


class SetupTimer:
    """Times each set-up it wraps, scaled to reference host speed by the
    speed sampled just before and just after it (see ``calibrate``)."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.times: List[float] = []
        self.speeds: List[float] = []

    def __enter__(self) -> "SetupTimer":
        gc.collect()
        self.speeds.append(calibrate.speed())
        self._span = self.rec.span("setup.other").__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self._span.__exit__(*exc_info)
        self.speeds.append(calibrate.speed())
        self.times.append(elapsed * (self.speeds[-2] + self.speeds[-1]) / 2)

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)


def windowed(values: Sequence[float], q: float) -> float:
    """Median, over consecutive windows of about ``WINDOW_QUERIES``
    values, of each window's quantile ``q``.

    A host disturbance slows the queries it overlaps; the median keeps
    it from moving the figure unless it spans most of the run.
    """
    count = max(1, len(values) // WINDOW_QUERIES)
    return statistics.median(
        percentile(chunk, q) for chunk in np.array_split(values, count)
    )


def _timed_setups(build: Callable[[], object], reps: int, rec: Recorder):
    """Run ``build`` ``reps`` times; return (median seconds, last result)."""
    timer = SetupTimer(rec)
    result = None
    for _ in range(reps):
        if result is not None:
            _close(result)
        result = None
        with timer:
            result = build()
    return timer.median_s, result


def _quiesce() -> None:
    """Collect garbage and freeze the survivors before a timed stretch.

    Frozen objects (the benchmark's own records, warm-up results) are
    never scanned again, so a collection during the measurement costs
    what the program allocates there, not what the run kept so far.
    """
    gc.collect()
    gc.freeze()


def _close(setup) -> None:
    close = getattr(setup, "close", None)
    if callable(close):
        close()


def _split(dataset: str, seed: int, rec: Recorder, limit: Optional[int]):
    with rec.span("workloads.gen"):
        trace, _ = make_trace(dataset, scale="bench", seed=seed)
        history, live = trace.split(0.5)
    queries = list(live)
    if limit is not None:
        queries = queries[:limit]
    return history, queries


def _offline_config(seed: int, **extra) -> MaxEmbedConfig:
    return MaxEmbedConfig(
        replication_ratio=RATIO,
        index_limit=INDEX_LIMIT,
        shp=ShpConfig(seed=seed),
        seed=seed,
        **extra,
    )


# -- closed loops ----------------------------------------------------------------


@dataclass
class ClosedSetup:
    """A built closed-loop system plus the means to build it afresh."""

    engine: object
    queries: List[Query]
    fresh: Callable[[], object]
    #: Measured passes whose simulated results are reported (and
    #: checked against ``serve_trace``).
    sim_passes: int

    def close(self) -> None:
        _close(self.engine)


@dataclass
class LoopRun:
    results: List[QueryResult]
    #: Speed-normalised wall seconds of each measured ``serve_query``.
    walls: array
    #: Per measured query: 1 when some key went unserved.
    degraded: bytearray
    #: Host speed sampled after each stretch (``calibrate.speed``).
    speeds: List[float]

    def good(self, slo_s: float) -> int:
        """Queries served in full within ``slo_s`` (normalised)."""
        return sum(
            1 for wall, bad in zip(self.walls, self.degraded)
            if not bad and wall <= slo_s
        )


def closed_loop(
    serve: Callable[[Query, float], QueryResult],
    queries: Sequence[Query],
    sim_passes: int,
    seconds: float,
    rec: Recorder,
) -> LoopRun:
    """Warm-up pass, then passes until ``seconds`` and the sim set are done.

    The warm-up pass is never recorded, so a traced call spans exactly
    the measured passes.  Dispatch follows ``serve_trace``: each query
    goes to the earliest free of ``THREADS`` simulated workers, so the
    first passes reproduce its report exactly.  The host speed is
    sampled after every ``calibrate.STRETCH_S`` of serving and the wall
    times are rescaled by it afterwards.
    """
    recording, rec.enabled = rec.enabled, False
    workers = [(0.0, t) for t in range(THREADS)]
    for query in queries:
        ready, thread = heapq.heappop(workers)
        heapq.heappush(workers, (serve(query, ready).finish_us, thread))
    rec.enabled = recording
    sim_queries = sim_passes * len(queries)
    results: List[QueryResult] = []
    walls = array("d")
    degraded = bytearray()
    speeds: List[float] = []
    ends: List[int] = []
    n = len(queries)
    clock = time.perf_counter
    _quiesce()
    with rec.span("bench.loop"):
        stop = clock() + seconds
        stretch_begin = clock()
        index = 0
        while True:
            ready, thread = heapq.heappop(workers)
            t0 = clock()
            result = serve(queries[index % n], ready)
            t1 = clock()
            heapq.heappush(workers, (result.finish_us, thread))
            walls.append(t1 - t0)
            degraded.append(result.missing_keys > 0)
            if index < sim_queries:
                results.append(result)
            index += 1
            done = index >= sim_queries and t1 >= stop
            if done or t1 - stretch_begin >= calibrate.STRETCH_S:
                with rec.span("bench.calibrate"):
                    speeds.append(calibrate.speed())
                ends.append(index)
                stretch_begin = clock()
            if done:
                break
    calibrate.rescale(walls, ends, speeds)
    return LoopRun(results, walls, degraded, speeds)


def _stream(setup: "ClosedSetup") -> List[Query]:
    """Warm-up pass plus the fixed-work passes, as ``serve_trace`` input."""
    return list(setup.queries) * (1 + setup.sim_passes)


def _same_report(a, b, what: str) -> None:
    """Fail unless two serving reports agree exactly."""
    for name in ("num_queries", "makespan_us", "total_pages_read",
                 "total_valid_embeddings", "total_cache_hits",
                 "total_tier_hits", "total_missing_keys", "latencies_us"):
        check(getattr(a, name) == getattr(b, name),
              f"{what}: {name} differs")


def _accounting(results: Sequence[QueryResult], full: bool) -> None:
    for r in results:
        check(
            r.requested_keys
            == r.tier_hits + r.cache_hits + r.ssd_keys + r.missing_keys,
            "requested != tier + cache + ssd + missing",
        )
        if full:
            check(r.missing_keys == 0, "a key went unserved")


def _closed_outcome(
    setup_s: float, run: LoopRun, spec, slo_s: float
) -> Outcome:
    report = aggregate_results(
        run.results,
        page_size=spec.page_size,
        embedding_bytes=spec.embedding_bytes,
    )
    degraded = sum(1 for r in run.results if r.missing_keys)
    serve_s = sum(run.walls)
    return Outcome(
        setup_s=setup_s,
        wall_s=serve_s,
        completed=len(run.walls),
        attempted=len(run.walls),
        failed=0,
        ok_frac=1.0 - degraded / len(run.results),
        wall_p50_us=windowed(run.walls, 0.50) * 1e6,
        wall_p99_us=windowed(run.walls, 0.99) * 1e6,
        wall_samples=len(run.walls),
        slo_goodput_qps=run.good(slo_s) / serve_s,
        sim_qps=report.throughput_qps(),
        sim_p50_us=percentile(report.latencies_us, 0.50),
        sim_p99_us=percentile(report.latencies_us, 0.99),
        sim_samples=len(report.latencies_us),
        pages_per_query=report.total_pages_read / report.num_queries,
        effective_bw=report.effective_bandwidth_fraction(),
        dram_hit_rate=report.dram_hit_rate(),
        coverage=report.coverage(),
        host_speed=statistics.median(run.speeds),
        sim_results=run.results,
    )


def run_closed(
    build: Callable[[Recorder], ClosedSetup],
    seconds: float,
    slo_s: float,
    rec: Recorder,
    full_coverage: bool,
) -> Outcome:
    """Untraced closed-loop run with the ``serve_trace`` cross-check."""
    setup_s, setup = _timed_setups(lambda: build(rec), SETUP_REPS, rec)
    try:
        run = closed_loop(
            setup.engine.serve_query, setup.queries, setup.sim_passes,
            seconds, rec
        )
        spec = setup.engine.config.spec
    finally:
        setup.close()
    _accounting(run.results, full_coverage)
    reference = setup.fresh()
    try:
        expected = reference.serve_trace(
            _stream(setup), warmup_queries=len(setup.queries)
        )
    finally:
        _close(reference)
    expected = getattr(expected, "report", expected)
    got = aggregate_results(
        run.results,
        page_size=spec.page_size,
        embedding_bytes=spec.embedding_bytes,
    )
    _same_report(got, expected, "closed loop vs serve_trace")
    return _closed_outcome(setup_s, run, spec, slo_s)


def run_closed_traced(
    build: Callable[[Recorder], ClosedSetup],
    slo_s: float,
    rec: Recorder,
    full_coverage: bool,
) -> Tuple[Outcome, float]:
    """Traced closed-loop run over the fixed-work passes only.

    The same passes run first untraced on a fresh system; the traced
    simulated results must equal them.  Returns the traced outcome and
    the untraced (speed-normalised) serving seconds of the same work.
    """
    rec.enabled = True
    timer = SetupTimer(rec)
    with timer:
        setup = build(rec)
    rec.enabled = False
    untraced = setup.fresh()
    try:
        plain = closed_loop(
            untraced.serve_query, setup.queries, setup.sim_passes, 0.0, rec
        )
    finally:
        _close(untraced)
    try:
        rec.enabled = True
        run = closed_loop(
            setup.engine.serve_query, setup.queries, setup.sim_passes, 0.0,
            rec
        )
        rec.enabled = False
        spec = setup.engine.config.spec
    finally:
        rec.enabled = False
        setup.close()
    _accounting(run.results, full_coverage)
    check(len(run.results) == len(plain.results),
          "traced and untraced runs served different query counts")
    for a, b in zip(run.results, plain.results):
        check(
            (a.pages_read, a.start_us, a.finish_us, a.missing_keys)
            == (b.pages_read, b.start_us, b.finish_us, b.missing_keys),
            "traced run's simulated results differ from the untraced run",
        )
    return (_closed_outcome(timer.median_s, run, spec, slo_s),
            sum(plain.walls))


# -- engine-criteo ----------------------------------------------------------------

ENGINE_CONFIG = EngineConfig(
    cache_ratio=0.10,
    index_limit=INDEX_LIMIT,
    executor="pipelined",
    device_command_path="paged",
    threads=THREADS,
)


def build_engine(seed: int, rec: Recorder) -> ClosedSetup:
    """One ``ServingEngine`` on criteo: the paper's single-node setup."""
    history, queries = _split("criteo", seed, rec, limit=None)
    layout = build_offline_layout(history, _offline_config(seed))

    def fresh() -> ServingEngine:
        return ServingEngine(layout, ENGINE_CONFIG)

    with rec.span("setup.engine"):
        engine = fresh()
    return ClosedSetup(engine, queries, fresh, sim_passes=2)


# -- cluster-criteo_tb-ha ----------------------------------------------------------

#: Live queries the cluster replays per pass (a pass of all 15,000 would
#: cost most of the run budget at the cluster's wall rate).
CLUSTER_QUERIES = 2000
CLUSTER_SHARDS = 4


def cluster_config(seed: int) -> EngineConfig:
    """Pinned tier, batched commands, R=2 with hedging, device faults."""
    return EngineConfig(
        index_limit=INDEX_LIMIT,
        tier_mode="pinned",
        tier_ratio=0.10,
        device_command_path="batched",
        threads=THREADS,
        replicas=2,
        hedge_quantile=0.95,
        hedge_budget=0.10,
        fault_plan=FaultPlan(
            seed=seed, read_error_rate=0.03, dead_page_rate=0.01
        ),
    )


def build_cluster(seed: int, rec: Recorder) -> ClosedSetup:
    """A 4-shard cooccurrence cluster on criteo_tb (serial shard builds)."""
    history, queries = _split("criteo_tb", seed, rec, limit=CLUSTER_QUERIES)
    with rec.span("cluster.shard_build"):
        sharded = build_sharded_layout(
            history,
            _offline_config(
                seed,
                num_shards=CLUSTER_SHARDS,
                shard_strategy="cooccurrence",
            ),
            workers=1,
        )
    config = cluster_config(seed)

    def fresh() -> ClusterEngine:
        return ClusterEngine(sharded, config)

    with rec.span("setup.engine"):
        engine = fresh()
    return ClosedSetup(engine, queries, fresh, sim_passes=1)


# -- gateway-amazon_m2 -------------------------------------------------------------

#: Requests the saturating closed loop keeps in flight: one full
#: coalescer batch, submitted together once the previous one replied.
IN_FLIGHT = 16
#: Rounds of the saturating closed loop per measured second.  The loop
#: is fixed work, so its simulated figures and the memory the program
#: keeps for it depend on the seed only; the host the benchmark was
#: written on served 630-920 rounds a second, so it took half to three
#: quarters of the measured time there.
SATURATE_ROUNDS_PER_S = 450
#: Offered wall rates (requests/s): two below the knee of the latency
#: curve, one well above capacity (forces shedding and brownout).
GATEWAY_RATES = (1000.0, 2000.0, 12000.0)
#: Share of the measured seconds each rate runs for (after the closed
#: loop; fixed, so the requests offered depend on the seed only).
PHASE_SHARES = (0.15, 0.1, 0.05)
#: Failed share (shed + deadline misses + errors) a rate may have and
#: still count toward the per-layer ``loadgen.slo_rate_qps``.
FAILED_CAP = 0.01
#: Unmeasured open-loop seconds before the first measured rate.
SETTLE_S = 0.5
#: Longest a finished phase may take to drain its outstanding requests.
DRAIN_S = 10.0
#: Latency percentiles are taken per window of this many seconds of
#: offered load and the median over the windows is reported, so one
#: host stall moves one window, not the figure.
WINDOW_S = 1.0

GATEWAY_ENGINE = EngineConfig(
    cache_ratio=0.10,
    index_limit=INDEX_LIMIT,
    executor="pipelined",
    device_command_path="paged",
    threads=THREADS,
)

#: Coalescing, bounded deadline admission and brownout.  Queue waits
#: and the brownout signal are wall microseconds at the gateway.
GATEWAY_SERVICE = ServiceConfig(
    coalescer=CoalescerConfig(enabled=True, max_batch=16, max_wait_us=500.0),
    admission=AdmissionConfig(
        capacity=64, policy="deadline", queue_deadline_us=2_500.0
    ),
    brownout=BrownoutConfig(
        high_watermark_us=2_500.0,
        low_watermark_us=600.0,
        window=256,
        dwell_us=50_000.0,
    ),
)


@dataclass
class GatewaySetup:
    core: GatewayCore
    queries: List[Query]


@dataclass
class Request:
    """One offered request; times are ``perf_counter`` seconds."""

    phase: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: str = ""
    reason: str = ""
    requested: int = 0
    served: int = 0
    degraded: bool = False
    coalesced: int = 1
    batch_pages: int = 0
    sim_start_us: float = 0.0
    sim_finish_us: float = 0.0

    @property
    def latency_us(self) -> float:
        """Due time to reply."""
        return (self.done - self.due) * 1e6


@dataclass
class Phase:
    rate: float
    requests: List[Request]
    p50_us: float
    p99_us: float
    lag_p99_us: float
    backlog_end: int

    @property
    def ok(self) -> List[Request]:
        return [r for r in self.requests if r.status == "ok"]

    @property
    def failed(self) -> int:
        return len(self.requests) - len(self.ok)

    def meets(self, slo_us: float) -> bool:
        """Latency and generator lag within the limit, backlog bounded
        (what the rate keeps in flight over one limit), few failures."""
        return (
            bool(self.ok)
            and self.p99_us <= slo_us
            and self.lag_p99_us <= slo_us
            and self.backlog_end <= max(16, self.rate * slo_us * 1e-6)
            and self.failed <= FAILED_CAP * len(self.requests)
        )


def poisson_schedule(rng: np.random.Generator, rate: float,
                     seconds: float) -> np.ndarray:
    """Due offsets (s) of a Poisson arrival process over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    due = np.cumsum(gaps)
    return due[due < seconds]


def windows(requests: Sequence[Request], q: float) -> List[float]:
    """Latency quantile ``q`` of each ``WINDOW_S`` window of due times.

    Windows restart with each phase, so they never mix two rates.
    """
    windows: Dict[Tuple[int, int], List[float]] = {}
    starts: Dict[int, float] = {}
    for r in requests:
        starts[r.phase] = min(starts.get(r.phase, r.due), r.due)
    for r in requests:
        key = (r.phase, int((r.due - starts[r.phase]) / WINDOW_S))
        windows.setdefault(key, []).append(r.latency_us)
    return [percentile(v, q) for v in windows.values()]


class _IdleTimingSelector(selectors.DefaultSelector):
    """The event loop's selector, recording when the loop sat idle."""

    def __init__(self, rec: Recorder) -> None:
        super().__init__()
        self._rec = rec

    def select(self, timeout=None):
        if not self._rec.enabled:
            return super().select(timeout)
        start = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self._rec.idle.append((start, time.perf_counter()))


async def _gateway_setup(seed: int, rec: Recorder) -> GatewaySetup:
    history, queries = _split("amazon_m2", seed, rec, limit=None)
    layout = build_offline_layout(history, _offline_config(seed))
    with rec.span("setup.engine"):
        engine = ServingEngine(layout, GATEWAY_ENGINE)
    with rec.span("setup.gateway"):
        core = GatewayCore(engine, GATEWAY_SERVICE)
        await core.start()
    return GatewaySetup(core, queries)


async def _fire(core: GatewayCore, request: Request, keys) -> None:
    request.sent = time.perf_counter()
    outcome = await core.submit(keys)
    request.done = time.perf_counter()
    request.status = outcome.status
    request.reason = outcome.shed_reason or ""
    request.requested = len(set(keys))
    request.served = outcome.served
    request.degraded = outcome.degrade_level > 0
    request.coalesced = outcome.coalesced
    request.batch_pages = outcome.batch_pages_read
    request.sim_start_us = outcome.start_us
    request.sim_finish_us = outcome.finish_us


async def _warm(core: GatewayCore, queries: Sequence[Query]) -> List[Request]:
    """One pass over the live queries, 16 at a time, to fill the cache."""
    warm: List[Request] = []
    for lo in range(0, len(queries), 16):
        batch = [Request(phase=-1, due=0.0) for _ in queries[lo:lo + 16]]
        await asyncio.gather(*(
            _fire(core, request, query.keys)
            for request, query in zip(batch, queries[lo:lo + 16])
        ))
        warm.extend(batch)
    return warm


async def _offer(core: GatewayCore, queries: Sequence[Query], phase: int,
                 rate: float, due: np.ndarray, first: int,
                 rec: Recorder) -> Phase:
    """Offer one rate's schedule and wait for every reply."""
    tasks = set()
    requests: List[Request] = []
    n = len(queries)
    clock = time.perf_counter
    seconds = float(due[-1]) if len(due) else 0.0
    with rec.span("service.loop"):
        begin = clock()
        for i, offset in enumerate(due.tolist()):
            request = Request(phase=phase, due=begin + offset)
            delay = request.due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            requests.append(request)
            task = asyncio.ensure_future(
                _fire(core, request, queries[(first + i) % n].keys)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        delay = begin + seconds - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        backlog = sum(1 for r in requests if not r.done)
        if tasks:
            finished, pending = await asyncio.wait(set(tasks),
                                                   timeout=DRAIN_S)
            check(not pending, "gateway did not drain a phase in time")
            for task in finished:
                task.result()
    ok = [r for r in requests if r.status == "ok"]
    return Phase(
        rate=rate,
        requests=requests,
        p50_us=statistics.median(windows(ok, 0.50)) if ok else 0.0,
        p99_us=statistics.median(windows(ok, 0.99)) if ok else 0.0,
        lag_p99_us=percentile([(r.sent - r.due) * 1e6 for r in requests], 0.99),
        backlog_end=backlog,
    )


@dataclass
class Saturation:
    """The gateway's saturating closed loop, kept as flat columns.

    Requests are not kept as objects: every object the benchmark keeps
    would be scanned by the program's garbage collections and make them
    slower than the program alone makes them.
    """

    #: Speed-normalised seconds from submit to reply of each request,
    #: and from the first submit to the last reply of each round.
    walls: array = field(default_factory=lambda: array("d"))
    rounds: array = field(default_factory=lambda: array("d"))
    speeds: List[float] = field(default_factory=list)
    #: Replies by status ("ok", "shed", "miss") and shed reason.
    statuses: Dict[str, int] = field(default_factory=dict)
    reasons: Dict[str, int] = field(default_factory=dict)
    #: Per request: 1 when answered ok with every key served.
    full: bytearray = field(default_factory=bytearray)
    #: Per ok request: simulated dispatch and service time, and its
    #: share of its batch's page reads.
    sim_start_us: array = field(default_factory=lambda: array("d"))
    sim_service_us: array = field(default_factory=lambda: array("d"))
    pages: array = field(default_factory=lambda: array("d"))
    requested: int = 0
    served: int = 0

    def add(self, request: Request) -> None:
        self.walls.append(request.done - request.sent)
        self.statuses[request.status] = (
            self.statuses.get(request.status, 0) + 1
        )
        self.reasons[request.reason] = self.reasons.get(request.reason, 0) + 1
        ok = request.status == "ok"
        self.full.append(ok and request.served == request.requested)
        if ok:
            self.sim_start_us.append(request.sim_start_us)
            self.sim_service_us.append(
                request.sim_finish_us - request.sim_start_us
            )
            self.pages.append(request.batch_pages / request.coalesced)
            self.requested += request.requested
            self.served += request.served


async def _saturate(core: GatewayCore, queries: Sequence[Query],
                    rounds: int, rec: Recorder) -> Saturation:
    """``rounds`` rounds of ``IN_FLIGHT`` requests, each round sent when
    the last one has replied.

    Every round is one full coalescer batch, so the event loop and the
    engine thread take turns on a CPU that never idles, and batches hold
    the same queries on every run of one seed.  As on the closed loops,
    the host speed is sampled after every ``calibrate.STRETCH_S`` and
    the wall times are rescaled by it afterwards.
    """
    run = Saturation()
    ends: List[int] = []
    round_ends: List[int] = []
    n = len(queries)
    clock = time.perf_counter
    _quiesce()
    with rec.span("service.loop"):
        stretch_begin = clock()
        first = 0
        for left in range(rounds - 1, -1, -1):
            batch = [Request(phase=-1, due=0.0) for _ in range(IN_FLIGHT)]
            await asyncio.gather(*(
                _fire(core, request, queries[(first + i) % n].keys)
                for i, request in enumerate(batch)
            ))
            first += IN_FLIGHT
            for request in batch:
                run.add(request)
            run.rounds.append(max(r.done for r in batch)
                              - min(r.sent for r in batch))
            if not left or clock() - stretch_begin >= calibrate.STRETCH_S:
                with rec.span("bench.calibrate"):
                    run.speeds.append(calibrate.speed())
                ends.append(len(run.walls))
                round_ends.append(len(run.rounds))
                stretch_begin = clock()
    calibrate.rescale(run.walls, ends, run.speeds)
    calibrate.rescale(run.rounds, round_ends, run.speeds)
    return run


@dataclass
class GatewayRun:
    setup_s: float
    warm: List[Request]
    saturation: Saturation
    phases: List[Phase]
    #: ``GatewayCore.metrics()`` after the saturating closed loop, and at
    #: the end of the run.
    loop_metrics: dict
    metrics: dict
    warm_s: float
    #: Warm-up seconds of an untraced gateway (traced runs only).
    plain_warm_s: float

    @property
    def requests(self) -> List[Request]:
        return [r for phase in self.phases for r in phase.requests]


async def _timed_warm(seed: int, rec: Recorder) -> float:
    """Wall seconds of the warm-up pass on a fresh, untraced gateway."""
    setup = await _gateway_setup(seed, rec)
    try:
        start = time.perf_counter()
        await _warm(setup.core, setup.queries)
        return time.perf_counter() - start
    finally:
        await setup.core.stop()


async def _gateway_main(seed: int, seconds: float, rec: Recorder,
                        traced: bool) -> GatewayRun:
    plain_warm_s = 0.0
    if traced:
        plain_warm_s = await _timed_warm(seed, rec)
        rec.enabled = True
    timer = SetupTimer(rec)
    setup = None
    for _ in range(1 if traced else SETUP_REPS):
        if setup is not None:
            await setup.core.stop()
        with timer:
            setup = await _gateway_setup(seed, rec)
    core, queries = setup.core, setup.queries
    try:
        start = time.perf_counter()
        with rec.span("service.loop"):
            warm = await _warm(core, queries)
        warm_s = time.perf_counter() - start
        saturation = await _saturate(
            core, queries, int(seconds * SATURATE_ROUNDS_PER_S), rec
        )
        recording, rec.enabled = rec.enabled, False
        loop_metrics = core.metrics()
        rec.enabled = recording
        rng = np.random.default_rng(seed)
        # An unmeasured stretch at the lowest rate lets the open-loop
        # path (timers, executor hand-off) settle before measuring.
        settle = await _offer(
            core, queries, -1, GATEWAY_RATES[0],
            poisson_schedule(rng, GATEWAY_RATES[0], SETTLE_S), 0, rec
        )
        warm.extend(settle.requests)
        phases: List[Phase] = []
        offered = 0
        for index, (rate, share) in enumerate(
            zip(GATEWAY_RATES, PHASE_SHARES)
        ):
            due = poisson_schedule(rng, rate, seconds * share)
            _quiesce()
            phase = await _offer(core, queries, index, rate, due, offered,
                                 rec)
            offered += len(phase.requests)
            phases.append(phase)
        rec.enabled = False
        metrics = core.metrics()
    finally:
        rec.enabled = False
        await core.stop()
    return GatewayRun(timer.median_s, warm, saturation, phases,
                      loop_metrics, metrics, warm_s, plain_warm_s)


def _gateway_checks(run: GatewayRun) -> None:
    """offered == completed + shed + missed, client side and server side."""
    statuses = [r.status for r in list(run.warm) + run.requests]
    counts = run.saturation.statuses
    ok = statuses.count("ok") + counts.get("ok", 0)
    shed = statuses.count("shed") + counts.get("shed", 0)
    miss = statuses.count("miss") + counts.get("miss", 0)
    offered = len(statuses) + len(run.saturation.walls)
    check(ok + shed + miss == offered,
          "client: offered != completed + shed + missed")
    service = run.metrics["service"]
    check(service["offered"] == offered,
          "server offered count differs from the client's")
    check(service["offered"] == service["completed"]
          + service["shed_total"] + service["deadline_misses"],
          "server: offered != completed + shed + missed")
    check((service["completed"], service["shed_total"],
           service["deadline_misses"]) == (ok, shed, miss),
          "client and server outcome counts differ")


def run_gateway(seed: int, seconds: float, slo_us: float, rec: Recorder,
                traced: bool = False) -> Tuple[Outcome, GatewayRun]:
    """Saturating closed loop, then open-loop Poisson load at each of
    ``GATEWAY_RATES``.

    The closed loop gives the wall, simulated, page and hit figures and
    ``max_qps_at_slo`` (requests answered in full within the limit per
    second, as on the other closed loops): it keeps the CPU busy, so
    its wall times can be scaled to reference host speed like theirs,
    and its batches depend on the seed only.  The open-loop rates give
    ``ok_frac`` (over the rates below capacity) and the per-layer
    load-generator figures, with latencies timed from each request's
    due time; the overload rate shows in the per-layer overload and
    service counters.
    """
    loop = asyncio.SelectorEventLoop(_IdleTimingSelector(rec))
    with asyncio.Runner(loop_factory=lambda: loop) as runner:
        run = runner.run(_gateway_main(seed, seconds, rec, traced))
    _gateway_checks(run)
    saturation = run.saturation
    completed = len(saturation.sim_start_us)
    check(completed > 0, "the gateway completed no request of the closed loop")
    offered = [r for phase in run.phases[:-1] for r in phase.requests]
    # Members of one batch share its dispatch time; the batch's service
    # time is its slowest member's.
    batches: Dict[float, float] = {}
    for start, service in zip(saturation.sim_start_us,
                              saturation.sim_service_us):
        batches[start] = max(batches.get(start, 0.0), service)
    serving = run.loop_metrics["serving"]
    wall_s = sum(saturation.rounds)
    outcome = Outcome(
        setup_s=run.setup_s,
        wall_s=wall_s,
        completed=completed,
        attempted=len(run.warm) + len(saturation.walls) + len(run.requests),
        failed=saturation.reasons.get("error", 0)
        + sum(1 for r in run.requests if r.reason == "error"),
        ok_frac=sum(1 for r in offered if r.status == "ok") / len(offered),
        wall_p50_us=windowed(saturation.walls, 0.50) * 1e6,
        wall_p99_us=windowed(saturation.walls, 0.99) * 1e6,
        wall_samples=len(saturation.walls),
        slo_goodput_qps=sum(
            1 for full, wall in zip(saturation.full, saturation.walls)
            if full and wall * 1e6 <= slo_us
        ) / wall_s,
        sim_qps=completed / (sum(batches.values()) * 1e-6),
        sim_p50_us=percentile(saturation.sim_service_us, 0.50),
        sim_p99_us=percentile(saturation.sim_service_us, 0.99),
        sim_samples=completed,
        pages_per_query=sum(saturation.pages) / completed,
        effective_bw=serving["effective_bandwidth"],
        dram_hit_rate=serving["cache_hit_rate"] + serving["tier_hit_rate"],
        coverage=saturation.served / saturation.requested,
        host_speed=statistics.median(saturation.speeds),
    )
    return outcome, run
