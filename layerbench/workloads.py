"""The three workloads: ``rebuild``, ``ingest`` and ``degraded-read``.

Each runs the program as users get it -- default configs, backend
``"auto"``, ProgramCache admission verification on, no injected faults
-- for a fixed time, split into several *sessions*.  A session builds a
fresh pipeline or service and times its set-up (construction to the
first verified result: auto-tuning, planning, lowering, pool spawn),
then measures operations until its share of the time is spent.  Every
output is checked against ground truth outside the timed calls.

Why these three, and what each one isolates, is in ``NOTES.md``.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.codes import LRCCode, SDCode
from repro.core import TraditionalDecoder
from repro.pipeline import DecodePipeline
from repro.service import BlobService, BlobStore, build_request_schedule, damage_store
from repro.stripes import Stripe, StripeLayout, lrc_scenario, worst_case_sd

from host import HostProbe
from tracing import Tracer, root_or_null

NPROC = os.cpu_count() or 1

#: Sessions per run: each is one fresh set-up (so ``setup_s`` is a
#: median and the throughput an average over auto-tuner outcomes).
#: ``rebuild`` set-ups cost half a second each, the others a tenth.
SESSIONS = {"rebuild": 4, "ingest": 8, "degraded-read": 8}

#: Operations in the window over which the exact counts are taken.
COUNT_WINDOW = {"rebuild": 3, "ingest": 24, "degraded-read": 96}

# rebuild: the paper's SD(10,8,2,2), w=8, Fig 8 stripe size
REBUILD_STRIPE_BYTES = 1 << 25
REBUILD_BATCH = 2

# ingest: LRC(12,4,2), w=16, 1 Ki-symbol sectors
INGEST_SYMBOLS = 1024
INGEST_ENCODE_BATCH = 32
INGEST_DECODE_BATCH = 16
INGEST_PATTERNS = 400

# degraded-read: BlobService over 64 SD(10,8,2,2) stripes
READ_STRIPES = 64
READ_SYMBOLS = 4096
READ_DAMAGED = 0.75
READ_DEGRADED_FRACTION = 0.8
READ_SEGMENT_S = 0.5


@dataclass
class Run:
    """Everything one workload run measured, raw and normalized."""

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    #: set-up times in seconds, (raw, normalized)
    setup: list[tuple[float, float]] = field(default_factory=list)
    #: per session: metric name -> per-op (raw, normalized) samples
    sessions: list[dict[str, list[tuple[float, float]]]] = field(default_factory=list)
    #: read latencies in ms, (raw, normalized)
    latencies: list[tuple[float, float]] = field(default_factory=list)
    #: exact counts over the first COUNT_WINDOW operations
    counts: dict[str, float] = field(default_factory=dict)
    #: program-side tallies summed over sessions
    blocks_returned: int = 0
    blocks_recovered: int = 0
    pipeline: list = field(default_factory=list)
    executor: list = field(default_factory=list)
    service: list = field(default_factory=list)
    #: bytes per stripe of the decoded code, per block returned to a
    #: reader, and per symbol
    stripe_bytes: int = 0
    block_bytes: int = 0
    itemsize: int = 1

    def sample(self, metric: str, raw: float, norm: float) -> None:
        self.sessions[-1].setdefault(metric, []).append((raw, norm))

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def _flip(region: np.ndarray) -> None:
    """The self-test's corruption: one bit of one returned symbol."""
    region[0] ^= 1


def _window_counts(pipeline: DecodePipeline, stripes: int, sector: int) -> dict[str, float]:
    """The exact counts, after ``stripes`` stripes of ``sector`` symbols.

    The counter books ``mult_XORs x region length`` symbols per program
    run, so symbols per stripe-sector is the paper's per-stripe count
    whatever the batching."""
    m = pipeline.metrics()
    return {
        "mult_xors_per_stripe": m.symbols / (stripes * sector),
        "plancache_misses": m.plan_cache_misses,
        "program_misses": m.program_cache_misses,
    }


def _close_session(run: Run, pipeline: DecodePipeline) -> None:
    run.pipeline.append(pipeline.metrics())
    run.executor.append(pipeline.executor_stats())


# -- rebuild -------------------------------------------------------------------


def rebuild(seed: int, seconds: float, probe: HostProbe, tracer: Tracer | None = None,
            corrupt: bool = False) -> Run:
    code = SDCode(10, 8, 2, 2)
    sector = REBUILD_STRIPE_BYTES // code.num_blocks
    rng = np.random.default_rng(seed)
    layout = StripeLayout.of_code(code)
    stripes = [Stripe.random(layout, code.field, sector, rng) for _ in range(REBUILD_BATCH)]
    TraditionalDecoder().encode_into_batch(code, stripes)
    faulty = worst_case_sd(code, z=1, rng=seed).faulty_blocks
    survivors = [
        {b: s.get(b) for b in range(code.num_blocks) if b not in faulty} for s in stripes
    ]
    truth = [{b: s.get(b) for b in faulty} for s in stripes]
    del stripes
    run = Run(stripe_bytes=code.num_blocks * sector, block_bytes=sector)
    batch_bytes = REBUILD_BATCH * run.stripe_bytes

    def verify(results) -> None:
        for recovered, expected in zip(results, truth):
            run.check(all(np.array_equal(recovered[b], expected[b]) for b in faulty))
        run.blocks_recovered += REBUILD_BATCH * len(faulty)
        run.blocks_returned += REBUILD_BATCH * len(faulty)

    def decode(pipeline):
        with root_or_null(tracer, "rebuild.decode_batch"):
            return pipeline.decode_batch(code, survivors, faulty)

    def setup():
        pipeline = DecodePipeline(pool="thread", workers=NPROC)
        verify(decode(pipeline))
        run.ops += 1
        return pipeline

    sessions = SESSIONS["rebuild"]
    for session in range(sessions):
        run.sessions.append({})
        pipeline, raw, norm = probe.timed(setup)
        run.setup.append((raw, norm))
        ops = 1
        t_end = time.perf_counter() + seconds / sessions
        while time.perf_counter() < t_end or (session == 0 and ops < COUNT_WINDOW["rebuild"]):
            results, raw, norm = probe.timed(decode, pipeline)
            if corrupt and session == 0 and ops == 1:
                _flip(results[0][faulty[0]])
            verify(results)
            ops += 1
            run.ops += 1
            run.sample("decode_MBps", batch_bytes / raw / 1e6, batch_bytes / norm / 1e6)
            run.sample("read_rps", REBUILD_BATCH / raw, REBUILD_BATCH / norm)
            run.latencies.append((raw * 1e3, norm * 1e3))
            if session == 0 and ops == COUNT_WINDOW["rebuild"]:
                run.counts = _window_counts(pipeline, ops * REBUILD_BATCH, sector)
        _close_session(run, pipeline)
        pipeline.close()
    return run


# -- ingest --------------------------------------------------------------------


def _pattern_pool(code: LRCCode, seed: int) -> list[tuple[int, ...]]:
    """About INGEST_PATTERNS distinct decodable 4-local + 1-extra patterns."""
    rng = np.random.default_rng(seed)
    pool: dict[tuple[int, ...], None] = {}
    for _ in range(INGEST_PATTERNS * 20):
        pool[lrc_scenario(code, 4, 1, rng=rng).faulty_blocks] = None
        if len(pool) >= INGEST_PATTERNS:
            break
    return list(pool)


def ingest(seed: int, seconds: float, probe: HostProbe, tracer: Tracer | None = None,
           corrupt: bool = False) -> Run:
    code = LRCCode(12, 4, 2, w=16)
    sector = INGEST_SYMBOLS
    data_ids = code.data_block_ids
    patterns = _pattern_pool(code, seed)
    rng = np.random.default_rng(seed)
    oracle = TraditionalDecoder(compile=False)
    itemsize = code.field.dtype.itemsize
    run = Run(stripe_bytes=code.num_blocks * sector * itemsize,
              block_bytes=sector * itemsize, itemsize=itemsize)
    encode_bytes = INGEST_ENCODE_BATCH * len(data_ids) * sector * itemsize
    decode_bytes = INGEST_DECODE_BATCH * run.stripe_bytes

    def make_step():
        """Fresh stripes, their parity from the interpreted oracle, and
        decode inputs under patterns drawn from the pool."""
        data = rng.integers(
            0, 1 << 16, size=(len(data_ids), INGEST_ENCODE_BATCH * sector), dtype=np.uint16
        )
        fused = {b: data[i] for i, b in enumerate(data_ids)}
        parity = oracle.encode(code, fused)
        full = dict(fused)
        full.update(parity)
        stripes = [
            {b: region[i * sector : (i + 1) * sector] for b, region in full.items()}
            for i in range(INGEST_ENCODE_BATCH)
        ]
        writes = [{b: s[b] for b in data_ids} for s in stripes]
        picks = rng.integers(0, len(patterns), size=INGEST_DECODE_BATCH)
        step_patterns = [patterns[int(p)] for p in picks]
        reads = [
            {b: region for b, region in s.items() if b not in pat}
            for s, pat in zip(stripes, step_patterns)
        ]
        return stripes, writes, reads, step_patterns

    def verify_encode(stripes, encoded) -> None:
        for s, parities in zip(stripes, encoded):
            run.check(all(np.array_equal(region, s[b]) for b, region in parities.items()))

    def verify_decode(stripes, decoded, step_patterns) -> None:
        for s, recovered, pat in zip(stripes, decoded, step_patterns):
            run.check(all(np.array_equal(recovered[b], s[b]) for b in pat))
            run.blocks_recovered += len(pat)
            run.blocks_returned += len(pat)

    def encode(pipeline, writes):
        with root_or_null(tracer, "ingest.encode_batch"):
            return pipeline.encode_batch(code, writes)

    def decode(pipeline, reads, step_patterns):
        with root_or_null(tracer, "ingest.decode_batch"):
            return pipeline.decode_batch(code, reads, step_patterns)

    def setup(step):
        stripes, writes, reads, step_patterns = step
        pipeline = DecodePipeline()
        verify_encode(stripes, encode(pipeline, writes))
        verify_decode(stripes, decode(pipeline, reads, step_patterns), step_patterns)
        run.ops += 1
        return pipeline

    sessions = SESSIONS["ingest"]
    for session in range(sessions):
        run.sessions.append({})
        pipeline, raw, norm = probe.timed(setup, make_step())
        run.setup.append((raw, norm))
        ops = 1
        t_end = time.perf_counter() + seconds / sessions
        while time.perf_counter() < t_end or (session == 0 and ops < COUNT_WINDOW["ingest"]):
            stripes, writes, reads, step_patterns = make_step()
            encoded, raw, norm = probe.timed(encode, pipeline, writes)
            if corrupt and session == 0 and ops == 1:
                _flip(next(iter(encoded[0].values())))
            verify_encode(stripes, encoded)
            run.sample("encode_MBps", encode_bytes / raw / 1e6, encode_bytes / norm / 1e6)
            decoded, raw, norm = probe.timed(decode, pipeline, reads, step_patterns)
            verify_decode(stripes, decoded, step_patterns)
            run.sample("decode_MBps", decode_bytes / raw / 1e6, decode_bytes / norm / 1e6)
            run.sample("read_rps", INGEST_DECODE_BATCH / raw, INGEST_DECODE_BATCH / norm)
            run.latencies.append((raw * 1e3, norm * 1e3))
            ops += 1
            run.ops += 1
            if session == 0 and ops == COUNT_WINDOW["ingest"]:
                stripes_done = ops * (INGEST_ENCODE_BATCH + INGEST_DECODE_BATCH)
                run.counts = _window_counts(pipeline, stripes_done, sector)
        _close_session(run, pipeline)
        pipeline.close()
    return run


# -- degraded-read ---------------------------------------------------------------


def degraded_read(seed: int, seconds: float, probe: HostProbe, tracer: Tracer | None = None,
                  corrupt: bool = False) -> Run:
    code = SDCode(10, 8, 2, 2)
    store = BlobStore.build(code, READ_STRIPES, READ_SYMBOLS, rng=seed)
    damage_store(store, fraction=READ_DAMAGED, seed=seed)
    schedule = build_request_schedule(
        store, 20000, seed=seed, degraded_fraction=READ_DEGRADED_FRACTION
    )
    first_erased = next(
        (sid, b) for sid in store.stripe_ids for b in store.stripe(sid).erased_ids
    )
    itemsize = code.field.dtype.itemsize
    run = Run(stripe_bytes=code.num_blocks * READ_SYMBOLS * itemsize,
              block_bytes=READ_SYMBOLS * itemsize, itemsize=itemsize)
    cursor = 0
    corrupted = False

    async def read(service, sid, block):
        with root_or_null(tracer, "degraded-read.get"):
            return await service.get(sid, block)

    async def closed_loop(service, until: float | None, limit: int | None):
        """``NPROC`` clients, each issuing its next read on completion;
        returns ``(latency_s, degraded)`` per read."""
        nonlocal cursor, corrupted
        latencies: list[float] = []
        issued = 0

        async def client():
            nonlocal cursor, corrupted, issued
            while (until is None or time.perf_counter() < until) and (
                limit is None or issued < limit
            ):
                issued += 1
                _op, sid, block = schedule[cursor % len(schedule)]
                cursor += 1
                degraded = not store.stripe(sid).has(block)
                t0 = time.perf_counter()
                region = await read(service, sid, block)
                latencies.append((time.perf_counter() - t0, degraded))
                if corrupt and not corrupted:
                    region = region.copy()
                    _flip(region)
                    corrupted = True
                run.check(service.verify_block(sid, block, region))
                run.ops += 1

        await asyncio.gather(*(client() for _ in range(NPROC)))
        return latencies

    async def setup():
        service = BlobService(store)
        region = await read(service, *first_erased)
        run.check(service.verify_block(*first_erased, region))
        run.ops += 1
        return service

    async def main():
        sessions = SESSIONS["degraded-read"]
        for session in range(sessions):
            run.sessions.append({})
            before = probe.probe()
            t0 = time.perf_counter()
            service = await setup()
            raw = time.perf_counter() - t0
            run.setup.append((raw, raw * probe.scale(before, probe.probe())))
            if session == 0:
                await closed_loop(service, None, COUNT_WINDOW["degraded-read"])
                run.counts = _window_counts(
                    service.pipeline, service.pipeline.metrics().stripes, READ_SYMBOLS
                )
            t_end = time.perf_counter() + seconds / sessions
            while time.perf_counter() < t_end:
                stripes0 = service.pipeline.metrics().stripes
                queued0 = service.metrics.queue_wait.total_seconds
                before = probe.probe()
                t0 = time.perf_counter()
                reads = await closed_loop(service, t0 + READ_SEGMENT_S, None)
                raw = time.perf_counter() - t0
                scale = probe.scale(before, probe.probe())
                # time spent waiting on the scheduler's flush timer is
                # wall-clock by design, so only the rest is scaled
                queued = service.metrics.queue_wait.total_seconds - queued0
                waited = sum(degraded for _, degraded in reads)
                wait = queued / waited if waited else 0.0
                norm = (raw - queued / NPROC) * scale + queued / NPROC
                decoded = service.pipeline.metrics().stripes - stripes0
                run.sample("read_rps", len(reads) / raw, len(reads) / norm)
                mb = decoded * run.stripe_bytes / 1e6
                run.sample("decode_MBps", mb / raw, mb / norm)
                for t, degraded in reads:
                    fixed = wait if degraded else 0.0
                    run.latencies.append((t * 1e3, ((t - fixed) * scale + fixed) * 1e3))
            m = service.pipeline.metrics()
            run.blocks_recovered += m.stripes * len(store.pattern(first_erased[0]))
            run.blocks_returned += service.metrics.degraded_gets
            _close_session(run, service.pipeline)
            run.service.append(service.metrics)
            await service.close()

    asyncio.run(main())
    return run


WORKLOADS = {"rebuild": rebuild, "ingest": ingest, "degraded-read": degraded_read}
