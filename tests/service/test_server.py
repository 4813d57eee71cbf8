"""BlobService: the request API, the degradation ladder, observability."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.service import BlobService, FaultInjector, ServiceConfig
from repro.service.errors import (
    BatchDecodeError,
    DeadlineExceeded,
    NodeFault,
    ServiceClosedError,
)

from .conftest import SYMBOLS, make_store


def run(coro):
    return asyncio.run(coro)


def fast_config(**kwargs) -> ServiceConfig:
    kwargs.setdefault("batch_trigger", 2)
    kwargs.setdefault("flush_interval_s", 0.002)
    kwargs.setdefault("backoff_base_s", 0.0001)
    kwargs.setdefault("backoff_cap_s", 0.001)
    return ServiceConfig(**kwargs)


def test_get_present_block(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            block = store.stripe(0).present_ids[0]
            region = await service.get(0, block)
            assert store.verify_block(0, block, region)
            assert service.metrics.gets == 1
            assert service.metrics.degraded_gets == 0

    run(main())


def test_get_erased_block_transparently_decodes(code):
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            region = await service.get(0, block)
            assert store.verify_block(0, block, region)
            # counted once as a get *and* once as a degraded read
            assert service.metrics.gets == 1
            assert service.metrics.degraded_gets == 1

    run(main())


def test_put_writes_through(code):
    store = make_store(code, num_stripes=1, damaged=0.0)
    region = np.arange(SYMBOLS, dtype=code.field.dtype)

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            await service.put(0, 0, region)
            got = await service.get(0, 0)
            assert np.array_equal(got, region)
            assert service.metrics.puts == 1

    run(main())


@pytest.mark.parametrize("erased_target", [False, True])
def test_put_to_damaged_stripe_keeps_degraded_reads_correct(code, erased_target):
    """Regression: a put must re-encode parity.  With stale parity, the
    degraded reads of the stripe's other erased blocks decoded wrong
    bytes from survivors that no longer agreed with each other."""
    store = make_store(code, num_stripes=1)
    erased = store.pattern(0)
    data_ids = code.data_block_ids
    if erased_target:
        block = next(b for b in erased if b in data_ids)
    else:
        block = next(b for b in store.stripe(0).present_ids if b in data_ids)
    region = np.arange(SYMBOLS, dtype=code.field.dtype)

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            await service.put(0, block, region)
            assert np.array_equal(await service.get(0, block), region)
            for bid in store.pattern(0):
                got = await service.degraded_get(0, bid)
                assert store.verify_block(0, bid, got), bid

    run(main())
    assert store.pattern(0) == tuple(b for b in erased if b != block)


def test_put_to_parity_block_is_rejected(code):
    store = make_store(code, num_stripes=1, damaged=0.0)
    parity = code.parity_block_ids[0]
    before = store.stripe(0).get(parity).copy()

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            with pytest.raises(ValueError, match="parity"):
                await service.put(0, parity, np.zeros(SYMBOLS, code.field.dtype))

    run(main())
    assert np.array_equal(store.stripe(0).get(parity), before)


def test_transient_faults_absorbed_by_retries(code):
    """max_consecutive < max_retries ==> zero client-visible failures."""
    store = make_store(code, num_stripes=2, fault_rate=0.4, seed=3)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config(max_retries=3)) as service:
            for _ in range(10):
                region = await service.get(0, block)
                assert store.verify_block(0, block, region)
            assert service.metrics.failures == 0
            if service.metrics.faults_seen:
                assert service.metrics.retries == service.metrics.faults_seen

    run(main())


def test_retries_exhausted_raises_node_fault(code):
    store = make_store(code, num_stripes=1, damaged=0.0)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=100)

    async def main():
        async with BlobService(store, config=fast_config(max_retries=1)) as service:
            with pytest.raises(NodeFault):
                await service.get(0, store.stripe(0).present_ids[0])
            assert service.metrics.failures == 1

    run(main())


def test_deadline_expiry_raises_and_counts(code):
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]
    # a flush deadline far beyond the request deadline: the queued read
    # can never resolve in time
    config = ServiceConfig(batch_trigger=100, flush_interval_s=30.0)

    async def main():
        async with BlobService(store, config=config) as service:
            with pytest.raises(DeadlineExceeded):
                await service.degraded_get(0, block, deadline_s=0.02)
            assert service.metrics.timeouts == 1
            assert service.metrics.failures == 1

    run(main())


def test_nonpositive_deadline_fails_immediately(code):
    store = make_store(code, num_stripes=1)

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            with pytest.raises(DeadlineExceeded):
                await service.degraded_get(0, store.pattern(0)[0], deadline_s=0.0)

    run(main())


def test_batch_error_falls_back_to_single_decode(code):
    """A poisoned batch path degrades latency, never correctness."""
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=1)) as service:
            def broken(snapshots, patterns):
                raise ValueError("poisoned batch plan")

            service.scheduler._decode_batch = broken
            region = await service.degraded_get(0, block)
            assert store.verify_block(0, block, region)
            assert service.metrics.fallbacks == 1
            assert service.metrics.batch_errors == 1
            assert service.metrics.failures == 0

    run(main())


def test_batch_error_without_fallback_surfaces(code):
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]
    config = fast_config(batch_trigger=1, fallback_single=False)

    async def main():
        async with BlobService(store, config=config) as service:
            def broken(snapshots, patterns):
                raise ValueError("poisoned batch plan")

            service.scheduler._decode_batch = broken
            with pytest.raises(BatchDecodeError):
                await service.degraded_get(0, block)
            assert service.metrics.fallbacks == 0
            assert service.metrics.failures == 1

    run(main())


def test_infrastructure_error_surfaces_distinctly(code):
    """A dying pool's RuntimeError must not be masked as a decode
    failure: no fallback attempt, the caller sees the real exception."""
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=1)) as service:
            def dying_pool(snapshots, patterns):
                raise RuntimeError("cannot schedule new futures after shutdown")

            service.scheduler._decode_batch = dying_pool
            with pytest.raises(RuntimeError, match="after shutdown"):
                await service.degraded_get(0, block)
            # fallback was NOT exercised: it cannot fix a dead pool and
            # would only mask the shutdown from the caller
            assert service.metrics.fallbacks == 0
            assert service.metrics.batch_errors == 1
            assert service.metrics.failures == 1

    run(main())


def test_naive_mode_never_touches_the_scheduler(code):
    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]

    async def main():
        config = fast_config(coalesce=False)
        async with BlobService(store, config=config) as service:
            for sid in range(2):
                region = await service.degraded_get(sid, block)
                assert store.verify_block(sid, block, region)
            assert service.metrics.flushes == 0
            assert service.metrics.degraded_gets == 2

    run(main())


def test_coalesced_serving_is_bit_identical_to_truth(code):
    store = make_store(code, num_stripes=4)
    pattern = store.pattern(0)

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=4)) as service:
            results = await asyncio.gather(
                *(
                    service.degraded_get(sid, block)
                    for sid in range(4)
                    for block in pattern[:2]
                )
            )
            index = 0
            for sid in range(4):
                for block in pattern[:2]:
                    assert store.verify_block(sid, block, results[index])
                    index += 1
            assert service.metrics.flushes >= 1
            assert service.metrics.coalesce_factor > 1.0

    run(main())


def test_metrics_dict_reconciles_serving_and_pipeline_views(code):
    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            await asyncio.gather(
                *(service.degraded_get(sid, block) for sid in range(2))
            )
            doc = service.metrics_dict()
            assert doc["requests"]["degraded_gets"] == 2
            assert doc["pipeline"]["stripes"] == 2
            assert doc["pipeline"]["mult_xors"] > 0
            assert "kernels" in doc
            assert doc["coalescing"]["flushed_reads"] == 2

    run(main())


def test_closed_service_refuses_requests(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def main():
        service = BlobService(store, config=fast_config())
        await service.close()
        with pytest.raises(ServiceClosedError):
            await service.get(0, 0)
        await service.close()  # idempotent

    run(main())


def test_external_pipeline_is_not_closed_by_the_service(code):
    from repro.pipeline import DecodePipeline

    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        with DecodePipeline(pool="serial") as pipeline:
            async with BlobService(
                store, config=fast_config(), pipeline=pipeline
            ) as service:
                await service.degraded_get(0, block)
            # service exit must leave the borrowed pipeline usable
            assert pipeline.metrics().stripes == 1

    run(main())


def test_get_backoff_is_clamped_to_the_deadline_budget(code):
    """A retry backoff larger than the remaining budget must not sleep
    through the caller's deadline: the request fails *within* it, as
    DeadlineExceeded, instead of surfacing NodeFault seconds late."""
    store = make_store(code, num_stripes=1, damaged=0.0)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=100)
    config = fast_config(max_retries=3, backoff_base_s=30.0, backoff_cap_s=30.0)

    async def main():
        async with BlobService(store, config=config) as service:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            with pytest.raises(DeadlineExceeded):
                await service.get(0, 0, deadline_s=0.2)
            elapsed = loop.time() - t0
            assert elapsed < 2.0  # nowhere near the 30 s backoff
            assert service.metrics.timeouts >= 1
            assert service.metrics.failures >= 1

    asyncio.run(main())


def test_put_backoff_is_clamped_to_the_deadline_budget(code):
    store = make_store(code, num_stripes=1, damaged=0.0)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=100)
    config = fast_config(max_retries=3, backoff_base_s=30.0, backoff_cap_s=30.0)
    region = np.arange(SYMBOLS, dtype=code.field.dtype)

    async def main():
        async with BlobService(store, config=config) as service:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            with pytest.raises(DeadlineExceeded):
                await service.put(0, 0, region, deadline_s=0.2)
            assert loop.time() - t0 < 2.0

    asyncio.run(main())


def test_degraded_ladder_fails_within_tight_deadline(code):
    """The ladder's retry backoff is clamped too: a tight deadline with a
    huge configured backoff still resolves (as DeadlineExceeded) within
    the budget plus scheduling slack."""
    store = make_store(code, num_stripes=1)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=100)
    block = store.pattern(0)[0]
    config = fast_config(max_retries=3, backoff_base_s=30.0, backoff_cap_s=30.0)

    async def main():
        async with BlobService(store, config=config) as service:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            with pytest.raises(DeadlineExceeded):
                await service.degraded_get(0, block, deadline_s=0.2)
            assert loop.time() - t0 < 2.0
            assert service.metrics.timeouts >= 1

    asyncio.run(main())
