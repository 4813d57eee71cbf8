"""connect(): one entry point to any backend, and multi-endpoint load.

Covers the unified client facade (endpoint string/tuple → TCP, backend
→ LocalClient, Client → pass-through, junk → TypeError), the verified
read paths every transport shares, and ``run_loadgen_multi`` fanning
one seeded workload across several endpoints concurrently.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    BlobService,
    ClientPool,
    LocalClient,
    ServiceConfig,
    TcpClient,
    build_request_schedule,
    connect,
    run_loadgen_multi,
    serve,
)

from .conftest import make_store


def fast_config() -> ServiceConfig:
    return ServiceConfig(
        batch_trigger=4, flush_interval_s=0.002, backoff_base_s=0.0001
    )


def test_connect_type_dispatch(code):
    async def run():
        service = BlobService(make_store(code), config=fast_config())
        async with service:
            local = await connect(service)
            assert isinstance(local, LocalClient)
            assert local.backend is service
            assert await connect(local) is local  # Client passes through

            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                tcp = await connect(f"127.0.0.1:{port}")
                assert isinstance(tcp, TcpClient)
                await tcp.ping()
                await tcp.close()
                pooled = await connect(("127.0.0.1", port), connections=3)
                assert isinstance(pooled, ClientPool)
                await pooled.ping()
                await pooled.close()
            finally:
                server.close()
                await server.wait_closed()
        with pytest.raises(TypeError, match="cannot connect"):
            await connect(42)

    asyncio.run(run())


def test_verified_reads_local_and_wire(code):
    """get_verified/degraded_get_verified agree across transports."""

    async def run():
        service = BlobService(make_store(code), config=fast_config())
        async with service:
            sid = service.store.stripe_ids[0]
            stripe = service.store.stripe(sid)
            present, erased = stripe.present_ids[0], stripe.erased_ids[0]

            local = await connect(service)
            data, ok = await local.get_verified(sid, present)
            assert ok
            data, ok = await local.degraded_get_verified(sid, erased, 5.0)
            assert ok

            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                remote = await connect(f"127.0.0.1:{port}", connections=2)
                data, ok = await remote.get_verified(sid, present)
                assert ok
                data, ok = await remote.degraded_get_verified(sid, erased, 5.0)
                assert ok
                # verification is server-side: tamper with the stored
                # block and the verdict flips without the client knowing
                truth = service.store.truth(sid).get(present)
                stripe.put(present, truth * 0 + (truth + 1) % 251)
                _, ok = await remote.get_verified(sid, present)
                assert not ok
                await remote.close()
            finally:
                server.close()
                await server.wait_closed()

    asyncio.run(run())


def test_run_loadgen_multi_aggregates(code):
    """Two backends driven concurrently: per-endpoint + aggregate."""

    async def run():
        services = [
            BlobService(make_store(code, seed=seed), config=fast_config())
            for seed in (5, 6)
        ]
        async with services[0], services[1]:
            clients = [await connect(s) for s in services]
            schedules = [
                build_request_schedule(s, 20, seed=1, degraded_fraction=0.5)
                for s in services
            ]
            result = await run_loadgen_multi(
                clients, schedules, concurrency=4, verify=True
            )
        assert set(result) == {"endpoints", "aggregate"}
        assert len(result["endpoints"]) == 2
        for summary in result["endpoints"].values():
            assert summary["completed"] == 20
            assert summary["failed"] == 0
            assert summary["corrupt"] == 0
        agg = result["aggregate"]
        assert agg["requests"] == 40
        assert agg["completed"] == 40
        assert agg["corrupt"] == 0
        assert agg["requests_per_sec"] > 0
        assert agg["latency"]["p99_s"] >= agg["latency"]["p50_s"]

    asyncio.run(run())


def test_run_loadgen_multi_validates_lengths(code):
    async def run():
        service = BlobService(make_store(code), config=fast_config())
        async with service:
            client = await connect(service)
            with pytest.raises(ValueError):
                await run_loadgen_multi([client], [[], []], concurrency=1)

    asyncio.run(run())
