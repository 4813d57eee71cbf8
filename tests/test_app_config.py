"""The layered config model: defaults → dict → dotted overrides.

Pins the three-layer precedence, the strictness guarantees (unknown
keys raise, values coerce to field types) and the builders.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    AppConfig,
    StoreConfig,
    WorkloadConfig,
    apply_overrides,
    build_cluster,
    build_code,
    build_service,
    flatten,
    from_dict,
    to_dict,
)
from repro.repair import RepairConfig
from repro.service import ServiceConfig


def test_defaults_round_trip_through_dict():
    config = AppConfig()
    assert from_dict(to_dict(config)) == config


def test_overridden_config_round_trips():
    config = apply_overrides(
        AppConfig(),
        {
            "store.stripes": 64,
            "service.repair": True,
            "service.repair.scrub_stripes": 4,
            "cluster.nodes": 6,
            "workload.concurrency": 32,
        },
    )
    assert from_dict(to_dict(config)) == config


def test_from_dict_is_partial_and_strict():
    config = from_dict({"store": {"stripes": 8}, "cluster": {"nodes": 5}})
    assert config.store.stripes == 8
    assert config.store.n == StoreConfig().n  # untouched defaults
    assert config.cluster.nodes == 5
    with pytest.raises(ValueError, match="unknown config section"):
        from_dict({"storage": {}})
    with pytest.raises(ValueError, match="unknown config key store.shards"):
        from_dict({"store": {"shards": 3}})


def test_from_dict_repair_forms():
    assert from_dict({"service": {"repair": None}}).service.repair is None
    assert from_dict({"service": {"repair": True}}).service.repair == RepairConfig()
    config = from_dict({"service": {"repair": {"scrub_stripes": 4}}})
    assert config.service.repair.scrub_stripes == 4


def test_flatten_inverts_nesting_but_keeps_repair_whole():
    flat = flatten({"store": {"stripes": 8}, "service": {"repair": {"scrub_stripes": 4}}})
    assert flat == {"store.stripes": 8, "service.repair": {"scrub_stripes": 4}}
    config = apply_overrides(AppConfig(), flat)
    assert config.store.stripes == 8
    assert config.service.repair.scrub_stripes == 4


def test_apply_overrides_coerces_strings():
    config = apply_overrides(
        AppConfig(),
        {
            "store.stripes": "8",
            "store.fault_rate": "0.25",
            "service.coalesce": "false",
            "service.repair": "true",
        },
    )
    assert config.store.stripes == 8
    assert config.store.fault_rate == 0.25
    assert config.service.coalesce is False
    assert config.service.repair == RepairConfig()
    with pytest.raises(ValueError, match="not a bool"):
        apply_overrides(AppConfig(), {"service.coalesce": "maybe"})


def test_apply_overrides_rejects_unknown_paths():
    for path in ("store.shards", "nope.x", "store", "service.repair.nope"):
        with pytest.raises(ValueError):
            apply_overrides(AppConfig(), {path: 1})


def test_repair_subkey_materialises_default_config():
    config = apply_overrides(AppConfig(), {"service.repair.scrub_stripes": 4})
    assert config.service.repair is not None
    assert config.service.repair.scrub_stripes == 4
    off = apply_overrides(config, {"service.repair": "false"})
    assert off.service.repair is None


def test_overrides_never_mutate_the_input():
    base = AppConfig()
    apply_overrides(base, {"store.stripes": 99})
    assert base.store.stripes == StoreConfig().stripes
    assert dataclasses.is_dataclass(base.store)


def test_section_validation_still_applies():
    with pytest.raises(ValueError):
        apply_overrides(AppConfig(), {"store.fault_rate": 1.5})
    with pytest.raises(ValueError):
        apply_overrides(AppConfig(), {"cluster.transport": "carrier-pigeon"})
    with pytest.raises(ValueError):
        WorkloadConfig(requests=0)


SMALL = {
    "store.n": 6,
    "store.r": 4,
    "store.m": 2,
    "store.s": 2,
    "store.stripes": 4,
    "store.symbols": 16,
    "store.fault_rate": 0.0,
}


def test_builders_produce_live_objects():
    config = apply_overrides(AppConfig(), {**SMALL, "cluster.nodes": 2})
    code = build_code(config.store)
    assert (code.n, code.r) == (6, 4)
    service = build_service(config)
    assert len(service.store.stripe_ids) == 4
    assert service.config is config.service
    cluster = build_cluster(config)
    assert len(cluster.nodes) == 2
    assert cluster.stripe_ids == (0, 1, 2, 3)


def test_build_cluster_stitches_the_service_section():
    config = apply_overrides(
        AppConfig(),
        {**SMALL, "cluster.nodes": 2, "service.batch_trigger": 3},
    )
    cluster = build_cluster(config)
    for node in cluster.nodes.values():
        assert node.service.config.batch_trigger == 3


def test_service_config_is_default_constructed_sections():
    config = AppConfig()
    assert config.service == ServiceConfig()
    assert config.workload == WorkloadConfig()


def test_kernels_section_is_unknown():
    """Backend choice is a fixed rule; a config file cannot pin it."""
    with pytest.raises(ValueError, match="unknown config section"):
        from_dict({"kernels": {"backend": "bitsliced"}})
    with pytest.raises(ValueError, match="unknown override path"):
        apply_overrides(AppConfig(), {"kernels.backend": "bitsliced"})


def test_pipeline_section_round_trip_and_overrides():
    from repro.config import PipelineConfig

    config = from_dict(
        {"pipeline": {"pool": "thread", "hedge": True, "deadline_s": 1.5}}
    )
    assert config.pipeline == PipelineConfig(pool="thread", hedge=True, deadline_s=1.5)
    assert from_dict(to_dict(config)) == config
    layered = apply_overrides(
        config,
        {"pipeline.verify_workers": "true", "pipeline.hedge_factor": "1.5"},
    )
    assert layered.pipeline.verify_workers is True
    assert layered.pipeline.hedge_factor == 1.5
    assert config.pipeline.verify_workers is False  # input untouched


def test_pipeline_section_validates():
    from repro.config import PipelineConfig

    with pytest.raises(ValueError, match="pool"):
        PipelineConfig(pool="gpu")
    with pytest.raises(ValueError, match="deadline_s"):
        PipelineConfig(deadline_s=-1.0)
    with pytest.raises(ValueError, match="hedge_factor"):
        PipelineConfig(hedge_factor=0.9)


def test_pipeline_section_builds_a_live_pipeline():
    from repro.config import PipelineConfig

    section = PipelineConfig(
        pool="serial", hedge=True, verify_workers=True, deadline_s=2.0
    )
    pipe = section.build()
    try:
        assert pipe.hedge is True
        assert pipe.verify_workers is True
        assert pipe.deadline_s == 2.0
        assert pipe.pool.kind == "serial"
    finally:
        pipe.close()
    # deadline_s=0 means unbounded, not "deadline of zero"
    pipe = PipelineConfig().build()
    try:
        assert pipe.deadline_s is None
    finally:
        pipe.close()


def test_build_service_wires_pipeline_section_and_faults():
    config = from_dict(
        {
            "store": {"n": 6, "r": 4, "stripes": 1, "symbols": 16, "damaged": 0.0},
            "pipeline": {"verify_workers": True},
        }
    )
    service = build_service(config)
    try:
        assert service.pipeline.verify_workers is True
        # worker fault injection shares the store's injector, so one
        # --set store.* knob drives both read faults and worker faults
        assert service.pipeline.faults is service.store.faults
    finally:
        asyncio_run_close(service)


def asyncio_run_close(service):
    import asyncio

    asyncio.run(service.close())
