"""Shared API-conformance suite: every decoder speaks the same dialect.

The redesign's contract, checked uniformly across the registry:

- constructors take keyword-only uniform parameters (``threads=``,
  ``policy=``, ``verify=``, ``counter=`` where meaningful) and reject
  positional use;
- ``decode(code, stripe, faulty)`` returns ``{block_id: region}``, and
  ``decode(..., return_stats=True)`` returns ``(recovered, stats)``
  with mult_XOR accounting;
- ``get_decoder(kind, **params)`` constructs every registered kind.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import (
    BitMatrixDecoder,
    PPMDecoder,
    ProcessParallelDecoder,
    RowParallelDecoder,
    SegmentParallelDecoder,
    TraditionalDecoder,
    available_decoders,
    get_decoder,
    register_decoder,
)
from repro.gf import OpCounter
from repro.pipeline import DecodePipeline
from repro.stripes import Stripe, StripeLayout, worst_case_sd

#: kind -> (constructor params, decoder classes covered)
DECODER_PARAMS: dict[str, dict] = {
    "traditional": {},
    "ppm": {"threads": 2},
    "row_parallel": {"threads": 2},
    "segment_parallel": {"threads": 2},
    "process_parallel": {"threads": 2},
    "bitmatrix": {},
    "pipeline": {"workers": 2, "pool": "serial"},
}

DECODER_CLASSES = [
    TraditionalDecoder,
    PPMDecoder,
    RowParallelDecoder,
    SegmentParallelDecoder,
    ProcessParallelDecoder,
    BitMatrixDecoder,
    DecodePipeline,
]


@pytest.fixture(scope="module")
def setup():
    code = SDCode(6, 6, 2, 2)
    scen = worst_case_sd(code, z=1, rng=0)
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, 32, rng=1)
    TraditionalDecoder().encode_into(code, stripe)
    truth = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    return code, list(scen.faulty_blocks), stripe, truth


def make(kind):
    return get_decoder(kind, **DECODER_PARAMS[kind])


def close(decoder):
    if hasattr(decoder, "close"):
        decoder.close()


def test_registry_covers_every_decoder_class():
    assert set(DECODER_PARAMS) == set(available_decoders())


def test_get_decoder_unknown_kind_lists_available():
    with pytest.raises(ValueError, match="bitmatrix"):
        get_decoder("magic")


def test_register_decoder_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_decoder("ppm", PPMDecoder)


@pytest.mark.parametrize("cls", DECODER_CLASSES)
def test_constructors_are_keyword_only(cls):
    signature = inspect.signature(cls.__init__)
    for name, param in signature.parameters.items():
        if name == "self":
            continue
        assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
            f"{cls.__name__}.__init__ parameter {name!r} is not keyword-only"
        )
    with pytest.raises(TypeError):
        cls("positional")


@pytest.mark.parametrize("kind", sorted(DECODER_PARAMS))
def test_decode_returns_recovered_mapping(setup, kind):
    code, faulty, stripe, truth = setup
    decoder = make(kind)
    try:
        recovered = decoder.decode(code, stripe, faulty)
    finally:
        close(decoder)
    assert sorted(recovered) == sorted(faulty)
    for b in faulty:
        assert np.array_equal(recovered[b], truth.get(b)), (kind, b)


@pytest.mark.parametrize("kind", sorted(DECODER_PARAMS))
def test_decode_return_stats_flag(setup, kind):
    code, faulty, stripe, truth = setup
    decoder = make(kind)
    try:
        recovered, stats = decoder.decode(code, stripe, faulty, return_stats=True)
    finally:
        close(decoder)
    assert sorted(recovered) == sorted(faulty)
    assert stats.mult_xors > 0
    assert stats.symbols > 0
    assert stats.wall_seconds >= 0.0


@pytest.mark.parametrize(
    "kind", ["traditional", "ppm", "segment_parallel", "process_parallel", "bitmatrix"]
)
def test_counter_parameter_is_uniform(setup, kind):
    code, faulty, stripe, _ = setup
    counter = OpCounter()
    decoder = get_decoder(kind, counter=counter, **DECODER_PARAMS[kind])
    try:
        _, stats = decoder.decode(code, stripe, faulty, return_stats=True)
    finally:
        close(decoder)
    mult_xors, _, _ = counter.snapshot()
    assert mult_xors == stats.mult_xors


@pytest.mark.parametrize("kind", sorted(DECODER_PARAMS))
def test_verify_parameter_is_uniform(setup, kind):
    code, faulty, stripe, truth = setup
    decoder = get_decoder(kind, verify=True, **DECODER_PARAMS[kind])
    try:
        recovered = decoder.decode(code, stripe, faulty)
    finally:
        close(decoder)
    for b in faulty:
        assert np.array_equal(recovered[b], truth.get(b)), (kind, b)


def test_all_decoders_agree_bit_for_bit(setup):
    code, faulty, stripe, truth = setup
    outputs = {}
    for kind in sorted(DECODER_PARAMS):
        decoder = make(kind)
        try:
            outputs[kind] = decoder.decode(code, stripe, faulty)
        finally:
            close(decoder)
    for kind, recovered in outputs.items():
        for b in faulty:
            assert np.array_equal(recovered[b], truth.get(b)), (kind, b)
