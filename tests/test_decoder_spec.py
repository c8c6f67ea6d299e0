"""Tests for repro.decode.DecoderSpec — the one decoder recipe.

The spec holds the recipe's six fields, their only defaults and their
checks; the keyword entry points, ``ServeConfig`` and the CLI all build
one.  These tests pin that contract: bad recipes fail at construction,
the keyword forms build the spec form's decoder bit for bit, and no
entry point declares a default of its own.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

import numpy as np
import pytest

from repro.channel import AwgnChannel
from repro.decode import DecoderSpec, available_backends
from repro.decode.batch import make_batch_decoder
from repro.obs.registry import MetricsRegistry
from repro.quantize import MESSAGE_6BIT, FixedPointFormat
from repro.serve import DecodeService, ServeConfig
from repro.sim import PersistentPool, fast_ber, parallel_ber
from repro.sim.sweep import parallel_snr_sweep

RECIPE_FIELDS = (
    "schedule", "normalization", "fmt", "channel_scale", "segments",
    "backend",
)


def _llrs(code, frames=4, seed=5):
    channel = AwgnChannel(
        ebn0_db=1.4, rate=float(code.profile.rate), seed=seed
    )
    return channel.llrs_all_zero(code.n, size=frames)


def test_defaults_are_the_served_decoder():
    spec = DecoderSpec()
    assert spec.schedule == "quantized-zigzag"
    assert spec.normalization == 0.75
    assert spec.fmt == MESSAGE_6BIT
    assert spec.channel_scale == 1.0
    assert spec.segments is None
    assert spec.backend == "numpy"
    assert spec.quantized


def test_fmt_and_backend_are_effective_values():
    """``None`` and the 6-bit format (or numpy) are one recipe: equal,
    same hash; a float schedule reads float64 LLRs (``fmt`` None)."""
    implicit = DecoderSpec()
    explicit = DecoderSpec(fmt=FixedPointFormat(6, 2), backend="numpy")
    assert implicit == explicit and hash(implicit) == hash(explicit)
    flooding = DecoderSpec(schedule="flooding")
    assert flooding.fmt is None and flooding.backend is None
    assert not flooding.quantized


@pytest.mark.parametrize(
    "recipe",
    [
        dict(schedule="flooding", normalization=0.0),
        dict(schedule="flooding", normalization=-1.0),
        dict(schedule="flooding", normalization=5.0),
        dict(schedule="zigzag", normalization=0.0),
        dict(schedule="zigzag", normalization=-1.0),
        dict(schedule="zigzag", normalization=5.0),
        dict(channel_scale=0.0),
        dict(channel_scale=-1.0),
        dict(channel_scale=float("nan")),
        dict(channel_scale=float("inf")),
        dict(schedule="flooding", segments=12),
        dict(schedule="quantized-minsum", segments=12),
    ],
    ids=[
        "flooding-norm-0", "flooding-norm-neg", "flooding-norm-5",
        "zigzag-norm-0", "zigzag-norm-neg", "zigzag-norm-5",
        "scale-0", "scale-neg", "scale-nan", "scale-inf",
        "flooding-segments", "minsum-segments",
    ],
)
def test_recipes_that_decode_garbage_are_rejected(code_half_tiny, recipe):
    """Each of these built a decoder that failed every frame (or cast
    NaN to int8) or silently dropped ``segments``."""
    with pytest.raises(ValueError):
        DecoderSpec(**recipe)
    with pytest.raises(ValueError):
        make_batch_decoder(code_half_tiny, **recipe)
    with pytest.raises(ValueError):
        ServeConfig(workers=2, **recipe)


def test_no_entry_point_declares_a_recipe_default():
    """One home for defaults: the keyword entry points take the recipe
    as ``**recipe`` and ``ServeConfig`` inherits the spec's fields."""
    for entry in (make_batch_decoder, parallel_ber, parallel_snr_sweep,
                  fast_ber):
        params = inspect.signature(entry).parameters
        assert not set(RECIPE_FIELDS) & set(params), entry.__name__
        assert any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in params.values()
        ), entry.__name__
    assert issubclass(ServeConfig, DecoderSpec)
    spec_defaults = {f.name: f.default for f in fields(DecoderSpec)}
    assert tuple(spec_defaults) == RECIPE_FIELDS
    serve_defaults = {
        f.name: f.default for f in fields(ServeConfig)
        if f.name in spec_defaults
    }
    assert serve_defaults == spec_defaults
    assert ServeConfig().decoder_spec == DecoderSpec()


@pytest.mark.parametrize("backend", ["numpy", "cnative"])
def test_keyword_forms_build_the_spec_form(
    code_half_tiny, backend, monkeypatch
):
    """The keyword forms the repository benchmark calls each build the
    spec form's decoder, and decode bit-identically to the numpy
    reference."""
    if backend not in available_backends():
        pytest.skip(f"{backend} unavailable here")
    code = code_half_tiny
    spec = DecoderSpec(schedule="quantized-zigzag", backend=backend)
    llrs = _llrs(code)
    want = DecoderSpec().build(code).decode_batch(llrs, max_iterations=12)
    kwargs = dict(max_frames=8, shard_frames=4, max_iterations=12, seed=3)
    reference = parallel_ber(code, 1.4, workers=1, **kwargs)
    built = []
    build = DecoderSpec.build

    def recording_build(self, code):
        built.append(self)
        return build(self, code)

    def check_built_only_spec():
        assert built and all(b == spec for b in built)
        built.clear()

    monkeypatch.setattr(DecoderSpec, "build", recording_build)

    got = make_batch_decoder(
        code, schedule="quantized-zigzag", backend=backend
    ).decode_batch(llrs, max_iterations=12)
    check_built_only_spec()
    np.testing.assert_array_equal(got.bits, want.bits)
    np.testing.assert_array_equal(got.iterations, want.iterations)

    with PersistentPool(1) as pool:
        run = parallel_ber(
            code, 1.4, schedule="quantized-zigzag", backend=backend,
            pool=pool, **kwargs,
        )
    check_built_only_spec()
    assert run.result == reference.result

    config = ServeConfig(
        backend=backend, max_batch=4, max_linger_ms=0.0,
        max_iterations=12, min_iterations=12,
    )
    assert config.decoder_spec == spec
    with DecodeService(code, config, registry=MetricsRegistry()) as svc:
        ids = [svc.submit(frame) for frame in llrs]
        svc.flush()
        results = {r.request_id: r for r in svc.poll()}
    check_built_only_spec()
    for row, request_id in enumerate(ids):
        np.testing.assert_array_equal(
            results[request_id].bits, want.bits[row]
        )
