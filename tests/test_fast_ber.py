"""Tests for repro.sim.fast — the batched Monte-Carlo path."""

import pytest

from repro.decode import BatchMinSumDecoder, BeliefPropagationDecoder
from repro.sim import fast_ber, measure_ber


def test_fast_ber_counts(code_half):
    result = fast_ber(
        code_half, ebn0_db=3.0, frames=10, seed=1, schedule="flooding"
    )
    assert result.frames == 10
    assert result.total_bits == 10 * code_half.k
    assert result.bit_errors == 0
    assert result.converged_frames == 10


def test_fast_ber_sees_errors_at_low_snr(code_half):
    result = fast_ber(
        code_half, ebn0_db=-1.0, frames=4, seed=1, schedule="flooding"
    )
    assert result.frame_errors == 4
    assert result.ber > 0.01


def test_fast_ber_batching_invariance(code_half):
    """Splitting into different batch sizes must not change counts
    (the channel stream is consumed identically)."""
    kwargs = dict(ebn0_db=1.6, frames=9, seed=7, schedule="flooding")
    a = fast_ber(code_half, batch_size=3, **kwargs)
    b = fast_ber(code_half, batch_size=9, **kwargs)
    assert a.bit_errors == b.bit_errors
    assert a.frame_errors == b.frame_errors


def test_fast_ber_agrees_with_generic_harness(code_half):
    """Same decoder algorithm, same seeds → identical statistics to the
    generic per-frame harness."""
    generic = measure_ber(
        code_half,
        BeliefPropagationDecoder(code_half, "minsum", normalization=0.75),
        ebn0_db=1.6,
        max_frames=6,
        max_iterations=25,
        seed=3,
    )
    fast = fast_ber(
        code_half, ebn0_db=1.6, frames=6, max_iterations=25, seed=3,
        schedule="flooding",
    )
    assert fast.bit_errors == generic.bit_errors
    assert fast.frame_errors == generic.frame_errors
    assert fast.total_iterations == generic.total_iterations


def test_fast_ber_accepts_prebuilt_decoder(code_half):
    dec = BatchMinSumDecoder(code_half, normalization=0.8)
    result = fast_ber(code_half, ebn0_db=3.0, frames=3, decoder=dec)
    assert result.frames == 3
    with pytest.raises(TypeError, match="not both"):
        fast_ber(code_half, ebn0_db=3.0, frames=3, decoder=dec,
                 schedule="zigzag")


def test_fast_ber_validates_frames(code_half):
    with pytest.raises(ValueError, match="at least one"):
        fast_ber(code_half, ebn0_db=1.0, frames=0, schedule="flooding")


def test_fast_ber_zigzag_schedule_matches_single_frame_harness(code_half):
    """schedule="zigzag" routes through the batched zigzag decoder and
    stays bit-equivalent to the single-frame zigzag harness on the same
    noise stream."""
    from repro.decode import ZigzagDecoder
    from repro.sim import measure_ber

    p = code_half.profile.parallelism
    generic = measure_ber(
        code_half,
        ZigzagDecoder(
            code_half, "minsum", normalization=0.75, segments=p
        ),
        ebn0_db=1.6,
        max_frames=6,
        max_iterations=25,
        seed=3,
    )
    fast = fast_ber(
        code_half, ebn0_db=1.6, frames=6, max_iterations=25, seed=3,
        schedule="zigzag",
    )
    assert fast.bit_errors == generic.bit_errors
    assert fast.frame_errors == generic.frame_errors
    assert fast.total_iterations == generic.total_iterations
