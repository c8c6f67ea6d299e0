"""Tests for repro.channel.factory — the MODCOD channel factory."""

import numpy as np
import pytest

from repro.channel import (
    AwgnChannel,
    BlockFadingChannel,
    MODULATION_BITS,
    SymbolChannel,
    build_channel,
    constellation_for,
    psk8,
    qpsk,
)


def test_bpsk_awgn_returns_legacy_channel():
    """The default cell must be the literal legacy object so every
    existing seeded stream stays bit-identical."""
    ch = build_channel(ebn0_db=2.0, rate=0.5, seed=3)
    assert type(ch) is AwgnChannel
    legacy = AwgnChannel(ebn0_db=2.0, rate=0.5, seed=3)
    np.testing.assert_array_equal(
        ch.llrs_all_zero(100), legacy.llrs_all_zero(100)
    )


def test_bpsk_fading_returns_block_fading():
    ch = build_channel(
        ebn0_db=2.0, rate=0.5, channel="rician", seed=3
    )
    assert type(ch) is BlockFadingChannel
    ray = build_channel(
        ebn0_db=2.0, rate=0.5, channel="rayleigh", seed=3
    )
    assert ray.k_factor_db is None


def test_higher_order_returns_symbol_channel():
    for modulation in ("qpsk", "8psk", "16apsk", "32apsk"):
        ch = build_channel(
            ebn0_db=6.0, rate=0.5, modulation=modulation, seed=1,
            rate_label="1/2",
        )
        assert isinstance(ch, SymbolChannel)
        assert ch.bits_per_symbol == MODULATION_BITS[modulation]


def test_unknown_names_raise():
    with pytest.raises(ValueError):
        build_channel(ebn0_db=2.0, rate=0.5, modulation="64apsk")
    with pytest.raises(ValueError):
        build_channel(ebn0_db=2.0, rate=0.5, channel="bursty")


def test_frame_length_must_divide_bits_per_symbol():
    ch = build_channel(
        ebn0_db=6.0, rate=0.5, modulation="8psk", seed=1
    )
    with pytest.raises(ValueError):
        ch.llrs(np.zeros(100, dtype=np.uint8))  # 100 % 3 != 0


def test_qpsk_high_snr_recovers_bits(rng):
    bits = rng.integers(0, 2, size=600, dtype=np.uint8)
    ch = build_channel(
        ebn0_db=14.0, rate=0.5, modulation="qpsk", seed=5
    )
    llrs = ch.llrs(bits)
    decided = (llrs < 0).astype(np.uint8)
    assert np.array_equal(decided, bits)


def test_batched_llrs_match_sequential():
    """(frames, n) batches consume the stream exactly like sequential
    frame calls — the serve pool and the trace harness rely on it."""
    bits = np.random.default_rng(2).integers(
        0, 2, size=(3, 300), dtype=np.uint8
    )
    make = lambda: build_channel(
        ebn0_db=7.0, rate=0.5, modulation="8psk",
        channel="rician", seed=21,
    )
    batched = make().llrs(bits)
    seq = make()
    sequential = np.stack([seq.llrs(row) for row in bits])
    np.testing.assert_allclose(batched, sequential)


def test_symbol_all_zero_matches_explicit_zeros():
    make = lambda: build_channel(
        ebn0_db=7.0, rate=0.5, modulation="qpsk", seed=23
    )
    shortcut = make().llrs_all_zero(400)
    explicit = make().llrs(np.zeros(400, dtype=np.uint8))
    np.testing.assert_allclose(shortcut, explicit)
    stacked = make().llrs_all_zero(400, size=2)
    assert stacked.shape == (2, 400)


def test_symbol_channel_esn0_and_reseed():
    ch = build_channel(
        ebn0_db=5.0, rate=0.5, modulation="8psk", seed=29
    )
    assert ch.esn0_db == pytest.approx(5.0 + 10 * np.log10(3 * 0.5))
    first = ch.llrs_all_zero(300)
    ch.reseed(29)
    np.testing.assert_allclose(ch.llrs_all_zero(300), first)


def test_symbol_awgn_matches_psk8_channel():
    """SymbolChannel under AWGN must agree numerically with the
    dedicated Psk8Channel demapper on the same received symbols."""
    from repro.channel.psk import Psk8Channel

    bits = np.random.default_rng(3).integers(
        0, 2, size=300, dtype=np.uint8
    )
    a = SymbolChannel(psk8(), ebn0_db=8.0, rate=0.5, seed=31)
    b = Psk8Channel(ebn0_db=8.0, rate=0.5, seed=31)
    np.testing.assert_allclose(a.llrs(bits), b.llrs(bits), atol=1e-9)


def test_array_sigma_matches_scalar_on_unit_gains():
    """Per-symbol sigma demap with a constant vector must equal the
    scalar-sigma demap (the coherent-equalization identity's base
    case)."""
    const = constellation_for("16apsk", "3/4")
    rng = np.random.default_rng(4)
    received = rng.normal(size=50) + 1j * rng.normal(size=50)
    scalar = const.llrs(received, 0.4)
    vector = const.llrs(received, np.full(50, 0.4))
    np.testing.assert_allclose(scalar, vector)


def test_fading_symbol_channel_equalizes_known_gains():
    """Coherent equalization: with known gains the deep-faded symbols
    get proportionally weak LLRs, and at high SNR the hard decisions
    still recover every bit."""
    bits = np.random.default_rng(6).integers(
        0, 2, size=600, dtype=np.uint8
    )
    faded = SymbolChannel(
        qpsk(), ebn0_db=20.0, rate=0.5, seed=41,
        fading="rayleigh", block_length=10,
    )
    llrs = faded.llrs(bits)
    assert np.array_equal((llrs < 0).astype(np.uint8), bits)


def test_fast_ber_accepts_factory_channel(code_half_tiny):
    from repro.sim import fast_ber

    ch = build_channel(
        ebn0_db=7.0,
        rate=float(code_half_tiny.profile.rate),
        modulation="8psk",
        seed=47,
    )
    result = fast_ber(
        code_half_tiny, 7.0, frames=4, max_iterations=20, channel=ch,
        schedule="flooding",
    )
    assert result.frames == 4
    assert result.fer <= 1.0


def test_parallel_ber_channel_spec_worker_invariant(code_half_tiny):
    """A channel spec must give bit-identical results for any worker
    count (the engine's core reproducibility contract)."""
    from repro.sim import parallel_ber

    spec = {
        "modulation": "qpsk",
        "channel": "rician",
        "rate_label": "1/2",
    }
    runs = [
        parallel_ber(
            code_half_tiny,
            6.0,
            max_frames=8,
            max_iterations=15,
            workers=w,
            seed=51,
            channel=spec,
            schedule="zigzag",
        )
        for w in (1, 2)
    ]
    assert runs[0].result.ber == runs[1].result.ber
    assert runs[0].result.fer == runs[1].result.fer
