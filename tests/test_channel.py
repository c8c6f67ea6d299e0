"""Tests for repro.channel — modulation, AWGN, LLRs."""

import numpy as np
import pytest

from repro.channel import (
    AwgnChannel,
    bpsk_demodulate_hard,
    bpsk_modulate,
    ebn0_db_to_sigma,
    esn0_db_to_sigma,
    qpsk_demodulate_hard,
    qpsk_modulate,
    sigma_to_ebn0_db,
)


def test_bpsk_mapping_convention():
    assert bpsk_modulate(np.array([0, 1])).tolist() == [1.0, -1.0]


def test_bpsk_rejects_non_binary():
    with pytest.raises(ValueError, match="0/1"):
        bpsk_modulate(np.array([0, 2]))


def test_bpsk_hard_demod_roundtrip(rng):
    bits = rng.integers(0, 2, 100, dtype=np.uint8)
    assert np.array_equal(bpsk_demodulate_hard(bpsk_modulate(bits)), bits)


def test_qpsk_roundtrip(rng):
    bits = rng.integers(0, 2, 200, dtype=np.uint8)
    assert np.array_equal(qpsk_demodulate_hard(qpsk_modulate(bits)), bits)


def test_qpsk_unit_energy(rng):
    bits = rng.integers(0, 2, 200, dtype=np.uint8)
    syms = qpsk_modulate(bits)
    assert np.allclose(np.abs(syms), 1.0)


def test_qpsk_rejects_odd_length():
    with pytest.raises(ValueError, match="even number"):
        qpsk_modulate(np.array([0, 1, 0]))


def test_sigma_conversion_roundtrip():
    for ebn0 in (-2.0, 0.0, 1.5, 10.0):
        sigma = ebn0_db_to_sigma(ebn0, rate=0.5)
        assert sigma_to_ebn0_db(sigma, rate=0.5) == pytest.approx(ebn0)


def test_sigma_decreases_with_snr():
    assert ebn0_db_to_sigma(5.0, 0.5) < ebn0_db_to_sigma(0.0, 0.5)


def test_sigma_depends_on_rate():
    """Same Eb/N0, higher rate => more symbol energy => smaller sigma."""
    assert ebn0_db_to_sigma(2.0, 0.9) < ebn0_db_to_sigma(2.0, 0.25)


def test_esn0_matches_ebn0_at_rate_one_equivalent():
    assert esn0_db_to_sigma(3.0) == pytest.approx(
        ebn0_db_to_sigma(3.0, 1.0)
    )


def test_invalid_conversions_raise():
    with pytest.raises(ValueError):
        ebn0_db_to_sigma(1.0, 0.0)
    with pytest.raises(ValueError):
        sigma_to_ebn0_db(-1.0, 0.5)


def test_channel_llr_scale():
    ch = AwgnChannel(ebn0_db=1.0, rate=0.5, seed=0)
    assert ch.llr_scale == pytest.approx(2.0 / ch.sigma**2)


def test_channel_esn0_property():
    ch = AwgnChannel(ebn0_db=1.0, rate=0.5, seed=0)
    # Es/N0 = R * Eb/N0 => in dB: +10log10(0.5) ≈ -3.01
    assert ch.esn0_db == pytest.approx(1.0 - 3.0103, abs=1e-3)


def test_channel_is_deterministic_with_seed():
    a = AwgnChannel(ebn0_db=1.0, rate=0.5, seed=42).llrs_all_zero(100)
    b = AwgnChannel(ebn0_db=1.0, rate=0.5, seed=42).llrs_all_zero(100)
    assert np.array_equal(a, b)


def test_reseed_restarts_stream():
    ch = AwgnChannel(ebn0_db=1.0, rate=0.5, seed=42)
    a = ch.llrs_all_zero(50)
    ch.reseed(42)
    b = ch.llrs_all_zero(50)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("ebn0_db", [1.0, 3.0])
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_all_zero_llrs_bits_match_textbook_form(ebn0_db, seed):
    """The in-place noise scaling returns the very float64 bits of
    ``llr_scale * (1.0 + normal(0.0, sigma))``, single frame and batch."""
    n = 2000
    for size, shape in ((None, (n,)), (5, (5, n))):
        ch = AwgnChannel(ebn0_db=ebn0_db, rate=0.5, seed=seed)
        got = ch.llrs_all_zero(n, size=size)
        noise = np.random.default_rng(seed).normal(0.0, ch.sigma, shape)
        want = ch.llr_scale * (1.0 + noise)
        assert got.shape == shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_all_zero_llrs_are_mostly_positive():
    """At high SNR the all-zero shortcut must produce positive LLRs."""
    ch = AwgnChannel(ebn0_db=10.0, rate=0.5, seed=1)
    llrs = ch.llrs_all_zero(10000)
    assert (llrs > 0).mean() > 0.99


def test_llr_statistics_match_theory():
    """Channel LLRs for bit 0 are N(2/sigma^2, 4/sigma^2)."""
    ch = AwgnChannel(ebn0_db=2.0, rate=0.5, seed=3)
    llrs = ch.llrs_all_zero(200_000)
    mean = 2.0 / ch.sigma**2
    var = 4.0 / ch.sigma**2
    assert llrs.mean() == pytest.approx(mean, rel=0.02)
    assert llrs.var() == pytest.approx(var, rel=0.03)


def test_transmit_adds_noise_of_right_power(rng):
    ch = AwgnChannel(ebn0_db=0.0, rate=0.5, seed=9)
    bits = np.zeros(100_000, dtype=np.uint8)
    received = ch.transmit(bits)
    noise = received - 1.0
    assert noise.std() == pytest.approx(ch.sigma, rel=0.02)
