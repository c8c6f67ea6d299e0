"""Binary-input AWGN channel with exact LLR computation.

Conventions (standard in the LDPC literature and in the paper's refs):

* Unit-energy BPSK: ``x = ±1`` (``Es = 1``),
* real noise with variance ``sigma^2 = N0 / 2``, so ``Es/N0 = 1 / (2 sigma^2)``,
* BPSK carries one bit per symbol, so ``Eb/N0 = (Es/N0) / R`` for code
  rate ``R``,
* channel LLR (the ``λ_ch`` of paper Eq. 4): ``L = 2 y / sigma^2``,
  positive for a likely 0 bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .modulation import bpsk_modulate


def ebn0_db_to_sigma(ebn0_db: float, rate: float) -> float:
    """Noise standard deviation for an Eb/N0 (dB) and code rate."""
    if rate <= 0:
        raise ValueError("code rate must be positive")
    esn0 = rate * 10.0 ** (ebn0_db / 10.0)
    return float(1.0 / np.sqrt(2.0 * esn0))


def sigma_to_ebn0_db(sigma: float, rate: float) -> float:
    """Inverse of :func:`ebn0_db_to_sigma`."""
    if sigma <= 0 or rate <= 0:
        raise ValueError("sigma and rate must be positive")
    esn0 = 1.0 / (2.0 * sigma * sigma)
    return float(10.0 * np.log10(esn0 / rate))


def esn0_db_to_sigma(esn0_db: float) -> float:
    """Noise standard deviation for an Es/N0 (dB)."""
    esn0 = 10.0 ** (esn0_db / 10.0)
    return float(1.0 / np.sqrt(2.0 * esn0))


@dataclass
class AwgnChannel:
    """Seeded AWGN channel producing channel LLRs.

    Parameters
    ----------
    ebn0_db:
        Operating point in Eb/N0 (dB).
    rate:
        Code rate used for the Eb/N0 → sigma conversion.
    seed:
        PRNG seed; ``None`` draws entropy from the OS.
    """

    ebn0_db: float
    rate: float
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.sigma = ebn0_db_to_sigma(self.ebn0_db, self.rate)
        self._rng = np.random.default_rng(self.seed)

    @property
    def esn0_db(self) -> float:
        """Operating point in Es/N0 (dB)."""
        return float(10.0 * np.log10(1.0 / (2.0 * self.sigma**2)))

    @property
    def llr_scale(self) -> float:
        """The exact LLR scale ``2 / sigma^2``."""
        return 2.0 / (self.sigma * self.sigma)

    def transmit(self, bits: np.ndarray) -> np.ndarray:
        """Modulate bits, add noise, and return received symbols.

        Accepts a single frame ``(n,)`` or a batch ``(frames, n)``; the
        noise stream is consumed row by row, so a batched call is
        stream-identical to the equivalent sequence of per-frame calls.
        """
        symbols = bpsk_modulate(bits)
        return symbols + self._rng.normal(0.0, self.sigma, size=symbols.shape)

    def llrs(self, bits: np.ndarray) -> np.ndarray:
        """Transmit bits and return the exact channel LLRs ``2 y / sigma^2``."""
        return self.llr_scale * self.transmit(bits)

    def llrs_all_zero(
        self, n: int, size: Optional[int] = None
    ) -> np.ndarray:
        """LLRs for the all-zero codeword without materializing the bits.

        Valid for linear codes with symmetric decoders: the BER of the
        all-zero word equals the average BER, the standard Monte-Carlo
        shortcut.

        With ``size`` given, returns a ``(size, n)`` batch drawn in one
        RNG call; the stream is identical to ``size`` sequential calls,
        so batched and per-frame simulations see the same noise.
        """
        shape = n if size is None else (size, n)
        # llr_scale * (1.0 + normal(0.0, sigma)) with no temporaries:
        # normal(0.0, sigma) is 0.0 + sigma * standard_normal on the
        # same stream, and 1.0 + x absorbs the sign of a zero x, so the
        # in-place steps give the same bits.
        llrs = self._rng.standard_normal(size=shape)
        llrs *= self.sigma
        llrs += 1.0
        llrs *= self.llr_scale
        return llrs

    def reseed(self, seed: int) -> None:
        """Restart the noise stream deterministically."""
        self._rng = np.random.default_rng(seed)
