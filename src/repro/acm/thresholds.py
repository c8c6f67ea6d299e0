"""MODCOD threshold tables: where each operating point starts working.

A threshold table is the ACM controller's policy: for each MODCOD, the
minimum Es/N0 at which its FER clears the target, measured with the
repo's own Monte-Carlo engines (the same provenance discipline as the
committed waterfall experiments — every threshold is reproducible from
a seed).  Entries sort by spectral efficiency; selection returns the
most efficient MODCOD whose threshold the measured SNR clears, with
the least efficient entry as the floor (a satellite link always
transmits *something*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sim.fast import fast_ber
from .modcod import ModCod, build_modcod_code, make_channel


@dataclass(frozen=True)
class ModcodThreshold:
    """One table row: the MODCOD and its minimum operating Es/N0."""

    modcod: ModCod
    esn0_db: float


class ThresholdTable:
    """Threshold rows sorted by spectral efficiency (ascending)."""

    def __init__(self, entries: Sequence[ModcodThreshold]) -> None:
        if not entries:
            raise ValueError("need at least one threshold entry")
        self.entries: List[ModcodThreshold] = sorted(
            entries,
            key=lambda e: (e.modcod.spectral_efficiency, e.esn0_db),
        )
        labels = [e.modcod.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate MODCOD in threshold table")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def select_index(self, esn0_db: float) -> int:
        """Index of the most efficient MODCOD whose threshold is
        cleared; 0 (the floor entry) when none is."""
        chosen = 0
        for index, entry in enumerate(self.entries):
            if esn0_db >= entry.esn0_db:
                chosen = index
        return chosen

    def select(self, esn0_db: float) -> ModCod:
        """The MODCOD for a measured Es/N0."""
        return self.entries[self.select_index(esn0_db)].modcod

    def index_of(self, modcod: ModCod) -> int:
        for index, entry in enumerate(self.entries):
            if entry.modcod == modcod:
                return index
        raise KeyError(f"{modcod.label} not in table")

    def to_rows(self) -> List[dict]:
        """JSON-able rows (for reports and the CLI)."""
        return [
            {
                "modcod": e.modcod.label,
                "esn0_db": round(e.esn0_db, 3),
                "spectral_efficiency": round(
                    e.modcod.spectral_efficiency, 4
                ),
            }
            for e in self.entries
        ]


# ----------------------------------------------------------------------
def _fer_at(
    code,
    modcod: ModCod,
    esn0_db: float,
    *,
    channel: str,
    frames: int,
    max_iterations: int,
    seed: int,
) -> float:
    ch = make_channel(
        modcod, esn0_db=esn0_db, channel=channel, seed=seed
    )
    result = fast_ber(
        code,
        modcod.ebn0_from_esn0(esn0_db),
        frames=frames,
        max_iterations=max_iterations,
        channel=ch,
        # The committed thresholds describe float flooding; they move to
        # the served decoder together with its check-node rule.
        schedule="flooding",
    )
    return result.fer


def derive_threshold_table(
    modcods: Sequence[ModCod],
    *,
    parallelism: int = 36,
    channel: str = "awgn",
    target_fer: float = 0.5,
    margin_db: float = 0.5,
    lo_db: float = -6.0,
    hi_db: float = 14.0,
    resolution_db: float = 0.25,
    frames: int = 48,
    max_iterations: int = 30,
    seed: int = 2005,
) -> ThresholdTable:
    """Measure each MODCOD's threshold by bisecting its FER waterfall.

    For every MODCOD the Es/N0 where the FER crosses ``target_fer`` is
    located by bisection over float flooding min-sum
    :func:`~repro.sim.fast.fast_ber` runs (through the channel-factory
    cell for ``channel``), then ``margin_db`` of
    link margin is added — the table records where the MODCOD is *safe*
    to run, not where it starts limping.  ``parallelism`` scales
    normal-frame codes for fast derivation; thresholds derived on the
    structure-preserving scaled codes are internally consistent (the
    controller only compares against them), and full-size tables are a
    matter of budget, not code.
    """
    entries = []
    for modcod in modcods:
        code = build_modcod_code(modcod, parallelism=parallelism)
        lo, hi = float(lo_db), float(hi_db)
        fer_kwargs = dict(
            channel=channel,
            frames=frames,
            max_iterations=max_iterations,
            seed=seed,
        )
        if _fer_at(code, modcod, hi, **fer_kwargs) > target_fer:
            crossing = hi  # never works in range; pinned at the top
        elif _fer_at(code, modcod, lo, **fer_kwargs) <= target_fer:
            crossing = lo  # already fine at the bottom of the range
        else:
            while hi - lo > resolution_db:
                mid = 0.5 * (lo + hi)
                if _fer_at(code, modcod, mid, **fer_kwargs) > target_fer:
                    lo = mid
                else:
                    hi = mid
            crossing = 0.5 * (lo + hi)
        entries.append(
            ModcodThreshold(
                modcod=modcod, esn0_db=crossing + margin_db
            )
        )
    return ThresholdTable(entries)


# ----------------------------------------------------------------------
#: Measured thresholds for the default BPSK rate ladder on the
#: structure-preserving scaled codes (P=36, n=6480/4320 — rate 1/4 is
#: n=8640 at P=36), via ``derive_threshold_table`` with its defaults
#: (AWGN, FER 0.5 crossing + 0.5 dB margin, 48 frames/point, 30
#: iterations, resolution 0.25 dB, seed 2005).  Regenerate with
#: ``python -m repro acm --derive`` after any decoder change that moves
#: waterfalls.
DEFAULT_SCALED_BPSK_THRESHOLDS_DB = {
    "1/4": -2.766,
    "1/2": -1.203,
    "3/4": 1.609,
}


def default_scaled_table() -> ThresholdTable:
    """The committed scaled-code BPSK ladder (see the constants above).

    Three well-separated rates — enough structure for the controller's
    up/down dynamics, small enough that tests and CI derive nothing.
    """
    return ThresholdTable(
        [
            ModcodThreshold(ModCod(rate), esn0_db)
            for rate, esn0_db in (
                DEFAULT_SCALED_BPSK_THRESHOLDS_DB.items()
            )
        ]
    )
