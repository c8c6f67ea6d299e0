#!/usr/bin/env python
"""Waterfall curves for several DVB-S2 rates, plotted in the terminal.

Sweeps Eb/N0 for three rates using the batched fast Monte-Carlo path
and renders the BER curves as ASCII — the qualitative picture behind
the standard's rate ladder.
"""

import numpy as np

from repro.codes import build_small_code
from repro.sim import fast_ber
from repro.sim.plot import ascii_ber_plot

PARALLELISM = 36
FRAMES = 24
RATES = {
    "1/2": np.arange(0.6, 2.61, 0.4),
    "3/4": np.arange(2.0, 4.01, 0.4),
    "9/10": np.arange(3.4, 5.41, 0.4),
}


def main() -> None:
    series = {}
    for rate, ebn0_points in RATES.items():
        code = build_small_code(rate, parallelism=PARALLELISM)
        points = []
        print(f"rate {rate}: ", end="", flush=True)
        for ebn0 in ebn0_points:
            result = fast_ber(
                code, ebn0_db=float(ebn0), frames=FRAMES,
                max_iterations=30, seed=3, schedule="flooding",
            )
            points.append((float(ebn0), result.ber))
            print(".", end="", flush=True)
        print()
        series[rate] = points

    print()
    print(
        ascii_ber_plot(
            series,
            title=(
                f"BER vs Eb/N0 — 1/10-scale DVB-S2 codes, "
                f"{FRAMES} frames/point, normalized min-sum"
            ),
        )
    )
    print("\nEach rate opens its waterfall ~0.3-1 dB from its Shannon")
    print("limit; higher rates need proportionally more SNR — the")
    print("ladder the DVB-S2 ACM controller climbs.")


if __name__ == "__main__":
    main()
