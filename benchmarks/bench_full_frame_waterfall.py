"""Full-size waterfall points — genuine 64800-bit frames, no scaling.

Measures FER/BER of the full-length R=1/2 code at two operating points
bracketing its waterfall, using the batched min-sum decoder.  Shows the
real frame size's steep waterfall (the paper's reason for choosing
N=64800) and anchors the Shannon-gap discussion at full length.
"""

from repro.channel import shannon_limit_ebn0_db
from repro.core.report import format_table
from repro.sim import fast_ber

from _helpers import cached_full_code, print_banner

FRAMES = 14


def test_full_frame_waterfall(once):
    code = cached_full_code("1/2")

    def run():
        below = fast_ber(code, ebn0_db=1.1, frames=FRAMES,
                         max_iterations=30, seed=1, batch_size=7,
                         schedule="flooding")
        above = fast_ber(code, ebn0_db=1.5, frames=FRAMES,
                         max_iterations=30, seed=1, batch_size=7,
                         schedule="flooding")
        return below, above

    below, above = once(run)
    limit = shannon_limit_ebn0_db(0.5)
    rows = [
        (f"{below.ebn0_db:.1f}", f"{below.fer:.2f}", f"{below.ber:.1e}"),
        (f"{above.ebn0_db:.1f}", f"{above.fer:.2f}", f"{above.ber:.1e}"),
    ]
    print_banner(
        f"Full 64800-bit R=1/2 frames, normalized min-sum, "
        f"{FRAMES} frames/point"
    )
    print(format_table(("Eb/N0 dB", "FER", "BER"), rows))
    print(f"\n  Shannon limit (BPSK): {limit:.2f} dB")
    print("  the waterfall falls inside a 0.4 dB window ~1.2 dB from")
    print("  the limit (min-sum penalty included); the paper's 0.7 dB")
    print("  figure is for full BP on the standard's tables")
    # the waterfall: near-certain failure below, mostly clean above
    assert below.fer >= 0.8
    assert above.fer <= 0.4
    assert above.ber < below.ber
