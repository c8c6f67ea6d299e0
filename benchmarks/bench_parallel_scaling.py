"""Extension bench — parallel Monte-Carlo engine scaling.

Measures simulation throughput (frames/sec and info Mbit/s, comparable
to the paper's Eq. 8 hardware numbers) for:

* the pre-existing serial ``fast_ber`` path (flooding batch decoder),
* the batched zigzag decoder through the engine at 1, 2 and 4 workers.

Two effects compound: the zigzag schedule converges in roughly half the
iterations of flooding (paper Fig. 2), and multi-process sharding scales
with the available cores.  On a single-core host the worker sweep
degenerates (process overhead, no parallel gain) — the speedup assertion
is therefore conditioned on the detected CPU count, while the batched
zigzag engine must beat the serial baseline everywhere.
"""

import os
import time

from repro.core.report import format_table
from repro.sim import fast_ber, parallel_ber

from _helpers import cached_small_code, print_banner, save_bench_json

EBN0_DB = 1.6
FRAMES = 96
MAX_ITERATIONS = 30
WORKER_COUNTS = (1, 2, 4)


def _timed_fast_ber(code):
    t0 = time.perf_counter()
    result = fast_ber(
        code, EBN0_DB, frames=FRAMES, max_iterations=MAX_ITERATIONS,
        seed=21, schedule="flooding",
    )
    elapsed = time.perf_counter() - t0
    return result, FRAMES / elapsed, elapsed


def test_parallel_engine_scaling(once):
    code = cached_small_code("1/2")

    def run():
        baseline_result, baseline_fps, baseline_s = _timed_fast_ber(code)
        rows = [
            ("fast_ber serial", "flooding", 1, baseline_fps,
             baseline_fps * code.k / 1e6, 1.0)
        ]
        engine = {}
        for workers in WORKER_COUNTS:
            eng_run = parallel_ber(
                code, EBN0_DB, max_frames=FRAMES, workers=workers,
                max_iterations=MAX_ITERATIONS, schedule="zigzag",
                seed=21,
            )
            t = eng_run.telemetry
            rows.append(
                ("engine zigzag", "zigzag", workers, t.frames_per_sec,
                 t.info_mbps, t.frames_per_sec / baseline_fps)
            )
            engine[workers] = eng_run
        return rows, engine

    rows, engine = once(run)
    print_banner(
        f"Monte-Carlo engine scaling ({FRAMES} frames at "
        f"{EBN0_DB} dB, n={code.n})"
    )
    print(
        format_table(
            ("path", "schedule", "workers", "frames/s",
             "info Mb/s", "speedup"),
            [
                (p, s, w, f"{fps:.1f}", f"{mbps:.3f}", f"{x:.2f}x")
                for p, s, w, fps, mbps, x in rows
            ],
        )
    )
    cpus = os.cpu_count() or 1
    print(f"(host CPU count: {cpus})")
    save_bench_json(
        "parallel_scaling",
        {
            "ebn0_db": EBN0_DB,
            "frames": FRAMES,
            "cpu_count": cpus,
            "rows": [
                {
                    "path": p,
                    "schedule": s,
                    "workers": w,
                    "frames_per_sec": fps,
                    "info_mbps": mbps,
                    "speedup_vs_serial": x,
                }
                for p, s, w, fps, mbps, x in rows
            ],
        },
    )

    # The engine must be deterministic across the worker sweep ...
    results = [engine[w].result for w in WORKER_COUNTS]
    assert all(r == results[0] for r in results[1:])
    # ... and the batched zigzag path must beat the serial flooding
    # baseline outright.  With >= 4 cores the 4-worker run has to
    # clear 3x; a single-core host only sees the algorithmic gain.
    speedups = {w: engine[w].telemetry.frames_per_sec / rows[0][3]
                for w in WORKER_COUNTS}
    assert speedups[1] > 1.5
    if cpus >= 4:
        assert speedups[4] >= 3.0
