"""Extension bench — batched fixed-point decoding engine.

Measures the two things PR 4's decoders exist for:

* **throughput** — frames/s of the serial single-frame
  ``QuantizedZigzagDecoder`` loop versus ``BatchQuantizedZigzagDecoder``
  on the same LLR block (full 64800-bit rate-1/2 code, batch of 32),
  a ``decode_batch[cnative]`` row when the compiled backend is
  available (bits asserted identical to the numpy row), and the engine path
  (``parallel_ber`` with ``schedule="quantized-zigzag"``) at 1, 2 and
  4 workers.  The batch is decoded bit-identically to the serial loop —
  asserted here on the overlapping frames — so the speedup is free of
  accuracy caveats.  Worker-count determinism is asserted as in
  ``bench_parallel_scaling.py``.
* **quantization loss** — the float-vs-6-bit waterfall gap, now measured
  with Monte-Carlo statistics the batched path makes affordable: paired
  ``fast_ber`` grids (same noise seeds per point) for the float zigzag
  and the 6-bit quantized zigzag, log-interpolated to the Eb/N0 each
  needs for a target BER.  The paper's Section 2.1 figure for 6-bit
  messages is ~0.1 dB.

``BENCH_SMOKE=1`` switches to the 1/10-scale code and small budgets so
the whole file finishes in seconds (the tier-1 suite runs it that way,
with ``BENCH_OUT`` pointed at a temp dir so the committed JSON
survives).
"""

import os
import time

import numpy as np

from repro.channel import AwgnChannel
from repro.core.report import format_table
from repro.decode import (
    BatchQuantizedZigzagDecoder,
    QuantizedZigzagDecoder,
    available_backends,
    backend_status,
)
from repro.sim import fast_ber, parallel_ber

from _helpers import (
    cached_full_code,
    cached_small_code,
    print_banner,
    save_bench_json,
)

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

RATE = "1/2"
NORMALIZATION = 0.75
CHANNEL_SCALE = 0.5  # keeps ~2 dB channel LLRs inside the 6-bit range
BATCH = 32
#: Frames decoded by the serial single-frame loop (its frames/s is a
#: per-frame rate, so a subset of the batch gives the same statistic).
SERIAL_FRAMES = 4 if SMOKE else 8
#: Interleaved timing repetitions; each path's frames/s comes from its
#: best rep, so a scheduler hiccup on one rep cannot skew the ratio
#: (the serial loop runs for seconds and is otherwise noise-limited).
TIMING_REPS = 2 if SMOKE else 3
THROUGHPUT_EBN0_DB = 1.8 if SMOKE else 1.5
MAX_ITERATIONS = 30
ENGINE_FRAMES = 64 if SMOKE else 96
WORKER_COUNTS = (1, 2, 4)
#: Required batch-vs-serial frames/s ratio (acceptance bar: >= 5x on the
#: full-frame code; the scaled smoke code has less arithmetic to
#: amortize per python-level dispatch, so its bar is lower).
MIN_SPEEDUP = 2.0 if SMOKE else 5.0
#: Required cnative-vs-numpy decode_batch ratio.
FUSED_MIN_SPEEDUP = 1.2 if SMOKE else 3.0

#: Waterfall grid for the float-vs-6-bit delta.
GRID_DB = (0.8, 1.2, 1.6) if SMOKE else (1.0, 1.2, 1.4, 1.6, 1.8)
GRID_FRAMES = 48 if SMOKE else 1536
TARGET_BER = 1e-3

#: Accumulated across this module's tests; each test re-saves the JSON,
#: so after a full file run the artifact holds every section.
_PAYLOAD = {"rate": RATE, "smoke": SMOKE}


def _throughput_code():
    return cached_small_code(RATE) if SMOKE else cached_full_code(RATE)


def _interp_ebn0_at_ber(points, target, total_bits):
    """Log-linear Eb/N0 where the BER curve crosses ``target``.

    ``points`` is a list of ``(ebn0_db, ber)`` in ascending Eb/N0.  Zero
    BERs are clamped to the one-error resolution limit so the log is
    defined; returns ``None`` when the curve never crosses.
    """
    floor = 1.0 / total_bits
    bers = [max(ber, floor) for _, ber in points]
    for (x0, _), (x1, _), b0, b1 in zip(
        points, points[1:], bers, bers[1:]
    ):
        if b0 >= target >= b1 and b0 > b1:
            frac = (np.log(b0) - np.log(target)) / (
                np.log(b0) - np.log(b1)
            )
            return float(x0 + (x1 - x0) * frac)
    return None


def test_quantized_batch_throughput(once):
    code = _throughput_code()
    channel = AwgnChannel(
        ebn0_db=THROUGHPUT_EBN0_DB, rate=float(code.profile.rate), seed=17
    )
    llrs = channel.llrs_all_zero(code.n, size=BATCH)
    serial_dec = QuantizedZigzagDecoder(
        code, normalization=NORMALIZATION, channel_scale=CHANNEL_SCALE
    )
    batch_dec = BatchQuantizedZigzagDecoder(
        code, normalization=NORMALIZATION, channel_scale=CHANNEL_SCALE
    )

    def run():
        serial_best = batch_best = float("inf")
        for _ in range(TIMING_REPS):
            t0 = time.perf_counter()
            serial_results = [
                serial_dec.decode(llrs[f], max_iterations=MAX_ITERATIONS)
                for f in range(SERIAL_FRAMES)
            ]
            serial_best = min(serial_best, time.perf_counter() - t0)

            t0 = time.perf_counter()
            batch_result = batch_dec.decode_batch(
                llrs, max_iterations=MAX_ITERATIONS
            )
            batch_best = min(batch_best, time.perf_counter() - t0)
        serial_fps = SERIAL_FRAMES / serial_best
        batch_fps = BATCH / batch_best

        # One decode_batch row per available array backend (the numpy
        # row above *is* the "numpy" backend).
        backends = {}
        for name in available_backends():
            if name == "numpy":
                backends[name] = (batch_fps, batch_result)
                continue
            dec = BatchQuantizedZigzagDecoder(
                code, normalization=NORMALIZATION,
                channel_scale=CHANNEL_SCALE, backend=name,
            )
            dec.decode_batch(llrs, max_iterations=MAX_ITERATIONS)  # warm
            best = float("inf")
            result = None
            for _ in range(TIMING_REPS):
                t0 = time.perf_counter()
                result = dec.decode_batch(
                    llrs, max_iterations=MAX_ITERATIONS
                )
                best = min(best, time.perf_counter() - t0)
            backends[name] = (BATCH / best, result)

        engine = {}
        for workers in WORKER_COUNTS:
            engine[workers] = parallel_ber(
                code, THROUGHPUT_EBN0_DB, max_frames=ENGINE_FRAMES,
                workers=workers, max_iterations=MAX_ITERATIONS,
                schedule="quantized-zigzag",
                normalization=NORMALIZATION,
                channel_scale=CHANNEL_SCALE, seed=17,
            )
        return (
            serial_results, serial_fps, batch_result, batch_fps,
            backends, engine,
        )

    (
        serial_results, serial_fps, batch_result, batch_fps,
        backends, engine,
    ) = once(run)

    speedup = batch_fps / serial_fps
    cpus = os.cpu_count() or 1
    status = backend_status()
    rows = [
        ("serial loop", 1, 1, serial_fps,
         serial_fps * code.k / 1e6, 1.0),
        ("decode_batch", BATCH, 1, batch_fps,
         batch_fps * code.k / 1e6, speedup),
    ]
    for name, (fps, _) in backends.items():
        if name == "numpy":
            continue
        rows.append(
            (f"decode_batch[{name}]", BATCH, 1, fps,
             fps * code.k / 1e6, fps / serial_fps)
        )
    for workers in WORKER_COUNTS:
        t = engine[workers].telemetry
        rows.append(
            ("engine", BATCH, workers, t.frames_per_sec, t.info_mbps,
             t.frames_per_sec / serial_fps)
        )
    print_banner(
        f"Quantized zigzag throughput (n={code.n}, "
        f"{THROUGHPUT_EBN0_DB} dB{', smoke mode' if SMOKE else ''})"
    )
    print(
        format_table(
            ("path", "batch", "workers", "frames/s", "info Mb/s",
             "speedup"),
            [
                (p, b, w, f"{fps:.2f}", f"{mbps:.3f}", f"{x:.2f}x")
                for p, b, w, fps, mbps, x in rows
            ],
        )
    )
    print(f"(host CPU count: {cpus})")
    _PAYLOAD["throughput"] = {
        "n": code.n,
        "ebn0_db": THROUGHPUT_EBN0_DB,
        "batch_size": BATCH,
        "serial_frames": SERIAL_FRAMES,
        "timing_reps": TIMING_REPS,
        "cpu_count": cpus,
        "rows": [
            {
                "path": p,
                "batch": b,
                "workers": w,
                "frames_per_sec": fps,
                "info_mbps": mbps,
                "speedup_vs_serial": x,
            }
            for p, b, w, fps, mbps, x in rows
        ],
        "backends": {
            name: {
                "kind": status[name][0],
                "frames_per_sec": fps,
                "speedup_vs_numpy": fps / batch_fps,
            }
            for name, (fps, _) in backends.items()
        },
    }
    save_bench_json("quantized_scaling", _PAYLOAD)

    # The speedup is only meaningful because the outputs are identical.
    for f, ref in enumerate(serial_results):
        assert np.array_equal(batch_result.bits[f], ref.bits)
        assert batch_result.iterations[f] == ref.iterations
    # Every backend decodes the batch bit-identically to the numpy row.
    for name, (_, result) in backends.items():
        assert np.array_equal(result.bits, batch_result.bits), name
        assert np.array_equal(
            result.iterations, batch_result.iterations
        ), name
    assert speedup >= MIN_SPEEDUP
    # The compiled backend must clear its acceptance bar.
    if "cnative" in backends:
        assert backends["cnative"][0] / batch_fps >= FUSED_MIN_SPEEDUP
    # Engine determinism across the worker sweep.
    results = [engine[w].result for w in WORKER_COUNTS]
    assert all(r == results[0] for r in results[1:])


def test_float_vs_quantized_waterfall_delta(once):
    code = cached_small_code(RATE)

    def run():
        curves = {"float": [], "6-bit": []}
        for index, ebn0 in enumerate(GRID_DB):
            seed = 100 + index  # paired noise: same seed for both curves
            for name, kwargs in (
                ("float", dict(schedule="zigzag")),
                ("6-bit", dict(schedule="quantized-zigzag",
                               channel_scale=CHANNEL_SCALE)),
            ):
                r = fast_ber(
                    code, ebn0, frames=GRID_FRAMES,
                    max_iterations=MAX_ITERATIONS,
                    normalization=NORMALIZATION, seed=seed, **kwargs,
                )
                curves[name].append((ebn0, r.ber))
        return curves

    curves = once(run)
    total_bits = GRID_FRAMES * code.k
    at_target = {
        name: _interp_ebn0_at_ber(points, TARGET_BER, total_bits)
        for name, points in curves.items()
    }
    print_banner(
        f"Float vs 6-bit waterfall ({GRID_FRAMES} frames/point, "
        f"1/10-scale R={RATE}{', smoke mode' if SMOKE else ''})"
    )
    print(
        format_table(
            ("Eb/N0 (dB)",) + tuple(curves),
            [
                (f"{ebn0:.1f}",) + tuple(
                    f"{curves[name][i][1]:.2e}" for name in curves
                )
                for i, ebn0 in enumerate(GRID_DB)
            ],
        )
    )
    delta = None
    if at_target["float"] is not None and at_target["6-bit"] is not None:
        delta = at_target["6-bit"] - at_target["float"]
        print(
            f"  Eb/N0 @ BER={TARGET_BER:.0e}: "
            f"float {at_target['float']:.3f} dB, "
            f"6-bit {at_target['6-bit']:.3f} dB, "
            f"loss {delta:+.3f} dB (paper, full-size code: ~0.1 dB)"
        )
    _PAYLOAD["waterfall"] = {
        "grid_db": list(GRID_DB),
        "frames_per_point": GRID_FRAMES,
        "target_ber": TARGET_BER,
        "curves": {
            name: [
                {"ebn0_db": e, "ber": b} for e, b in points
            ]
            for name, points in curves.items()
        },
        "ebn0_at_target": at_target,
        "loss_db": delta,
    }
    save_bench_json("quantized_scaling", _PAYLOAD)

    # Quantization must cost something, but stay in the paper's regime.
    # The scaled code's waterfall is shallower than the 64800-bit one,
    # so the full-mode tolerance is wider than the ~0.1 dB headline; the
    # smoke grid is too coarse to bound the loss and only checks that
    # both curves cross the target.
    assert at_target["float"] is not None
    assert at_target["6-bit"] is not None
    if not SMOKE:
        assert -0.05 <= delta <= 0.35
