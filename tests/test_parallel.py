"""Tests for the parallel Monte-Carlo engine (repro.sim.parallel).

The engine's core promise: the merged result is a pure function of
``(base_seed, shard layout, stopping rule)`` — never of the worker
count.  The 2-worker smoke test keeps multiprocess dispatch exercised
in tier-1 (it must stay well under 30 s on a tiny code).
"""

import numpy as np
import pytest

import repro.sim.parallel as par
from repro.sim import (
    BerResult,
    merge_ber_results,
    parallel_ber,
    parallel_snr_sweep,
)


def _run(code, **kwargs):
    defaults = dict(
        max_frames=48, shard_frames=16, seed=11, max_iterations=15,
        schedule="zigzag",
    )
    defaults.update(kwargs)
    return parallel_ber(code, 1.2, **defaults)


def test_two_worker_smoke(code_half_tiny):
    """Tier-1 multiprocess smoke: 2 workers on the tiny code."""
    run = _run(code_half_tiny, workers=2)
    assert run.result.frames == 48
    assert run.telemetry.workers == 2
    assert run.telemetry.shards_merged == 3
    assert run.telemetry.frames_per_sec > 0


def test_worker_count_does_not_change_result(code_half_tiny):
    serial = _run(code_half_tiny, workers=1)
    quad = _run(code_half_tiny, workers=4)
    assert serial.result == quad.result


def test_adaptive_stop_deterministic_across_workers(code_half_tiny):
    serial = parallel_ber(
        code_half_tiny, 0.4, max_frames=192, shard_frames=16,
        workers=1, seed=11, target_frame_errors=6, max_iterations=15,
        schedule="zigzag",
    )
    quad = parallel_ber(
        code_half_tiny, 0.4, max_frames=192, shard_frames=16,
        workers=4, seed=11, target_frame_errors=6, max_iterations=15,
        schedule="zigzag",
    )
    assert serial.result == quad.result
    assert serial.result.frame_errors >= 6
    assert serial.result.frames < 192


def test_ci_halfwidth_stops_early(code_half_tiny):
    run = parallel_ber(
        code_half_tiny, 0.0, max_frames=512, shard_frames=16,
        workers=1, seed=3, ci_halfwidth=0.10, max_iterations=10,
        schedule="zigzag",
    )
    # At 0 dB everything fails, so the Wilson interval tightens fast.
    assert run.result.frames < 512
    lo, hi = run.result.fer_estimate.interval
    assert 0.5 * (hi - lo) <= 0.10


def test_matches_serial_fast_ber_with_flooding(code_half_tiny):
    """workers=1 + flooding + one big shard reproduces fast_ber counts
    when both consume the same noise stream."""
    from repro.sim import fast_ber

    seq = np.random.SeedSequence(9)
    child = seq.spawn(1)[0]
    run = parallel_ber(
        code_half_tiny, 1.2, max_frames=32, shard_frames=32,
        workers=1, seed=9, schedule="flooding", max_iterations=15,
    )
    reference = fast_ber(
        code_half_tiny, 1.2, frames=32, batch_size=32,
        max_iterations=15, seed=child, schedule="flooding",
    )
    assert run.result.bit_errors == reference.bit_errors
    assert run.result.frame_errors == reference.frame_errors
    assert run.result.total_iterations == reference.total_iterations


def test_fork_unavailable_falls_back_to_serial(code_half_tiny, monkeypatch):
    monkeypatch.setattr(par, "_fork_context", lambda: None)
    with pytest.warns(RuntimeWarning, match="serially"):
        run = _run(code_half_tiny, workers=4)
    assert run.telemetry.workers == 1
    assert run.result == _run(code_half_tiny, workers=1).result


def test_validation(code_half_tiny):
    with pytest.raises(ValueError, match="at least one frame"):
        parallel_ber(code_half_tiny, 1.0, max_frames=0)
    with pytest.raises(ValueError, match="shard_frames"):
        parallel_ber(code_half_tiny, 1.0, max_frames=8, shard_frames=0)
    with pytest.raises(ValueError, match="workers"):
        parallel_ber(code_half_tiny, 1.0, max_frames=8, workers=0)
    with pytest.raises(ValueError, match="schedule"):
        parallel_ber(
            code_half_tiny, 1.0, max_frames=8, schedule="bogus"
        )


def test_telemetry_throughput(code_half_tiny):
    run = _run(code_half_tiny, workers=1)
    t = run.telemetry
    assert t.frames == run.result.frames
    assert t.info_bits_per_frame == code_half_tiny.k
    assert t.coded_bits_per_frame == code_half_tiny.n
    assert len(t.shard_wall_s) == t.shards_merged
    expected = t.frames * t.info_bits_per_frame / t.elapsed_s / 1e6
    assert t.info_mbps == pytest.approx(expected)


def test_merge_ber_results():
    a = BerResult(1.0, 10, 5, 2, 1000, 80, 9)
    b = BerResult(1.0, 20, 1, 1, 2000, 100, 20)
    merged = merge_ber_results([a, b])
    assert merged.frames == 30
    assert merged.bit_errors == 6
    assert merged.frame_errors == 3
    assert merged.total_bits == 3000
    assert merged.total_iterations == 180
    assert merged.converged_frames == 29
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_ber_results([])
    c = BerResult(2.0, 1, 0, 0, 100, 5, 1)
    with pytest.raises(ValueError, match="different Eb/N0"):
        merge_ber_results([a, c])


def test_ber_result_nan_guards():
    empty = BerResult(1.0, 0, 0, 0, 0, 0, 0)
    assert np.isnan(empty.ber)
    assert np.isnan(empty.fer)
    assert np.isnan(empty.avg_iterations)
    assert np.isnan(empty.convergence_rate)


def test_parallel_snr_sweep(code_half_tiny):
    points = parallel_snr_sweep(
        code_half_tiny, [1.0, 2.0], max_frames=16, workers=1,
        max_iterations=10, seed=4, schedule="zigzag",
    )
    assert [p.value for p in points] == [1.0, 2.0]
    for p in points:
        assert p.result.frames == 16
        assert p.telemetry is not None
    # Point seeds derive from (seed, index): distinct noise per point.
    repeat = parallel_snr_sweep(
        code_half_tiny, [1.0, 2.0], max_frames=16, workers=1,
        max_iterations=10, seed=4, schedule="zigzag",
    )
    assert repeat[0].result == points[0].result
    assert repeat[1].result == points[1].result
