"""Tests for the observability subsystem: registry, tracing, hooks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.channel import AwgnChannel
from repro.decode import (
    BatchMinSumDecoder,
    BatchZigzagDecoder,
    NormalizedMinSumDecoder,
    ZigzagDecoder,
)
from repro.decode.quantized import QuantizedMinSumDecoder
from repro.obs import (
    IterationTraceRecorder,
    MetricsRegistry,
    NULL_METRIC,
    TraceRecorder,
    get_registry,
    package_versions,
    set_registry,
)
from repro.obs.export import (
    TraceReadError,
    events_to_csv,
    iteration_rows,
    read_events,
    summarize_events,
)
from repro.sim import merge_ber_results, parallel_ber


# ----------------------------------------------------------------------
# Registry primitives.
def test_counter_gauge_basics():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(4)
    assert reg.counter("a").value == 5
    reg.gauge("g").set(2.5)
    assert reg.gauge("g").value == 2.5
    snap = reg.snapshot()
    assert snap["counters"]["a"] == 5
    assert snap["gauges"]["g"]["value"] == 2.5


def test_timer_records_and_nests():
    reg = MetricsRegistry()
    t = reg.timer("t")
    with t:
        with t:  # re-entrant: same object nested
            pass
    assert t.count == 2
    assert t.total_ns >= 0
    assert t.min_ns <= t.max_ns
    # The inner span finished first, so it is recorded first and the
    # outer (longer) span is last.
    assert t.last_ns == t.max_ns


def test_histogram_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("h", bounds=(1, 2, 5))
    for v in (0, 1, 1, 3, 100):
        h.observe(v)
    assert h.count == 5
    assert len(h.counts) == 4  # 3 bounds + overflow
    assert h.counts[-1] == 1  # the 100
    with pytest.raises(ValueError):
        reg.histogram("h", bounds=(1, 2, 3))  # conflicting bounds


def test_disabled_registry_returns_null_metric():
    reg = MetricsRegistry(enabled=False)
    assert reg.counter("x") is NULL_METRIC
    assert reg.timer("x") is NULL_METRIC
    # The null metric absorbs every protocol without effect.
    NULL_METRIC.inc()
    NULL_METRIC.set(1)
    NULL_METRIC.observe(2)
    with NULL_METRIC:
        pass
    assert reg.snapshot()["counters"] == {}


def test_global_registry_swap():
    old = get_registry()
    try:
        mine = MetricsRegistry()
        set_registry(mine)
        assert get_registry() is mine
    finally:
        set_registry(old)


# ----------------------------------------------------------------------
# Merge semantics.
def _sample_registry(seed: int) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("c").inc(seed + 1)
    reg.timer("t").record_ns(1000 * (seed + 1))
    reg.histogram("h", bounds=(1, 10)).observe(seed)
    if seed % 2:
        reg.gauge("g").set(seed)
    return reg


def test_merge_sums_counters_and_pools_timers():
    a, b = _sample_registry(0), _sample_registry(1)
    a.merge(b)
    snap = a.snapshot()
    assert snap["counters"]["c"] == 3
    assert snap["timers"]["t"]["count"] == 2
    assert snap["timers"]["t"]["total_ns"] == 3000
    assert snap["timers"]["t"]["min_ns"] == 1000
    assert snap["timers"]["t"]["max_ns"] == 2000
    assert snap["histograms"]["h"]["count"] == 2
    assert snap["gauges"]["g"]["value"] == 1


def test_merge_is_associative():
    def folded(grouping):
        total = MetricsRegistry()
        for part in grouping:
            total.merge(part)
        return total.snapshot()

    regs1 = [_sample_registry(i).snapshot() for i in range(4)]
    regs2 = [_sample_registry(i).snapshot() for i in range(4)]
    # (a+b)+(c+d) versus ((a+b)+c)+d
    left = MetricsRegistry()
    left.merge(regs1[0])
    left.merge(regs1[1])
    right = MetricsRegistry()
    right.merge(regs1[2])
    right.merge(regs1[3])
    left.merge(right)
    assert left.snapshot() == folded(regs2)


def test_merge_accepts_snapshot_dict():
    a = _sample_registry(0)
    b = _sample_registry(1)
    a.merge(b.snapshot())
    assert a.counter("c").value == 3


# ----------------------------------------------------------------------
# Trace recorder / JSONL round-trip.
def test_trace_recorder_jsonl_roundtrip(tmp_path):
    path = tmp_path / "events.jsonl"
    with TraceRecorder(str(path), meta={"run": "test"}) as rec:
        rec.event("demo", value=1, arr=np.arange(3))
        with rec.span("work", tag="x"):
            pass
    events = read_events(str(path))
    assert events[0]["type"] == "header"
    assert events[0]["run"] == "test"
    versions = package_versions()
    assert events[0]["repro_version"] == versions["repro_version"]
    assert events[0]["numpy_version"] == versions["numpy_version"]
    assert events[1] == {"type": "demo", "value": 1, "arr": [0, 1, 2]}
    assert events[2]["type"] == "span"
    assert events[2]["name"] == "work"
    assert events[2]["dur_ns"] >= 0


def test_trace_recorder_buffers_without_sink():
    rec = TraceRecorder(None)
    rec.event("demo", value=2)
    assert rec.events == [{"type": "demo", "value": 2}]
    assert rec.drain() == [{"type": "demo", "value": 2}]
    assert rec.events == []


# ----------------------------------------------------------------------
# Iteration-trace hooks: tracing must not change decoder outputs.
def _tiny_llrs(code, frames, seed=7):
    channel = AwgnChannel(
        ebn0_db=1.5, rate=float(code.profile.rate), seed=seed
    )
    return channel.llrs_all_zero(code.n, size=frames)


@pytest.mark.parametrize(
    "factory",
    [
        lambda code: NormalizedMinSumDecoder(code),
        lambda code: ZigzagDecoder(code),
        lambda code: QuantizedMinSumDecoder(code),
    ],
)
def test_single_frame_tracing_is_bit_identical(code_half_tiny, factory):
    code = code_half_tiny
    llrs = _tiny_llrs(code, 1)[0]
    dec = factory(code)
    plain = dec.decode(llrs, max_iterations=8, early_stop=True)
    hook = IterationTraceRecorder()
    traced = dec.decode(
        llrs, max_iterations=8, early_stop=True, iteration_trace=hook
    )
    assert np.array_equal(plain.bits, traced.bits)
    assert plain.iterations == traced.iterations
    events = hook.drain()
    assert events, "hook saw no iterations"
    assert events[0]["iteration"] == 0
    assert events[-1]["iteration"] == plain.iterations
    for event in events:
        assert event["type"] == "decode_iteration"
        assert event["unsatisfied"] >= 0
        assert event["mean_abs_llr"] > 0
    if traced.converged:
        assert events[-1]["unsatisfied"] == 0


@pytest.mark.parametrize("cls", [BatchMinSumDecoder, BatchZigzagDecoder])
def test_batch_tracing_is_bit_identical(code_half_tiny, cls):
    code = code_half_tiny
    llrs = _tiny_llrs(code, 5)
    dec = cls(code)
    plain = dec.decode_batch(llrs, max_iterations=8, early_stop=True)
    hook = IterationTraceRecorder()
    traced = dec.decode_batch(
        llrs, max_iterations=8, early_stop=True, iteration_trace=hook
    )
    assert np.array_equal(plain.bits, traced.bits)
    assert np.array_equal(plain.iterations, traced.iterations)
    events = hook.drain()
    frames = {e["frame"] for e in events}
    assert frames == set(range(5)), "every frame must be traced"
    # Per-frame iteration numbering starts at 0 and is contiguous.
    for f in range(5):
        iters = sorted(e["iteration"] for e in events if e["frame"] == f)
        assert iters == list(range(len(iters)))


def test_frame_offset_globalizes_batch_indices(code_half_tiny):
    code = code_half_tiny
    llrs = _tiny_llrs(code, 2)
    hook = IterationTraceRecorder(frame_offset=10)
    BatchZigzagDecoder(code).decode_batch(
        llrs, max_iterations=4, early_stop=True, iteration_trace=hook
    )
    frames = {e["frame"] for e in hook.events}
    assert frames == {10, 11}


# ----------------------------------------------------------------------
# Engine integration.
def test_parallel_metrics_merge_two_workers(code_half_tiny):
    serial = parallel_ber(
        code_half_tiny, 1.5, max_frames=8, shard_frames=4,
        workers=1, max_iterations=8, schedule="zigzag",
    )
    duo = parallel_ber(
        code_half_tiny, 1.5, max_frames=8, shard_frames=4,
        workers=2, max_iterations=8, schedule="zigzag",
    )
    assert serial.result == duo.result
    for run in (serial, duo):
        counters = run.metrics["counters"]
        assert counters["sim.frames"] == run.result.frames
        assert counters["sim.bit_errors"] == run.result.bit_errors
        assert counters["sim.shards.merged"] == run.telemetry.shards_merged
        assert run.metrics["timers"]["sim.shard.wall"]["count"] == 2
    # Counters are pure counts: identical regardless of worker count.
    assert serial.metrics["counters"] == duo.metrics["counters"]


def test_parallel_trace_covers_every_frame(code_half_tiny):
    rec = TraceRecorder(None)
    run = parallel_ber(
        code_half_tiny, 1.5, max_frames=6, shard_frames=4,
        workers=1, max_iterations=8, trace=rec, schedule="zigzag",
    )
    events = rec.events
    frames = {
        e["frame"] for e in events if e["type"] == "decode_iteration"
    }
    assert frames == set(range(run.result.frames))
    assert events[-1]["type"] == "ber_result"
    assert events[-1]["frames"] == run.result.frames


def test_telemetry_from_registry_matches_run(code_half_tiny):
    run = parallel_ber(
        code_half_tiny, 2.0, max_frames=4, shard_frames=4,
        workers=1, max_iterations=8, schedule="zigzag",
    )
    t = run.telemetry
    assert t.frames == run.result.frames
    assert t.frames_per_sec > 0
    assert t.elapsed_s > 0
    assert len(t.shard_wall_s) == t.shards_merged


def test_merge_ber_results_empty_raises():
    with pytest.raises(ValueError, match="empty iterable"):
        merge_ber_results([])


# ----------------------------------------------------------------------
# Export helpers.
def _fake_events():
    return [
        {"type": "header", "repro_version": "0", "numpy_version": "0"},
        {"type": "decode_iteration", "frame": 0, "iteration": 0,
         "unsatisfied": 3, "mean_abs_llr": 1.0, "sign_flips": 0},
        {"type": "decode_iteration", "frame": 0, "iteration": 1,
         "unsatisfied": 0, "mean_abs_llr": 2.0, "sign_flips": 4},
    ]


def test_iteration_rows_sorted_and_filtered():
    rows = iteration_rows(_fake_events())
    assert [r["iteration"] for r in rows] == [0, 1]
    assert iteration_rows(_fake_events(), frame=1) == []


def test_summarize_events_digest():
    text = summarize_events(_fake_events())
    assert "decode_iteration" in text
    assert "converged" in text


def test_events_to_csv(tmp_path):
    import io

    buf = io.StringIO()
    n = events_to_csv(_fake_events(), buf)
    assert n == 3
    header = buf.getvalue().splitlines()[0]
    assert "type" in header and "frame" in header


# ----------------------------------------------------------------------
# Histogram percentile edge cases.
def test_histogram_percentile_empty_is_nan():
    hist = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
    assert np.isnan(hist.percentile(50))
    assert np.isnan(hist.mean)


def test_histogram_percentile_single_sample():
    hist = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
    hist.observe(5.0)
    # One sample in the (1, 10] bucket: the estimate interpolates
    # across that bucket, staying inside it at every quantile.
    assert hist.percentile(0) == pytest.approx(1.0)
    assert hist.percentile(100) == pytest.approx(10.0)
    assert 1.0 <= hist.percentile(50) <= 10.0


def test_histogram_percentile_extreme_quantiles():
    hist = MetricsRegistry().histogram("h", bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0, 3.5):
        hist.observe(v)
    # q=0 anchors at the floor of the first occupied bucket, q=100 at
    # the ceiling of the last.
    assert hist.percentile(0) == pytest.approx(0.0)
    assert hist.percentile(100) == pytest.approx(4.0)
    p50, p99 = hist.percentile(50), hist.percentile(99)
    assert 0.0 <= p50 <= p99 <= 4.0


def test_histogram_percentile_overflow_bucket_reports_last_bound():
    hist = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
    hist.observe(1000.0)
    # All mass above the last bound: the estimate saturates there.
    assert hist.percentile(99) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Trace-read error reporting.
def test_read_events_missing_file_raises_trace_read_error(tmp_path):
    with pytest.raises(TraceReadError, match="cannot read"):
        read_events(str(tmp_path / "nope.jsonl"))


def test_read_events_empty_file_raises_unless_allowed(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(TraceReadError, match="no events"):
        read_events(str(path))
    assert read_events(str(path), allow_empty=True) == []


def test_read_events_truncated_line_names_the_spot(tmp_path):
    path = tmp_path / "cut.jsonl"
    path.write_text('{"type": "header"}\n{"type": "dec')
    with pytest.raises(TraceReadError, match="line 2") as excinfo:
        read_events(str(path))
    assert "truncated" in str(excinfo.value)


def test_read_events_non_object_line_rejected(tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text('[1, 2, 3]\n')
    with pytest.raises(TraceReadError, match="not an object"):
        read_events(str(path))


# ----------------------------------------------------------------------
# Trace recorder lifecycle.
def test_trace_recorder_context_manager_closes_file(tmp_path):
    path = tmp_path / "run.jsonl"
    with TraceRecorder(str(path)) as trace:
        trace.event("ping", n=1)
        assert trace._file is not None
    assert trace._file is None  # closed on exit
    events = read_events(str(path))
    assert [e["type"] for e in events] == ["header", "ping"]


def test_trace_recorder_close_is_idempotent(tmp_path):
    trace = TraceRecorder(str(tmp_path / "run.jsonl"))
    trace.close()
    trace.close()  # second close must be a no-op
    assert trace._file is None
