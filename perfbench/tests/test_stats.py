"""The benchmark's arithmetic on synthetic inputs with known answers."""

import math
import time

import numpy as np
import pytest

import stats
from openloop import run_closed, run_open
from run import killed_counts
from spans import NO_SPANS, SpanRecorder


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=257))
    for q in (0, 1, 50, 90, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(
            np.percentile(values, q)
        )


def test_percentile_known_values():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([0, 10], 25) == 2.5
    assert stats.percentile([1, math.inf, math.inf], 99) == math.inf


def test_tail_quantile_needs_ten_samples_beyond():
    assert stats.tail_quantile(1000) == 99
    assert stats.tail_quantile(5000) == 99
    assert stats.tail_quantile(999) == 98
    assert stats.tail_quantile(135) == 92
    assert stats.tail_quantile(20) == 50
    assert stats.tail_quantile(19) == 100
    for n in (20, 135, 999):
        q = stats.tail_quantile(n)
        assert n * (1 - q / 100) >= stats.TAIL_BEYOND


def test_failed_frames_miss_every_limit():
    ok = [0.010] * 990
    summary = stats.latency_summary(ok, failed=10)
    assert summary["samples"] == 1000
    assert summary["tail_q"] == 99
    assert summary["p50_ms"] == pytest.approx(10.0)
    # 10 failures in 1000 samples sit exactly at p99's upper neighbour.
    assert stats.latency_summary(ok, failed=11)["tail_ms"] == math.inf


def test_fail_share():
    assert stats.fail_share(10, 7) == pytest.approx(0.3)
    assert stats.fail_share(4, 4) == 0
    with pytest.raises(ValueError):
        stats.fail_share(0, 0)
    with pytest.raises(ValueError):
        stats.fail_share(3, 4)


def test_held_capacity_follows_littles_law():
    # 160 outstanding at 100 frames/s: 1.6 s latency, within 4 s.
    assert stats.held_capacity(100.0, 1600.0, 4000.0) == 100.0
    # Twice the limit: half the outstanding, so half the rate.
    assert stats.held_capacity(100.0, 8000.0, 4000.0) == 50.0


def test_self_times_subtract_covered_children():
    spans = [
        ("pump", 0.0, 10.0, None, None),
        ("a", 1.0, 3.0, 0, None),
        ("b", 2.0, 5.0, 0, None),
        ("c", 8.0, 12.0, 0, None),  # clipped to the parent at 10
        ("d", 2.5, 3.0, 2, None),
    ]
    assert stats.self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 4.0, 0.5])


def test_ledger_coverage():
    spans = [
        ("early", -2.0, -1.0, None, None),
        ("submit", 0.0, 1.0, None, 1),
        ("pump", 1.0, 3.0, None, None),
        ("inner", 1.5, 2.0, 1, None),
        ("sleep", 3.5, 4.5, None, None),
    ]
    led = stats.ledger(spans, 0.0, 4.0)
    assert led["covered_share"] == pytest.approx(3.5 / 4)
    assert led["uncovered_s"] == pytest.approx(0.5)
    assert led["by_name_s"] == pytest.approx(
        {"submit": 1.0, "pump": 2.0, "sleep": 0.5}
    )


def test_block_fill():
    assert stats.block_fill([32, 32]) == 1
    assert stats.block_fill([1]) == pytest.approx(1 / 32)
    assert stats.block_fill([32, 1, 33]) == pytest.approx(66 / 128)


def test_killed_counts_fail_the_open_phase():
    progress = [
        {"phase": "light", "frames": 10},
        {"phase": "light", "done": True, "attempted": 10, "failed": 1},
        {"phase": "heavy", "frames": 30},
    ]
    assert killed_counts(progress) == (40, 31)


class FixedServiceSystem:
    """Inline fake with the pump/poll surface and a fixed service time."""

    def __init__(self, service_s):
        self.service_s = service_s
        self.queue, self.done, self.next_id = [], [], 0

    def submit(self, now):
        rid = self.next_id
        self.next_id += 1
        self.queue.append(rid)
        return rid

    def pump(self):
        while self.queue:
            rid = self.queue.pop(0)
            time.sleep(self.service_s)
            self.done.append(
                type("R", (), {"request_id": rid, "ok": True, "bits": 0})()
            )

    def poll(self):
        out, self.done = self.done, []
        return out

    def next_due(self, now):
        return now if self.queue else None


def test_open_loop_latency_is_at_least_the_service_time():
    system = FixedServiceSystem(0.002)
    recorder = SpanRecorder()
    run = run_open(
        system, lambda i, t: system.submit(t),
        segments=[("warm", 100.0, 0.05), ("light", 100.0, 0.25)],
        drain_bound_s=1.0, spans=recorder,
    )
    assert run.released == 30 and run.failed == 0
    assert run.released_in("light") == 25 == len(run.ok("light"))
    lat = [r.latency_s for r in run.ok()]
    assert min(lat) >= 0.002
    assert stats.percentile(lat, 50) < 0.05
    assert 0 < run.idle_s < run.wall_s
    led = stats.ledger(recorder.spans, run.start_s, run.end_s)
    assert led["covered_share"] > 0.9


def test_closed_loop_rate_is_the_service_rate():
    system = FixedServiceSystem(0.004)  # 250 frames/s inline
    run = run_closed(
        system, lambda i, t, c: system.submit(t), outstanding=8,
        seconds=0.6, drain_bound_s=1.0, spans=NO_SPANS,
    )
    assert run.failed == 0
    t0 = run.start_s + 0.1
    rate = sum(1 for r in run.ok() if t0 <= r.poll_s < t0 + 0.5) / 0.5
    assert 150 < rate <= 250
    # Little's law: latency about outstanding / rate.
    lat = stats.percentile([r.latency_s for r in run.ok()], 50)
    assert lat == pytest.approx(8 / 250, rel=0.5)


def test_closed_loop_keeps_each_class_outstanding():
    system = FixedServiceSystem(0.001)
    seen = []

    def submit(i, t, c):
        seen.append((len(system.queue), c))
        return system.submit(t)

    run = run_closed(
        system, submit, outstanding=3, classes=2, seconds=0.1,
        drain_bound_s=1.0, spans=NO_SPANS,
    )
    assert run.failed == 0
    assert run.classes[:6] == [0, 0, 0, 1, 1, 1]
    # The fake serves in order, so both classes are refilled equally.
    assert abs(run.classes.count(0) - run.classes.count(1)) <= 3


def test_open_loop_counts_lost_frames_as_failed():
    class Lossy(FixedServiceSystem):
        def poll(self):
            return [r for r in super().poll() if r.request_id % 2]

    system = Lossy(0.0)
    run = run_open(
        system, lambda i, t: system.submit(t),
        segments=[("x", 200.0, 0.05)], drain_bound_s=0.05, spans=NO_SPANS,
    )
    assert run.failed == 5
