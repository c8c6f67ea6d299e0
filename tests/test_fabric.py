"""Tests for repro.serve.fabric — the distributed decode plane.

The contract under test: the fabric is a drop-in, multi-process
:class:`DecodeService` — bit-identical results, exact merged
accounting (``completed + rejected + expired == submitted``), and
crash recovery that loses nothing.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

import repro.serve.engine as engine_mod
import repro.sim.pool as pool_mod
from repro.obs.capacity import capacity_from_bench, points_from_bench
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.obs.trace import TraceRecorder
from repro.serve import (
    REASON_DECODE_ERROR,
    REASON_WORKER_CRASH,
    STATUS_FAILED,
    STATUS_OK,
    DecodeFabric,
    DecodeService,
    FabricConfig,
    ServeConfig,
    ServiceReport,
    make_frame_pool,
    run_loadgen,
)


def _calm_config(**overrides) -> ServeConfig:
    """Shedding-neutral config: every frame gets the same iteration
    budget, so decode output is a pure function of the LLRs."""
    base = dict(
        max_batch=8,
        max_linger_ms=0.0,
        queue_capacity=64,
        max_iterations=8,
        min_iterations=8,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _single_service_bits(code, config, pool) -> np.ndarray:
    """Reference decode: the same frames through one DecodeService."""
    service = DecodeService(code, config, registry=MetricsRegistry())
    ids = [
        service.submit(pool.llrs[i], now=float(i))
        for i in range(len(pool))
    ]
    service.flush()
    by_id = {r.request_id: r for r in service.poll()}
    assert all(by_id[i].status == STATUS_OK for i in ids)
    return np.stack([by_id[i].bits for i in ids])


def _fabric_bits(code, fabric_config, pool) -> np.ndarray:
    """The same frames through a fabric; returns bits by request id."""
    with DecodeFabric(
        code, fabric_config, registry=MetricsRegistry()
    ) as fabric:
        ids = [
            fabric.submit(pool.llrs[i], now=float(i))
            for i in range(len(pool))
        ]
        fabric.flush()
        by_id = {r.request_id: r for r in fabric.poll()}
    assert all(by_id[i].status == STATUS_OK for i in ids)
    return np.stack([by_id[i].bits for i in ids])


@pytest.fixture(scope="module")
def frames(code_half_tiny):
    return make_frame_pool(code_half_tiny, pool_size=16, seed=77)


# ----------------------------------------------------------------------
# bit identity: the fabric is invisible in the decoded output
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_single_service(self, code_half_tiny, frames, workers):
        config = _calm_config()
        expected = _single_service_bits(code_half_tiny, config, frames)
        got = _fabric_bits(
            code_half_tiny,
            FabricConfig(workers=workers, serve=config),
            frames,
        )
        assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# accounting: exact books through rejection and expiry
# ----------------------------------------------------------------------
class TestAccounting:
    def test_balanced_with_rejects_and_expiry(self, code_half_tiny, frames):
        # Tiny lanes, huge linger: nothing dispatches until flush, so
        # the overflow rejects at the door and the deadlines expire in
        # the queue — all three exits in one run, on a manual clock.
        config = _calm_config(
            queue_capacity=4, max_batch=32, max_linger_ms=10_000.0
        )
        registry = MetricsRegistry()
        with DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=config),
            registry=registry,
            clock=lambda: 0.0,
        ) as fabric:
            for i in range(8):  # 4 admitted, 4 rejected (lane is full)
                fabric.submit(frames.llrs[i], now=0.0, deadline_s=0.5)
            fabric.pump(now=2.0)  # all 4 queued frames expire
            for i in range(8, 12):  # decodable tail
                fabric.submit(frames.llrs[i], now=2.0)
            fabric.flush(now=2.0)
            results = fabric.poll()
            report = fabric.report(wall_s=2.0)
        assert report.submitted == 12
        assert report.rejected == 4
        assert report.expired == 4
        assert report.completed == 4
        assert (
            report.completed + report.rejected + report.expired
            == report.submitted
        )
        assert len(results) == 12


# ----------------------------------------------------------------------
# failure semantics: kill a worker, lose nothing
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_kill_mid_flight_redrives_and_balances(
        self, code_half_tiny, frames
    ):
        config = _calm_config(max_batch=4, max_iterations=50,
                              min_iterations=50)
        registry = MetricsRegistry()
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=config),
            registry=registry,
        )
        if fabric.serial:
            fabric.close()
            pytest.skip("no fork: no worker processes to kill")
        try:
            with fabric:
                for i in range(16):
                    fabric.submit(frames.llrs[i], now=float(i))
                fabric.pump(now=100.0)  # chunks are now in flight
                fabric.kill_worker(0)
                fabric.flush(now=100.0)
                results = fabric.poll()
                merged = fabric.merged_snapshot()
                restarts = fabric.restarts
        finally:
            fabric.close()
        assert len(results) == 16
        assert all(r.status == STATUS_OK for r in results)
        assert restarts >= 1
        counters = merged["counters"]
        assert counters.get("fabric.chunks.redriven", 0) >= 1
        assert counters.get("pool.worker_restart", 0) >= 1
        assert counters["serve.requests.completed"] == 16
        assert counters["serve.requests.submitted"] == 16

    def test_kill_then_decode_still_bit_identical(
        self, code_half_tiny, frames
    ):
        config = _calm_config()
        expected = _single_service_bits(code_half_tiny, config, frames)
        registry = MetricsRegistry()
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=config),
            registry=registry,
        )
        if fabric.serial:
            fabric.close()
            pytest.skip("no fork: no worker processes to kill")
        with fabric:
            # Kill while idle: pump-time health check must respawn.
            fabric.kill_worker(0)
            ids = [
                fabric.submit(frames.llrs[i], now=float(i))
                for i in range(len(frames))
            ]
            fabric.flush()
            by_id = {r.request_id: r for r in fabric.poll()}
        got = np.stack([by_id[i].bits for i in ids])
        assert np.array_equal(got, expected)
        assert fabric.restarts >= 1


# ----------------------------------------------------------------------
# merged telemetry: one report for N workers
# ----------------------------------------------------------------------
class TestMergedReport:
    def test_snapshot_has_worker_subviews(self, code_half_tiny, frames):
        registry = MetricsRegistry()
        with DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=_calm_config()),
            registry=registry,
        ) as fabric:
            for i in range(8):
                fabric.submit(frames.llrs[i], now=float(i))
            fabric.flush()
            fabric.poll()
            merged = fabric.merged_snapshot()
            report = fabric.report(wall_s=1.0)
        assert set(merged["workers"]) == {"fabric", "worker0", "worker1"}
        # Worker sub-views carry the decode-side metrics; the fabric
        # part carries admission.  Together the books balance.
        worker_completed = sum(
            merged["workers"][f"worker{w}"]["counters"].get(
                "serve.requests.completed", 0
            )
            for w in (0, 1)
        )
        assert worker_completed == 8
        assert merged["counters"]["serve.requests.submitted"] == 8
        assert report.workers == 2
        assert "workers=2" in report.format()
        assert report.to_dict()["workers"] == 2
        assert (
            report.completed + report.rejected + report.expired
            == report.submitted
        )

    def test_merge_is_order_invariant(self, code_half_tiny, frames):
        registry = MetricsRegistry()
        with DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=3, serve=_calm_config()),
            registry=registry,
        ) as fabric:
            for i in range(12):
                fabric.submit(frames.llrs[i], now=float(i))
            fabric.flush()
            fabric.poll()
            parts = fabric.merged_snapshot()["workers"]
        forward = merge_snapshots(dict(parts))
        backward = merge_snapshots(dict(reversed(list(parts.items()))))
        rep_f = ServiceReport.from_snapshot(
            code_half_tiny, forward, wall_s=1.0
        )
        rep_b = ServiceReport.from_snapshot(
            code_half_tiny, backward, wall_s=1.0
        )
        assert rep_f.to_dict() == rep_b.to_dict()
        assert forward["counters"] == backward["counters"]
        # Worker count is derived from the labeled sub-views.
        assert rep_f.workers == 3


# ----------------------------------------------------------------------
# loadgen + capacity planner integration (merged payloads flow through)
# ----------------------------------------------------------------------
class TestLoadgenIntegration:
    def test_loadgen_drives_fabric_and_planner_accepts(
        self, code_half_tiny
    ):
        config = _calm_config(
            max_iterations=30, min_iterations=30,
            max_linger_ms=2.0, deadline_ms=500.0,
        )
        result = run_loadgen(
            code_half_tiny,
            config,
            offered_fps=150.0,
            duration_s=0.4,
            ebn0_db=3.5,
            fabric=FabricConfig(workers=2),
        )
        rep = result.report
        assert rep.workers == 2
        assert (
            rep.completed + rep.rejected + rep.expired == rep.submitted
        )
        assert result.frame_errors == 0
        assert "workers" in result.snapshot
        # The merged run feeds the capacity planner exactly like a
        # single-service sweep would.
        payload = {
            "sweep": [{
                "offered_fps": result.offered_fps,
                "served_fps": rep.frames_per_s,
                "latency_p99_ms": rep.latency_p99_ms,
                "latency_p50_ms": rep.latency_p50_ms,
                "mean_iterations": rep.mean_iterations,
            }],
        }
        points = points_from_bench(payload)
        assert points[0].served_fps == rep.frames_per_s
        capacity = capacity_from_bench(payload, code=code_half_tiny)
        assert capacity.mu_fps > 0
        assert capacity.knee_fps > 0


# ----------------------------------------------------------------------
# configuration + degraded platforms
# ----------------------------------------------------------------------
class TestFabricConfig:
    @pytest.mark.parametrize("bad", [dict(workers=0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FabricConfig(**bad)


class TestSerialFallback:
    def test_no_fork_platform_degrades_but_decodes(
        self, code_half_tiny, frames, monkeypatch
    ):
        monkeypatch.setattr(pool_mod, "fork_context", lambda: None)
        config = _calm_config()
        expected = _single_service_bits(code_half_tiny, config, frames)
        with pytest.warns(RuntimeWarning, match="fork"):
            fabric = DecodeFabric(
                code_half_tiny,
                FabricConfig(workers=2, serve=config),
                registry=MetricsRegistry(),
            )
        assert fabric.serial
        with fabric:
            ids = [
                fabric.submit(frames.llrs[i], now=float(i))
                for i in range(len(frames))
            ]
            fabric.flush()
            by_id = {r.request_id: r for r in fabric.poll()}
            with pytest.raises(RuntimeError, match="serial"):
                fabric.kill_worker(0)
        got = np.stack([by_id[i].bits for i in ids])
        assert np.array_equal(got, expected)


class TestSubmitValidation:
    def test_rejects_wrong_shape(self, code_half_tiny):
        with DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=1, serve=_calm_config()),
            registry=MetricsRegistry(),
        ) as fabric:
            with pytest.raises(ValueError, match="shape"):
                fabric.submit(np.zeros(3), now=0.0)

    def test_closed_fabric_refuses_work(self, code_half_tiny, frames):
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=1, serve=_calm_config()),
            registry=MetricsRegistry(),
        )
        fabric.close()
        with pytest.raises(RuntimeError, match="closed"):
            fabric.submit(frames.llrs[0], now=0.0)


# ----------------------------------------------------------------------
# poison chunks: a chunk that keeps crashing workers fails its own frames
# ----------------------------------------------------------------------
#: First LLRs of the frame whose chunk a patched worker task singles
#: out.  Admission saturates them into :data:`_SENTINEL_INTS`, the
#: pattern the worker sees (a float sentinel would not survive it).
_SENTINEL = np.array([100.0, -100.0] * 4)
_SENTINEL_INTS = np.array([31, -31] * 4)
_real_decode_task = engine_mod._decode_task


def _marked(frames) -> bool:
    """Whether a dispatched batch carries the sentinel frame."""
    head = len(_SENTINEL_INTS)
    return any(
        np.array_equal(frame[:head], _SENTINEL_INTS) for frame in frames
    )


def _poison_decode_task(key, recipe, frames, budgets):
    """Worker task that dies on any batch carrying the sentinel frame."""
    if _marked(frames):
        os._exit(1)
    return _real_decode_task(key, recipe, frames, budgets)


def _raising_decode_task(key, recipe, frames, budgets):
    """Worker task that raises on any batch carrying the sentinel frame."""
    if _marked(frames):
        raise RuntimeError("poisoned batch")
    return _real_decode_task(key, recipe, frames, budgets)


class TestPoisonChunk:
    def test_poison_chunk_fails_only_its_frames(
        self, code_half_tiny, frames, monkeypatch
    ):
        # Patched before the fabric forks, so every worker inherits it.
        monkeypatch.setattr(engine_mod, "_decode_task", _poison_decode_task)
        config = _calm_config(max_batch=4)
        expected = _single_service_bits(code_half_tiny, config, frames)
        llrs = frames.llrs.copy()
        # Frames 4..7 share the poisoned chunk.
        llrs[5, : len(_SENTINEL)] = _SENTINEL
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=config),
            registry=MetricsRegistry(),
        )
        if fabric.serial:
            fabric.close()
            pytest.skip("no fork: no worker processes to crash")
        with fabric:
            ids = [
                fabric.submit(llrs[i], now=float(i))
                for i in range(len(frames))
            ]
            fabric.pump(now=100.0)
            fabric.flush(now=100.0)
            by_id = {r.request_id: r for r in fabric.poll()}
            report = fabric.report(wall_s=1.0)
        poisoned = {ids[i] for i in range(4, 8)}
        for i, rid in enumerate(ids):
            result = by_id[rid]
            if rid in poisoned:
                assert result.status == STATUS_FAILED
                assert result.reason == REASON_WORKER_CRASH
            else:
                assert result.status == STATUS_OK
                assert np.array_equal(result.bits, expected[i])
        assert report.failed == 4
        assert report.completed == len(frames) - 4
        assert (
            report.completed + report.rejected + report.expired
            + report.failed == report.submitted == len(frames)
        )


def _two_worker_plane(plane, code, config, **kwargs):
    """A pooled ``DecodeService`` or a ``DecodeFabric`` with 2 workers."""
    if plane == "pooled":
        return DecodeService(
            code, dataclasses.replace(config, workers=2),
            registry=MetricsRegistry(), **kwargs,
        )
    return DecodeFabric(
        code, FabricConfig(workers=2, serve=config),
        registry=MetricsRegistry(), **kwargs,
    )


class TestRaisingTask:
    """A worker task that raises fails its own batch at once, with a
    typed reason and the exception text in the trace, and the pump
    keeps serving: no redrive, no exception out of ``flush``."""

    @pytest.mark.parametrize("plane", ["pooled", "fabric"])
    def test_raising_batch_fails_only_its_frames(
        self, code_half_tiny, frames, monkeypatch, plane
    ):
        # Patched before any worker forks, so every worker inherits it.
        monkeypatch.setattr(engine_mod, "_decode_task", _raising_decode_task)
        config = _calm_config(max_batch=4)
        expected = _single_service_bits(code_half_tiny, config, frames)
        llrs = frames.llrs.copy()
        llrs[5, : len(_SENTINEL)] = _SENTINEL  # frames 4..7: one batch
        trace = TraceRecorder()
        service = _two_worker_plane(
            plane, code_half_tiny, config, trace=trace
        )
        if not service._lanes:
            service.close()
            pytest.skip("no fork: batches decode inline")
        ids = [
            service.submit(llrs[i], now=float(i))
            for i in range(len(frames))
        ]
        service.pump(now=100.0)
        service.flush(now=100.0)
        service.close()
        by_id = {r.request_id: r for r in service.poll()}
        poisoned = {ids[i] for i in range(4, 8)}
        for i, rid in enumerate(ids):
            result = by_id[rid]
            if rid in poisoned:
                assert result.status == STATUS_FAILED
                assert result.reason == REASON_DECODE_ERROR
            else:
                assert result.status == STATUS_OK
                assert np.array_equal(result.bits, expected[i])
        counters = service.merged_snapshot()["counters"]
        assert counters["serve.requests.failed"] == 4
        assert counters["serve.requests.completed"] == len(frames) - 4
        assert counters["serve.requests.submitted"] == len(frames)
        assert "fabric.chunks.redriven" not in counters
        drops = [e for e in trace.events if e["type"] == "serve_drop"]
        assert sorted(e["request"] for e in drops) == sorted(poisoned)
        assert all(
            e["error"] == "RuntimeError: poisoned batch" for e in drops
        )


def _int8_decode_task(key, recipe, frames, budgets):
    """Worker task that checks what crossed the process boundary."""
    if frames.dtype != np.int8 or frames.nbytes != frames.size:
        raise TypeError(f"worker got {frames.dtype} frames")
    return _real_decode_task(key, recipe, frames, budgets)


class TestWorkerPayload:
    """For the 6-bit schedule a frame crosses into a worker as n int8
    values, quantized once at admission, not as 8n bytes of float64."""

    @pytest.mark.parametrize("plane", ["pooled", "fabric"])
    def test_queued_and_dispatched_frames_are_int8(
        self, code_half_tiny, frames, monkeypatch, plane
    ):
        monkeypatch.setattr(engine_mod, "_decode_task", _int8_decode_task)
        n = code_half_tiny.n
        service = _two_worker_plane(
            plane, code_half_tiny,
            _calm_config(max_batch=4, max_linger_ms=1e6),
        )
        if not service._lanes:
            service.close()
            pytest.skip("no fork: batches decode inline")
        with service:
            for i in range(6):
                service.submit(frames.llrs[i], now=0.0)
            assert service.pump(now=0.0) == 1  # the full batch leaves
            queued = [
                request.llrs
                for queue in service._queues.values()
                for request in queue._items
            ]
            assert len(queued) == 2
            for frame in queued:
                assert frame.dtype == np.int8 and frame.shape == (n,)
            service.flush(now=0.0)
            results = service.poll()
            counters = service.merged_snapshot()["counters"]
        assert [r.status for r in results] == [STATUS_OK] * 6
        assert counters["serve.dispatch.frames"] == 6
        assert counters["serve.dispatch.llr_bytes"] == 6 * n


def _load_soak_verifier():
    """``benchmarks/verify_fabric_soak.py`` as a module."""
    import importlib.util

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "verify_fabric_soak.py",
    )
    spec = importlib.util.spec_from_file_location("verify_fabric_soak", path)
    soak = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(soak)
    return soak


def test_soak_verifier_counts_failed_frames():
    """The CI soak check books failed frames as exits and rejects them:
    a healed kill must lose nothing."""
    soak = _load_soak_verifier()
    views = {"fabric": {}, "worker0": {}, "worker1": {}}
    clean = {"workers": views, "counters": {
        "serve.requests.submitted": 8, "serve.requests.completed": 8,
        "pool.worker_restart": 1,
    }}
    assert soak.verify(clean, workers=2) == []
    lossy = {"workers": views, "counters": {
        "serve.requests.submitted": 8, "serve.requests.completed": 4,
        "serve.requests.failed": 4, "pool.worker_restart": 1,
    }}
    problems = soak.verify(lossy, workers=2)
    assert len(problems) == 1 and "4 frames failed" in problems[0]


def test_soak_verifier_checks_one_byte_per_llr():
    """With the code length given, the soak check requires the frames
    sent to workers to weigh n bytes each (float64 frames weigh 8n)."""
    soak = _load_soak_verifier()
    views = {"fabric": {}, "worker0": {}, "worker1": {}}

    def snapshot(frames, llr_bytes):
        return {"workers": views, "counters": {
            "serve.requests.submitted": 8, "serve.requests.completed": 8,
            "pool.worker_restart": 1, "serve.dispatch.frames": frames,
            "serve.dispatch.llr_bytes": llr_bytes,
        }}

    assert soak.verify(snapshot(10, 21600), workers=2, n=2160) == []
    assert soak.verify(snapshot(10, 8 * 21600), workers=2) == []
    (problem,) = soak.verify(snapshot(10, 8 * 21600), workers=2, n=2160)
    assert "17280 per frame" in problem
    (problem,) = soak.verify(snapshot(0, 0), workers=2, n=2160)
    assert "no frames were dispatched" in problem
