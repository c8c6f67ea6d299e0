"""Tests for repro.serve.fabric — the distributed decode plane.

The contract under test: the fabric is a drop-in, multi-process
:class:`DecodeService` — bit-identical results, exact merged
accounting (``completed + rejected + expired == submitted``), and
crash recovery that loses nothing.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.serve.engine as engine_mod
import repro.sim.pool as pool_mod
from repro.obs.capacity import capacity_from_bench, points_from_bench
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.serve import (
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


def _fabric_bits(code, fabric_config, pool, clients=0) -> np.ndarray:
    """The same frames through a fabric; returns bits by request id."""
    with DecodeFabric(
        code, fabric_config, registry=MetricsRegistry()
    ) as fabric:
        ids = []
        for i in range(len(pool)):
            client = f"client{i % clients}" if clients else None
            ids.append(
                fabric.submit(pool.llrs[i], now=float(i), client=client)
            )
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

    @pytest.mark.parametrize("dispatch", ["round-robin", "hash"])
    def test_every_dispatch_policy_matches(
        self, code_half_tiny, frames, dispatch
    ):
        config = _calm_config()
        expected = _single_service_bits(code_half_tiny, config, frames)
        got = _fabric_bits(
            code_half_tiny,
            FabricConfig(workers=2, dispatch=dispatch, serve=config),
            frames,
            clients=4,
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

    def test_load_hint_sheds_iterations(self, code_half_tiny, frames):
        # The fabric forwards its queue fill as the worker's shed input;
        # the hook itself must bite: full-queue hint => floor budget.
        config = ServeConfig(
            max_batch=4, max_linger_ms=0.0, queue_capacity=16,
            max_iterations=30, min_iterations=5, shed_start=0.5,
        )
        service = DecodeService(
            code_half_tiny, config, registry=MetricsRegistry()
        )
        service.set_load_hint(1.0)
        service.submit(frames.llrs[0], now=0.0)
        service.flush()
        (shed,) = service.poll()
        assert shed.iteration_budget == 5
        service.set_load_hint(0.0)
        service.submit(frames.llrs[0], now=1.0)
        service.flush()
        (calm,) = service.poll()
        assert calm.iteration_budget == 30


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
            clients=4,
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
    @pytest.mark.parametrize("bad", [
        dict(workers=0),
        dict(window=0),
        dict(hash_replicas=0),
        dict(dispatch="nope"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FabricConfig(**bad)

    def test_unknown_dispatch_lists_available(self):
        with pytest.raises(ValueError, match="least-loaded"):
            FabricConfig(dispatch="bogus")


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
#: First LLR of the frame whose chunk kills every worker it reaches.
_SENTINEL = 1234.5
_real_decode_task = engine_mod._decode_task


def _poison_decode_task(key, recipe, frames, budgets):
    """Worker task that dies on any batch carrying the sentinel frame."""
    if any(frame[0] == _SENTINEL for frame in frames):
        os._exit(1)
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
        llrs[5, 0] = _SENTINEL  # frames 4..7 share the poisoned chunk
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


def test_soak_verifier_counts_failed_frames():
    """The CI soak check books failed frames as exits and rejects them:
    a healed kill must lose nothing."""
    import importlib.util

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "verify_fabric_soak.py",
    )
    spec = importlib.util.spec_from_file_location("verify_fabric_soak", path)
    soak = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(soak)
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
