"""Tests for the pipelined serve pump (``ServeConfig.pipeline_depth``).

The contract under test: pipelining is *invisible* in the results —
decoded bits, statuses, result order, and request accounting are
identical to ``pipeline_depth=1`` for any depth, across schedules,
backends, and worker counts — while up to ``pipeline_depth``
micro-batches overlap in flight on the pooled path.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.decode.backend import available_backends
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    STATUS_EXPIRED,
    STATUS_OK,
    DecodeFabric,
    DecodeService,
    FabricConfig,
    ServeConfig,
    make_frame_pool,
)
from repro.sim.pool import PersistentPool, fork_context

HAS_FORK = fork_context() is not None
BACKENDS = [b for b in ("numpy", "cnative") if b in available_backends()]

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)


def _calm_config(**overrides) -> ServeConfig:
    """Shedding-neutral config: fixed iteration budget, no deadlines,
    so decode output is a pure function of the LLRs and batch slicing."""
    base = dict(
        max_batch=4,
        max_linger_ms=0.0,
        queue_capacity=64,
        max_iterations=8,
        min_iterations=8,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _run_service(code, config, pool):
    """Deterministic schedule: submit every frame at now=i, flush, and
    return (ordered results, counters snapshot)."""
    registry = MetricsRegistry()
    with DecodeService(code, config, registry=registry) as service:
        ids = [
            service.submit(pool.llrs[i], now=float(i))
            for i in range(len(pool))
        ]
        service.flush()
        results = service.poll()
    assert [r.request_id for r in results] == ids
    return results, registry.snapshot()["counters"]


@pytest.fixture(scope="module")
def frames(code_half_tiny):
    return make_frame_pool(code_half_tiny, pool_size=12, seed=31)


# ----------------------------------------------------------------------
# depth resolution
# ----------------------------------------------------------------------
class TestDepthResolution:
    def test_config_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            ServeConfig(pipeline_depth=0)

    def test_inline_service_is_depth_one(self, code_half_tiny):
        service = DecodeService(
            code_half_tiny, _calm_config(), registry=MetricsRegistry()
        )
        assert service.pipeline_depth == 1
        assert service._pool is None
        service.close()

    @needs_fork
    def test_single_worker_with_depth_gets_real_pool(self, code_half_tiny):
        with DecodeService(
            code_half_tiny,
            _calm_config(workers=1, pipeline_depth=4),
            registry=MetricsRegistry(),
        ) as service:
            assert service.pipeline_depth == 4
            assert service._pool is not None
            assert not service._pool.serial

    @needs_fork
    def test_pooled_depth_defaults_to_twice_workers(self, code_half_tiny):
        with DecodeService(
            code_half_tiny,
            _calm_config(workers=2),
            registry=MetricsRegistry(),
        ) as service:
            assert service.pipeline_depth == 4

    @needs_fork
    def test_explicit_depth_one_stays_lockstep(self, code_half_tiny):
        with DecodeService(
            code_half_tiny,
            _calm_config(workers=2, pipeline_depth=1),
            registry=MetricsRegistry(),
        ) as service:
            assert service.pipeline_depth == 1

    def test_serial_passed_pool_keeps_inline_path(self, code_half_tiny):
        pool = PersistentPool(1, label="test")
        assert pool.serial
        service = DecodeService(
            code_half_tiny,
            _calm_config(),
            registry=MetricsRegistry(),
            pool=pool,
        )
        assert service._pool is None
        assert service.pipeline_depth == 1
        service.close()

    def test_depth_gauge_published(self, code_half_tiny):
        registry = MetricsRegistry()
        DecodeService(
            code_half_tiny, _calm_config(), registry=registry
        ).close()
        gauges = registry.snapshot()["gauges"]
        assert gauges["serve.pipeline.depth"]["value"] == 1


# ----------------------------------------------------------------------
# bit identity: any depth == depth 1, for every schedule/backend/pool
# ----------------------------------------------------------------------
@needs_fork
class TestPipelineBitIdentity:
    def _assert_identical(self, code, frames, baseline, **overrides):
        got, counters = _run_service(
            code, _calm_config(**overrides), frames
        )
        expected, base_counters = baseline
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.request_id == e.request_id
            assert g.status == e.status == STATUS_OK
            assert g.iterations == e.iterations
            assert g.batch_seq == e.batch_seq
            assert np.array_equal(g.bits, e.bits)
        for key in (
            "serve.requests.submitted",
            "serve.requests.completed",
            "serve.batches",
            "serve.iterations.executed",
        ):
            assert counters.get(key) == base_counters.get(key), key

    @pytest.mark.parametrize("depth", [2, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_depth_matches_inline(
        self, code_half_tiny, frames, depth, workers
    ):
        baseline = _run_service(code_half_tiny, _calm_config(), frames)
        self._assert_identical(
            code_half_tiny, frames, baseline,
            workers=workers, pipeline_depth=depth,
        )

    @pytest.mark.parametrize(
        "schedule", ["quantized-zigzag", "quantized-minsum"]
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_schedule_and_backend(
        self, code_half_tiny, frames, schedule, backend
    ):
        baseline = _run_service(
            code_half_tiny,
            _calm_config(schedule=schedule, backend=backend),
            frames,
        )
        self._assert_identical(
            code_half_tiny, frames, baseline,
            schedule=schedule, backend=backend,
            workers=1, pipeline_depth=3,
        )

    def test_pump_schedule_matches_flush(self, code_half_tiny, frames):
        """Interleaved submit/pump steps produce the same results as the
        depth-1 reference under the same manual schedule."""
        def run(depth):
            registry = MetricsRegistry()
            config = _calm_config(
                workers=1 if depth == 1 else 2, pipeline_depth=depth
            )
            with DecodeService(
                code_half_tiny, config, registry=registry
            ) as service:
                out = []
                for i in range(len(frames)):
                    service.submit(frames.llrs[i], now=float(i))
                    if i % 3 == 2:
                        service.pump(now=float(i))
                        out.extend(service.poll())
                service.flush(now=float(len(frames)))
                out.extend(service.poll())
            return out

        expected = run(1)
        got = run(4)
        assert [r.request_id for r in got] == [
            r.request_id for r in expected
        ]
        for g, e in zip(got, expected):
            assert g.status == e.status == STATUS_OK
            assert np.array_equal(g.bits, e.bits)


# ----------------------------------------------------------------------
# deadlines with batches in flight
# ----------------------------------------------------------------------
@needs_fork
class TestDeadlinesInFlight:
    def test_queued_frames_expire_while_batches_in_flight(
        self, code_half_tiny, frames
    ):
        config = _calm_config(max_batch=2, workers=1, pipeline_depth=2)
        with DecodeService(
            code_half_tiny, config, registry=MetricsRegistry()
        ) as service:
            for i in range(4):  # two batches, no deadline
                service.submit(frames.llrs[i], now=0.0)
            service.pump(now=0.0)  # both dispatched (possibly in flight)
            late = [
                service.submit(
                    frames.llrs[4 + i], now=0.0, deadline_s=0.5
                )
                for i in range(2)
            ]
            service.pump(now=1.0)  # past the deadline: expire, not decode
            service.flush(now=1.0)
            results = {r.request_id: r for r in service.poll()}
        for rid in late:
            assert results[rid].status == STATUS_EXPIRED
        ok = [r for r in results.values() if r.status == STATUS_OK]
        assert len(ok) == 4

    def test_dispatched_frames_survive_deadline_passing(
        self, code_half_tiny, frames
    ):
        """A deadline only expires *queued* frames: once its batch is in
        flight the frame completes even if the deadline passes mid-
        decode (results are never discarded after dispatch)."""
        config = _calm_config(max_batch=2, workers=1, pipeline_depth=2)
        with DecodeService(
            code_half_tiny, config, registry=MetricsRegistry()
        ) as service:
            ids = [
                service.submit(
                    frames.llrs[i], now=0.0, deadline_s=10.0
                )
                for i in range(2)
            ]
            service.pump(now=0.0)  # batch dispatched before the deadline
            service.pump(now=20.0)  # deadline long past; batch in flight
            service.flush(now=20.0)
            results = {r.request_id: r for r in service.poll()}
        for rid in ids:
            assert results[rid].status == STATUS_OK


# ----------------------------------------------------------------------
# shutdown with batches outstanding
# ----------------------------------------------------------------------
@needs_fork
class TestShutdownInFlight:
    def test_flush_drains_outstanding_batches(
        self, code_half_tiny, frames
    ):
        config = _calm_config(max_batch=2, workers=1, pipeline_depth=4)
        with DecodeService(
            code_half_tiny, config, registry=MetricsRegistry()
        ) as service:
            for i in range(8):
                service.submit(frames.llrs[i], now=float(i))
            service.flush()
            assert not service._pending
            results = service.poll()
        assert len(results) == 8
        assert all(r.status == STATUS_OK for r in results)
        assert [r.batch_seq for r in results] == sorted(
            r.batch_seq for r in results
        )

    def test_close_completes_everything_and_is_idempotent(
        self, code_half_tiny, frames
    ):
        config = _calm_config(max_batch=2, workers=2, pipeline_depth=4)
        service = DecodeService(
            code_half_tiny, config, registry=MetricsRegistry()
        )
        for i in range(6):
            service.submit(frames.llrs[i], now=float(i))
        service.close()  # flushes in-flight work, shuts the pool down
        service.close()  # idempotent
        results = service.poll()
        assert len(results) == 6
        assert all(r.status == STATUS_OK for r in results)
        with pytest.raises(RuntimeError):
            service.submit(frames.llrs[0])


# ----------------------------------------------------------------------
# formation backlog (due_count) and pool occupancy plumbing
# ----------------------------------------------------------------------
class TestBacklogPlumbing:
    def test_due_count_counts_full_and_lingered_slices(self):
        from repro.serve import BoundedRequestQueue, MicroBatcher
        from repro.serve.api import DecodeRequest

        queue = BoundedRequestQueue(16)
        for i in range(5):
            queue.offer(
                DecodeRequest(
                    request_id=i,
                    llrs=np.zeros(1),
                    arrival_s=float(i),
                )
            )
        batcher = MicroBatcher(max_batch=2, max_linger_s=1.0)
        # Two full slices; the trailing frame (arrival 4.0) has not
        # lingered out at t=4.5 but has at t=5.0.
        assert batcher.due_count(queue, now=4.5) == 2
        assert batcher.due_count(queue, now=5.0) == 3
        assert queue.arrival_at(4) == 4.0
        queue.take(16)
        assert batcher.due_count(queue, now=99.0) == 0

    def test_serial_pool_inflight_nets_zero(self):
        pool = PersistentPool(1, label="test")
        future = pool.submit(len, (1, 2, 3))
        assert future.result() == 3
        assert pool.inflight == 0

    @needs_fork
    def test_forked_pool_tracks_inflight(self):
        with PersistentPool(1, label="test", dedicated=True) as pool:
            pool.configure(None, ())
            future = pool.submit(time.sleep, 0.2)
            assert pool.inflight == 1
            future.result()
            deadline = time.monotonic() + 5.0
            while pool.inflight and time.monotonic() < deadline:
                time.sleep(0.005)  # done-callback runs asynchronously
            assert pool.inflight == 0

    @needs_fork
    def test_backlog_and_inflight_gauges_published(
        self, code_half_tiny, frames
    ):
        registry = MetricsRegistry()
        config = _calm_config(max_batch=4, workers=1, pipeline_depth=2)
        with DecodeService(
            code_half_tiny, config, registry=registry
        ) as service:
            for i in range(8):
                service.submit(frames.llrs[i], now=float(i))
            service.pump(now=8.0)
            service.flush(now=8.0)
        gauges = registry.snapshot()["gauges"]
        assert gauges["serve.pipeline.depth"]["value"] == 2
        assert "serve.pipeline.inflight" in gauges
        assert "serve.pipeline.backlog" in gauges


# ----------------------------------------------------------------------
# report: pipeline terms ride along
# ----------------------------------------------------------------------
class TestReportPipelineTerms:
    def test_depth_and_model_terms_from_snapshot(self, code_half_tiny):
        from repro.hw.pipeline import FramePipelineModel
        from repro.serve import ServiceReport

        registry = MetricsRegistry()
        registry.gauge("serve.pipeline.depth").set(3)
        report = ServiceReport.from_snapshot(
            code_half_tiny, registry.snapshot(), wall_s=1.0
        )
        assert report.pipeline_depth == 3
        model = FramePipelineModel(code_half_tiny.profile)
        assert report.model_pipeline_frames_per_s == pytest.approx(
            model.frames_per_s(1)
        )
        assert report.model_pipeline_fill_ms == pytest.approx(
            model.fill_latency_s(1) * 1e3
        )
        assert "pipeline" in report.format()
        assert "depth=3" in report.format()

    def test_depth_one_report_omits_pipeline_line(self, code_half_tiny):
        from repro.serve import ServiceReport

        report = ServiceReport.from_snapshot(
            code_half_tiny, MetricsRegistry().snapshot(), wall_s=1.0
        )
        assert report.pipeline_depth == 1
        assert "depth=" not in report.format()


# ----------------------------------------------------------------------
# fabric: pipelined workers stay bit-identical, even under crashes
# ----------------------------------------------------------------------
class TestFabricPipelined:
    def _single_service_bits(self, code, config, pool):
        service = DecodeService(
            code, config, registry=MetricsRegistry()
        )
        ids = [
            service.submit(pool.llrs[i], now=float(i))
            for i in range(len(pool))
        ]
        service.flush()
        by_id = {r.request_id: r for r in service.poll()}
        service.close()
        return np.stack([by_id[i].bits for i in ids])

    def test_pipelined_fabric_bit_identity(self, code_half_tiny, frames):
        serve = _calm_config(pipeline_depth=3)
        expected = self._single_service_bits(
            code_half_tiny, _calm_config(), frames
        )
        with DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=serve),
            registry=MetricsRegistry(),
        ) as fabric:
            # The fabric widens its per-worker window to the depth and
            # pins the worker services themselves to depth 1 (no nested
            # pools inside the child processes).
            assert fabric.window >= 3
            ids = [
                fabric.submit(frames.llrs[i], now=float(i))
                for i in range(len(frames))
            ]
            fabric.flush()
            by_id = {r.request_id: r for r in fabric.poll()}
        assert all(by_id[i].status == STATUS_OK for i in ids)
        got = np.stack([by_id[i].bits for i in ids])
        assert np.array_equal(got, expected)

    def test_pipelined_fabric_survives_worker_kill(
        self, code_half_tiny, frames
    ):
        serve = _calm_config(pipeline_depth=3)
        expected = self._single_service_bits(
            code_half_tiny, _calm_config(), frames
        )
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=serve),
            registry=MetricsRegistry(),
        )
        if fabric.serial:
            fabric.close()
            pytest.skip("no fork: no worker processes to kill")
        try:
            ids = [
                fabric.submit(frames.llrs[i], now=float(i))
                for i in range(len(frames))
            ]
            fabric.pump(now=100.0)
            fabric.kill_worker(0)
            fabric.flush(now=100.0)
            by_id = {r.request_id: r for r in fabric.poll()}
            assert all(by_id[i].status == STATUS_OK for i in ids)
            got = np.stack([by_id[i].bits for i in ids])
            assert np.array_equal(got, expected)
            assert fabric.restarts >= 1
        finally:
            fabric.close()


def test_parent_builds_a_decoder_only_when_decoding_inline(code_half_tiny):
    """Pooled batches decode in the workers, so the parent builds no
    decoder of its own; the inline path builds exactly one."""
    with DecodeService(
        code_half_tiny, _calm_config(), registry=MetricsRegistry()
    ) as inline:
        assert inline._routes[None].decoder is not None
    if not HAS_FORK:
        pytest.skip("fork start method unavailable")
    with DecodeService(
        code_half_tiny, _calm_config(workers=2), registry=MetricsRegistry()
    ) as pooled:
        assert pooled._routes[None].decoder is None
