"""Tests for repro.serve — queue, batcher, policy, engine, loadgen."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.decode.batch import make_batch_decoder
from repro.obs.registry import MetricsRegistry
from repro.quantize import FixedPointFormat
from repro.serve import (
    REASON_BAD_FRAME,
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    BoundedRequestQueue,
    ByteStreamGateway,
    DecodeRequest,
    DecodeService,
    IterationBudgetController,
    MicroBatcher,
    ServeConfig,
    ServiceReport,
    make_frame_pool,
    run_loadgen,
    snapshot_percentile,
    sweep_offered_rates,
)


def _req(rid: int, arrival: float, deadline=None) -> DecodeRequest:
    return DecodeRequest(
        request_id=rid,
        llrs=np.zeros(1),
        arrival_s=arrival,
        deadline_s=deadline,
    )


# ----------------------------------------------------------------------
# queue
# ----------------------------------------------------------------------
class TestBoundedRequestQueue:
    def test_fifo_and_capacity(self):
        q = BoundedRequestQueue(2)
        assert q.offer(_req(0, 0.0))
        assert q.offer(_req(1, 0.0))
        assert q.full
        assert not q.offer(_req(2, 0.0))  # backpressure, not growth
        assert [r.request_id for r in q.take(5)] == [0, 1]
        assert len(q) == 0

    def test_fill_fraction(self):
        q = BoundedRequestQueue(4)
        q.offer(_req(0, 0.0))
        assert q.fill == 0.25

    def test_expire_sweeps_whole_queue(self):
        q = BoundedRequestQueue(8)
        q.offer(_req(0, 0.0, deadline=10.0))
        q.offer(_req(1, 0.0, deadline=1.0))  # middle, not head
        q.offer(_req(2, 0.0))
        expired = q.expire(now=2.0)
        assert [r.request_id for r in expired] == [1]
        assert [r.request_id for r in q.take(8)] == [0, 2]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedRequestQueue(0)


# ----------------------------------------------------------------------
# micro-batcher (property tests on the policy)
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def _simulate(self, seed: int, max_batch: int, linger: float):
        """Drive seeded arrivals through the batch former; return the
        batch compositions and per-request (arrival, taken) times."""
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(0.004, size=60))
        queue = BoundedRequestQueue(1024)
        batcher = MicroBatcher(max_batch, linger)
        batches, taken_at = [], {}
        i = 0
        now = 0.0
        while i < len(arrivals) or len(queue):
            # next event: arrival or batch-due instant
            due = batcher.next_due(queue, now)
            nxt = arrivals[i] if i < len(arrivals) else np.inf
            now = min(nxt, due if due is not None else np.inf)
            while i < len(arrivals) and arrivals[i] <= now:
                queue.offer(_req(i, arrivals[i]))
                i += 1
            while batcher.due(queue, now):
                batch = batcher.take(queue)
                batches.append([r.request_id for r in batch])
                for r in batch:
                    taken_at[r.request_id] = now
        return batches, taken_at, arrivals

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_never_exceeds_max_batch(self, seed):
        batches, _, _ = self._simulate(seed, max_batch=5, linger=0.01)
        assert all(1 <= len(b) <= 5 for b in batches)

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_linger_bound_holds(self, seed):
        _, taken_at, arrivals = self._simulate(
            seed, max_batch=5, linger=0.01
        )
        for rid, taken in taken_at.items():
            # A request waits at most the linger (within float slack):
            # it is batched either by fill or by its own timeout.
            assert taken - arrivals[rid] <= 0.01 + 1e-9

    def test_all_requests_served_once(self):
        batches, _, arrivals = self._simulate(3, max_batch=4, linger=0.02)
        served = [rid for b in batches for rid in b]
        assert sorted(served) == list(range(len(arrivals)))
        assert len(served) == len(set(served))

    def test_deterministic_under_seeded_arrivals(self):
        a = self._simulate(42, max_batch=6, linger=0.005)[0]
        b = self._simulate(42, max_batch=6, linger=0.005)[0]
        assert a == b

    def test_fill_triggers_immediately(self):
        queue = BoundedRequestQueue(16)
        batcher = MicroBatcher(3, 1.0)
        for i in range(3):
            queue.offer(_req(i, 0.0))
        assert batcher.due(queue, 0.0)  # no linger wait at full batch

    def test_empty_queue_never_due(self):
        queue = BoundedRequestQueue(16)
        batcher = MicroBatcher(3, 0.0)
        assert not batcher.due(queue, 100.0)
        assert batcher.next_due(queue, 100.0) is None


# ----------------------------------------------------------------------
# iteration-budget controller
# ----------------------------------------------------------------------
class TestIterationBudgetController:
    def test_endpoints(self):
        c = IterationBudgetController(30, 10, shed_start=0.5)
        assert c.budget(0.0) == 30
        assert c.budget(0.5) == 30
        assert c.budget(1.0) == 10
        assert c.budget(1.5) == 10

    def test_monotone_non_increasing(self):
        c = IterationBudgetController(30, 10, shed_start=0.25)
        budgets = [c.budget(f) for f in np.linspace(0, 1, 101)]
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))
        assert all(10 <= b <= 30 for b in budgets)

    def test_validation(self):
        with pytest.raises(ValueError):
            IterationBudgetController(10, 20)
        with pytest.raises(ValueError):
            IterationBudgetController(10, 5, shed_start=2.0)


# ----------------------------------------------------------------------
# engine (manual clock)
# ----------------------------------------------------------------------
class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture(scope="module")
def frames_half(code_half):
    """Noisy frames plus their true codewords (module-cached)."""
    return make_frame_pool(code_half, pool_size=8, ebn0_db=3.5, seed=11)


def _service(code, clock, **overrides):
    defaults = dict(
        max_batch=4,
        max_linger_ms=10.0,
        queue_capacity=8,
        max_iterations=20,
        min_iterations=5,
    )
    defaults.update(overrides)
    return DecodeService(
        code,
        ServeConfig(**defaults),
        registry=MetricsRegistry(),
        clock=clock,
    )


class TestDecodeService:
    def test_linger_then_flush(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(code_half, clock)
        for i in range(2):
            svc.submit(frames_half.llrs[i])
        assert svc.pump() == 0  # partial batch still lingering
        clock.t = 0.011
        assert svc.pump() == 1  # linger expired -> batch formed
        results = svc.poll()
        assert [r.status for r in results] == [STATUS_OK, STATUS_OK]
        assert all(r.batch_occupancy == 2 for r in results)

    def test_full_batch_dispatches_without_linger(
        self, code_half, frames_half
    ):
        clock = ManualClock()
        svc = _service(code_half, clock)
        for i in range(4):
            svc.submit(frames_half.llrs[i % 8])
        assert svc.pump() == 1  # fill trigger, zero wait
        assert len(svc.poll()) == 4

    def test_queue_full_rejects_with_reason(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(code_half, clock, queue_capacity=2, max_batch=8)
        for i in range(3):
            svc.submit(frames_half.llrs[0])
        rejected = [r for r in svc.poll() if r.status == STATUS_REJECTED]
        assert len(rejected) == 1
        assert rejected[0].reason == REASON_QUEUE_FULL
        counters = svc.registry.snapshot()["counters"]
        assert counters["serve.requests.rejected"] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected_at_admission(
        self, code_half, frames_half, bad
    ):
        """A NaN or infinite LLR is rejected at the door as a bad frame;
        its would-be batch-mates decode as if it had never come."""
        clock = ManualClock()
        svc = _service(code_half, clock, max_linger_ms=0.0)
        llrs = frames_half.llrs[:5].copy()
        llrs[2, 17] = bad
        ids = [svc.submit(frame) for frame in llrs]
        (rejected,) = svc.poll()  # completes at once, before any pump
        assert rejected.request_id == ids[2]
        assert rejected.status == STATUS_REJECTED
        assert rejected.reason == REASON_BAD_FRAME
        svc.flush()
        results = {r.request_id: r for r in svc.poll()}
        good = [i for i in range(5) if i != 2]
        offline = make_batch_decoder(
            code_half, schedule="quantized-zigzag", normalization=0.75
        ).decode_batch(llrs[good], max_iterations=20)
        for row, i in enumerate(good):
            assert results[ids[i]].status == STATUS_OK
            np.testing.assert_array_equal(
                results[ids[i]].bits, offline.bits[row]
            )
        counters = svc.registry.snapshot()["counters"]
        assert counters["serve.requests.submitted"] == 5
        assert counters["serve.requests.completed"] == 4
        assert counters["serve.requests.rejected"] == 1

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_llr_saturates_without_warning(
        self, code_half, frames_half
    ):
        """A finite LLR too large to scale (1e308) is a strong LLR:
        admission saturates it silently and the frame decodes."""
        svc = _service(code_half, ManualClock(), max_linger_ms=0.0)
        llrs = frames_half.llrs[0].copy()
        llrs[3] = 1e308
        svc.submit(llrs)
        svc.flush()
        (result,) = svc.poll()
        assert result.status == STATUS_OK

    def test_deadline_expiry(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(
            code_half, clock, deadline_ms=5.0, max_linger_ms=100.0
        )
        svc.submit(frames_half.llrs[0])
        clock.t = 0.006  # past the deadline, before the linger
        svc.pump()
        (result,) = svc.poll()
        assert result.status == STATUS_EXPIRED
        assert result.reason == REASON_DEADLINE
        counters = svc.registry.snapshot()["counters"]
        assert counters["serve.requests.expired"] == 1

    def test_shedding_under_queue_pressure(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(
            code_half,
            clock,
            queue_capacity=4,
            max_batch=4,
            shed_start=0.0,
        )
        for i in range(4):
            svc.submit(frames_half.llrs[i])
        svc.pump()  # formed at fill = 1.0 -> floor budget
        results = svc.poll()
        assert all(r.iteration_budget == 5 for r in results)
        shed = svc.registry.snapshot()["counters"]["serve.iterations.shed"]
        assert shed == (20 - 5) * 4

    def test_calm_queue_keeps_full_budget(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(code_half, clock, queue_capacity=64)
        svc.submit(frames_half.llrs[0])
        clock.t = 1.0
        svc.pump()
        (result,) = svc.poll()
        assert result.iteration_budget == 20

    def test_bit_identical_to_offline_batch_decoder(
        self, code_half, frames_half
    ):
        """Serving must not change decode results: same LLRs, same
        budget -> payloads bit-identical to the offline decoder."""
        clock = ManualClock()
        svc = _service(code_half, clock, max_iterations=30)
        llrs = frames_half.llrs[:4]
        for frame in llrs:
            svc.submit(frame)
        svc.pump()
        results = sorted(svc.poll(), key=lambda r: r.request_id)
        offline = make_batch_decoder(
            code_half, schedule="quantized-zigzag", normalization=0.75
        ).decode_batch(llrs, max_iterations=30)
        for i, result in enumerate(results):
            assert result.status == STATUS_OK
            np.testing.assert_array_equal(result.bits, offline.bits[i])
            assert result.iterations == int(offline.iterations[i])
            assert result.converged == bool(offline.converged[i])

    def test_metrics_wiring(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(code_half, clock)
        for i in range(4):
            svc.submit(frames_half.llrs[i])
        svc.pump()
        svc.poll()
        snap = svc.registry.snapshot()
        assert snap["counters"]["serve.requests.submitted"] == 4
        assert snap["counters"]["serve.requests.completed"] == 4
        assert snap["counters"]["serve.batches"] == 1
        assert snap["gauges"]["serve.queue.depth"]["value"] == 0
        occ = snap["histograms"]["serve.batch.occupancy"]
        assert occ["count"] == 1 and occ["sum"] == 4.0
        assert snap["timers"]["serve.batch.decode"]["count"] == 1
        assert snap["histograms"]["serve.request.latency_ms"]["count"] == 4

    def test_flush_ignores_linger(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(code_half, clock, max_linger_ms=1000.0)
        svc.submit(frames_half.llrs[0])
        assert svc.pump() == 0
        svc.flush()
        assert len(svc.poll()) == 1

    def test_decoded_payloads_match_truth(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(code_half, clock, max_iterations=30)
        for i in range(4):
            svc.submit(frames_half.llrs[i])
        svc.flush()
        for result in sorted(svc.poll(), key=lambda r: r.request_id):
            assert result.converged
            np.testing.assert_array_equal(
                result.bits, frames_half.codewords[result.request_id]
            )


# ----------------------------------------------------------------------
# byte-stream gateway (e2e round trip)
# ----------------------------------------------------------------------
class TestByteStreamGateway:
    def test_bytes_roundtrip_through_service(self, code_half):
        gateway = ByteStreamGateway(code_half, ebn0_db=4.0, seed=3)
        data = bytes(range(256)) * 4
        llrs = gateway.llr_frames(data)
        assert llrs.shape[1] == code_half.n
        svc = DecodeService(
            code_half,
            ServeConfig(max_batch=8, max_linger_ms=0.0),
            registry=MetricsRegistry(),
        )
        with svc:
            for frame in llrs:
                svc.submit(frame)
            svc.flush()
            results = sorted(svc.poll(), key=lambda r: r.request_id)
        recovered, outcomes = gateway.reassemble(results)
        assert recovered[: len(data)] == data
        assert all(o.crc_ok for o in outcomes)

    def test_dropped_frames_reported_not_raised(self, code_half):
        gateway = ByteStreamGateway(code_half, ebn0_db=4.0, seed=3)
        from repro.serve.api import DecodeResult

        results = [
            DecodeResult(request_id=0, status=STATUS_REJECTED,
                         reason=REASON_QUEUE_FULL),
            DecodeResult(
                request_id=1,
                status=STATUS_OK,
                bits=np.ones(code_half.n, dtype=np.int8),  # garbage
            ),
        ]
        recovered, outcomes = gateway.reassemble(results)
        assert outcomes[0].status == STATUS_REJECTED
        assert outcomes[0].data_bits == 0
        assert not outcomes[1].crc_ok  # corruption is data, not raise
        assert outcomes[1].reason.startswith("bad_frame")


# ----------------------------------------------------------------------
# report / percentiles
# ----------------------------------------------------------------------
class TestServiceReport:
    def test_snapshot_percentile_interpolates(self):
        hist = {
            "bounds": [10.0, 20.0, 50.0],
            "counts": [0, 10, 0, 0],
            "count": 10,
            "sum": 150.0,
        }
        assert snapshot_percentile(hist, 50) == pytest.approx(15.0)
        assert np.isnan(snapshot_percentile({"count": 0}, 50))

    def test_registry_histogram_percentile(self):
        reg = MetricsRegistry()
        h = reg.histogram("x", (1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert 1.0 <= h.percentile(50) <= 2.0
        assert h.percentile(100) == pytest.approx(4.0)

    def test_report_compares_against_eq8_model(self, code_half):
        reg = MetricsRegistry()
        reg.counter("serve.requests.submitted").inc(10)
        reg.counter("serve.requests.completed").inc(10)
        reg.counter("serve.batches").inc(2)
        reg.counter("serve.iterations.executed").inc(100)
        report = ServiceReport.from_snapshot(
            code_half, reg.snapshot(), wall_s=1.0, max_batch=8
        )
        assert report.frames_per_s == pytest.approx(10.0)
        assert report.mean_iterations == pytest.approx(10.0)
        assert report.mean_occupancy == pytest.approx(5.0)
        # Eq. 8 at the measured iteration count, for this profile.
        from repro.hw.throughput import ThroughputModel

        model = ThroughputModel(code_half.profile)
        assert report.model_frames_per_s == pytest.approx(
            model.clock_hz / model.cycles_per_block(10)
        )
        assert 0 < report.hardware_fraction < 1
        assert report.to_dict()["completed"] == 10
        assert "frames/s" in report.format()


# ----------------------------------------------------------------------
# loadgen
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_constant_rate_run(self, code_half):
        result = run_loadgen(
            code_half,
            ServeConfig(max_batch=8, max_linger_ms=2.0,
                        queue_capacity=64),
            offered_fps=300.0,
            duration_s=0.15,
            ebn0_db=3.5,
            seed=5,
        )
        rep = result.report
        assert rep.submitted == int(300.0 * 0.15)
        assert rep.completed + rep.rejected + rep.expired == rep.submitted
        assert rep.completed > 0
        assert result.checked == rep.completed
        assert np.isfinite(rep.latency_p50_ms)
        # At 3.5 dB with full budget the payloads should be clean.
        assert result.frame_errors == 0

    def test_sweep_produces_one_result_per_rate(self, code_half):
        results = sweep_offered_rates(
            code_half,
            ServeConfig(max_batch=8, max_linger_ms=1.0,
                        queue_capacity=32),
            rates_fps=[100.0, 400.0],
            duration_s=0.1,
            ebn0_db=3.5,
        )
        assert [r.offered_fps for r in results] == [100.0, 400.0]
        assert all(r.report.completed > 0 for r in results)

    def test_overload_sheds_or_rejects_instead_of_queueing(
        self, code_half
    ):
        """Far past saturation the service must surface degradation
        (shed iterations and/or typed rejects), not queue unboundedly."""
        result = run_loadgen(
            code_half,
            ServeConfig(max_batch=8, max_linger_ms=1.0,
                        queue_capacity=16, max_iterations=30,
                        min_iterations=5, shed_start=0.25),
            offered_fps=3000.0,
            duration_s=0.15,
            ebn0_db=3.5,
        )
        rep = result.report
        assert rep.rejected > 0 or rep.iterations_shed > 0
        # Every offered frame is accounted for — nothing lingers.
        assert rep.completed + rep.rejected + rep.expired == rep.submitted

    def test_loadgen_validates_inputs(self, code_half):
        with pytest.raises(ValueError):
            run_loadgen(code_half, offered_fps=0, duration_s=1.0)
        with pytest.raises(ValueError):
            run_loadgen(code_half, offered_fps=10, duration_s=0)


# ----------------------------------------------------------------------
# pooled decode and deadline-aware budgets
# ----------------------------------------------------------------------
class TestPooledService:
    def test_pooled_decode_matches_inline(self, code_half, frames_half):
        """workers>1 must not change results or completion order."""
        inline = DecodeService(
            code_half,
            ServeConfig(max_batch=4, max_linger_ms=0.0,
                        max_iterations=30),
            registry=MetricsRegistry(),
        )
        with inline:
            for i in range(8):
                inline.submit(frames_half.llrs[i])
            inline.flush()
            expected = inline.poll()
        pooled = DecodeService(
            code_half,
            ServeConfig(max_batch=4, max_linger_ms=0.0,
                        max_iterations=30, workers=2),
            registry=MetricsRegistry(),
        )
        with pooled:
            for i in range(8):
                pooled.submit(frames_half.llrs[i])
            pooled.flush()
            got = pooled.poll()
        assert [r.request_id for r in got] == [
            r.request_id for r in expected
        ]
        assert [r.batch_seq for r in got] == [
            r.batch_seq for r in expected
        ]
        for mine, ref in zip(got, expected):
            np.testing.assert_array_equal(mine.bits, ref.bits)
            assert mine.iterations == ref.iterations

    def test_equal_recipes_share_a_supplied_pool(self, code_half_tiny):
        """Two services whose recipes are equal but distinct objects
        keep the supplied pool's warm workers."""
        from repro.sim import PersistentPool

        with PersistentPool(2) as pool:
            if pool.serial:
                pytest.skip("no process pool on this platform")
            executors = []
            for max_batch in (4, 8):
                config = ServeConfig(
                    fmt=FixedPointFormat(6, 2), workers=2,
                    max_batch=max_batch,
                )
                with DecodeService(
                    code_half_tiny, config, registry=MetricsRegistry(),
                    pool=pool,
                ):
                    executors.append(pool._executor)
            assert executors[0] is not None
            assert executors[1] is executors[0]

    def test_non_finite_frame_never_reaches_a_worker(
        self, code_half, frames_half
    ):
        """A NaN frame is rejected at admission, so no worker raises on
        it: its batch-mates decode, and ``flush``/``close`` return."""
        pooled = DecodeService(
            code_half,
            ServeConfig(max_batch=4, max_linger_ms=0.0,
                        max_iterations=30, workers=2),
            registry=MetricsRegistry(),
        )
        llrs = frames_half.llrs[:5].copy()
        llrs[1, 0] = np.nan
        with pooled:
            ids = [pooled.submit(frame) for frame in llrs]
            pooled.flush()
        results = {r.request_id: r for r in pooled.poll()}
        assert results[ids[1]].status == STATUS_REJECTED
        assert results[ids[1]].reason == REASON_BAD_FRAME
        good = [i for i in range(5) if i != 1]
        offline = make_batch_decoder(
            code_half, schedule="quantized-zigzag", normalization=0.75
        ).decode_batch(llrs[good], max_iterations=30)
        for row, i in enumerate(good):
            np.testing.assert_array_equal(
                results[ids[i]].bits, offline.bits[row]
            )
        counters = pooled.registry.snapshot()["counters"]
        assert counters["serve.requests.submitted"] == 5
        assert counters["serve.requests.completed"] == 4
        assert counters["serve.requests.rejected"] == 1

    @pytest.mark.parametrize(
        "settings",
        [
            {"backend": "no-such-backend"},
            {"normalization": 1.5},
            {"schedule": "flooding", "backend": "numpy"},
            {"schedule": "nope"},
        ],
        ids=["backend", "normalization", "float-backend", "schedule"],
    )
    def test_invalid_decoder_setting_fails_at_construction(self, settings):
        """A pooled service, the MODCOD plane and the fabric build their
        decoders only in the workers, where a bad setting would fail
        every frame; the config rejects it before any pool starts."""
        with pytest.raises(ValueError):
            ServeConfig(workers=2, **settings)

    def test_segments_not_dividing_the_code_fail_before_any_worker(
        self, code_half_tiny, monkeypatch
    ):
        """``segments`` depends on the code, so the config cannot check
        it.  Registering a route does: a pooled service, the fabric and
        the MODCOD plane's ``service_for`` raise before any worker
        process is forked (they used to fail every frame in the
        workers), and the rejected MODCOD is not registered."""
        from repro.acm import ModCod, MultiModcodService
        from repro.serve import DecodeFabric, FabricConfig

        def no_fork():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert code_half_tiny.n_parity % 7 != 0
        serve = ServeConfig(workers=2, segments=7, max_batch=4,
                            max_linger_ms=0.0)
        with pytest.raises(ValueError, match="segments=7 must divide"):
            DecodeService(code_half_tiny, serve)
        with pytest.raises(ValueError, match="segments=7 must divide"):
            DecodeFabric(code_half_tiny, FabricConfig(workers=2, serve=serve))
        with MultiModcodService(serve, parallelism=12) as plane:
            with pytest.raises(ValueError, match="segments=7 must divide"):
                plane.service_for(ModCod("1/2"))
            assert plane.active_modcods == []


class TestDecoderSettingsReachAdmission:
    """Frames are quantized at admission, in the parent, so the
    decoder's format and channel scale must reach admission on every
    plane: each serves the bits of the offline decoder built with the
    same settings."""

    @pytest.mark.parametrize(
        "settings",
        [
            {"channel_scale": 0.5},
            {"fmt": FixedPointFormat(5, 1)},
            {"fmt": FixedPointFormat(8, 3)},
        ],
        ids=["scale-0.5", "fmt-5.1", "fmt-8.3"],
    )
    @pytest.mark.parametrize("plane", ["inline", "pooled", "fabric", "modcod"])
    def test_bits_match_offline_decoder(self, code_half_tiny, plane, settings):
        from repro.acm import ModCod, MultiModcodService
        from repro.serve import DecodeFabric, FabricConfig

        config = dict(max_batch=4, max_linger_ms=0.0, max_iterations=8,
                      min_iterations=8, **settings)
        modcod = ModCod("1/2")
        if plane == "modcod":
            service = MultiModcodService(
                ServeConfig(**config), parallelism=12
            )
            code = service.service_for(modcod)
        elif plane == "fabric":
            code = code_half_tiny
            service = DecodeFabric(
                code, FabricConfig(workers=2, serve=ServeConfig(**config)),
                registry=MetricsRegistry(),
            )
        else:
            code = code_half_tiny
            workers = 2 if plane == "pooled" else 1
            service = DecodeService(
                code, ServeConfig(workers=workers, **config),
                registry=MetricsRegistry(),
            )
        llrs = make_frame_pool(code, pool_size=8, ebn0_db=1.5, seed=21).llrs
        with service:
            if plane == "modcod":
                ids = [service.submit(frame, modcod) for frame in llrs]
            else:
                ids = [service.submit(frame) for frame in llrs]
            service.flush()
            results = {r.request_id: r for r in service.poll()}
        offline = make_batch_decoder(
            code, schedule="quantized-zigzag", normalization=0.75,
            **settings,
        ).decode_batch(llrs, max_iterations=8)
        for i, request_id in enumerate(ids):
            assert results[request_id].status == STATUS_OK
            np.testing.assert_array_equal(
                results[request_id].bits, offline.bits[i]
            )
            assert results[request_id].iterations == offline.iterations[i]


class TestDeadlineBudgets:
    def test_tight_deadline_caps_frame_budget(self, code_half,
                                              frames_half):
        clock = ManualClock()
        svc = _service(code_half, clock, max_iterations=30,
                       max_linger_ms=0.0)
        # Prime the per-iteration cost estimate: 10 ms/iteration.
        svc._iter_cost_s = 0.010
        assert svc._frame_budgets_ok  # quantized decoder supports it
        # 50 ms of headroom at 10 ms/iteration -> 5 iterations max.
        svc.submit(frames_half.llrs[0], deadline_s=0.050)
        svc.submit(frames_half.llrs[1])  # no deadline: full budget
        svc.pump()
        results = sorted(svc.poll(), key=lambda r: r.request_id)
        assert results[0].iterations <= 5
        # The deadline-free batch-mate was not capped with it.
        offline = make_batch_decoder(
            code_half, schedule="quantized-zigzag", normalization=0.75
        ).decode_batch(frames_half.llrs[1:2], max_iterations=30)
        assert results[1].iterations == int(offline.iterations[0])
        np.testing.assert_array_equal(results[1].bits, offline.bits[0])

    def test_no_estimate_means_no_cap(self, code_half, frames_half):
        clock = ManualClock()
        svc = _service(code_half, clock, max_iterations=30,
                       max_linger_ms=0.0)
        assert svc._iter_cost_s is None
        svc.submit(frames_half.llrs[0], deadline_s=0.001)
        svc.pump()  # deadline ahead, no cost estimate -> full budget
        (result,) = svc.poll()
        assert result.status == STATUS_OK
        assert result.iteration_budget == 30


class TestMetricsMergeAcrossProcesses:
    def test_pooled_metrics_match_inline_counts(self, code_half,
                                                frames_half):
        """Serve counters are recorded parent-side, so a pooled run
        must account for exactly the same work as an inline run."""
        def run(workers):
            reg = MetricsRegistry()
            svc = DecodeService(
                code_half,
                ServeConfig(max_batch=4, max_linger_ms=0.0,
                            max_iterations=30, workers=workers),
                registry=reg,
            )
            with svc:
                for i in range(8):
                    svc.submit(frames_half.llrs[i])
                svc.flush()
                svc.poll()
            return reg.snapshot()

        inline, pooled = run(1), run(2)
        for key in ("serve.requests.submitted",
                    "serve.requests.completed"):
            assert pooled["counters"][key] == inline["counters"][key]
        assert (pooled["timers"]["serve.batch.decode"]["count"]
                == inline["timers"]["serve.batch.decode"]["count"])

    def test_sweep_snapshots_merge_like_the_cli(self, code_half):
        """`repro loadgen --metrics-out` folds one registry per sweep
        point into a single snapshot; the fold must preserve totals."""
        from repro.serve import sweep_offered_rates

        results = sweep_offered_rates(
            code_half,
            ServeConfig(max_batch=8),
            rates_fps=[80.0, 160.0],
            duration_s=0.15,
            seed=3,
        )
        merged = MetricsRegistry()
        for r in results:
            merged.merge(r.snapshot)
        snap = merged.snapshot()
        key = "serve.requests.completed"
        per_point = [r.snapshot["counters"][key] for r in results]
        assert all(n > 0 for n in per_point)
        assert snap["counters"][key] == sum(per_point)
        assert snap["timers"]["serve.stage.pump"]["count"] == sum(
            r.snapshot["timers"]["serve.stage.pump"]["count"]
            for r in results
        )


class TestTraceFlushOnClose:
    class _Sink:
        def __init__(self):
            self.data = []
            self.flushes = 0

        def write(self, text):
            self.data.append(text)

        def flush(self):
            self.flushes += 1

    def test_service_close_flushes_trace_sink(self, code_half,
                                              frames_half):
        from repro.obs.trace import TraceRecorder

        sink = self._Sink()
        trace = TraceRecorder(sink)
        svc = DecodeService(
            code_half,
            ServeConfig(max_batch=4, max_linger_ms=0.0),
            registry=MetricsRegistry(),
            trace=trace,
        )
        svc.submit(frames_half.llrs[0])
        flushed_before = sink.flushes
        svc.close()
        assert sink.flushes > flushed_before
        # The pending frame was drained and traced before the flush.
        assert any('"serve_batch"' in chunk for chunk in sink.data)


#: A pooled service whose worker is SIGKILLed mid-flight, then flushed.
_KILL_POOLED_WORKER = """
import os, signal
import numpy as np
from repro.codes import build_small_code
from repro.obs.registry import MetricsRegistry
from repro.serve import DecodeService, ServeConfig, make_frame_pool

def children():
    root = f"/proc/{os.getpid()}/task"
    pids = []
    for tid in os.listdir(root):
        with open(f"{root}/{tid}/children") as fh:
            pids += [int(pid) for pid in fh.read().split()]
    return pids

def decode(workers, kill=False):
    registry = MetricsRegistry()
    service = DecodeService(code, ServeConfig(
        max_batch=4, max_linger_ms=0, max_iterations=50,
        min_iterations=50, workers=workers,
    ), registry=registry)
    try:
        ids = [service.submit(frames.llrs[i], now=float(i))
               for i in range(16)]
        service.pump(now=100.0)
        if kill:
            os.kill(children()[0], signal.SIGKILL)
        service.flush()
        by_id = {r.request_id: r for r in service.poll()}
    finally:
        service.close()
    return [by_id[i] for i in ids], registry.snapshot()["counters"]

code = build_small_code("1/2", parallelism=12)
frames = make_frame_pool(code, pool_size=16, seed=77)
expected, _ = decode(1)
got, counters = decode(2, kill=True)
print("ok", sum(r.status == "ok" for r in got))
print("identical", all(
    np.array_equal(g.bits, e.bits) for g, e in zip(got, expected)
))
print("restarts", counters.get("pool.worker_restart", 0))
print("balanced", counters["serve.requests.submitted"]
      == counters["serve.requests.completed"] == 16)
"""


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task"),
    reason="needs /proc to find the pool's worker processes",
)
def test_pooled_service_survives_worker_kill():
    """A SIGKILLed pool worker is healed by respawn-and-redrive: the
    flush returns every frame decoded, bit-identical to inline, and the
    process exits.  The steps run in their own process group, killed
    whole at the bound, so a hang fails here instead of hanging."""
    from repro.sim.pool import fork_context

    if fork_context() is None:
        pytest.skip("fork start method unavailable")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_POOLED_WORKER],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        pytest.fail(f"pooled service hung after a worker kill:\n{out}")
    assert proc.returncode == 0, err
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["ok"] == "16"
    assert lines["identical"] == "True"
    assert int(lines["restarts"]) >= 1
    assert lines["balanced"] == "True"
