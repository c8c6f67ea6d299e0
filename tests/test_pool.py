"""Tests for repro.sim.pool.PersistentPool — create once, submit many."""

from __future__ import annotations

import os
import signal

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.quantize import FixedPointFormat
from repro.sim import PersistentPool, parallel_ber

_STATE = {}


def _init(tag):
    _STATE["tag"] = tag


def _double(x):
    return 2 * x


def _tagged(x):
    return (_STATE.get("tag"), x)


def _run(code, **kwargs):
    defaults = dict(
        max_frames=48, shard_frames=16, seed=11, max_iterations=15,
        schedule="zigzag",
    )
    defaults.update(kwargs)
    return parallel_ber(code, 1.2, **defaults)


class TestSerialFallback:
    def test_single_worker_runs_inline(self):
        with PersistentPool(1) as pool:
            assert pool.serial
            future = pool.submit(_double, 21)
            assert future.done()
            assert future.result() == 42

    def test_serial_initializer_runs_inline(self):
        _STATE.clear()
        with PersistentPool(1) as pool:
            pool.configure(_init, ("inline",), key="a")
            assert pool.submit(_tagged, 1).result() == ("inline", 1)


class TestWarmReuse:
    def test_same_key_keeps_executor(self):
        with PersistentPool(2) as pool:
            if pool.serial:  # fork unavailable -> nothing to assert
                pytest.skip("no process pool on this platform")
            pool.configure(_init, ("one",), key="k1")
            first = pool._require_executor()
            pool.configure(_init, ("one",), key="k1")
            assert pool._require_executor() is first
            # Results still come from initialized workers.
            assert pool.submit(_tagged, 5).result() == ("one", 5)

    def test_new_key_respins_executor(self):
        with PersistentPool(2) as pool:
            if pool.serial:
                pytest.skip("no process pool on this platform")
            pool.configure(_init, ("one",), key="k1")
            first = pool._require_executor()
            pool.configure(_init, ("two",), key="k2")
            second = pool._require_executor()
            assert second is not first
            assert pool.submit(_tagged, 7).result() == ("two", 7)

    def test_shutdown_idempotent(self):
        pool = PersistentPool(1)
        pool.shutdown()
        pool.shutdown()


def _pid():
    return os.getpid()


class TestDedicatedWorker:
    def _dedicated(self, **kwargs):
        pool = PersistentPool(1, dedicated=True, **kwargs)
        if pool.serial:
            pool.shutdown()
            pytest.skip("no fork: dedicated worker unavailable")
        return pool

    def test_single_dedicated_worker_is_a_real_process(self):
        with self._dedicated() as pool:
            assert not pool.serial
            assert pool.submit(_pid).result() != os.getpid()

    def test_respawn_after_kill_keeps_configuration(self):
        registry = MetricsRegistry()
        trace = TraceRecorder()
        with self._dedicated(registry=registry, trace=trace) as pool:
            pool.configure(_init, ("alpha",), key="k")
            victim = pool.submit(_pid).result()
            os.kill(victim, signal.SIGKILL)
            # The pool auto-respawns when it has already noticed the
            # death; a future that raced the detection fails and the
            # caller redrives (the fabric's contract).
            from concurrent.futures import BrokenExecutor

            try:
                out = pool.submit(_tagged, 3).result()
            except BrokenExecutor:
                pool.respawn()
                out = pool.submit(_tagged, 3).result()
            assert out == ("alpha", 3)  # initializer re-ran
            assert pool.submit(_pid).result() != victim
            assert pool.restarts >= 1
        snap = registry.snapshot()
        assert snap["counters"]["pool.worker_restart"] >= 1
        assert any(
            e["type"] == "pool_worker_restart" for e in trace.events
        )

    def test_respawn_on_serial_pool_is_a_noop(self):
        pool = PersistentPool(1)
        pool.respawn()
        assert pool.restarts == 0


class TestParallelBerWithPool:
    def test_pool_results_bit_identical(self, code_half_tiny):
        """One warm pool across runs changes nothing about results."""
        baseline = _run(code_half_tiny, workers=2)
        with PersistentPool(2) as pool:
            first = _run(code_half_tiny, pool=pool)
            second = _run(code_half_tiny, pool=pool)  # warm reuse
        assert first.result == baseline.result
        assert second.result == baseline.result

    def test_pool_serves_a_sweep_without_respin(self, code_half_tiny):
        """Different Eb/N0 points share one configured pool (the
        decoder params, not the run params, key the workers)."""
        with PersistentPool(2) as pool:
            a = _run(code_half_tiny, pool=pool)
            executor = pool._executor
            b = parallel_ber(
                code_half_tiny, 0.4, max_frames=32, shard_frames=16,
                seed=11, max_iterations=15, pool=pool, schedule="zigzag",
            )
            if not pool.serial:
                assert pool._executor is executor  # no respin mid-sweep
        assert a.result.frames == 48
        assert b.result.frames == 32

    def test_equal_recipes_keep_the_warm_executor(self, code_half_tiny):
        """Pools key on the recipe by value: two equal but distinct
        formats are one decoder, so the workers stay warm."""
        with PersistentPool(2) as pool:
            if pool.serial:
                pytest.skip("no process pool on this platform")
            first = _run(
                code_half_tiny, pool=pool, schedule="quantized-zigzag",
                fmt=FixedPointFormat(6, 2),
            )
            executor = pool._executor
            second = _run(
                code_half_tiny, pool=pool, schedule="quantized-zigzag",
                fmt=FixedPointFormat(6, 2),
            )
            assert pool._executor is executor
        assert first.result == second.result
