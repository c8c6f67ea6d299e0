"""Tests for repro.serve.gateway — the fabric's TCP front door.

A real asyncio gateway runs in a background thread; real blocking
clients talk to it over loopback sockets.  The contract: the wire adds
framing, never semantics — bits that come back match the in-process
fabric, and the books stay balanced.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve import (
    DecodeFabric,
    DecodeService,
    FabricClient,
    FabricConfig,
    FabricGateway,
    ServeConfig,
    make_frame_pool,
    pack_bits_hex,
    run_remote_loadgen,
    serve_fabric,
    unpack_bits_hex,
)
from repro.serve.gateway import _line_limit


def _calm_config(**overrides) -> ServeConfig:
    base = dict(
        max_batch=8,
        max_linger_ms=0.5,
        queue_capacity=64,
        max_iterations=8,
        min_iterations=8,
    )
    base.update(overrides)
    return ServeConfig(**base)


class _GatewayHarness:
    """Run a FabricGateway on a background event loop thread."""

    def __init__(self, fabric: DecodeFabric, window: int = 64) -> None:
        self.fabric = fabric
        self.window = window
        self.gateway = None
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(30.0), "gateway failed to start"

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.gateway = FabricGateway(
            self.fabric, host="127.0.0.1", port=0, window=self.window
        )
        await self.gateway.start()
        self._ready.set()
        await self._stop.wait()
        await self.gateway.stop()

    @property
    def port(self) -> int:
        return self.gateway.port

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        assert not self._thread.is_alive(), "gateway failed to stop"

    def __enter__(self) -> "_GatewayHarness":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


@pytest.fixture(scope="module")
def frames(code_half_tiny):
    return make_frame_pool(code_half_tiny, pool_size=16, seed=55)


def _reference_bits(code, config, pool) -> np.ndarray:
    service = DecodeService(code, config, registry=MetricsRegistry())
    ids = [
        service.submit(pool.llrs[i], now=float(i))
        for i in range(len(pool))
    ]
    service.flush()
    by_id = {r.request_id: r for r in service.poll()}
    return np.stack([by_id[i].bits for i in ids])


class TestBitPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for n in (1, 7, 8, 2160):
            bits = rng.integers(0, 2, size=n).astype(np.uint8)
            assert np.array_equal(
                unpack_bits_hex(pack_bits_hex(bits), n), bits
            )


class TestGatewayProtocol:
    def test_ping_stats_and_decode_bit_identity(
        self, code_half_tiny, frames
    ):
        config = _calm_config()
        expected = _reference_bits(code_half_tiny, config, frames)
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=config),
            registry=MetricsRegistry(),
        )
        got = {}
        with _GatewayHarness(fabric) as server:
            with FabricClient(
                "127.0.0.1", server.port, window=8,
                on_response=lambda r: got.__setitem__(
                    r["id"], unpack_bits_hex(r["bits"], code_half_tiny.n)
                ),
            ) as client:
                pong = client.ping()
                assert pong["ok"] and pong["workers"] == 2
                for i in range(len(frames)):
                    client.decode(frames.llrs[i], correlation=i)
                client.drain()
                snapshot = client.stats()
        assert sorted(got) == list(range(len(frames)))
        assert np.array_equal(
            np.stack([got[i] for i in sorted(got)]), expected
        )
        # The stats op returns the merged cross-worker snapshot.
        assert set(snapshot["workers"]) == {"fabric", "worker0", "worker1"}
        assert snapshot["counters"]["serve.requests.submitted"] == len(
            frames
        )

    def test_json_llrs_and_client_affinity_fields(
        self, code_half_tiny, frames
    ):
        """JSON ``llrs`` decode bit-identically; an older client's
        ``client`` affinity field is accepted and ignored."""
        config = _calm_config()
        expected = _reference_bits(code_half_tiny, config, frames)
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=config),
            registry=MetricsRegistry(),
        )
        with _GatewayHarness(fabric) as server:
            with FabricClient("127.0.0.1", server.port) as client:
                response = client.request({
                    "op": "decode",
                    "id": 0,
                    "llrs": [float(v) for v in frames.llrs[0]],
                    "client": "tenant-a",
                })
                assert response["ok"] and response["status"] == "ok"
                bits = unpack_bits_hex(
                    response["bits"], code_half_tiny.n
                )
        assert np.array_equal(bits, expected[0])

    def test_protocol_errors_are_typed_not_fatal(
        self, code_half_tiny, frames
    ):
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=1, serve=_calm_config()),
            registry=MetricsRegistry(),
        )
        with _GatewayHarness(fabric) as server:
            with FabricClient("127.0.0.1", server.port) as client:
                bad_op = client.request({"op": "bogus"})
                assert not bad_op["ok"] and "bogus" in bad_op["error"]
                bad_shape = client.request({
                    "op": "decode", "id": 1, "llrs": [0.0, 1.0],
                })
                assert not bad_shape["ok"]
                # The connection survives the errors.
                assert client.ping()["ok"]

    def test_non_object_json_gets_typed_error(self):
        """JSON that is not an object is answered like any malformed
        request, and the connection stays open."""
        with _GatewayHarness(_StubFabric(100)) as server:
            with _RawConnection(server.port) as conn:
                for line in (b"[1, 2]", b"5", b'"x"'):
                    assert conn.request(line) == {
                        "ok": False,
                        "error": "request must be a JSON object",
                    }
                assert conn.request(b'{"op": "ping"}')["ok"]

    def test_non_finite_deadline_gets_typed_error_and_pump_lives(
        self, code_half_tiny, frames
    ):
        """``1e400`` (read as inf) and ``NaN`` deadlines are refused at
        the door, after a decoded batch has primed the per-iteration
        cost; the pump keeps serving every connection."""
        config = _calm_config()
        expected = _reference_bits(code_half_tiny, config, frames)
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=1, serve=config),
            registry=MetricsRegistry(),
        )
        hex_llrs = frames.llrs[0].astype("<f4").tobytes().hex()
        got = {}
        with _GatewayHarness(fabric) as server:
            with FabricClient(
                "127.0.0.1", server.port, timeout_s=10.0,
                on_response=lambda r: got.__setitem__(r["id"], r),
            ) as client:
                client.decode(frames.llrs[0], correlation="warm")
                client.drain()
            with _RawConnection(server.port) as conn:
                for deadline in (b"1e400", b"NaN"):
                    response = conn.request(
                        b'{"op": "decode", "id": 1, "deadline_ms": '
                        + deadline + b', "llrs_f32": "'
                        + hex_llrs.encode() + b'"}'
                    )
                    assert response["ok"] is False
                    assert "finite" in response["error"]
            with FabricClient(
                "127.0.0.1", server.port, timeout_s=10.0,
                on_response=lambda r: got.__setitem__(r["id"], r),
            ) as client:
                client.decode(frames.llrs[1], correlation="after")
                client.drain()
        assert got["warm"]["status"] == "ok"
        assert got["after"]["status"] == "ok"
        assert np.array_equal(
            unpack_bits_hex(got["after"]["bits"], code_half_tiny.n),
            expected[1],
        )

    def test_non_finite_frame_answered_as_rejected(
        self, code_half_tiny, frames
    ):
        """A NaN frame gets a typed rejection; the gateway's pump lives
        on and answers the good frame sent right after it."""
        config = _calm_config()
        expected = _reference_bits(code_half_tiny, config, frames)
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=config),
            registry=MetricsRegistry(),
        )
        bad = frames.llrs[0].copy()
        bad[3] = np.nan
        got = {}
        with _GatewayHarness(fabric) as server:
            with FabricClient(
                "127.0.0.1", server.port, timeout_s=10.0,
                on_response=lambda r: got.__setitem__(r["id"], r),
            ) as client:
                client.decode(bad, correlation="nan")
                client.decode(frames.llrs[1], correlation="good")
                client.drain()
                counters = client.stats()["counters"]
        assert got["nan"]["status"] == "rejected"
        assert got["nan"]["reason"] == "bad_frame"
        assert got["good"]["status"] == "ok"
        assert np.array_equal(
            unpack_bits_hex(got["good"]["bits"], code_half_tiny.n),
            expected[1],
        )
        assert counters["serve.requests.submitted"] == 2
        assert counters["serve.requests.rejected"] == 1
        assert counters["serve.requests.completed"] == 1

    def test_client_window_backpressure(self, code_half_tiny, frames):
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=1, serve=_calm_config()),
            registry=MetricsRegistry(),
        )
        seen = []
        with _GatewayHarness(fabric, window=4) as server:
            with FabricClient(
                "127.0.0.1", server.port, window=2,
                on_response=lambda r: seen.append(r["status"]),
            ) as client:
                for i in range(10):
                    client.decode(frames.llrs[i % len(frames)],
                                  correlation=i)
                    assert client.inflight <= 2
                client.drain()
                assert client.inflight == 0
        assert seen.count("ok") == 10


class TestGatewayShutdown:
    def test_stop_after_a_pump_failure_closes_the_fabric(
        self, code_half_tiny
    ):
        """A pump that raises ends the pump task; ``stop()`` re-raises
        that error only after closing the fabric, so no worker process
        outlives the gateway."""
        before = set(multiprocessing.active_children())
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=1, serve=_calm_config()),
            registry=MetricsRegistry(),
        )
        assert set(multiprocessing.active_children()) - before

        def broken_pump(now=None):
            raise RuntimeError("pump failed")

        fabric.pump = broken_pump

        async def main():
            gateway = FabricGateway(fabric)
            await gateway.start()
            await asyncio.sleep(0.05)  # the pump task runs and dies
            with pytest.raises(RuntimeError, match="pump failed"):
                await gateway.stop()

        asyncio.run(main())
        assert set(multiprocessing.active_children()) - before == set()


class _RawConnection:
    """One socket to the gateway that sends lines exactly as given."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(
            ("127.0.0.1", port), timeout=10.0
        )
        self._stream = self._sock.makefile("rwb")

    def request(self, line: bytes) -> dict:
        self._stream.write(line + b"\n")
        self._stream.flush()
        return json.loads(self._stream.readline())

    def __enter__(self) -> "_RawConnection":
        return self

    def __exit__(self, *exc) -> bool:
        self._stream.close()
        self._sock.close()
        return False


class _StubFabric:
    """Just enough fabric for the gateway: records each submission and
    completes it at once with all-zero bits."""

    def __init__(self, n: int) -> None:
        self.code = SimpleNamespace(n=n)
        self.config = SimpleNamespace(workers=1)
        self.submitted = []
        self._pending = []
        self._done = []

    def clock(self) -> float:
        return time.monotonic()

    def submit(self, llrs, *, deadline_s=None, now=None):
        request_id = len(self.submitted)
        self.submitted.append(llrs)
        self._done.append(SimpleNamespace(
            request_id=request_id, status="ok", ok=True,
            bits=np.zeros(self.code.n, dtype=np.uint8), converged=True,
            iterations=0, iteration_budget=0, latency_s=0.0,
        ))
        return request_id

    def poll(self):
        done, self._done = self._done, []
        return done

    def pump(self) -> None:
        pass

    def next_due(self, now):
        return None

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class TestLineLimit:
    def test_full_size_f32_frame_is_submitted(self):
        # One 64800-LLR llrs_f32 request is 518,400 hex characters,
        # eight times asyncio's default 64 KiB line limit.
        fabric = _StubFabric(64800)
        llrs = np.random.default_rng(3).normal(size=64800)
        got = []
        with _GatewayHarness(fabric) as server:
            with FabricClient(
                "127.0.0.1", server.port, on_response=got.append
            ) as client:
                client.decode(llrs, correlation=7)
                client.drain()
        assert got[0]["ok"] and got[0]["id"] == 7
        assert got[0]["status"] == "ok" and got[0]["n"] == 64800
        assert len(fabric.submitted) == 1
        np.testing.assert_array_equal(
            fabric.submitted[0], llrs.astype("<f4")
        )

    def test_over_limit_line_gets_typed_error_and_others_survive(self):
        fabric = _StubFabric(100)
        line = b"x" * (_line_limit(100) + 10) + b"\n"
        with _GatewayHarness(fabric) as server:
            with FabricClient("127.0.0.1", server.port) as survivor:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=30.0
                ) as sock:
                    try:
                        sock.sendall(line)
                    except OSError:
                        pass  # the gateway may close before the tail
                    with sock.makefile("rb") as reader:
                        reply = reader.readline()
                response = json.loads(reply)
                assert response["ok"] is False
                assert "exceeds" in response["error"]
                assert survivor.ping()["ok"]
                survivor.decode(np.zeros(100), correlation=1)
                survivor.drain()
        assert len(fabric.submitted) == 1


class TestServeFabricEntrypoint:
    def test_remote_loadgen_over_serve_fabric(self, code_half_tiny):
        # The CLI path end to end: serve_fabric in a thread, the remote
        # load generator driving it over TCP, books balanced, bits
        # checked against ground truth.
        # seed chosen for a pool the 6-bit quantized decoder fully
        # corrects at this SNR (ground-truth comparison needs FER 0).
        pool = make_frame_pool(
            code_half_tiny, pool_size=32, ebn0_db=3.5, seed=55
        )
        config = _calm_config(
            max_iterations=30, min_iterations=30, max_linger_ms=2.0
        )
        fabric = DecodeFabric(
            code_half_tiny,
            FabricConfig(workers=2, serve=config),
            registry=MetricsRegistry(),
        )
        bound = {}
        ready = threading.Event()

        def on_ready(gateway):
            bound["port"] = gateway.port
            ready.set()

        server = threading.Thread(
            target=serve_fabric,
            kwargs=dict(fabric=fabric, port=0, duration_s=8.0,
                        ready=on_ready),
            daemon=True,
        )
        server.start()
        assert ready.wait(30.0)
        result = run_remote_loadgen(
            "127.0.0.1", bound["port"],
            frame_pool=pool,
            offered_fps=120.0,
            duration_s=1.0,
            window=16,
        )
        server.join(timeout=30.0)
        assert not server.is_alive()
        assert result["protocol_errors"] == 0
        assert result["frame_errors"] == 0
        assert (
            result["completed"] + result["rejected"] + result["expired"]
            == result["submitted"]
        )
        assert result["served_fps"] > 0
        assert "workers" in result["server_snapshot"]
