"""Async network front door for the decode fabric.

:class:`FabricGateway` exposes a :class:`~repro.serve.fabric.DecodeFabric`
over TCP with a deliberately boring protocol: **one JSON object per
line** in each direction (newline-delimited, UTF-8).  Requests:

``{"op": "ping"}``
    Liveness probe → ``{"ok": true, "op": "ping", "workers": N}``.
``{"op": "stats"}``
    Cross-worker merged registry snapshot →
    ``{"ok": true, "op": "stats", "snapshot": {...}}``.
``{"op": "decode", "id": <any>, "llrs": [...], ...}``
    Decode one frame.  ``llrs`` is either a JSON list of floats or —
    cheaper on the wire — ``llrs_f32``: little-endian ``float32`` bytes
    hex-encoded.  Optional ``deadline_ms`` (relative, propagated as an
    absolute fabric deadline) and ``client`` (affinity key for hash
    dispatch).  The response echoes ``id`` and carries ``status``
    (``ok`` / ``rejected`` / ``expired`` / ``failed``, the last three
    with a ``reason``), packed codeword bits as hex
    (``bits``, via ``np.packbits``) plus ``n`` for exact unpacking,
    ``iterations``, ``converged`` and ``latency_ms``.

A request line may be as long as the longest valid decode request for
the fabric's code length, so full 64800-LLR frames fit.  A longer line
gets ``{"ok": false, "error": ...}`` and only its connection is closed.

Flow control is per connection: at most ``window`` decodes may be in
flight per client; when a client hits its window the gateway simply
stops reading its socket until completions drain, so backpressure is
plain TCP — a fast client cannot starve others or flood the admission
queue past its share.  Responses are written in completion order, which
(by the fabric's strict chunk-order merge) is deterministic for a given
request schedule.

The gateway owns one background *pump task* that advances the fabric,
routes completions back to their connections, and sleeps until the
fabric's ``next_due`` — the same event-loop discipline as the
single-process service, lifted onto asyncio.

:class:`FabricClient` is the matching blocking client (used by
``repro loadgen --connect`` and the tests): it pipelines up to
``window`` requests and reads responses as they land.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Dict, Optional, Tuple

import numpy as np

from .fabric import DecodeFabric

#: Pump idle sleep while chunks are in flight (seconds).
_BUSY_TICK_S = 0.001
#: Pump sleep when completely idle (seconds) — bounded so new arrivals
#: admitted by connection handlers are picked up promptly.
_IDLE_TICK_S = 0.02
#: Longest text one LLR takes in an accepted encoding: a float64 ``repr``
#: in a JSON list ("-2.2250738585072014e-308", 24 characters) plus its
#: ", " separator.  ``llrs_f32`` needs only 8 hex characters per LLR.
_LLR_TEXT_MAX = 26
#: Room for the rest of a request line (op, id, deadline, client):
#: asyncio's default line limit, which every short request fits.
_ENVELOPE_BYTES = 64 * 1024


def _line_limit(n: int) -> int:
    """Longest request line (bytes) accepted for an ``n``-bit code."""
    return n * _LLR_TEXT_MAX + _ENVELOPE_BYTES


def _encode(message: dict) -> bytes:
    """One protocol line."""
    return (json.dumps(message) + "\n").encode()


def _decode_llrs(message: dict, n: int) -> np.ndarray:
    """Extract the LLR vector from a decode message (list or hex)."""
    if "llrs_f32" in message:
        raw = bytes.fromhex(message["llrs_f32"])
        llrs = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    elif "llrs" in message:
        llrs = np.asarray(message["llrs"], dtype=np.float64)
    else:
        raise ValueError("decode needs 'llrs' or 'llrs_f32'")
    if llrs.shape != (n,):
        raise ValueError(f"expected {n} LLRs, got {llrs.shape}")
    return llrs


def pack_bits_hex(bits: np.ndarray) -> str:
    """Codeword bits → hex string of ``np.packbits`` bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def unpack_bits_hex(text: str, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_hex` for an ``n``-bit codeword."""
    packed = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    return np.unpackbits(packed)[:n]


class _Connection:
    """Per-client state: writer, in-flight count, drain signal."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.inflight = 0
        self.drained = asyncio.Event()
        self.drained.set()
        self.closed = False


class FabricGateway:
    """Asyncio TCP server admitting remote frames into a fabric.

    Parameters
    ----------
    fabric:
        The decode plane (constructed and owned by the caller).
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    window:
        Per-connection in-flight decode cap (the backpressure knob).
    """

    def __init__(
        self,
        fabric: DecodeFabric,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        window: int = 64,
    ) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.fabric = fabric
        self.host = host
        self.port = port
        self.window = window
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        #: fabric request id -> (connection, client correlation id).
        self._routes: Dict[int, Tuple[_Connection, object]] = {}
        self._connections = 0

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind, start serving, and start the pump task."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_line_limit(self.fabric.code.n),
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.get_running_loop().create_task(
            self._pump_loop()
        )

    async def stop(self) -> None:
        """Stop accepting, finish in-flight work, close the fabric."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        # Flush inside the loop's executor-free context is fine: the
        # fabric blocks on its own worker futures, not the loop.
        self.fabric.flush()
        self._route_completions()
        self.fabric.close()

    # ------------------------------------------------------------------
    async def _pump_loop(self) -> None:
        fabric = self.fabric
        while True:
            fabric.pump()
            self._route_completions()
            now = fabric.clock()
            due = fabric.next_due(now)  # ``now`` while chunks are in flight
            if due is None:
                delay = _IDLE_TICK_S
            else:
                delay = min(max(due - now, _BUSY_TICK_S), _IDLE_TICK_S)
            await asyncio.sleep(delay)

    def _route_completions(self) -> None:
        for result in self.fabric.poll():
            route = self._routes.pop(result.request_id, None)
            if route is None:
                continue  # locally submitted (not via a connection)
            conn, correlation = route
            response = {
                "ok": True,
                "op": "decode",
                "id": correlation,
                "status": result.status,
            }
            if result.ok:
                response.update(
                    bits=pack_bits_hex(result.bits),
                    n=int(self.fabric.code.n),
                    converged=bool(result.converged),
                    iterations=int(result.iterations),
                    iteration_budget=int(result.iteration_budget),
                )
            else:
                response["reason"] = result.reason
            latency = result.latency_s
            if latency == latency:  # not NaN
                response["latency_ms"] = round(latency * 1e3, 3)
            conn.inflight -= 1
            if conn.inflight < self.window:
                conn.drained.set()
            if not conn.closed:
                try:
                    conn.writer.write(_encode(response))
                except (ConnectionError, RuntimeError):
                    conn.closed = True

    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = _Connection(writer)
        self._connections += 1
        client_tag = f"conn{self._connections}"
        try:
            while True:
                # Backpressure: a client at its window is not read from
                # until completions drain (TCP pushes back upstream).
                while conn.inflight >= self.window:
                    conn.drained.clear()
                    await conn.drained.wait()
                try:
                    line = await reader.readline()
                except ValueError:
                    # Longer than any valid request.  The rest of the
                    # line cannot be told from the next request, so
                    # answer and drop this connection only.
                    writer.write(_encode({
                        "ok": False,
                        "error": "request line exceeds "
                                 f"{_line_limit(self.fabric.code.n)} bytes",
                    }))
                    await writer.drain()
                    break
                if not line:
                    break
                await self._handle_line(conn, client_tag, line, writer)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            conn.closed = True
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _handle_line(
        self,
        conn: _Connection,
        client_tag: str,
        line: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            message = json.loads(line)
            op = message.get("op")
            if op == "ping":
                writer.write(_encode({
                    "ok": True,
                    "op": "ping",
                    "workers": self.fabric.config.workers,
                    "dispatch": self.fabric.config.dispatch,
                }))
                return
            if op == "stats":
                writer.write(_encode({
                    "ok": True,
                    "op": "stats",
                    "snapshot": self.fabric.merged_snapshot(),
                }))
                return
            if op != "decode":
                raise ValueError(f"unknown op {op!r}")
            llrs = _decode_llrs(message, self.fabric.code.n)
            now = self.fabric.clock()
            deadline_s = None
            if message.get("deadline_ms") is not None:
                deadline_s = now + float(message["deadline_ms"]) / 1e3
            request_id = self.fabric.submit(
                llrs,
                deadline_s=deadline_s,
                now=now,
                client=message.get("client", client_tag),
            )
            conn.inflight += 1
            self._routes[request_id] = (conn, message.get("id"))
        except (ValueError, KeyError, TypeError) as exc:
            writer.write(_encode({"ok": False, "error": str(exc)}))


class FabricClient:
    """Blocking line-protocol client with request pipelining.

    ``decode`` pipelines: it returns as soon as the request is written,
    handing completed responses to the constructor's ``on_response``
    callback as they arrive (possibly during a later ``decode`` call,
    when the pipeline is full).  ``drain`` blocks until every
    outstanding response landed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        window: int = 64,
        timeout_s: float = 30.0,
        on_response=None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.on_response = on_response
        self._sock = socket.create_connection(
            (host, port), timeout=timeout_s
        )
        self._file = self._sock.makefile("rwb")
        self.inflight = 0

    # ------------------------------------------------------------------
    def _send(self, message: dict) -> None:
        self._file.write(_encode(message))
        self._file.flush()

    def _recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        """Strict RPC (no pipelining): send one line, read one line."""
        if self.inflight:
            raise RuntimeError("drain pipelined decodes before RPCs")
        self._send(message)
        return self._recv()

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        """The gateway's merged cross-worker snapshot."""
        return self.request({"op": "stats"})["snapshot"]

    # ------------------------------------------------------------------
    def decode(
        self,
        llrs: np.ndarray,
        *,
        correlation=None,
        deadline_ms: Optional[float] = None,
        client: Optional[str] = None,
    ) -> None:
        """Pipeline one decode; blocks only when the window is full."""
        while self.inflight >= self.window:
            self._consume_one()
        message = {
            "op": "decode",
            "id": correlation,
            "llrs_f32": np.asarray(llrs, dtype="<f4").tobytes().hex(),
        }
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        if client is not None:
            message["client"] = client
        self._send(message)
        self.inflight += 1

    def _consume_one(self) -> None:
        response = self._recv()
        if response.get("op") == "decode":
            self.inflight -= 1
        if self.on_response is not None:
            self.on_response(response)

    def drain(self) -> None:
        """Read responses until nothing is outstanding."""
        while self.inflight:
            self._consume_one()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "FabricClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def run_remote_loadgen(
    host: str,
    port: int,
    *,
    frame_pool,
    offered_fps: float,
    duration_s: float,
    window: int = 64,
    deadline_ms: Optional[float] = None,
    clients: int = 0,
    timeout_s: float = 60.0,
) -> dict:
    """Closed-loop load generation against a *running* gateway.

    The remote twin of :func:`~repro.serve.loadgen.run_loadgen`: frames
    from ``frame_pool`` are offered at ``offered_fps`` over one
    pipelined connection (at most ``window`` in flight), decoded bits
    are checked against the pool's ground truth, and the gateway's
    merged snapshot is fetched at the end.  Latency here is measured at
    the client — it includes the wire and the gateway event loop, not
    just the fabric.
    """
    if offered_fps <= 0:
        raise ValueError("offered_fps must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    n = frame_pool.llrs.shape[1]
    counts = {"ok": 0, "rejected": 0, "expired": 0}
    outcome = {
        "frame_errors": 0, "bit_errors": 0, "protocol_errors": 0,
    }
    latencies_ms: list = []

    def on_response(response: dict) -> None:
        if not response.get("ok"):
            outcome["protocol_errors"] += 1
            return
        if response.get("op") != "decode":
            return
        status = response["status"]
        counts[status] = counts.get(status, 0) + 1
        if "latency_ms" in response:
            latencies_ms.append(response["latency_ms"])
        if status == "ok":
            bits = unpack_bits_hex(response["bits"], n)
            truth = frame_pool.codewords[
                response["id"] % len(frame_pool)
            ]
            wrong = int(np.count_nonzero(bits != truth))
            if wrong:
                outcome["frame_errors"] += 1
                outcome["bit_errors"] += wrong

    total = max(1, int(offered_fps * duration_s))
    period = 1.0 / offered_fps
    with FabricClient(
        host, port,
        window=window, timeout_s=timeout_s, on_response=on_response,
    ) as client:
        start = time.monotonic()
        for i in range(total):
            delay = start + i * period - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            client.decode(
                frame_pool.llrs[i % len(frame_pool)],
                correlation=i,
                deadline_ms=deadline_ms,
                client=f"client{i % clients}" if clients > 0 else None,
            )
        client.drain()
        wall = time.monotonic() - start
        snapshot = client.stats()
    latencies_ms.sort()

    def percentile(q: float) -> float:
        if not latencies_ms:
            return float("nan")
        rank = min(
            len(latencies_ms) - 1,
            max(0, int(round(q / 100.0 * (len(latencies_ms) - 1)))),
        )
        return latencies_ms[rank]

    served = counts["ok"]
    return {
        "offered_fps": offered_fps,
        "duration_s": duration_s,
        "submitted": total,
        "completed": served,
        "rejected": counts.get("rejected", 0),
        "expired": counts.get("expired", 0),
        "protocol_errors": outcome["protocol_errors"],
        "frame_errors": outcome["frame_errors"],
        "bit_errors": outcome["bit_errors"],
        "wall_s": wall,
        "served_fps": served / wall if wall > 0 else float("nan"),
        "latency_p50_ms": percentile(50),
        "latency_p99_ms": percentile(99),
        "server_snapshot": snapshot,
    }


def serve_fabric(
    fabric: DecodeFabric,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    window: int = 64,
    duration_s: Optional[float] = None,
    ready: Optional[object] = None,
    chaos_kill_worker_after_s: Optional[float] = None,
) -> None:
    """Run a gateway until ``duration_s`` elapses (or forever).

    Blocking entry point for ``repro fabric``.  ``ready`` is an
    optional callable invoked with the gateway once the port is bound
    (the CLI uses it to write a port file).
    ``chaos_kill_worker_after_s`` SIGKILLs worker 0 once, that many
    seconds in — the soak test's crash-recovery probe.
    """

    async def _main() -> None:
        gateway = FabricGateway(
            fabric, host=host, port=port, window=window
        )
        await gateway.start()
        if ready is not None:
            ready(gateway)
        start = time.monotonic()
        killed = False
        try:
            while True:
                await asyncio.sleep(0.05)
                elapsed = time.monotonic() - start
                if (
                    chaos_kill_worker_after_s is not None
                    and not killed
                    and elapsed >= chaos_kill_worker_after_s
                ):
                    killed = True
                    try:
                        fabric.kill_worker(0)
                    except RuntimeError:
                        pass  # serial fallback: nothing to kill
                if duration_s is not None and elapsed >= duration_s:
                    break
        finally:
            await gateway.stop()

    asyncio.run(_main())
