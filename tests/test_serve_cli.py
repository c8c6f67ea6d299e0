"""CLI tests for ``repro serve``, ``repro loadgen``, ``repro fabric``."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main


@pytest.fixture()
def payload(tmp_path):
    path = tmp_path / "in.bin"
    path.write_bytes(bytes(range(256)) * 6)
    return path


def test_serve_roundtrip_to_file(capsys, tmp_path, payload):
    out = tmp_path / "out.bin"
    metrics = tmp_path / "metrics.json"
    trace = tmp_path / "trace.jsonl"
    code = main([
        "serve", str(payload),
        "--output", str(out),
        "--ebn0", "3.5", "--max-batch", "8",
        "--metrics-out", str(metrics), "--trace", str(trace),
    ])
    captured = capsys.readouterr()
    assert code == 0
    data = payload.read_bytes()
    assert out.read_bytes()[: len(data)] == data
    assert "service report" in captured.err
    assert "eq7/8 hw" in captured.err
    snap = json.loads(metrics.read_text())
    assert snap["counters"]["serve.requests.completed"] > 0
    assert "serve.batch.occupancy" in snap["histograms"]
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert any(e.get("type") == "serve_batch" for e in lines)


def test_serve_stdout_stream(capsysbinary, payload):
    code = main([
        "serve", str(payload), "--ebn0", "4.0", "--max-batch", "4",
    ])
    assert code == 0
    data = payload.read_bytes()
    assert capsysbinary.readouterr().out[: len(data)] == data


def test_serve_empty_input_fails(capsys, tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert main(["serve", str(empty)]) == 2
    assert "empty input" in capsys.readouterr().err


def test_serve_obs_summary_shows_batches(capsys, tmp_path, payload):
    trace = tmp_path / "trace.jsonl"
    assert main([
        "serve", str(payload), "--output", str(tmp_path / "o.bin"),
        "--ebn0", "3.5", "--trace", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "summary", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "serve batches" in out
    assert "occupancy" in out


def test_loadgen_sweep_table(capsys, tmp_path):
    metrics = tmp_path / "metrics.json"
    code = main([
        "loadgen", "--offered-fps", "150", "500",
        "--duration", "0.1", "--ebn0", "3.5",
        "--max-batch", "8", "--max-linger-ms", "2",
        "--metrics-out", str(metrics),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "offered" in out and "p99 ms" in out
    assert "eq7/8 hw model" in out
    snap = json.loads(metrics.read_text())
    assert snap["counters"]["serve.requests.submitted"] == 15 + 50


def test_loadgen_publish_streams_snapshots_and_prom(capsys, tmp_path):
    """Acceptance path: --publish emits a JSONL snapshot stream plus a
    Prometheus-text rendering alongside --metrics-out."""
    metrics = tmp_path / "metrics.json"
    stream = tmp_path / "stream.jsonl"
    code = main([
        "loadgen", "--offered-fps", "150", "300",
        "--duration", "0.15", "--ebn0", "3.5",
        "--max-batch", "8", "--max-linger-ms", "2",
        "--metrics-out", str(metrics),
        "--publish", str(stream),
        "--publish-interval-s", "0.05",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "publish:" in out

    lines = [json.loads(l) for l in stream.read_text().splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[0]["stream"] == "metrics_snapshots"
    assert lines[0]["command"] == "loadgen"
    ticks = [l for l in lines if l["type"] == "metrics_snapshot"]
    assert len(ticks) >= 2  # one per sweep point at minimum
    assert all("delta" in t and "cumulative" in t for t in ticks)
    # Deltas over the stream add up to the merged metrics file.
    merged = json.loads(metrics.read_text())
    streamed = sum(
        t["delta"]["counters"].get("serve.requests.completed", 0)
        for t in ticks
    )
    assert streamed == merged["counters"]["serve.requests.completed"]

    prom = (tmp_path / "stream.jsonl.prom").read_text()
    assert "# TYPE repro_serve_requests_completed_total counter" in prom
    assert "repro_serve_stage_decode_seconds_count" in prom


def test_loadgen_publish_http_port0_prints_bound_port(capsys):
    """--publish-http 0 binds an ephemeral port and prints it back."""
    code = main([
        "loadgen", "--offered-fps", "150",
        "--duration", "0.1", "--ebn0", "3.5",
        "--max-batch", "8", "--max-linger-ms", "2",
        "--publish-http", "0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    line = next(l for l in out.splitlines() if "bound port" in l)
    port = int(line.rsplit("bound port", 1)[1].strip(" )"))
    assert port > 0  # the OS picked a real ephemeral port


def test_loadgen_fabric_plane_merges_workers(capsys, tmp_path):
    """--fabric-workers runs the sweep against an in-process fabric and
    the metrics file carries the merged per-worker sub-views."""
    metrics = tmp_path / "metrics.json"
    code = main([
        "loadgen", "--offered-fps", "150",
        "--duration", "0.15", "--ebn0", "3.5",
        "--max-batch", "8", "--max-linger-ms", "2",
        "--fabric-workers", "2",
        "--metrics-out", str(metrics),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fabric workers=2" in out
    snap = json.loads(metrics.read_text())
    assert set(snap["workers"]) == {"fabric", "worker0", "worker1"}
    counters = snap["counters"]
    assert counters["serve.requests.submitted"] == int(150 * 0.15)
    exits = (
        counters.get("serve.requests.completed", 0)
        + counters.get("serve.requests.rejected", 0)
        + counters.get("serve.requests.expired", 0)
    )
    assert exits == counters["serve.requests.submitted"]


@pytest.mark.slow
def test_fabric_gateway_cli_end_to_end(capsys, tmp_path):
    """'repro fabric' serving, 'repro loadgen --connect' driving — the
    full TCP path the CI smoke job soaks."""
    port_file = tmp_path / "port"
    metrics = tmp_path / "fabric_metrics.json"
    server = threading.Thread(
        target=main,
        args=([
            "fabric", "--listen", "127.0.0.1:0",
            "--port-file", str(port_file),
            "--duration", "5",
            "--fabric-workers", "2",
            "--parallelism", "12",
            "--max-batch", "8", "--max-linger-ms", "2",
            "--metrics-out", str(metrics),
        ],),
        daemon=True,
    )
    server.start()
    deadline = time.monotonic() + 30.0
    while not port_file.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    port = int(port_file.read_text())
    code = main([
        "loadgen", "--connect", f"127.0.0.1:{port}",
        "--offered-fps", "120", "--duration", "1",
        "--ebn0", "3.5", "--parallelism", "12", "--window", "16",
    ])
    server.join(timeout=60.0)
    assert not server.is_alive()
    assert code == 0
    out = capsys.readouterr().out
    assert "fabric listening on 127.0.0.1:" in out
    assert "workers=2" in out
    snap = json.loads(metrics.read_text())
    assert set(snap["workers"]) == {"fabric", "worker0", "worker1"}


@pytest.mark.parametrize("argv", [
    ["fabric", "--listen", "127.0.0.1:0", "--duration", "0.1",
     "--workers", "3"],
    ["loadgen", "--offered-fps", "10", "--duration", "0.1",
     "--fabric-workers", "2", "--workers", "3"],
])
def test_fabric_paths_reject_serve_workers(capsys, argv):
    """The fabric's process count is --fabric-workers; a --workers value
    it would drop is refused with a one-line error instead."""
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "--fabric-workers" in err and "--workers 3" in err
