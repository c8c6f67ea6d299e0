"""Extension bench — distributed decode fabric scaling and resilience.

Drives the sharded serve plane (``repro.serve.fabric``) with the
closed-loop load generator at saturation for 1..N decode workers and
records served frames/s, scaling efficiency, and tail latency per
worker count; then soaks the crash path (SIGKILL a worker mid-flight)
and the capacity-planner sweep at the full worker count.

Three properties are asserted, matching the subsystem's acceptance bar:

* **the fabric is invisible in the output**: with shedding neutral the
  decoded bits are identical to the single-service path for every
  worker count;
* **nothing vanishes**: merged cross-worker accounting satisfies
  ``completed + rejected + expired == submitted`` at every offered
  rate — including the run where a worker is killed mid-chunk and its
  frames are redriven;
* **cores buy throughput**: on a host with >= 4 CPUs the 4-worker
  fabric must serve >= 3.0x the 1-worker rate (>= 0.75 efficiency).
  On smaller hosts the sweep still runs and records honest numbers,
  but the scaling floor (meaningless without the cores) is skipped —
  the same CPU-count gate ``bench_parallel_scaling`` uses.

``BENCH_SMOKE=1`` shrinks durations and the worker sweep so the file
finishes quickly in CI; full runs write ``BENCH_distributed_serve.json``.
"""

import os
import time

import numpy as np

from repro.core.report import format_table
from repro.decode.batch import make_batch_decoder
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    DecodeFabric,
    DecodeService,
    FabricConfig,
    ServeConfig,
    make_frame_pool,
    run_loadgen,
)

from _helpers import cached_small_code, print_banner, save_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

EBN0_DB = 3.0
SEED = 77
MAX_BATCH = 32
DURATION_S = 0.25 if SMOKE else 1.0
WORKER_COUNTS = (1, 2) if SMOKE else (1, 2, 4)
#: Planner sweep at the full worker count, as capacity multiples.
LOAD_FACTORS = (0.5, 1.0, 2.0)


def _serve_config(**overrides) -> ServeConfig:
    base = dict(
        max_batch=MAX_BATCH,
        max_linger_ms=5.0,
        queue_capacity=4 * MAX_BATCH,
        max_iterations=30,
        min_iterations=10,
        shed_start=0.5,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _batched_capacity_fps(code, pool) -> float:
    """Frames/s of one full offline batch (one worker's ceiling)."""
    decoder = make_batch_decoder(
        code, schedule="quantized-zigzag", normalization=0.75
    )
    llrs = pool.llrs[np.arange(MAX_BATCH) % len(pool)]
    decoder.decode_batch(llrs, max_iterations=30)  # warm up
    t0 = time.perf_counter()
    decoder.decode_batch(llrs, max_iterations=30)
    return MAX_BATCH / (time.perf_counter() - t0)


def _fabric_is_bit_identical(code, pool) -> bool:
    """Sharding must not change decode results: every worker count
    reproduces the single-service bits exactly."""
    calm = _serve_config(
        max_batch=8, max_linger_ms=0.0, min_iterations=30
    )
    service = DecodeService(code, calm, registry=MetricsRegistry())
    with service:
        ids = [
            service.submit(pool.llrs[i], now=float(i)) for i in range(8)
        ]
        service.flush()
        by_id = {r.request_id: r for r in service.poll()}
    expected = np.stack([by_id[i].bits for i in ids])
    for workers in WORKER_COUNTS:
        with DecodeFabric(
            code,
            FabricConfig(workers=workers, serve=calm),
            registry=MetricsRegistry(),
        ) as fabric:
            ids = [
                fabric.submit(pool.llrs[i], now=float(i)) for i in range(8)
            ]
            fabric.flush()
            by_id = {r.request_id: r for r in fabric.poll()}
        got = np.stack([by_id[i].bits for i in ids])
        if not np.array_equal(got, expected):
            return False
    return True


def _kill_worker_midflight(code, pool) -> dict:
    """Chaos probe: SIGKILL worker 0 with chunks in flight; the fabric
    must respawn it, redrive the chunks, and lose nothing."""
    config = _serve_config(max_batch=8, max_linger_ms=0.0)
    registry = MetricsRegistry()
    fabric = DecodeFabric(
        code, FabricConfig(workers=2, serve=config), registry=registry
    )
    if fabric.serial:
        fabric.close()
        return {"exercised": False}
    with fabric:
        for i in range(32):
            fabric.submit(pool.llrs[i % len(pool)], now=float(i))
        fabric.pump(now=1e6)  # force-dispatch window-fulls of chunks
        fabric.kill_worker(0)
        fabric.flush(now=1e6)
        results = fabric.poll()
        merged = fabric.merged_snapshot()
        restarts = fabric.restarts
    counters = merged["counters"]
    return {
        "exercised": True,
        "restarts": restarts,
        "redriven_chunks": counters.get("fabric.chunks.redriven", 0),
        "completed": counters.get("serve.requests.completed", 0),
        "submitted": counters.get("serve.requests.submitted", 0),
        "lossless": (
            len(results) == 32
            and all(r.status == "ok" for r in results)
            and counters.get("serve.requests.completed", 0) == 32
        ),
    }


def _saturated_run(code, pool, workers, offered_fps):
    return run_loadgen(
        code,
        _serve_config(),
        offered_fps=offered_fps,
        duration_s=DURATION_S,
        frame_pool=pool,
        seed=SEED,
        fabric=FabricConfig(workers=workers),
    )


def test_distributed_serve_scaling(once):
    code = cached_small_code("1/2")
    pool = make_frame_pool(
        code, pool_size=64, ebn0_db=EBN0_DB, seed=SEED
    )

    def run():
        capacity_fps = _batched_capacity_fps(code, pool)
        identical = _fabric_is_bit_identical(code, pool)
        chaos = _kill_worker_midflight(code, pool)
        scaling = []
        for workers in WORKER_COUNTS:
            offered = 2.0 * capacity_fps * workers
            scaling.append(
                (workers, offered, _saturated_run(
                    code, pool, workers, offered
                ))
            )
        sweep = []
        full = WORKER_COUNTS[-1]
        for factor in LOAD_FACTORS:
            offered = factor * capacity_fps * full
            sweep.append(
                (factor, offered, _saturated_run(
                    code, pool, full, offered
                ))
            )
        return capacity_fps, identical, chaos, scaling, sweep

    capacity_fps, identical, chaos, scaling, sweep = once(run)
    cpus = os.cpu_count() or 1

    print_banner(
        f"distributed serve fabric scaling (n={code.n}, "
        f"max_batch={MAX_BATCH}, {DURATION_S}s per point, "
        f"host CPUs: {cpus})"
    )
    base_fps = scaling[0][2].report.frames_per_s
    rows = []
    for workers, offered, result in scaling:
        rep = result.report
        speedup = rep.frames_per_s / base_fps
        rows.append((
            workers, f"{offered:.0f}", f"{rep.frames_per_s:.0f}",
            f"{rep.latency_p99_ms:.1f}", f"{speedup:.2f}x",
            f"{speedup / workers:.2f}",
        ))
    print(format_table(
        ("workers", "offered/s", "served/s", "p99 ms", "speedup",
         "efficiency"),
        rows,
    ))
    if chaos.get("exercised"):
        print(
            f"chaos: killed worker 0 mid-flight -> "
            f"{chaos['restarts']} restart(s), "
            f"{chaos['redriven_chunks']} chunk(s) redriven, "
            f"{chaos['completed']}/{chaos['submitted']} frames "
            f"completed"
        )
    else:
        print("chaos: skipped (no fork on this platform)")

    top = scaling[-1]
    top_rep = top[2].report
    speedup = top_rep.frames_per_s / base_fps
    balanced = all(
        r.report.completed + r.report.rejected + r.report.expired
        == r.report.submitted
        for _, _, r in scaling + sweep
    )
    save_bench_json(
        "distributed_serve",
        {
            "ebn0_db": EBN0_DB,
            "max_batch": MAX_BATCH,
            "duration_s": DURATION_S,
            "smoke": SMOKE,
            "cpu_count": cpus,
            "offline_batch_capacity_fps": capacity_fps,
            "worker_counts": list(WORKER_COUNTS),
            "fabric_bit_identical": identical,
            "accounting_balanced": balanced,
            "speedup_at_max_workers": speedup,
            "efficiency_at_max_workers": speedup / top[0],
            "served_fps_1_worker": base_fps,
            "served_fps_max_workers": top_rep.frames_per_s,
            "chaos": chaos,
            "scaling": [
                {
                    "workers": workers,
                    "offered_fps": offered,
                    "served_fps": r.report.frames_per_s,
                    "latency_p99_ms": r.report.latency_p99_ms,
                    "speedup": r.report.frames_per_s / base_fps,
                    "rejected": r.report.rejected,
                    "expired": r.report.expired,
                }
                for workers, offered, r in scaling
            ],
            # Planner-compatible rate sweep at the full worker count
            # (``repro obs capacity --bench`` reads these rows).
            "sweep": [
                {
                    "load_factor": factor,
                    "offered_fps": offered,
                    "served_fps": r.report.frames_per_s,
                    "latency_p50_ms": r.report.latency_p50_ms,
                    "latency_p95_ms": r.report.latency_p95_ms,
                    "latency_p99_ms": r.report.latency_p99_ms,
                    "mean_occupancy": r.report.mean_occupancy,
                    "mean_iterations": r.report.mean_iterations,
                    "rejected": r.report.rejected,
                    "expired": r.report.expired,
                    "frame_errors": r.frame_errors,
                    "checked": r.checked,
                }
                for factor, offered, r in sweep
            ],
        },
    )

    # Acceptance: sharding never changes bits, never loses frames.
    assert identical
    assert balanced
    if chaos.get("exercised"):
        assert chaos["lossless"]
        assert chaos["restarts"] >= 1
        assert chaos["redriven_chunks"] >= 1
    # Scaling floor only where the cores exist to pay for it (the
    # bench_parallel_scaling precedent: a 1-core host records honest
    # numbers but cannot be held to a parallel speedup).
    if cpus >= 4 and top[0] >= 4 and not SMOKE:
        assert speedup >= 3.0, (
            f"4-worker fabric served only {speedup:.2f}x the 1-worker "
            f"rate on a {cpus}-CPU host (floor: 3.0x)"
        )
