"""The three workloads, driven only through public ``repro`` calls.

Each workload object runs in its own process (see ``run.py``):
``setup()`` builds the system under test and waits until every worker
has returned a first decoded result; ``measure()`` runs the timed
phases; ``finish()`` stops the system, then replays and checks the
outputs outside the timed phases.  Inline ``cnative`` decodes
(replays) run only after the system's last fork.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import config as C
import procs
import stats
from openloop import LoadRun, run_closed, run_open

clock = time.monotonic


def progress(**fields) -> None:
    """One progress line for the supervisor (unfinished frames are
    counted as failed if the run has to be killed)."""
    print("PROGRESS " + json.dumps(fields), flush=True)


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else float("nan")


def _pct(values, q) -> float:
    values = list(values)
    return stats.percentile(values, q) if values else float("nan")


class Workload:
    """Common bookkeeping: set-up timing, memory, checks, outputs."""

    name = ""

    def __init__(self, seed: int, seconds: float, spans) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.spans = spans
        self.rng = np.random.default_rng([self.seed, 0])
        self.setup_parts: Dict[str, float] = {}
        self.e2e: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.layers: Dict[str, float] = {}
        self.checks: List[dict] = []
        self.attempted = 0
        self.failed = 0
        #: Resident size of the benchmark's own input pools (MiB).
        self.input_mb = 0.0
        self.worker_peak_mb = 0.0
        #: False in a set-up-only process, which needs no input pools.
        self.measuring = True
        #: Generator-clock intervals the traced ledger must cover.
        self.windows: List[tuple] = []

    # -- helpers -------------------------------------------------------
    def timed(self, part: str, fn, *args, **kwargs):
        t0 = clock()
        with self.spans.span(part):
            out = fn(*args, **kwargs)
        self.setup_parts[part + "_s"] = (
            self.setup_parts.get(part + "_s", 0.0) + clock() - t0
        )
        return out

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def mark_baseline(self, *pools: np.ndarray) -> None:
        """Inputs exist: restart the peak here, and remember their size
        so the peak can leave them out."""
        self.input_mb = sum(a.nbytes for a in pools) / 2**20
        procs.reset_peak()

    def sample_workers(self) -> None:
        peaks = procs.worker_peaks_mb()
        self.worker_peak_mb = max(
            self.worker_peak_mb, float(sum(peaks.values()))
        )

    @property
    def setup_s(self) -> float:
        return sum(
            self.setup_parts.get(k, 0.0)
            for k in ("codes.build_s", "decode.build_s", "workers.ready_s")
        )

    def memory(self) -> None:
        """Peak memory of the system under test: this process's peak
        since its inputs were generated, less those inputs, plus the
        workers' peaks."""
        parent = procs.peak_rss_mb() - self.input_mb
        self.e2e["peak_rss_mb"] = parent + self.worker_peak_mb
        self.layers["rss_mb.parent"] = parent
        self.layers["rss_mb.workers"] = self.worker_peak_mb

    def result(self) -> dict:
        for part, value in self.setup_parts.items():
            self.layers.setdefault(part, value)
        return {
            "workload": self.name,
            "setup": dict(self.setup_parts, setup_s=self.setup_s),
            "e2e": self.e2e,
            "info": self.info,
            "layers": self.layers,
            "checks": self.checks,
            "attempted": self.attempted,
            "failed": self.failed,
        }

    def run_setup_only(self) -> dict:
        self.measuring = False
        try:
            self.setup()
        finally:
            self.stop()
        return {"setup": dict(self.setup_parts, setup_s=self.setup_s)}

    def run(self, traced: bool) -> dict:
        try:
            self.setup()
            self.measure()
            self.sample_workers()
        finally:
            self.stop()
        self.memory()
        self.finish(traced)
        return self.result()

    def decode_layers(self, batches: List[dict]) -> None:
        """Kernel metrics from replayed batches: per batch, the
        ``iters`` each frame ran and the ``decode_s`` it took."""
        frame_iters = sum(int(np.sum(b["iters"])) for b in batches)
        decode_s = sum(b["decode_s"] for b in batches)
        self.layers["decode.ms_per_batch"] = 1e3 * decode_s / len(batches)
        self.layers["decode.us_per_frame_iter"] = (
            1e6 * decode_s / max(1, frame_iters)
        )

    def result_layers(self, rows: List[tuple]) -> None:
        """Per-frame decode outcomes ``(iterations, converged, batch
        key)`` of the system's own results."""
        sizes = defaultdict(int)
        for _it, _conv, key in rows:
            sizes[key] += 1
        self.layers["decode.iters_per_frame"] = _mean(r[0] for r in rows)
        self.layers["decode.unconverged_share"] = _mean(
            0.0 if r[1] else 1.0 for r in rows
        )
        self.layers["decode.block_fill"] = stats.block_fill(
            list(sizes.values()), C.LANES
        )
        self.info["batches"] = len(sizes)
        self.info["frames_per_batch"] = _mean(sizes.values())

    def eq8(self, profile, iters: float) -> float:
        from repro.hw.throughput import ThroughputModel

        return ThroughputModel(profile).throughput_bps(iters) / 1e6


# ======================================================================
class McNormal(Workload):
    """Offline Monte-Carlo BER point on the warm pool (the ceiling)."""

    name = "mc-normal"

    def setup(self) -> None:
        from repro.codes import build_code
        from repro.decode.batch import make_batch_decoder
        from repro.sim.pool import PersistentPool

        self.pool = None
        self.mark_baseline()
        self.code = self.timed("codes.build", build_code, C.MC["rate"])
        # parallel_ber validates its decoder in this process before
        # forking; building it here first times that step (the lazy
        # cnative compile lands in it).
        self.timed(
            "decode.build", make_batch_decoder, self.code,
            schedule="quantized-zigzag", backend="cnative",
        )
        self.pool = PersistentPool(C.WORKERS, label="perfbench mc")
        self.calls: List[dict] = []
        first = self.timed(
            "workers.ready", self._call, C.MC["light_frames"], "setup"
        )
        self.calls.remove(first)

    def _call(self, frames: int, phase: str) -> dict:
        from repro.sim.parallel import parallel_ber

        seed = int(self.rng.integers(2**63))
        t0 = clock()
        with self.spans.span("parallel_ber"):
            run = parallel_ber(
                self.code, C.EBN0_DB,
                max_frames=frames,
                shard_frames=C.MC["shard_frames"],
                workers=C.WORKERS,
                schedule="quantized-zigzag",
                backend="cnative",
                seed=seed,
                pool=self.pool,
            )
        call = {
            "phase": phase, "frames": frames, "seed": seed,
            "wall_s": clock() - t0, "result": run.result,
        }
        self.calls.append(call)
        return call

    def measure(self) -> None:
        for _ in range(C.MC["warm_calls"]):
            self._call(C.MC["light_frames"], "warm")
        t0 = clock()
        for phase, frames, share in (
            ("light", C.MC["light_frames"], C.MC["light_share"]),
            ("heavy", C.MC["heavy_frames"], 1.0 - C.MC["light_share"]),
        ):
            progress(phase=phase, frames=frames)
            end = clock() + share * self.seconds
            calls = 0
            while True:
                self._call(frames, phase)
                calls += 1
                if clock() >= end:
                    break
            self.attempted += calls * frames
            progress(phase=phase, done=True, attempted=calls * frames,
                     failed=0)
        self.windows = [(t0, clock())]

    def stop(self) -> None:
        if getattr(self, "pool", None) is not None:
            self.sample_workers()
            self.pool.shutdown()
            self.pool = None

    def finish(self, traced: bool) -> None:
        self.attempted += sum(
            c["frames"] for c in self.calls if c["phase"] == "warm"
        )
        merged = sum(c["result"].frames for c in self.calls)
        self.failed = self.attempted - merged
        light = [c for c in self.calls if c["phase"] == "light"]
        heavy = [c for c in self.calls if c["phase"] == "heavy"]
        for label, calls in (("light", light), ("heavy", heavy)):
            summ = stats.latency_summary([c["wall_s"] for c in calls])
            self.e2e[f"p50_ms.{label}"] = summ["p50_ms"]
            self.e2e[f"tail_ms.{label}"] = summ["tail_ms"]
            self.info[f"tail_q.{label}"] = summ["tail_q"]
            self.info[f"samples.{label}"] = summ["samples"]
        rates = [c["frames"] / c["wall_s"] for c in heavy]
        self.e2e["capacity_fps"] = stats.percentile(rates, 50.0)
        self.info["frames_per_s"] = self.e2e["capacity_fps"]
        self.e2e["delivered_share"] = merged / self.attempted
        self.info["fail_share"] = stats.fail_share(self.attempted, merged)
        frame_errors = sum(c["result"].frame_errors for c in self.calls)
        self.info["fer"] = frame_errors / merged
        self.layers["fer"] = self.info["fer"]
        iters = sum(c["result"].total_iterations for c in self.calls)
        self.info["eq8_mbps"] = self.eq8(self.code.profile, iters / merged)
        self._replay(heavy, traced)

    def _replay(self, heavy: List[dict], traced: bool) -> None:
        """Re-decode one seeded heavy call shard by shard (cnative) and
        one of its shards on numpy; counts and bits must match."""
        from repro.channel import AwgnChannel
        from repro.decode.batch import make_batch_decoder

        pick = heavy[int(self.rng.integers(len(heavy)))]
        code, k = self.code, self.code.k
        fast = make_batch_decoder(
            code, schedule="quantized-zigzag", backend="cnative"
        )
        n_shards = pick["frames"] // C.MC["shard_frames"]
        children = np.random.SeedSequence(pick["seed"]).spawn(n_shards)
        numpy_shard = int(self.rng.integers(n_shards))
        totals = np.zeros(4, dtype=np.int64)
        batches, rows = [], []
        t_channel = t_quant = 0.0
        for index, child in enumerate(children):
            t0 = clock()
            with self.spans.span("channel"):
                llrs = AwgnChannel(
                    ebn0_db=C.EBN0_DB, rate=float(code.profile.rate),
                    seed=child,
                ).llrs_all_zero(code.n, size=C.MC["shard_frames"])
            t1 = clock()
            with self.spans.span("quantize"):
                ch = fast.quantize_channel(llrs)
            t2 = clock()
            with self.spans.span("decode"):
                res = fast.decode_quantized_batch(ch, C.ITERATIONS, True)
            t3 = clock()
            t_channel += t1 - t0
            t_quant += t2 - t1
            batches.append({"iters": res.iterations, "decode_s": t3 - t2})
            rows += [
                (int(it), bool(cv), index)
                for it, cv in zip(res.iterations, res.converged)
            ]
            errs = np.count_nonzero(res.bits[:, :k], axis=1)
            totals += [
                errs.sum(), (errs > 0).sum(),
                res.iterations.sum(), res.converged.sum(),
            ]
            if index == numpy_shard:
                ref = make_batch_decoder(
                    code, schedule="quantized-zigzag", backend="numpy"
                ).decode_batch(llrs, max_iterations=C.ITERATIONS)
                self.check(
                    "mc shard bit-identical to numpy decode",
                    np.array_equal(ref.bits, res.bits)
                    and np.array_equal(ref.iterations, res.iterations),
                    f"shard {index} of call seed {pick['seed']}",
                )
        got = pick["result"]
        want = [
            got.bit_errors, got.frame_errors,
            got.total_iterations, got.converged_frames,
        ]
        self.check(
            "mc merged counts equal seeded-shard replay",
            [int(x) for x in totals] == [int(x) for x in want],
            f"replay {totals.tolist()} vs merged {want}",
        )
        frames = pick["frames"]
        self.layers["channel.ms_per_frame"] = 1e3 * t_channel / frames
        self.layers["quantize.ms_per_frame"] = 1e3 * t_quant / frames
        self.decode_layers(batches)
        self.result_layers(rows)
        # Share of parallel_ber wall not covered by the replayed
        # channel + quantize + decode time of its frames / workers.
        per_frame = (t_channel + t_quant + sum(
            b["decode_s"] for b in batches
        )) / frames
        wall = sum(c["wall_s"] for c in self.calls)
        covered = per_frame * sum(c["frames"] for c in self.calls)
        self.info["sim.overhead_share"] = 1.0 - covered / C.WORKERS / wall


# ======================================================================
class Picks:
    """Which pool frame each release carries, drawn from the seed as
    far as the run needs."""

    def __init__(self, draw) -> None:
        self.draw = draw
        self.arr = draw(1024)

    def __getitem__(self, i: int):
        while i >= len(self.arr):
            self.arr = np.concatenate([self.arr, self.draw(len(self.arr))])
        return self.arr[i]


def digest(bits: np.ndarray) -> bytes:
    """Fingerprint of a decoded codeword (compared, never stored)."""
    return hashlib.blake2b(np.ascontiguousarray(bits).tobytes()).digest()


@dataclass
class Decoded:
    """What the run keeps of one result: the fields the metrics read,
    plus a digest of the decoded bits instead of the bits, so the
    generator's memory does not grow with the frames it has seen."""

    ok: bool
    iteration_budget: int = 0
    iterations: int = 0
    converged: bool = False
    batch_seq: int = -1
    queued_s: float = float("nan")
    latency_s: float = float("nan")
    info_error: bool = False
    bits_digest: Optional[bytes] = None


class Serving(Workload):
    """Open-loop light and heavy phases, then a closed-loop saturation
    phase for the capacity."""

    cfg: dict = {}
    _channel_s = 0.0  # pool generation time in the channel
    _channel_frames = 0
    _loads = 0

    def frame_pool(self, code, channel, size: int):
        """Random codewords through ``channel``; times the channel."""
        from repro.encode import IraEncoder

        info = self.rng.integers(0, 2, size=(size, code.k), dtype=np.uint8)
        codewords = IraEncoder(code).encode_batch(info)
        t0 = clock()
        with self.spans.span("channel"):
            llrs = channel.llrs(codewords)
        self._channel_s += clock() - t0
        self._channel_frames += size
        return np.ascontiguousarray(llrs), codewords

    def pool_size(self) -> int:
        """A set-up-only run needs one frame per worker or MODCOD."""
        return self.cfg["pool_frames"] if self.measuring else 2

    def load(self, name: str, runner, frames: int, **kwargs) -> LoadRun:
        """One load run under a fresh, seeded frame draw."""
        self._loads += 1
        prng = np.random.default_rng([self.seed, 1, self._loads])
        picks = Picks(lambda n: self.pick_frames(prng, n))
        progress(phase=name, frames=frames)
        run = runner(
            self.system,
            lambda i, t, c=None: self.submit(self.frame(picks, i, c), i, t),
            drain_bound_s=max(2.0, 3e-3 * self.cfg["limit_ms"]),
            spans=self.spans,
            keep=lambda run, i, res: self.compact(picks, run, i, res),
            **kwargs,
        )
        run.picks = picks
        progress(phase=name, done=True, attempted=run.released,
                 failed=run.failed, wall_s=round(run.wall_s, 3))
        return run

    def measure(self) -> None:
        cfg, seconds = self.cfg, self.seconds
        warm = {k: v * seconds for k, v in cfg["warm_shares"].items()}
        segments = [
            (label + part, cfg[f"{label}_fps"], length)
            for label in ("light", "heavy")
            for part, length in (
                (".warm", warm[label]), ("", cfg[f"{label}_share"] * seconds)
            )
        ]
        self.open = self.load(
            "open", run_open,
            sum(int(round(r * t)) for _, r, t in segments),
            segments=segments,
        )
        for label in ("light", "heavy"):
            ok = self.open.ok(label)
            summ = stats.latency_summary(
                [r.latency_s for r in ok],
                failed=self.open.released_in(label) - len(ok),
            )
            self.e2e[f"p50_ms.{label}"] = summ["p50_ms"]
            self.e2e[f"tail_ms.{label}"] = summ["tail_ms"]
            self.info[f"tail_q.{label}"] = summ["tail_q"]
            self.info[f"samples.{label}"] = summ["samples"]
        closed_s = cfg["closed_share"] * seconds
        classes = self.closed_classes()
        self.closed = self.load(
            "closed", run_closed, cfg["outstanding"] * classes,
            outstanding=cfg["outstanding"], classes=classes,
            seconds=warm["closed"] + closed_s,
        )
        self.capacity(self.closed.start_s + warm["closed"], closed_s)
        self.windows = [
            (run.start_s, run.end_s) for run in (self.open, self.closed)
        ]
        self.attempted = self.open.released + self.closed.released
        self.failed = self.open.failed + self.closed.failed
        self.e2e["delivered_share"] = 1.0 - self.failed / self.attempted
        self.info["fail_share"] = stats.fail_share(
            self.attempted, self.attempted - self.failed
        )

    def compact(self, picks, run: LoadRun, i: int, res) -> Decoded:
        if not res.ok:
            return Decoded(ok=False)
        mi, p = self.frame(picks, i, run.classes[i] if run.classes else None)
        k = self.k_of((mi, p))
        return Decoded(
            ok=True,
            iteration_budget=res.iteration_budget,
            iterations=res.iterations,
            converged=res.converged,
            batch_seq=res.batch_seq,
            queued_s=res.queued_s,
            latency_s=res.latency_s,
            info_error=bool(np.any(
                res.bits[:k] != self.codeword((mi, p))[:k]
            )),
            bits_digest=digest(res.bits),
        )

    def frame_of(self, run: LoadRun, i: int) -> tuple:
        """``(MODCOD index, pool index)`` of frame ``i`` of ``run``."""
        c = run.classes[i] if run.classes else None
        return self.frame(run.picks, i, c)

    def capacity(self, t0: float, seconds: float) -> None:
        """Saturation throughput at full quality, held to the limit.

        Frames decoded with the full iteration budget per second,
        between the first and the last return in the measured window
        (results come back a batch at a time; timing from return to
        return keeps the batch size out of the rate).  If the closed
        loop's tail exceeds the limit, Little's law scales the rate down
        to the outstanding count that would meet it.
        """
        window = [
            r for r in self.closed.ok() if t0 <= r.poll_s < t0 + seconds
        ]
        first = min(r.poll_s for r in window)
        last = max(r.poll_s for r in window)
        full = sum(
            1 for r in window
            if r.poll_s > first and r.result.iteration_budget == C.ITERATIONS
        )
        tail = stats.latency_summary([r.latency_s for r in window])
        rate = full / (last - first)
        self.e2e["capacity_fps"] = stats.held_capacity(
            rate, tail["tail_ms"], self.cfg["limit_ms"]
        )
        self.info["saturation_fps"] = rate
        self.info["saturation.tail_ms"] = tail["tail_ms"]

    def finish(self, traced: bool) -> None:
        served = [
            (self.frame_of(run, r.index), r.result)
            for run in (self.open, self.closed) for r in run.ok()
        ]
        fixed = [
            (self.frame_of(self.open, r.index), r.result)
            for r in self.open.ok()
        ]
        errors = sum(res.info_error for _key, res in fixed)
        self.info["fer"] = errors / max(1, len(fixed))
        self.layers["fer"] = self.info["fer"]
        self.result_layers([
            (res.iterations, res.converged, (key[0], res.batch_seq))
            for key, res in fixed
        ])
        self.serve_layers([res for _key, res in fixed])
        self.info["eq8_mbps"] = self.eq8_rates()
        if traced:
            self.replay(fixed)
        self.reference_check(served)

    def serve_layers(self, results) -> None:
        self.info["serve.batch_occupancy"] = self.info["frames_per_batch"]
        queued = [1e3 * r.queued_s for r in results]
        self.info["serve.queue_ms.p50"] = _pct(queued, 50)
        self.info["serve.queue_ms.p99"] = _pct(queued, 99)
        self.info["serve.shed_share"] = _mean(
            1.0 if r.iteration_budget < C.ITERATIONS else 0.0
            for r in results
        )
        late = [1e3 * x for x in self.open.late_s]
        self.info["gen.late_ms.p99"] = _pct(late, 99)
        self.info["gen.idle_share"] = self.open.idle_s / self.open.wall_s
        bound = self.cfg.get("max_late_ms")
        if bound is not None:
            self.check(
                "generator released on schedule",
                self.info["gen.late_ms.p99"] <= bound,
                f"release lateness p99 {self.info['gen.late_ms.p99']:.1f} ms"
                f" (bound {bound:.0f} ms)",
            )

    def reference_check(self, served) -> None:
        """Every decoded frame bit-identical to a numpy decode of the
        same pool frame with its own iteration budget."""
        from repro.decode.batch import make_batch_decoder

        wanted = defaultdict(set)
        for key, res in served:
            wanted[(key[0], res.iteration_budget)].add(key[1])
        reference = {}
        for (mi, budget), frames in sorted(wanted.items()):
            dec = make_batch_decoder(
                self.code_of(mi), schedule="quantized-zigzag",
                backend="numpy",
            )
            frames = sorted(frames)
            llrs = self.pool_llrs(mi)[frames]
            for lo in range(0, len(frames), C.LANES):
                out = dec.decode_batch(
                    llrs[lo: lo + C.LANES], max_iterations=budget
                )
                for j, p in enumerate(frames[lo: lo + C.LANES]):
                    reference[(mi, p, budget)] = digest(out.bits[j])
        bad = sum(
            res.bits_digest
            != reference[(key[0], key[1], res.iteration_budget)]
            for key, res in served
        )
        self.check(
            "every decoded frame bit-identical to numpy decode",
            bad == 0 and len(served) > 0,
            f"{len(served) - bad}/{len(served)} frames match "
            f"({len(reference)} reference decodes)",
        )

    def replay(self, fixed) -> None:
        """Re-decode every fixed-rate batch in this process (cnative),
        with each frame's own budget, timing quantize and decode."""
        from repro.decode.batch import make_batch_decoder

        groups = defaultdict(list)
        for key, res in fixed:
            groups[(key[0], res.batch_seq)].append((key, res))
        t0 = clock()
        decoders = {
            mi: make_batch_decoder(
                self.code_of(mi), schedule="quantized-zigzag",
                backend="cnative",
            )
            for mi in sorted({g[0] for g in groups})
        }
        if "decode.build_s" not in self.setup_parts:
            # The workers built their decoders; this process's first build
            # of the same decoder (its lazy compile included) stands in.
            self.layers["decode.build_s"] = clock() - t0
        batches, t_quant, mismatched = [], 0.0, 0
        for (mi, seq), members in sorted(groups.items()):
            dec = decoders[mi]
            llrs = np.stack([self.pool_llrs(mi)[k[1]] for k, _ in members])
            budgets = np.array(
                [res.iteration_budget for _, res in members], dtype=np.int64
            )
            t1 = clock()
            with self.spans.span("quantize", rid=seq):
                ch = dec.quantize_channel(llrs)
            t2 = clock()
            with self.spans.span("decode", rid=seq):
                out = dec.decode_quantized_batch(ch, budgets, True)
            t3 = clock()
            t_quant += t2 - t1
            batches.append({"iters": out.iterations, "decode_s": t3 - t2})
            mismatched += sum(
                digest(out.bits[j]) != res.bits_digest
                for j, (_k, res) in enumerate(members)
            )
        self.check(
            "replayed batches bit-identical to served frames",
            mismatched == 0, f"{len(fixed) - mismatched}/{len(fixed)} frames",
        )
        self.layers["quantize.ms_per_frame"] = 1e3 * t_quant / len(fixed)
        self.decode_layers(batches)

    def channel_layer(self) -> None:
        self.layers["channel.ms_per_frame"] = (
            1e3 * self._channel_s / self._channel_frames
        )

    def api_layers(self, prefix: str, names) -> None:
        """Mean self time per generator call of each API span name."""
        if not self.spans.enabled:
            return
        spans = self.spans.spans
        acc = defaultdict(list)
        for (name, s, e, _p, _r), st in zip(spans, stats.self_times(spans)):
            if any(t0 <= s and e <= t1 for t0, t1 in self.windows):
                acc[name].append(st)
        for name, unit, scale in names:
            self.info[f"{prefix}.{name}_{unit}"] = scale * _mean(acc[name])


# ----------------------------------------------------------------------
class FabricNormal(Serving):
    """Open-loop arrivals into an in-process 2-worker DecodeFabric."""

    name = "fabric-normal"
    cfg = C.FABRIC

    def setup(self) -> None:
        from repro.channel import AwgnChannel
        from repro.codes import build_code
        from repro.serve.api import ServeConfig
        from repro.serve.fabric import DecodeFabric, FabricConfig

        self.system = None
        self.code = self.timed("codes.build", build_code, self.cfg["rate"])
        channel = AwgnChannel(
            C.EBN0_DB, self.code.k / self.code.n,
            seed=int(self.rng.integers(2**63)),
        )
        self.llrs, self.codewords = self.frame_pool(
            self.code, channel, self.pool_size()
        )
        self.mark_baseline(self.llrs, self.codewords)
        self.system = self.timed(
            "workers.ready", self._start, DecodeFabric, FabricConfig,
            ServeConfig,
        )

    def _start(self, DecodeFabric, FabricConfig, ServeConfig):
        fabric = DecodeFabric(
            self.code, FabricConfig(serve=ServeConfig(backend="cnative"))
        )
        # One frame per worker: each dispatch goes to the least-loaded
        # worker, so two single-frame chunks in flight cover both.
        # ``now`` past the linger makes each frame due at once.
        for p in range(C.WORKERS):
            fabric.submit(self.llrs[p])
            fabric.pump(now=fabric.clock() + 1.0)
        fabric.flush()
        got = [r for r in fabric.poll() if r.ok]
        if len(got) != C.WORKERS:
            raise RuntimeError("fabric workers did not all decode")
        return fabric

    def pick_frames(self, prng, frames):
        return prng.integers(0, self.cfg["pool_frames"], size=frames)

    def closed_classes(self) -> int:
        return 1

    def frame(self, picks, i, c=None) -> tuple:
        return (0, int(picks[i]))

    def submit(self, key, i, release_s) -> int:
        with self.spans.span("submit", rid=i):
            return self.system.submit(self.llrs[key[1]], now=release_s)

    def code_of(self, mi):
        return self.code

    def pool_llrs(self, mi):
        return self.llrs

    def codeword(self, key):
        return self.codewords[key[1]]

    def k_of(self, key):
        return self.code.k

    def eq8_rates(self):
        return self.eq8(
            self.code.profile, self.layers["decode.iters_per_frame"]
        )

    def stop(self) -> None:
        if getattr(self, "system", None) is not None:
            self.sample_workers()
            self.system.close()
            self.system = None

    def finish(self, traced: bool) -> None:
        super().finish(traced)
        self.channel_layer()
        n = self.code.n
        # Computed from array sizes: float64 LLRs plus arrival and
        # deadline out, uint8 codeword bits back.
        self.info["transport.bytes_per_frame (computed)"] = 8 * n + 16 + n
        back = [
            1e3 * (r.poll_s - (r.release_s + r.result.latency_s))
            for r in self.open.ok()
        ]
        self.info["fabric.return_ms.p50"] = _pct(back, 50)
        self.info["fabric.return_ms.p99"] = _pct(back, 99)
        self.api_layers("fabric", (
            ("submit", "us", 1e6), ("pump", "ms", 1e3), ("poll", "us", 1e6),
        ))


# ----------------------------------------------------------------------
class AcmMixed(Serving):
    """Open-loop mixed-MODCOD traffic through an inline
    MultiModcodService, with the link adapter observing every frame."""

    name = "acm-mixed"
    cfg = C.ACM

    def setup(self) -> None:
        from repro.acm import (
            AcmConfig, LinkAdapter, MultiModcodService, build_modcod_code,
            default_scaled_table, make_channel,
        )
        from repro.serve.api import ServeConfig

        self.system = None
        table = default_scaled_table()
        self.entries = list(table.entries)
        P = self.cfg["parallelism"]
        self.codes = [
            self.timed("codes.build", build_modcod_code, e.modcod,
                       parallelism=P)
            for e in self.entries
        ]
        self.pools = []
        for e, code in zip(self.entries, self.codes):
            channel = make_channel(
                e.modcod, esn0_db=e.esn0_db + self.cfg["margin_db"],
                seed=int(self.rng.integers(2**63)),
            )
            self.pools.append(
                self.frame_pool(code, channel, self.pool_size())
            )
        self.mark_baseline(*(a for pool in self.pools for a in pool))
        service = MultiModcodService(
            ServeConfig(backend="cnative"), parallelism=P
        )
        self.system = service
        for e in self.entries:
            self.timed("decode.build", service.service_for, e.modcod)
        self.timed("workers.ready", self._first_results)
        self.adapter = LinkAdapter(AcmConfig(table=table))

    def _first_results(self) -> None:
        for e, (llrs, _cw) in zip(self.entries, self.pools):
            self.system.submit(llrs[0], e.modcod)
        self.system.flush()
        got = [r for r in self.system.poll() if r.ok]
        if len(got) != len(self.entries):
            raise RuntimeError("not every MODCOD child decoded")

    def pick_frames(self, prng, frames):
        return np.stack([
            prng.integers(0, len(self.entries), size=frames),
            prng.integers(0, self.cfg["pool_frames"], size=frames),
        ], axis=1)

    def closed_classes(self) -> int:
        """One closed-loop class per MODCOD: each child keeps the same
        number of frames, so random routing cannot starve one of them."""
        return len(self.entries)

    def frame(self, picks, i, c=None) -> tuple:
        mi, p = picks[i]
        return (int(mi if c is None else c), int(p))

    def submit(self, key, i, release_s) -> int:
        llrs = self.pools[key[0]][0][key[1]]
        with self.spans.span("submit", rid=i):
            rid = self.system.submit(
                llrs, self.entries[key[0]].modcod, now=release_s
            )
        with self.spans.span("observe", rid=i):
            self.adapter.observe(llrs=llrs)
        return rid

    def code_of(self, mi):
        return self.codes[mi]

    def pool_llrs(self, mi):
        return self.pools[mi][0]

    def codeword(self, key):
        return self.pools[key[0]][1][key[1]]

    def k_of(self, key):
        return self.codes[key[0]].k

    def eq8_rates(self):
        """Eq. 7/8 rate of the mix: per-MODCOD rates weighted by the
        share of frames each carried."""
        iters = self.layers["decode.iters_per_frame"]
        counts = np.bincount(
            [self.frame_of(self.open, r.index)[0] for r in self.open.ok()],
            minlength=len(self.entries),
        )
        rates = [self.eq8(code.profile, iters) for code in self.codes]
        return float(np.dot(counts, rates) / counts.sum())

    def stop(self) -> None:
        if getattr(self, "system", None) is not None:
            self.system.close()
            self.system = None

    def finish(self, traced: bool) -> None:
        super().finish(traced)
        self.channel_layer()
        self.api_layers("acm", (
            ("submit", "us", 1e6), ("pump", "ms", 1e3),
            ("poll", "us", 1e6), ("observe", "us", 1e6),
        ))


WORKLOADS = {
    cls.name: cls for cls in (McNormal, FabricNormal, AcmMixed)
}
