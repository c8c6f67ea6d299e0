"""ACM closed-loop trace and the scenario-matrix harness.

Two harnesses that exercise the full receiver chain end to end:

* :func:`run_acm_trace` ramps the true Es/N0 across a threshold
  table's range and runs *two* link adapters on the identical trace —
  one estimating SNR from the frames' own LLRs, one fed the truth
  (oracle).  Every frame decodes through the multi-MODCOD serve plane
  under the estimator's choice, so the result reports both tracking
  quality (estimator within one table step of the oracle) and link
  quality (frame errors through the serve path).

* :func:`run_matrix` runs a grid of scenario cells — MODCOD × channel
  model — through the Monte-Carlo engines (one waterfall row per
  cell) *and* the live serve/loadgen path (one capacity row per
  cell), the reproducibility bar the committed experiment tables hold
  everything else to.

Plus :func:`mixed_serve_check`, the acceptance probe: a mixed-MODCOD
stream through one :class:`~repro.acm.service.MultiModcodService`
must decode bit-identically to dedicated single-config services.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..encode.encoder import IraEncoder
from ..obs.registry import MetricsRegistry
from ..serve.api import ServeConfig
from ..serve.engine import DecodeService
from ..serve.loadgen import LoadgenResult, make_frame_pool, run_loadgen
from ..sim.sweep import SweepPoint, parallel_snr_sweep
from .controller import MODE_ESTIMATOR, MODE_ORACLE, AcmConfig, LinkAdapter
from .modcod import ModCod, build_modcod_code, channel_spec, make_channel
from .service import MultiModcodService
from .thresholds import ThresholdTable


# ----------------------------------------------------------------------
# ACM ramp trace
# ----------------------------------------------------------------------
@dataclass
class AcmTraceResult:
    """Outcome of one :func:`run_acm_trace` run."""

    frames: int
    #: Fraction of frames where |estimator index − oracle index| ≤ 1.
    within_one_rate: float
    #: RMS Es/N0 estimation error (dB) after EWMA warm-up.
    est_rmse_db: float
    est_switches_up: int
    est_switches_down: int
    oracle_switches_up: int
    oracle_switches_down: int
    #: Frames whose decoded codeword differed from the transmitted one.
    frame_errors: int
    #: Frames decoded and compared (completed through the serve plane).
    checked: int
    #: Per-frame traces (true Es/N0, estimate, chosen indices).
    true_esn0_db: List[float] = field(default_factory=list)
    est_esn0_db: List[float] = field(default_factory=list)
    est_indices: List[int] = field(default_factory=list)
    oracle_indices: List[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "frames": self.frames,
            "within_one_rate": round(self.within_one_rate, 4),
            "est_rmse_db": round(self.est_rmse_db, 4),
            "est_switches_up": self.est_switches_up,
            "est_switches_down": self.est_switches_down,
            "oracle_switches_up": self.oracle_switches_up,
            "oracle_switches_down": self.oracle_switches_down,
            "frame_errors": self.frame_errors,
            "checked": self.checked,
        }


def run_acm_trace(
    table: ThresholdTable,
    *,
    frames: int = 120,
    esn0_start_db: Optional[float] = None,
    esn0_stop_db: Optional[float] = None,
    parallelism: int = 36,
    channel: str = "awgn",
    hysteresis_db: float = 0.3,
    dwell_frames: int = 4,
    ewma_alpha: float = 0.25,
    serve_config: Optional[ServeConfig] = None,
    seed: int = 2005,
    registry: Optional[MetricsRegistry] = None,
) -> AcmTraceResult:
    """Ramp the true Es/N0 and track estimator vs oracle adaptation.

    The ramp runs linearly from ``esn0_start_db`` to ``esn0_stop_db``
    (defaults: 1.5 dB below the table floor to 1.5 dB above the top
    threshold — every boundary gets crossed).  Each frame is encoded
    under the *estimator* adapter's current MODCOD, passed through the
    true channel at the ramp's operating point, submitted to a
    :class:`~repro.acm.service.MultiModcodService`, and fed to both
    adapters.  Deterministic for a ``(table, frames, ramp, seed)``
    tuple — the serve plane runs on a virtual frame-indexed clock.
    """
    if frames < 2:
        raise ValueError("need at least two frames for a ramp")
    if esn0_start_db is None:
        esn0_start_db = table.entries[0].esn0_db - 1.5
    if esn0_stop_db is None:
        esn0_stop_db = table.entries[-1].esn0_db + 1.5
    serve_config = (
        serve_config if serve_config is not None else ServeConfig()
    )

    est = LinkAdapter(
        AcmConfig(
            table,
            mode=MODE_ESTIMATOR,
            hysteresis_db=hysteresis_db,
            dwell_frames=dwell_frames,
            ewma_alpha=ewma_alpha,
        ),
        registry=registry,
    )
    oracle = LinkAdapter(
        AcmConfig(
            table,
            mode=MODE_ORACLE,
            hysteresis_db=hysteresis_db,
            dwell_frames=dwell_frames,
        ),
        registry=MetricsRegistry(enabled=False),
    )

    ramp = np.linspace(esn0_start_db, esn0_stop_db, frames)
    rng = np.random.default_rng(seed)
    encoders: Dict[str, IraEncoder] = {}
    truth: Dict[int, np.ndarray] = {}
    result = AcmTraceResult(
        frames=frames,
        within_one_rate=0.0,
        est_rmse_db=0.0,
        est_switches_up=0,
        est_switches_down=0,
        oracle_switches_up=0,
        oracle_switches_down=0,
        frame_errors=0,
        checked=0,
    )

    with MultiModcodService(
        serve_config, parallelism=parallelism
    ) as service:
        for i, true_esn0 in enumerate(ramp):
            modcod = est.current
            code = build_modcod_code(modcod, parallelism=parallelism)
            encoder = encoders.get(modcod.label)
            if encoder is None:
                encoder = encoders[modcod.label] = IraEncoder(code)
            info = rng.integers(0, 2, size=code.k, dtype=np.int8)
            codeword = encoder.encode(info)
            ch = make_channel(
                modcod,
                esn0_db=float(true_esn0),
                channel=channel,
                seed=np.random.SeedSequence((seed, i)),
            )
            llrs = ch.llrs(codeword)
            gid = service.submit(llrs, modcod, now=float(i))
            truth[gid] = codeword

            est.observe(llrs=llrs)
            oracle.observe(esn0_db=float(true_esn0))
            result.true_esn0_db.append(float(true_esn0))
            result.est_esn0_db.append(float(est.esn0_db))
            result.est_indices.append(est.current_index)
            result.oracle_indices.append(oracle.current_index)
            service.pump(now=float(i))
        service.flush(now=float(frames))
        for decoded in service.poll():
            if not decoded.ok:
                continue
            result.checked += 1
            if not np.array_equal(decoded.bits, truth[decoded.request_id]):
                result.frame_errors += 1

    within = sum(
        1
        for e, o in zip(result.est_indices, result.oracle_indices)
        if abs(e - o) <= 1
    )
    result.within_one_rate = within / frames
    # RMSE after EWMA warm-up — the first tenth of the trace is the
    # estimator converging from its first sample.
    skip = max(1, frames // 10)
    errs = np.asarray(result.est_esn0_db[skip:]) - np.asarray(
        result.true_esn0_db[skip:]
    )
    result.est_rmse_db = float(np.sqrt(np.mean(np.square(errs))))
    result.est_switches_up = est.switches_up
    result.est_switches_down = est.switches_down
    result.oracle_switches_up = oracle.switches_up
    result.oracle_switches_down = oracle.switches_down
    return result


# ----------------------------------------------------------------------
# Mixed-MODCOD bit-identity probe
# ----------------------------------------------------------------------
def mixed_serve_check(
    plan: Sequence[Tuple[ModCod, float]],
    *,
    frames_per_modcod: int = 8,
    parallelism: int = 36,
    serve_config: Optional[ServeConfig] = None,
    seed: int = 2005,
) -> dict:
    """Mixed-MODCOD serving vs dedicated per-config services.

    ``plan`` lists ``(modcod, esn0_db)`` operating points.  The same
    frames are decoded twice: interleaved round-robin through one
    :class:`~repro.acm.service.MultiModcodService`, and per-MODCOD
    through dedicated single-config :class:`DecodeService` instances
    with the identical config.  Since batch decode is bit-identical
    per frame regardless of batch composition, the two must agree bit
    for bit — the returned dict reports ``bit_identical`` plus the
    mixed plane's flush-mode throughput.
    """
    serve_config = (
        serve_config if serve_config is not None else ServeConfig()
    )
    rng = np.random.default_rng(seed)
    frames: Dict[str, List[np.ndarray]] = {}
    modcod_of: Dict[str, ModCod] = {}
    for k, (modcod, esn0_db) in enumerate(plan):
        code = build_modcod_code(modcod, parallelism=parallelism)
        encoder = IraEncoder(code)
        info = rng.integers(
            0, 2, size=(frames_per_modcod, code.k), dtype=np.int8
        )
        channel = make_channel(
            modcod,
            esn0_db=esn0_db,
            seed=np.random.SeedSequence((seed, k)),
        )
        frames[modcod.label] = list(
            channel.llrs(encoder.encode_batch(info))
        )
        modcod_of[modcod.label] = modcod

    # Mixed plane: round-robin interleave on a virtual clock.
    mixed: Dict[Tuple[str, int], object] = {}
    order: Dict[int, Tuple[str, int]] = {}
    start = time.perf_counter()
    with MultiModcodService(
        serve_config, parallelism=parallelism
    ) as service:
        for j in range(frames_per_modcod):
            for label, pool in frames.items():
                gid = service.submit(
                    pool[j], modcod_of[label], now=float(j)
                )
                order[gid] = (label, j)
        service.flush(now=float(frames_per_modcod))
        for decoded in service.poll():
            mixed[order[decoded.request_id]] = decoded
    elapsed = time.perf_counter() - start

    # Dedicated planes: one single-config service per MODCOD.
    identical = True
    for label, pool in frames.items():
        code = build_modcod_code(
            modcod_of[label], parallelism=parallelism
        )
        with DecodeService(
            code, serve_config, registry=MetricsRegistry(enabled=False)
        ) as dedicated:
            local: Dict[int, int] = {}
            for j, llrs in enumerate(pool):
                local[dedicated.submit(llrs, now=float(j))] = j
            dedicated.flush(float(frames_per_modcod))
            for decoded in dedicated.poll():
                twin = mixed.get((label, local[decoded.request_id]))
                if (
                    twin is None
                    or twin.status != decoded.status
                    or not np.array_equal(twin.bits, decoded.bits)
                ):
                    identical = False

    total = frames_per_modcod * len(plan)
    return {
        "bit_identical": bool(identical and len(mixed) == total),
        "frames": total,
        "modcods": sorted(frames),
        "served_fps": total / elapsed if elapsed > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# Scenario matrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioCell:
    """One matrix cell: a MODCOD under a channel model."""

    modcod: ModCod
    channel: str = "awgn"

    @property
    def label(self) -> str:
        return f"{self.modcod.label}:{self.channel}"


@dataclass
class ScenarioRow:
    """One cell's measurements: waterfall leg + serve leg."""

    cell: ScenarioCell
    #: The Monte-Carlo waterfall samples for this cell.
    points: List[SweepPoint]
    #: Interpolated Eb/N0 of the target-FER crossing (None if the
    #: grid never crossed it).
    waterfall_ebn0_db: Optional[float]
    #: Loadgen outcome at the serve operating point (None when the
    #: serve leg was skipped).
    serve: Optional[LoadgenResult] = None
    serve_ebn0_db: Optional[float] = None

    def to_dict(self) -> dict:
        row = {
            "modcod": self.cell.modcod.label,
            "channel": self.cell.channel,
            "spectral_efficiency": round(
                self.cell.modcod.spectral_efficiency, 4
            ),
            "waterfall_ebn0_db": (
                None
                if self.waterfall_ebn0_db is None
                else round(self.waterfall_ebn0_db, 3)
            ),
            "points": [
                {
                    "ebn0_db": p.value,
                    "ber": p.result.ber,
                    "fer": p.result.fer,
                }
                for p in self.points
            ],
        }
        if self.serve is not None:
            row["serve"] = {
                "ebn0_db": round(self.serve_ebn0_db, 3),
                "offered_fps": self.serve.offered_fps,
                "served_fps": round(self.serve.report.frames_per_s, 1),
                "p99_ms": round(self.serve.report.latency_p99_ms, 3),
                "frame_errors": self.serve.frame_errors,
                "checked": self.serve.checked,
            }
        return row


def _crossing_db(
    points: Sequence[SweepPoint], target_fer: float
) -> Optional[float]:
    """Linear-interpolated Eb/N0 where FER falls through ``target_fer``."""
    for prev, cur in zip(points, points[1:]):
        hi, lo = prev.result.fer, cur.result.fer
        if hi > target_fer >= lo:
            if hi == lo:
                return float(cur.value)
            frac = (hi - target_fer) / (hi - lo)
            return float(prev.value + frac * (cur.value - prev.value))
    if points and points[0].result.fer <= target_fer:
        return float(points[0].value)  # already below at the grid floor
    return None


@dataclass
class ScenarioMatrixResult:
    """All rows of one :func:`run_matrix` run."""

    rows: List[ScenarioRow]

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    def to_markdown(self) -> str:
        """The EXPERIMENTS.md table: one waterfall + capacity row per
        cell."""
        lines = [
            "| MODCOD | channel | SE (bit/sym) | waterfall Eb/N0 (dB)"
            " | serve Eb/N0 (dB) | offered (fps) | served (fps)"
            " | p99 (ms) | serve FER |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for row in self.rows:
            waterfall = (
                "—"
                if row.waterfall_ebn0_db is None
                else f"{row.waterfall_ebn0_db:.2f}"
            )
            if row.serve is None:
                serve_cols = ["—"] * 5
            else:
                checked = max(1, row.serve.checked)
                serve_cols = [
                    f"{row.serve_ebn0_db:.2f}",
                    f"{row.serve.offered_fps:.0f}",
                    f"{row.serve.report.frames_per_s:.0f}",
                    f"{row.serve.report.latency_p99_ms:.2f}",
                    f"{row.serve.frame_errors / checked:.3f}",
                ]
            lines.append(
                "| "
                + " | ".join(
                    [
                        row.cell.modcod.label,
                        row.cell.channel,
                        f"{row.cell.modcod.spectral_efficiency:.3f}",
                        waterfall,
                        *serve_cols,
                    ]
                )
                + " |"
            )
        return "\n".join(lines)


def run_matrix(
    cells: Sequence[ScenarioCell],
    *,
    ebn0_points_db: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0),
    grids: Optional[Dict[str, Sequence[float]]] = None,
    parallelism: int = 36,
    mc_frames: int = 64,
    max_iterations: int = 30,
    target_fer: float = 0.5,
    workers: Optional[int] = None,
    serve: bool = True,
    serve_margin_db: float = 1.0,
    offered_fps: float = 200.0,
    duration_s: float = 0.25,
    serve_config: Optional[ServeConfig] = None,
    seed: int = 2005,
) -> ScenarioMatrixResult:
    """Run every cell through Monte-Carlo *and* the live serve path.

    Waterfall leg: :func:`~repro.sim.sweep.parallel_snr_sweep` over the
    cell's Eb/N0 grid (``grids[cell.label]`` when given, else
    ``ebn0_points_db`` — higher-order cells need shifted grids), with
    the cell's channel spec shipped to the worker processes.  Serve
    leg: a loadgen burst at ``serve_margin_db`` above the measured
    waterfall (skipped when the grid never crossed ``target_fer`` —
    no honest operating point exists on it).
    """
    serve_config = (
        serve_config if serve_config is not None else ServeConfig()
    )
    rows: List[ScenarioRow] = []
    for index, cell in enumerate(cells):
        code = build_modcod_code(cell.modcod, parallelism=parallelism)
        grid = list(
            (grids or {}).get(cell.label, ebn0_points_db)
        )
        points = parallel_snr_sweep(
            code,
            grid,
            max_frames=mc_frames,
            max_iterations=max_iterations,
            seed=seed + index,
            workers=workers,
            channel=channel_spec(cell.modcod, cell.channel),
            # The committed matrix was measured on float zigzag; it moves
            # to the served decoder together with its check-node rule.
            schedule="zigzag",
        )
        waterfall = _crossing_db(points, target_fer)
        row = ScenarioRow(
            cell=cell, points=points, waterfall_ebn0_db=waterfall
        )
        if serve and waterfall is not None:
            serve_ebn0 = waterfall + serve_margin_db
            channel = make_channel(
                cell.modcod,
                ebn0_db=serve_ebn0,
                channel=cell.channel,
                seed=np.random.SeedSequence((seed, index, 1)),
            )
            pool = make_frame_pool(
                code,
                ebn0_db=serve_ebn0,
                seed=seed + index,
                channel=channel,
            )
            row.serve = run_loadgen(
                code,
                serve_config,
                offered_fps=offered_fps,
                duration_s=duration_s,
                frame_pool=pool,
                seed=seed + index,
            )
            row.serve_ebn0_db = serve_ebn0
        rows.append(row)
    return ScenarioMatrixResult(rows=rows)
