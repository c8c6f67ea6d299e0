"""CI SLO gate: compare fresh benchmark output against committed baselines.

Usage (what the CI job runs after a smoke-mode bench pass)::

    python benchmarks/check_regression.py \
        --fresh /tmp/bench-smoke --baseline benchmarks \
        --max-regress-pct 25 --report /tmp/regression_report.json

Every gate names one metric inside one ``BENCH_<name>.json`` payload by
dotted path (``sweep.2.latency_p99_ms`` walks lists by index), a
direction (higher/lower is better), and a comparability class:

* ``mode_matched`` gates compare only when both payloads carry the same
  ``smoke`` flag — absolute throughput/latency numbers from a 0.35 s
  smoke run on a shared CI runner are not comparable against a
  committed full run, and pretending otherwise makes the gate cry wolf.
* ``any_mode`` gates are dimensionless ratios (batching speedup,
  telemetry overhead) that the smoke path measures the same way the
  full path does; these are the gates that actually bite in CI.
* ``absolute`` gates enforce a fixed ceiling/floor regardless of the
  baseline (e.g. disabled-telemetry overhead stays under its threshold,
  the calm-service bit-identity bool stays true).

Exit status is 0 when every applicable gate passes, 1 on any breach,
2 on operator error (missing files etc.).  The module is importable —
``check(fresh, baseline, ...)`` returns the verdict rows so the test
suite can prove the gate trips on a synthetic regression.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Gate:
    """One guarded metric in one benchmark payload."""

    bench: str  #: BENCH_<name>.json stem, e.g. "serve_latency".
    path: str  #: Dotted path into the payload ("sweep.0.latency_p99_ms").
    #: "higher" | "lower": which direction is better.
    better: str = "higher"
    #: "mode_matched" | "any_mode" | "absolute" (see module docstring).
    compare: str = "mode_matched"
    #: Absolute bound for ``compare="absolute"`` gates (in the metric's
    #: own units; direction still comes from ``better``).
    bound: Optional[float] = None
    #: Per-gate override of the relative tolerance (percent).
    max_regress_pct: Optional[float] = None


#: The shipped gate table.  Ratios and invariants gate every run; the
#: absolute throughput/latency numbers gate only full-vs-full runs.
GATES: List[Gate] = [
    # serve_latency: the serving SLO surface.
    Gate("serve_latency", "batching_speedup_vs_serial",
         better="higher", compare="any_mode"),
    Gate("serve_latency", "calm_service_bit_identical",
         better="higher", compare="absolute", bound=1.0),
    Gate("serve_latency", "best_served_fps", better="higher"),
    Gate("serve_latency", "offline_batch_capacity_fps", better="higher"),
    Gate("serve_latency", "serial_single_frame_fps", better="higher"),
    Gate("serve_latency", "sweep.0.latency_p99_ms", better="lower"),
    Gate("serve_latency", "sweep.1.latency_p99_ms", better="lower"),
    # distributed_serve: the sharded fabric must stay invisible in the
    # decoded bits and lossless under worker kill; throughput numbers
    # gate full-vs-full only (a 1-CPU runner cannot speak to scaling).
    Gate("distributed_serve", "fabric_bit_identical",
         better="higher", compare="absolute", bound=1.0),
    Gate("distributed_serve", "accounting_balanced",
         better="higher", compare="absolute", bound=1.0),
    Gate("distributed_serve", "chaos.lossless",
         better="higher", compare="absolute", bound=1.0),
    Gate("distributed_serve", "served_fps_1_worker", better="higher"),
    Gate("distributed_serve", "served_fps_max_workers", better="higher"),
    Gate("distributed_serve", "speedup_at_max_workers", better="higher"),
    # quantized_scaling: the two array backends' whole-batch decode
    # rates; the smoke code is a different workload, so full-vs-full.
    Gate("quantized_scaling", "throughput.backends.numpy.frames_per_sec",
         better="higher"),
    Gate("quantized_scaling",
         "throughput.backends.cnative.frames_per_sec", better="higher"),
    # pipeline_overlap: the pipelined pump must stay invisible in the
    # decoded bits and exact in its books at every depth (absolute,
    # every run); the overlap speedup and absolute rates are only
    # meaningful full-vs-full on comparable hosts.
    Gate("pipeline_overlap", "depth_bit_identical",
         better="higher", compare="absolute", bound=1.0),
    Gate("pipeline_overlap", "accounting_balanced",
         better="higher", compare="absolute", bound=1.0),
    Gate("pipeline_overlap", "overlap_speedup", better="higher"),
    Gate("pipeline_overlap", "served_fps_depth1", better="higher"),
    Gate("pipeline_overlap", "served_fps_top_depth", better="higher"),
    # scenario_matrix: the ACM control loop must track the genie
    # adapter and the mixed-MODCOD plane must stay invisible in the
    # decoded bits (absolute, every run); mixed throughput and the
    # AWGN waterfall position gate full-vs-full runs.
    Gate("scenario_matrix", "acm.within_one_step_rate",
         better="higher", compare="absolute", bound=0.95),
    Gate("scenario_matrix", "acm.est_rmse_db",
         better="lower", compare="absolute", bound=0.75),
    Gate("scenario_matrix", "mixed.bit_identical",
         better="higher", compare="absolute", bound=1.0),
    Gate("scenario_matrix", "mixed.served_fps", better="higher"),
    Gate("scenario_matrix", "matrix.0.waterfall_ebn0_db",
         better="lower"),
    # obs_overhead: telemetry must stay (nearly) free when disabled.
    Gate("obs_overhead", "disabled_overhead_pct",
         better="lower", compare="absolute", bound=5.0),
    Gate("obs_overhead", "serve_disabled_overhead_pct",
         better="lower", compare="absolute", bound=5.0),
    Gate("obs_overhead", "traced_ratio", better="lower",
         compare="any_mode", max_regress_pct=50.0),
]


def lookup(payload: dict, dotted: str):
    """Walk a dotted path through dicts and lists; None when absent."""
    node = payload
    for part in dotted.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                return None
        elif isinstance(node, dict):
            node = node.get(part)
        else:
            return None
        if node is None:
            return None
    return node


def _as_number(value) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)) and not (
        isinstance(value, float) and math.isnan(value)
    ):
        return float(value)
    return None


def _evaluate(gate: Gate, fresh: dict, baseline: dict,
              max_regress_pct: float) -> dict:
    """One gate verdict row (status: pass/fail/skipped + why)."""
    row = {
        "bench": gate.bench,
        "path": gate.path,
        "better": gate.better,
        "compare": gate.compare,
        "status": "pass",
    }
    fresh_v = _as_number(lookup(fresh, gate.path))
    if fresh_v is None:
        row.update(status="fail",
                   why="metric missing from fresh payload")
        return row
    row["fresh"] = fresh_v

    if gate.compare == "absolute":
        row["bound"] = gate.bound
        breached = (
            fresh_v > gate.bound if gate.better == "lower"
            else fresh_v < gate.bound
        )
        if breached:
            row.update(
                status="fail",
                why=(f"{fresh_v:g} breaches the absolute "
                     f"{'ceiling' if gate.better == 'lower' else 'floor'}"
                     f" {gate.bound:g}"),
            )
        return row

    base_v = _as_number(lookup(baseline, gate.path))
    if base_v is None:
        row.update(status="skipped", why="metric missing from baseline")
        return row
    row["baseline"] = base_v
    if gate.compare == "mode_matched" and (
        bool(fresh.get("smoke")) != bool(baseline.get("smoke"))
    ):
        row.update(
            status="skipped",
            why="smoke flags differ — absolute numbers not comparable",
        )
        return row

    tolerance = (
        gate.max_regress_pct
        if gate.max_regress_pct is not None else max_regress_pct
    )
    row["max_regress_pct"] = tolerance
    if base_v == 0:
        regress_pct = 0.0 if fresh_v == 0 else float("inf")
    elif gate.better == "higher":
        regress_pct = (base_v - fresh_v) / abs(base_v) * 100.0
    else:
        regress_pct = (fresh_v - base_v) / abs(base_v) * 100.0
    row["regress_pct"] = round(regress_pct, 3)
    if regress_pct > tolerance:
        row.update(
            status="fail",
            why=(f"{gate.path} regressed {regress_pct:.1f}% "
                 f"(fresh {fresh_v:g} vs baseline {base_v:g}, "
                 f"tolerance {tolerance:g}%)"),
        )
    return row


def check(
    fresh: dict,
    baseline: dict,
    *,
    bench: str,
    gates: Optional[List[Gate]] = None,
    max_regress_pct: float = 25.0,
) -> List[dict]:
    """Evaluate every gate of one benchmark; returns verdict rows."""
    gates = GATES if gates is None else gates
    return [
        _evaluate(g, fresh, baseline, max_regress_pct)
        for g in gates if g.bench == bench
    ]


def check_dirs(
    fresh_dir: str,
    baseline_dir: str,
    *,
    gates: Optional[List[Gate]] = None,
    max_regress_pct: float = 25.0,
) -> dict:
    """Compare every gated benchmark present in both directories.

    A gated benchmark missing from ``fresh_dir`` is reported as
    skipped (the smoke pass may not run every bench); missing from
    ``baseline_dir`` means there is nothing to hold the line against,
    also skipped.  Returns ``{"rows": [...], "failures": int,
    "compared": int}``.
    """
    gates = GATES if gates is None else gates
    rows: List[dict] = []
    for bench in sorted({g.bench for g in gates}):
        name = f"BENCH_{bench}.json"
        fresh_path = os.path.join(fresh_dir, name)
        base_path = os.path.join(baseline_dir, name)
        if not os.path.exists(fresh_path):
            rows.append({"bench": bench, "status": "skipped",
                         "why": f"{name} not produced by this run"})
            continue
        if not os.path.exists(base_path):
            rows.append({"bench": bench, "status": "skipped",
                         "why": f"no committed baseline {name}"})
            continue
        with open(fresh_path) as handle:
            fresh = json.load(handle)
        with open(base_path) as handle:
            baseline = json.load(handle)
        rows.extend(check(fresh, baseline, bench=bench, gates=gates,
                          max_regress_pct=max_regress_pct))
    failures = sum(1 for r in rows if r["status"] == "fail")
    compared = sum(1 for r in rows if r["status"] == "pass") + failures
    return {"rows": rows, "failures": failures, "compared": compared}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate fresh benchmark output against committed "
                    "baselines (see module docstring).",
    )
    parser.add_argument("--fresh", required=True,
                        help="directory with freshly produced "
                             "BENCH_*.json files")
    parser.add_argument("--baseline", default="benchmarks",
                        help="directory with committed baselines")
    parser.add_argument("--max-regress-pct", type=float, default=25.0,
                        help="relative tolerance for comparison gates")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the verdict rows as JSON")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.fresh):
        print(f"error: fresh dir {args.fresh!r} does not exist",
              file=sys.stderr)
        return 2
    if not os.path.isdir(args.baseline):
        print(f"error: baseline dir {args.baseline!r} does not exist",
              file=sys.stderr)
        return 2

    verdict = check_dirs(
        args.fresh, args.baseline, max_regress_pct=args.max_regress_pct
    )
    width = max(
        (len(f"{r['bench']}:{r.get('path', '-')}") for r in verdict["rows"]),
        default=20,
    )
    for row in verdict["rows"]:
        label = f"{row['bench']}:{row.get('path', '-')}"
        detail = row.get("why", "")
        if row["status"] == "pass" and "regress_pct" in row:
            detail = (f"regress {row['regress_pct']:+.1f}% "
                      f"(tolerance {row['max_regress_pct']:g}%)")
        elif row["status"] == "pass" and "bound" in row:
            detail = f"{row['fresh']:g} within bound {row['bound']:g}"
        print(f"  {row['status']:>7}  {label:<{width}}  {detail}")
    print(f"{verdict['compared']} gate(s) compared, "
          f"{verdict['failures']} failure(s)")
    if args.report is not None:
        with open(args.report, "w") as handle:
            json.dump(verdict, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report}")
    return 1 if verdict["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
