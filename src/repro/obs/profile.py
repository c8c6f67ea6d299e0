"""Per-stage pipeline profiles derived from registry snapshots.

The serve engine times every stage of its hot path under
``serve.stage.*`` timers (``enqueue`` → ``batch_form`` → ``llr_prep``
→ ``dispatch`` → ``decode`` → ``collect`` → ``complete``, with ``pump``
as the enclosing span — see ``docs/observability.md``).  This module
turns those timers back into the analysis artifacts:

* :func:`stage_breakdown` — per-stage busy totals plus each stage's
  share of the enclosing pump wall time.  On a sequential pump the
  stages are disjoint slices of the pump, so a synthetic ``other``
  entry carries the residual and the shares sum to 100%.  A *pipelined*
  pump (``pipeline_depth > 1``) overlaps stages — the decode stage's
  busy time runs concurrently with prep/completion of later batches —
  so summed busy time legitimately exceeds the pump wall; the
  breakdown then drops the (meaningless) residual and reports the
  overlap factor ``busy / wall`` on the ``pump`` row instead,
* :func:`overlap_potential` — the pipelining headroom a breakdown
  implies (serial busy sum vs the bottleneck stage),
* :func:`format_profile` — the ASCII time/flame rendering behind
  ``repro obs profile``.

The QC-LDPCC pipeline paper (PAPERS.md) finds its 2 Gb/s by locating
the slowest pipeline stage; this is the software-serve analogue.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Timer-name prefix of the serve pipeline stage spans.
STAGE_PREFIX = "serve.stage."
#: The enclosing pump span every in-pump stage is a fraction of.
PUMP_STAGE = "pump"
#: Stages recorded outside the pump (shares are vs pump but unbounded).
NON_PUMP_STAGES = ("enqueue",)
#: Canonical hot-path order for display.
STAGE_ORDER = (
    "enqueue", "expire", "batch_form", "llr_prep", "dispatch",
    "decode", "collect", "complete",
)
#: Stages a pipelined pump can overlap with the pooled decode (the
#: inputs to :func:`overlap_potential`'s serial-time estimate).
OVERLAPPABLE_STAGES = (
    "batch_form", "llr_prep", "dispatch", "decode", "collect",
    "complete",
)


def _prefixed_timers(snapshot: dict, prefix: str) -> Dict[str, dict]:
    return {
        name[len(prefix):]: timer
        for name, timer in snapshot.get("timers", {}).items()
        if name.startswith(prefix)
    }


def _stage_sort_key(name: str):
    try:
        return (0, STAGE_ORDER.index(name))
    except ValueError:
        return (1, name)


def stage_breakdown(snapshot: dict) -> Dict[str, dict]:
    """Per-stage ``{total_s, count, mean_us, of_pump}`` from a snapshot.

    Each row's ``total_s`` is the stage's *busy* time (sum of its
    spans); ``of_pump`` is that busy time as a fraction of the total
    pump *wall* time (NaN without a pump span).

    Sequential pump (in-pump busy ≤ pump wall — always true at
    ``pipeline_depth=1``): in-pump stages that do not cover the whole
    pump leave a synthetic ``other`` entry carrying the residual, so
    the in-pump fractions sum to 1.0 exactly — byte-identical to what
    this function has always produced.

    Pipelined pump (in-pump busy > pump wall): the stages overlap, so
    a disjoint-slice residual is meaningless (it would be negative).
    No ``other`` row is emitted; instead the ``pump`` row carries an
    ``overlap`` key — in-pump busy over pump wall, ≥ 1.0, the measured
    stage-concurrency factor — and the per-stage ``of_pump`` values
    are occupancies that may legitimately sum past 1.0.

    ``enqueue`` happens on the submit path outside the pump and is
    excluded from both accountings.  Empty dict when the snapshot has
    no stage spans.
    """
    timers = _prefixed_timers(snapshot, STAGE_PREFIX)
    if not timers:
        return {}
    pump_ns = timers.get(PUMP_STAGE, {}).get("total_ns", 0)
    out: Dict[str, dict] = {}
    in_pump_ns = 0
    for name in sorted(timers, key=_stage_sort_key):
        if name == PUMP_STAGE:
            continue
        timer = timers[name]
        total_ns = timer["total_ns"]
        if name not in NON_PUMP_STAGES:
            in_pump_ns += total_ns
        out[name] = {
            "total_s": total_ns / 1e9,
            "count": timer["count"],
            "mean_us": (
                total_ns / timer["count"] / 1e3
                if timer["count"] else float("nan")
            ),
            "of_pump": (
                total_ns / pump_ns if pump_ns > 0 else float("nan")
            ),
        }
    if pump_ns > 0:
        if in_pump_ns <= pump_ns:
            residual_ns = pump_ns - in_pump_ns
            out["other"] = {
                "total_s": residual_ns / 1e9,
                "count": timers[PUMP_STAGE]["count"],
                "mean_us": float("nan"),
                "of_pump": residual_ns / pump_ns,
            }
        pump_row = {
            "total_s": pump_ns / 1e9,
            "count": timers[PUMP_STAGE]["count"],
            "mean_us": (
                pump_ns / timers[PUMP_STAGE]["count"] / 1e3
                if timers[PUMP_STAGE]["count"] else float("nan")
            ),
            "of_pump": 1.0,
        }
        if in_pump_ns > pump_ns:
            pump_row["overlap"] = in_pump_ns / pump_ns
        out["pump"] = pump_row
    return out


def overlap_potential(stages: Dict[str, dict]) -> Optional[dict]:
    """Pipelining headroom implied by a :func:`stage_breakdown`.

    An ideal pipeline runs at the pace of its slowest stage, so the
    speedup ceiling over a strictly sequential pump is the serial busy
    sum of the overlappable stages divided by the bottleneck stage's
    busy time — the software analogue of reading a hardware pipeline's
    initiation interval off its slowest stage.  Returns ``{serial_s,
    bottleneck, bottleneck_s, ideal_speedup, measured_overlap}``
    (``measured_overlap`` is the pump row's factor when present, else
    1.0), or ``None`` when no overlappable stage was recorded.
    """
    rows = [
        (name, stages[name]["total_s"])
        for name in OVERLAPPABLE_STAGES
        if name in stages and stages[name]["total_s"] > 0
    ]
    if not rows:
        return None
    serial_s = sum(busy for _, busy in rows)
    bottleneck, bottleneck_s = max(rows, key=lambda item: item[1])
    return {
        "serial_s": serial_s,
        "bottleneck": bottleneck,
        "bottleneck_s": bottleneck_s,
        "ideal_speedup": serial_s / bottleneck_s,
        "measured_overlap": stages.get("pump", {}).get("overlap", 1.0),
    }


def _bar(fraction: float, width: int = 28) -> str:
    if not (fraction >= 0):  # NaN-safe
        return ""
    return "#" * max(0, min(width, round(fraction * width)))


def format_profile(snapshot: dict) -> str:
    """ASCII per-stage time breakdown of a snapshot."""
    stages = stage_breakdown(snapshot)
    if not stages:
        return (
            "no serve.stage.* spans in this snapshot — run the service "
            "with a metrics registry (e.g. repro loadgen --metrics-out)"
        )
    lines: List[str] = []
    pump = stages.get("pump")
    if pump is not None:
        lines.append(
            f"pipeline profile  pump={pump['total_s']:.3f}s "
            f"across {pump['count']} pump calls"
        )
        if "overlap" in pump:
            lines.append(
                f"  stages overlap (pipelined pump): busy/wall = "
                f"{pump['overlap']:.2f}x — per-stage % pump are "
                f"occupancies and may sum past 100%"
            )
    else:
        lines.append("pipeline profile (no pump span recorded)")
    lines.append(
        f"  {'stage':<12} {'total s':>9} {'calls':>8} "
        f"{'mean us':>10} {'% pump':>7}"
    )
    for name, row in stages.items():
        if name == "pump":
            continue
        pct = row["of_pump"] * 100
        pct_str = f"{pct:6.1f}%" if pct == pct else "      -"
        mean_str = (
            f"{row['mean_us']:10.1f}" if row["mean_us"] == row["mean_us"]
            else " " * 10
        )
        lines.append(
            f"  {name:<12} {row['total_s']:>9.4f} {row['count']:>8}"
            f" {mean_str} {pct_str} {_bar(row['of_pump'])}"
        )
    return "\n".join(lines)
