"""Tests for the serve-pipeline profiling plane: stage spans and the
breakdown/report surfaces."""

from __future__ import annotations

import pytest

from repro.codes import build_small_code
from repro.obs.profile import (
    format_profile,
    overlap_potential,
    stage_breakdown,
)
from repro.obs.registry import MetricsRegistry
from repro.serve import ServeConfig, ServiceReport, run_loadgen


@pytest.fixture(scope="module")
def code():
    return build_small_code("1/2", parallelism=12)


@pytest.fixture(scope="module")
def loadgen_result(code):
    """One short real run shared by the profile-shape tests."""
    return run_loadgen(
        code,
        ServeConfig(max_batch=8),
        offered_fps=200.0,
        duration_s=0.25,
        seed=5,
    )


# ----------------------------------------------------------------------
# stage spans recorded by the engine
# ----------------------------------------------------------------------
class TestStageSpans:
    def test_hot_path_stages_present(self, loadgen_result):
        stages = stage_breakdown(loadgen_result.snapshot)
        for name in ("expire", "batch_form", "llr_prep", "decode",
                     "complete", "other", "pump", "enqueue"):
            assert name in stages, name

    def test_in_pump_shares_sum_to_one(self, loadgen_result):
        """The per-stage breakdown must account for 100% of pump time
        (the ISSUE's acceptance bar for the profiling plane)."""
        stages = stage_breakdown(loadgen_result.snapshot)
        in_pump = sum(
            row["of_pump"] for name, row in stages.items()
            if name not in ("pump", "enqueue")
        )
        assert in_pump == pytest.approx(1.0, abs=1e-9)

    def test_decode_dominates_pump_time(self, loadgen_result):
        stages = stage_breakdown(loadgen_result.snapshot)
        assert stages["decode"]["of_pump"] > 0.5

    def test_report_carries_stage_rows(self, code, loadgen_result):
        report = loadgen_result.report
        assert report.stages is not None
        assert "decode" in report.stages
        assert "stages" in report.format()
        # NaNs inside the nested stage rows must not leak into JSON.
        d = report.to_dict()
        assert d["stages"]["other"]["mean_us"] is None

    def test_empty_snapshot_has_no_stages(self, code):
        assert stage_breakdown({}) == {}
        assert stage_breakdown(MetricsRegistry().snapshot()) == {}
        report = ServiceReport.from_snapshot(
            code, MetricsRegistry().snapshot(), 1.0
        )
        assert report.stages is None

    def test_format_profile_renders_table(self, loadgen_result):
        text = format_profile(loadgen_result.snapshot)
        assert "pipeline profile" in text
        assert "decode" in text and "% pump" in text

    def test_format_profile_without_spans_explains(self):
        text = format_profile({})
        assert "no serve.stage" in text


# ----------------------------------------------------------------------
# overlapped stages (the pipelined pump)
# ----------------------------------------------------------------------
def _timer(total_ns: int, count: int = 1) -> dict:
    return {"total_ns": total_ns, "count": count}


def _snapshot(**stage_ns) -> dict:
    return {
        "timers": {
            f"serve.stage.{name}": _timer(ns)
            for name, ns in stage_ns.items()
        }
    }


class TestOverlapBreakdown:
    def test_sequential_snapshot_keeps_residual_row(self):
        """in-pump busy ≤ pump wall: the historical disjoint-slice
        accounting — an ``other`` residual, shares summing to 1, and no
        overlap key — must be reproduced exactly."""
        stages = stage_breakdown(
            _snapshot(pump=1000, decode=600, batch_form=100)
        )
        assert "other" in stages
        assert stages["other"]["total_s"] == pytest.approx(300 / 1e9)
        assert "overlap" not in stages["pump"]
        in_pump = sum(
            row["of_pump"] for name, row in stages.items()
            if name not in ("pump", "enqueue")
        )
        assert in_pump == pytest.approx(1.0)

    def test_overlapped_snapshot_reports_factor_not_residual(self):
        stages = stage_breakdown(
            _snapshot(pump=1000, decode=1800, batch_form=200)
        )
        assert "other" not in stages
        assert stages["pump"]["overlap"] == pytest.approx(2.0)
        # Per-stage occupancies legitimately sum past 1.0.
        assert stages["decode"]["of_pump"] == pytest.approx(1.8)

    def test_overlap_potential_reads_bottleneck(self):
        stages = stage_breakdown(
            _snapshot(
                pump=1000, decode=1600, batch_form=200, complete=200
            )
        )
        pot = overlap_potential(stages)
        assert pot["bottleneck"] == "decode"
        assert pot["serial_s"] == pytest.approx(2000 / 1e9)
        assert pot["ideal_speedup"] == pytest.approx(2000 / 1600)
        assert pot["measured_overlap"] == pytest.approx(2.0)

    def test_overlap_potential_defaults_and_empty(self):
        sequential = stage_breakdown(_snapshot(pump=1000, decode=600))
        assert overlap_potential(sequential)["measured_overlap"] == 1.0
        assert overlap_potential({}) is None
        # expire is not an overlappable stage
        assert overlap_potential(
            stage_breakdown(_snapshot(pump=1000, expire=10))
        ) is None

    def test_format_profile_flags_overlap(self):
        text = format_profile(
            _snapshot(pump=1000, decode=1800, batch_form=200)
        )
        assert "stages overlap" in text
        assert "1.80" not in text.split("\n")[0]  # factor on its own line
        assert "2.00x" in text

    def test_loadgen_run_stays_sequential(self, loadgen_result):
        """The default (depth-1) loadgen run must never trip the
        overlap path — its breakdown still carries the residual."""
        stages = stage_breakdown(loadgen_result.snapshot)
        assert "other" in stages
        assert "overlap" not in stages["pump"]


