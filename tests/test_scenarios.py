"""Tests for the scenario-matrix harness (repro.acm.harness)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.acm import ModCod, ScenarioCell, run_matrix
from repro.acm.harness import _crossing_db
from repro.serve import ServeConfig
from repro.sim.sweep import SweepPoint


class _Fer:
    def __init__(self, fer):
        self.fer = fer
        self.ber = fer / 10.0


def _points(values, fers):
    return [
        SweepPoint(value=v, result=_Fer(f))
        for v, f in zip(values, fers)
    ]


def test_crossing_interpolates_linearly():
    points = _points([0.0, 1.0, 2.0], [1.0, 0.9, 0.1])
    # 0.5 crossing sits between 1.0 and 2.0: 0.9 -> 0.1 crosses 0.5
    # halfway through the interval.
    assert _crossing_db(points, 0.5) == pytest.approx(1.5)


def test_crossing_handles_floor_and_miss():
    below = _points([0.0, 1.0], [0.2, 0.1])
    assert _crossing_db(below, 0.5) == 0.0  # already below at floor
    never = _points([0.0, 1.0], [1.0, 0.9])
    assert _crossing_db(never, 0.5) is None


def test_cell_labels_compose():
    cell = ScenarioCell(ModCod("1/2", "8psk"), "rayleigh")
    assert cell.label == "1/2:8psk:normal:rayleigh"


def test_matrix_runs_mc_and_serve_legs():
    cells = [
        ScenarioCell(ModCod("1/2"), "awgn"),
        ScenarioCell(ModCod("1/2"), "rayleigh"),
    ]
    matrix = run_matrix(
        cells,
        ebn0_points_db=[0.0, 2.0, 4.0],
        grids={"1/2:bpsk:normal:rayleigh": [1.0, 3.0, 5.0]},
        parallelism=12,
        mc_frames=12,
        max_iterations=20,
        workers=1,
        offered_fps=80.0,
        duration_s=0.1,
        serve_config=ServeConfig(max_batch=8, max_linger_ms=0.5),
        seed=3,
    )
    assert len(matrix.rows) == 2
    for row in matrix.rows:
        assert len(row.points) == 3
        if row.waterfall_ebn0_db is not None:
            assert row.serve is not None
            assert row.serve_ebn0_db == pytest.approx(
                row.waterfall_ebn0_db + 1.0
            )
            assert row.serve.checked > 0
    # The per-cell grid override was honoured.
    assert [p.value for p in matrix.rows[1].points] == [1.0, 3.0, 5.0]

    markdown = matrix.to_markdown()
    assert markdown.count("\n") == len(matrix.rows) + 1
    assert "1/2:bpsk:normal" in markdown
    assert "rayleigh" in markdown

    payload = matrix.to_dict()
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["spectral_efficiency"] == 0.5


def test_matrix_monte_carlo_leg_is_pinned():
    """The waterfall leg runs float zigzag min-sum, the decoder the
    committed matrix was measured with; a schedule default that leaks
    in changes these counts."""
    matrix = run_matrix(
        [ScenarioCell(ModCod("1/2"))],
        ebn0_points_db=[1.0],
        parallelism=12,
        mc_frames=16,
        max_iterations=20,
        workers=1,
        serve=False,
        seed=4,
    )
    result = matrix.rows[0].points[0].result
    assert (
        result.frames, result.bit_errors, result.frame_errors,
        result.total_iterations, result.converged_frames,
    ) == (16, 905, 13, 310, 3)


def test_matrix_serve_leg_optional():
    matrix = run_matrix(
        [ScenarioCell(ModCod("1/2"))],
        ebn0_points_db=[0.0, 4.0],
        parallelism=12,
        mc_frames=8,
        workers=1,
        serve=False,
        seed=4,
    )
    assert matrix.rows[0].serve is None
    # Markdown still renders, with the serve columns dashed out.
    assert "| — | — |" in matrix.to_markdown()
