"""Tests for repro.acm — MODCODs, estimation, control, multi-serve."""

import os
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro.acm import (
    MODE_ORACLE,
    AcmConfig,
    LinkAdapter,
    ModCod,
    ModcodThreshold,
    MultiModcodService,
    SnrEstimator,
    ThresholdTable,
    build_modcod_code,
    channel_spec,
    default_scaled_table,
    llr_moment_esn0_db,
    make_channel,
    mixed_serve_check,
    run_acm_trace,
)
from repro.channel import build_channel
from repro.obs.registry import MetricsRegistry
from repro.serve import ServeConfig


# ----------------------------------------------------------------------
# ModCod value type
# ----------------------------------------------------------------------
def test_modcod_label_roundtrip():
    mc = ModCod("3/4", "8psk", "short")
    assert mc.label == "3/4:8psk:short"
    assert ModCod.parse(mc.label) == mc
    assert "." not in mc.label  # labels embed into metric names


def test_modcod_validation():
    with pytest.raises(ValueError):
        ModCod("5/7")
    with pytest.raises(ValueError):
        ModCod("1/2", "64qam")
    with pytest.raises(ValueError):
        ModCod("1/2", "bpsk", "medium")
    with pytest.raises(ValueError):
        ModCod("9/10", frame="short")  # no short-frame 9/10 in DVB-S2


def test_spectral_efficiency_ordering():
    ladder = [ModCod("1/4"), ModCod("1/2"), ModCod("1/2", "qpsk"),
              ModCod("3/4", "8psk")]
    se = [mc.spectral_efficiency for mc in ladder]
    assert se == sorted(se)
    assert ModCod("1/2").spectral_efficiency == pytest.approx(0.5)


def test_esn0_ebn0_roundtrip():
    mc = ModCod("3/4", "8psk")
    assert mc.esn0_from_ebn0(mc.ebn0_from_esn0(5.0)) == pytest.approx(5.0)
    # Es/N0 = Eb/N0 + 10 log10(m R)
    assert mc.esn0_from_ebn0(0.0) == pytest.approx(
        10 * np.log10(3 * 0.75)
    )


def test_build_modcod_code_cache_and_short():
    a = build_modcod_code(ModCod("1/2"), parallelism=12)
    b = build_modcod_code(ModCod("1/2"), parallelism=12)
    assert a is b  # memoized
    assert a.n == 2160
    with pytest.raises(ValueError):
        build_modcod_code(ModCod("1/2", frame="short"), parallelism=12)


def test_make_channel_wants_exactly_one_operating_point():
    with pytest.raises(ValueError):
        make_channel(ModCod("1/2"))
    with pytest.raises(ValueError):
        make_channel(ModCod("1/2"), esn0_db=1.0, ebn0_db=1.0)


def test_channel_spec_none_for_legacy_cell():
    assert channel_spec(ModCod("1/2")) is None
    spec = channel_spec(ModCod("1/2", "8psk"), "rayleigh")
    assert spec == {
        "modulation": "8psk",
        "channel": "rayleigh",
        "rate_label": "1/2",
    }


# ----------------------------------------------------------------------
# SNR estimation
# ----------------------------------------------------------------------
def test_llr_moment_estimator_is_calibrated():
    """BPSK/AWGN: the LLR second moment identifies Es/N0 exactly."""
    ch = build_channel(ebn0_db=2.0, rate=0.5, seed=7)
    true_esn0 = 2.0 + 10 * np.log10(0.5)
    estimates = [
        llr_moment_esn0_db(ch.llrs_all_zero(6480)) for _ in range(20)
    ]
    assert np.mean(estimates) == pytest.approx(true_esn0, abs=0.15)


def test_estimator_is_word_independent(rng):
    """The moment uses L^2 only — the transmitted word cannot bias it."""
    bits = rng.integers(0, 2, size=4000, dtype=np.uint8)
    a = build_channel(ebn0_db=3.0, rate=0.5, seed=9).llrs(bits)
    b = build_channel(ebn0_db=3.0, rate=0.5, seed=9).llrs(
        np.zeros(4000, dtype=np.uint8)
    )
    assert llr_moment_esn0_db(np.abs(a)) == pytest.approx(
        llr_moment_esn0_db(np.abs(b)), abs=0.3
    )


def test_ewma_smoothing_converges():
    est = SnrEstimator(alpha=0.5)
    ch = build_channel(ebn0_db=4.0, rate=0.5, seed=11)
    for _ in range(30):
        est.observe(ch.llrs_all_zero(2000))
    assert est.esn0_db == pytest.approx(
        4.0 + 10 * np.log10(0.5), abs=0.3
    )
    est.reset()
    assert est.esn0_db is None


def test_estimator_input_validation():
    with pytest.raises(ValueError):
        llr_moment_esn0_db(np.array([]))
    with pytest.raises(ValueError):
        SnrEstimator(alpha=0.0)


# ----------------------------------------------------------------------
# Threshold table + controller
# ----------------------------------------------------------------------
def toy_table():
    return ThresholdTable([
        ModcodThreshold(ModCod("1/4"), -4.0),
        ModcodThreshold(ModCod("1/2"), 0.0),
        ModcodThreshold(ModCod("3/4"), 3.0),
    ])


def test_table_selection_floor_and_top():
    table = toy_table()
    assert table.select(-10.0).rate == "1/4"  # floor, always transmits
    assert table.select(1.0).rate == "1/2"
    assert table.select(99.0).rate == "3/4"
    with pytest.raises(ValueError):
        ThresholdTable([])
    with pytest.raises(ValueError):
        ThresholdTable([
            ModcodThreshold(ModCod("1/2"), 0.0),
            ModcodThreshold(ModCod("1/2"), 1.0),
        ])


def test_derived_threshold_is_pinned():
    """Threshold derivation runs float flooding min-sum, the decoder the
    committed table was derived with; a schedule default that leaks in
    (the served 6-bit decoder reads -2.84375 here) moves this value."""
    from repro.acm import derive_threshold_table

    table = derive_threshold_table(
        [ModCod("1/4")], parallelism=12, frames=8, resolution_db=0.5
    )
    assert table.entries[0].esn0_db == -3.46875


def test_default_table_is_sorted_and_bpsk():
    table = default_scaled_table()
    se = [e.modcod.spectral_efficiency for e in table]
    assert se == sorted(se)
    assert all(e.modcod.modulation == "bpsk" for e in table)


def test_up_switch_needs_hysteresis_and_dwell():
    ad = LinkAdapter(AcmConfig(
        toy_table(), mode=MODE_ORACLE,
        hysteresis_db=0.5, dwell_frames=3,
    ))
    # 0.2 dB clears the 1/2 threshold but not threshold + hysteresis.
    assert ad.observe(esn0_db=0.2).rate == "1/4"
    # 0.8 clears it; the first switch is free of dwell.
    assert ad.observe(esn0_db=0.8).rate == "1/2"
    # 3.9 clears 3/4 + hysteresis but the dwell clock just reset.
    assert ad.observe(esn0_db=3.9).rate == "1/2"
    assert ad.observe(esn0_db=3.9).rate == "1/2"
    assert ad.observe(esn0_db=3.9).rate == "1/2"
    # Fourth frame after the switch: dwell satisfied, up we go.
    assert ad.observe(esn0_db=3.9).rate == "3/4"
    assert ad.switches_up == 2


def test_down_switch_is_immediate():
    ad = LinkAdapter(AcmConfig(
        toy_table(), mode=MODE_ORACLE,
        hysteresis_db=0.5, dwell_frames=10,
    ))
    ad.observe(esn0_db=5.0)
    assert ad.current.rate == "3/4"
    # The link collapses: no dwell, no hysteresis on the way down.
    assert ad.observe(esn0_db=-5.0).rate == "1/4"
    assert ad.switches_down == 1


def test_adapter_metrics_and_modes():
    registry = MetricsRegistry()
    ad = LinkAdapter(
        AcmConfig(toy_table(), mode=MODE_ORACLE, dwell_frames=0),
        registry=registry,
    )
    ad.observe(esn0_db=1.0)
    snap = registry.snapshot()
    assert snap["counters"]["acm.switch.up"] == 1
    assert snap["counters"]["acm.selected.1/2:bpsk:normal"] == 1
    assert snap["gauges"]["acm.modcod.index"]["value"] == 1
    with pytest.raises(ValueError):
        ad.observe(llrs=np.ones(10))  # oracle mode wants esn0_db
    est = LinkAdapter(AcmConfig(toy_table()))
    with pytest.raises(ValueError):
        est.observe(esn0_db=1.0)  # estimator mode wants llrs


def test_initial_modcod():
    ad = LinkAdapter(AcmConfig(
        toy_table(), mode=MODE_ORACLE, initial=ModCod("1/2"),
    ))
    assert ad.current.rate == "1/2"
    assert ad.esn0_db is None


# ----------------------------------------------------------------------
# Multi-MODCOD service
# ----------------------------------------------------------------------
CALM = ServeConfig(max_batch=4, max_linger_ms=0.0)


def test_multi_service_routes_and_restamps():
    mc_a, mc_b = ModCod("1/2"), ModCod("3/4")
    code_a = build_modcod_code(mc_a, parallelism=12)
    code_b = build_modcod_code(mc_b, parallelism=12)
    with MultiModcodService(CALM, parallelism=12) as service:
        ids = [
            service.submit(np.full(code_a.n, 5.0), mc_a, now=0.0),
            service.submit(np.full(code_b.n, 5.0), mc_b, now=0.0),
            service.submit(np.full(code_a.n, 5.0), mc_a, now=0.0),
        ]
        assert ids == [0, 1, 2]  # one global id space
        service.flush(now=1.0)
        results = {r.request_id: r for r in service.poll()}
    assert sorted(results) == ids
    assert results[0].modcod == "1/2:bpsk:normal"
    assert results[1].modcod == "3/4:bpsk:normal"
    assert results[0].ok and results[1].ok and results[2].ok
    assert service.active_modcods == [
        "1/2:bpsk:normal", "3/4:bpsk:normal"
    ]


def test_multi_service_merged_snapshot_has_per_modcod_views():
    mc = ModCod("1/2")
    code = build_modcod_code(mc, parallelism=12)
    with MultiModcodService(CALM, parallelism=12) as service:
        service.submit(np.full(code.n, 5.0), mc, now=0.0)
        service.flush(now=1.0)
        service.poll()
        snap = service.merged_snapshot()
    counters = snap["counters"]
    assert counters["serve.modcod.1/2:bpsk:normal.submitted"] == 1
    assert counters["serve.modcod.1/2:bpsk:normal.completed"] == 1
    assert "1/2:bpsk:normal" in snap["workers"]


def test_multi_service_report_breakdown():
    from repro.serve import ServiceReport

    mc = ModCod("1/2")
    code = build_modcod_code(mc, parallelism=12)
    with MultiModcodService(CALM, parallelism=12) as service:
        service.submit(np.full(code.n, 5.0), mc, now=0.0)
        service.flush(now=1.0)
        service.poll()
        snap = service.merged_snapshot()
    report = ServiceReport.from_snapshot(code, snap, 1.0, max_batch=4)
    assert report.modcods["1/2:bpsk:normal"]["completed"] == 1
    assert "modcod" in report.format()


def test_mixed_stream_is_bit_identical_to_dedicated():
    """The acceptance bar: a mixed-MODCOD stream decodes exactly as
    the same frames through dedicated single-config services."""
    check = mixed_serve_check(
        [(ModCod("1/2"), 3.0), (ModCod("3/4"), 6.0)],
        frames_per_modcod=5,
        parallelism=12,
        serve_config=CALM,
    )
    assert check["bit_identical"]
    assert check["frames"] == 10


def test_submit_after_close_raises():
    service = MultiModcodService(CALM, parallelism=12)
    service.close()
    with pytest.raises(RuntimeError):
        service.submit(np.zeros(2160), ModCod("1/2"))


# ----------------------------------------------------------------------
# Closed-loop ramp trace
# ----------------------------------------------------------------------
def test_acm_trace_tracks_oracle():
    table = toy_table()
    result = run_acm_trace(
        table,
        frames=36,
        parallelism=12,
        serve_config=CALM,
        seed=77,
    )
    assert result.checked == 36
    assert result.within_one_rate >= 0.95
    # The ramp rises monotonically: the estimator never switches down.
    assert result.est_switches_down == 0
    assert result.est_switches_up >= 1
    assert result.frames == len(result.est_indices)
    payload = result.to_dict()
    assert payload["within_one_rate"] >= 0.95


def test_acm_trace_is_deterministic():
    table = toy_table()
    kwargs = dict(frames=12, parallelism=12, serve_config=CALM, seed=5)
    a = run_acm_trace(table, **kwargs)
    b = run_acm_trace(table, **kwargs)
    assert a.to_dict() == b.to_dict()
    assert a.est_esn0_db == b.est_esn0_db


def test_multi_service_counts_each_frame_once_in_caller_registry():
    mc = ModCod("1/2")
    code = build_modcod_code(mc, parallelism=12)
    reg = MetricsRegistry()
    with MultiModcodService(CALM, parallelism=12, registry=reg) as service:
        service.submit(np.full(code.n, 5.0), mc, now=0.0)
        service.flush(now=1.0)
        service.poll()
        for _ in range(3):
            service.merged_snapshot()
    assert reg.snapshot()["counters"]["serve.requests.completed"] == 1


def _child_pids() -> set:
    root = f"/proc/{os.getpid()}/task"
    pids = set()
    for tid in os.listdir(root):
        with open(f"{root}/{tid}/children") as handle:
            pids.update(int(pid) for pid in handle.read().split())
    return pids


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task"),
    reason="needs /proc to count worker processes",
)
def test_pooled_multi_service_shares_one_pool():
    """Three MODCODs on ``workers=2`` run two worker processes in all
    (not two per MODCOD); MODCODs that first arrive after the workers
    started are built there on first use, and every frame matches the
    inline plane bit for bit."""
    from repro.sim.pool import fork_context

    if fork_context() is None:
        pytest.skip("fork start method unavailable")
    modcods = [ModCod("1/4"), ModCod("1/2"), ModCod("3/4")]

    def run(config):
        before = _child_pids()
        with MultiModcodService(config, parallelism=12) as service:
            where = {}
            for j, mc in enumerate(modcods):
                code = service.service_for(mc)
                rows = np.random.default_rng(j).normal(1.5, 2.0, (6, code.n))
                for i, row in enumerate(rows):
                    where[service.submit(row, mc, now=float(i))] = (j, i)
                service.flush()
            results = {where[r.request_id]: r for r in service.poll()}
            workers = _child_pids() - before
        return results, workers

    inline, _ = run(CALM)
    pooled, workers = run(dc_replace(CALM, workers=2))
    assert len(workers) == 2
    assert sorted(pooled) == sorted(inline)
    for key, result in pooled.items():
        assert result.ok and inline[key].ok
        assert np.array_equal(result.bits, inline[key].bits)
