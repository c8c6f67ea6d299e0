"""Bit-equivalence suite for the batched fixed-point decoders.

The contract mirrors ``test_batch_zigzag.py`` but for the quantized
paths: for every frame of a batch, ``BatchQuantizedZigzagDecoder`` /
``BatchQuantizedMinSumDecoder`` must produce exactly the bits,
convergence flag and iteration count of the single-frame golden models
in :mod:`repro.decode.quantized` — across code rates, formats and both
schedules, including frames that fail to converge.  The golden models in
turn pin the cycle-accurate core, so this transitively anchors the fast
Monte-Carlo path to the hardware dataflow.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.channel import AwgnChannel
from repro.decode import (
    BatchQuantizedMinSumDecoder,
    BatchQuantizedZigzagDecoder,
    QuantizedMinSumDecoder,
    QuantizedZigzagDecoder,
    available_backends,
)
from repro.decode.batch import make_batch_decoder
from repro.encode import IraEncoder
from repro.obs.iteration import IterationTraceRecorder
from repro.quantize import MESSAGE_5BIT, MESSAGE_6BIT, FixedPointFormat
from repro.sim import fast_ber, parallel_ber

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAIRS = [
    (QuantizedZigzagDecoder, BatchQuantizedZigzagDecoder),
    (QuantizedMinSumDecoder, BatchQuantizedMinSumDecoder),
]

#: Every array backend usable here — the equivalence sweeps run the
#: batch decoders on each of them against the same golden models.
BACKENDS = available_backends()


def _build(cls, code, **kwargs):
    """Drop ``segments`` for the flooding decoders (zigzag-only knob)
    and ``backend`` for the single-frame golden models."""
    if cls in (QuantizedMinSumDecoder, BatchQuantizedMinSumDecoder):
        kwargs.pop("segments", None)
    if cls in (QuantizedMinSumDecoder, QuantizedZigzagDecoder):
        kwargs.pop("backend", None)
    return cls(code, **kwargs)


def _frame_batch(code, ebn0_db, n_frames, seed, hopeless=0):
    enc = IraEncoder(code)
    rng = np.random.default_rng(seed)
    channel = AwgnChannel(
        ebn0_db=ebn0_db, rate=float(code.profile.rate), seed=seed
    )
    words = np.stack(
        [enc.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
         for _ in range(n_frames)]
    )
    llrs = np.stack([channel.llrs(w) for w in words])
    for i in range(hopeless):
        # Random-sign LLRs: a frame that cannot converge, exercising the
        # full-budget path next to frozen converged neighbours.
        llrs[n_frames - 1 - i] = rng.normal(0.0, 4.0, code.n)
    return words, llrs


def _assert_batch_matches_single(single, batch, llrs, max_iterations):
    result = batch.decode_batch(llrs, max_iterations=max_iterations)
    for f in range(llrs.shape[0]):
        ref = single.decode(llrs[f], max_iterations=max_iterations)
        assert np.array_equal(result.bits[f], ref.bits), f"frame {f}"
        assert result.converged[f] == ref.converged, f"frame {f}"
        assert result.iterations[f] == ref.iterations, f"frame {f}"
    return result


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("single_cls,batch_cls", PAIRS)
def test_matches_single_frame_with_mixed_convergence(
    code_half, single_cls, batch_cls, backend
):
    """Converged, slow and hopeless frames in one batch, all identical
    to the single-frame decoder (frozen frames stay frozen) — on every
    available array backend."""
    _, llrs = _frame_batch(code_half, 2.2, 6, seed=7, hopeless=1)
    single = _build(
        single_cls, code_half,
        normalization=0.75, channel_scale=0.5, segments=36,
    )
    batch = _build(
        batch_cls, code_half,
        normalization=0.75, channel_scale=0.5, segments=36,
        backend=backend,
    )
    result = _assert_batch_matches_single(single, batch, llrs, 30)
    assert result.converged.sum() >= 1
    assert (~result.converged).sum() >= 1


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rate_fixture", ["code_14", "code_half", "code_34"])
@pytest.mark.parametrize("single_cls,batch_cls", PAIRS)
def test_matches_single_frame_across_rates(
    request, rate_fixture, single_cls, batch_cls, backend
):
    """Multi-rate equivalence sweep: low-, mid- and high-rate graph
    structures through both quantized schedules and every backend."""
    code = request.getfixturevalue(rate_fixture)
    ebn0 = {"code_14": 1.5, "code_half": 2.0, "code_34": 3.2}[rate_fixture]
    _, llrs = _frame_batch(code, ebn0, 3, seed=11)
    single = _build(
        single_cls, code, normalization=0.75, channel_scale=0.5
    )
    batch = _build(
        batch_cls, code, normalization=0.75, channel_scale=0.5,
        backend=backend,
    )
    _assert_batch_matches_single(single, batch, llrs, 15)


#: Formats beside the shipped 6-bit one.  The 7-bit format takes the
#: wide VN path (3*63 > 127) and the 8-bit one int16 messages: no
#: compiled plan covers either, so cnative runs them on the numpy loop.
_OTHER_FORMATS = {
    "5bit": MESSAGE_5BIT,
    "7bit": FixedPointFormat(7, 2),
    "8bit": FixedPointFormat(8, 3),
}


@pytest.mark.parametrize(
    "fmt", list(_OTHER_FORMATS.values()), ids=list(_OTHER_FORMATS)
)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("single_cls,batch_cls", PAIRS)
def test_five_bit_format_matches_single_frame(
    code_half, single_cls, batch_cls, backend, fmt
):
    _, llrs = _frame_batch(code_half, 2.5, 3, seed=23)
    single = _build(
        single_cls, code_half,
        fmt=fmt, normalization=0.75, channel_scale=0.25,
    )
    batch = _build(
        batch_cls, code_half,
        fmt=fmt, normalization=0.75, channel_scale=0.25,
        backend=backend,
    )
    if (
        fmt is not MESSAGE_5BIT
        and backend == "cnative"
        and batch_cls is BatchQuantizedZigzagDecoder
    ):
        assert batch._fused_plan is None
    _assert_batch_matches_single(single, batch, llrs, 12)


def test_without_early_stop_runs_full_budget(code_half):
    _, llrs = _frame_batch(code_half, 2.5, 2, seed=5)
    single = QuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5, segments=36
    )
    batch = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5, segments=36
    )
    result = batch.decode_batch(llrs, max_iterations=6, early_stop=False)
    assert (result.iterations == 6).all()
    assert not result.converged.any()
    for f in range(2):
        ref = single.decode(llrs[f], max_iterations=6, early_stop=False)
        assert np.array_equal(result.bits[f], ref.bits)


def test_decode_quantized_batch_accepts_integers(code_half):
    _, llrs = _frame_batch(code_half, 2.5, 2, seed=9)
    batch = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5, segments=36
    )
    ints = batch.quantize_channel(llrs)
    assert ints.shape == llrs.shape  # vectorized over the frame axis
    via_float = batch.decode_batch(llrs, max_iterations=10)
    via_int = batch.decode_quantized_batch(ints, max_iterations=10)
    assert np.array_equal(via_float.bits, via_int.bits)
    assert np.array_equal(via_float.iterations, via_int.iterations)


def test_minsum_decode_quantized_batch(code_half_tiny):
    """The min-sum decoder takes already-quantized batches too, as the
    serve plane hands them over: per-frame budgets and results as from
    ``decode_batch`` on the float LLRs, and integers outside the format
    raise."""
    _, llrs = _frame_batch(code_half_tiny, 2.0, 3, seed=4, hopeless=1)
    batch = BatchQuantizedMinSumDecoder(
        code_half_tiny, normalization=0.75, channel_scale=0.5
    )
    ints = batch.quantize_channel(llrs)
    assert ints.dtype == np.int8
    budgets = np.array([12, 5, 9])
    via_float = batch.decode_batch(llrs, max_iterations=budgets)
    via_int = batch.decode_quantized_batch(ints, max_iterations=budgets)
    assert np.array_equal(via_float.bits, via_int.bits)
    assert np.array_equal(via_float.iterations, via_int.iterations)
    assert np.array_equal(via_float.converged, via_int.converged)
    wrapped = ints.astype(np.int16)
    wrapped[0, 3] = 32
    with pytest.raises(ValueError, match=r"\[-31, 31\]"):
        batch.decode_quantized_batch(wrapped)


@pytest.mark.parametrize("backend", BACKENDS)
def test_decode_quantized_batch_rejects_out_of_format(code_half, backend):
    """The int8 message dtype would wrap integers outside the 6-bit
    format (200 becomes -56, a strong 0 read as a strong 1), so they
    raise; values on the bounds +-31 decode as the float path does."""
    _, llrs = _frame_batch(code_half, 2.5, 2, seed=9)
    batch = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5, segments=36,
        backend=backend,
    )
    strong = 40.0 * llrs  # saturates most values at +-31
    ints = batch.quantize_channel(strong)
    assert ints.min() == -31 and ints.max() == 31
    for bad in (32, 200, -32):
        # quantize_channel returns int8, which cannot hold 200.
        wrapped = ints.astype(np.int16)
        wrapped[1, 7] = bad
        with pytest.raises(ValueError, match=r"\[-31, 31\]"):
            batch.decode_quantized_batch(wrapped)
    via_int = batch.decode_quantized_batch(ints, max_iterations=10)
    via_float = batch.decode_batch(strong, max_iterations=10)
    assert np.array_equal(via_float.bits, via_int.bits)
    assert np.array_equal(via_float.iterations, via_int.iterations)
    assert np.array_equal(via_float.converged, via_int.converged)


def test_trace_hook_observes_without_perturbing(code_half):
    _, llrs = _frame_batch(code_half, 2.2, 3, seed=13, hopeless=1)
    batch = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5, segments=36
    )
    hook = IterationTraceRecorder()
    traced = batch.decode_batch(llrs, max_iterations=10, iteration_trace=hook)
    plain = batch.decode_batch(llrs, max_iterations=10)
    assert np.array_equal(traced.bits, plain.bits)
    assert np.array_equal(traced.iterations, plain.iterations)
    events = hook.events
    assert events, "expected decode_iteration events"
    # Iteration-0 record exists for every frame, and the recorded
    # per-iteration observables match the single-frame golden model's.
    assert {e["frame"] for e in events if e["iteration"] == 0} == {0, 1, 2}
    single = QuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5, segments=36
    )
    ref_hook = IterationTraceRecorder()
    single.decode(llrs[0], max_iterations=10, iteration_trace=ref_hook)
    frame0 = [e for e in events if e["frame"] == 0]
    for got, want in zip(frame0, ref_hook.events):
        assert got["iteration"] == want["iteration"]
        assert got["unsatisfied"] == want["unsatisfied"]
        assert got["sign_flips"] == want["sign_flips"]
        assert got["mean_abs_llr"] == pytest.approx(want["mean_abs_llr"])


def test_validation(code_half):
    with pytest.raises(ValueError, match="segments"):
        BatchQuantizedZigzagDecoder(code_half, segments=7)
    with pytest.raises(ValueError, match="normalization"):
        BatchQuantizedMinSumDecoder(code_half, normalization=0.0)
    with pytest.raises(ValueError, match="normalization"):
        BatchQuantizedZigzagDecoder(code_half, normalization=1.5)
    batch = BatchQuantizedZigzagDecoder(code_half)
    with pytest.raises(ValueError, match="expected shape"):
        batch.decode_batch(np.zeros(code_half.n))
    with pytest.raises(ValueError, match="quantized LLRs"):
        batch.decode_quantized_batch(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="finite"):
        batch.decode_batch(np.full((1, code_half.n), np.nan))


def test_factory_builds_quantized_schedules(code_half):
    zz = make_batch_decoder(code_half, schedule="quantized-zigzag")
    assert isinstance(zz, BatchQuantizedZigzagDecoder)
    assert zz.fmt == MESSAGE_6BIT
    ms = make_batch_decoder(
        code_half, schedule="quantized-minsum",
        fmt=MESSAGE_5BIT, channel_scale=0.5,
    )
    assert isinstance(ms, BatchQuantizedMinSumDecoder)
    assert ms.fmt == MESSAGE_5BIT and ms.channel_scale == 0.5
    with pytest.raises(ValueError, match="quantized"):
        make_batch_decoder(code_half, schedule="zigzag", fmt=MESSAGE_6BIT)
    with pytest.raises(ValueError, match="quantized"):
        make_batch_decoder(code_half, schedule="flooding", channel_scale=0.5)


def test_fast_ber_quantized_schedules(code_half_tiny):
    """Both quantized schedules run through the batched fast path."""
    for schedule in ("quantized-zigzag", "quantized-minsum"):
        result = fast_ber(
            code_half_tiny, 2.0, frames=24, max_iterations=12,
            schedule=schedule, channel_scale=0.5, seed=3,
        )
        assert result.frames == 24
        assert result.total_iterations > 0


def test_parallel_ber_quantized_worker_invariance(code_half_tiny):
    """The engine's core promise holds for the fixed-point path: the
    merged BerResult is identical for any worker count."""
    kwargs = dict(
        max_frames=64, shard_frames=16, seed=11, max_iterations=15,
        schedule="quantized-zigzag", channel_scale=0.5,
    )
    serial = parallel_ber(code_half_tiny, 1.8, workers=1, **kwargs)
    quad = parallel_ber(code_half_tiny, 1.8, workers=4, **kwargs)
    assert serial.result == quad.result
    assert serial.metrics["counters"] == quad.metrics["counters"]


def test_parallel_ber_quantized_matches_serial_decode(code_half_tiny):
    """Engine shard decoding equals a direct batched decode of the same
    seeded noise (no hidden state in the worker path)."""
    run = parallel_ber(
        code_half_tiny, 1.8, max_frames=16, shard_frames=16, workers=1,
        seed=5, max_iterations=12, schedule="quantized-minsum",
        normalization=0.75, channel_scale=0.5,
    )
    channel = AwgnChannel(
        ebn0_db=1.8, rate=float(code_half_tiny.profile.rate),
        seed=np.random.SeedSequence(5).spawn(1)[0],
    )
    llrs = channel.llrs_all_zero(code_half_tiny.n, size=16)
    dec = BatchQuantizedMinSumDecoder(
        code_half_tiny, normalization=0.75, channel_scale=0.5
    )
    direct = dec.decode_batch(llrs, max_iterations=12)
    errs = np.count_nonzero(direct.bits[:, : code_half_tiny.k], axis=1)
    assert run.result.bit_errors == int(errs.sum())
    assert run.result.frame_errors == int((errs > 0).sum())
    assert run.result.total_iterations == int(direct.iterations.sum())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("channel_scale", [1.0, 0.5])
@pytest.mark.parametrize(
    "cls", [BatchQuantizedZigzagDecoder, BatchQuantizedMinSumDecoder]
)
def test_decode_leaves_caller_llrs_unwritten(
    code_half_tiny, cls, channel_scale, backend
):
    """Serve queues and benchmark pools decode the same LLR arrays
    again: neither quantize_channel nor decode_batch may write into
    them, at unit channel scale included."""
    _, llrs = _frame_batch(code_half_tiny, 2.0, 3, seed=8)
    before = llrs.tobytes()
    dec = _build(
        cls, code_half_tiny, normalization=0.75,
        channel_scale=channel_scale, backend=backend,
    )
    dec.quantize_channel(llrs)
    dec.decode_batch(llrs, max_iterations=5)
    assert llrs.tobytes() == before


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        MESSAGE_6BIT.quantize(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        MESSAGE_6BIT.quantize(np.array([np.inf]))
    with pytest.raises(ValueError, match="finite"):
        MESSAGE_6BIT.quantize(np.array([[0.5, -np.inf], [1.0, 2.0]]))


def test_int_min1_min2_batch_shapes():
    """The shared kernel handles 2-D and 3-D inputs identically and
    without copying (argmin slots become sentinels)."""
    from repro.decode.quantized import _int_min1_min2

    rng = np.random.default_rng(0)
    flat = rng.integers(0, 31, size=(7, 5)).astype(np.int64)
    batched = np.stack([flat, flat[::-1]])
    m1f, m2f, agf = _int_min1_min2(flat.copy())
    m1b, m2b, agb = _int_min1_min2(batched.copy())
    assert np.array_equal(m1b[0], m1f)
    assert np.array_equal(m2b[0], m2f)
    assert np.array_equal(agb[0], agf)
    # ties resolve to the first occurrence, matching np.argmin
    tie = np.array([[3, 1, 1, 2]], dtype=np.int64)
    m1, m2, ag = _int_min1_min2(tie)
    assert (m1[0], m2[0], ag[0]) == (1, 1, 1)


@pytest.mark.slow
def test_bench_quantized_scaling_smoke(tmp_path):
    """The scaling benchmark stays green and fast in smoke mode."""
    env = dict(os.environ)
    env["BENCH_SMOKE"] = "1"
    env["BENCH_OUT"] = str(tmp_path)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            os.path.join(
                REPO_ROOT, "benchmarks", "bench_quantized_scaling.py"
            ),
            "--benchmark-only", "-q", "--no-header",
            "-p", "no:cacheprovider",
        ],
        env=env, capture_output=True, text=True, timeout=300,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "BENCH_quantized_scaling.json").exists()
