"""Backends: resolution, caching, kernel parity, the fused fast path.

The bit-identity sweeps comparing whole decodes against the single-frame
golden models live in ``test_batch_quantized.py`` (parametrized over all
available backends); this module covers backend resolution and error
reporting, the shared table cache, the builds without
``-march=native`` (each lowering of the check pass's normalization
lookup), that the fused fast path is actually taken (and declined for a
check naming one VN twice), the fused kernel's int8 arithmetic at the
format bounds and across segment counts, GCC's vectorizer report on
its lane loops, and that forked pools still decode after an inline
cnative decode.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.channel import AwgnChannel
from repro.codes import build_small_code
from repro.decode import (
    BatchQuantizedMinSumDecoder,
    BatchQuantizedZigzagDecoder,
    available_backends,
    backend_status,
    resolve_backend,
)
from repro.decode import _cnative
from repro.decode.batch import make_batch_decoder
from repro.encode import IraEncoder
from repro.quantize import MESSAGE_5BIT, MESSAGE_6BIT
from repro.sim.fast import fast_ber

BACKENDS = available_backends()
HAVE_CNATIVE = "cnative" in BACKENDS
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _frame_batch(code, ebn0_db, n_frames, seed, hopeless=0):
    """Noisy encoded frames; the last ``hopeless`` are pure garbage."""
    encoder = IraEncoder(code)
    channel = AwgnChannel(
        ebn0_db=ebn0_db, rate=float(code.profile.rate), seed=seed
    )
    rng = np.random.default_rng(seed)
    llrs = np.empty((n_frames, code.n))
    for i in range(n_frames):
        word = encoder.encode(
            rng.integers(0, 2, code.k, dtype=np.uint8)
        )
        llrs[i] = channel.llrs(word)
    for i in range(n_frames - hopeless, n_frames):
        llrs[i] = rng.normal(0.0, 4.0, code.n)
    return llrs


def _assert_results_equal(ref, got):
    np.testing.assert_array_equal(ref.bits, got.bits)
    np.testing.assert_array_equal(ref.converged, got.converged)
    np.testing.assert_array_equal(ref.iterations, got.iterations)


# ---------------------------------------------------------------------------
# Resolution and error reporting


def test_resolve_default_is_numpy():
    assert resolve_backend(None) == "numpy"
    assert resolve_backend("numpy") == "numpy"


def test_unknown_backend_lists_available():
    with pytest.raises(ValueError, match="available backends") as exc:
        resolve_backend("no-such-backend")
    msg = str(exc.value)
    assert "'no-such-backend'" in msg
    for name in available_backends():
        assert name in msg


def test_unknown_backend_through_factory(code_half):
    with pytest.raises(ValueError, match="available backends"):
        make_batch_decoder(
            code_half,
            schedule="quantized-zigzag",
            backend="no-such-backend",
        )


def test_non_string_spec_raises_type_error():
    with pytest.raises(TypeError, match="backend must be a name"):
        resolve_backend(42)


def test_unavailable_backend_reports_reason(code_half, monkeypatch):
    """Without a compiler cnative reports why, only numpy is listed,
    asking for cnative fails, and a numpy decoder still decodes."""
    reason = "no C compiler found (set $CC to override)"
    monkeypatch.setattr(_cnative, "_STATE", (None, reason))
    assert backend_status()["cnative"] == ("fused", reason)
    assert available_backends() == ["numpy"]
    with pytest.raises(ValueError, match="not available"):
        resolve_backend("cnative")
    llrs = _frame_batch(code_half, 2.2, 2, seed=13)
    result = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, backend="numpy"
    ).decode_batch(llrs, max_iterations=10)
    assert result.bits.shape == llrs.shape


def test_backend_status_covers_registry():
    status = backend_status()
    assert list(status) == ["numpy", "cnative"]
    assert status["numpy"] == ("numpy", None)
    assert status["cnative"][0] == "fused"
    for name in available_backends():
        assert status[name][1] is None


def test_backend_rejected_for_float_schedules(code_half):
    with pytest.raises(ValueError, match="quantized"):
        make_batch_decoder(code_half, schedule="zigzag", backend="numpy")


# ---------------------------------------------------------------------------
# Shared table cache (satellite: one read-only copy per Tanner graph)


def test_zigzag_instances_share_cached_tables(code_half):
    d1 = BatchQuantizedZigzagDecoder(code_half, normalization=0.75)
    d2 = BatchQuantizedZigzagDecoder(code_half, normalization=0.75)
    assert d1._in_vn_sorted is d2._in_vn_sorted
    assert d1._vn_gather is d2._vn_gather
    assert d1._vn_gather_tm is d2._vn_gather_tm
    assert d1._norm_lut is d2._norm_lut
    assert not d1._in_vn_sorted.flags.writeable
    assert not d1._norm_lut.flags.writeable


def test_minsum_instances_share_cached_tables(code_half):
    d1 = BatchQuantizedMinSumDecoder(code_half, normalization=0.75)
    d2 = BatchQuantizedMinSumDecoder(code_half, normalization=0.75)
    assert d1._seg_of_sorted is d2._seg_of_sorted
    assert d1._edge_index is d2._edge_index
    assert not d1._seg_of_sorted.flags.writeable


def test_lut_cache_keys_on_normalization(code_half):
    d1 = BatchQuantizedZigzagDecoder(code_half, normalization=0.75)
    d2 = BatchQuantizedZigzagDecoder(code_half, normalization=0.875)
    assert d1._norm_lut is not d2._norm_lut


def test_scratch_arena_grows_and_slices(code_half):
    dec = BatchQuantizedZigzagDecoder(code_half, normalization=0.75)
    a = dec._buf("x", (8, 16), np.int8)
    assert a.shape == (8, 16)
    b = dec._buf("x", (4, 16), np.int8)
    assert b.base is dec._scratch["x"]
    assert b.shape == (4, 16)
    c = dec._buf("x", (12, 16), np.int8)
    assert c.shape == (12, 16)
    d = dec._buf("x", (12, 16), np.int16)  # dtype change reallocates
    assert d.dtype == np.int16


# ---------------------------------------------------------------------------
# Builds without -march=native: the portable one and each lowering of
# the normalization lookup


#: Kernel builds that lower the check pass's normalization lookup
#: differently, with the CPU features each needs: the portable build
#: (on x86-64 SSE2 alone, so the generic multiply-shift), AVX2 (a
#: 32-byte vpshufb pair) and SSSE3 (a 16-byte pshufb pair, two vectors
#: per lane row).  The native build runs only the one its CPU allows,
#: so it alone would miss a wrong lowering of the others.
_LOOKUP_BUILDS = {
    "portable": (_cnative.PORTABLE_FLAGS, ()),
    "avx2": (("-O3", "-mavx2", "-fPIC", "-shared"), ("avx2",)),
    "ssse3": (("-O3", "-mssse3", "-fPIC", "-shared"), ("ssse3",)),
}


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
@pytest.mark.parametrize("build", sorted(_LOOKUP_BUILDS))
def test_portable_build_decodes_bit_identically(
    build, code_half, range_codes, tmp_path, monkeypatch
):
    """A kernel built without -march=native, loaded here, decodes
    exactly as numpy does: the portable build the loader falls back to
    when the native one is rejected, and each normalization lookup
    the native build does not run on this CPU.  Noisy frames, then the
    range-limit patterns of the grid's tier-1 slice (33 frames, per-
    frame budgets, early stop on and off)."""
    flags, needs = _LOOKUP_BUILDS[build]
    missing = set(needs) - set((_cnative._cpu_features() or "").split())
    if missing:
        pytest.skip(f"the CPU does not list {', '.join(sorted(missing))}")
    lib_path = str(tmp_path / f"zigzag_kernels_{build}.so")
    cmd = _cnative.build_command(_cnative._compiler(), flags, lib_path)
    assert "-march=native" not in cmd
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    monkeypatch.setattr(
        _cnative, "_STATE", (_cnative.bind(ctypes.CDLL(lib_path)), None)
    )
    llrs = _frame_batch(code_half, 2.2, 33, seed=21, hopeless=2)
    dec = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5,
        backend="cnative",
    )
    assert dec._fused_plan is not None
    ref = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5
    )
    _assert_results_equal(
        ref.decode_batch(llrs, max_iterations=20),
        dec.decode_batch(llrs, max_iterations=20),
    )
    for rate, bits, alpha in sorted(_RANGE_TIER1):
        test_fused_kernel_parity_at_range_limits(
            range_codes, rate, bits, alpha
        )


# ---------------------------------------------------------------------------
# The fast paths are actually taken (not silently falling back)


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_cnative_fused_plan_engages(code_half, monkeypatch):
    dec = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5,
        backend="cnative",
    )
    assert dec._fused_plan is not None
    calls = []
    orig = _cnative.zigzag_decode

    def spy(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(_cnative, "zigzag_decode", spy)
    llrs = _frame_batch(code_half, 2.2, 4, seed=3, hopeless=1)
    got = dec.decode_batch(llrs, max_iterations=20)
    assert calls  # the whole-batch C kernel ran
    ref = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5
    ).decode_batch(llrs, max_iterations=20)
    _assert_results_equal(ref, got)


@pytest.mark.parametrize("backend", BACKENDS)
def test_per_frame_budgets_match_across_backends(code_half, backend):
    """Per-frame budgets (including zero) freeze frames identically on
    every backend, with and without early stopping."""
    llrs = _frame_batch(code_half, 2.2, 5, seed=17, hopeless=1)
    budgets = np.array([0, 3, 9, 1, 14])
    ref = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5
    )
    dec = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, channel_scale=0.5,
        backend=backend,
    )
    for early_stop in (True, False):
        _assert_results_equal(
            ref.decode_batch(llrs, budgets, early_stop=early_stop),
            dec.decode_batch(llrs, budgets, early_stop=early_stop),
        )


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_fused_plan_declines_wide_normalization_product(
    code_half, monkeypatch
):
    """The kernel multiplies in int16: a (mult, shift) pair whose
    product mult*max_int overflows it takes the numpy path instead."""
    dec = BatchQuantizedZigzagDecoder(code_half, backend="cnative")
    mi = int(dec.fmt.max_int)
    mult, shift = _cnative.find_mulshift(dec._norm_lut, mi)
    assert mult * mi <= 32767
    # The same LUT from a scaled pair whose product needs 17 bits.
    grow = (32767 // (mult * mi)).bit_length() + 1
    wide = (mult << grow, shift + grow)
    assert np.array_equal(
        wide[0] * np.arange(mi + 1) >> wide[1], dec._norm_lut
    )
    monkeypatch.setattr(_cnative, "find_mulshift", lambda lut, m: wide)
    assert _cnative.fused_plan(dec) is None


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_fused_plan_declines_vn_twice_in_one_check(code_half, monkeypatch):
    """Pass C adds slots t and t+1 of a check into their posterior rows
    in one vector step, so a check naming one VN in two slots would
    lose an add: such a code takes the numpy path."""
    dec = BatchQuantizedZigzagDecoder(code_half, backend="cnative")
    assert dec._fused_plan is not None
    n_par, cn, t = dec._n_parity, 17, 2
    in_vn = dec._in_vn_i32.copy()
    in_vn[(t + 1) * n_par + cn] = in_vn[t * n_par + cn]
    monkeypatch.setattr(dec, "_in_vn_i32", in_vn)
    assert _cnative.fused_plan(dec) is None


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_fused_plan_engages_on_every_rate():
    """No shipped rate names a VN twice in one check, so the duplicate
    guard never sends a P=36 code to the numpy path."""
    from repro.codes import RATE_NAMES

    for rate in RATE_NAMES:
        code = build_small_code(rate, parallelism=36)
        dec = BatchQuantizedZigzagDecoder(code, backend="cnative")
        assert dec._fused_plan is not None, rate


# ---------------------------------------------------------------------------
# Range limits: the fused kernel's int8 arithmetic at the format bounds

_RANGE_RATES = ("1/4", "1/2", "9/10")
_RANGE_FORMATS = {5: MESSAGE_5BIT, 6: MESSAGE_6BIT}
_RANGE_ALPHAS = (0.5, 0.625, 0.75, 0.875, 1.0)
#: The tier-1 slice (the rest of the grid is marked slow): every rate,
#: both formats, and the two alphas whose 6-bit normalization product
#: mult*31 overflows int8 (0.625 and 0.875).
_RANGE_TIER1 = {
    ("1/4", 6, 0.625), ("1/2", 6, 0.875), ("9/10", 6, 0.875),
    ("9/10", 5, 0.5),
}


def _range_frames(n_frames, n, mi, rng):
    """Frames pinned at the format bounds, cycling six patterns: all
    +mi, all -mi, random +-mi, uniform in [-mi, mi], +mi with 10 %
    -mi, and all zero."""
    frames = np.empty((n_frames, n), dtype=np.int32)
    for i in range(n_frames):
        kind = i % 6
        if kind == 0:
            frames[i] = mi
        elif kind == 1:
            frames[i] = -mi
        elif kind == 2:
            frames[i] = mi * rng.choice((-1, 1), n)
        elif kind == 3:
            frames[i] = rng.integers(-mi, mi + 1, n)
        elif kind == 4:
            frames[i] = np.where(rng.random(n) < 0.1, -mi, mi)
        else:
            frames[i] = 0
    return frames


@pytest.fixture(scope="module")
def range_codes():
    return {
        rate: build_small_code(rate, parallelism=36)
        for rate in _RANGE_RATES
    }


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
@pytest.mark.parametrize(
    "rate,bits,alpha",
    [
        pytest.param(
            rate, bits, alpha,
            marks=() if (rate, bits, alpha) in _RANGE_TIER1
            else pytest.mark.slow,
        )
        for rate in _RANGE_RATES
        for bits in _RANGE_FORMATS
        for alpha in _RANGE_ALPHAS
    ],
)
def test_fused_kernel_parity_at_range_limits(range_codes, rate, bits, alpha):
    """33 frames (one full 32-lane block plus one partial) at the format
    bounds, random per-frame budgets, early stop on and off: the fused
    kernel matches the numpy backend bit for bit.  Rate 9/10 has the
    widest check (28 info slots)."""
    code = range_codes[rate]
    fmt = _RANGE_FORMATS[bits]
    mi = fmt.max_int
    rng = np.random.default_rng([bits, int(alpha * 1000), len(rate)])
    ch = _range_frames(33, code.n, mi, rng)
    budgets = rng.integers(1, 40, 33)
    ref = BatchQuantizedZigzagDecoder(
        code, fmt=fmt, normalization=alpha
    )
    dec = BatchQuantizedZigzagDecoder(
        code, fmt=fmt, normalization=alpha, backend="cnative"
    )
    assert dec._fused_plan is not None
    for early_stop in (True, False):
        _assert_results_equal(
            ref.decode_quantized_batch(ch, budgets, early_stop),
            dec.decode_quantized_batch(ch, budgets, early_stop),
        )


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
@pytest.mark.parametrize(
    "segments",
    [
        pytest.param(
            segments, marks=() if segments == 3240 else pytest.mark.slow
        )
        for segments in (1, 36, 3240)
    ],
)
def test_fused_kernel_parity_across_segment_counts(code_half, segments):
    """The check pass keeps only each segment's last forward message
    (double-buffered) and updates b in place.  On the P=36 rate-1/2
    code (3240 checks): 1 segment is one serial chain, 36 the default,
    and 3240 makes every check its own segment, so every forward seed
    comes from the previous iteration.  33 frames, random budgets,
    early stop on and off: cnative matches numpy bit for bit."""
    assert code_half.n_parity == 3240
    llrs = _frame_batch(code_half, 2.0, 33, seed=segments, hopeless=2)
    budgets = np.random.default_rng(segments).integers(1, 40, 33)
    ref = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, segments=segments
    )
    dec = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, segments=segments,
        backend="cnative",
    )
    assert dec._fused_plan is not None
    for early_stop in (True, False):
        _assert_results_equal(
            ref.decode_batch(llrs, budgets, early_stop=early_stop),
            dec.decode_batch(llrs, budgets, early_stop=early_stop),
        )


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
@pytest.mark.parametrize("case", ["converge-together", "budgets-end-together"])
def test_fused_kernel_parity_at_tile_edges(code_half, case):
    """The kernel walks the checks in tiles (18 on the P=36 rate-1/2
    code) and tests for a stop after the last tile's pass A, before its
    check side.  "converge-together": 33 copies of one frame, so every
    lane of the full block converges in the same iteration, after the
    tiles before the last ran their check side.  "budgets-end-together":
    equal budgets with early stop off, so the last iteration ends every
    live budget and runs pass A alone.  cnative matches numpy bit for
    bit."""
    if case == "converge-together":
        llrs = np.repeat(_frame_batch(code_half, 2.0, 1, seed=8), 33, axis=0)
        budgets, early_stop = np.full(33, 30), True
    else:
        llrs = _frame_batch(code_half, 2.0, 33, seed=9, hopeless=2)
        budgets, early_stop = np.full(33, 7), False
    ref = BatchQuantizedZigzagDecoder(code_half, normalization=0.75)
    dec = BatchQuantizedZigzagDecoder(
        code_half, normalization=0.75, backend="cnative"
    )
    assert dec._fused_plan is not None
    want = ref.decode_batch(llrs, budgets, early_stop=early_stop)
    _assert_results_equal(
        want, dec.decode_batch(llrs, budgets, early_stop=early_stop)
    )
    if case == "converge-together":
        assert want.converged.all()
        assert len(set(want.iterations)) == 1 and want.iterations[0] > 1
    else:
        assert (want.iterations == 7).all()


@pytest.fixture(scope="module")
def code_full_half():
    from repro.codes import build_code

    return build_code("1/2")


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_fused_kernel_parity_on_the_full_code(code_full_half):
    """The 64800-bit rate-1/2 code, whose iteration spans 180 tiles of
    180 checks: 33 frames at 3.0 dB, where stuck lanes run to their
    budget, per-frame budgets including 0, early stop on and off.
    cnative matches numpy bit for bit."""
    code = code_full_half
    assert code.n == 64800
    llrs = _frame_batch(code, 3.0, 33, seed=31, hopeless=1)
    budgets = np.random.default_rng(31).integers(0, 12, 33)
    budgets[:2] = (0, 11)
    ref = BatchQuantizedZigzagDecoder(code)
    dec = BatchQuantizedZigzagDecoder(code, backend="cnative")
    assert dec._fused_plan is not None
    for early_stop in (True, False):
        _assert_results_equal(
            ref.decode_batch(llrs, budgets, early_stop=early_stop),
            dec.decode_batch(llrs, budgets, early_stop=early_stop),
        )


def _is_gcc(cc) -> bool:
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except OSError:
        return False
    return "Free Software Foundation" in out


#: Kernel functions whose per-check lane loop must vectorize: pass A,
#: the per-tile syndrome reduce and pass C.  The check pass is written
#: in whole-row vectors instead.
_VECTOR_PASSES = (
    "vn_pass_first", "vn_pass_first_pair", "vn_pass_pair",
    "synd_reduce", "output_pass_slab", "output_pass_pair",
)


@pytest.mark.slow
@pytest.mark.skipif(
    not (_cnative._compiler() and _is_gcc(_cnative._compiler())),
    reason="the vectorizer report format is GCC's",
)
def test_kernel_lane_loops_vectorize(tmp_path):
    """Build the kernel as the loader does, plus GCC's vectorizer
    report: the lane loop inside the per-check loop of each pass A
    function, the per-tile syndrome reduce and each pass C function is
    vectorized, and none is versioned for possible aliasing (which
    would put overlap checks and a scalar fallback on the hot path).  The check pass has no per-lane loop left for the
    vectorizer to find, and GCC versions none of its code."""
    cmd = _cnative.build_command(
        _cnative._compiler(),
        _cnative.NATIVE_FLAGS + ("-fopt-info-vec-optimized",),
        str(tmp_path / "kernels.so"),
    )
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    vectorized, versioned = set(), set()
    for line in proc.stderr.splitlines():
        parts = line.split(":")
        if len(parts) < 3 or not parts[1].isdigit():
            continue
        if "loop vectorized" in line:
            vectorized.add(int(parts[1]))
        elif "versioned for vectorization" in line:
            versioned.add(int(parts[1]))
    with open(_cnative._SOURCE) as fh:
        source = fh.read().splitlines()

    def body(name):
        start = next(
            i for i, text in enumerate(source)
            if text.startswith(f"static void {name}(")
        )
        end = next(i for i in range(start, len(source)) if source[i] == "}")
        return start, end

    for name in _VECTOR_PASSES:
        start, end = body(name)
        check_loop = next(
            i for i in range(start, end)
            if source[i].lstrip().startswith("for (int64_t c = ")
        )
        lane_loop = 1 + next(
            i for i in range(check_loop, end)
            if source[i].lstrip().startswith("for (int f = 0; f < LANES;")
        )
        assert lane_loop in vectorized, (name, lane_loop, proc.stderr)
        assert lane_loop not in versioned, (name, lane_loop, proc.stderr)
    start, end = body("check_pass")
    lines = set(range(start + 1, end + 2))
    assert not any(
        "< LANES;" in source[i] for i in range(start, end)
    ), "a per-lane loop in check_pass"
    assert not lines & vectorized, (sorted(lines & vectorized), proc.stderr)
    assert not lines & versioned, (sorted(lines & versioned), proc.stderr)


@pytest.mark.parametrize(
    "backend",
    [b for b in BACKENDS if backend_status()[b][0] == "fused"],
)
def test_trace_falls_back_bit_identically(code_half, backend):
    """Tracing forces the stepwise numpy loop; events and outputs must
    match the numpy backend exactly."""
    from repro.obs.iteration import IterationTraceRecorder

    llrs = _frame_batch(code_half, 2.2, 4, seed=5, hopeless=1)
    results, events = [], []
    for spec in (None, backend):
        dec = BatchQuantizedZigzagDecoder(
            code_half, normalization=0.75, channel_scale=0.5,
            backend=spec,
        )
        trace = IterationTraceRecorder()
        results.append(
            dec.decode_batch(llrs, max_iterations=15,
                             iteration_trace=trace)
        )
        events.append(trace.drain())
    _assert_results_equal(results[0], results[1])
    assert events[0] == events[1]


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "numpy"])
def test_fast_ber_equal_across_backends(code_half_tiny, backend):
    kwargs = dict(
        ebn0_db=1.8, frames=24, max_iterations=15, seed=4,
        batch_size=8, schedule="quantized-zigzag", channel_scale=0.5,
    )
    ref = fast_ber(code_half_tiny, **kwargs)
    got = fast_ber(code_half_tiny, backend=backend, **kwargs)
    assert ref == got


# ---------------------------------------------------------------------------
# Fork safety: processes are the only parallel layer

#: Inline cnative decode first, then the two forking pools decode again.
_FORK_AFTER_INLINE = """
import numpy as np
from repro.codes import build_small_code
from repro.decode.batch import make_batch_decoder
from repro.serve import DecodeService, ServeConfig
from repro.sim import parallel_ber

code = build_small_code("1/2", parallelism=12)
llrs = np.random.default_rng(1).normal(2.0, 2.0, (40, code.n))
make_batch_decoder(
    code, schedule="quantized-zigzag", backend="cnative"
).decode_batch(llrs)
run = parallel_ber(
    code, 1.0, max_frames=64, workers=2, schedule="quantized-zigzag",
    backend="cnative", seed=3,
)
print("parallel_ber", run.result.frames, flush=True)
service = DecodeService(code, ServeConfig(backend="cnative", workers=2))
try:
    for row in llrs[:16]:
        service.submit(row, now=0.0)
    service.flush()
    print("service", len(service.poll()), flush=True)
finally:
    service.close()
"""


@pytest.mark.skipif(not HAVE_CNATIVE, reason="no working C compiler")
def test_pooled_cnative_decodes_after_inline_decode():
    """Forked pool workers still decode once the parent has decoded
    inline with cnative.  A kernel that started threads in the parent
    would leave the children waiting on helpers they do not have; the
    steps run in their own process group, killed whole at the bound, so
    a regression fails here instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_AFTER_INLINE],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        pytest.fail(f"pooled cnative decode hung; got only:\n{out}")
    assert proc.returncode == 0, err
    assert out.split("\n")[:2] == ["parallel_ber 64", "service 16"]
