"""Lazy build + ctypes binding for the compiled whole-batch decode.

A :class:`~repro.decode.batch_quantized.BatchQuantizedZigzagDecoder`
built with ``backend="cnative"`` asks :func:`fused_plan` once whether
its format fits the kernel; when it does, every untraced batch goes to
:func:`zigzag_decode`, one call into ``_zigzag_kernels.c``.  Everything
else runs the decoder's own numpy loop.

The shared library is built on first use with the system C compiler
into a per-process temporary directory — no build step, no packaging
hook, and no hard dependency: when no working compiler is present the
``cnative`` backend reports itself unavailable (with the captured
reason) and the numpy loop serves every decode.

The compile is attempted once per process and memoised, including the
failure reason, so repeated probes are free.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Optional

import numpy as np

_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_zigzag_kernels.c"
)

#: Memoised load state: None = not tried, (lib, None) = loaded,
#: (None, reason) = unavailable.
_STATE: Optional[tuple] = None

_I8 = ctypes.POINTER(ctypes.c_int8)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_I32 = ctypes.POINTER(ctypes.c_int32)
_I64 = ctypes.POINTER(ctypes.c_int64)


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


#: Compiler flags of the kernel build, tried in this order:
#: ``-march=native`` maximises the vectorized lane loops but is not
#: universally supported, so the portable build drops it.
NATIVE_FLAGS = ("-O3", "-march=native", "-fPIC", "-shared")
PORTABLE_FLAGS = ("-O3", "-fPIC", "-shared")


def build_command(cc: str, flags: tuple, lib_path: str) -> list:
    """The compiler command that builds the kernels into ``lib_path``."""
    return [cc, *flags, _SOURCE, "-o", lib_path]


def _compile() -> tuple:
    cc = _compiler()
    if cc is None:
        return None, "no C compiler found (set $CC to override)"
    if not os.path.exists(_SOURCE):
        return None, f"kernel source missing: {_SOURCE}"
    build_dir = tempfile.mkdtemp(prefix="repro-kernels-")
    atexit.register(shutil.rmtree, build_dir, ignore_errors=True)
    suffix = ".dylib" if sys.platform == "darwin" else ".so"
    lib_path = os.path.join(build_dir, "zigzag_kernels" + suffix)
    err = ""
    for flags in (NATIVE_FLAGS, PORTABLE_FLAGS):
        proc = subprocess.run(
            build_command(cc, flags, lib_path),
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode == 0 and os.path.exists(lib_path):
            try:
                return bind(ctypes.CDLL(lib_path)), None
            except OSError as exc:  # built but not loadable
                err = str(exc)
                continue
        err = (proc.stderr or proc.stdout).strip()
    return None, f"kernel compile failed with {cc}: {err[:500]}"


def bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the C signature on a loaded kernel library."""
    lib.zigzag_decode.restype = None
    lib.zigzag_decode.argtypes = [
        _I8, _I32,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
        _I64, ctypes.c_int,
        _U8, _U8, _I64,
    ]
    return lib


def load() -> tuple:
    """Return ``(lib, reason)``: the loaded CDLL or the failure reason."""
    global _STATE
    if _STATE is None:
        _STATE = _compile()
    return _STATE


def available() -> bool:
    return load()[0] is not None


def unavailable_reason() -> Optional[str]:
    return load()[1]


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def find_mulshift(lut: np.ndarray, max_int: int) -> Optional[tuple]:
    """Exact integer multiply-shift reproducing ``lut[m] == floor(alpha*m)``.

    The decode kernel applies magnitude normalization as
    ``(mult * m) >> shift`` so its SIMD lanes never gather from a table.
    This searches for a ``(mult, shift)`` pair that matches the
    decoder's LUT on every representable magnitude ``0..max_int``;
    returns ``None`` when no pair reproduces it (:func:`fused_plan` then
    declines and the decoder keeps its numpy loop).
    """
    want = lut[: max_int + 1].astype(np.int64)
    if want[0] != 0:
        return None
    mags = np.arange(1, max_int + 1, dtype=np.int64)
    vals = want[1:]
    for shift in range(0, 25):
        # floor(mult*m / 2^shift) == vals[m] for every m constrains
        # mult to [ceil(vals*2^s / m), ceil((vals+1)*2^s / m) - 1];
        # intersect the per-magnitude intervals.
        lo = int(np.max(-((-vals << shift) // mags)))
        hi = int(np.min(-((-(vals + 1) << shift) // mags) - 1))
        if lo <= hi:
            mult = lo
            if np.all((mult * mags) >> shift == vals):
                return mult, shift
    return None


def fused_plan(decoder) -> Optional[dict]:
    """Whole-batch decode plan for a zigzag decoder, or ``None``.

    Asked once at decoder construction (``backend="cnative"`` only).
    ``None`` means the decoder's format, normalization or code falls
    outside what :func:`zigzag_decode` computes exactly; the decoder
    then runs its numpy loop.
    """
    mi = int(decoder.fmt.max_int)
    if decoder._mdt != np.int8 or not decoder._narrow_vn:
        return None
    if np.dtype(decoder._adt).itemsize > 2:
        return None
    ms = find_mulshift(decoder._norm_lut, mi)
    # The kernel forms the normalization product mult*m in int16.
    if ms is None or ms[0] * mi > np.iinfo(np.int16).max:
        return None
    # Pass C adds two slots of a check into their posterior rows in
    # one vector step, so a check naming one VN twice would lose an
    # add.  No DVB-S2 code does; anything else takes the numpy path.
    slots = np.sort(
        decoder._in_vn_i32.reshape(decoder._width, -1), axis=0
    )
    if (slots[1:] == slots[:-1]).any():
        return None
    return {
        "in_vn": decoder._in_vn_i32,
        "mult": int(ms[0]),
        "shift": int(ms[1]),
    }


def zigzag_decode(
    ch: np.ndarray,
    in_vn: np.ndarray,
    k: int,
    width: int,
    seg: int,
    mi: int,
    mult: int,
    shift: int,
    budgets: np.ndarray,
    early_stop: bool,
) -> tuple:
    """Decode a whole quantized batch to completion in C.

    ``ch`` is the ``(frames, n)`` C-contiguous int8 matrix of channel
    LLRs: the ``k`` info values of each frame, then its parity values.
    """
    lib, reason = load()
    if lib is None:  # pragma: no cover - guarded by resolve_backend
        raise RuntimeError(reason)
    if ch.ndim != 2 or ch.dtype != np.int8 or not ch.flags.c_contiguous:
        raise ValueError("ch must be a C-contiguous int8 (frames, n) matrix")
    frames, n = ch.shape
    bits = np.empty((frames, n), dtype=np.uint8)
    converged = np.zeros(frames, dtype=np.uint8)
    iterations = np.zeros(frames, dtype=np.int64)
    lib.zigzag_decode(
        _ptr(ch, ctypes.c_int8), _ptr(in_vn, ctypes.c_int32),
        frames, k, n - k, width, seg, mi, mult, shift,
        _ptr(budgets, ctypes.c_int64), int(bool(early_stop)),
        _ptr(bits, ctypes.c_uint8), _ptr(converged, ctypes.c_uint8),
        _ptr(iterations, ctypes.c_int64),
    )
    if frames and iterations[0] == -1 and (iterations == -1).all():
        raise MemoryError("kernel workspace allocation failed")
    return bits, converged.astype(bool), iterations
