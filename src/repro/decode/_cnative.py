"""Cached build + ctypes binding for the compiled whole-batch decode.

A :class:`~repro.decode.batch_quantized.BatchQuantizedZigzagDecoder`
built with ``backend="cnative"`` asks :func:`fused_plan` once whether
its format fits the kernel; when it does, every untraced batch goes to
:func:`zigzag_decode`, one call into ``_zigzag_kernels.c``.  Everything
else runs the decoder's own numpy loop.

The shared library is built on first use with the system C compiler —
no build step, no packaging hook, and no hard dependency: when no
working compiler is present the ``cnative`` backend reports itself
unavailable (with the captured reason) and the numpy loop serves every
decode.

Built libraries are kept in a per-user cache,
``<tempfile.gettempdir()>/repro-kernel-cache-<uid>/``, one file per
:func:`cache_key` (kernel source, compiler identity, flags, platform
and, for the ``-march=native`` build, the CPU's feature list).  Only
the first process per host and kernel version pays the compile; every
later one — each CLI run, each pool or fabric worker — loads the file.
A miss builds into a temporary file in the cache and publishes it with
one atomic rename; two processes that miss at once both build, and the
last rename wins with identical content.  Loading a library runs its
code, so the cache is used only when it is a real directory owned by
this user with no group or other permission bits.  Otherwise, or
where ``os.getuid`` does not exist, the library is built into a
private temporary directory removed at exit.

The load is attempted once per process and memoised, including the
failure reason, so repeated probes are free.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import time
from typing import Optional

import numpy as np

_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_zigzag_kernels.c"
)
_SUFFIX = ".dylib" if sys.platform == "darwin" else ".so"

#: Memoised load state: None = not tried, (lib, None) = loaded,
#: (None, reason) = unavailable.
_STATE: Optional[tuple] = None
#: Where the loaded library came from, set with ``_STATE`` (see
#: :func:`origin`).
_ORIGIN: Optional[str] = None

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


def _origin_line(lib_path: str, flags: tuple, how: str) -> str:
    """The :func:`origin` line: the library, which of the two builds
    ``flags`` make and how it was found.  The builds differ in how the
    check pass normalizes (a byte permute where ``-march=native`` finds
    one, a multiply-shift in the SSE2-only portable build) and so in
    speed."""
    build = "native build (-march=native)" if "-march=native" in flags \
        else "portable build"
    return f"{lib_path}, {build}, {how}"


def _cpu_features() -> Optional[str]:
    """The CPU feature list (``flags`` on x86, ``Features`` on ARM)
    from ``/proc/cpuinfo``, or ``None`` where none can be read."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                name, sep, value = line.partition(":")
                if sep and name.strip() in ("flags", "Features"):
                    return value.strip() or None
    except OSError:
        pass
    return None


def cache_key(cc: str, flags: tuple) -> Optional[str]:
    """Content key of the kernel built by ``cc`` with ``flags``.

    A sha256 over the kernel source, the resolved compiler path with
    its size and modification time (a stat, no subprocess), the flags,
    ``sys.platform``, ``platform.machine()`` and, for a
    ``-march=native`` build, the CPU feature list.  ``None`` — do not
    cache — for a native build where no feature list can be read: a
    native build must never be loaded on a CPU it was not built for.
    A changed input gives a new key; nothing is invalidated in place.
    """
    features = _cpu_features() if "-march=native" in flags else ""
    if features is None:
        return None
    path = os.path.realpath(shutil.which(cc))
    st = os.stat(path)
    digest = hashlib.sha256()
    with open(_SOURCE, "rb") as fh:
        digest.update(fh.read())
    for part in (path, st.st_size, st.st_mtime_ns, flags, sys.platform,
                 platform.machine(), features):
        digest.update(b"\0" + repr(part).encode())
    return digest.hexdigest()[:32]


def _cache_dir() -> tuple:
    """``(path, None)`` for a kernel cache safe to load from, else
    ``(None, why)``.

    The directory is created with mode 0700 and used only if ``lstat``
    shows a real directory (not a symlink) owned by this user with no
    group or other permission bits, so nobody else can plant a library
    in it.
    """
    getuid = getattr(os, "getuid", None)
    if getuid is None:
        return None, "this platform has no os.getuid"
    uid = getuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-kernel-cache-{uid}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError as exc:
        return None, f"cannot create {path}: {exc}"
    try:
        st = os.lstat(path)
    except OSError as exc:
        return None, f"cannot stat {path}: {exc}"
    if not stat.S_ISDIR(st.st_mode):
        return None, f"{path} is a symlink or not a directory"
    if st.st_uid != uid:
        return None, f"{path} is owned by uid {st.st_uid}, not {uid}"
    if st.st_mode & 0o077:
        return None, (
            f"{path} has group or other permission bits "
            f"({stat.filemode(st.st_mode)})"
        )
    return path, None


def _build(cc: str, flags: tuple, lib_path: str) -> str:
    """Compile into a temporary file beside ``lib_path`` and rename it
    into place; returns the compiler's error output ("" on success)."""
    fd, tmp = tempfile.mkstemp(
        prefix=".build-", suffix=_SUFFIX, dir=os.path.dirname(lib_path)
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            build_command(cc, flags, tmp),
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            return (proc.stderr or proc.stdout).strip() or (
                f"exit status {proc.returncode}"
            )
        os.replace(tmp, lib_path)
        return ""
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _compile() -> tuple:
    """``(lib, reason, origin)``: the loaded kernel from the cache or a
    fresh build (native flags first, then portable), or the reason
    there is none."""
    cc = _compiler()
    if cc is None:
        return None, "no C compiler found (set $CC to override)", None
    if not os.path.exists(_SOURCE):
        return None, f"kernel source missing: {_SOURCE}", None
    cache, private_why = _cache_dir()
    private_dir = None
    err = ""
    for flags in (NATIVE_FLAGS, PORTABLE_FLAGS):
        key = cache_key(cc, flags) if cache is not None else None
        if key is not None:
            lib_path = os.path.join(cache, f"zigzag_kernels-{key}{_SUFFIX}")
            if os.path.exists(lib_path):
                try:
                    lib = bind(ctypes.CDLL(lib_path))
                except (OSError, AttributeError):
                    pass  # not a loadable kernel: rebuilt and replaced
                else:
                    how = "loaded from the kernel cache"
                    return lib, None, _origin_line(lib_path, flags, how)
        else:
            if private_dir is None:
                private_dir = tempfile.mkdtemp(prefix="repro-kernels-")
                atexit.register(shutil.rmtree, private_dir, ignore_errors=True)
            lib_path = os.path.join(private_dir, "zigzag_kernels" + _SUFFIX)
        t0 = time.perf_counter()
        err = _build(cc, flags, lib_path)
        if err:
            continue
        try:
            lib = bind(ctypes.CDLL(lib_path))
        except (OSError, AttributeError) as exc:  # built but not loadable
            err = str(exc)
            continue
        how = f"built in this process in {time.perf_counter() - t0:.2f} s"
        if key is None:
            why = private_why or "no CPU feature list to key a native build"
            how += f" (private build: {why})"
        return lib, None, _origin_line(lib_path, flags, how)
    return None, f"kernel compile failed with {cc}: {err[:500]}", None


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
    global _STATE, _ORIGIN
    if _STATE is None:
        lib, reason, _ORIGIN = _compile()
        _STATE = lib, reason
    return _STATE


def origin() -> Optional[str]:
    """Where the loaded kernel came from: its path, which build it is
    ("native build (-march=native)" or "portable build"), then "loaded
    from the kernel cache", "built in this process in N.NN s" or, for
    a private build, why the cache was not used.  ``None`` when the
    kernel is unavailable."""
    return _ORIGIN if load()[0] is not None else None


def available() -> bool:
    return load()[0] is not None


def unavailable_reason() -> Optional[str]:
    return load()[1]


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def find_mulshift(lut: np.ndarray, max_int: int) -> Optional[tuple]:
    """Exact integer multiply-shift reproducing ``lut[m] == floor(alpha*m)``.

    The decode kernel normalizes magnitudes with ``(mult * m) >> shift``:
    it fills a 32-entry byte table from the pair once per call and
    looks whole rows up with a byte permute or, where the target has
    none, computes the product in int16 lanes.  This searches for a
    ``(mult, shift)`` pair that matches the decoder's LUT on every
    representable magnitude ``0..max_int``; returns ``None`` when no
    pair reproduces it (:func:`fused_plan` then declines and the
    decoder keeps its numpy loop).
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
