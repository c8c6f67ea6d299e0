"""The per-user cache of built decode kernels (``repro.decode._cnative``).

A process loads ``zigzag_kernels-<key>.so`` from
``<tempfile.gettempdir()>/repro-kernel-cache-<uid>/`` when an earlier
process built the same key, and otherwise builds it there and publishes
it with one rename.  Every test points ``tempfile.tempdir`` (or, for
child processes, ``TMPDIR``) at its own ``tmp_path`` and resets the
memoised load, so each starts on a cold cache.
"""

from __future__ import annotations

import os
import shutil
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.decode import _cnative, available_backends
from repro.decode.batch import make_batch_decoder

HAVE_CNATIVE = "cnative" in available_backends()
needs_kernel = pytest.mark.skipif(
    not HAVE_CNATIVE, reason="no working C compiler"
)
pytestmark = pytest.mark.skipif(
    not hasattr(os, "getuid"), reason="the cache is per POSIX user"
)
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
CACHE_NAME = f"repro-kernel-cache-{getattr(os, 'getuid', lambda: '')()}"


@pytest.fixture(scope="session")
def working_lib():
    """Path of the kernel library this test run loaded, to plant in a
    test's cache (resolved before any test resets the load)."""
    return _cnative.load()[0]._name


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """A cold cache under ``tmp_path``: the next load in this process,
    or in a worker it forks, builds or loads the kernel there."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_cnative, "_STATE", None)
    monkeypatch.setattr(_cnative, "_ORIGIN", None)
    return tmp_path


def _reload(monkeypatch):
    monkeypatch.setattr(_cnative, "_STATE", None)
    lib, reason = _cnative.load()
    return lib, reason, _cnative.origin()


def _entry(cache_dir, cc, flags=_cnative.NATIVE_FLAGS):
    key = _cnative.cache_key(cc, flags)
    return os.path.join(cache_dir, f"zigzag_kernels-{key}{_cnative._SUFFIX}")


def _no_compiler(*args, **kwargs):
    raise AssertionError(f"the compiler ran: {args}")


def _assert_decodes_like_numpy(code):
    llrs = np.random.default_rng(5).normal(1.5, 2.0, (6, code.n))
    ref = make_batch_decoder(code, schedule="quantized-zigzag")
    got = make_batch_decoder(
        code, schedule="quantized-zigzag", backend="cnative"
    )
    assert got._fused_plan is not None
    a = ref.decode_batch(llrs, max_iterations=15)
    b = got.decode_batch(llrs, max_iterations=15)
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.iterations, b.iterations)
    np.testing.assert_array_equal(a.converged, b.converged)


@needs_kernel
def test_first_load_builds_then_later_loads_hit(cold, monkeypatch):
    """The first load compiles and publishes one library in a mode-0700
    directory; a later load finds it and never runs the compiler."""
    lib, reason, origin = _reload(monkeypatch)
    assert reason is None
    assert "built in this process in" in origin
    cache_dir = cold / CACHE_NAME
    assert os.listdir(cold) == [CACHE_NAME]
    assert stat.S_IMODE(os.lstat(cache_dir).st_mode) == 0o700
    assert os.listdir(cache_dir) == [
        os.path.basename(_entry(cache_dir, _cnative._compiler()))
    ]
    monkeypatch.setattr(_cnative.subprocess, "run", _no_compiler)
    lib, reason, origin = _reload(monkeypatch)
    assert lib is not None and reason is None
    assert origin == (
        f"{_entry(cache_dir, _cnative._compiler())}, "
        "native build (-march=native), loaded from the kernel cache"
    )


@pytest.fixture
def fake_cc(tmp_path):
    """An executable stand-in for the compiler: the key stats it and
    never runs it."""
    path = tmp_path / "bin" / "cc"
    path.parent.mkdir()
    path.write_text("#!/bin/sh\nexit 1\n")
    path.chmod(0o755)
    return str(path)


def test_key_is_stable_and_covers_every_input(fake_cc, monkeypatch):
    monkeypatch.setattr(_cnative, "_cpu_features", lambda: "fpu sse2 avx2")
    native = _cnative.cache_key(fake_cc, _cnative.NATIVE_FLAGS)
    portable = _cnative.cache_key(fake_cc, _cnative.PORTABLE_FLAGS)
    assert native == _cnative.cache_key(fake_cc, _cnative.NATIVE_FLAGS)
    assert len({native, portable}) == 2
    assert _cnative.cache_key(
        fake_cc, _cnative.PORTABLE_FLAGS + ("-g",)
    ) not in (native, portable)
    # The CPU feature list keys the native build only.
    monkeypatch.setattr(
        _cnative, "_cpu_features", lambda: "fpu sse2 avx2 avx512f"
    )
    assert _cnative.cache_key(fake_cc, _cnative.NATIVE_FLAGS) != native
    assert _cnative.cache_key(fake_cc, _cnative.PORTABLE_FLAGS) == portable
    # No feature list: the native build is not cached at all.
    monkeypatch.setattr(_cnative, "_cpu_features", lambda: None)
    assert _cnative.cache_key(fake_cc, _cnative.NATIVE_FLAGS) is None
    assert _cnative.cache_key(fake_cc, _cnative.PORTABLE_FLAGS) == portable


def _change_source(tmp_path, monkeypatch, cc):
    copy = tmp_path / "_zigzag_kernels.c"
    copy.write_bytes(open(_cnative._SOURCE, "rb").read() + b"\n")
    monkeypatch.setattr(_cnative, "_SOURCE", str(copy))


def _change_flags(tmp_path, monkeypatch, cc):
    monkeypatch.setattr(
        _cnative, "NATIVE_FLAGS", _cnative.NATIVE_FLAGS + ("-DNDEBUG",)
    )
    monkeypatch.setattr(
        _cnative, "PORTABLE_FLAGS", _cnative.PORTABLE_FLAGS + ("-DNDEBUG",)
    )


def _touch_compiler(tmp_path, monkeypatch, cc):
    st = os.stat(cc)
    os.utime(cc, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def _grow_compiler(tmp_path, monkeypatch, cc):
    st = os.stat(cc)
    with open(cc, "a") as fh:
        fh.write("# upgraded\n")
    os.utime(cc, ns=(st.st_atime_ns, st.st_mtime_ns))


def _other_compiler(tmp_path, monkeypatch, cc):
    other = tmp_path / "bin" / "cc2"
    shutil.copy2(cc, other)
    monkeypatch.setattr(_cnative, "_compiler", lambda: str(other))


def _change_cpu(tmp_path, monkeypatch, cc):
    monkeypatch.setattr(_cnative, "_cpu_features", lambda: "fpu sse2")


@needs_kernel
@pytest.mark.parametrize(
    "change",
    [_change_source, _change_flags, _touch_compiler, _grow_compiler,
     _other_compiler, _change_cpu],
    ids=["source", "flags", "compiler-mtime", "compiler-size",
         "compiler-path", "cpu-features"],
)
def test_changed_input_misses(cold, fake_cc, working_lib, monkeypatch,
                              change):
    """A warm entry hits until one key input changes; then the loader
    runs the compiler again (stubbed here to fail)."""
    monkeypatch.setattr(_cnative, "_compiler", lambda: fake_cc)
    monkeypatch.setattr(
        _cnative, "_cpu_features", lambda: "fpu sse2 avx2"
    )
    cache_dir = cold / CACHE_NAME
    cache_dir.mkdir(mode=0o700)
    shutil.copy(working_lib, _entry(cache_dir, fake_cc))
    monkeypatch.setattr(_cnative.subprocess, "run", _no_compiler)
    assert "loaded from the kernel cache" in _reload(monkeypatch)[2]

    calls = []

    def failing_compiler(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 1, "", "stub compiler")

    change(cold, monkeypatch, fake_cc)
    monkeypatch.setattr(_cnative.subprocess, "run", failing_compiler)
    lib, reason, origin = _reload(monkeypatch)
    assert lib is None and origin is None
    assert "stub compiler" in reason
    assert calls and "-march=native" in calls[0]
    # A failed build leaves no temporary file behind.
    assert len(os.listdir(cache_dir)) == 1


@needs_kernel
def test_corrupt_entry_is_rebuilt_and_decodes_like_numpy(
    cold, monkeypatch, code_half_tiny
):
    """A file under the right name that does not load (here a truncated
    ELF header) is rebuilt and replaced, and the rebuilt kernel decodes
    exactly as numpy does."""
    cache_dir = cold / CACHE_NAME
    cache_dir.mkdir(mode=0o700)
    entry = _entry(cache_dir, _cnative._compiler())
    with open(entry, "wb") as fh:
        fh.write(b"\x7fELF truncated")
    lib, reason, origin = _reload(monkeypatch)
    assert reason is None
    assert origin.startswith(
        f"{entry}, native build (-march=native), built in this process in"
    )
    assert os.listdir(cache_dir) == [os.path.basename(entry)]
    _assert_decodes_like_numpy(code_half_tiny)


def _listing(root):
    return sorted(
        (path, os.lstat(os.path.join(path, name)).st_mtime_ns)
        for path, dirs, files in os.walk(root)
        for name in dirs + files
    )


@needs_kernel
@pytest.mark.parametrize("unsafe", ["group-writable", "world-writable",
                                    "symlink"])
def test_unsafe_cache_dir_is_never_used(cold, working_lib, monkeypatch,
                                        unsafe):
    """A cache directory someone else could have written into is never
    loaded from or written to, even when it holds a library under the
    right name; the kernel is built in a private directory instead."""
    cache_dir = cold / CACHE_NAME
    if unsafe == "symlink":
        target = cold / "elsewhere"
        target.mkdir(mode=0o700)
        cache_dir.symlink_to(target)
    else:
        cache_dir.mkdir()
        cache_dir.chmod(0o770 if unsafe == "group-writable" else 0o707)
    watched = cold / "elsewhere" if unsafe == "symlink" else cache_dir
    planted = _entry(cache_dir, _cnative._compiler())
    shutil.copy(working_lib, planted)
    before = _listing(watched)
    lib, reason, origin = _reload(monkeypatch)
    assert reason is None
    assert "private build" in origin
    assert not os.path.realpath(lib._name).startswith(
        os.path.realpath(watched) + os.sep
    )
    assert _listing(watched) == before


_RACER = r"""
import numpy as np
from repro.codes import build_small_code
from repro.decode import _cnative
from repro.decode.batch import make_batch_decoder

code = build_small_code("1/2", parallelism=12)
llrs = np.random.default_rng(7).normal(1.5, 2.0, (6, code.n))
ref = make_batch_decoder(code, schedule="quantized-zigzag")
got = make_batch_decoder(code, schedule="quantized-zigzag", backend="cnative")
a = ref.decode_batch(llrs, max_iterations=15)
b = got.decode_batch(llrs, max_iterations=15)
assert got._fused_plan is not None
assert (a.bits == b.bits).all() and (a.iterations == b.iterations).all()
print(_cnative.origin())
"""


@needs_kernel
def test_racing_processes_on_a_cold_cache(cold):
    """Two processes that miss at once both build and decode correctly;
    the last rename wins, leaving one library and no temporary file."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR, TMPDIR=str(cold))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    try:
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    assert any("built in this process" in out for out, _ in outs)
    assert os.listdir(cold) == [CACHE_NAME]
    names = os.listdir(cold / CACHE_NAME)
    assert len(names) == 1 and names[0].startswith("zigzag_kernels-")


@needs_kernel
def test_workers_leave_only_the_cache_directory(cold, code_half_tiny):
    """Forked fabric and pool workers exit without running ``atexit``,
    so a build directory per worker used to stay behind in TMPDIR."""
    from repro.serve import (
        DecodeFabric,
        DecodeService,
        FabricConfig,
        ServeConfig,
    )
    from repro.sim.pool import fork_context

    if fork_context() is None:
        pytest.skip("fork start method unavailable")
    serve = ServeConfig(backend="cnative", max_batch=4, max_linger_ms=0.0)
    DecodeFabric(code_half_tiny, FabricConfig(workers=2, serve=serve)).close()
    llrs = np.random.default_rng(3).normal(1.5, 2.0, (4, code_half_tiny.n))
    with DecodeService(
        code_half_tiny, ServeConfig(backend="cnative", workers=2,
                                    max_batch=2, max_linger_ms=0.0)
    ) as service:
        for row in llrs:
            service.submit(row)
        service.flush()
        results = service.poll()
    assert len(results) == 4 and all(r.ok for r in results)
    assert os.listdir(cold) == [CACHE_NAME]
    assert len(os.listdir(cold / CACHE_NAME)) == 1
