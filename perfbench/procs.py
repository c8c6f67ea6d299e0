"""Process-level measurements from ``/proc``: resident memory of the
load generator and of the worker processes it forked."""

from __future__ import annotations

import os
from typing import Dict, List


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set size (``VmHWM``) in MiB."""
    return _status_kb(pid or os.getpid(), "VmHWM") / 1024.0


def reset_peak() -> bool:
    """Restart this process's ``VmHWM`` from its current RSS, so the
    peak excludes input generation.  False where the kernel refuses."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def descendants(pid: int = 0) -> List[int]:
    """Every live descendant of ``pid`` (children first)."""
    root = pid or os.getpid()
    out: List[int] = []
    todo = [root]
    while todo:
        current = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    kids = [int(x) for x in fh.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def worker_peaks_mb(pid: int = 0) -> Dict[int, float]:
    """Peak RSS of every live descendant, by pid."""
    peaks = {}
    for child in descendants(pid):
        try:
            peaks[child] = peak_rss_mb(child)
        except (OSError, KeyError):
            pass
    return peaks
