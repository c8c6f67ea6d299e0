"""Assert a fabric chaos soak left balanced books and a healed worker.

The CI ``fabric-smoke`` job runs ``repro fabric --chaos-kill-worker-after``
under ``repro loadgen --connect`` load, then points this script at the
gateway's ``--metrics-out`` snapshot::

    python benchmarks/verify_fabric_soak.py metrics.json --workers 2 --n 2160

Checks: the merged snapshot carries every per-worker sub-view, the
SIGKILLed worker was respawned at least once, request accounting
balances (``completed + rejected + expired + failed == submitted``),
and no frame failed — i.e. the healed kill lost nothing.  With ``--n``
(the code length: 2160 at ``--parallelism 12``) it also checks that
frames crossed to the workers as one byte per LLR
(``serve.dispatch.llr_bytes == serve.dispatch.frames * n``; float64
frames would read 8n).  Exit 0 on success, 1 with a reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def verify(snapshot: dict, *, workers: int, expect_restart: bool = True,
           n: Optional[int] = None) -> List[str]:
    """Return a list of violations (empty when the soak was clean);
    ``n`` (the code length) adds the worker-payload check."""
    problems = []
    expected_views = {"fabric"} | {f"worker{i}" for i in range(workers)}
    views = set(snapshot.get("workers", {}))
    if views != expected_views:
        problems.append(
            f"merged snapshot views {sorted(views)} != "
            f"expected {sorted(expected_views)}"
        )
    counters = snapshot.get("counters", {})
    submitted = counters.get("serve.requests.submitted", 0)
    if submitted <= 0:
        problems.append("no requests reached the fabric")
    exits = sum(
        counters.get(key, 0)
        for key in (
            "serve.requests.completed",
            "serve.requests.rejected",
            "serve.requests.expired",
            "serve.requests.failed",
        )
    )
    if exits != submitted:
        problems.append(
            f"accounting unbalanced: {exits} exits != "
            f"{submitted} submitted"
        )
    failed = counters.get("serve.requests.failed", 0)
    if failed:
        problems.append(f"{failed} frames failed: the kill lost work")
    if expect_restart and counters.get("pool.worker_restart", 0) < 1:
        problems.append(
            "chaos kill was not healed (pool.worker_restart == 0)"
        )
    if n is not None:
        frames = counters.get("serve.dispatch.frames", 0)
        llr_bytes = counters.get("serve.dispatch.llr_bytes", 0)
        if frames <= 0:
            problems.append("no frames were dispatched to a worker")
        elif llr_bytes != frames * n:
            problems.append(
                f"{llr_bytes} LLR bytes sent for {frames} frames: "
                f"{llr_bytes / frames:g} per frame, not n = {n}"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify a fabric chaos-soak metrics snapshot "
                    "(see module docstring).",
    )
    parser.add_argument("snapshot", help="gateway --metrics-out JSON")
    parser.add_argument("--workers", type=int, default=2,
                        help="fabric worker count the soak ran with")
    parser.add_argument("--no-restart", action="store_true",
                        help="soak ran without a chaos kill; do not "
                             "require a worker restart")
    parser.add_argument("--n", type=int, default=None,
                        help="code length of the soak; checks that "
                             "frames went to the workers as n bytes")
    args = parser.parse_args(argv)

    with open(args.snapshot) as handle:
        snapshot = json.load(handle)
    problems = verify(snapshot, workers=args.workers,
                      expect_restart=not args.no_restart, n=args.n)
    if problems:
        for problem in problems:
            print(f"soak violation: {problem}", file=sys.stderr)
        return 1
    counters = snapshot["counters"]
    print(
        f"soak ok: {counters['serve.requests.submitted']} frames "
        f"submitted, {counters.get('serve.requests.completed', 0)} "
        f"completed, {counters.get('pool.worker_restart', 0)} worker "
        f"restart(s), {counters.get('fabric.chunks.redriven', 0)} "
        f"chunk(s) redriven"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
