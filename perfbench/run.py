#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload mc-normal --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  This process is a supervisor: it
starts the workload in its own process (own process group, wall-clock
bound), then two more fresh processes that only set the system up, so
``setup_s`` is a median of three.  It checks that no process of a run
outlives it, prints every metric with its unit, the output checks and
(with ``--trace 1``) the per-layer table, and ends with one JSON line:
the end-to-end metrics untraced, the per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")

#: Wall-clock bounds (seconds): the whole command, one workload run,
#: one set-up-only process.
TOTAL_BOUND_S = 170.0
RUN_BOUND_S = 130.0
SETUP_BOUND_S = 25.0
#: Extra fresh-process set-ups per untraced run (median of 1 + this).
EXTRA_SETUPS = 2
#: The traced run's generator spans must cover this share of its wall.
LEDGER_MIN_COVERAGE = 0.95

#: Units of the printed-only metrics.  The latency metrics are measured
#: on every workload but not gated: on a 2-CPU host whose speed drifted
#: by up to 30 % between runs (CPU steal), their run-to-run spread was
#: 0.15-0.34 of the median, past the largest bound BENCHMARK.json allows.
INFO_UNITS = {
    "p50_ms.light": "ms",
    "tail_ms.light": "ms",
    "p50_ms.heavy": "ms",
    "tail_ms.heavy": "ms",
    "frames_per_s": "frames/s",
    "fer": "share",
    "fail_share": "share",
    "eq8_mbps": "Mbit/s",
    "sim.overhead_share": "share",
    "saturation_fps": "frames/s",
    "saturation.tail_ms": "ms",
    "serve.batch_occupancy": "frames",
    "serve.queue_ms.p50": "ms",
    "serve.queue_ms.p99": "ms",
    "serve.shed_share": "share",
    "gen.late_ms.p99": "ms",
    "gen.idle_share": "share",
    "fabric.submit_us": "us",
    "fabric.pump_ms": "ms",
    "fabric.poll_us": "us",
    "fabric.return_ms.p50": "ms",
    "fabric.return_ms.p99": "ms",
    "transport.bytes_per_frame (computed)": "bytes",
    "acm.submit_us": "us",
    "acm.pump_ms": "ms",
    "acm.poll_us": "us",
    "acm.observe_us": "us",
    "rss_mb.parent": "MiB",
    "rss_mb.workers": "MiB",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Child side: runs inside its own process group.
def child_main(args) -> int:
    import workloads
    from spans import NO_SPANS, SpanRecorder, span_cost_s

    traced = bool(args.trace)
    spans = SpanRecorder() if traced else NO_SPANS
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, spans
    )
    if args.role == "setup":
        out = workload.run_setup_only()
    else:
        workload.run(traced)
        if traced:
            ledger_layers(workload, span_cost_s())
            path = os.path.join(
                STATE, f"spans-{args.workload}-{args.seed}.jsonl"
            )
            spans.write(path)
            workload.info["spans_file"] = os.path.relpath(path, ROOT)
        out = workload.result()
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def ledger_layers(workload, span_cost: float) -> None:
    """Generator-span coverage of the measured windows, and the tracing
    overhead (spans recorded there times the cost of one span)."""
    import stats

    spans = workload.spans.spans
    wall = covered = 0.0
    count = 0
    for t0, t1 in workload.windows:
        led = stats.ledger(spans, t0, t1)
        wall += led["wall_s"]
        covered += led["wall_s"] - led["uncovered_s"]
        count += sum(1 for s in spans if t0 <= s[1] and s[2] <= t1)
        for name, sec in led["by_name_s"].items():
            key = f"ledger.{name}_s"
            workload.info[key] = workload.info.get(key, 0.0) + sec
    share = covered / wall
    workload.layers["gen.covered_share"] = share
    workload.layers["trace.overhead_share"] = span_cost * count / wall
    workload.check(
        "traced generator spans cover the measured wall time",
        share >= LEDGER_MIN_COVERAGE,
        f"{100 * share:.2f}% of {wall:.2f} s "
        f"(tolerance {100 * (1 - LEDGER_MIN_COVERAGE):.0f}%)",
    )


# ----------------------------------------------------------------------
# Supervisor side.
def group_members(pgid: int) -> list:
    """Live (non-zombie) processes of a process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in "ZX":
            members.append(int(entry))
    return members


def run_child(args, role: str, bound_s: float, env: dict) -> dict:
    """Run one child in its own process group under ``bound_s``.

    Returns ``{"out": result or None, "progress": [...], "timed_out",
    "survivors", "code"}``.  On expiry the group is killed.
    """
    out_path = os.path.join(
        STATE, f"out-{role}-{args.workload}-{args.seed}-{os.getpid()}.json"
    )
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--out", out_path,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    timed_out = False
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, bound_s))
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
    survivors = []
    deadline = time.monotonic() + 5.0
    while True:
        survivors = group_members(proc.pid)
        if not survivors or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    if survivors:
        os.killpg(proc.pid, signal.SIGKILL)
    progress = [
        json.loads(line[len("PROGRESS "):])
        for line in stdout.splitlines() if line.startswith("PROGRESS ")
    ]
    result = None
    if proc.returncode == 0 and os.path.exists(out_path):
        with open(out_path) as fh:
            result = json.load(fh)
        os.remove(out_path)
    return {
        "out": result, "progress": progress, "timed_out": timed_out,
        "survivors": survivors, "code": proc.returncode,
    }


def killed_counts(progress: list) -> tuple:
    """(attempted, failed) of a killed run: finished phases as
    reported, the unfinished phase wholly failed."""
    attempted = failed = 0
    open_frames = 0
    for event in progress:
        if event.get("done"):
            attempted += event["attempted"]
            failed += event["failed"]
            open_frames = 0
        else:
            open_frames = event.get("frames", 0)
    return attempted + open_frames, failed + open_frames


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def remember(args, out: dict) -> dict:
    """Keep this workload's last untraced figures for the ceilings and
    tracing-overhead lines of later runs in the same checkout."""
    path = os.path.join(STATE, "last.json")
    try:
        with open(path) as fh:
            last = json.load(fh)
    except (OSError, ValueError):
        last = {}
    if not args.trace:
        last[args.workload] = {"e2e": out["e2e"], "seed": args.seed}
        with open(path, "w") as fh:
            json.dump(last, fh)
    return last


def report(args, spec: dict, out: dict, setups: list, last: dict) -> None:
    p = print
    p(f"perfbench {args.workload}  seed={args.seed}  "
      f"seconds={args.seconds}  trace={args.trace}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(
        (name, INFO_UNITS[name]) for name in out["e2e"] if name not in units
    )
    info = out["info"]
    p("  end-to-end (gated in BENCHMARK.json, then measured only):")
    for name, unit in units.items():
        value = out["e2e"].get(name)
        note = ""
        if name.startswith("tail_ms"):
            phase = name.split(".")[1]
            note = (f"  (p{fmt(info.get('tail_q.' + phase))} of "
                    f"{info.get('samples.' + phase)} samples)")
        if name == "setup_s" and setups:
            note = "  (median of " + ", ".join(fmt(s) for s in setups) + ")"
        p(f"    {name:<24} {fmt(value):>12} {unit}{note}")
    p("  also measured:")
    for name in sorted(info):
        if name in INFO_UNITS:
            p(f"    {name:<36} {fmt(info[name]):>12} {INFO_UNITS[name]}")
    mc = last.get("mc-normal", {}).get("e2e", {}).get("capacity_fps")
    ceiling = f"{mc:.4g} frames/s" if mc else "no mc-normal run yet"
    p(f"  ceilings: offline mc-normal frames_per_s {ceiling}; "
      f"this run {fmt(out['e2e'].get('capacity_fps'))} frames/s; "
      f"Eq. 7/8 at measured iterations/frame: {fmt(info.get('eq8_mbps'))} "
      "Mbit/s")
    p("  checks:")
    for check in out["checks"]:
        mark = "ok " if check["ok"] else "FAIL"
        p(f"    [{mark}] {check['name']}: {check['detail']}")
    if args.trace:
        p("  per-layer (traced run):")
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(out["layers"]):
            p(f"    {name:<28} {fmt(out['layers'][name]):>12} "
              f"{layer_units.get(name, INFO_UNITS.get(name, 's'))}")
        for name in sorted(info):
            if name.startswith("ledger."):
                p(f"    {name:<28} {fmt(info[name]):>12} s")
        before = last.get(args.workload, {}).get("e2e", {})
        for name in ("p50_ms.heavy", "capacity_fps"):
            if name in before and name in out["e2e"]:
                p(f"    tracing overhead on {name}: traced "
                  f"{fmt(out['e2e'][name])} vs last untraced "
                  f"{fmt(before[name])}")


def supervise(args) -> int:
    spec = load_spec()
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The lazy kernel compile writes to the temporary directory.
    env["TMPDIR"] = os.path.join(STATE, "tmp")
    start = time.monotonic()
    main = run_child(args, "run", min(RUN_BOUND_S, TOTAL_BOUND_S), env)
    if main["timed_out"]:
        attempted, failed = killed_counts(main["progress"])
        print(f"perfbench {args.workload}: run exceeded {RUN_BOUND_S} s; "
              f"killed, {failed} of {attempted} frames unfinished")
        print(json.dumps({
            "correct": False, "attempted": max(1, attempted),
            "failed": failed, "metrics": {},
        }))
        return 1
    if main["out"] is None:
        print(f"perfbench {args.workload}: run failed "
              f"(exit {main['code']})", file=sys.stderr)
        return 2
    out = main["out"]
    checks = out["checks"]
    checks.append({
        "name": "no process of the run outlived it",
        "ok": not main["survivors"],
        "detail": f"survivors {main['survivors']}" if main["survivors"]
        else "process group empty",
    })
    setups = [out["setup"]["setup_s"]]
    if not args.trace:
        for _ in range(EXTRA_SETUPS):
            left = TOTAL_BOUND_S - (time.monotonic() - start)
            extra = run_child(args, "setup", min(SETUP_BOUND_S, left), env)
            if extra["out"] is None or extra["survivors"]:
                print(f"perfbench {args.workload}: set-up run failed "
                      f"(exit {extra['code']}, survivors "
                      f"{extra['survivors']})", file=sys.stderr)
                return 2
            setups.append(extra["out"]["setup"]["setup_s"])
    out["e2e"]["setup_s"] = statistics.median(setups)
    last = remember(args, out)
    report(args, spec, out, setups, last)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        source = out["layers"] if args.trace else out["e2e"]
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(c["ok"] for c in checks),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("supervise", "run", "setup"),
                        default="supervise", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in {w["name"] for w in load_spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.role == "supervise":
        return supervise(args)
    return child_main(args)


if __name__ == "__main__":
    sys.exit(main())
