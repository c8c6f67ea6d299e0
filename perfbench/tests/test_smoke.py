"""Short runs of every workload through the real command.

Each run checks that the last line is the result object, that every
metric of ``BENCHMARK.json`` is there with its unit, that the outputs
were checked, and that the printed report names the workload's other
metrics with units.  About a minute and a half in all on a 2-CPU host.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

#: Report lines each workload must print besides the JSON metrics.
PRINTED = {
    "mc-normal": ["frames_per_s", "fer", "fail_share",
                  "sim.overhead_share", "Eq. 7/8"],
    "fabric-normal": ["fer", "fail_share", "fabric.return_ms.p99",
                      "transport.bytes_per_frame (computed)",
                      "serve.queue_ms.p99", "gen.late_ms.p99"],
    "acm-mixed": ["fer", "fail_share", "serve.shed_share",
                  "gen.idle_share"],
}
PRINTED_TRACED = {
    "mc-normal": [],
    "fabric-normal": ["fabric.submit_us", "fabric.pump_ms",
                      "fabric.poll_us"],
    "acm-mixed": ["acm.submit_us", "acm.pump_ms", "acm.poll_us",
                  "acm.observe_us"],
}


def run(workload, trace, seconds=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    report, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    text = "\n".join(report)
    for m in section:
        assert m["name"] in text
    for name in ("p50_ms.light", "tail_ms.light", "p50_ms.heavy",
                 "tail_ms.heavy"):
        assert name in text
    wanted = PRINTED[workload] + (PRINTED_TRACED[workload] if trace else [])
    for name in wanted:
        assert name in text, name
    assert "[FAIL]" not in text


def test_fails_without_the_program(tmp_path):
    """Only the benchmark's own files: no result, non-zero exit."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-normal",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
