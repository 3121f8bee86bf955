"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_selftest.py

Checks that every metric is printed with its unit on every workload, that a
corrupted artifact is counted as a failed job, and that the exact work counts
repeat for a fixed seed.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SCALES, WORKLOADS, Workload  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def bench(workload: str, trace: int, seed: int = 3) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    stdout, result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in {**wanted, "failed_frac": "ratio"}.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in stdout.splitlines()), name
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_fixed_seed(workload):
    first, result = bench(workload, trace=1)
    _, again = bench(workload, trace=1)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert "repeat across passes: yes" in first
    for name in tracing.EXACT_COUNTS:
        assert result["metrics"][name]["value"] == again["metrics"][name]["value"], name
    busiest = {"anderson-dense": "numkit.commutator.flops",
               "minimize-restarts": "minimize.iterations",
               "certify-mix": "matio.bytes_read"}[workload]
    assert result["metrics"][busiest]["value"] > 0


def test_corrupted_artifact_counts_as_failed(tmp_path, capsys):
    sys.path.insert(0, run.SRC)
    cli = importlib.import_module("commlab.cli")
    workload = Workload("certify-mix", 5, str(tmp_path), SCALES["tiny"])
    type_a_per_round = len(SCALES["tiny"].type_a_dims)

    def perturb_y(job, out):
        if job.kind == "solve-selfcomm-A":
            path = os.path.join(out, "Y.txt")
            with open(path) as handle:
                lines = handle.read().splitlines()
            re, im = (float(x) for x in lines[2].split())
            lines[2] = f"{re + 1e-3:.17g} {im:.17g}"
            with open(path, "w") as handle:
                handle.write("\n".join(lines) + "\n")

    runner = run.Runner(cli, str(tmp_path), after_job=perturb_y)
    result = run.measure(runner, workload, 0.05)
    # The warm-up round is attempted too: every type A job of every round fails.
    assert runner.failed == type_a_per_round * (result["rounds"] + 1)
    assert all(line.startswith("solve-selfcomm-A") for line in runner.errors)

    run.print_end_to_end(run.parse_args(["--workload", "certify-mix", "--seed", "5", "--seconds", "1"]),
                         result, [0.1], runner, 1.0)
    line = next(x for x in capsys.readouterr().out.splitlines() if x.split()[:1] == ["failed_frac"])
    assert float(line.split()[1]) == pytest.approx(runner.failed / runner.attempted)
    assert runner.failed / runner.attempted > 0
