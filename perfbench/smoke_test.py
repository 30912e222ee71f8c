"""Smoke test of the benchmark harness at tiny sizes (about half a minute).

    python3 -m pytest perfbench/smoke_test.py -q

It checks the harness, not the program's speed: every metric declared in
BENCHMARK.json is printed with its unit in both modes, a corrupted density
input counts as a failed invocation, and the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import DensityCsv, SampleCsv, Verify

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def tiny_workloads(density=None) -> dict:
    workloads = [
        SampleCsv(n=300),
        density or DensityCsv(n=300),
        Verify("verify-suite", n=500, checks=("normalization",)),
        Verify("verify-wide", n=500, m=6, r=3, checks=("normalization",)),
    ]
    return {w.name: w for w in workloads}


def run_benchmark(workloads, name, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "5", "--seconds", "1",
                         "--trace", str(trace)], workloads=workloads)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(name, trace, monkeypatch):
    code, lines, result = run_benchmark(tiny_workloads(), name, trace, monkeypatch)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")
               and len(line.split()) >= 3}
    for metric, unit in declared.items():
        assert printed.get(metric) == unit, metric
    assert printed.get("failed_ratio") == "ratio"


def _garble(path):
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    lines[4] = "1,not-a-number" + lines[4][lines[4].index(",", 2):]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def _nudge(path):
    # Within the program's 1e-8 semi-unitarity tolerance, so the program
    # accepts the frame; only the check against the reference can catch it.
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    cells = lines[4].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-8))
    lines[4] = ",".join(cells)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


class CorruptedDensity(DensityCsv):
    def __init__(self, corrupt):
        super().__init__(n=300)
        self.corrupt = corrupt

    def prepare(self, seed, workdir):
        super().prepare(seed, workdir)
        self.corrupt(os.path.join(workdir, "frames.csv"))


@pytest.mark.parametrize("corrupt", [_garble, _nudge])
def test_corrupted_density_file_counts_as_failed(corrupt, monkeypatch):
    workloads = tiny_workloads(CorruptedDensity(corrupt))
    code, lines, result = run_benchmark(workloads, "density-csv", 0, monkeypatch)
    assert code == 0
    assert result["correct"] is False
    invocations = [line for line in lines if line.startswith("  FAILED invocation")]
    assert invocations and result["failed"] == len(invocations)
    assert not any(line.startswith("  FAILED setup") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample-csv", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
