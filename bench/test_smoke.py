"""Smoke tests of the benchmark harness, so that it cannot rot unnoticed.

    python -m pytest bench/test_smoke.py

Each workload runs its short warm-up list once (``--smoke``), untraced
and traced, and must print a well-formed, correct result with every
metric ``BENCHMARK.json`` names. The benchmark's own reference model is
checked against its closed forms, and a deliberately wrong answer must
fail its checks.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, "landscape", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("n, k", [(5, 0), (10, 4), (17, 14)])
def test_closed_forms_match_the_protocol_product(n, k):
    names = ("P1", "P2", "M")
    grid = ref.p1p2m_grid(n, k)
    assert ref.exact_game(names, math.pi / 2, n, k) == grid
    a, b = ref.float_game([ref.MOVES[x] for x in names], math.pi / 2, n, k)
    assert np.allclose(np.array(grid[0], dtype=float), a) and np.allclose(np.array(grid[1], dtype=float), b)
    assert ref.classical_total(n, k, 2) == Fraction((k + 2) ** 2, n) + (n - k - 2)


def test_checks_reject_a_non_equilibrium():
    a, b = ref.p1p2m_grid(10, 4)
    mm = ref.parse_label("pure:(M,M)", ("P1", "P2", "M"))
    p1p1 = ref.parse_label("pure:(P1,P1)", ("P1", "P2", "M"))
    assert ref.br_gain(a, b, *mm) <= ref.TOL
    assert ref.br_gain(a, b, *p1p1) > ref.TOL


def test_timing_metrics_scale_by_the_host_factor():
    import run

    # two classes; the second block ran on a host twice as fast as the reference
    blocks = [
        run.Block(0.0, [("a", 0.010, 1.0), ("b", 0.030, 1.0)]),
        run.Block(0.0, [("a", 0.005, 2.0), ("b", 0.015, 2.0)]),
        run.Block(0.0, [("a", 0.010, 1.0), ("b", 0.030, 1.0)]),
    ]
    scaled = run.timing_metrics(blocks, scaled=True)
    assert math.isclose(scaled["ops_per_s"], 2 / 0.040)
    assert math.isclose(scaled["op_ms_p50"], 20.0)
    raw = run.timing_metrics(blocks, scaled=False)
    assert math.isclose(raw["op_ms_p50"], 12.5)
    assert run.host_factor(run.PROBE_REF_S / 2) == 2.0
