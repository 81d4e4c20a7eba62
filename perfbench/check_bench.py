"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout with::

    python3 -m pytest perfbench/check_bench.py -q

It is kept out of the default test collection (the file name does not match
``test_*.py``) so the library's test suite never runs the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Counts the program makes that must repeat exactly for one seed.
EXACT = (
    "kernels.calls",
    "kernels.flops",
    "runtime.tasks",
    "core.steps",
    "criteria.lu_step_frac",
    "api.session.misses",
    "api.session.hit_rate",
)


def _tiny(name: str, trace: bool, seed: int = 3) -> dict:
    return run.summarize(workloads.run(name, seed, 1.0, trace, configs=workloads.TINY))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(name):
    assert name in [w["name"] for w in SPEC["workloads"]]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        summary = _tiny(name, trace)
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        printed = {k: v["unit"] for k, v in summary["metrics"].items()}
        assert printed == expected
        assert all(np.isfinite(v["value"]) for v in summary["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_one_seed(name):
    first, second = _tiny(name, True), _tiny(name, True)
    assert first["attempted"] == second["attempted"]
    for key in EXACT:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_traced_self_times_cover_the_op():
    summary = _tiny("hybrid_solve", True)
    assert summary["metrics"]["trace.coverage"]["value"] >= 0.95
    assert summary["metrics"]["kernels.calls"]["value"] > 0


def test_gate_counts_a_perturbed_solution_as_failed(monkeypatch):
    from repro.core.solver_base import TiledSolverBase

    original = TiledSolverBase.solve

    def perturbed(self, a, b, x_true=None):
        result = original(self, a, b, x_true)
        result.x = result.x * (1.0 + 1e-6)
        return result

    monkeypatch.setattr(TiledSolverBase, "solve", perturbed)
    summary = _tiny("hybrid_solve", False)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"]
    assert summary["metrics"]["ok_frac"]["value"] == 0.0


def test_gate_rejects_non_finite_and_accepts_exact():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((16, 16)), rng.standard_normal(16)
    x = np.linalg.solve(a, b)
    assert workloads.gate(a, x, b) is None
    assert workloads.gate(a, np.full(16, np.nan), b) is not None
    assert workloads.gate(a, None, b) is not None


def test_self_time_splits_concurrent_children():
    # root [0, 10]; A [1, 4] with child G [2, 3]; B [3, 6] on another thread.
    spans = [
        ["op", 0.0, 10.0, None, 0, 1],
        ["a", 1.0, 4.0, 0, 0, 1],
        ["g", 2.0, 3.0, 1, 0, 1],
        ["b", 3.0, 6.0, 0, 0, 2],
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx([5.0, 1.5, 1.0, 2.5])
    assert sum(own) == pytest.approx(10.0)


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hybrid_solve", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
