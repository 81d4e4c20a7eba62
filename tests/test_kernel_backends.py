"""Tests of the pluggable kernel-backend layer.

Covers the registry plumbing (unknown names list the available backends,
``resolve_backend`` shares singletons), the numerical contract (the
``numpy`` backend is bit-identical to the sequential reference on every
executor; ``fused`` meets backward-error tolerance on the
adversarial Table III matrices for all five solvers), the fused-task
bookkeeping (``fused`` counts flow into traces and are normalized by
``collect_samples``), the per-backend calibration format, autotuned
backend selection, and the facade threading of ``kernel_backend=``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.facade import SolverSpec, make_kernel_backend, make_solver
from repro.api.registry import KERNEL_BACKENDS, SOLVERS
from repro.kernels.backends import (
    FusedBackend,
    KernelBackend,
    NumpyBackend,
    resolve_backend,
)
from repro.matrices import registry as matrix_registry
from repro.perf.autotune import autotune_config
from repro.perf.calibrate import (
    Calibration,
    calibration_path,
    clear_calibration_cache,
    collect_samples,
    run_calibration,
)
from repro.runtime.executor import ExecutionTrace, ThreadedExecutor
from repro.runtime.process_executor import ProcessExecutor

ALGORITHMS = ["hybrid", "lupp", "lu_nopiv", "lu_incpiv", "hqr"]

#: Adversarial Table III matrices on which all five solvers complete
#: (no LU NoPiv/IncPiv breakdown at this size).
SPECIAL_MATRICES = ["circul", "condex", "lehmer", "orthog", "house"]


@pytest.fixture()
def isolated_calibration(tmp_path, monkeypatch):
    path = tmp_path / "calibration.json"
    monkeypatch.setenv("REPRO_CALIBRATION", str(path))
    clear_calibration_cache()
    yield path
    clear_calibration_cache()


def _system(n=64, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal(n).astype(dtype)
    return a, b


# --------------------------------------------------------------------------- #
# Registry and resolution
# --------------------------------------------------------------------------- #
def test_unknown_backend_lists_available_options():
    with pytest.raises(ValueError, match="available:.*fused.*numpy"):
        KERNEL_BACKENDS.get("nope")
    with pytest.raises(ValueError, match="available:"):
        resolve_backend("nope")


def test_builtin_backends_are_registered():
    assert isinstance(KERNEL_BACKENDS.get("numpy"), type)
    for name, cls in [("numpy", NumpyBackend), ("fused", FusedBackend)]:
        assert KERNEL_BACKENDS.get(name) is cls
    # Aliases resolve to the same classes.
    assert KERNEL_BACKENDS.get("reference") is NumpyBackend
    assert KERNEL_BACKENDS.get("batched") is FusedBackend


def test_auto_is_reserved_for_the_facade():
    with pytest.raises(ValueError, match="facade"):
        KERNEL_BACKENDS.get("auto")


def test_resolve_backend_shares_singletons():
    assert resolve_backend("fused") is resolve_backend("fused")
    assert resolve_backend("fused") is resolve_backend("batched")
    assert resolve_backend(None).name == "numpy"
    instance = FusedBackend()
    assert resolve_backend(instance) is instance
    assert make_kernel_backend("fused").name == "fused"


def test_backend_flags():
    assert not resolve_backend("numpy").fuses
    assert resolve_backend("fused").fuses
    assert not KernelBackend().fuses


# --------------------------------------------------------------------------- #
# Numerical contract
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_numpy_backend_bit_identical_across_executors(algorithm):
    cls = SOLVERS.get(algorithm)
    a, b = _system(64)
    ref = cls(tile_size=16).solve(a, b)  # seed reference: no backend arg path
    for executor in [None, ThreadedExecutor(workers=4)]:
        res = cls(tile_size=16, kernel_backend="numpy", executor=executor).solve(a, b)
        assert np.array_equal(res.x, ref.x)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", ["fused"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("matrix", SPECIAL_MATRICES)
def test_fused_backends_meet_backward_error_tolerance(
    algorithm, backend, dtype, matrix
):
    n = 48
    a = matrix_registry.build(matrix, n).astype(dtype)
    rng = np.random.default_rng(20140401)
    b = rng.standard_normal(n).astype(dtype)
    cls = SOLVERS.get(algorithm)
    ref = cls(tile_size=8, kernel_backend="numpy").solve(a, b)
    res = cls(tile_size=8, kernel_backend=backend).solve(a, b)
    be_ref = ref.stability.backward_error
    be = res.stability.backward_error
    # The fused plan replays per-column program order, so it tracks the
    # reference closely; allow headroom for reassociated stacked GEMMs.
    assert be <= max(10.0 * be_ref, 1e-12)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fused_backend_inline_matches_threaded(algorithm):
    cls = SOLVERS.get(algorithm)
    a, b = _system(64, seed=3)
    inline = cls(tile_size=16, kernel_backend="fused").solve(a, b)
    threaded = cls(
        tile_size=16, kernel_backend="fused", executor=ThreadedExecutor(workers=4)
    ).solve(a, b)
    assert np.array_equal(inline.x, threaded.x)


def test_fused_backend_on_process_executor():
    a, b = _system(64, seed=5)
    cls = SOLVERS.get("hybrid")
    ref = cls(tile_size=16, kernel_backend="fused").solve(a, b)
    res = cls(
        tile_size=16,
        kernel_backend="fused",
        executor=ProcessExecutor(workers=2),
    ).solve(a, b)
    assert np.array_equal(res.x, ref.x)


# --------------------------------------------------------------------------- #
# Fused-task bookkeeping
# --------------------------------------------------------------------------- #
def test_fused_tasks_carry_batch_counts():
    from repro.core.factorization import StepRecord
    from repro.core.lu_step import lu_step_tasks
    from repro.core.panel_analysis import analyze_panel
    from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
    from repro.tiles.tile_matrix import TileMatrix

    a, _ = _system(64, seed=7)
    tiles = TileMatrix.from_dense(a + 4.0 * np.eye(64), 16)
    dist = BlockCyclicDistribution(ProcessGrid(1, 1), tiles.n)
    analysis = analyze_panel(tiles, dist, 0, domain_pivoting=True)
    record = StepRecord(k=0, kind="LU")

    per_tile = lu_step_tasks(tiles, 0, analysis, StepRecord(k=0, kind="LU"))
    fused = lu_step_tasks(
        tiles, 0, analysis, record, backend=resolve_backend("fused")
    )
    per_tile_gemms = [t for t in per_tile if t.kernel == "gemm"]
    fused_gemms = [t for t in fused if t.kernel == "gemm"]
    assert len(fused_gemms) < len(per_tile_gemms)
    assert all(t.fused == tiles.n - 1 for t in fused_gemms)
    # Logical kernel counts are preserved (Table-I accounting).
    assert record.kernel_counts["gemm"] == len(per_tile_gemms)


def test_execution_trace_records_fused_counts():
    cls = SOLVERS.get("lupp")
    a, b = _system(64, seed=9)
    solver = cls(
        tile_size=16, kernel_backend="fused", executor=ThreadedExecutor(workers=2)
    )
    solver.solve(a, b)
    fused_counts = [
        m for trace in solver.step_traces for m in trace.fused_of_task.values()
    ]
    assert fused_counts and all(m > 1 for m in fused_counts)


def test_collect_samples_normalizes_fused_durations():
    trace = ExecutionTrace()
    trace.kernel_of_task = {0: "gemm"}
    trace.start_times = {0: 0.0}
    trace.finish_times = {0: 3.0}
    trace.fused_of_task = {0: 3}
    samples = collect_samples([trace], tile_size=16)
    assert samples[("gemm", 16)] == [1.0, 1.0, 1.0]


# --------------------------------------------------------------------------- #
# Per-backend calibration and autotuning
# --------------------------------------------------------------------------- #
def test_run_calibration_keeps_per_backend_tables(isolated_calibration):
    cal = run_calibration(
        n=48,
        tile_sizes=(8,),
        algorithms=("lupp",),
        kernel_backends=("numpy", "fused"),
    )
    assert "gemm" in cal.kernels
    assert "gemm" in cal.backends["fused"]
    assert set(cal.calibrated_backends()) == {"numpy", "fused"}
    on_disk = json.loads(isolated_calibration.read_text())
    assert on_disk["version"] == 3
    assert "fused" in on_disk["backends"]
    reloaded = Calibration.load(isolated_calibration)
    assert reloaded.n_samples == cal.n_samples
    assert reloaded.kernel_duration("gemm", 8, backend="fused") is not None


def test_calibration_view_prefers_backend_table():
    cal = Calibration()
    cal.add_samples({("gemm", 16): [4.0], ("trsm", 16): [2.0]})
    cal.add_samples({("gemm", 16): [1.0]}, backend="fused")
    view = cal.view("fused")
    assert view.kernel_duration("gemm", 16) == 1.0
    # Kernels the backend never observed fall back to the reference table.
    assert view.kernel_duration("trsm", 16) == 2.0
    assert cal.view("numpy") is cal
    assert cal.view(None) is cal


def test_calibration_rejects_pre_lapack_formats():
    cal = Calibration()
    cal.add_samples({("gemm", 16): [1.0]})
    data = cal.to_dict()
    assert Calibration.from_dict(data).kernel_duration("gemm", 16) == 1.0
    for version in (1, 2, 99):
        with pytest.raises(ValueError):
            Calibration.from_dict({**data, "version": version})


def _synthetic_calibration(gemm_numpy: float, gemm_fused: float) -> Calibration:
    cal = Calibration(host="test")
    kernels = ["getrf", "swptrsm", "trsm", "gemm", "gemm_rhs"]
    for nb in (8, 16):
        scale = (nb / 16.0) ** 3
        cal.add_samples(
            {(k, nb): [gemm_numpy * scale] * 4 for k in kernels}
        )
        cal.add_samples(
            {(k, nb): [gemm_fused * scale] * 4 for k in kernels},
            backend="fused",
        )
    return cal


def test_autotune_picks_the_faster_backend():
    fast_fused = _synthetic_calibration(gemm_numpy=1e-4, gemm_fused=1e-5)
    cfg = autotune_config(64, calibration=fast_fused, workers=1, kernel_backends="auto")
    assert cfg.source == "calibrated"
    assert cfg.kernel_backend == "fused"

    fast_numpy = _synthetic_calibration(gemm_numpy=1e-5, gemm_fused=1e-4)
    cfg = autotune_config(64, calibration=fast_numpy, workers=1, kernel_backends="auto")
    assert cfg.kernel_backend == "numpy"


def test_autotune_backend_tie_breaks_toward_fused():
    tied = _synthetic_calibration(gemm_numpy=1e-5, gemm_fused=1e-5)
    cfg = autotune_config(64, calibration=tied, workers=1, kernel_backends="auto")
    assert cfg.kernel_backend == "fused"


def test_autotune_without_backends_keeps_legacy_shape():
    cal = _synthetic_calibration(1e-5, 1e-5)
    cfg = autotune_config(64, calibration=cal, workers=1)
    assert cfg.kernel_backend is None


def test_autotune_fallback_backend_without_calibration():
    cfg = autotune_config(64, calibration=None, workers=1, kernel_backends="auto")
    assert cfg.source == "fallback"
    assert cfg.kernel_backend == "fused"


# --------------------------------------------------------------------------- #
# Facade threading
# --------------------------------------------------------------------------- #
def test_make_solver_threads_kernel_backend():
    for algorithm in ALGORITHMS:
        solver = make_solver(algorithm, tile_size=16, kernel_backend="fused")
        assert solver.kernel_backend.name == "fused"
    solver = make_solver("hybrid", tile_size=16)
    assert solver.kernel_backend.name == "numpy"


def test_make_solver_rejects_unknown_backend():
    with pytest.raises(ValueError, match="available:"):
        make_solver("hybrid", tile_size=16, kernel_backend="bogus")


def test_make_solver_resolves_auto_backend(isolated_calibration):
    solver = make_solver(
        "hybrid", tile_size=16, kernel_backend="auto", size_hint=64
    )
    # No calibration on disk: the fallback picks the fused sweep.
    assert solver.kernel_backend.name == "fused"


def test_solver_spec_carries_kernel_backend():
    spec = SolverSpec(algorithm="lupp", tile_size=16, kernel_backend="fused")
    solver = make_solver(spec)
    assert solver.kernel_backend.name == "fused"


def test_facade_solve_with_fused_backend_matches_reference():
    import repro

    a, b = _system(64, seed=11)
    ref = repro.solve(a, b, algorithm="hybrid", tile_size=16)
    res = repro.solve(a, b, algorithm="hybrid", tile_size=16, kernel_backend="fused")
    assert np.allclose(res.x, ref.x)
