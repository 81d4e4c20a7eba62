"""Benchmark: kernel backends on the trailing-update sweep and full solves.

The fused backend's reason to exist is the trailing-update hot path: one
stacked GEMM per column instead of one Python-dispatched GEMM per tile.
The microbenchmark times exactly that sweep (step ``k = 0`` of an order
512 matrix) per backend and asserts the headline claim — the fused sweep
beats the per-tile loop by at least 2x at ``nb = 16`` — while the
solver benchmark records end-to-end backend-vs-backend factorization
times for all five algorithms.  Both land in ``BENCH_kernels.json`` at
the repo root.

Correctness rides along: every timed sweep's result is checked against
the per-tile reference before the timing is accepted.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api.registry import SOLVERS
from repro.kernels.backends import resolve_backend
from repro.matrices.random_gen import random_matrix
from repro.tiles.tile_matrix import TileMatrix

#: Order of the microbenchmark matrix (the acceptance floor is n >= 512).
_SWEEP_ORDER = 512

#: The fused sweep must beat the per-tile loop by this factor at nb=16.
_REQUIRED_SPEEDUP = 2.0

_SAMPLES = 5


def _sweep_per_tile(tiles: TileMatrix, k: int) -> None:
    n = tiles.n
    for j in range(k + 1, n):
        for i in range(k + 1, n):
            tiles.tile(i, j)[...] -= tiles.tile(i, k) @ tiles.tile(k, j)


def _sweep_backend(tiles: TileMatrix, k: int, backend) -> None:
    n = tiles.n
    for j in range(k + 1, n):
        backend.lu_gemm_sweep(tiles, k, j, k + 1, n)


def _time_sweep(a: np.ndarray, nb: int, run, reference: np.ndarray) -> float:
    """Best-of-N wall time of one trailing sweep; validates the result."""
    best = float("inf")
    for _ in range(_SAMPLES):
        tiles = TileMatrix.from_dense(a.copy(), nb)
        t0 = time.perf_counter()
        run(tiles)
        best = min(best, time.perf_counter() - t0)
        np.testing.assert_allclose(tiles.to_dense(), reference, rtol=1e-12)
    return best


@pytest.mark.benchmark(group="kernel-backends")
def test_trailing_sweep_fused_speedup(bench_record):
    a = random_matrix(_SWEEP_ORDER, seed=20140401)
    fused = resolve_backend("fused")

    payload = {"order": _SWEEP_ORDER}
    speedups = {}
    for nb in (16, 32):
        ref_tiles = TileMatrix.from_dense(a.copy(), nb)
        _sweep_per_tile(ref_tiles, 0)
        reference = ref_tiles.to_dense()

        t_numpy = _time_sweep(a, nb, lambda t: _sweep_per_tile(t, 0), reference)
        t_fused = _time_sweep(
            a, nb, lambda t: _sweep_backend(t, 0, fused), reference
        )
        speedups[nb] = t_numpy / t_fused
        payload[f"nb{nb}"] = {
            "numpy_s": t_numpy,
            "fused_s": t_fused,
            "fused_speedup": t_numpy / t_fused,
        }
        print(
            f"sweep n={_SWEEP_ORDER} nb={nb}: numpy {t_numpy*1e3:.2f}ms, "
            f"fused {t_fused*1e3:.2f}ms ({t_numpy/t_fused:.2f}x)"
        )
    bench_record("kernels", {"benchmark": "trailing_sweep", **payload})

    # The headline acceptance claim: batching the sweep removes the
    # per-tile Python dispatch overhead, which dominates at nb=16.
    assert speedups[16] >= _REQUIRED_SPEEDUP


@pytest.mark.benchmark(group="kernel-backends")
@pytest.mark.parametrize(
    "algorithm", ["hybrid", "lupp", "lu_nopiv", "lu_incpiv", "hqr"]
)
def test_solver_backend_comparison(algorithm, bench_config, bench_record):
    n = bench_config.n_order
    nb = bench_config.tile_size
    a = random_matrix(n, seed=5) + 4.0 * np.eye(n)
    cls = SOLVERS.get(algorithm)

    times = {}
    reference = None
    for backend in ("numpy", "fused"):
        best = float("inf")
        for _ in range(max(2, bench_config.samples)):
            solver = cls(tile_size=nb, track_growth=False, kernel_backend=backend)
            t0 = time.perf_counter()
            fact = solver.factor(a.copy())
            best = min(best, time.perf_counter() - t0)
            assert fact.succeeded
        times[backend] = best
        if backend == "numpy":
            reference = fact
    print(
        f"{algorithm} n={n} nb={nb}: "
        + ", ".join(f"{b} {t*1e3:.1f}ms" for b, t in times.items())
    )
    bench_record(
        "kernels",
        {
            "benchmark": "solver_backends",
            "algorithm": algorithm,
            "n": n,
            "nb": nb,
            **{f"{b}_s": t for b, t in times.items()},
            "fused_speedup": times["numpy"] / times["fused"],
        },
    )
