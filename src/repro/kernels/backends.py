"""Pluggable kernel-execution backends (per-tile reference, fused).

The hot path of every tiled factorization is the trailing-update sweep:
after the panel of step ``k`` is factored, every trailing column receives
one small kernel per tile (``lu.gemm``, ``qr.update``/``qr.unmqr``,
``incpiv.ssssm``).  Executing those one tile at a time pays a Python
dispatch round-trip per ``nb``-by-``nb`` GEMM, which dwarfs the BLAS time
at practical tile sizes.  A *kernel backend* tells the step planners how
to batch that sweep:

``numpy``
    The bit-exact per-tile reference.  Planners emit exactly the task
    graphs they always have — one task per tile kernel — so results stay
    bit-identical to the seed implementation.  This is the default.

``fused``
    Planners collapse each trailing column's update chain into a single
    task.  For LU the whole column update becomes one stacked GEMM over a
    contiguous :meth:`~repro.tiles.tile_matrix.TileMatrix.block` view;
    for QR and IncPiv the per-column kernel chain runs inside one task in
    exactly the program order of the per-tile plan, so per-column numerics
    are unchanged (the LU stacked GEMM is mathematically identical but may
    differ from the per-tile reference in the last bits, which is why
    non-NumPy backends are validated to error *tolerance*, not bitwise).

Backends register into :data:`~repro.api.registry.KERNEL_BACKENDS` with
``@register_kernel_backend`` exactly like solvers and executors; unknown
names raise a :class:`ValueError` listing the available options.  Fused
tasks ship across process boundaries as generic ``fused.*``
:class:`~repro.kernels.dispatch.KernelCall` descriptors that carry the
backend *name* and re-resolve it worker-side, so every executor
(inline, threaded, processes, cluster) honors the same fusion plan.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from ..api.registry import KERNEL_BACKENDS, register_kernel_backend
from .dispatch import _RHS, OpEffect, _ssssm_pair, kernel_op, kernel_signature
from .qr_kernels import tsmqr, unmqr

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "FusedBackend",
    "resolve_backend",
]


# --------------------------------------------------------------------------- #
# Backend classes
# --------------------------------------------------------------------------- #
class KernelBackend:
    """How the step planners execute (and batch) tile-kernel sweeps.

    Attributes
    ----------
    name:
        Canonical registry name; fused task descriptors carry it across
        process boundaries.
    fuses:
        When True the step planners emit one fused task per trailing
        column instead of one task per tile; the ``*_sweep`` / ``*_chain``
        methods below are then the task bodies.
    """

    name = "abstract"
    fuses = False

    @property
    def descriptor_name(self) -> str:
        """Backend name embedded in ``fused.*`` task descriptors.

        Worker processes re-resolve this name to execute fused tasks, so
        it must name a *compute* backend.  Instrumenting wrappers (the
        access tracer) override it to their inner backend's name — worker
        processes execute descriptors directly and cannot be traced, so
        shipping the wrapper's own name would be wrong twice over.
        """
        return self.name

    # ------------------------------------------------------------------ #
    # Instrumentation hooks (no-ops for compute backends)
    # ------------------------------------------------------------------ #
    def prepare_tiles(self, tiles):
        """Hook: wrap or replace the tile matrix before a factorization.

        Called by :class:`~repro.core.solver_base.TiledSolverBase` right
        after the working tiles are materialized and before any step is
        planned, so an instrumenting backend (e.g. the access-tracing
        backend in :mod:`repro.analysis`) can interpose proxied tile
        views.  Must return a tile matrix aliasing the same storage; the
        base implementation returns ``tiles`` unchanged.
        """
        return tiles

    def wrap_task(self, task, step: int):
        """Hook: wrap or replace a planned kernel task before it runs.

        Called once per planned task (inline and pipelined paths alike)
        before submission, so an instrumenting backend can wrap the task
        closure with bookkeeping.  Must return a task with identical
        declared ``reads``/``writes``; the base implementation returns
        ``task`` unchanged.
        """
        return task

    # ------------------------------------------------------------------ #
    # Fused-sweep operations (only called when ``fuses`` is True)
    # ------------------------------------------------------------------ #
    def lu_gemm_sweep(self, tiles, k: int, j: int, i0: int, i1: int) -> None:
        raise NotImplementedError

    def lu_gemm_rhs_sweep(self, tiles, k: int, i0: int, i1: int) -> None:
        raise NotImplementedError

    def qr_column_chain(self, tiles, j: int, ops: Sequence[tuple], factors) -> None:
        raise NotImplementedError

    def qr_rhs_chain(self, tiles, ops: Sequence[tuple], factors) -> None:
        raise NotImplementedError

    def incpiv_ssssm_chain(
        self, tiles, k: int, j: int, rows: Sequence[int], pairs: Sequence[Any]
    ) -> None:
        raise NotImplementedError

    def incpiv_ssssm_rhs_chain(
        self, tiles, k: int, rows: Sequence[int], pairs: Sequence[Any]
    ) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, fuses={self.fuses})"


@register_kernel_backend("numpy", aliases=("reference", "ref"))
class NumpyBackend(KernelBackend):
    """Bit-exact per-tile reference: one task per tile kernel.

    With this backend the planners produce exactly the task graphs of the
    seed implementation, so factors are bit-identical to it on every
    executor.
    """

    name = "numpy"
    fuses = False


@register_kernel_backend("fused", aliases=("batched",))
class FusedBackend(KernelBackend):
    """Batch each trailing column's update sweep into one task.

    The LU sweep is a single stacked GEMM over a contiguous block view;
    QR/IncPiv chains replay the per-tile kernels of one column in program
    order inside one task (identical numerics, one dispatch).
    """

    name = "fused"
    fuses = True

    def lu_gemm_sweep(self, tiles, k: int, j: int, i0: int, i1: int) -> None:
        c = tiles.block(i0, i1, j, j + 1)
        c -= tiles.block(i0, i1, k, k + 1) @ tiles.tile(k, j)

    def lu_gemm_rhs_sweep(self, tiles, k: int, i0: int, i1: int) -> None:
        c = tiles.rhs_block(i0, i1)
        c -= tiles.block(i0, i1, k, k + 1) @ tiles.rhs_tile(k)

    def qr_column_chain(self, tiles, j: int, ops: Sequence[tuple], factors) -> None:
        for op in ops:
            if op[0] == "unmqr":
                _, row, fkey = op
                tiles.set_tile(row, j, unmqr(factors[fkey], tiles.tile(row, j)))
            else:
                _, elim, killed, fkey = op
                top, bottom = tsmqr(
                    factors[fkey], tiles.tile(elim, j), tiles.tile(killed, j)
                )
                tiles.set_tile(elim, j, top)
                tiles.set_tile(killed, j, bottom)

    def qr_rhs_chain(self, tiles, ops: Sequence[tuple], factors) -> None:
        for op in ops:
            if op[0] == "unmqr":
                _, row, fkey = op
                tiles.rhs_tile(row)[...] = unmqr(factors[fkey], tiles.rhs_tile(row))
            else:
                _, elim, killed, fkey = op
                top, bottom = tsmqr(
                    factors[fkey], tiles.rhs_tile(elim), tiles.rhs_tile(killed)
                )
                tiles.rhs_tile(elim)[...] = top
                tiles.rhs_tile(killed)[...] = bottom

    def incpiv_ssssm_chain(
        self, tiles, k: int, j: int, rows: Sequence[int], pairs: Sequence[Any]
    ) -> None:
        nb = tiles.nb
        for i, pair in zip(rows, pairs):
            top, bottom = _ssssm_pair(pair, nb, tiles.tile(k, j), tiles.tile(i, j))
            tiles.set_tile(k, j, top)
            tiles.set_tile(i, j, bottom)

    def incpiv_ssssm_rhs_chain(
        self, tiles, k: int, rows: Sequence[int], pairs: Sequence[Any]
    ) -> None:
        nb = tiles.nb
        for i, pair in zip(rows, pairs):
            top, bottom = _ssssm_pair(pair, nb, tiles.rhs_tile(k), tiles.rhs_tile(i))
            tiles.rhs_tile(k)[...] = top
            tiles.rhs_tile(i)[...] = bottom


# --------------------------------------------------------------------------- #
# Resolution
# --------------------------------------------------------------------------- #
#: Shared instances per registry name, so worker-side descriptor
#: resolution is cheap.
_SINGLETONS: Dict[str, KernelBackend] = {}


def resolve_backend(spec: Any = None) -> KernelBackend:
    """Resolve a backend spec (name, instance, or None) to an instance.

    ``None`` means the default ``numpy`` reference.  Names resolve through
    :data:`~repro.api.registry.KERNEL_BACKENDS` to a shared per-process
    instance (aliases included); unknown names raise a :class:`ValueError`
    listing the available backends.  Ready instances pass through.
    """
    if spec is None:
        spec = "numpy"
    if isinstance(spec, KernelBackend):
        return spec
    if not isinstance(spec, str):
        return KERNEL_BACKENDS.create(spec)
    key = spec.strip().lower()
    cached = _SINGLETONS.get(key)
    if cached is None:
        # Aliases share their canonical name's instance: register under the
        # canonical name first, then point the requested key at whichever
        # instance won.
        created = KERNEL_BACKENDS.create(key)
        cached = _SINGLETONS.setdefault(getattr(created, "name", key), created)
        _SINGLETONS[key] = cached
    return cached


# --------------------------------------------------------------------------- #
# Worker-side dispatch of fused tasks
# --------------------------------------------------------------------------- #
# Fused tasks cross process boundaries as generic descriptors carrying the
# backend *name*; the worker re-resolves it against the registry (this
# module is imported by ``repro.kernels``, so the ops below exist in every
# worker).  QR chains receive their panel factors through ``consumes`` and
# reference them by input index.
@kernel_op("fused.lu_gemm_sweep")
def _fused_lu_gemm_sweep(tiles, inputs, backend, k, j, i0, i1) -> None:
    resolve_backend(backend).lu_gemm_sweep(tiles, k, j, i0, i1)


@kernel_op("fused.lu_gemm_rhs_sweep")
def _fused_lu_gemm_rhs_sweep(tiles, inputs, backend, k, i0, i1) -> None:
    resolve_backend(backend).lu_gemm_rhs_sweep(tiles, k, i0, i1)


@kernel_op("fused.qr_column_chain")
def _fused_qr_column_chain(tiles, inputs, backend, j, ops) -> None:
    resolve_backend(backend).qr_column_chain(tiles, j, ops, dict(enumerate(inputs)))


@kernel_op("fused.qr_rhs_chain")
def _fused_qr_rhs_chain(tiles, inputs, backend, ops) -> None:
    resolve_backend(backend).qr_rhs_chain(tiles, ops, dict(enumerate(inputs)))


@kernel_op("fused.incpiv_ssssm_chain")
def _fused_incpiv_ssssm_chain(tiles, inputs, backend, k, j, rows) -> None:
    resolve_backend(backend).incpiv_ssssm_chain(tiles, k, j, rows, inputs)


@kernel_op("fused.incpiv_ssssm_rhs_chain")
def _fused_incpiv_ssssm_rhs_chain(tiles, inputs, backend, k, rows) -> None:
    resolve_backend(backend).incpiv_ssssm_rhs_chain(tiles, k, rows, inputs)


# --------------------------------------------------------------------------- #
# Shape/dtype signatures of the fused descriptors
# --------------------------------------------------------------------------- #
# The fused effects are the unions of their constituent per-tile effects
# (the analyzer cross-checks the union against the verifier's
# expected_fused_sets), and each logical kernel is kept as a placement
# constituent so a sweep whose tiles span owners is priced per unit rather
# than treated as one opaque blob.
def _lu_sweep_effect(k, j, i0, i1):
    panel = tuple((i, k) for i in range(i0, i1))
    col = tuple((i, j) for i in range(i0, i1))
    return OpEffect(
        reads=frozenset(panel) | frozenset({(k, j)}) | frozenset(col),
        writes=frozenset(col),
        checks=(("matmul", ("stack", panel), (k, j), ("stack", col)),),
        constituents=tuple(
            (((i, k), (k, j), (i, j)), (i, j)) for i in range(i0, i1)
        ),
        unit_count=max(i1 - i0, 1),
    )


@kernel_signature("fused.lu_gemm_sweep")
def _sig_fused_lu_gemm_sweep(call, step, ctx):
    _backend, k, j, i0, i1 = call.args
    return _lu_sweep_effect(k, j, i0, i1)


@kernel_signature("fused.lu_gemm_rhs_sweep")
def _sig_fused_lu_gemm_rhs_sweep(call, step, ctx):
    _backend, k, i0, i1 = call.args
    return _lu_sweep_effect(k, _RHS, i0, i1)


def _qr_chain_effect(j, ops, step, ctx):
    reads, writes = set(), set()
    checks, constituents = [], []
    for op in ops:
        if op[0] == "unmqr":
            _, row, _fkey = op
            unit_reads = ((row, step), (row, j))
            anchor = (row, j)
            checks.append(("matmul", ("lit", ctx.nb, ctx.nb), (row, j), (row, j)))
        else:
            _, elim, killed, _fkey = op
            pair = ((elim, j), (killed, j))
            unit_reads = ((killed, step),) + pair
            anchor = (killed, j)
            checks.append(
                ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair))
            )
            writes.add((elim, j))
        reads.update(unit_reads)
        writes.add(anchor)
        constituents.append((unit_reads, anchor))
    reads.update(writes)
    return OpEffect(
        reads=frozenset(reads),
        writes=frozenset(writes),
        checks=tuple(checks),
        constituents=tuple(constituents),
        unit_count=max(len(ops), 1),
    )


@kernel_signature("fused.qr_column_chain")
def _sig_fused_qr_column_chain(call, step, ctx):
    _backend, j, ops = call.args
    return _qr_chain_effect(j, ops, step, ctx)


@kernel_signature("fused.qr_rhs_chain")
def _sig_fused_qr_rhs_chain(call, step, ctx):
    _backend, ops = call.args
    return _qr_chain_effect(_RHS, ops, step, ctx)


def _incpiv_chain_effect(k, j, rows, ctx):
    checks = tuple(
        ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", ((k, j), (i, j))), ("stack", ((k, j), (i, j))))
        for i in rows
    )
    return OpEffect(
        reads=frozenset((i, k) for i in rows) | frozenset({(k, j)}) | frozenset((i, j) for i in rows),
        writes=frozenset({(k, j)}) | frozenset((i, j) for i in rows),
        checks=checks,
        constituents=tuple((((i, k), (k, j), (i, j)), (i, j)) for i in rows),
        unit_count=max(len(rows), 1),
    )


@kernel_signature("fused.incpiv_ssssm_chain")
def _sig_fused_incpiv_ssssm_chain(call, step, ctx):
    _backend, k, j, rows = call.args
    return _incpiv_chain_effect(k, j, rows, ctx)


@kernel_signature("fused.incpiv_ssssm_rhs_chain")
def _sig_fused_incpiv_ssssm_rhs_chain(call, step, ctx):
    _backend, k, rows = call.args
    return _incpiv_chain_effect(k, _RHS, rows, ctx)
