"""Tile kernels of the LU elimination step (variant A1 of the paper).

One LU step at panel ``k`` (Algorithm 2 of the paper) is built from four
kernels:

* **Factor**   ``A_kk <- GETRF(A_kk)``: LU with partial pivoting of the
  diagonal tile (or of the whole diagonal domain in the variant used for
  the experiments), producing ``P A = L U`` stored in place.
* **Eliminate** ``A_ik <- TRSM(A_kk, A_ik)``: ``A_ik <- A_ik U_kk^{-1}``.
* **Apply**     ``A_kj <- SWPTRSM(A_kk, A_kj)``: ``A_kj <- L_kk^{-1} P_kk A_kj``.
* **Update**    ``A_ij <- GEMM(A_ik, A_kj, A_ij)``: ``A_ij <- A_ij - A_ik A_kj``.

The kernels below operate on plain numpy arrays (tiles); the step driver in
:mod:`repro.core.lu_step` wires them together over a :class:`~repro.tiles.TileMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..linalg.pivoting import apply_row_pivots, getrf
from ..linalg.triangular import trsm_lower_left_unit, trsm_upper_right

__all__ = [
    "LUPanelFactor",
    "factor_tile_lu",
    "factor_panel_lu",
    "eliminate_trsm",
    "apply_swptrsm",
    "update_gemm",
]


@dataclass
class LUPanelFactor:
    """Result of factoring a (possibly multi-tile) panel with partial pivoting.

    Attributes
    ----------
    lu:
        The packed factors: unit-lower ``L`` below the diagonal of the
        leading ``nb`` columns, ``U`` in the upper triangle of the top
        ``nb`` rows.  Shape ``(d*nb, nb)`` where ``d`` is the number of
        stacked tiles.
    piv:
        LAPACK-style pivot sequence (length ``nb``): row ``j`` of the
        stacked panel was swapped with row ``piv[j]``.
    nb:
        Tile order.
    """

    lu: np.ndarray
    piv: np.ndarray
    nb: int

    @property
    def u(self) -> np.ndarray:
        """The ``nb x nb`` upper-triangular factor ``U``."""
        return np.triu(self.lu[: self.nb, : self.nb])

    @property
    def l_top(self) -> np.ndarray:
        """The ``nb x nb`` unit-lower-triangular top block of ``L``."""
        return np.tril(self.lu[: self.nb, : self.nb], k=-1) + np.eye(self.nb)

    @property
    def smallest_pivot(self) -> float:
        """Smallest absolute diagonal entry of ``U`` (breakdown indicator)."""
        return float(np.min(np.abs(np.diag(self.lu[: self.nb, : self.nb]))))


def factor_tile_lu(tile: np.ndarray) -> LUPanelFactor:
    """Factor kernel on the diagonal tile only: ``P A_kk = L U``."""
    lu, piv = getrf(tile)
    return LUPanelFactor(lu=lu, piv=piv, nb=tile.shape[0])


def factor_panel_lu(stacked: np.ndarray, nb: int) -> LUPanelFactor:
    """Factor kernel on the stacked diagonal *domain* (the experimental variant).

    ``stacked`` is the vertical concatenation of all panel tiles owned by
    the diagonal node (diagonal tile first).  Searching pivots across the
    whole domain rather than a single tile "increases the smallest singular
    value of the factored region and therefore increases the likelihood of
    an LU step" (Section II-A), without any inter-node communication.

    LAPACK ``?getrf`` factors the panel recursively, as PLASMA's recursive
    LU panel kernel in the paper's implementation does (Section IV).
    """
    if stacked.shape[1] != nb:
        raise ValueError(f"stacked panel must have {nb} columns, got {stacked.shape[1]}")
    lu, piv = getrf(stacked)
    return LUPanelFactor(lu=lu, piv=piv, nb=nb)


def eliminate_trsm(factor: LUPanelFactor, a_ik: np.ndarray) -> np.ndarray:
    """Eliminate kernel: ``A_ik <- A_ik U_kk^{-1}`` (in-place semantics by return)."""
    return trsm_upper_right(factor.u, a_ik)


def apply_swptrsm(factor: LUPanelFactor, a_kj: np.ndarray) -> np.ndarray:
    """Apply kernel: ``A_kj <- L_kk^{-1} P_kk A_kj``.

    ``a_kj`` must contain the rows of the *whole factored region* (i.e. the
    stacked domain rows for the domain variant) so the pivot swaps can be
    applied; only the top ``nb`` rows are transformed by the triangular
    solve and the caller is responsible for scattering all rows back.
    """
    c = np.array(a_kj, dtype=np.float64, copy=True)
    if c.shape[0] != factor.lu.shape[0]:
        raise ValueError(
            f"apply_swptrsm expects {factor.lu.shape[0]} rows, got {c.shape[0]}"
        )
    apply_row_pivots(c, factor.piv)
    c[: factor.nb] = trsm_lower_left_unit(factor.l_top, c[: factor.nb])
    return c


def update_gemm(a_ij: np.ndarray, a_ik: np.ndarray, a_kj: np.ndarray) -> np.ndarray:
    """Update kernel: ``A_ij <- A_ij - A_ik A_kj`` (returns the new tile)."""
    return a_ij - a_ik @ a_kj
