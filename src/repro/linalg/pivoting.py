"""LU factorizations with partial pivoting — the substrate of the LU kernels.

The paper's LU step factors the *diagonal domain* (the panel tiles local to
the node owning the diagonal tile) with LU and partial pivoting, using
PLASMA's recursive LU panel kernel to enlarge the pivot search space while
keeping efficiency (Section IV, "LU ON PANEL").  This module provides:

* :func:`getrf` — LU with partial pivoting of a rectangular ``m``-by-``k``
  panel: LAPACK ``?getrf`` (itself recursive, ``?getrf2``),
* :func:`getrf_nopiv` — LU without pivoting (used by the LU NoPiv baseline),
* :func:`apply_row_pivots` (LAPACK ``?laswp``) / :func:`pivots_to_permutation`
  — helpers to apply the pivot sequence to trailing columns, as SWPTRSM does.

All routines return the pivot sequence in LAPACK convention (0-based):
``piv[i] = p`` means that row ``i`` was swapped with row ``p`` at elimination
step ``i``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .lapack import lapack_call

__all__ = [
    "getrf",
    "getrf_nopiv",
    "apply_row_pivots",
    "pivots_to_permutation",
    "SingularPanelError",
]


class SingularPanelError(RuntimeError):
    """Raised when a zero pivot makes an LU factorization impossible.

    The paper observes exactly this failure for LU NoPiv and LUPP on the
    ``fiedler`` matrix ("small values rounded up to 0 and then illegally
    used in a division"); surfacing it as a dedicated exception lets the
    experiment harness record the breakdown instead of silently producing
    NaNs.
    """


def getrf(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting of an ``m``-by-``k`` matrix (``m >= k``).

    LAPACK ``?getrf`` on a copy: on return the strictly-lower part of the
    leading ``k`` columns holds ``L`` (unit diagonal implicit) and the upper
    triangle of the top ``k`` rows holds ``U``.  Raises
    :class:`SingularPanelError` naming the first column whose pivot is
    exactly zero.

    Returns ``(lu, piv)``.
    """
    a = np.asarray(a)
    m, k = a.shape
    if m < k:
        raise ValueError(f"getrf requires m >= k, got shape {a.shape}")
    lu, piv, info = lapack_call("getrf", a)
    if info > 0:
        raise SingularPanelError(f"zero pivot encountered at column {info - 1}")
    return lu, piv.astype(np.int64)


def getrf_nopiv(a: np.ndarray) -> np.ndarray:
    """LU *without* pivoting of a square matrix (the LU NoPiv baseline kernel).

    Raises :class:`SingularPanelError` on a zero diagonal entry.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    m, k = a.shape
    if m != k:
        raise ValueError(f"getrf_nopiv requires a square matrix, got shape {a.shape}")
    for j in range(k):
        if a[j, j] == 0.0:
            raise SingularPanelError(f"zero diagonal entry at column {j} (no pivoting)")
        if j + 1 < m:
            a[j + 1 :, j] /= a[j, j]
            a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :])
    return a


def apply_row_pivots(c: np.ndarray, piv: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Apply a LAPACK-style pivot sequence to the rows of ``c`` (in place).

    One ``?laswp`` call.  With ``inverse=True`` the swaps are undone (applied in reverse order).
    Returns ``c`` for convenience.
    """
    if len(piv):
        (laswp,) = get_lapack_funcs(("laswp",), (c,))
        c[...] = laswp(c, np.asarray(piv, dtype=np.int32), inc=-1 if inverse else 1)
    return c


def pivots_to_permutation(piv: np.ndarray, m: int) -> np.ndarray:
    """Convert a LAPACK pivot sequence into an explicit permutation vector.

    Returns ``perm`` such that ``(P A)[i] = A[perm[i]]`` where ``P`` is the
    permutation performed by :func:`apply_row_pivots`.
    """
    perm = np.arange(m, dtype=np.int64)
    for j in range(len(piv)):
        p = int(piv[j])
        if p != j:
            perm[[j, p]] = perm[[p, j]]
    return perm
