"""Tile kernels of the QR elimination step (tiled / hierarchical QR).

A QR step eliminates every tile below the diagonal of the panel using
orthogonal transformations.  The kernels, named after their PLASMA
counterparts, are each one LAPACK call:

==========  =======================================================  ===========
kernel      role                                                     LAPACK
==========  =======================================================  ===========
GEQRT       QR of a single square tile                               ``?geqrt``
UNMQR       apply a GEQRT transformation to a trailing tile          ``?gemqrt``
TSQRT       kill a square tile with a triangular eliminator          ``?tpqrt``, ``l = 0``
TTQRT       merge two triangular eliminators (reduction trees)       ``?tpqrt``, ``l = nb``
TSMQR       apply a TSQRT/TTQRT transformation to two trailing tiles ``?tpmqrt``
TTMQR       same as TSMQR (the factor carries its pentagonal order)  ``?tpmqrt``
==========  =======================================================  ===========

Every kernel returns new tile values (functional style); the drivers in
:mod:`repro.core.qr_step` and :mod:`repro.kernels.dispatch` write them back
into the :class:`~repro.tiles.TileMatrix`.  Routines are resolved by dtype,
so float32 tiles stay float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..linalg.lapack import lapack_call

__all__ = [
    "QRTileFactor",
    "INNER_BLOCK",
    "qr_factor_nbytes",
    "geqrt_tile",
    "unmqr",
    "tsqrt",
    "tsmqr",
    "ttqrt",
    "ttmqr",
]

#: Inner blocking ``ib`` of the compact-WY ``T`` factors (PLASMA's ``ib``):
#: LAPACK stores ``T`` as ``ib``-by-``nb``, one triangular block per ``ib``
#: reflectors.  Level-2 ``?tpqrt2`` runs inside each block, so blocks much
#: wider than 32 slow the coupling kernels down at large tiles.
INNER_BLOCK = 32


@dataclass
class QRTileFactor:
    """Compact-WY factor ``Q = I - V T V^T`` of a tile elimination, in LAPACK form.

    Attributes
    ----------
    v:
        GEQRT: the packed ``nb x nb`` tile returned by ``?geqrt`` (unit-lower
        reflectors below the diagonal, ``R`` on and above it).  TSQRT/TTQRT:
        the ``nb x nb`` bottom block ``V2`` of ``V = [I; V2]``, upper
        triangular for TTQRT.
    t:
        The ``ib x nb`` block-triangular factors (``ib = min(nb, INNER_BLOCK)``).
    r:
        The resulting upper-triangular tile.
    nb:
        Tile order.
    l:
        Pentagonal order of ``V2`` handed to ``?tpmqrt``: 0 for TSQRT, ``nb``
        for TTQRT (unused for GEQRT factors).
    """

    v: np.ndarray
    t: np.ndarray
    r: np.ndarray
    nb: int
    l: int = 0  # noqa: E741 - LAPACK's name for the pentagonal order


def _ib(nb: int) -> int:
    return min(nb, INNER_BLOCK)


def qr_factor_nbytes(nb: int, itemsize: int) -> int:
    """Bytes held by one :class:`QRTileFactor` of order ``nb`` (``v + t + r``)."""
    return (2 * nb + _ib(nb)) * nb * itemsize


def geqrt_tile(a_kk: np.ndarray) -> QRTileFactor:
    """GEQRT: QR of one square tile. Returns the compact-WY factor and ``R``."""
    nb = a_kk.shape[0]
    packed, t, _ = lapack_call("geqrt", _ib(nb), a_kk)
    return QRTileFactor(v=packed, t=t, r=np.triu(packed), nb=nb)


def unmqr(factor: QRTileFactor, c: np.ndarray) -> np.ndarray:
    """UNMQR: apply ``Q^T`` of a GEQRT factorization to a trailing tile."""
    out, _ = lapack_call("gemqrt", factor.v, factor.t, c, side="L", trans="T")
    return out


def _couple(r_top: np.ndarray, bottom: np.ndarray, order: int) -> QRTileFactor:
    nb = r_top.shape[0]
    r, v2, t, _ = lapack_call("tpqrt", order, _ib(nb), r_top, bottom)
    return QRTileFactor(v=v2, t=t, r=np.triu(r), nb=nb, l=order)


def tsqrt(r_top: np.ndarray, a_bottom: np.ndarray) -> QRTileFactor:
    """TSQRT: eliminate a square tile using a triangular eliminator tile.

    Factors the ``2nb x nb`` stacked matrix ``[R_top; A_bottom]`` where
    ``R_top`` is upper triangular (its strict lower part is never read).
    The result's ``r`` replaces the eliminator tile; ``v`` holds the
    reflectors that conceptually overwrite the killed tile.
    """
    return _couple(r_top, a_bottom, 0)


def tsmqr(
    factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TSMQR: apply a TSQRT (or TTQRT) transformation to a pair of trailing tiles.

    ``c_top`` belongs to the eliminator row, ``c_bottom`` to the killed row.
    Returns the updated ``(c_top, c_bottom)``.
    """
    top, bottom, _ = lapack_call(
        "tpmqrt", factor.l, factor.v, factor.t, c_top, c_bottom, side="L", trans="T"
    )
    return top, bottom


def ttqrt(r_top: np.ndarray, r_bottom: np.ndarray) -> QRTileFactor:
    """TTQRT: merge two triangular eliminator tiles (reduction-tree kernel).

    Factors ``[R_top; R_bottom]`` with both blocks upper triangular; used
    when combining the local eliminators of different domains along the
    inter-node reduction tree.  ``V2`` comes out upper triangular.
    """
    return _couple(r_top, np.triu(r_bottom), r_top.shape[0])


def ttmqr(
    factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TTMQR: apply a TTQRT transformation to a pair of trailing tiles."""
    return tsmqr(factor, c_top, c_bottom)
