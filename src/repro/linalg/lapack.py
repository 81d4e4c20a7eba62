"""Dtype-resolved LAPACK calls with checked ``info`` returns.

Every tile kernel of the solvers is one LAPACK routine reached through
:func:`scipy.linalg.get_lapack_funcs`, which picks the ``s``/``d``/``c``/``z``
variant from the array arguments — float32 tiles stay float32, integer
input is factored in float64.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = ["lapack_call"]


def lapack_call(name: str, *args: Any, **kwargs: Any) -> Tuple[Any, ...]:
    """Call LAPACK routine ``?name`` typed by the array arguments in ``args``.

    Returns the wrapper's outputs with ``info`` last, as scipy does.
    Raises :class:`ValueError` when ``info < 0`` (an illegal argument);
    ``info > 0`` is routine-specific and left to the caller.
    """
    (routine,) = get_lapack_funcs((name,), tuple(a for a in args if isinstance(a, np.ndarray)))
    out = routine(*args, **kwargs)
    if out[-1] < 0:
        raise ValueError(f"{routine.typecode}{name}: argument {-out[-1]} had an illegal value")
    return out
