"""Input normalisation for the string kernels.

Every kernel accepts either a Python ``str``, a sequence of integers, or a
NumPy integer array, and normalises to a contiguous ``int64`` array via
:func:`as_array`.  Characters are compared by integer identity (``ord`` for
``str`` inputs), matching the paper's model where the alphabet is an
arbitrary set of symbols.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["StringLike", "as_array", "INF"]

StringLike = Union[str, Sequence[int], np.ndarray]

#: Sentinel "infinite" cost.  Large enough to never be a real distance but
#: small enough that sums of a few of them cannot overflow int64.
INF = np.iinfo(np.int64).max // 4


def as_array(s: StringLike) -> np.ndarray:
    """Normalise *s* to a 1-D contiguous ``int64`` NumPy array.

    ``str`` inputs are converted code-point by code-point; sequences of
    integers (or bools) are converted element-wise, and any other element
    type (floats, strings) raises ``TypeError`` rather than being
    truncated.  NumPy integer arrays pass through (cast to ``int64`` when
    needed, never copied otherwise).
    """
    if isinstance(s, np.ndarray):
        if s.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {s.shape}")
        if s.dtype.kind not in "iu":
            raise TypeError(f"expected an integer array, got dtype {s.dtype}")
        return np.ascontiguousarray(s, dtype=np.int64)
    if isinstance(s, str):
        return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(
            np.int64)
    arr = np.asarray(list(s))
    if arr.ndim != 1:
        raise ValueError("expected a flat sequence of symbols")
    if len(arr) and arr.dtype.kind not in "iub":
        raise TypeError(f"expected integer symbols, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)
