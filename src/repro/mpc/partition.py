"""Partitioning helpers: blocks of a string, chunks of a list.

The algorithms of the paper share one decomposition idiom: split ``s``
into contiguous blocks of size ``B = n^(1-y)`` (Fig. 1) and route
per-block work to machines.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, TypeVar

__all__ = ["blocks", "chunk"]

T = TypeVar("T")


def blocks(n: int, block_size: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into contiguous half-open blocks ``[lo, hi)``.

    The final block absorbs the remainder, mirroring the paper's
    simplifying assumption that ``B`` divides ``n`` (it keeps the block
    count at ``ceil(n / B)`` without creating a tiny trailing block).

    >>> blocks(10, 4)
    [(0, 4), (4, 8), (8, 10)]
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    out = []
    lo = 0
    while lo < n:
        out.append((lo, min(lo + block_size, n)))
        lo += block_size
    return out


def chunk(items: Sequence[T], size: int) -> Iterator[List[T]]:
    """Yield consecutive chunks of at most ``size`` items."""
    if size <= 0:
        raise ValueError("size must be positive")
    for lo in range(0, len(items), size):
        yield list(items[lo:lo + size])
