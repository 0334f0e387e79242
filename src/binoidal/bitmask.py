"""Generator and vertex subsets as ``int`` bitmasks.

Bit ``i`` of a mask is set when index ``i`` belongs to the subset, so
intersection, union and the subset test ``a & b == a`` are single integer
operations.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator

from .words import Word


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def word_mask(w: Word) -> int:
    """Support of a finite word."""
    return mask_of(i for i, _ in w.exps)


def union(masks: Iterable[int]) -> int:
    return functools.reduce(operator.or_, masks, 0)


def indices(mask: int) -> tuple[int, ...]:
    """Members of the subset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def bits(mask: int) -> Iterator[int]:
    """The one-bit masks of the subset, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All subsets of the subset, in descending numeric order."""
    s = mask
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & mask
