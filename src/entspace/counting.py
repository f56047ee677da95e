"""Index and level bookkeeping the library offers beyond what a command
runs: the multi-indices of a shape in order and at a position, the level of
a multi-index, one level's dimension, its closed forms, and every shape up
to a size for exhaustive sweeps.

A command runs none of these, so they live apart from ``grading``, which
every command compiles.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

from .grading import Dims, MultiIndex, level_counts


def multi_index(dims: Dims, pos: int) -> MultiIndex:
    """Inverse of ``dims.position``."""
    if not 0 <= pos < dims.total:
        raise ValueError(f"position {pos} out of range for total {dims.total}")
    return tuple(pos // math.prod(dims.d[r + 1:]) % dr for r, dr in enumerate(dims.d))


def all_indices(dims: Dims) -> Iterator[MultiIndex]:
    """All multi-indices in global lexicographic order."""
    return product(*(range(dr) for dr in dims.d))


def level(idx: MultiIndex) -> int:
    return sum(idx)


def level_count(dims: Dims, n: int) -> int:
    """Dimension of level n; zero outside [0, max_level]."""
    if not 0 <= n <= dims.max_level:
        return 0
    return level_counts(dims)[n]


def level_count_closed_form(dims: Dims, n: int) -> int | None:
    """Closed-form level dimension where one is available.

    For two factors the count is piecewise linear in n; when every factor
    is two-dimensional it is a binomial coefficient.  Returns ``None`` when
    neither closed form applies.
    """
    if dims.k == 2:
        d1, d2 = sorted(dims.d)
        if n < 0 or n > d1 + d2 - 2:
            return 0
        if n <= d1 - 1:
            return n + 1
        if n <= d2 - 1:
            return d1
        return d1 + d2 - (n + 1)
    if all(dr == 2 for dr in dims.d):
        if n < 0 or n > dims.k:
            return 0
        return math.comb(dims.k, n)
    return None


def iter_dims(max_total: int, min_total: int = 4) -> Iterator[Dims]:
    """Every Dims value with product of dimensions in [min_total, max_total].

    Enumeration order is lexicographic in the dimension tuple; useful for
    exhaustive small-scale sweeps.
    """
    stack: list[int] = []

    def rec(prod: int) -> Iterator[Dims]:
        if len(stack) >= 2 and prod >= min_total:
            yield Dims(tuple(stack))
        d = 2
        while prod * d <= max_total:
            stack.append(d)
            yield from rec(prod * d)
            stack.pop()
            d += 1

    yield from rec(1)
