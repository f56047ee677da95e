"""Multi-index bookkeeping for the graded decomposition of a tensor product.

The full space splits into levels: level n is spanned by the standard
product basis vectors whose index sum equals n.  Everything downstream
(entangled subspaces, Vandermonde product vectors, product bases) is
organized around this grading, so the ordering conventions fixed here are
global: basis vectors are ordered lexicographically by multi-index, and a
level inherits that order.
"""

from __future__ import annotations

import math
from itertools import accumulate, product
from operator import attrgetter, index
from typing import Iterator

MultiIndex = tuple[int, ...]


class Record:
    """Base of the mutable report types: a repr ``Name(field=value, ...)``
    and equality field by field.

    A subclass names its fields in ``__slots__``, in constructor order, and
    sets them in its own ``__init__``.  Nothing is generated at import, so
    start-up loads no code generator (nor the ``inspect``, ``ast`` and
    ``tokenize`` one would pull in).
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls) -> None:
        if cls.__slots__:
            cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Value(Record):
    """Base of the immutable value types: a ``Record`` that hashes by its
    fields and refuses assignment.  ``__init__`` sets each field once with
    ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Dims(Value):
    """Local dimensions (d_1, ..., d_k) of a k-fold tensor product space."""

    __slots__ = ("d",)
    d: tuple[int, ...]

    def __init__(self, d) -> None:
        d = tuple(map(index, d))  # int() would take 2.7 as 2 and "33" as 3,3
        object.__setattr__(self, "d", d)
        if len(d) < 2:
            raise ValueError(f"need at least 2 tensor factors, got {len(d)}")
        if any(x < 2 for x in d):
            raise ValueError(f"every local dimension must be >= 2, got {d}")

    # Dims is compared on every vector operation: no generic field walk
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.d == other.d
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.d)

    @property
    def k(self) -> int:
        return len(self.d)

    @property
    def max_level(self) -> int:
        """Largest attainable index sum, sum(d_r - 1)."""
        return sum(x - 1 for x in self.d)

    @property
    def total(self) -> int:
        """Dimension of the full tensor product space."""
        return math.prod(self.d)

    def check_index(self, idx: MultiIndex) -> None:
        if len(idx) != self.k or any(not 0 <= i < dr for i, dr in zip(idx, self.d)):
            raise ValueError(f"multi-index {idx} out of bounds for dims {self.d}")

    def position(self, idx: MultiIndex) -> int:
        """Rank of a multi-index in the global lexicographic order."""
        self.check_index(idx)
        pos = 0
        for i, dr in zip(idx, self.d):
            pos = pos * dr + i
        return pos

    def multi_index(self, pos: int) -> MultiIndex:
        """Inverse of :meth:`position`."""
        if not 0 <= pos < self.total:
            raise ValueError(f"position {pos} out of range for total {self.total}")
        out = []
        for dr in reversed(self.d):
            out.append(pos % dr)
            pos //= dr
        return tuple(reversed(out))

    def all_indices(self) -> Iterator[MultiIndex]:
        """All multi-indices in global lexicographic order."""
        return product(*(range(dr) for dr in self.d))

    def __str__(self) -> str:
        return "x".join(str(x) for x in self.d)


def parse_dims(text: str) -> Dims:
    """Parse a dimension list such as ``"2,3,4"`` (or the display form ``"2x3x4"``)."""
    try:
        parts = tuple(int(p) for p in text.replace("x", ",").split(","))
    except ValueError:
        raise ValueError(f"cannot parse dims {text!r}") from None
    return Dims(parts)


def level(idx: MultiIndex) -> int:
    return sum(idx)


def enumerate_level(dims: Dims, n: int) -> list[MultiIndex]:
    """All multi-indices with index sum n, in lexicographic order."""
    if not 0 <= n <= dims.max_level:
        raise ValueError(f"level {n} out of range [0, {dims.max_level}]")
    # Largest sum realizable by the suffix starting at factor r.
    suffix_max = [0] * (dims.k + 1)
    for r in range(dims.k - 1, -1, -1):
        suffix_max[r] = suffix_max[r + 1] + dims.d[r] - 1

    out: list[MultiIndex] = []
    prefix: list[int] = []

    def rec(r: int, remaining: int) -> None:
        if r == dims.k:
            out.append(tuple(prefix))
            return
        lo = max(0, remaining - suffix_max[r + 1])
        hi = min(dims.d[r] - 1, remaining)
        for i in range(lo, hi + 1):
            prefix.append(i)
            rec(r + 1, remaining - i)
            prefix.pop()

    rec(0, n)
    return out


def level_counts(dims: Dims) -> list[int]:
    """Dimension of every level, computed by exact integer convolution.

    Entry n is the number of multi-indices with index sum n, i.e. the
    coefficient of x^n in prod_r (1 + x + ... + x^(d_r - 1)).  Each factor
    is a window sum, so it costs one pass of prefix sums, not d_r passes.
    """
    coeffs = [1]
    for dr in dims.d:
        prefix = list(accumulate(coeffs + [0] * (dr - 1)))
        coeffs = [a - b for a, b in zip(prefix, [0] * dr + prefix)]
    return coeffs


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
