"""Multi-index bookkeeping for the graded decomposition of a tensor product.

The full space splits into levels: level n is spanned by the standard
product basis vectors whose index sum equals n.  Everything downstream
(entangled subspaces, Vandermonde product vectors, product bases) is
organized around this grading, so the ordering conventions fixed here are
global: basis vectors are ordered lexicographically by multi-index, and a
level inherits that order.

This is the base module every command loads, so it also holds what the
command line needs before it knows the command: the budget error and the
dense-size budget, the verdicts, the verifier defaults and the report type
of both verifiers, the point at infinity of the parameter line (a UPB
point, which ``upb`` parses without loading ``construct``), and the graded
spaces in closed form.  A ``LevelSums`` names S, Sperp, a level slice or
example1, a ``GroupSums`` example2-M (``SPLIT_ANTIDIAGONAL``), and
``_group_entries`` writes their reduced echelon rows as lists of any three
values for 0, 1 and -1: the ``Fraction`` rows of ``entspace.construct``,
the residues of the oracle's annihilator, or the text a graded
``construct`` writes straight into its document.  Index bookkeeping and
level counting that only the library uses (``multi_index``,
``all_indices``, ``level_count``, its closed forms, ``iter_dims``) live in
``entspace.counting``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate
from operator import attrgetter, index
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .construct import ProductVector

MultiIndex = tuple[int, ...]

# Largest dense basis a construction writes down, as rows * total entries.
# Every entry is also a cell of the JSON or CSV document; 12x14 S (the
# largest benchmarked) has about 2.4e4, 300x300 S would need 8e9.
DENSE_BUDGET = 2 * 10**6

# Verifier defaults and verdicts.  They live here, away from the numpy-based
# ``verify`` and the F_p oracle ``ff``, so the CLI builds its parser from
# this module alone, and an ALS search runs without loading the oracle.
DEFAULT_RESTARTS = 64
DEFAULT_MAX_SWEEPS = 500
DEFAULT_TOL = 1e-10
NO_WITNESS = "no-product-vector-found"
WITNESS = "witness-found"


class BudgetExceededError(RuntimeError):
    """A computation would take more steps than its budget allows.

    ``estimate`` is the step count reached (or predicted) when the budget
    ran out; ``unit`` says what a step is.
    """

    def __init__(self, estimate: int, budget: int, task: str = "elimination",
                 unit: str = "multiply-adds"):
        self.estimate = estimate
        self.budget = budget
        # past 30 digits, the power of two at or below the estimate: still a
        # lower bound, and clear of the interpreter's limit on the digits of
        # an int converted to text
        shown = estimate if estimate < 10**30 else f"2**{estimate.bit_length() - 1}"
        super().__init__(f"{task} needs at least {shown} {unit}, budget is {budget}")


def check_dense_size(rows: int, cols: int) -> None:
    """Refuse to write down ``rows`` dense vectors of length ``cols`` over budget."""
    entries = rows * cols
    if entries > DENSE_BUDGET:
        raise BudgetExceededError(entries, DENSE_BUDGET, "dense basis", "entries")


class _InfinityPoint:
    """The point at infinity on the projective parameter line: the
    Vandermonde vectors' limit, and a UPB point ``inf``."""

    _instance = None

    def __new__(cls) -> "_InfinityPoint":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityPoint()


class Record:
    """Base of the mutable report types: a repr ``Name(field=value, ...)``
    and equality field by field.

    A subclass names its fields in ``__slots__``, in constructor order, and
    sets them in its own ``__init__``; one whose field is a property backed
    by a private slot names its fields in ``_fields`` instead.  Nothing is
    generated at import, so start-up loads no code generator (nor the
    ``inspect``, ``ast`` and ``tokenize`` one would pull in).
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls.__slots__:
            cls._fields = cls.__dict__.get("_fields", cls.__slots__)
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class VerificationReport(Record):
    """One verifier's verdict on one space: the F_p oracle's at one prime,
    or an ALS search's.  It lives here, beside ``Record``, so a search
    reports without loading the exact layers; the package exports it."""

    __slots__ = ("method", "params", "verdict", "witness", "metrics",
                 "certified_dims")

    def __init__(self,
                 method: str,       # "finite-field" | "als"
                 params: dict,
                 verdict: str,      # NO_WITNESS | WITNESS
                 witness: ProductVector | None, metrics: dict,
                 certified_dims: dict) -> None:
        self.method = method
        self.params = params
        self.verdict = verdict
        self.witness = witness
        self.metrics = metrics
        self.certified_dims = certified_dims
        if (witness is not None) != (verdict == WITNESS):
            raise ValueError("witness must be present exactly when found")


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

    def __str__(self) -> str:
        return "x".join(str(x) for x in self.d)


def parse_dims(text: str) -> Dims:
    """Parse a dimension list such as ``"2,3,4"`` (or the display form ``"2x3x4"``)."""
    try:
        parts = tuple(int(p) for p in text.replace("x", ",").split(","))
    except ValueError:
        raise ValueError(f"cannot parse dims {text!r}") from None
    return Dims(parts)


def enumerate_level(dims: Dims, n: int) -> list[MultiIndex]:
    """All multi-indices with index sum n, in lexicographic order."""
    if not 0 <= n <= dims.max_level:
        raise ValueError(f"level {n} out of range [0, {dims.max_level}]")
    # Largest sum realizable by the suffix starting at factor r.
    suffix_max = [0] * (dims.k + 1)
    for r in range(dims.k - 1, -1, -1):
        suffix_max[r] = suffix_max[r + 1] + dims.d[r] - 1

    top = [x - 1 for x in dims.d]
    idx = [0] * dims.k

    def fill(r: int, remaining: int) -> None:
        # the smallest tail idx[r:] that sums to ``remaining``
        for j in range(r, dims.k):
            idx[j] = max(0, remaining - suffix_max[j + 1])
            remaining -= idx[j]

    # A lexicographic odometer, with no recursion to bound the number of
    # factors: each step raises the rightmost factor that can still grow
    # while its tail gives up one unit, then makes that tail the smallest.
    fill(0, n)
    out: list[MultiIndex] = [tuple(idx)]
    while True:
        tail = 0
        for r in range(dims.k - 2, -1, -1):
            tail += idx[r + 1]
            if tail and idx[r] < top[r]:
                break
        else:
            return out
        idx[r] += 1
        fill(r + 1, tail - 1)
        out.append(tuple(idx))


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


class LevelSums(NamedTuple):
    """A graded space named by its levels and described by their sums u_n.

    With ``sums`` the space is spanned by the level sums u_n of ``levels``;
    without, it is the part of those levels orthogonal to their u_n.  So S
    (and example1, which is S on two factors) is every level without sums,
    Sperp every level with sums, and ``level:n`` the level n without sums.
    ``levels`` is any sequence of distinct levels, a range included.
    ``max_product_overlap`` searches such a space as it is, with no basis;
    the ``entangled_*`` builders of ``entspace.construct`` write its exact
    basis down.
    """

    levels: Sequence[int]
    sums: bool = False


class GroupSums(NamedTuple):
    """A space cut out, as a ``LevelSums`` is by its levels, by the sums of
    ``groups``: disjoint runs of ascending positions, given as they are.
    Without ``sums`` it is the part of the groups orthogonal to their sums,
    with ``sums`` the span of those sums."""

    groups: Sequence
    sums: bool = False


# example2-M on 4,4: every level's positions 4i + j, level 3's run split in two
SPLIT_ANTIDIAGONAL = GroupSums(
    ((0,), (1, 4), (2, 5, 8), (3, 6), (9, 12), (7, 10, 13), (11, 14), (15,)))


def _group_entries(total: int, groups, sums: bool, zero, one, minus_one) -> list[list]:
    """Reduced echelon rows of a space cut out by group sums, written down
    without elimination, as lists of ``zero``, ``one`` and ``minus_one``:
    field scalars for a basis, residues mod p for the oracle's annihilator,
    text for a document.

    ``groups`` are disjoint runs of ascending positions.  Per group the rows
    are either the group sum, pivot at the group's first position, or
    e_i - e_last for every position i of the group but its last: the part of
    the group orthogonal to its sum.  Groups have disjoint supports, so the
    rows of all groups, sorted by pivot, are already reduced.  Groups are
    counted before their rows are built, so an oversized basis is refused
    after building at most ``DENSE_BUDGET`` entries.
    """
    pivoted: list[tuple[int, list]] = []
    for positions in groups:
        check_dense_size(len(pivoted) + (1 if sums else len(positions) - 1), total)
        if sums:
            coeffs = [zero] * total
            for pos in positions:
                coeffs[pos] = one
            pivoted.append((positions[0], coeffs))
            continue
        last = positions[-1]
        for pos in positions[:-1]:
            coeffs = [zero] * total
            coeffs[pos] = one
            coeffs[last] = minus_one
            pivoted.append((pos, coeffs))
    pivoted.sort(key=lambda row: row[0])
    return [coeffs for _, coeffs in pivoted]


def _check_level_rows(dims: Dims, space: LevelSums) -> None:
    """Refuse the basis of a ``LevelSums`` space from row counts that need no
    enumeration: total - (N+1) for every level without sums, one row per
    level with sums, and at least one for each level 0 < n < N, which holds
    two indices or more."""
    top = dims.max_level
    levels = space.levels
    # the levels are distinct, so their number is one past the last one's
    # index: len() of a range overflows past sys.maxsize
    rows = levels.index(levels[-1]) + 1 if levels else 0
    if not space.sums:
        rows = dims.total - rows if rows == top + 1 else sum(0 < n < top for n in levels)
    check_dense_size(rows, dims.total)


def _level_groups(dims: Dims, space: LevelSums | GroupSums):
    """The ascending positions of each level of a ``LevelSums`` space, one
    group per level, enumerated as they are consumed; a ``GroupSums``'s own
    groups."""
    if isinstance(space, GroupSums):
        return space.groups
    return ([dims.position(idx) for idx in enumerate_level(dims, n)]
            for n in space.levels)
