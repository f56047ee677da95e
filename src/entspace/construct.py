"""Constructions on the graded tensor-product space.

Everything here is exact: the completely entangled subspace spanned by
equal-level differences, its product-vector orthocomplement spanned by the
level sums (both written down in reduced echelon form, with no
elimination), the Vandermonde product vectors that exhaust that complement,
unextendible product bases (minimal in any arity, every admissible size for
two factors), character orthonormal bases per level, and two matrix-space
examples for the bipartite case.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

from .fields import COMPLEX, Field, RATIONAL, Scalar
from .grading import Dims, MultiIndex, Value, enumerate_level, level_counts
from .linalg import (
    StateVector, Subspace, check_dense_size, check_elimination_cost,
    orthocomplement, span,
)


class _InfinityPoint:
    """The point at infinity on the projective parameter line."""

    _instance = None

    def __new__(cls) -> "_InfinityPoint":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityPoint()


class ProductVector(Value):
    """One factor vector per tensor slot; the tensor expansion is dense.

    Zero factors are rejected: they would collapse the whole product to zero
    and silently break rank arguments downstream.
    """

    __slots__ = ("dims", "field", "factors")
    dims: Dims
    field: Field
    factors: tuple[tuple[Scalar, ...], ...]

    def __init__(self, dims: Dims, field: Field,
                 factors: tuple[tuple[Scalar, ...], ...]) -> None:
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "factors", factors)
        if len(factors) != dims.k:
            raise ValueError(
                f"expected {dims.k} factors, got {len(factors)}"
            )
        for r, f in enumerate(factors):
            if len(f) != dims.d[r]:
                raise ValueError(
                    f"factor {r} has length {len(f)}, expected {dims.d[r]}"
                )
            if not any(f):
                raise ValueError(f"factor {r} is zero")

    @staticmethod
    def from_values(dims: Dims, field: Field, factors) -> "ProductVector":
        return ProductVector(
            dims, field,
            tuple(tuple(field.coerce(c) for c in f) for f in factors),
        )

    def expand(self) -> StateVector:
        """Dense coefficients: product of factor entries at each multi-index."""
        coeffs: list[Scalar] = [self.field.one()]
        for f in self.factors:
            coeffs = [c * a for c in coeffs for a in f]
        return StateVector(self.dims, self.field, tuple(coeffs))

    def projective(self) -> "ProductVector":
        """Scale each factor so its first nonzero coordinate is 1."""
        if not self.field.exact:
            raise TypeError("projective normal form needs an exact field")
        scaled = []
        for f in self.factors:
            lead = next(c for c in f if c)
            scaled.append(tuple(c / lead for c in f))
        return ProductVector(self.dims, self.field, tuple(scaled))


def standard_product_vector(
    dims: Dims, idx: MultiIndex, field: Field = RATIONAL
) -> ProductVector:
    """The basis product vector e_{i_1} x ... x e_{i_k}."""
    dims.check_index(idx)
    factors = []
    for r, i in enumerate(idx):
        f = [field.zero()] * dims.d[r]
        f[i] = field.one()
        factors.append(tuple(f))
    return ProductVector(dims, field, tuple(factors))


def level_sum_vector(dims: Dims, n: int, field: Field = RATIONAL) -> StateVector:
    """Unweighted sum of all standard basis vectors whose index sum is n."""
    if not 0 <= n <= dims.max_level:
        raise ValueError(f"level {n} out of range [0, {dims.max_level}]")
    one, zero = field.one(), field.zero()
    coeffs = [zero] * dims.total
    for idx in enumerate_level(dims, n):
        coeffs[dims.position(idx)] = one
    return StateVector(dims, field, tuple(coeffs))


def vandermonde_vector(dims: Dims, point, field: Field = RATIONAL) -> ProductVector:
    """Product vector with factor (1, t, t^2, ...) at every slot.

    At INFINITY the factor degenerates to the top basis vector of each slot,
    matching the entrywise limit of z/t^N as |t| grows.
    """
    factors = []
    if point is INFINITY:
        for d in dims.d:
            f = [field.zero()] * d
            f[d - 1] = field.one()
            factors.append(tuple(f))
    else:
        lam = field.coerce(point)
        for d in dims.d:
            f = []
            cur = field.one()
            for _ in range(d):
                f.append(cur)
                cur = cur * lam
            factors.append(tuple(f))
    return ProductVector(dims, field, tuple(factors))


def _graded_rows(dims: Dims, field: Field, levels, sums: bool = False) -> Subspace:
    """Reduced echelon basis of a graded space, written down without elimination.

    Per level the rows are either the level sum u_n, pivot at the level's
    first position, or e_i - e_last for every position i of the level but
    its last (lexicographically largest).  Levels have disjoint supports, so
    the rows of all requested levels, sorted by pivot, are already reduced.
    Levels are counted before their rows are built, so an oversized basis is
    refused after building at most ``DENSE_BUDGET`` entries.
    """
    if not field.exact:
        raise TypeError("echelon bases need an exact field; convert floats upstream")
    zero, one = field.zero(), field.one()
    minus_one = -one
    pivoted: list[tuple[int, list[Scalar]]] = []
    for n in levels:
        positions = [dims.position(idx) for idx in enumerate_level(dims, n)]
        check_dense_size(len(pivoted) + (1 if sums else len(positions) - 1), dims.total)
        if sums:
            coeffs = [zero] * dims.total
            for pos in positions:
                coeffs[pos] = one
            pivoted.append((positions[0], coeffs))
            continue
        last = positions[-1]
        for pos in positions[:-1]:
            coeffs = [zero] * dims.total
            coeffs[pos] = one
            coeffs[last] = minus_one
            pivoted.append((pos, coeffs))
    pivoted.sort(key=lambda row: row[0])
    rows = tuple(StateVector(dims, field, tuple(c)) for _, c in pivoted)
    return Subspace(dims, field, rows)


def entangled_subspace(dims: Dims, field: Field = RATIONAL) -> Subspace:
    """The maximal completely entangled subspace: per level, the vectors whose
    coefficients sum to zero.  Its dimension is total - (max_level + 1).

    Written down in reduced echelon form; the tests check it against the
    span of same-level differences by elimination."""
    return _graded_rows(dims, field, range(dims.max_level + 1))


def entangled_complement(dims: Dims, field: Field = RATIONAL) -> Subspace:
    """Orthocomplement of the entangled subspace: span of the level sums."""
    return _graded_rows(dims, field, range(dims.max_level + 1), sums=True)


def entangled_level(dims: Dims, n: int, field: Field = RATIONAL) -> Subspace:
    """Slice of the entangled subspace inside a single level; dim a_n - 1."""
    return _graded_rows(dims, field, [n])


def level_sum_line(dims: Dims, n: int, field: Field = RATIONAL) -> Subspace:
    return _graded_rows(dims, field, [n], sums=True)


def character_basis(dims: Dims, n: int) -> list[StateVector]:
    """Discrete-Fourier orthonormal basis of a level, as complex floats.

    Entry 0 is the normalized level sum; entries 1.. span the entangled slice
    of the level.  The Gram matrix is the identity up to float roundoff.
    """
    idxs = enumerate_level(dims, n)
    a = len(idxs)
    check_dense_size(a, dims.total)
    scale = 1.0 / math.sqrt(a)
    out = []
    for j in range(a):
        coeffs = [0j] * dims.total
        for t, idx in enumerate(idxs):
            coeffs[dims.position(idx)] = scale * cmath.exp(2j * math.pi * j * t / a)
        out.append(StateVector.from_values(dims, COMPLEX, coeffs))
    return out


def _distinct_points(points, field: Field) -> list:
    seen: list = []
    for pt in points:
        key = pt if pt is INFINITY else field.coerce(pt)
        if key in seen:
            raise ValueError(f"duplicate parameter point {key!r}")
        seen.append(key)
    return seen


def minimal_upb(
    dims: Dims, points=None, field: Field = RATIONAL
) -> list[ProductVector]:
    """Unextendible product basis of the minimal size max_level + 1.

    Default points are the integers 0..max_level, all finite, keeping every
    coefficient rational.  The expansions are rank-checked to span the
    product-vector complement exactly; distinct points guarantee this, so a
    failure here is a bug, not bad input.
    """
    n_points = dims.max_level + 1
    check_elimination_cost(n_points, dims.total)  # before any point is made
    if points is None:
        points = [Fraction(t) for t in range(n_points)]
    points = _distinct_points(points, field)
    if len(points) != n_points:
        raise ValueError(f"need exactly {n_points} points, got {len(points)}")
    vectors = [vandermonde_vector(dims, pt, field) for pt in points]
    spanned = span([v.expand() for v in vectors])
    if spanned.dim != n_points or spanned != entangled_complement(dims, field):
        raise AssertionError("expansions do not span the product-vector complement")
    return vectors


class UpbRecipe(NamedTuple):
    """Record of the choices behind an any-size bipartite UPB."""

    dims: Dims
    size: int
    levels: tuple[int, ...]
    points: tuple
    dropped: tuple[MultiIndex, ...]


def _choose_levels(weights: list[int], target: int) -> list[int]:
    # Suffix-achievability table, then greedy from the smallest level.
    # Only levels that actually contribute (weight > 0) are recorded.
    n = len(weights)
    achievable: list[set[int]] = [set() for _ in range(n + 1)]
    achievable[n] = {0}
    for i in range(n - 1, -1, -1):
        nxt = achievable[i + 1]
        achievable[i] = nxt | {w + weights[i] for w in nxt}
    if target not in achievable[0]:
        raise RuntimeError(f"no level subset reaches target {target}")
    chosen, rem = [], target
    for i in range(n):
        if weights[i] and weights[i] <= rem and rem - weights[i] in achievable[i + 1]:
            chosen.append(i)
            rem -= weights[i]
    if rem != 0:
        raise RuntimeError("level selection lost feasibility mid-walk")
    return chosen


def upb_of_size(
    dims: Dims, m: int, points=None, field: Field = RATIONAL
) -> tuple[UpbRecipe, list[ProductVector]]:
    """Bipartite unextendible product basis with exactly m elements.

    Starts from a minimal UPB and, for each chosen level, adds every standard
    basis product vector of that level except the lexicographically last.
    The orthocomplement of the result is the direct sum of the entangled
    slices of the unchosen levels, which sits inside the entangled subspace.
    Nothing is eliminated here: ``ff.verify_upb`` audits rank and
    complement exactly.
    """
    if dims.k != 2:
        raise ValueError("sizes above the minimum need exactly two factors")
    top = dims.max_level
    lo, hi = top + 1, dims.total
    if not lo <= m <= hi:
        raise ValueError(f"size {m} outside [{lo}, {hi}] for dims {dims}")
    # first, so that an oversized shape is refused before the level choice
    base = minimal_upb(dims, points, field)
    weights = [c - 1 for c in level_counts(dims)]
    chosen = _choose_levels(weights, m - lo)

    used_points = (
        tuple(Fraction(t) for t in range(lo)) if points is None else tuple(points)
    )
    extras: list[ProductVector] = []
    dropped: list[MultiIndex] = []
    for n in chosen:
        idxs = enumerate_level(dims, n)
        dropped.append(idxs[-1])
        extras.extend(standard_product_vector(dims, idx, field) for idx in idxs[:-1])
    return UpbRecipe(dims, m, tuple(chosen), used_points, tuple(dropped)), base + extras


def antidiagonal_zero_space(d1: int, d2: int, field: Field = RATIONAL) -> Subspace:
    """Matrices all of whose anti-diagonal sums vanish, viewed as vectors.

    This is the entangled subspace on two factors, so it is built the same
    way; the tests derive it independently as the orthocomplement of the
    anti-diagonal sum functionals.
    """
    return entangled_subspace(Dims((d1, d2)), field)


class SplitAntidiagonalExample(NamedTuple):
    m_space: Subspace
    m_perp: Subspace
    spanning_set: list[ProductVector]


def split_antidiagonal_spaces(field: Field = RATIONAL) -> SplitAntidiagonalExample:
    """4x4 matrix-space example where a natural rank-one family undershoots.

    The middle anti-diagonal constraint is split into two shorter runs, so
    m_space has eight constraints and dimension 8, strictly inside the
    entangled subspace.  The returned rank-one family (Vandermonde points
    0..6 plus the top corner matrix) spans only a 7-dimensional part of the
    8-dimensional orthocomplement of m_space, yet its own orthocomplement is
    already completely entangled.
    """
    dims = Dims((4, 4))
    groups = [
        [(0, 0)],
        [(0, 1), (1, 0)],
        [(0, 2), (1, 1), (2, 0)],
        [(0, 3), (1, 2)],
        [(2, 1), (3, 0)],
        [(1, 3), (2, 2), (3, 1)],
        [(2, 3), (3, 2)],
        [(3, 3)],
    ]
    funcs = []
    for g in groups:
        coeffs = [field.zero()] * dims.total
        for idx in g:
            coeffs[dims.position(idx)] = field.one()
        funcs.append(StateVector(dims, field, tuple(coeffs)))
    m_space = orthocomplement(span(funcs))
    m_perp = orthocomplement(m_space)
    pts = [Fraction(t) for t in range(7)] + [INFINITY]
    family = [vandermonde_vector(dims, pt, field) for pt in pts]
    return SplitAntidiagonalExample(m_space, m_perp, family)


def gram_matrix(vectors: list[ProductVector]) -> list[list[Scalar]]:
    """Gram matrix of the expansions, conjugate-linear in the row index."""
    if not vectors:
        return []
    expanded = [v.expand() for v in vectors]
    return [[a.inner(b) for b in expanded] for a in expanded]
