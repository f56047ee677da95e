"""Closed-form constructions on the graded tensor-product space.

Everything here is exact: the completely entangled subspace spanned by
equal-level differences, its product-vector orthocomplement spanned by the
level sums (both written down in reduced echelon form, with no
elimination), and the Vandermonde product vectors that exhaust that
complement.  The unextendible product bases built from them are in
``entspace.upb``, and the character bases and the 4x4 matrix-space example
in ``entspace.examples``; their names still resolve here, loading that
module on first access.
"""

from __future__ import annotations

from . import _lazy_getattr
from .fields import Field, RATIONAL, Scalar
from .grading import Dims, MultiIndex, Value, enumerate_level
from .linalg import StateVector, Subspace, check_dense_size

__getattr__ = _lazy_getattr(__name__, {
    **dict.fromkeys(("UpbRecipe", "minimal_upb", "upb_of_size"), "upb"),
    **dict.fromkeys(("SplitAntidiagonalExample", "split_antidiagonal_spaces",
                     "gram_matrix", "character_basis"), "examples"),
    # no longer used here, but perfbench's tracer test looks them up here
    **dict.fromkeys(("span", "orthocomplement"), "elimination"),
})


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


def antidiagonal_zero_space(d1: int, d2: int, field: Field = RATIONAL) -> Subspace:
    """Matrices all of whose anti-diagonal sums vanish, viewed as vectors.

    This is the entangled subspace on two factors, so it is built the same
    way; the tests derive it independently as the orthocomplement of the
    anti-diagonal sum functionals.
    """
    return entangled_subspace(Dims((d1, d2)), field)
