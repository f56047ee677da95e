"""Closed-form constructions on the graded tensor-product space.

Everything here is exact: the completely entangled subspace spanned by
equal-level differences, its product-vector orthocomplement spanned by the
level sums (both named by a ``LevelSums`` and written down in reduced
echelon form, with no elimination), and the Vandermonde product vectors
that exhaust that complement.  ``LevelSums``, its refusal
``_check_level_rows``, its groups ``_level_groups`` and the row writer
``_group_entries`` live in ``entspace.grading``, which the command line
loads anyway: a graded ``construct`` writes the rows there as text and
loads neither this module nor ``fractions``.  Here the same rows become a
``Subspace`` of ``Fraction`` (or ``Fp``) scalars.  The unextendible
product bases built from them are in ``entspace.upb``, and the character
bases and the 4x4 matrix-space example in ``entspace.examples``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import _lazy_getattr
from .fields import Field, RATIONAL
from .grading import INFINITY, Dims, LevelSums, MultiIndex, Value, _check_level_rows, \
    _group_entries, _level_groups, enumerate_level
from .linalg import StateVector, Subspace

if TYPE_CHECKING:
    from .fields import Scalar

# Aliases that perfbench's tracer looks up here, until it names the homes
# (ROADMAP item 1).
__getattr__ = _lazy_getattr(__name__, {
    **dict.fromkeys(("minimal_upb", "upb_of_size"), "upb"),
    **dict.fromkeys(("split_antidiagonal_spaces", "character_basis"), "examples"),
    "span": "elimination",
})


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


def _group_rows(dims: Dims, field: Field, groups, sums: bool = False) -> Subspace:
    """The space cut out by group sums (``_group_entries``) as an exact
    subspace of ``field``."""
    if not field.exact:
        raise TypeError("echelon bases need an exact field; convert floats upstream")
    one = field.one()
    rows = _group_entries(dims.total, groups, sums, field.zero(), one, -one)
    return Subspace(dims, field, tuple(StateVector(dims, field, tuple(c)) for c in rows))


def _level_rows(dims: Dims, space: LevelSums, field: Field = RATIONAL) -> Subspace:
    """Reduced echelon basis of a ``LevelSums`` space: one group per level,
    refused first by ``_check_level_rows``."""
    _check_level_rows(dims, space)
    return _group_rows(dims, field, _level_groups(dims, space), space.sums)


def entangled_subspace(dims: Dims, field: Field = RATIONAL) -> Subspace:
    """The maximal completely entangled subspace: per level, the vectors whose
    coefficients sum to zero.  Its dimension is total - (max_level + 1).

    Written down in reduced echelon form; the tests check it against the
    span of same-level differences by elimination."""
    return _level_rows(dims, LevelSums(range(dims.max_level + 1)), field)


def entangled_complement(dims: Dims, field: Field = RATIONAL) -> Subspace:
    """Orthocomplement of the entangled subspace: span of the level sums."""
    return _level_rows(dims, LevelSums(range(dims.max_level + 1), sums=True), field)


def entangled_level(dims: Dims, n: int, field: Field = RATIONAL) -> Subspace:
    """Slice of the entangled subspace inside a single level; dim a_n - 1."""
    return _level_rows(dims, LevelSums((n,)), field)


def level_sum_line(dims: Dims, n: int, field: Field = RATIONAL) -> Subspace:
    return _level_rows(dims, LevelSums((n,), sums=True), field)


def antidiagonal_zero_space(d1: int, d2: int, field: Field = RATIONAL) -> Subspace:
    """Matrices all of whose anti-diagonal sums vanish, viewed as vectors.

    This is the entangled subspace on two factors, so it is built the same
    way; the tests derive it independently as the orthocomplement of the
    anti-diagonal sum functionals.
    """
    return entangled_subspace(Dims((d1, d2)), field)
