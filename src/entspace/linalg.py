"""Dense vectors and subspaces over an exact field.

Subspaces are stored as a reduced row-echelon basis, which is canonical:
two subspaces are equal iff their stored rows are identical.  The one exact
row reduction, ``_reduce_rows`` on ints over Q or F_p, and the elimination
budget live in ``entspace.reduction``, which the F_p oracle loads without
this module; the subspace calculus built on them (``span``,
``orthocomplement``, ``intersect``, ...) lives in ``entspace.elimination``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _lazy_getattr
from .fields import Field
from .grading import Dims, MultiIndex, Value
from .reduction import _reduce_rows

if TYPE_CHECKING:
    from .fields import Scalar

# Aliases that perfbench's tracer looks up here, until it names the homes
# (ROADMAP item 1).
__getattr__ = _lazy_getattr(__name__, dict.fromkeys(
    ("span", "orthocomplement", "reduce_mod_p"), "elimination"))


class StateVector(Value):
    """Coefficient vector over the global lexicographic product basis."""

    __slots__ = ("dims", "field", "coeffs")
    dims: Dims
    field: Field
    coeffs: tuple[Scalar, ...]

    def __init__(self, dims: Dims, field: Field, coeffs: tuple[Scalar, ...]) -> None:
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != dims.total:
            raise ValueError(
                f"expected {dims.total} coefficients, got {len(coeffs)}"
            )

    @staticmethod
    def from_values(dims: Dims, field: Field, values) -> "StateVector":
        return StateVector(dims, field, tuple(field.coerce(v) for v in values))

    @staticmethod
    def zero(dims: Dims, field: Field) -> "StateVector":
        return StateVector(dims, field, (field.zero(),) * dims.total)

    @staticmethod
    def basis_vector(dims: Dims, field: Field, idx: MultiIndex) -> "StateVector":
        pos = dims.position(idx)
        coeffs = [field.zero()] * dims.total
        coeffs[pos] = field.one()
        return StateVector(dims, field, tuple(coeffs))

    def _check_compatible(self, other: "StateVector") -> None:
        if not isinstance(other, StateVector):
            raise TypeError(f"expected StateVector, got {type(other).__name__}")
        if self.dims != other.dims or self.field != other.field:
            raise TypeError(
                f"mismatched vectors: {self.dims}/{self.field.label} vs "
                f"{other.dims}/{other.field.label}"
            )

    def __add__(self, other: "StateVector") -> "StateVector":
        self._check_compatible(other)
        return StateVector(
            self.dims, self.field,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "StateVector") -> "StateVector":
        self._check_compatible(other)
        return StateVector(
            self.dims, self.field,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def scale(self, c) -> "StateVector":
        c = self.field.coerce(c)
        return StateVector(self.dims, self.field, tuple(c * a for a in self.coeffs))

    def inner(self, other: "StateVector") -> Scalar:
        """Sesquilinear inner product, conjugate-linear in ``self``."""
        self._check_compatible(other)
        acc = self.field.zero()
        for a, b in zip(self.coeffs, other.coeffs):
            acc = acc + a.conjugate() * b
        return acc

    def is_zero(self) -> bool:
        return not any(self.coeffs)


class Subspace(Value):
    """Subspace held as a reduced row-echelon basis (canonical form)."""

    __slots__ = ("dims", "field", "rows")
    dims: Dims
    field: Field
    rows: tuple[StateVector, ...]

    def __init__(self, dims: Dims, field: Field, rows: tuple[StateVector, ...]) -> None:
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pivots(self) -> list[int]:
        out = []
        for row in self.rows:
            out.append(next(i for i, c in enumerate(row.coeffs) if c))
        return out

    def contains(self, v: StateVector) -> bool:
        """Exact membership: the rows and ``v`` stop short of rank dim + 1."""
        if v.dims != self.dims or v.field != self.field:
            raise TypeError(f"mismatched vector for subspace: {v.dims}/{v.field.label} "
                            f"vs {self.dims}/{self.field.label}")
        rows = integer_rows(self.rows + (v,))
        return _reduce_rows(rows, self.dims.total, self.field.p, len(rows)) is not None


def integer_rows(vectors, dims: Dims | None = None) -> list[list[int]]:
    """The vectors' coefficients as rows of ints: residues over F_p, and over
    Q each row times the lcm of its denominators.  Integer generators of
    ``dims``, if given, are taken as they are: a vector of other dims raises
    ``TypeError``, one over another field or with a fraction ``ValueError``."""
    out = []
    for v in vectors:
        if dims is not None and v.dims != dims:
            raise TypeError(f"vector dims {v.dims} do not match {dims}")
        if v.field.kind == "fp" and dims is None:
            out.append([c.value for c in v.coeffs])
            continue
        if v.field.kind != "rational":
            raise ValueError(f"coefficients over {v.field.label} are not integers")
        m = math.lcm(*[c.denominator for c in v.coeffs])
        if m > 1 and dims is not None:
            raise ValueError(f"coefficients of denominator lcm {m} are not integers")
        out.append([c.numerator * (m // c.denominator) for c in v.coeffs])
    return out


def integer_generators(s: Subspace) -> list[StateVector]:
    """Rescale each basis row by its denominator lcm to integer coefficients."""
    if s.field.kind not in ("rational",):
        raise TypeError(f"integer generators undefined over {s.field.label}")
    from fractions import Fraction

    return [StateVector(s.dims, s.field, tuple(map(Fraction, row)))
            for row in integer_rows(s.rows)]
