"""Scalar arithmetic for the three coefficient fields.

Exact work happens over the rationals (stdlib ``Fraction``) or a prime
field; complex floats exist only as a target for explicit conversion (the
numerical verifier).  All scalar types support ``+ - * /``, truthiness as a
zero test, and ``.conjugate()``, so the linear algebra layer never branches
on the field kind.

``fractions`` (with the ``decimal`` and ``numbers`` it loads, about 4 ms a
process) is imported only where a rational is made or tested, so a command
that makes none, such as the F_p oracle on a graded space, never loads it.
Nor does that oracle load this module: ``is_prime`` lives in
``entspace.reduction``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .grading import Value
from .reduction import is_prime

if TYPE_CHECKING:
    from fractions import Fraction


class Fp(Value):
    """Residue modulo a prime, carrying its modulus.

    Arithmetic between residues with different moduli is a ``TypeError``;
    plain ints are coerced into the operand's field.
    """

    __slots__ = ("value", "p")
    value: int
    p: int

    def __init__(self, value: int, p: int) -> None:
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    # residues are compared and hashed in bulk: no generic field walk
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value and self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.p))

    def _coerce(self, x: object) -> "Fp":
        if isinstance(x, Fp):
            if x.p != self.p:
                raise TypeError(f"mixed moduli {self.p} and {x.p}")
            return x
        if isinstance(x, int):
            return Fp(x, self.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "Fp":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value + o.value, self.p)

    __radd__ = __add__

    def __neg__(self) -> "Fp":
        return Fp(-self.value, self.p)

    def __sub__(self, other: object) -> "Fp":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value - o.value, self.p)

    def __rsub__(self, other: object) -> "Fp":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "Fp":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Fp":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other: object) -> "Fp":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def conjugate(self) -> "Fp":
        return self

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)


if TYPE_CHECKING:
    Scalar = Fraction | Fp | complex


class Field(Value):
    """Tag identifying the coefficient field of a vector or subspace."""

    __slots__ = ("kind", "p")
    kind: str  # "rational" | "fp" | "complex"
    p: int | None

    def __init__(self, kind: str, p: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        if kind not in ("rational", "fp", "complex"):
            raise ValueError(f"unknown field kind {kind!r}")
        if (kind == "fp") != (p is not None):
            raise ValueError("prime fields and only prime fields carry a modulus")
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")

    @property
    def exact(self) -> bool:
        return self.kind != "complex"

    @property
    def label(self) -> str:
        if self.kind == "fp":
            return f"fp({self.p})"
        if self.kind == "complex":
            return "complex128-approx"
        return self.kind

    def zero(self) -> Scalar:
        return self.coerce(0)

    def one(self) -> Scalar:
        return self.coerce(1)

    def coerce(self, x: object) -> Scalar:
        """Embed ``x`` into this field, or raise ``TypeError``."""
        if self.kind == "rational":
            from fractions import Fraction

            if isinstance(x, Fraction):
                return x
            if isinstance(x, (int, str)):
                return Fraction(x)
        elif self.kind == "fp":
            assert self.p is not None
            if isinstance(x, Fp):
                if x.p != self.p:
                    raise TypeError(f"residue mod {x.p} does not live in F_{self.p}")
                return x
            if isinstance(x, int):
                return Fp(x, self.p)
            from fractions import Fraction

            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise TypeError(f"denominator of {x} vanishes mod {self.p}")
                return Fp(x.numerator * pow(x.denominator, -1, self.p), self.p)
        else:  # complex
            if isinstance(x, (int, float, complex)):
                return complex(x)
            from fractions import Fraction

            if isinstance(x, Fraction):
                return complex(float(x))
        raise TypeError(f"cannot coerce {x!r} into {self.label}")


RATIONAL = Field("rational")
COMPLEX = Field("complex")


def prime_field(p: int) -> Field:
    return Field("fp", p)


def parse_field(label: str) -> Field:
    """Inverse of ``Field.label`` for the exact fields, plus the float tag."""
    if label == "rational":
        return RATIONAL
    # older documents label the same complex128 floats "complex64-approx"
    if label in ("complex128-approx", "complex64-approx"):
        return COMPLEX
    if label.startswith("fp(") and label.endswith(")"):
        return prime_field(int(label[3:-1]))
    raise ValueError(f"unknown field label {label!r}")
