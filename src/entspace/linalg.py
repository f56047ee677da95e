"""Exact scalars, dense vectors and subspaces, and the subspace calculus.

Exact work happens over the rationals (stdlib ``Fraction``) or a prime
field; complex floats exist only as a target for explicit conversion (the
numerical verifier).  All scalar types support ``+ - * /``, truthiness as a
zero test, and ``.conjugate()``, so the vectors and subspaces never branch
on the field kind.

Subspaces are stored as a reduced row-echelon basis, which is canonical:
two subspaces are equal iff their stored rows are identical, and spanning
any permutation or rescaling of a generating set reproduces the same rows.
All arithmetic is exact; there is deliberately no floating-point rank or
elimination here.  The one row reduction and the one kernel read-off are
``reduction._reduce_rows`` and ``reduction._kernel_basis`` on ints:
residues over F_p, and over Q rows scaled to integers and reduced without
fractions.  ``orthocomplement`` reads its kernel off the int rows of its
input and reduces it once, with no vector made in between.  Scalars are
made once, for the result.

No command loads this module: the closed-form constructions, the
finite-field oracle and the ``upb`` command's audit run on ints and text.
``verify_upb``, the library's ``split_antidiagonal_spaces`` and the tests
eliminate here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .grading import Dims, MultiIndex, Value
from .reduction import _kernel_basis, _reduce_rows, check_elimination_cost, is_prime


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
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise TypeError(f"denominator of {x} vanishes mod {self.p}")
                return Fp(x.numerator * pow(x.denominator, -1, self.p), self.p)
        else:  # complex
            if isinstance(x, (int, float, complex)):
                return complex(x)
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
    return [StateVector(s.dims, s.field, tuple(map(Fraction, row)))
            for row in integer_rows(s.rows)]


def _subspace(dims: Dims, field: Field, basis: list, pivots: list[int]) -> Subspace:
    """Reduced int rows as a Subspace, sorted by pivot: over Q each row
    divided by its pivot, over F_p with one shared ``Fp`` per residue."""
    pairs = sorted(zip(pivots, basis), key=lambda pair: pair[0])
    if field.kind == "fp":
        residues = {a: Fp(a, field.p) for a in set().union(*basis)}
        rows = [tuple([residues[a] for a in row]) for _, row in pairs]
    else:
        zero = Fraction(0)
        rows = [tuple([Fraction(a, row[c]) if a else zero for a in row])
                for c, row in pairs]
    return Subspace(dims, field, tuple(StateVector(dims, field, r) for r in rows))


def span(vectors, *, dims: Dims | None = None, field: Field | None = None) -> Subspace:
    """Reduced echelon basis of the linear span.

    ``dims`` and ``field`` are only needed when ``vectors`` is empty.  Raises
    ``BudgetExceededError`` before eliminating when the input is over
    ``ELIMINATION_BUDGET``.
    """
    vectors = list(vectors)
    if not vectors:
        if dims is None or field is None:
            raise TypeError("empty span needs explicit dims and field")
        return Subspace(dims, field, ())
    head = vectors[0]
    for v in vectors[1:]:
        head._check_compatible(v)
    if dims is not None and dims != head.dims:
        raise TypeError(f"vectors have dims {head.dims}, expected {dims}")
    if field is not None and field != head.field:
        raise TypeError(f"vectors are over {head.field.label}, expected {field.label}")
    if not head.field.exact:
        raise TypeError("span requires an exact field; convert floats upstream")
    check_elimination_cost(len(vectors), head.dims.total)
    reduced = _reduce_rows(integer_rows(vectors), head.dims.total, head.field.p)
    return _subspace(head.dims, head.field, *reduced)


def orthocomplement(s: Subspace) -> Subspace:
    """Orthogonal complement under the plain bilinear form.

    Exact fields only: over the rationals and prime fields conjugation is
    the identity, so this is also the sesquilinear complement.  The kernel
    is read off the int rows of the reduced basis and reduced once.
    """
    if not s.field.exact:
        raise TypeError("orthocomplement is defined for exact fields only")
    total = s.dims.total
    kernel = _kernel_basis(integer_rows(s.rows), s.pivots(), total, s.field.p)
    check_elimination_cost(len(kernel), total)
    return _subspace(s.dims, s.field, *_reduce_rows(kernel, total, s.field.p))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_space(a, b)
    return span(list(a.rows) + list(b.rows), dims=a.dims, field=a.field)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block trick (no inner product needed)."""
    _check_same_space(a, b)
    total = a.dims.total
    block = [row + row for row in integer_rows(a.rows)]
    block += [row + [0] * total for row in integer_rows(b.rows)]
    basis, pivots = _reduce_rows(block, 2 * total, a.field.p)
    # the rows pivoted in the second half are zero in the first, and their
    # second halves are reduced among themselves: a basis of the intersection
    meet = [i for i, c in enumerate(pivots) if c >= total]
    return _subspace(a.dims, a.field, [basis[i][total:] for i in meet],
                     [pivots[i] - total for i in meet])


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.dims != b.dims or a.field != b.field:
        raise TypeError(
            f"mismatched subspaces: {a.dims}/{a.field.label} vs {b.dims}/{b.field.label}"
        )


def reduce_mod_p(vectors, dims: Dims, p: int) -> Subspace:
    """Echelon basis over F_p of an integer-coefficient spanning set.

    The reduction happens on the generators, never on an already-echelonized
    rational basis, so mod-p rank drops are visible to the caller.
    """
    fld = prime_field(p)
    rows = [[a % p for a in row] for row in integer_rows(vectors, dims)]
    check_elimination_cost(len(rows), dims.total)
    return _subspace(dims, fld, *_reduce_rows(rows, dims.total, p))
