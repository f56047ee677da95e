"""Dense vectors over an exact field, subspaces, budgets and reports.

Subspaces are stored as a reduced row-echelon basis, which is canonical:
two subspaces are equal iff their stored rows are identical.  The
elimination that makes such a basis from any generating set (``span``,
``orthocomplement``, ``intersect``, ...) lives in ``entspace.elimination``;
its names still resolve here, loading it on first access.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _lazy_getattr
from .fields import Field, Scalar
from .grading import Dims, MultiIndex, Record, Value

if TYPE_CHECKING:
    from .construct import ProductVector

__getattr__ = _lazy_getattr(__name__, dict.fromkeys(
    ("span", "orthocomplement", "subspace_sum", "intersect", "reduce_mod_p"),
    "elimination"))

# Largest elimination span() takes on, as rows * cols * min(rows, cols)
# (the multiply-adds of Gauss-Jordan).  Generic elimination over Fraction is
# cubic, so past this an input fails at once instead of running for hours;
# 16x16 S by elimination (about 1.3e7) is the scale just below it.
ELIMINATION_BUDGET = 2 * 10**7

# Largest dense basis a construction writes down, as rows * total entries.
# Every entry is also a cell of the JSON or CSV document; 12x14 S (the
# largest benchmarked) has about 2.4e4, 300x300 S would need 8e9.
DENSE_BUDGET = 2 * 10**6

# Verifier defaults, verdicts and report.  They live here, away from the
# numpy-based ``verify`` and the F_p oracle ``ff`` (which both re-export
# them), so the CLI builds its parser from this module alone, and an ALS
# search runs without loading the oracle.
DEFAULT_RESTARTS = 64
DEFAULT_MAX_SWEEPS = 500
DEFAULT_TOL = 1e-10
NO_WITNESS = "no-product-vector-found"
WITNESS = "witness-found"


class VerificationReport(Record):
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


class BudgetExceededError(RuntimeError):
    """A computation would take more steps than its budget allows.

    ``estimate`` is the step count reached (or predicted) when the budget
    ran out; ``unit`` says what a step is.
    """

    def __init__(self, estimate: int, budget: int, task: str = "elimination",
                 unit: str = "multiply-adds"):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"{task} needs at least {estimate} {unit}, budget is {budget}"
        )


def check_elimination_cost(rows: int, cols: int) -> None:
    """Refuse an elimination of ``rows`` vectors of length ``cols`` over budget."""
    estimate = rows * cols * min(rows, cols)
    if estimate > ELIMINATION_BUDGET:
        raise BudgetExceededError(estimate, ELIMINATION_BUDGET)


def check_dense_size(rows: int, cols: int) -> None:
    """Refuse to write down ``rows`` dense vectors of length ``cols`` over budget."""
    entries = rows * cols
    if entries > DENSE_BUDGET:
        raise BudgetExceededError(entries, DENSE_BUDGET, "dense basis", "entries")


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
        """Exact membership, by elimination against the echelon rows."""
        if v.dims != self.dims or v.field != self.field:
            raise TypeError(
                f"mismatched vector for subspace: {v.dims}/{v.field.label} vs "
                f"{self.dims}/{self.field.label}"
            )
        work = list(v.coeffs)
        for row, piv in zip(self.rows, self.pivots()):
            f = work[piv]
            if f:
                for i, c in enumerate(row.coeffs):
                    if c:
                        work[i] = work[i] - f * c
        return not any(work)


def _as_int(c: Scalar) -> int:
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"coefficient {c} is not an integer")
        return c.numerator
    raise ValueError(f"coefficient {c!r} is not an integer")


def integer_generators(s: Subspace) -> list[StateVector]:
    """Rescale each basis row by its denominator lcm to integer coefficients."""
    if s.field.kind not in ("rational",):
        raise TypeError(f"integer generators undefined over {s.field.label}")
    out = []
    for row in s.rows:
        denom = 1
        for c in row.coeffs:
            denom = math.lcm(denom, c.denominator)
        out.append(row.scale(denom))
    return out
