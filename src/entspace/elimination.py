"""Exact Gauss-Jordan elimination and the subspace calculus built on it.

Every result is a ``Subspace`` in reduced row-echelon form, which is
canonical: two subspaces are equal iff their stored rows are identical, and
spanning any permutation or rescaling of a generating set reproduces the
same rows.  All arithmetic is exact; there is deliberately no
floating-point rank or elimination here.

The closed-form constructions and the finite-field oracle need none of
this, so only the UPB audits, ``example2`` and a span of product vectors
load it.
"""

from __future__ import annotations

from .fields import Field, Fp, Scalar, prime_field
from .grading import Dims
from .linalg import StateVector, Subspace, _as_int, check_elimination_cost


def _rref(rows: list[list[Scalar]]) -> list[list[Scalar]]:
    """In-place Gauss-Jordan elimination; returns the nonzero rows."""
    nrows = len(rows)
    if nrows == 0:
        return []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return rows[:r]


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
    reduced = _rref([list(v.coeffs) for v in vectors])
    rows = tuple(StateVector(head.dims, head.field, tuple(r)) for r in reduced)
    return Subspace(head.dims, head.field, rows)


def orthocomplement(s: Subspace) -> Subspace:
    """Orthogonal complement under the plain bilinear form.

    Exact fields only: over the rationals and prime fields conjugation is
    the identity, so this is also the sesquilinear complement.
    """
    if not s.field.exact:
        raise TypeError("orthocomplement is defined for exact fields only")
    total = s.dims.total
    if s.dim == 0:
        basis = [
            StateVector.basis_vector(s.dims, s.field, s.dims.multi_index(p))
            for p in range(total)
        ]
        return span(basis)
    # The rows are reduced (pivots are 1), so the kernel is read off directly.
    pivots = s.pivots()
    pivot_set = set(pivots)
    zero = s.field.zero()
    kernel: list[StateVector] = []
    for f in range(total):
        if f in pivot_set:
            continue
        w = [zero] * total
        w[f] = s.field.one()
        for row, pj in zip(s.rows, pivots):
            w[pj] = -row.coeffs[f]
        kernel.append(StateVector(s.dims, s.field, tuple(w)))
    return span(kernel, dims=s.dims, field=s.field)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_space(a, b)
    return span(list(a.rows) + list(b.rows), dims=a.dims, field=a.field)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block trick (no inner product needed)."""
    _check_same_space(a, b)
    total = a.dims.total
    zero = a.field.zero()
    block: list[list[Scalar]] = []
    for row in a.rows:
        block.append(list(row.coeffs) + list(row.coeffs))
    for row in b.rows:
        block.append(list(row.coeffs) + [zero] * total)
    reduced = _rref(block)
    gens = []
    for row in reduced:
        if not any(row[:total]):
            gens.append(StateVector(a.dims, a.field, tuple(row[total:])))
    return span(gens, dims=a.dims, field=a.field)


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
    reduced = []
    for v in vectors:
        if v.dims != dims:
            raise TypeError(f"vector dims {v.dims} do not match {dims}")
        reduced.append(
            StateVector(dims, fld, tuple(Fp(_as_int(c), p) for c in v.coeffs))
        )
    return span(reduced, dims=dims, field=fld)
