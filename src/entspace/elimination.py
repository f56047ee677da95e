"""Exact elimination and the subspace calculus built on it.

Every result is a ``Subspace`` in reduced row-echelon form, which is
canonical: two subspaces are equal iff their stored rows are identical, and
spanning any permutation or rescaling of a generating set reproduces the
same rows.  All arithmetic is exact; there is deliberately no
floating-point rank or elimination here.  The one row reduction and the
one kernel read-off are ``reduction._reduce_rows`` and
``reduction._kernel_basis`` on ints: residues over F_p, and over Q rows
scaled to integers and reduced without fractions.  ``orthocomplement``
reads its kernel off the int rows of its input and reduces it once, with
no vector made in between.  Scalars are made once, for the result.

The closed-form constructions, the finite-field oracle, the ``upb``
command's closed-form audit and every command on example2 need none of
this: only ``verify_upb``, the library's ``split_antidiagonal_spaces``
(example2-R spans product vectors) and the tests load it.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import Field, Fp, prime_field
from .grading import Dims
from .linalg import StateVector, Subspace, integer_rows
from .reduction import _kernel_basis, _reduce_rows, check_elimination_cost


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
