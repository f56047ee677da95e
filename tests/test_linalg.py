"""Exact subspace calculus: canonical echelon form, complements, lattice ops."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entspace import (
    Dims,
    RATIONAL,
    COMPLEX,
    StateVector,
    intersect,
    level_count,
    level_sum_vector,
    orthocomplement,
    prime_field,
    reduce_mod_p,
    span,
    subspace_sum,
    vandermonde_vector,
)
from entspace import verify
from entspace.counting import all_indices, iter_dims, multi_index
from entspace.grading import BudgetExceededError
from entspace.linalg import Subspace, integer_generators, integer_rows
from entspace.reduction import ELIMINATION_BUDGET, _reduce_rows

D23 = Dims((2, 3))


def _vec(dims, values, field=RATIONAL):
    return StateVector.from_values(dims, field, values)


def test_vector_arithmetic_and_validation():
    v = _vec(D23, [1, 2, 3, 4, 5, 6])
    w = _vec(D23, [1, 0, 0, 0, 0, -1])
    assert (v + w).coeffs[0] == 2
    assert (v - w).coeffs[5] == 7
    assert v.scale(Fraction(1, 2)).coeffs[1] == 1
    assert not v.is_zero()
    assert StateVector.zero(D23, RATIONAL).is_zero()
    with pytest.raises(ValueError):
        _vec(D23, [1, 2, 3])
    with pytest.raises(TypeError):
        v + _vec(Dims((3, 2)), [0] * 6)


def test_inner_product_sesquilinear():
    a = _vec(D23, [1j, 0, 0, 0, 0, 0], COMPLEX)
    b = _vec(D23, [1, 0, 0, 0, 0, 0], COMPLEX)
    # conjugate-linear in the first slot
    assert a.inner(b) == -1j
    assert b.inner(a) == 1j
    assert a.inner(a) == 1


def test_span_examples():
    v = _vec(D23, [1, 2, 0, 0, 0, 0])
    assert span([v, v.scale(2)]).dim == 1
    assert span([], dims=D23, field=RATIONAL).dim == 0
    with pytest.raises(TypeError):
        span([])
    with pytest.raises(TypeError):
        span([_vec(D23, [1] * 6, COMPLEX)])  # exact fields only
    # dims (2,2): a single difference generator
    d22 = Dims((2, 2))
    gen = StateVector.basis_vector(d22, RATIONAL, (0, 1)) - StateVector.basis_vector(
        d22, RATIONAL, (1, 0)
    )
    assert span([gen]).dim == 1


small_entries = st.integers(-4, 4)


@given(st.lists(st.lists(small_entries, min_size=6, max_size=6), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_echelon_canonical_under_permutation_and_scaling(rows, rnd):
    vecs = [_vec(D23, r) for r in rows]
    s1 = span(vecs, dims=D23, field=RATIONAL)
    shuffled = list(vecs)
    rnd.shuffle(shuffled)
    scaled = [v.scale(Fraction(rnd.randint(1, 5), rnd.randint(1, 5))) for v in shuffled]
    s2 = span(scaled, dims=D23, field=RATIONAL)
    assert s1 == s2
    assert s1.rows == s2.rows


def _int_rank_mod_p(matrix: list[list[int]], p: int) -> int:
    # plain Gaussian elimination on ints, independent of the library
    m = [row[:] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] % p:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@given(st.lists(st.lists(st.integers(0, 10), min_size=6, max_size=6),
                min_size=1, max_size=7))
def test_rank_nullity_mod_p_against_plain_oracle(rows):
    p = 5
    fld = prime_field(p)
    vecs = [_vec(D23, r, fld) for r in rows]
    s = span(vecs, dims=D23, field=fld)
    assert s.dim == _int_rank_mod_p(rows, p)
    # rank plus kernel dimension of the row matrix equals the row count
    transpose = [[rows[r][c] for r in range(len(rows))] for c in range(6)]
    kernel_dim = len(rows) - _int_rank_mod_p(transpose, p)
    assert s.dim + kernel_dim == len(rows)


def test_membership():
    u1 = level_sum_vector(D23, 1)
    u2 = level_sum_vector(D23, 2)
    s = span([u1, u2])
    assert s.contains(u1 + u2.scale(-3))
    assert s.contains(StateVector.zero(D23, RATIONAL))
    assert not s.contains(StateVector.basis_vector(D23, RATIONAL, (0, 0)))
    with pytest.raises(TypeError):
        s.contains(StateVector.zero(Dims((2, 2)), RATIONAL))


def test_orthocomplement_involution_and_dims():
    rnd = random.Random(7)
    for _ in range(20):
        vecs = [
            _vec(D23, [rnd.randint(-3, 3) for _ in range(6)])
            for _ in range(rnd.randint(1, 5))
        ]
        s = span(vecs, dims=D23, field=RATIONAL)
        oc = orthocomplement(s)
        assert s.dim + oc.dim == 6
        assert orthocomplement(oc) == s
        for a in s.rows:
            for b in oc.rows:
                assert not a.inner(b)
    full = span([StateVector.basis_vector(D23, RATIONAL, idx) for idx in all_indices(D23)])
    assert orthocomplement(full).dim == 0
    assert orthocomplement(orthocomplement(full)) == full


def test_lattice_dimension_formula():
    rnd = random.Random(11)
    for _ in range(25):
        mk = lambda: span(
            [_vec(D23, [rnd.randint(-2, 2) for _ in range(6)])
             for _ in range(rnd.randint(1, 4))],
            dims=D23, field=RATIONAL,
        )
        a, b = mk(), mk()
        inter = intersect(a, b)
        total = subspace_sum(a, b)
        assert total.dim == a.dim + b.dim - inter.dim
        for row in inter.rows:
            assert a.contains(row) and b.contains(row)
        for row in a.rows:
            assert total.contains(row)


def test_level_sum_vandermonde_pairing_small_exhaustive():
    """<u_n, z(t)> = a_n t^n for every dims with total <= 64."""
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(5, 3)]
    for dims in iter_dims(max_total=64):
        for lam in points:
            z = vandermonde_vector(dims, lam).expand()
            for n in range(dims.max_level + 1):
                u = level_sum_vector(dims, n)
                assert u.inner(z) == level_count(dims, n) * lam**n


def test_reduce_mod_p_from_generators():
    v1 = _vec(D23, [5, 0, 0, 0, 0, 0])
    v2 = _vec(D23, [0, 1, 0, 0, 0, 0])
    assert reduce_mod_p([v1, v2], D23, 5).dim == 1
    assert reduce_mod_p([v1, v2], D23, 7).dim == 2
    assert reduce_mod_p([], D23, 5).dim == 0
    with pytest.raises(ValueError):
        reduce_mod_p([v1.scale(Fraction(1, 2))], D23, 5)
    # difference generators keep full rank mod small primes
    d33 = Dims((3, 3))
    from entspace import entangled_subspace

    gens = integer_generators(entangled_subspace(d33))
    assert reduce_mod_p(gens, d33, 7).dim == 4
    u_gens = [level_sum_vector(d33, n) for n in range(5)]
    assert reduce_mod_p(u_gens, d33, 7).dim == 5


def test_span_refuses_oversized_elimination():
    dims = Dims((20, 20))
    rows = [StateVector.basis_vector(dims, RATIONAL, multi_index(dims, p))
            for p in range(dims.total)]
    with pytest.raises(BudgetExceededError) as exc:
        span(rows)
    assert exc.value.estimate == 400**3 > ELIMINATION_BUDGET
    assert exc.value.budget == ELIMINATION_BUDGET
    assert span(rows[:200]).dim == 200  # 200 * 400 * 200 is admitted
    assert verify.BudgetExceededError is BudgetExceededError


def reference_rref(rows):
    """Reference Gauss-Jordan elimination on scalar objects (Fraction or Fp),
    in place; returns the nonzero rows of the reduced echelon form."""
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


def reference_span(vectors, dims, field):
    rows = reference_rref([list(v.coeffs) for v in vectors])
    return Subspace(dims, field, tuple(StateVector(dims, field, tuple(r)) for r in rows))


def reference_intersect(a, b):
    """Zassenhaus: the second halves of the reduced rows of [[a, a], [b, 0]]
    that vanish on the first half, spanned."""
    total = a.dims.total
    block = [list(r.coeffs) * 2 for r in a.rows]
    block += [list(r.coeffs) + [a.field.zero()] * total for r in b.rows]
    gens = [StateVector(a.dims, a.field, tuple(r[total:]))
            for r in reference_rref(block) if not any(r[:total])]
    return reference_span(gens, a.dims, a.field)


def reference_orthocomplement(s):
    """The kernel read off the reference reduced rows, one vector per free
    column (1 there, 0 in the other free columns), spanned."""
    total = s.dims.total
    rows = reference_rref([list(r.coeffs) for r in s.rows])
    pivots = [next(i for i, c in enumerate(r) if c) for r in rows]
    kernel = []
    for f in range(total):
        if f in pivots:
            continue
        w = [s.field.zero()] * total
        w[f] = s.field.one()
        for row, c in zip(rows, pivots):
            w[c] = -row[f]
        kernel.append(StateVector(s.dims, s.field, tuple(w)))
    return reference_span(kernel, s.dims, s.field)


def assert_orthocomplements_match_reference(*spaces):
    """``orthocomplement`` against the reference on ``spaces``, and on the
    empty and the full space of the first."""
    dims, field = spaces[0].dims, spaces[0].field
    full = tuple(StateVector.basis_vector(dims, field, multi_index(dims, i))
                 for i in range(dims.total))
    for s in spaces + (Subspace(dims, field, ()), Subspace(dims, field, full)):
        assert orthocomplement(s) == reference_orthocomplement(s)


@st.composite
def generator_lists(draw, entries):
    """Rows of one width, with zero rows and scaled repeats mixed in."""
    dims = draw(st.sampled_from([Dims((2, 2)), D23, Dims((3, 3))]))
    width = dims.total
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * width)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        f = draw(st.sampled_from([1, -1, 3, Fraction(-2, 3)]))
        rows.append([f * a for a in draw(st.sampled_from(rows))])
    return dims, rows


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def assert_matches_reference(dims, field, vectors):
    want = reference_span(vectors, dims, field)
    got = span(vectors, dims=dims, field=field)
    assert got == want
    # scalar types included: a Fraction or an Fp, never a bare int
    scalar = Fraction if field == RATIONAL else type(field.one())
    assert all(type(c) is scalar for row in got.rows for c in row.coeffs)
    # the int rows themselves: over Q each primitive with a positive pivot,
    # so the reduced row times the lcm of its denominators
    basis, pivots = _reduce_rows(integer_rows(vectors), dims.total, field.p)
    assert [row for _, row in sorted(zip(pivots, basis))] == integer_rows(want.rows)
    return got


@settings(max_examples=100, deadline=None)
@given(a=generator_lists(SMALL_FRACTIONS), b=st.data())
def test_span_and_intersect_match_reference_rref_over_q(a, b):
    dims, rows = a
    vecs = [_vec(dims, r) for r in rows]
    s = assert_matches_reference(dims, RATIONAL, vecs)
    other = [_vec(dims, r) for r in b.draw(st.lists(
        st.lists(SMALL_FRACTIONS, min_size=dims.total, max_size=dims.total), max_size=5))]
    t = span(other, dims=dims, field=RATIONAL)
    assert intersect(s, t) == reference_intersect(s, t)
    assert intersect(t, s) == reference_intersect(t, s)
    assert_orthocomplements_match_reference(s, t)


@pytest.mark.parametrize("p", [5, 7])
@settings(max_examples=100, deadline=None)
@given(a=generator_lists(st.integers(-12, 12)), b=st.data())
def test_span_and_intersect_match_reference_rref_over_fp(p, a, b):
    dims, rows = a
    fld = prime_field(p)
    vecs = [_vec(dims, [fld.coerce(x) for x in r], fld) for r in rows]
    s = assert_matches_reference(dims, fld, vecs)
    other = [_vec(dims, r, fld) for r in b.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=dims.total, max_size=dims.total),
        max_size=5))]
    t = span(other, dims=dims, field=fld)
    assert intersect(s, t) == reference_intersect(s, t)
    assert_orthocomplements_match_reference(s, t)
