"""Constructions: entangled subspace, Vandermonde vectors, UPBs, examples."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from entspace import (
    BudgetExceededError,
    COMPLEX,
    Dims,
    INFINITY,
    ProductVector,
    RATIONAL,
    StateVector,
    antidiagonal_zero_space,
    character_basis,
    entangled_complement,
    entangled_level,
    entangled_subspace,
    enumerate_level,
    gram_matrix,
    intersect,
    level_count,
    level_sum_line,
    level_sum_vector,
    minimal_upb,
    orthocomplement,
    prime_field,
    span,
    split_antidiagonal_spaces,
    standard_product_vector,
    subspace_sum,
    upb_of_size,
    vandermonde_vector,
    verify_upb,
)
from entspace.counting import all_indices, iter_dims, multi_index


def _level_differences(dims, n, field=RATIONAL):
    """Reference generators of the level-n slice of S: the level's first
    basis vector minus each later one."""
    idxs = enumerate_level(dims, n)
    anchor = StateVector.basis_vector(dims, field, idxs[0])
    return [anchor - StateVector.basis_vector(dims, field, idx) for idx in idxs[1:]]


def _eliminated_pair(dims, field=RATIONAL):
    """S and Sperp by elimination: spans of level differences and level sums."""
    levels = range(dims.max_level + 1)
    diffs = [v for n in levels for v in _level_differences(dims, n, field)]
    sums = [level_sum_vector(dims, n, field) for n in levels]
    return span(diffs, dims=dims, field=field), span(sums)


ACCEPTANCE_DIMS = [
    Dims((2, 2)), Dims((2, 3)), Dims((3, 3)), Dims((4, 4)),
    Dims((2, 2, 2)), Dims((2, 3, 4)), Dims((2, 2, 2, 2)),
]


def test_product_vector_validation():
    d = Dims((2, 3))
    with pytest.raises(ValueError):
        ProductVector.from_values(d, RATIONAL, [(1, 0)])
    with pytest.raises(ValueError):
        ProductVector.from_values(d, RATIONAL, [(1, 0), (0, 0)])
    with pytest.raises(ValueError):
        ProductVector.from_values(d, RATIONAL, [(1, 0), (1, 0)])
    pv = ProductVector.from_values(d, RATIONAL, [(2, 1), (0, 3, 0)])
    assert pv.expand().coeffs[d.position((0, 1))] == 6
    norm = pv.projective()
    assert norm.factors[0][0] == 1 and norm.factors[1][1] == 1


def test_level_sum_vectors():
    d = Dims((2, 2))
    u1 = level_sum_vector(d, 1)
    assert u1.coeffs == (
        Fraction(0), Fraction(1), Fraction(1), Fraction(0)
    )
    d3 = Dims((2, 3, 4))
    assert level_sum_vector(d3, 0).coeffs[0] == 1
    top = level_sum_vector(d3, d3.max_level)
    assert top.coeffs[-1] == 1 and sum(bool(c) for c in top.coeffs) == 1
    with pytest.raises(ValueError):
        level_sum_vector(d, 3)


def test_vandermonde_examples():
    d = Dims((2, 2))
    z0 = vandermonde_vector(d, 0).expand()
    assert z0 == StateVector.basis_vector(d, RATIONAL, (0, 0))
    z1 = vandermonde_vector(d, 1).expand()
    acc = StateVector.zero(d, RATIONAL)
    for n in range(3):
        acc = acc + level_sum_vector(d, n)
    assert z1 == acc
    zinf = vandermonde_vector(Dims((2, 3)), INFINITY).expand()
    assert zinf == StateVector.basis_vector(Dims((2, 3)), RATIONAL, (1, 2))


@given(st.fractions(min_value=-6, max_value=6, max_denominator=8),
       st.sampled_from(ACCEPTANCE_DIMS))
def test_vandermonde_is_weighted_level_sum(lam, dims):
    z = vandermonde_vector(dims, lam).expand()
    acc = StateVector.zero(dims, RATIONAL)
    for n in range(dims.max_level + 1):
        acc = acc + level_sum_vector(dims, n).scale(lam**n)
    assert z == acc


def test_entangled_subspace_dimensions():
    expected = {
        (2, 2): 1, (2, 3): 2, (3, 3): 4, (4, 4): 9,
        (2, 2, 2): 4, (2, 3, 4): 17, (2, 2, 2, 2): 11,
    }
    for dims in ACCEPTANCE_DIMS:
        s = entangled_subspace(dims)
        assert s.dim == expected[dims.d]
        assert s.dim == dims.total - (dims.max_level + 1)


def test_entangled_subspace_2x2_basis():
    d = Dims((2, 2))
    s = entangled_subspace(d)
    gen = StateVector.basis_vector(d, RATIONAL, (0, 1)) - StateVector.basis_vector(
        d, RATIONAL, (1, 0)
    )
    assert s == span([gen])


def test_complement_pair_sampled_dims():
    """Dimension split, exact complementarity and the closed forms against
    elimination, across a dims sweep.

    The sweep covers every dims with total <= 48 plus a bracket of larger
    ones; echelon cost grows cubically, so the full 4096 family is out of
    reach for a fast suite.
    """
    sample = list(iter_dims(max_total=48)) + [
        Dims((4, 4, 4)), Dims((2, 2, 2, 2, 2, 2)), Dims((5, 17)), Dims((11, 11)),
    ]
    for dims in sample:
        s = entangled_subspace(dims)
        c = entangled_complement(dims)
        assert (s, c) == _eliminated_pair(dims)
        assert s.dim + c.dim == dims.total
        assert orthocomplement(s) == c
        assert orthocomplement(c) == s
        assert intersect(s, c).dim == 0


def test_closed_forms_match_elimination_mod_7():
    f7 = prime_field(7)
    for dims in iter_dims(max_total=48):
        pair = (entangled_subspace(dims, f7), entangled_complement(dims, f7))
        assert pair == _eliminated_pair(dims, f7)
        for n in range(dims.max_level + 1):
            assert entangled_level(dims, n, f7) == span(
                _level_differences(dims, n, f7), dims=dims, field=f7
            )


def test_level_slices():
    for dims in (Dims((2, 3)), Dims((2, 2, 2))):
        full_levels = []
        for n in range(dims.max_level + 1):
            sl = entangled_level(dims, n)
            assert sl == span(_level_differences(dims, n), dims=dims, field=RATIONAL)
            tl = level_sum_line(dims, n)
            a_n = level_count(dims, n)
            assert sl.dim == a_n - 1
            assert tl.dim == 1
            level_space = span([
                StateVector.basis_vector(dims, RATIONAL, idx)
                for idx in enumerate_level(dims, n)
            ])
            assert subspace_sum(sl, tl) == level_space
            u = level_sum_vector(dims, n)
            for row in sl.rows:
                assert not u.inner(row)
            full_levels.append(level_space)
        total = full_levels[0]
        for nxt in full_levels[1:]:
            total = subspace_sum(total, nxt)
        assert total.dim == dims.total
    assert entangled_level(Dims((2, 3)), 0).dim == 0
    assert entangled_level(Dims((2, 3)), 3).dim == 0
    with pytest.raises(ValueError):
        entangled_level(Dims((2, 3)), 4)


@pytest.mark.parametrize("build", [
    lambda: entangled_subspace(Dims((300, 300))),
    lambda: entangled_complement(Dims((3000, 3000))),
    lambda: entangled_level(Dims((3000, 3000)), 2999),
    lambda: character_basis(Dims((200, 200)), 150),
], ids=["S", "Sperp", "level", "character"])
def test_oversized_dense_bases_are_refused(build):
    with pytest.raises(BudgetExceededError, match="dense basis needs at least"):
        build()


def test_character_basis_unitary():
    for dims in (Dims((2, 2)), Dims((2, 3)), Dims((3, 3)), Dims((2, 2, 2))):
        for n in range(dims.max_level + 1):
            basis = character_basis(dims, n)
            a_n = level_count(dims, n)
            assert len(basis) == a_n
            for i, vi in enumerate(basis):
                for j, vj in enumerate(basis):
                    want = 1.0 if i == j else 0.0
                    assert abs(vi.inner(vj) - want) < 1e-12
            # first member is the normalized level sum
            u = StateVector.from_values(dims, COMPLEX, level_sum_vector(dims, n).coeffs)
            diff = max(
                abs(a - b / math.sqrt(a_n))
                for a, b in zip(basis[0].coeffs, u.coeffs)
            )
            assert diff < 1e-12
            # later members live in the level and are orthogonal to the sum
            for v in basis[1:]:
                assert abs(u.inner(v)) < 1e-12
                for pos, c in enumerate(v.coeffs):
                    if sum(multi_index(dims, pos)) != n:
                        assert c == 0


def test_character_basis_2x2_level1():
    b = character_basis(Dims((2, 2)), 1)
    r = 1 / math.sqrt(2)
    assert [abs(c) for c in b[0].coeffs] == pytest.approx([0, r, r, 0], abs=1e-15)
    assert b[1].coeffs[1] == pytest.approx(r)
    assert b[1].coeffs[2] == pytest.approx(-r)


def test_minimal_upb_defaults_and_errors():
    for dims in ACCEPTANCE_DIMS:
        upb = minimal_upb(dims)
        assert len(upb) == dims.max_level + 1
        s = span([v.expand() for v in upb])
        assert s.dim == len(upb)
        assert s == entangled_complement(dims)
    with pytest.raises(ValueError):
        minimal_upb(Dims((2, 3)), [0, 1, 2, 2])
    with pytest.raises(ValueError):
        minimal_upb(Dims((2, 3)), [0, 1, 2])
    upb = minimal_upb(Dims((2, 3)), [INFINITY, 0, 1, 2])
    assert span([v.expand() for v in upb]).dim == 4


@given(st.sets(st.fractions(min_value=-8, max_value=8, max_denominator=6),
               min_size=4, max_size=4))
def test_vandermonde_independence_any_distinct_points(points):
    dims = Dims((2, 3))  # max_level + 1 = 4
    vecs = [vandermonde_vector(dims, p).expand() for p in points]
    assert span(vecs, dims=dims, field=RATIONAL).dim == 4


def test_upb_of_size_range_and_structure():
    d33 = Dims((3, 3))
    s33 = entangled_subspace(d33)
    for m in range(5, 10):
        record, vectors = upb_of_size(d33, m)
        assert record.size == m == len(vectors)
        spanned = span([v.expand() for v in vectors])
        assert spanned.dim == m
        comp = orthocomplement(spanned)
        assert comp.dim == 9 - m
        for row in comp.rows:
            assert s33.contains(row)
        assert sum(level_count(d33, n) - 1 for n in record.levels) == m - 5
        assert len(record.dropped) == len(record.levels)
    d23 = Dims((2, 3))
    for m in (4, 5, 6):
        _, vectors = upb_of_size(d23, m)
        assert span([v.expand() for v in vectors]).dim == m
    with pytest.raises(ValueError):
        upb_of_size(d23, 7)
    with pytest.raises(ValueError):
        upb_of_size(d23, 3)
    with pytest.raises(ValueError):
        upb_of_size(Dims((2, 2, 2)), 5)


@pytest.mark.parametrize("dims,points", [
    (Dims((2, 3)), None), (Dims((3, 2)), None), (Dims((3, 3)), None),
    (Dims((2, 4)), [INFINITY, 0, Fraction(1, 2), -3, 5]), (Dims((3, 4)), None),
], ids=str)
def test_upb_of_size_passes_the_exact_audit(dims, points):
    # upb_of_size eliminates nothing itself; verify_upb is its rank and
    # complement audit, and the complement is the unchosen levels' slices
    lo = dims.max_level + 1
    for m in range(lo, dims.total + 1):
        record, vectors = upb_of_size(dims, m, points)
        report = verify_upb(vectors, dims, primes=(7,))
        assert report.is_upb, m
        assert report.span_dim == m and report.independent
        assert report.complement_dim == dims.total - m
        assert report.complement_in_entangled
        unchosen = [n for n in range(lo) if n not in record.levels]
        expected = span([v for n in unchosen for v in _level_differences(dims, n)],
                        dims=dims, field=RATIONAL)
        assert orthocomplement(span([v.expand() for v in vectors])) == expected


def test_upb_of_size_m_equals_total_covers_everything():
    d23 = Dims((2, 3))
    record, vectors = upb_of_size(d23, 6)
    spanned = span([v.expand() for v in vectors])
    assert spanned.dim == 6
    assert orthocomplement(spanned).dim == 0
    assert set(record.levels) == {1, 2}


def test_scaled_vandermonde_approaches_infinity_point():
    for dims in (Dims((2, 3)), Dims((3, 3)), Dims((2, 2, 2))):
        zinf = vandermonde_vector(dims, INFINITY, COMPLEX).expand()
        for lam in (1e3, 1e6):
            z = vandermonde_vector(dims, complex(lam), COMPLEX).expand()
            scale = lam ** dims.max_level
            err = max(
                abs(a / scale - b) for a, b in zip(z.coeffs, zinf.coeffs)
            )
            assert err <= 10 / lam, (dims, lam, err)


def test_antidiagonal_space_matches_entangled_subspace():
    assert antidiagonal_zero_space(3, 3).dim == 4
    for d1, d2 in ((2, 2), (3, 3), (2, 4), (4, 5)):
        dims = Dims((d1, d2))
        sums = [level_sum_vector(dims, n) for n in range(dims.max_level + 1)]
        assert antidiagonal_zero_space(d1, d2) == orthocomplement(span(sums))
        assert antidiagonal_zero_space(d1, d2) == entangled_subspace(dims)
        assert antidiagonal_zero_space(d1, d2).dim == (d1 - 1) * (d2 - 1)
    e22 = antidiagonal_zero_space(2, 2)
    d = Dims((2, 2))
    gen = StateVector.basis_vector(d, RATIONAL, (0, 1)) - StateVector.basis_vector(
        d, RATIONAL, (1, 0)
    )
    assert e22 == span([gen])


def test_split_antidiagonal_example():
    ex = split_antidiagonal_spaces()
    d44 = Dims((4, 4))
    s = entangled_subspace(d44)
    assert ex.m_space.dim == 8
    assert ex.m_perp.dim == 8
    assert orthocomplement(ex.m_space) == ex.m_perp
    # strictly inside the 9-dimensional entangled subspace
    for row in ex.m_space.rows:
        assert s.contains(row)
    r_span = span([pv.expand() for pv in ex.spanning_set])
    assert r_span.dim == 7
    assert r_span.dim < ex.m_perp.dim
    for row in r_span.rows:
        assert ex.m_perp.contains(row)
    assert orthocomplement(r_span) == s
    # the closed form the command line takes example2-R's span in: Sperp
    assert r_span == entangled_complement(d44)


@pytest.mark.parametrize("field", [RATIONAL, prime_field(7)], ids=lambda f: f.label)
def test_split_antidiagonal_closed_forms_match_elimination(field):
    # m_space and m_perp are written down from the eight group sums: every
    # level of the 4x4 grid, with level 3 split into two runs
    ex = split_antidiagonal_spaces(field)
    d44 = Dims((4, 4))

    def e(idx):
        return StateVector.basis_vector(d44, field, idx)

    sums = [level_sum_vector(d44, n, field) for n in (0, 1, 2, 4, 5, 6)]
    sums += [e((0, 3)) + e((1, 2)), e((2, 1)) + e((3, 0))]
    m_space = orthocomplement(span(sums))
    assert ex.m_space == m_space
    assert ex.m_perp == orthocomplement(m_space)


def test_gram_values():
    for dims in (Dims((2, 3)), Dims((3, 3)), Dims((2, 2, 2))):
        z0 = vandermonde_vector(dims, 0)
        z1 = vandermonde_vector(dims, 1)
        zinf = vandermonde_vector(dims, INFINITY)
        g = gram_matrix([z0, z1, zinf])
        assert g[0][2] == 0
        assert g[0][1] == 1
    d23 = Dims((2, 3))
    g = gram_matrix([vandermonde_vector(d23, 1), vandermonde_vector(d23, 2)])
    assert g[0][1] == 21  # sum of a_n 2^n for counts 1,2,2,1
    upb_gram = gram_matrix(minimal_upb(d23))
    off = [upb_gram[i][j] for i in range(4) for j in range(4) if i != j]
    assert any(off)
    assert gram_matrix([]) == []


def test_standard_product_vector():
    d = Dims((2, 3))
    for idx in all_indices(d):
        pv = standard_product_vector(d, idx)
        assert pv.expand() == StateVector.basis_vector(d, RATIONAL, idx)
    with pytest.raises(ValueError):
        standard_product_vector(d, (1, 3))
