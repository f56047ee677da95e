"""Multi-index combinatorics: enumeration order, level counts, closed forms."""

import math

import pytest
from hypothesis import given, strategies as st

from entspace import (
    Dims,
    enumerate_level,
    level_count,
    level_count_closed_form,
    level_counts,
    parse_dims,
)
from entspace.grading import iter_dims


def test_dims_basic():
    d = Dims((2, 3, 4))
    assert d.k == 3
    assert d.max_level == 6
    assert d.total == 24
    assert str(d) == "2x3x4"
    assert parse_dims("2,3,4") == d
    assert parse_dims(str(d)) == d


def test_dims_validation():
    with pytest.raises(ValueError):
        Dims((2,))
    with pytest.raises(ValueError):
        Dims((1, 3))
    with pytest.raises(ValueError):
        parse_dims("2,x")


def test_position_roundtrip():
    d = Dims((2, 3, 4))
    for pos in range(d.total):
        idx = d.multi_index(pos)
        assert d.position(idx) == pos
    assert list(d.all_indices())[0] == (0, 0, 0)
    assert list(d.all_indices())[-1] == (1, 2, 3)


def test_enumerate_level_examples():
    assert enumerate_level(Dims((2, 3)), 2) == [(0, 2), (1, 1)]
    assert enumerate_level(Dims((2, 3)), 0) == [(0, 0)]
    assert enumerate_level(Dims((2, 2, 2)), 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    # no recursion bounds the number of factors
    many = enumerate_level(Dims((2,) * 1100), 1)
    assert len(many) == 1100 and many[0] == (0,) * 1099 + (1,) and many[-1] == (1,) + (0,) * 1099


def test_enumerate_level_range_errors():
    with pytest.raises(ValueError):
        enumerate_level(Dims((2, 3)), -1)
    with pytest.raises(ValueError):
        enumerate_level(Dims((2, 3)), 4)


def test_level_count_examples():
    assert level_counts(Dims((2, 3))) == [1, 2, 2, 1]
    assert level_count(Dims((2, 2, 2, 2)), 2) == 6
    assert level_count(Dims((3, 3)), 5) == 0
    assert level_count(Dims((3, 3)), -1) == 0


def test_closed_form_examples():
    assert level_count_closed_form(Dims((2, 3)), 2) == 2
    assert level_count_closed_form(Dims((2, 2, 2)), 3) == 1
    assert level_count_closed_form(Dims((2, 3, 4)), 1) is None
    # two-factor formula sorts the pair first
    assert level_count_closed_form(Dims((5, 3)), 3) == level_count(Dims((5, 3)), 3)


@given(st.lists(st.integers(2, 6), min_size=2, max_size=4))
def test_level_enumeration_matches_counts(ds):
    d = Dims(tuple(ds))
    seen = 0
    for n in range(d.max_level + 1):
        idxs = enumerate_level(d, n)
        assert len(idxs) == level_count(d, n)
        assert idxs == sorted(idxs)
        assert len(set(idxs)) == len(idxs)
        for idx in idxs:
            assert sum(idx) == n
            assert all(0 <= i < dr for i, dr in zip(idx, d.d))
        seen += len(idxs)
    assert seen == d.total


def _convolve_run(poly: list[int], d: int) -> list[int]:
    # multiply by 1 + x + ... + x^(d-1), via a sliding window sum
    out_len = len(poly) + d - 1
    acc = 0
    out = []
    for i in range(out_len):
        if i < len(poly):
            acc += poly[i]
        if i - d >= 0:
            acc -= poly[i - d]
        out.append(acc)
    return out


def test_counts_exhaustive_up_to_4096():
    """Every dims with total <= 4096: counts sum to the total and are
    palindromic.  The reference polynomial is built incrementally along the
    tuple tree by an independent convolution; the library implementation is
    compared exhaustively on small totals and on a fixed subsample above
    that, which keeps the walk under a few seconds.
    """
    limit = 4096
    checked = [0, 0]

    def walk(prefix: tuple[int, ...], poly: list[int], prod: int) -> None:
        if len(prefix) >= 2:
            checked[0] += 1
            assert sum(poly) == prod
            assert poly == poly[::-1]
            if prod <= 256 or checked[0] % 29 == 0:
                checked[1] += 1
                assert level_counts(Dims(prefix)) == poly
        d = 2
        while prod * d <= limit:
            walk(prefix + (d,), _convolve_run(poly, d), prod * d)
            d += 1

    walk((), [1], 1)
    assert checked[0] > 500_000
    assert checked[1] > 20_000


def test_closed_form_agreement_where_applicable():
    for dims in iter_dims(max_total=128):
        cf = [level_count_closed_form(dims, n) for n in range(dims.max_level + 1)]
        if cf[0] is None:
            assert dims.k > 2 and any(d > 2 for d in dims.d)
            continue
        assert cf == level_counts(dims), dims


def test_qubit_closed_form_is_binomial():
    d = Dims((2,) * 5)
    assert [level_count_closed_form(d, n) for n in range(6)] == [
        math.comb(5, n) for n in range(6)
    ]


def test_iter_dims_bounds():
    seen = list(iter_dims(max_total=12))
    assert Dims((2, 2)) in seen
    assert Dims((2, 2, 3)) in seen
    assert all(d.total <= 12 for d in seen)
    assert len(seen) == len(set(seen))
