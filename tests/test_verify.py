"""Verification: finite-field enumeration and alternating product-overlap search."""

import argparse
import contextlib
import importlib.util
import io
import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspace import (
    BudgetExceededError,
    COMPLEX,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_RESTARTS,
    Dims,
    INFINITY,
    LevelSums,
    NO_WITNESS,
    ProductVector,
    RATIONAL,
    StateVector,
    Subspace,
    WITNESS,
    candidate_count,
    classify_product_vectors_fp,
    default_primes,
    antidiagonal_zero_space,
    entangled_complement,
    entangled_level,
    entangled_subspace,
    ff_verify,
    find_product_vectors_fp,
    level_sum_vector,
    max_product_overlap,
    minimal_upb,
    nearest_vandermonde,
    orthocomplement,
    orthonormal_basis,
    prime_field,
    reduce_mod_p,
    span,
    split_antidiagonal_spaces,
    standard_product_vector,
    upb_of_size,
    vandermonde_vector,
    verify_upb,
)
import entspace.construct as construct_module
import entspace.ff as ff_module
import entspace.ffkernel as ffkernel_module
import entspace.linalg as linalg_module
import entspace.normals as normals_module
import entspace.verify as verify_module
from entspace.ff import _site_index
from entspace.ffkernel import _site_points
from entspace.linalg import integer_generators
from entspace.codec import encode_report
from entspace.normals import pcg64, seed_sequence_words, standard_normals, uint32_words
from entspace.counting import all_indices
from entspace.serialize import json_dumps
from entspace.grading import level_counts
from entspace.upbtext import _audit_entry, _choose_levels, _upb_recipe
from entspace.verify import _fix_phases, _start_factors, _top_eigvec

SMALL_DIMS = [Dims((2, 2)), Dims((2, 3)), Dims((3, 3)), Dims((2, 2, 2))]


def test_default_primes():
    assert default_primes(Dims((2, 3))) == [5, 7, 11]
    assert default_primes(Dims((4, 4))) == [7, 11]
    assert default_primes(Dims((8, 8))) == [17, 19]
    assert len(default_primes(Dims((2, 2)), want=4)) == 4


def test_candidate_count():
    assert candidate_count(Dims((2, 2)), 5) == 36
    assert candidate_count(Dims((3, 3)), 5) == 31**2
    assert candidate_count(Dims((2, 2, 2)), 7) == 8**3


def test_oracle_rejects_bad_primes():
    s = entangled_subspace(Dims((3, 3)))
    with pytest.raises(ValueError):
        find_product_vectors_fp(s, Dims((3, 3)), 9)
    with pytest.raises(ValueError):
        find_product_vectors_fp(s, Dims((3, 3)), 3)  # prime but <= top level


def test_oracle_refuses_primes_past_int64_residues():
    # max(d) * p**2 must stay below 2**63; only a budget far above the
    # default lets the fibre count of so large a prime through
    dims, big = Dims((2, 2)), 2147483659  # 2**31 + 11, prime
    message = f"prime {big} is too large for int64 residues"
    with pytest.raises(ValueError, match=message):
        ff_module._check_oracle(dims, big, 10**30)
    with pytest.raises(ValueError, match=message):
        find_product_vectors_fp(entangled_subspace(dims), dims, big, budget=10**30)
    # 2**31 - 1, the prime just below, passes with its p + 1 fibres
    assert ff_module._check_oracle(dims, 2**31 - 1, 10**30) == 2**31


def test_oracle_budget():
    # the budget counts fibre solves: 6 projective points on the one
    # unsolved site of 2,2 at p = 5
    s = entangled_subspace(Dims((2, 2)))
    with pytest.raises(BudgetExceededError) as exc:
        find_product_vectors_fp(s, Dims((2, 2)), 5, budget=5)
    assert exc.value.estimate == 6
    assert exc.value.budget == 5
    assert find_product_vectors_fp(s, Dims((2, 2)), 5, budget=6) == []


def test_oracle_budget_counts_found_points():
    # 6 fibres, then 6 points per fibre on the full space: the walk stops
    # as soon as the found points push it past the budget
    dims = Dims((2, 2))
    gens = [StateVector.basis_vector(dims, RATIONAL, idx)
            for idx in all_indices(dims)]
    with pytest.raises(BudgetExceededError) as exc:
        find_product_vectors_fp(gens, dims, 5, budget=20)
    assert exc.value.estimate == 24
    assert len(find_product_vectors_fp(gens, dims, 5, budget=42)) == 36


def test_entangled_subspace_has_no_product_vectors_mod_p():
    for dims in SMALL_DIMS:
        s = entangled_subspace(dims)
        for p in (5, 7):
            assert find_product_vectors_fp(s, dims, p) == []
    # third prime agrees on one case
    assert find_product_vectors_fp(
        entangled_subspace(Dims((2, 3))), Dims((2, 3)), 11
    ) == []


def brute_force_product_vectors(generators, dims, p):
    """Reference oracle: test every projective product tuple by elimination."""
    reduced = reduce_mod_p(generators, dims, p)
    rows = [[c.value for c in r.coeffs] for r in reduced.rows]
    pivots = [next(i for i, c in enumerate(row) if c) for row in rows]
    sites = [[(0,) * lead + (1,) + rest for lead in range(d)
              for rest in itertools.product(range(p), repeat=d - lead - 1)]
             for d in dims.d]
    found = []
    for combo in itertools.product(*sites):
        work = [1]
        for f in combo:
            work = [(c * a) % p for c in work for a in f]
        for row, piv in zip(rows, pivots):
            x = work[piv]
            if x:
                work = [(a - x * b) % p for a, b in zip(work, row)]
        if not any(work):
            found.append(combo)
    return found


@pytest.mark.parametrize("d,p", [(1, 5), (2, 5), (3, 3), (4, 2), (3, 7)])
def test_site_points_order(d, p):
    # the order hits are sorted by: leading-1 position, then the rest in base p
    want = [(0,) * lead + (1,) + rest for lead in range(d)
            for rest in itertools.product(range(p), repeat=d - lead - 1)]
    got = [tuple(v) for v in _site_points(d, p, np.arange(len(want))).tolist()]
    assert got == want
    assert list(ff_module._projective_points(d, p)) == want
    assert [_site_index(v, p) for v in want] == list(range(len(want)))


def _factor_values(found):
    return [tuple(tuple(c.value for c in f) for f in pv.factors) for pv in found]


def test_full_space_contains_every_candidate():
    dims = Dims((2, 2))
    gens = [
        StateVector.basis_vector(dims, RATIONAL, idx)
        for idx in all_indices(dims)
    ]
    found = find_product_vectors_fp(gens, dims, 5)
    assert len(found) == candidate_count(dims, 5)


@pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
def test_full_and_zero_space_match_brute_force(dims):
    full = [StateVector.basis_vector(dims, RATIONAL, idx)
            for idx in all_indices(dims)]
    found = find_product_vectors_fp(full, dims, 5)
    assert len(found) == candidate_count(dims, 5)
    assert _factor_values(found) == brute_force_product_vectors(full, dims, 5)
    assert find_product_vectors_fp([], dims, 5) == []
    assert find_product_vectors_fp(span([], dims=dims, field=RATIONAL), dims, 5) == []


@pytest.mark.parametrize("dims,p", [(Dims((3, 3)), 5), (Dims((2, 3)), 7),
                                    (Dims((3, 2, 2)), 5)], ids=str)
def test_fibre_solve_matches_brute_force_on_named_spaces(dims, p):
    for space in (entangled_subspace(dims), entangled_complement(dims)):
        gens = integer_generators(space)
        want = brute_force_product_vectors(gens, dims, p)
        assert _factor_values(find_product_vectors_fp(space, dims, p)) == want
        reduced = reduce_mod_p(gens, dims, p)
        assert _factor_values(find_product_vectors_fp(reduced, dims, p)) == want


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_fibre_solve_is_independent_of_block_size(monkeypatch, chunk):
    monkeypatch.setattr(ff_module, "_BATCH_FIBRES", 0)  # the batched kernel
    monkeypatch.setattr(ffkernel_module, "_CHUNK_ENTRIES", chunk)
    dims = Dims((2, 2, 3))
    full = [StateVector.basis_vector(dims, RATIONAL, idx)
            for idx in all_indices(dims)]
    for gens in (integer_generators(entangled_subspace(dims)),
                 integer_generators(entangled_complement(dims)), full[::3]):
        found = find_product_vectors_fp(gens, dims, 5)
        assert _factor_values(found) == brute_force_product_vectors(gens, dims, 5)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fibre_solve_matches_brute_force_on_random_subspaces(data):
    # random ranks reach kernels of dimension >= 2 on a fibre, which the
    # graded spaces never do
    dims = data.draw(st.sampled_from(SMALL_DIMS))
    p = data.draw(st.sampled_from([5, 7]))
    rank = data.draw(st.integers(0, dims.total))
    rows = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dims.total, max_size=dims.total),
        min_size=rank, max_size=rank,
    ))
    gens = [StateVector.from_values(dims, RATIONAL, r) for r in rows]
    found = find_product_vectors_fp(gens, dims, p)
    assert _factor_values(found) == brute_force_product_vectors(gens, dims, p)


@contextlib.contextmanager
def fibre_path(batched):
    # every enumeration above _BATCH_FIBRES fibres takes the batched kernel
    with mock.patch.object(ff_module, "_BATCH_FIBRES", 0 if batched else 10**12):
        yield


def assert_paths_agree(gens, dims, p):
    """Both fibre solves give the same list, and the same refusal one step
    short of the budget the enumeration needs."""
    results = []
    for batched in (False, True):
        with fibre_path(batched):
            results.append(find_product_vectors_fp(gens, dims, p))
    plain, batched_found = results
    assert plain == batched_found
    # a budget one short of fibres plus found points
    needed = ff_module._check_oracle(dims, p, ff_module.ENUMERATION_BUDGET) + len(plain)
    estimates = []
    for batched in (False, True):
        with fibre_path(batched), pytest.raises(BudgetExceededError) as exc:
            find_product_vectors_fp(gens, dims, p, budget=needed - 1)
        estimates.append(exc.value.estimate)
    assert estimates[0] == estimates[1] == needed
    return plain


CROSS_CHECK_SHAPES = [(Dims((2, 2)), (5, 7, 11, 13)), (Dims((2, 3)), (5, 7, 11, 13)),
                      (Dims((3, 3)), (5, 7, 11, 13)), (Dims((3, 4)), (7, 11, 13)),
                      (Dims((2, 2, 2)), (5, 7, 11, 13)), (Dims((2, 2, 3)), (5, 7, 13))]


@pytest.mark.parametrize("dims,primes", CROSS_CHECK_SHAPES, ids=str)
def test_fibre_paths_agree_on_named_spaces(dims, primes):
    spaces = [entangled_subspace(dims), entangled_complement(dims)]
    spaces += [entangled_level(dims, n) for n in range(1, dims.max_level)]
    if dims.k == 2:
        spaces.append(antidiagonal_zero_space(*dims.d))
    for p in primes:
        for i, space in enumerate(spaces):
            found = assert_paths_agree(space, dims, p)
            assert len(found) == (p + 1 if i == 1 else 0)  # Sperp's p+1 points


def test_fibre_paths_agree_on_example2():
    dims = Dims((4, 4))
    ex = split_antidiagonal_spaces()
    spanning = span([pv.expand() for pv in ex.spanning_set])
    for p in (7, 11, 13):
        assert assert_paths_agree(ex.m_space, dims, p) == []
        assert len(assert_paths_agree(spanning, dims, p)) == p + 1


@pytest.mark.parametrize("dims,sizes", [(Dims((2, 3)), range(4, 7)),
                                        (Dims((3, 3)), range(5, 10)),
                                        (Dims((3, 4)), range(6, 13, 2))], ids=str)
def test_fibre_paths_agree_on_upb_complements(dims, sizes):
    for m in sizes:
        _, vectors = upb_of_size(dims, m)
        complement = orthocomplement(span([v.expand() for v in vectors]))
        for p in (7, 11):
            # a UPB's complement holds no product vector
            assert assert_paths_agree(complement, dims, p) == []
    complement = orthocomplement(span([v.expand() for v in minimal_upb(Dims((2, 2, 2)))]))
    assert assert_paths_agree(complement, Dims((2, 2, 2)), 5) == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fibre_paths_agree_on_random_subspaces(data):
    dims = data.draw(st.sampled_from(SMALL_DIMS + [Dims((2, 2, 3))]))
    p = data.draw(st.sampled_from([5, 7, 11, 13]))
    rank = data.draw(st.integers(0, dims.total))
    rows = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dims.total, max_size=dims.total),
        min_size=rank, max_size=rank,
    ))
    assert_paths_agree([StateVector.from_values(dims, RATIONAL, r) for r in rows], dims, p)


def test_fibre_paths_refuse_the_same_fibre_count():
    # refused before either solve starts
    dims = Dims((2, 2, 2))
    for batched in (False, True):
        with fibre_path(batched), pytest.raises(BudgetExceededError) as exc:
            find_product_vectors_fp(entangled_subspace(dims), dims, 5, budget=35)
        assert exc.value.estimate == 36


def test_ff_verify_reports():
    dims = Dims((2, 3))
    reports = ff_verify(entangled_subspace(dims), dims)
    assert [r.params["p"] for r in reports] == [5, 7, 11]
    for r in reports:
        assert r.method == "finite-field"
        assert r.verdict == NO_WITNESS
        assert r.witness is None
        assert r.metrics["found"] == 0
        assert r.metrics["tests"] == candidate_count(dims, r.params["p"])
        assert r.certified_dims["rational"] == 2
        assert r.certified_dims[f"fp({r.params['p']})"] == 2
    comp = ff_verify(entangled_complement(dims), dims, primes=[5])
    assert comp[0].verdict == WITNESS
    assert comp[0].witness is not None
    assert comp[0].metrics["found"] == 6  # p + 1 projective points


def test_ff_verify_reduces_once_per_prime(monkeypatch):
    calls = []
    real_reduce = ff_module._reduce_rows

    def counting_reduce(rows, d, p=None, stop=None):
        if stop is None:  # a whole matrix's reduction, not a fibre's
            calls.append(p)
        return real_reduce(rows, d, p, stop)

    def no_span(*args, **kwargs):
        raise AssertionError("a reduced echelon input needs no second span")

    monkeypatch.setattr(ff_module, "_reduce_rows", counting_reduce)
    for module in (linalg_module, construct_module):
        monkeypatch.setattr(module, "span", no_span)
    dims = Dims((2, 3))
    # a reduced echelon input: one reduction per prime, none over Q (p None)
    reports = ff_verify(entangled_subspace(dims), dims, primes=[5, 7])
    assert calls == [5, 7]
    assert [r.certified_dims for r in reports] == [
        {"fp(5)": 2, "rational": 2}, {"fp(7)": 2, "rational": 2}]
    # a list of generators: its rank over Q read once off the same int rows
    calls.clear()
    gens = integer_generators(entangled_subspace(dims))
    reports = ff_verify(gens + gens[:1], dims, primes=[5, 7])
    assert calls == [None, 5, 7]
    assert [r.certified_dims for r in reports] == [
        {"fp(5)": 2, "rational": 2}, {"fp(7)": 2, "rational": 2}]


@pytest.mark.parametrize("argv", [
    "upb --dims 3,4 --min --primes 7",
    "upb --dims 3,3 --min",
    "upb --dims 3,3 --size 7 --lambdas=inf,0,1,-1,1/3",
    "upb --dims 2,2,2 --min --primes 5",
    "upb --dims 3,3 --size 9 --primes 5",
])
def test_upb_eliminates_nothing(monkeypatch, argv):
    # the audit reads rank and complement off the recipe, and the oracle takes
    # the complement's annihilator in closed form: only fibres are reduced
    from entspace.cli import main

    calls = []
    real_reduce = ff_module._reduce_rows

    def counting_reduce(rows, d, p=None, stop=None):
        if stop is None:  # a whole matrix's reduction, not a fibre's
            calls.append(p)
        return real_reduce(rows, d, p, stop)

    def no_elimination(*args, **kwargs):
        raise AssertionError("a upb run spans or complements nothing")

    for module in (linalg_module, ff_module):
        monkeypatch.setattr(module, "_reduce_rows", counting_reduce)
    for module in (linalg_module, construct_module):
        for name in ("span", "orthocomplement"):
            monkeypatch.setattr(module, name, no_elimination)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0  # the audit passed
    assert calls == []


def test_verify_upb_reduces_each_matrix_once(monkeypatch):
    # the library audit's span of the expansions, the one reduction of the
    # kernel read off it, then the complement's annihilator once per prime
    calls = []
    real_reduce = ff_module._reduce_rows

    def counting_reduce(rows, d, p=None, stop=None):
        if stop is None:  # a whole matrix's reduction, not a fibre's
            calls.append(p)
        return real_reduce(rows, d, p, stop)

    for module in (linalg_module, ff_module):
        monkeypatch.setattr(module, "_reduce_rows", counting_reduce)
    dims = Dims((3, 4))
    assert verify_upb(minimal_upb(dims), dims, [7]).is_upb
    assert calls == [None, None, 7]


def _upb_cases(max_total):
    """Every admissible (dims, size) up to ``max_total`` entries, with one
    oracle prime above the top level."""
    for k in (2, 3, 4):
        for d in itertools.product(range(2, max_total // 2 ** (k - 1) + 1), repeat=k):
            dims = Dims(d)
            if dims.total > max_total:
                continue
            lo = dims.max_level + 1
            prime = next(p for p in (5, 7, 11, 13, 17) if p > dims.max_level)
            for m in range(lo, dims.total + 1) if k == 2 else (lo,):
                yield dims, m, prime


@pytest.fixture(scope="module", params=[False, True])
def upb_builds(request):
    """Every admissible (dims, size) up to 16 entries, built once for the
    tests below: (dims, size, prime, points, recipe, vectors, elimination
    audit's report).  The points are the defaults, or with the parameter ``inf``
    and the alternating fractions -1, 1/2, -1/3, ..."""
    builds = []
    for dims, m, prime in _upb_cases(16):
        points = None
        if request.param:
            points = [INFINITY] + [Fraction((-1) ** t, t) for t in range(1, dims.max_level + 1)]
        recipe, vectors = upb_of_size(dims, m, points)
        builds.append((dims, m, prime, points, recipe, vectors,
                       verify_upb(vectors, dims, [prime])))
    assert len(builds) == 123
    return builds


def test_closed_form_upb_audit_equals_verify_upb(upb_builds):
    # the report read off the recipe writes the elimination audit's bytes,
    # witness search included
    from entspace.codec import encode_upb_report

    for dims, m, prime, _, recipe, _, report in upb_builds:
        assert json_dumps(_audit_entry(recipe, [prime])) == \
            json_dumps(encode_upb_report(report)), (dims, m)
        assert report.is_upb and report.complement_in_entangled


def assert_upb_writers_agree(dims, m, prime, points, recipe, vectors, report):
    """The upb command writes, from the recipe as text, the document the
    library encoders write of upb_of_size's vectors and verify_upb's
    report, with the same exit code."""
    from entspace.codec import encode_upb_recipe, encode_upb_report, \
        product_vectors_document
    from entspace.commands import upb as upb_command

    want = json_dumps(product_vectors_document(dims, RATIONAL, vectors, {
        "upb": encode_upb_recipe(recipe, RATIONAL), "report": encode_upb_report(report)}))
    lambdas = None if points is None else \
        ",".join("inf" if pt is INFINITY else str(pt) for pt in points)
    minimal = m == dims.max_level + 1
    args = argparse.Namespace(dims=",".join(map(str, dims.d)), min=minimal,
                              size=None if minimal else m, lambdas=lambdas,
                              primes=(prime,), out=None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = upb_command.run(args)
    assert (code, out.getvalue()) == (0 if report.is_upb else 3, want), (dims, m, lambdas)


def test_upb_document_matches_the_library_encoders_byte_for_byte(upb_builds):
    # through --min and --size, with and without --lambdas
    for build in upb_builds:
        assert_upb_writers_agree(*build)


def test_upb_document_reports_a_witness_as_the_library_does(monkeypatch):
    # an audited complement lies in S, so the oracle finds no point in it; a
    # tampered oracle checks that both writers report one the same way
    real = ff_module._rank_and_points

    def tampered(target, dims, p, budget):
        rank, hits = real(target, dims, p, budget)
        return rank, hits + [((1, 2), (1, 1, 1))]

    monkeypatch.setattr(ff_module, "_rank_and_points", tampered)
    dims = Dims((2, 3))
    recipe, vectors = upb_of_size(dims, 4)
    report = verify_upb(vectors, dims, [5])
    assert not report.is_upb and report.witness is not None
    assert_upb_writers_agree(dims, 4, 5, None, recipe, vectors, report)


def reference_choose_levels(weights, target):
    """The level choice by search: a table of the subset sums of every
    suffix of the weights, then greedy from level 0, taking a level when the
    rest of the target is a subset sum of the weights past it."""
    n = len(weights)
    achievable = [set() for _ in range(n + 1)]
    achievable[n] = {0}
    for i in range(n - 1, -1, -1):
        nxt = achievable[i + 1]
        achievable[i] = nxt | {w + weights[i] for w in nxt}
    assert target in achievable[0]
    chosen, rem = [], target
    for i in range(n):
        if weights[i] and weights[i] <= rem and rem - weights[i] in achievable[i + 1]:
            chosen.append(i)
            rem -= weights[i]
    assert rem == 0
    return chosen


def test_level_choice_closed_form_equals_the_subset_sum_search():
    # every admissible size of every two-factor shape with 2 <= a <= b <= 14
    cases = 0
    for a in range(2, 15):
        for b in range(a, 15):
            dims = Dims((a, b))
            weights = [c - 1 for c in level_counts(dims)]
            for target in range(sum(weights) + 1):
                chosen = _choose_levels(weights, target)
                assert chosen == reference_choose_levels(weights, target), (dims, target)
                assert sum(weights[n] for n in chosen) == target
                cases += 1
    assert cases == 4641


@pytest.mark.parametrize("d", [(2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2)], ids=str)
def test_minimal_upb_on_more_factors_chooses_no_level(d):
    dims = Dims(d)
    assert _choose_levels([c - 1 for c in level_counts(dims)], 0) == []
    recipe = _upb_recipe(dims, dims.max_level + 1)
    assert (recipe.levels, recipe.dropped) == ((), ())


def fp_annihilator(generators, dims, p):
    """The oracle's rank mod p and its annihilator, as a subspace over F_p."""
    rank, h = ff_module._annihilator(*ff_module._integer_rows(generators, dims), dims, p)
    fld = prime_field(p)
    rows = [StateVector.from_values(dims, fld, row) for row in h]
    return rank, span(rows, dims=dims, field=fld)


def assert_annihilator_matches_elimination(space, dims, p):
    """On integer generators, on a rational subspace and on a subspace over
    F_p, the plain-int rank and annihilator equal the generic elimination's
    on Fp objects."""
    gens = integer_generators(space) if isinstance(space, Subspace) else space
    reduced = reduce_mod_p(gens, dims, p)
    want = (reduced.dim, orthocomplement(reduced))
    for generators in (gens, space, reduced):
        assert fp_annihilator(generators, dims, p) == want


ANNIHILATOR_SHAPES = [Dims((2, 2)), Dims((2, 3)), Dims((3, 3)), Dims((3, 4)),
                      Dims((2, 2, 2)), Dims((2, 2, 3))]


@pytest.mark.parametrize("dims", ANNIHILATOR_SHAPES, ids=str)
def test_annihilator_matches_elimination_on_named_spaces(dims):
    spaces = [entangled_subspace(dims), entangled_complement(dims)]
    spaces += [entangled_level(dims, n) for n in range(dims.max_level + 1)]
    if dims.k == 2:
        spaces.append(antidiagonal_zero_space(*dims.d))
    for p in (5, 7, 11, 13):
        for space in spaces:
            assert_annihilator_matches_elimination(space, dims, p)


def test_annihilator_matches_elimination_on_example2():
    dims = Dims((4, 4))
    ex = split_antidiagonal_spaces()
    for p in (5, 7, 11, 13):
        assert_annihilator_matches_elimination(ex.m_space, dims, p)
        assert_annihilator_matches_elimination(
            [pv.expand() for pv in ex.spanning_set], dims, p)


def test_annihilator_matches_elimination_on_upb_complements():
    cases = [(dims, upb_of_size(dims, m)[1]) for dims, sizes in
             ((Dims((2, 3)), (4, 6)), (Dims((3, 3)), (5, 7, 9)), (Dims((3, 4)), (6, 12)))
             for m in sizes]
    cases.append((Dims((2, 2, 2)), minimal_upb(Dims((2, 2, 2)))))
    for dims, vectors in cases:
        complement = orthocomplement(span([v.expand() for v in vectors]))
        for p in (5, 7, 11, 13):
            assert_annihilator_matches_elimination(complement, dims, p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_annihilator_matches_elimination_on_random_subspaces(data):
    dims = data.draw(st.sampled_from(ANNIHILATOR_SHAPES))
    p = data.draw(st.sampled_from([5, 7, 11, 13]))
    rank = data.draw(st.integers(0, dims.total))
    rows = data.draw(st.lists(
        st.lists(st.integers(-30, 30), min_size=dims.total, max_size=dims.total),
        min_size=rank, max_size=rank,
    ))
    gens = [StateVector.from_values(dims, RATIONAL, r) for r in rows]
    assert_annihilator_matches_elimination(gens, dims, p)
    assert_annihilator_matches_elimination(span(gens, dims=dims, field=RATIONAL), dims, p)


def echelon_mod_p(rows, total, p):
    """The rank and reduced echelon form mod p of int rows, by pivot."""
    basis, pivots = ff_module._reduce_rows([[a % p for a in row] for row in rows], total, p)
    return len(basis), sorted(zip(pivots, basis))


def assert_closed_form_annihilator(space, dims, p):
    """The closed-form rank and annihilator of a ``LevelSums`` space equal
    those read off the reduction of its basis rows."""
    groups = list(construct_module._level_groups(dims, space))
    rank, h = ff_module._level_annihilator(space, groups, dims, p)
    rows = ff_module._integer_rows(construct_module._level_rows(dims, space), dims)[0]
    want_rank, want_h = ff_module._annihilator(rows, None, dims, p)
    assert rank == want_rank == echelon_mod_p(rows, dims.total, p)[0]
    assert all(0 <= a < p for row in h for a in row)
    assert echelon_mod_p(h, dims.total, p) == echelon_mod_p(want_h, dims.total, p)


CLOSED_FORM_SHAPES = [Dims((2, 2)), Dims((3, 4)), Dims((2, 3, 4)), Dims((2, 2, 2, 2))]


@pytest.mark.parametrize("dims", CLOSED_FORM_SHAPES, ids=str)
def test_closed_form_annihilator_matches_elimination(dims):
    for p in (5, 7, 11):
        for _, space, _ in graded_spaces(dims):
            assert_closed_form_annihilator(space, dims, p)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closed_form_annihilator_matches_elimination_on_any_levels(data):
    dims = data.draw(st.sampled_from(CLOSED_FORM_SHAPES + [Dims((3, 3)), Dims((2, 2, 3))]))
    levels = data.draw(st.lists(st.integers(0, dims.max_level), min_size=1, unique=True))
    space = LevelSums(tuple(levels), sums=data.draw(st.booleans()))
    assert_closed_form_annihilator(space, dims, data.draw(st.sampled_from([2, 3, 5, 7, 11])))


@pytest.mark.parametrize("dims", CLOSED_FORM_SHAPES, ids=str)
def test_ff_verify_of_level_sums_matches_its_basis(dims):
    # the same document from the closed form as from the basis
    # (construct._level_rows), on both fibre paths
    primes = [p for p in (5, 7, 11) if p > dims.max_level]
    for _, space, basis in graded_spaces(dims):
        for batched in (False, True):
            with fibre_path(batched):
                got, want = (json_dumps([encode_report(r) for r in
                                         ff_verify(target, dims, primes)])
                             for target in (space, basis))
            assert got == want, (space, batched)


def test_ff_verify_of_level_sums_matches_its_basis_past_the_cut():
    dims = Dims((2, 2))
    p = next(q for q in range(ff_module._BATCH_FIBRES, 2 * ff_module._BATCH_FIBRES)
             if ff_module.is_prime(q))
    for _, space, basis in graded_spaces(dims):
        got, want = (json_dumps([encode_report(r) for r in ff_verify(target, dims, [p])])
                     for target in (space, basis))
        assert got == want, space


def test_ff_verify_of_level_sums_reduces_nothing(monkeypatch):
    def no_reduction(*args, **kwargs):
        raise AssertionError("a closed-form target was reduced")

    monkeypatch.setattr(ff_module, "_annihilator", no_reduction)
    monkeypatch.setattr(ff_module, "_integer_rows", no_reduction)
    dims = Dims((2, 3))
    reports = ff_verify(LevelSums(range(4), sums=True), dims, [5, 7])
    assert [r.certified_dims for r in reports] == [
        {"fp(5)": 4, "rational": 4}, {"fp(7)": 4, "rational": 4}]
    assert [r.metrics["found"] for r in reports] == [6, 8]
    assert classify_product_vectors_fp(dims, 7).passed


def test_oracle_refuses_other_primes_and_dims():
    dims = Dims((2, 3))
    over_5 = reduce_mod_p(integer_generators(entangled_subspace(dims)), dims, 5)
    assert find_product_vectors_fp(over_5, dims, 5) == []
    assert ff_verify(over_5, dims, primes=[5])[0].certified_dims == {"fp(5)": 2}
    with pytest.raises(ValueError, match="F_5"):
        find_product_vectors_fp(over_5, dims, 7)
    with pytest.raises(ValueError, match="F_5"):
        ff_verify(over_5, dims, primes=[5, 7])
    other = Dims((3, 2))  # the same total, other sites
    for gens in (entangled_subspace(other), integer_generators(entangled_subspace(other)),
                 reduce_mod_p(integer_generators(entangled_subspace(other)), other, 7)):
        with pytest.raises(TypeError):
            find_product_vectors_fp(gens, dims, 7)
        with pytest.raises(TypeError):
            ff_verify(gens, dims, primes=[7])


def test_oracle_refuses_oversized_eliminations():
    # span()'s refusals, on the generators and on their annihilator, before
    # any fibre is solved
    dims = Dims((2, 300))
    gens = [level_sum_vector(dims, n) for n in range(dims.max_level + 1)]
    for rows, estimate in ((gens, 301 * 600 * 301), (gens[:1], 599 * 600 * 599)):
        with pytest.raises(BudgetExceededError) as exc:
            find_product_vectors_fp(rows, dims, 307)
        assert exc.value.estimate == estimate


def test_oracle_runs_no_fp_elimination(monkeypatch):
    # Fp objects appear only in the output: every exact elimination runs on
    # ints, and none of the subspace calculus runs over F_p
    real = linalg_module._reduce_rows
    eliminated = []

    def rational_only(rows, d, p=None, stop=None):
        rows = list(rows)
        if p is not None:
            raise AssertionError(f"the oracle eliminated over F_{p}")
        if any(type(c) is not int for row in rows for c in row):
            raise AssertionError("the oracle eliminated on scalar objects")
        eliminated.append(len(rows))
        return real(rows, d, p, stop)

    monkeypatch.setattr(linalg_module, "_reduce_rows", rational_only)
    dims = Dims((2, 3))
    assert [r.verdict for r in ff_verify(entangled_subspace(dims), dims)] == [NO_WITNESS] * 3
    gens = [pv.expand() for pv in split_antidiagonal_spaces().spanning_set]
    reports = ff_verify(gens, Dims((4, 4)), primes=[7])  # a list: one rational span
    assert reports[0].certified_dims == {"fp(7)": 7, "rational": 7}
    for batched in (False, True):
        with fibre_path(batched):
            report = ff_verify(entangled_complement(dims), dims, [5])[0]
            assert report.metrics["found"] == 6  # p + 1 points, on either path
    assert classify_product_vectors_fp(dims, 7).passed
    assert verify_upb(minimal_upb(dims), dims).is_upb
    assert eliminated  # the guard was in place: rational spans ran through it


def test_classify_vandermonde_points():
    for dims, p in ((Dims((2, 3)), 5), (Dims((2, 3)), 7),
                    (Dims((2, 2, 2)), 5), (Dims((2, 2, 2)), 7),
                    (Dims((2, 2)), 3)):
        rep = classify_product_vectors_fp(dims, p)
        assert rep.passed, (dims, p, rep.missing, rep.extraneous)
        assert rep.expected_count == p + 1
        assert len(rep.found) == p + 1
        assert rep.missing == [] and rep.extraneous == []


@pytest.mark.parametrize("dims,p", [(Dims((2, 3)), 5), (Dims((3, 4)), 7),
                                    (Dims((2, 3, 4)), 11)], ids=str)
def test_vandermonde_points_match_the_constructions(dims, p):
    fld = prime_field(p)
    want = [_factor_values([vandermonde_vector(dims, pt, fld)])[0]
            for pt in [*range(p), INFINITY]]
    assert ff_module._vandermonde_points(dims, p) == want


def test_classify_reports_missing_and_extraneous_points(monkeypatch):
    dims, p = Dims((2, 3)), 5
    real = ff_module._product_points

    def tampered(generators, dims, p, budget):
        found = real(generators, dims, p, budget)
        return found[1:] + [((1, 2), (1, 1, 1))]  # drop one, add one

    want = classify_product_vectors_fp(dims, p).found
    monkeypatch.setattr(ff_module, "_product_points", tampered)
    rep = classify_product_vectors_fp(dims, p)
    assert not rep.passed and rep.expected_count == p + 1
    assert rep.found == want[1:] + rep.extraneous
    assert rep.missing == [want[0]]
    assert [_factor_values([pv])[0] for pv in rep.extraneous] == [((1, 2), (1, 1, 1))]
    assert rep.missing[0] == vandermonde_vector(dims, 0, prime_field(p))


def test_orthonormal_basis():
    s = entangled_subspace(Dims((3, 3)))
    b = orthonormal_basis(s)
    assert b.shape == (4, 9)
    gram = b @ b.conj().T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    with pytest.raises(TypeError):
        from entspace import prime_field, reduce_mod_p, level_sum_vector
        fp_space = reduce_mod_p(
            [level_sum_vector(Dims((2, 2)), n) for n in range(3)],
            Dims((2, 2)), 5,
        )
        orthonormal_basis(fp_space)


def test_als_rejects_non_orthonormal():
    dims = Dims((2, 2))
    rows = np.array([[1, 0, 0, 0], [1, 0, 0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        max_product_overlap(rows, dims)
    with pytest.raises(ValueError):
        max_product_overlap(np.full((1, 4), np.nan, dtype=complex), dims)
    with pytest.raises(ValueError):
        max_product_overlap(np.eye(4, dtype=complex), dims, restarts=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"max_sweeps": 0}, "at least one sweep"),
    ({"max_sweeps": -3}, "at least one sweep"),
    ({"tol": math.nan}, "tol must lie in"),
    ({"tol": 0.0}, "tol must lie in"),
    ({"tol": 1.0}, "tol must lie in"),
    ({"tol": -1e-9}, "tol must lie in"),
    ({"tol": math.inf}, "tol must lie in"),
    ({"seed": -1}, "seed must be at least 0"),
], ids=str)
def test_als_rejects_nonsense_parameters(kwargs, message):
    # checked before the basis, so an empty basis is refused too
    for basis in (np.eye(4, dtype=complex), []):
        with pytest.raises(ValueError, match=message):
            max_product_overlap(basis, Dims((2, 2)), **kwargs)


def test_als_work_budget():
    dims = Dims((2, 2))
    budget = verify_module.ALS_BUDGET
    # refused before the basis is looked at, whatever the basis
    for basis in (np.eye(4, dtype=complex), []):
        with pytest.raises(BudgetExceededError) as exc:
            max_product_overlap(basis, dims, restarts=budget // 2 + 1, max_sweeps=1)
        assert exc.value.estimate == 2 * (budget // 2 + 1) and exc.value.budget == budget
    # the largest benchmarked search and the defaults on many sites are admitted
    assert 1000 * DEFAULT_MAX_SWEEPS * 2 <= budget
    assert DEFAULT_RESTARTS * DEFAULT_MAX_SWEEPS * 12 <= budget
    assert max_product_overlap([], dims, restarts=budget // 2, max_sweeps=1).best_overlap == 0.0


def test_graded_als_work_budget(monkeypatch):
    # 10**5 site updates on 200 factors of 2 are admitted, but each one
    # multiplies 199 polynomials: refused before any sweep
    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(verify_module, "_als_block", no_sweep)
    dims = Dims((2,) * 200)
    with pytest.raises(BudgetExceededError) as exc:
        max_product_overlap(LevelSums((1,)), dims, restarts=1)
    assert exc.value.estimate == 500 * 200 * 199 * 2 * 201
    assert exc.value.budget == verify_module.ALS_POLY_BUDGET
    assert "polynomial multiply-adds" in str(exc.value)
    # the defaults on 12 factors of 2 and the largest benchmarked search are admitted
    assert DEFAULT_RESTARTS * DEFAULT_MAX_SWEEPS * 12 * 11 * 2 * 13 <= exc.value.budget
    assert 900 * DEFAULT_MAX_SWEEPS * 2 * 1 * 5 * 7 <= exc.value.budget


def reference_als(basis, dims, restarts, max_sweeps=500, tol=1e-10, seed=0):
    """Reference ALS: the plain loop, one restart and one site update at a time.

    Returns (best, best factors, best restart, histories, total sweeps).
    """
    w_conj = basis.conj().reshape((len(basis),) + dims.d)
    best, best_factors, best_restart, histories, total_sweeps = -1.0, None, -1, [], 0
    for t in range(restarts):
        rng = np.random.default_rng([seed, t])
        factors = []
        for d in dims.d:
            raw = rng.standard_normal((d, 2))
            x = raw[:, 0] + 1j * raw[:, 1]
            factors.append(x / np.linalg.norm(x))
        history, current = [], 0.0
        for _ in range(max_sweeps):
            sweep_start = current
            for r in range(dims.k):
                operands = [w_conj, list(range(dims.k + 1))]
                for s in range(dims.k):
                    if s != r:
                        operands.extend([factors[s], [s + 1]])
                c = np.einsum(*operands, [0, r + 1])
                current, factors[r] = _top_eigvec(c.conj().T @ c, factors[r])
                history.append(current)
            total_sweeps += 1
            if current - sweep_start < tol:
                break
        histories.append(history)
        if current > best:
            best, best_factors, best_restart = current, [f.copy() for f in factors], t
    return best, best_factors, best_restart, histories, total_sweeps


def assert_matches_reference(basis, dims, restarts, seed, max_sweeps=500, tol=1e-10):
    got = max_product_overlap(basis, dims, restarts=restarts,
                              max_sweeps=max_sweeps, tol=tol, seed=seed)
    best, factors, best_restart, histories, total_sweeps = reference_als(
        basis, dims, restarts, max_sweeps, tol, seed)
    best = min(max(best, 0.0), 1.0)
    witness = ProductVector.from_values(
        dims, COMPLEX, [tuple(f) for f in _fix_phases(factors)])
    want = verify_module.VerificationReport(
        method="als",
        params={"restarts": restarts, "max_sweeps": max_sweeps,
                "tol": tol, "seed": seed},
        verdict=WITNESS if best > 1.0 - tol else NO_WITNESS,
        witness=witness if best > 1.0 - tol else None,
        metrics={"best_overlap": best, "total_sweeps": total_sweeps,
                 "best_restart": best_restart},
        certified_dims={"complex": len(basis)},
    )
    assert got.histories == histories
    assert got.report.metrics == want.metrics
    assert got.best_overlap == best
    assert got.witness.factors == witness.factors
    assert json_dumps(encode_report(got.report)) == json_dumps(encode_report(want))


@pytest.mark.parametrize("dims,restarts", [
    (Dims((2, 2)), 24), (Dims((3, 3)), 24), (Dims((2, 3, 4)), 8),
    (Dims((4, 4, 4)), 4), (Dims((2,) * 6), 2),
], ids=str)
def test_batched_als_matches_reference_on_named_spaces(dims, restarts):
    for space in (entangled_subspace(dims), entangled_complement(dims)):
        assert_matches_reference(orthonormal_basis(space), dims, restarts, seed=7)


@pytest.mark.parametrize("dims", [Dims((2, 2)), Dims((2, 3)), Dims((2, 2, 2))], ids=str)
def test_batched_als_matches_reference_on_identity_basis(dims):
    # every product vector lies in the whole space: each site update has a
    # fully degenerate top eigenvalue
    assert_matches_reference(np.eye(dims.total, dtype=complex), dims, 6, seed=3)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_als_matches_reference_on_random_subspaces(data):
    dims = data.draw(st.sampled_from(
        [Dims((2, 2)), Dims((2, 3)), Dims((3, 3)), Dims((2, 2, 2)), Dims((2, 2, 2, 2))]))
    m = data.draw(st.integers(1, dims.total))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal((dims.total, m)) + 1j * rng.standard_normal((dims.total, m))
    basis = np.linalg.qr(raw)[0].T.copy()
    assert_matches_reference(basis, dims, data.draw(st.integers(1, 12)),
                             seed=data.draw(st.integers(0, 2**31)),
                             max_sweeps=data.draw(st.sampled_from([1, 3, 500])))


@pytest.mark.parametrize("block", [1, 7])
def test_batched_als_is_independent_of_block_size(monkeypatch, block):
    dims = Dims((3, 3))
    blocks = []
    real_block = verify_module._als_block

    def recording_block(w_conj, dims, ts, *args):
        blocks.append(len(ts))
        return real_block(w_conj, dims, ts, *args)

    monkeypatch.setattr(verify_module, "_als_block", recording_block)
    for space in (entangled_subspace(dims), entangled_complement(dims)):
        basis = orthonormal_basis(space)
        # restarts per block: _ALS_BLOCK_ENTRIES // (max(d) * max(m, max(d)))
        monkeypatch.setattr(verify_module, "_ALS_BLOCK_ENTRIES", block * 3 * len(basis))
        blocks.clear()
        assert_matches_reference(basis, dims, 20, seed=5)
        assert sum(blocks) == 20 and max(blocks) == block


def test_batched_als_blocks_stay_within_block_entries(monkeypatch):
    dims = Dims((16, 16))
    basis = orthonormal_basis(entangled_subspace(dims))
    shapes = []
    real_update = verify_module._site_update_matrices

    def recording_update(w_conj, factors, r):
        c = real_update(w_conj, factors, r)
        shapes.append(c.shape)
        return c

    monkeypatch.setattr(verify_module, "_site_update_matrices", recording_update)
    result = max_product_overlap(basis, dims, restarts=1000, max_sweeps=1)
    assert result.report.metrics["total_sweeps"] == 1000
    cap = verify_module._ALS_BLOCK_ENTRIES
    assert cap <= 2**16
    assert max(math.prod(s) for s in shapes) <= cap
    assert max(s[0] * s[2] ** 2 for s in shapes) <= cap
    assert sum(s[0] for s in shapes[::2]) == 1000  # two site updates per sweep


def test_als_search_holds_its_histories_as_float64():
    # the command line writes only total_sweeps, yet the search keeps every
    # restart's history: as float64 overlaps and a sweep count it holds 24
    # bytes a restart here, where a list of floats per restart held about 130
    import tracemalloc

    dims = Dims((2, 2))
    restarts = 4000
    tracemalloc.start()
    try:
        fields, _, blocks = verify_module._als_runs(
            LevelSums(range(dims.max_level + 1)), dims, restarts, 1, 1e-10, 0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fields["metrics"]["total_sweeps"] == restarts
    assert held < 40 * restarts, held
    assert len(verify_module._history_lists(blocks)) == restarts


def graded_spaces(dims):
    """Every graded space the CLI can search: (name, level-sum form, exact space)."""
    every = tuple(range(dims.max_level + 1))
    out = [("S", LevelSums(every), entangled_subspace(dims)),
           ("Sperp", LevelSums(every, sums=True), entangled_complement(dims))]
    out += [(f"level:{n}", LevelSums((n,)), entangled_level(dims, n)) for n in every]
    if dims.k == 2:
        out.append(("example1", LevelSums(every), antidiagonal_zero_space(*dims.d)))
    return out


def sperp_overlap(witness: ProductVector) -> float:
    """Squared projection of the unit-normalized witness on Sperp, from its
    expansion: sum over levels of |level sum|^2 / a_n."""
    dims = witness.dims
    x = np.array([complex(c) for c in witness.expand().coeffs])
    x = x / np.linalg.norm(x)
    level = np.array([sum(idx) for idx in all_indices(dims)])
    sums = np.bincount(level, weights=x.real) + 1j * np.bincount(level, weights=x.imag)
    return float(np.sum(np.abs(sums) ** 2 / np.bincount(level)))


@pytest.mark.parametrize("dims", [Dims((2, 2)), Dims((3, 3)), Dims((2, 3, 4)),
                                  Dims((3, 3, 3)), Dims((2,) * 4)], ids=str)
def test_level_sum_als_matches_dense_als(dims):
    for name, graded, space in graded_spaces(dims):
        got = max_product_overlap(graded, dims, restarts=6, seed=4)
        want = max_product_overlap(orthonormal_basis(space), dims, restarts=6, seed=4)
        assert got.report.verdict == want.report.verdict, name
        assert abs(got.best_overlap - want.best_overlap) <= 1e-9, name
        assert got.report.certified_dims == want.report.certified_dims == {"complex": space.dim}
        assert got.report.params == want.report.params
        if space.dim == 0:
            assert got.report.metrics == want.report.metrics
            continue
        # the histories are overlaps after each site update, never decreasing
        for history in got.histories:
            assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        # the witness factors realize the reported overlap with the space
        x = np.array([complex(c) for c in got.witness.expand().coeffs])
        b = orthonormal_basis(space)
        assert abs(np.sum(np.abs(b.conj() @ x) ** 2) - got.best_overlap) <= 1e-9, name
        if name == "Sperp":
            assert got.report.verdict == WITNESS
            assert sperp_overlap(got.report.witness) > 1 - 1e-9


def test_level_sum_als_rejects_levels_out_of_range():
    dims = Dims((3, 3))
    for levels in ((5,), (-1,), (0, 9)):
        with pytest.raises(ValueError, match="out of range"):
            max_product_overlap(LevelSums(levels), dims)
    # levels holding one index span no vector orthogonal to their sum
    result = max_product_overlap(LevelSums((0, 4)), dims)
    assert result.best_overlap == 0.0 and result.report.certified_dims == {"complex": 0}


def test_level_sum_als_runs_large_shapes_without_a_basis():
    # S on 30,30 is 841-dimensional; its level-sum form holds (B, 59, 30) stacks
    dims = Dims((30, 30))
    result = max_product_overlap(LevelSums(tuple(range(59))), dims, restarts=2)
    assert result.report.certified_dims == {"complex": 30 * 30 - 59}
    assert 0.0 <= 1.0 - result.best_overlap < 1e-12


# seeds of one to four 32-bit words, one of more words than SeedSequence's
# pool holds, and one of 1,000 bits
START_SEEDS = (0, 5, 17, 2**31, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**999 + 12345)
# blocks from restart 0, from a block boundary (273 restarts of 3,3 fill
# one), and a lone restart
START_BLOCKS = (range(0, 9), range(3, 11), range(273, 282), range(546, 547))


def test_start_factors_match_the_per_site_draw():
    shapes = (Dims((2, 2)), Dims((3, 5)), Dims((2, 3, 4)), Dims((2,) * 6))
    for seed, dims, ts in itertools.product(START_SEEDS, shapes, START_BLOCKS):
        got = _start_factors(dims, ts, seed)
        for i, t in enumerate(ts):
            rng = np.random.default_rng([seed, t])
            for f, d in zip(got, dims.d):
                raw = rng.standard_normal((d, 2))
                x = raw[:, 0] + 1j * raw[:, 1]
                want = x / np.linalg.norm(x)
                assert f[i].tobytes() == want.tobytes(), (seed, dims, t)


def test_standard_normals_match_numpy_bit_for_bit(monkeypatch):
    # 120 normals from each of 900 streams: every START_SEEDS seed (one to
    # 32 words of entropy) with restart indices 0 to 99, its entropy words
    # hashed as ints.  Only the tail branch calls log1p, and only the
    # wedges call exp, so counting the calls shows both were taken.
    calls = Counter()

    def counted(branch, f):
        def wrapped(x):
            calls[branch] += 1
            return f(x)
        return wrapped

    monkeypatch.setattr(normals_module, "log1p", counted("tail", math.log1p))
    monkeypatch.setattr(normals_module, "exp", counted("wedge", math.exp))
    drawn = 0
    for seed, t in itertools.product(START_SEEDS, range(100)):
        state, inc = pcg64(seed_sequence_words(uint32_words(seed) + [t]))
        bits = np.random.PCG64([seed, t])
        assert bits.state["state"] == {"state": state, "inc": inc}, (seed, t)
        got = standard_normals(state, inc, 120)
        want = np.random.Generator(bits).standard_normal(120)
        assert np.array(got).tobytes() == want.tobytes(), (seed, t)
        drawn += len(got)
    assert drawn >= 10**5
    assert calls["tail"] and calls["wedge"], calls


def test_ziggurat_tables_are_the_installed_numpys(monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "ziggurat_tables.py"
    spec = importlib.util.spec_from_file_location("ziggurat_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    if not script.archive_path().is_file():
        pytest.skip("the installed numpy ships no numpy/random/lib/libnpyrandom.a")
    assert script.main(["--check"]) == 0
    # the check can fail: one bit of wi_double flipped
    tables = bytearray(normals_module._TABLES)
    tables[2048 + 8 * 100] ^= 1
    monkeypatch.setattr(normals_module, "_TABLES", bytes(tables))
    assert script.main(["--check"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"wi_double differs from {script.archive_path()}"]


def test_orthonormal_basis_rejects_dependent_rows():
    dims = Dims((2, 2))
    rows = [StateVector.from_values(dims, RATIONAL, [1, 0, 0, 0]),
            StateVector.from_values(dims, RATIONAL, [2, 0, 0, 0])]
    # a Subspace is always reduced, so build one around dependent rows
    space = Subspace(dims, RATIONAL, tuple(rows))
    with pytest.raises(ValueError, match="numerically dependent"):
        orthonormal_basis(space)
    b = orthonormal_basis(span([rows[0]], dims=dims))
    assert b.shape == (1, 4) and abs(abs(b[0, 0]) - 1) < 1e-15


def test_level_sum_blocks_stay_within_block_entries(monkeypatch):
    dims = Dims((16, 16))
    shapes = []
    real_toeplitz = verify_module._toeplitz

    def recording_toeplitz(q, d):
        t = real_toeplitz(q, d)
        shapes.append(t.shape)
        return t

    monkeypatch.setattr(verify_module, "_toeplitz", recording_toeplitz)
    result = max_product_overlap(LevelSums(tuple(range(31))), dims,
                                 restarts=1000, max_sweeps=1)
    assert result.report.metrics["total_sweeps"] == 1000
    cap = verify_module._ALS_BLOCK_ENTRIES
    # T is (N + 1) x d_r per restart
    assert {s[1:] for s in shapes} == {(31, 16)}
    assert max(math.prod(s) for s in shapes) <= cap
    assert sum(s[0] for s in shapes[::2]) == 1000  # two site updates per sweep


def test_als_makes_its_witness_only_when_read(monkeypatch):
    # S holds no product vector: its search reports none and makes none until
    # the result's witness is read
    dims = Dims((3, 4))
    space = LevelSums(range(dims.max_level + 1))
    want = max_product_overlap(space, dims, restarts=4, seed=5)
    want_witness = want.witness

    def no_vector(*args):
        raise AssertionError("a ProductVector was made")

    monkeypatch.setattr(ProductVector, "from_values", staticmethod(no_vector))
    got = max_product_overlap(space, dims, restarts=4, seed=5)
    assert got.report.verdict == NO_WITNESS and got.report.witness is None
    monkeypatch.undo()
    assert got.witness == want_witness and got.witness is got.witness
    assert got == want
    # a witness verdict makes it at once, as the report's
    sperp = max_product_overlap(LevelSums(space.levels, sums=True), dims, restarts=4)
    assert sperp.report.verdict == WITNESS and sperp.witness is sperp.report.witness


def test_als_empty_basis():
    best, witness, report = max_product_overlap([], Dims((2, 2)))
    assert best == 0.0
    assert witness is None
    assert report.verdict == NO_WITNESS


def test_als_product_line_reaches_one():
    dims = Dims((2, 2))
    basis = np.zeros((1, 4), dtype=complex)
    basis[0, 0] = 1.0  # the (0,0) product direction
    best, witness, report = max_product_overlap(basis, dims, restarts=4, seed=3)
    assert best > 1 - 1e-10
    assert report.verdict == WITNESS
    w = witness.expand().coeffs
    assert abs(abs(w[0]) - 1.0) < 1e-6


def test_als_singlet_is_half():
    dims = Dims((2, 2))
    basis = np.zeros((1, 4), dtype=complex)
    basis[0, 1] = 1 / np.sqrt(2)
    basis[0, 2] = -1 / np.sqrt(2)
    best, _, report = max_product_overlap(basis, dims, restarts=8, seed=1)
    assert abs(best - 0.5) < 1e-8
    assert report.verdict == NO_WITNESS


def test_als_monotone_and_deterministic():
    dims = Dims((3, 3))
    basis = orthonormal_basis(entangled_subspace(dims))
    r1 = max_product_overlap(basis, dims, restarts=6, seed=11)
    r2 = max_product_overlap(basis, dims, restarts=6, seed=11)
    assert r1.best_overlap == r2.best_overlap
    assert r1.witness.expand().coeffs == r2.witness.expand().coeffs
    for history in r1.histories:
        for a, b in zip(history, history[1:]):
            assert b >= a - 1e-12
    r3 = max_product_overlap(basis, dims, restarts=6, seed=12)
    # different seed may land on a different phase but the value must agree
    assert abs(r3.best_overlap - r1.best_overlap) < 1e-8


def test_methods_agree_on_both_sides():
    for dims in (Dims((2, 3)), Dims((2, 2, 2))):
        s = entangled_subspace(dims)
        for rep in ff_verify(s, dims):
            assert rep.verdict == NO_WITNESS
        best, _, rep = max_product_overlap(
            orthonormal_basis(s), dims, restarts=16, seed=2
        )
        assert rep.verdict == NO_WITNESS
        assert best < 1 - 1e-3

        c = entangled_complement(dims)
        for rep in ff_verify(c, dims):
            assert rep.verdict == WITNESS
        best, _, rep = max_product_overlap(
            orthonormal_basis(c), dims, restarts=16, seed=2
        )
        assert rep.verdict == WITNESS
        assert best > 1 - 1e-6


def test_nearest_vandermonde():
    dims = Dims((2, 3))
    pt, dist = nearest_vandermonde(vandermonde_vector(dims, 2, COMPLEX), dims)
    assert pt is not INFINITY
    assert abs(pt - 2) < 1e-12
    assert dist < 1e-12
    pt, dist = nearest_vandermonde(vandermonde_vector(dims, INFINITY, COMPLEX), dims)
    assert pt is INFINITY
    assert dist < 1e-12


def reference_nearest_vandermonde(witness, dims):
    """The dense fit ``nearest_vandermonde`` replaced: the witness and every
    candidate are expanded."""
    num = 0j
    den = 0.0
    for f in witness.factors:
        arr = np.asarray([complex(c) for c in f])
        num += complex(np.vdot(arr[:-1], arr[1:]))
        den += float(np.vdot(arr[:-1], arr[:-1]).real)
    candidates = [INFINITY]
    if den > 1e-30:
        candidates.append(num / den)
    w = np.asarray([complex(c) for c in witness.expand().coeffs])
    w = w / np.linalg.norm(w)
    best_pt, best_dist = None, float("inf")
    for pt in candidates:
        z = vandermonde_vector(dims, pt, COMPLEX).expand()
        zv = np.asarray([complex(c) for c in z.coeffs])
        zv = zv / np.linalg.norm(zv)
        overlap = abs(complex(np.vdot(zv, w)))
        dist = math.sqrt(max(0.0, 2.0 - 2.0 * overlap))
        if dist < best_dist:
            best_pt, best_dist = pt, dist
    return best_pt, best_dist


def _fit_witnesses(dims, rng):
    """Product vectors to fit: random ones, Vandermonde points exact and
    perturbed, INFINITY, and one with den ~ 0, whose only candidate is
    INFINITY."""
    def product(factors):
        return ProductVector.from_values(dims, COMPLEX, factors)

    def noise(d, scale):
        return scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))

    yield product([noise(d, 1) for d in dims.d])
    for pt in (2, -0.5 + 1j, 1e-3, INFINITY):
        exact = vandermonde_vector(dims, pt, COMPLEX)
        yield exact
        yield product([np.asarray(f) + noise(len(f), 1e-3) for f in exact.factors])
    yield product([[1e-17] * (d - 1) + [1j] for d in dims.d])


@pytest.mark.parametrize("dims", SMALL_DIMS + [Dims((3, 4)), Dims((4, 2, 3))], ids=str)
def test_nearest_vandermonde_matches_the_dense_fit(dims):
    rng = np.random.default_rng(17)
    for witness in _fit_witnesses(dims, rng):
        pt, dist = nearest_vandermonde(witness, dims)
        ref_pt, ref_dist = reference_nearest_vandermonde(witness, dims)
        assert (pt is INFINITY) == (ref_pt is INFINITY)
        if pt is not INFINITY:
            assert abs(pt - ref_pt) <= 1e-12 * max(1.0, abs(ref_pt))
        # the squared distance is 2 - 2 * overlap; near 0 the dense fit loses
        # the root's digits to cancellation, and this fit does not
        assert abs(dist ** 2 - ref_dist ** 2) <= 1e-12
        if ref_dist > 1e-2:
            assert abs(dist - ref_dist) <= 1e-12


def test_nearest_vandermonde_expands_nothing():
    dims = Dims((2,) * 20)

    def no_expansion(self):
        raise AssertionError("a product vector was expanded")

    with mock.patch.object(ProductVector, "expand", no_expansion):
        pt, dist = nearest_vandermonde(vandermonde_vector(dims, 0.5 - 2j, COMPLEX), dims)
        assert abs(pt - (0.5 - 2j)) <= 1e-12 and dist <= 1e-12
        pt, dist = nearest_vandermonde(vandermonde_vector(dims, INFINITY, COMPLEX), dims)
        assert pt is INFINITY and dist <= 1e-12
        rng = np.random.default_rng(5)
        witness = ProductVector.from_values(
            dims, COMPLEX, [rng.standard_normal(2) + 1j for _ in range(20)])
        pt, dist = nearest_vandermonde(witness, dims)
        assert 0 < dist <= math.sqrt(2)


def test_verify_upb_accepts_minimal_construction():
    for dims in (Dims((2, 3)), Dims((2, 2, 2))):
        report = verify_upb(minimal_upb(dims), dims)
        assert report.is_upb
        assert report.independent and report.meets_min_size
        assert report.complement_in_entangled
        assert report.complement_dim == dims.total - (dims.max_level + 1)
        assert report.witness is None
        assert len(report.ff_reports) >= 2
        for rep in report.ff_reports:
            assert rep.verdict == NO_WITNESS


def test_verify_upb_rejects_extendible_set():
    dims = Dims((2, 2))
    vectors = [
        standard_product_vector(dims, (0, 0)),
        standard_product_vector(dims, (0, 1)),
    ]
    report = verify_upb(vectors, dims)
    assert not report.is_upb
    assert report.independent
    assert not report.meets_min_size
    assert not report.complement_in_entangled
    assert report.witness is not None
    # the witness really is a product vector orthogonal to both inputs (mod p)
    w = report.witness.expand()
    for v in vectors:
        lifted = StateVector.from_values(dims, w.field, v.expand().coeffs)
        assert not lifted.inner(w)


def test_verify_upb_trivial_full_basis():
    dims = Dims((2, 2))
    vectors = [standard_product_vector(dims, idx) for idx in all_indices(dims)]
    report = verify_upb(vectors, dims)
    assert report.is_upb
    assert report.complement_dim == 0
    assert report.ff_reports == []


def test_verify_upb_input_validation():
    dims = Dims((2, 2))
    with pytest.raises(ValueError):
        verify_upb([], dims)
    pv = ProductVector.from_values(
        dims, COMPLEX, [(1 + 0j, 0j), (1 + 0j, 0j)]
    )
    with pytest.raises(TypeError):
        verify_upb([pv], dims)
