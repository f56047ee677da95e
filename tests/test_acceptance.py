"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import contextlib
import json
import math

from entspace import (
    Dims,
    INFINITY,
    RATIONAL,
    antidiagonal_zero_space,
    candidate_count,
    classify_product_vectors_fp,
    entangled_subspace,
    find_product_vectors_fp,
    level_count_closed_form,
    level_counts,
    level_sum_vector,
    max_product_overlap,
    minimal_upb,
    nearest_vandermonde,
    orthocomplement,
    orthonormal_basis,
    span,
    split_antidiagonal_spaces,
    upb_of_size,
    verify_upb,
)
from entspace.cli import main
from entspace.codec import document_vectors

import numpy as np

ALL_DIMS = [
    Dims((2, 2)), Dims((2, 3)), Dims((3, 3)), Dims((4, 4)),
    Dims((2, 2, 2)), Dims((2, 3, 4)), Dims((2, 2, 2, 2)),
]


@contextlib.contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {n} {label}: PASS")


def test_criterion_1_dimension_formula():
    with criterion(1, "dimension formula and orthocomplement"):
        for dims in ALL_DIMS:
            s = entangled_subspace(dims)
            assert s.dim == dims.total - (dims.max_level + 1)
            sums = [
                level_sum_vector(dims, n) for n in range(dims.max_level + 1)
            ]
            assert orthocomplement(s) == span(sums)


def test_criterion_2_level_counts():
    with criterion(2, "level counts match closed forms"):
        assert level_counts(Dims((2, 3))) == [1, 2, 2, 1]
        assert level_counts(Dims((2, 2, 2, 2))) == [1, 4, 6, 4, 1]
        for dims in ALL_DIMS:
            closed = [
                level_count_closed_form(dims, n)
                for n in range(dims.max_level + 1)
            ]
            if closed[0] is None:
                continue  # no closed form for mixed dims beyond two factors
            assert closed == level_counts(dims), dims


def test_criterion_3_entangled_subspace_oracle_empty():
    with criterion(3, "no product vectors in entangled subspace mod p"):
        dims_list = [Dims((2, 2)), Dims((2, 3)), Dims((3, 3)), Dims((2, 2, 2))]
        total_tests = 0
        for dims in dims_list:
            s = entangled_subspace(dims)
            for p in (5, 7):
                assert find_product_vectors_fp(s, dims, p) == []
                total_tests += candidate_count(dims, p)
        assert total_tests <= 10**6


def test_criterion_4_complement_classification():
    with criterion(4, "complement product vectors are the p+1 parameter points"):
        for dims in (Dims((2, 3)), Dims((2, 2, 2))):
            for p in (5, 7):
                rep = classify_product_vectors_fp(dims, p)
                assert rep.passed
                assert len(rep.found) == p + 1


def test_criterion_5_minimal_upb_and_subsets():
    with criterion(5, "minimal construction is a UPB, all N-subsets fail"):
        for dims in (Dims((2, 3)), Dims((2, 2, 2))):
            upb = minimal_upb(dims)
            assert len(upb) == dims.max_level + 1
            report = verify_upb(upb, dims)
            assert report.is_upb
            assert report.span_dim == dims.max_level + 1
            for skip in range(len(upb)):
                subset = [v for j, v in enumerate(upb) if j != skip]
                sub_report = verify_upb(subset, dims)
                assert not sub_report.is_upb
                assert sub_report.witness is not None


def test_criterion_6_every_size_upb():
    with criterion(6, "UPBs at every admissible size for 3x3"):
        dims = Dims((3, 3))
        s = entangled_subspace(dims)
        for m in range(5, 10):
            record, vectors = upb_of_size(dims, m)
            assert record.size == m
            spanned = span([v.expand() for v in vectors])
            assert spanned.dim == m
            comp = orthocomplement(spanned)
            for row in comp.rows:
                assert s.contains(row)
            report = verify_upb(vectors, dims, primes=(7,))
            assert report.is_upb
            for rep in report.ff_reports:
                assert rep.metrics["found"] == 0


def test_criterion_7_worked_examples():
    with criterion(7, "matrix examples match the graded construction"):
        e1 = antidiagonal_zero_space(3, 3)
        assert e1.dim == 4
        assert e1 == entangled_subspace(Dims((3, 3)))
        ex = split_antidiagonal_spaces()
        assert ex.m_space.dim == 8
        r_span = span([pv.expand() for pv in ex.spanning_set])
        assert r_span.dim == 7
        assert ex.m_perp.dim == 8
        assert r_span.dim < ex.m_perp.dim
        assert orthocomplement(r_span) == entangled_subspace(Dims((4, 4)))


def test_criterion_8_als_verifier():
    with criterion(8, "alternating search hits known overlap values"):
        # singlet: Schmidt value 1/2
        d22 = Dims((2, 2))
        singlet = np.zeros((1, 4), dtype=complex)
        singlet[0, 1] = 1 / math.sqrt(2)
        singlet[0, 2] = -1 / math.sqrt(2)
        best, _, _ = max_product_overlap(singlet, d22, restarts=16, seed=42)
        assert abs(best - 0.5) <= 1e-8

        # complement of the entangled subspace: product vectors exist
        d23 = Dims((2, 3))
        comp = orthonormal_basis(
            orthocomplement(entangled_subspace(d23))
        )
        best, witness, _ = max_product_overlap(
            comp, d23, restarts=16, max_sweeps=2000, tol=1e-14, seed=42
        )
        assert best >= 1 - 1e-8
        _, dist = nearest_vandermonde(witness, d23)
        assert dist <= 1e-6

        # entangled subspace itself: bounded away from 1
        d33 = Dims((3, 3))
        basis = orthonormal_basis(entangled_subspace(d33))
        best, _, _ = max_product_overlap(basis, d33, restarts=64, seed=42)
        assert best <= 1 - 1e-3


def test_criterion_9_determinism_and_round_trip(tmp_path, capsys):
    with criterion(9, "byte-identical output and exact round-trip"):
        commands = [
            ["dims", "--dims", "2,3,4"],
            ["construct", "--dims", "2,3,4", "--space", "S"],
            ["construct", "--dims", "3,3", "--space", "Sperp", "--format", "csv"],
            ["upb", "--dims", "3,3", "--size", "7"],
            ["verify", "--dims", "2,3", "--space", "S"],
            ["verify", "--dims", "2,2", "--space", "Sperp",
             "--method", "als", "--restarts", "8", "--seed", "5"],
            ["classify", "--dims", "2,3", "--prime", "5"],
            ["onb", "--dims", "2,3", "--level", "1"],
        ]
        for i, argv in enumerate(commands):
            f1 = tmp_path / f"{i}_a.out"
            f2 = tmp_path / f"{i}_b.out"
            assert main(argv + ["--out", str(f1)]) in (0, 3)
            assert main(argv + ["--out", str(f2)]) in (0, 3)
            assert f1.read_bytes() == f2.read_bytes(), argv

        for dims_text, space in (("2,3,4", "S"), ("2,2,2", "Sperp")):
            code = main(["construct", "--dims", dims_text, "--space", space])
            out = capsys.readouterr().out
            assert code == 0
            dims, field, vecs = document_vectors(json.loads(out))
            from entspace.commands import _named_space
            from entspace.construct import _level_rows

            target = _level_rows(dims, _named_space(dims, space)[0])
            assert span(vecs, dims=dims, field=field) == target
