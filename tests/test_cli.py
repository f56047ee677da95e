"""End-to-end CLI runs: exit codes, formats, round-trips, determinism."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entspace import (
    DEFAULT_MAX_SWEEPS,
    INFINITY,
    Dims,
    LevelSums,
    RATIONAL,
    entangled_complement,
    entangled_level,
    entangled_subspace,
    minimal_upb,
    parse_dims,
    span,
    split_antidiagonal_spaces,
)
import entspace.cli as entspace_cli
import entspace.commands as commands
import entspace.commands.classify as classify_command
import entspace.commands.construct as construct_command
import entspace.commands.verify as verify_command
import entspace.ff as ff_module
import entspace.ffobjects as ffobjects
import entspace.verify as verify_module
from entspace.cli import main
from entspace.codec import document_product_vectors, document_vectors, parse_csv
from entspace.counting import all_indices


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _library_space(dims, space):
    """A named space as the library builds it, and its expected verdict: a
    graded space as its ``LevelSums``, example2 as the exact ``Subspace``
    of ``split_antidiagonal_spaces`` (example2-R the elimination span of its
    product vectors), the reference of the command's closed forms."""
    target, expected = commands._named_space(dims, space)
    if space == "example2-M":
        target = split_antidiagonal_spaces().m_space
    elif space == "example2-R":
        target = span([pv.expand() for pv in split_antidiagonal_spaces().spanning_set])
    return target, expected


def test_dims_table(capsys):
    code, out, _ = run(capsys, "dims", "--dims", "2,3")
    assert code == 0
    assert "N: 3" in out
    assert "dim entangled subspace: 2" in out
    rows = [ln.split() for ln in out.splitlines()[5:]]
    assert [int(r[1]) for r in rows] == [1, 2, 2, 1]
    assert int(rows[-1][3]) == 6


def test_dims_rejects_degenerate(capsys):
    code, _, err = run(capsys, "dims", "--dims", "1,3")
    assert code == 2
    assert "error" in err


def test_construct_json_subspace(capsys):
    code, out, _ = run(capsys, "construct", "--dims", "2,2", "--space", "Sperp")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 2]
    assert doc["N"] == 2
    assert doc["field"] == "rational"
    assert doc["index_order"] == "lex"
    assert len(doc["vectors"]) == 3
    dims, field, vecs = document_vectors(doc)
    assert field == RATIONAL
    assert span(vecs, dims=dims, field=field) == entangled_complement(dims)


def test_construct_csv_antidiagonal_sums(capsys):
    code, out, _ = run(capsys, "construct", "--dims", "3,3",
                       "--space", "S", "--format", "csv")
    assert code == 0
    vecs = parse_csv(out)
    assert len(vecs) == 4
    d = Dims((3, 3))
    for v in vecs:
        for n in range(d.max_level + 1):
            total = sum(
                v.coeffs[d.position(idx)]
                for idx in all_indices(d) if sum(idx) == n
            )
            assert total == 0
    assert span(vecs, dims=d, field=RATIONAL) == entangled_subspace(d)


def test_construct_level_slice(capsys):
    code, out, _ = run(capsys, "construct", "--dims", "2,3", "--space", "level:1")
    assert code == 0
    doc = json.loads(out)
    dims, field, vecs = document_vectors(doc)
    assert len(vecs) == 1
    assert span(vecs, dims=dims, field=field) == entangled_level(dims, 1)


def test_construct_round_trip_exact(capsys):
    for dims_text, space in (("2,3,4", "S"), ("2,2,2", "Sperp"), ("4,4", "example2-M")):
        code, out, _ = run(capsys, "construct", "--dims", dims_text, "--space", space)
        assert code == 0
        dims, field, vecs = document_vectors(json.loads(out))
        target, _ = _library_space(dims, space)
        if isinstance(target, LevelSums):
            from entspace.construct import _level_rows

            target = _level_rows(dims, target)
        assert span(vecs, dims=dims, field=field) == target


def test_document_with_gaussian_field_is_refused(capsys):
    code, out, _ = run(capsys, "construct", "--dims", "2,2", "--space", "Sperp")
    doc = json.loads(out)
    doc["field"] = "gaussian"
    with pytest.raises(ValueError, match="unknown field label"):
        document_vectors(doc)


def test_construct_example2_product_list(capsys):
    code, out, _ = run(capsys, "construct", "--dims", "4,4", "--space", "example2-R")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vectors"]) == 8
    for entry in doc["vectors"]:
        assert len(entry["factors"]) == 2
        assert len(entry["coeffs"]) == 16


def test_construct_errors(capsys):
    code, _, err = run(capsys, "construct", "--dims", "2,2,2",
                       "--space", "S", "--format", "csv")
    assert code == 2 and "two factors" in err
    code, _, err = run(capsys, "construct", "--dims", "2,2", "--space", "nope")
    assert code == 2 and "unknown space" in err
    code, _, _ = run(capsys, "construct", "--dims", "2,2", "--space", "example2-M")
    assert code == 2
    code, _, _ = run(capsys, "construct", "--dims", "2,2,2", "--space", "example1")
    assert code == 2
    code, _, _ = run(capsys, "construct", "--dims", "2,3", "--space", "level:9")
    assert code == 2


def test_upb_min(capsys):
    code, out, _ = run(capsys, "upb", "--dims", "2,3", "--min")
    assert code == 0
    doc = json.loads(out)
    assert doc["upb"]["size"] == 4
    assert doc["report"]["is_upb"] is True
    assert len(doc["vectors"]) == 4
    verdicts = [r["verdict"] for r in doc["report"]["ff_reports"]]
    assert verdicts and all(v == "no-product-vector-found" for v in verdicts)


def test_upb_min_round_trips_through_product_vector_document(capsys):
    code, out, _ = run(capsys, "upb", "--dims", "2,3", "--min",
                       "--lambdas", "inf,0,1/2,-3")
    assert code == 0
    dims, field, vectors = document_product_vectors(json.loads(out))
    assert (dims, field) == (Dims((2, 3)), RATIONAL)
    expected = minimal_upb(dims, [INFINITY, 0, Fraction(1, 2), -3])
    assert [v.factors for v in vectors] == [v.factors for v in expected]


def test_upb_min_custom_points(capsys):
    code, out, _ = run(capsys, "upb", "--dims", "2,3", "--min",
                       "--lambdas", "inf,0,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["upb"]["points"] == ["inf", "0", "1", "2"]
    assert doc["report"]["is_upb"] is True
    code, _, err = run(capsys, "upb", "--dims", "2,3", "--min",
                       "--lambdas", "0,1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "upb", "--dims", "2,3", "--min",
                       "--lambdas", "1/0,1,2,3")
    assert code == 2 and "error" in err


def test_upb_min_default_primes_4x4(capsys):
    code, out, _ = run(capsys, "upb", "--dims", "4,4", "--min")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["is_upb"] is True
    assert [r["params"]["p"] for r in report["ff_reports"]] == [7, 11]


def test_upb_size(capsys):
    for m in (5, 7, 9):
        code, out, _ = run(capsys, "upb", "--dims", "3,3", "--size", str(m))
        assert code == 0
        doc = json.loads(out)
        assert doc["upb"]["size"] == m
        assert len(doc["vectors"]) == m
        assert doc["report"]["is_upb"] is True
    code, _, err = run(capsys, "upb", "--dims", "3,3", "--size", "4")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "upb", "--dims", "3,3", "--size", "10")
    assert code == 2
    code, _, _ = run(capsys, "upb", "--dims", "2,2,2", "--size", "5")
    assert code == 2


def test_upb_oversized_elimination_fails_fast(capsys):
    # 127 Vandermonde expansions of length 4096 are refused before any
    # expansion or elimination
    code, out, err = run(capsys, "upb", "--dims", "64,64", "--size", "200")
    assert code == 2 and out == ""
    assert "error: elimination needs at least" in err


@pytest.mark.parametrize("dims, size, primes, message", [
    ("2,2", "4", "4", "error: 4 is not prime\n"),
    ("2,2", "4", "1", "error: 1 is not prime\n"),
    ("3,3", "9", "9,15", "error: 9 is not prime\n"),
    ("3,3", "9", "5,15", "error: 15 is not prime\n"),
    ("3,3", "9", "3", "error: prime 3 must exceed the top level 4\n"),
])
def test_upb_at_full_size_checks_every_prime(capsys, dims, size, primes, message):
    # the complement is empty, so nothing is enumerated, but a prime the
    # oracle would refuse is refused all the same
    code, out, err = run(capsys, "upb", "--dims", dims, "--size", size, "--primes", primes)
    assert (code, out, err) == (2, "", message)


def test_upb_at_full_size_accepts_good_primes_without_a_report(capsys):
    # past the fibre budget at p = 10007, which no enumeration applies here
    code, out, _ = run(capsys, "upb", "--dims", "3,3", "--size", "9", "--primes", "5,10007")
    report = json.loads(out)["report"]
    assert code == 0 and report["is_upb"] and report["ff_reports"] == []


@pytest.mark.parametrize("point", ["1e1000000", "-3.5e10000000", "1e-10000000",
                                   "7E99999999999999", "2/3e99999999"])
def test_upb_refuses_a_point_too_long_to_write_at_once(capsys, point):
    # 10**exp alone would take seconds (1e10000000) or never end; the
    # document could not write the point's square anyway
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    code, out, err = run(capsys, "upb", "--dims", "2,2", "--min", f"--lambdas={point},1,2")
    elapsed = time.perf_counter() - start
    if point == "2/3e99999999":  # malformed: Fraction's own message, as before
        assert (code, err) == (2, f"error: Invalid literal for Fraction: {point!r}\n")
        return
    assert (code, out) == (2, "") and elapsed < 1.0
    assert err == f"error: parameter point {point!r}: power 2 has over {limit} digits\n"


def test_upb_point_digit_limit_is_exact(capsys):
    # on 3,3 (top level 4) the point 10**k is written as 10**(4k), which has
    # 4k + 1 digits; a zero mantissa stays 0 whatever its exponent
    limit = sys.get_int_max_str_digits()
    k = (limit - 1) // 4
    for exponent, refused in ((k, False), (k + 1, True), (-k, False), (-k - 1, True)):
        code, out, err = run(capsys, "upb", "--dims", "3,3", "--min",
                             f"--lambdas=1e{exponent},0,1,2,3")
        message = f"error: parameter point '1e{exponent}': power 4 has over {limit} digits\n"
        assert (code, err) == ((2, message) if refused else (0, "")), exponent
    code, out, _ = run(capsys, "upb", "--dims", "2,2", "--min", "--lambdas=0e99999999999,1,2")
    assert code == 0 and json.loads(out)["upb"]["points"] == ["0", "1", "2"]


@pytest.mark.parametrize("argv, message", [
    ("--dims 2,2 --min --lambdas=1e3000,1", "need exactly 3 points, got 2"),
    ("--dims 2,2 --min --lambdas=1e3000,1,2 --primes 4", "4 is not prime"),
    ("--dims 17,17 --size 289 --lambdas=1e200," + ",".join(map(str, range(32))),
     "elimination needs at least 24137569 multiply-adds, budget is 20000000"),
    ("--dims 64,64 --size 200 --lambdas=" + ",".join(f"{t}e40" for t in range(1, 128)),
     "elimination needs at least 66064384 multiply-adds, budget is 20000000"),
])
def test_upb_refuses_a_point_too_long_to_write_last(capsys, argv, message):
    # a point whose power only the document could not write is refused
    # after the count, the oracle's primes and both elimination budgets
    code, out, err = run(capsys, "upb", *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_upb_refuses_a_huge_basis_before_making_a_vector(capsys, monkeypatch):
    # 59 points of 4,301 digits on 30,30: making the vectors once took 7 s
    # and 110 MB before the complement's elimination budget refused the run
    import entspace.upbtext as upbtext

    def no_vectors(*args):
        raise AssertionError("a vector was written before the refusal")

    monkeypatch.setattr(upbtext, "_vector_entries", no_vectors)
    points = ",".join(f"{t}e4300" for t in range(1, 60))
    start = time.perf_counter()
    code, out, err = run(capsys, "upb", "--dims", "30,30", "--min", f"--lambdas={points}")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", "error: elimination needs at least 636552900 multiply-adds, "
               "budget is 20000000\n")


@pytest.mark.parametrize("argv, code, message", [
    # the prime passes, and the fibre count is refused
    ("verify --dims 2,2 --space S --primes 1000000000000000003", 2,
     "error: enumeration needs at least 1000000000000000004 "),
    # 10**18 + 1 = 101 * 9901 * 999999000001
    ("verify --dims 2,2 --space S --primes 1000000000000000001", 2,
     "error: 1000000000000000001 is not prime\n"),
    # at full size nothing is enumerated
    ("upb --dims 2,2 --size 4 --primes 1000000000000000003", 0, ""),
    ("upb --dims 2,2 --size 4 --primes 1000000000000000001", 2,
     "error: 1000000000000000001 is not prime\n"),
    # 2**89 - 1 is prime, past the range where the test is exact
    (f"upb --dims 2,2 --size 4 --primes {2**89 - 1}", 2,
     f"error: {2**89 - 1} is past the range of the primality test "
     f"(below 3317044064679887385961981)\n"),
])
def test_large_primes_are_decided_at_once(capsys, argv, code, message):
    # trial division up to sqrt(p) never ended on a prime near 10**18
    start = time.perf_counter()
    got, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert got == code and err.startswith(message) and (code == 2 or err == "")
    if code == 0:
        assert json.loads(out)["report"]["ff_reports"] == []


@pytest.mark.parametrize("prime, message", [
    ("1009", "error: elimination needs at least 1996002000 multiply-adds"),
    ("4", "error: 4 is not prime"),
])
def test_oversized_ff_verify_fails_before_converting(capsys, monkeypatch, prime, message):
    # S on 2,1000 has 999 rows of 2,000 entries: the first prime's checks
    # refuse it before any generator is converted to ints
    def no_conversion(*args):
        raise AssertionError("generators converted before the checks")

    monkeypatch.setattr(ff_module, "_integer_rows", no_conversion)
    code, out, err = run(capsys, "verify", "--dims", "2,1000", "--space", "S",
                         "--primes", prime)
    assert code == 2 and out == ""
    assert err.startswith(message)


def test_verify_expected_verdicts(capsys):
    cases = [
        (("verify", "--dims", "2,3", "--space", "S"), 0, "no-product-vector-found"),
        (("verify", "--dims", "2,3", "--space", "Sperp"), 0, "witness-found"),
        (("verify", "--dims", "2,2,2", "--space", "S", "--primes", "5,7"), 0,
         "no-product-vector-found"),
        (("verify", "--dims", "4,4", "--space", "example2-M", "--primes", "7"), 0,
         "no-product-vector-found"),
    ]
    for argv, want_code, want_verdict in cases:
        code, out, _ = run(capsys, *argv)
        assert code == want_code, argv
        doc = json.loads(out)
        assert doc["verdict"] == want_verdict
        assert doc["verdict"] == doc["expected"]


def test_verify_als(capsys):
    code, out, _ = run(capsys, "verify", "--dims", "2,2", "--space", "Sperp",
                       "--method", "als", "--restarts", "8", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "witness-found"
    rep = doc["reports"][0]
    assert rep["metrics"]["best_overlap"] > 1 - 1e-9
    assert "witness" in rep

    code, out, _ = run(capsys, "verify", "--dims", "3,3", "--space", "S",
                       "--method", "als", "--restarts", "8", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "no-product-vector-found"
    assert doc["reports"][0]["metrics"]["best_overlap"] < 0.95


def test_verify_als_graded_spaces_build_no_basis(capsys, monkeypatch):
    def no_basis(space):
        raise AssertionError("graded spaces need no orthonormal basis")

    monkeypatch.setattr(verify_module, "orthonormal_basis", no_basis)
    code, out, _ = run(capsys, "verify", "--dims", "12,12", "--space", "S",
                       "--method", "als")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == doc["expected"] == "no-product-vector-found"
    assert doc["reports"][0]["certified_dims"] == {"complex": 144 - 23}
    for space, want in (("Sperp", 0), ("level:3", 0), ("example1", 0), ("level:9", 2)):
        assert run(capsys, "verify", "--dims", "3,4", "--space", space,
                   "--method", "als", "--restarts", "2")[0] == want, space


def test_verify_als_example2_uses_the_dense_basis(capsys, monkeypatch):
    # the rows of example2's closed form, example2-R's those of Sperp
    calls = []
    real = verify_module.orthonormal_basis

    def recording(rows):
        assert isinstance(rows, list)
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(verify_module, "orthonormal_basis", recording)
    for space in ("example2-M", "example2-R"):
        code, out, _ = run(capsys, "verify", "--dims", "4,4", "--space", space,
                           "--method", "als", "--restarts", "4")
        assert code == 0, space
    assert calls == [8, 7]


@pytest.mark.parametrize("flags", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "2"), ("--tol", "0"),
    ("--tol", "-1e-9"), ("--max-sweeps", "0"), ("--max-sweeps", "-3"),
    ("--restarts", "0"), ("--restarts", "-4"),
], ids=" ".join)
def test_verify_als_rejects_nonsense_parameters(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dims", "3,3", "--space", "Sperp", "--method", "als",
              "--restarts", "2", *flags])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_als_over_work_budget_fails_fast(capsys):
    # 10**8 restarts of one sweep on two sites: refused before any restart
    code, out, err = run(capsys, "verify", "--dims", "2,2", "--space", "S",
                         "--method", "als", "--restarts", "100000000",
                         "--max-sweeps", "1")
    assert code == 2 and out == ""
    assert "error: ALS search needs at least 200000000 site updates" in err


@pytest.mark.parametrize("argv", [
    ("construct", "--dims", "300,300", "--space", "S"),
    ("onb", "--dims", "200,200", "--level", "150"),
], ids=lambda argv: argv[0])
def test_oversized_dense_output_fails_fast(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: dense basis needs at least" in err


def _one_gigabyte_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    "classify --dims 2,1000000 --prime 5",
    "verify --dims 2,1000000 --space Sperp --method als --restarts 1",
    "verify --dims 2,2000000000 --space Sperp --method als --restarts 1",
    "verify --dims 2,2000000000 --space level:3 --method als",
    "dims --dims 2,2000000000",
    "dims --dims 2,20000000",
    "upb --dims 2,100000 --min",
    "upb --dims 2,100000 --size 100005",
])
def test_oversized_shapes_are_refused_before_anything_is_built(argv):
    # each of these once hung, ran out of memory or raised a MemoryError;
    # under a 1 GB address space and a timeout, a refusal that comes only
    # after building fails here instead of passing
    src = str(Path(entspace_cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "entspace.cli", *argv.split()],
                          env=env, capture_output=True, text=True, timeout=20,
                          preexec_fn=_one_gigabyte_address_space)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", [
    "construct --dims {twos} --space S",
    "construct --dims {twos} --space Sperp",
    "construct --dims {twos} --space level:1",
    "construct --dims 2,3000000 --space example1",
    "verify --dims {twos} --space S --method ff",
    "onb --dims {twos} --level 1",
], ids=lambda argv: argv.replace("{twos}", "3000x2"))
def test_huge_shapes_are_refused_before_a_level_is_enumerated(capsys, monkeypatch, argv):
    # the row counts of S, Sperp and a level slice need no enumeration
    def no_enumeration(dims, n):
        raise AssertionError(f"level {n} enumerated")

    import entspace.construct
    import entspace.producttext

    for module in (entspace.construct, entspace.producttext):
        monkeypatch.setattr(module, "enumerate_level", no_enumeration)
    code, out, err = run(capsys, *argv.format(twos=",".join(["2"] * 3000)).split())
    assert code == 2 and out == ""
    assert err.startswith("error: dense basis needs at least ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, bits", [
    ("construct --dims 9223372036854775807,2 --space S", 126),
    ("verify --dims 99999999999999999999,2 --space Sperp --method ff --primes 7", 133),
])
def test_levels_past_sys_maxsize_are_refused(capsys, argv, bits):
    # max_level + 1 past sys.maxsize: len() of the range of every level
    # overflowed, a traceback, before the dense basis was refused
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"error: dense basis needs at least 2**{bits} entries, budget is 2000000\n"


@pytest.mark.parametrize("space", ["S", "Sperp"])
def test_huge_als_forms_are_refused_before_the_level_counts(capsys, monkeypatch, space):
    # some level of 3,000 factors of 2 holds at least 2**3000 / 3001 indices
    def no_counts(dims):
        raise AssertionError("level counts computed")

    monkeypatch.setattr(verify_module, "level_counts", no_counts)
    code, out, err = run(capsys, "verify", "--dims", ",".join(["2"] * 3000), "--space", space,
                         "--method", "als", "--restarts", "1")
    assert code == 2 and out == ""
    assert err == ("error: the largest level has at least a 2989-bit dimension, "
                   "past the float range of the ALS search\n"), err


@pytest.mark.parametrize("argv, message", [
    ("construct --dims 2,3 --space level:x", "bad level selector 'level:x'"),
    ("verify --dims 2,1000000 --space S --method als --restarts 1 --max-sweeps 1",
     "ALS site form needs at least 1000001000000 entries per restart, budget is 2000000"),
    ("dims --dims 2,2000000",
     "level table needs at least 4000002 factors * levels, budget is 2000000"),
    # 1,100 factors of 2: level 550 holds C(1100, 550), about 10**329
    ("verify --dims {twos} --space level:550 --method als --restarts 1 --max-sweeps 1",
     "level 550 has 1095-bit dimension, past the float range of the ALS search"),
], ids=["level-selector", "als-site-form", "level-table", "als-float-range"])
def test_refusals_name_their_cause(capsys, argv, message):
    code, out, err = run(capsys, *argv.format(twos=",".join(["2"] * 1100)).split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_huge_estimates_print_as_powers_of_two(capsys):
    # the fibre count has about 6,600 digits, past the interpreter's limit
    # on converting an int to text
    code, out, err = run(capsys, "classify", "--dims", ",".join(["2"] * 2000),
                         "--prime", "2003")
    assert code == 2 and out == ""
    assert err.startswith("error: enumeration needs at least 2**") and err.count("\n") == 1, err


STARTUP_PROBE = """
import contextlib, io, sys
import entspace.cli

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return entspace.cli.main(list(argv))

def loaded(names=("numpy", "entspace.verify", "dataclasses", "inspect")):
    # the value types are plain classes: start-up needs no code generator
    return [name for name in names if name in sys.modules]

def handlers():
    return sorted(name for name in sys.modules if name.startswith("entspace.commands."))

PARSER = ("argparse", "gettext", "locale")

# the reader needs no construction, output layer, verifier, command handler
# or parser
assert not loaded(("entspace.construct", "entspace.serialize", "entspace.ff",
                   "entspace.verify") + PARSER), "loaded by import entspace.cli"
assert handlers() == [], handlers()

# the closed forms need no elimination, UPB, example or verifier
for space in ("S", "Sperp", "example1"):
    assert quiet("construct", "--dims", "3,3", "--space", space) == 0
assert quiet("construct", "--dims", "3,3", "--space", "S", "--format", "csv") == 0
closed_form = ("entspace.elimination", "entspace.upb", "entspace.examples", "entspace.ff",
               "entspace.verify")
assert not loaded(closed_form), str(loaded(closed_form)) + " loaded by construct"
# a command compiles its own handler alone
assert handlers() == ["entspace.commands.construct"], handlers()

# onb writes its character basis from its closed form as text: no exact
# layer, object encoder, example, counting or rational, and no numpy
def package():
    return sorted(name for name in sys.modules if name.startswith("entspace"))

before = package()
for dims, level in (("3,3", "2"), ("2,3,4", "3"), ("2,2,2,2,2", "0")):
    assert quiet("onb", "--dims", dims, "--level", level) == 0
objects = ("entspace.fields", "entspace.linalg", "entspace.elimination", "entspace.construct",
           "entspace.examples", "entspace.codec", "entspace.ffobjects", "entspace.upb",
           "entspace.counting", "entspace.reduction", "fractions", "decimal", "numpy")
assert not loaded(objects), str(loaded(objects)) + " loaded by onb"
gained = sorted(set(package()) - set(before))
assert gained == ["entspace.commands.onb", "entspace.producttext"], gained

# upb writes its basis from the recipe as text and audits it in closed form:
# no scalar, vector, report or object encoder, and nothing eliminated
assert quiet("upb", "--dims", "2,2", "--min", "--primes", "5") == 0
assert quiet("upb", "--dims", "3,3", "--size", "7") == 0
assert quiet("upb", "--dims", "2,3,4", "--min") == 0
text_only = ("entspace.fields", "entspace.linalg", "entspace.construct", "entspace.codec",
             "entspace.ffobjects", "entspace.upb", "entspace.elimination", "fractions")
assert not loaded(text_only), str(loaded(text_only)) + " loaded by upb"

# so is example2, from its groups and its points, also under the oracle: no
# exact layer, object encoder, example, elimination or rational
for space in ("example2-M", "example2-R"):
    for fmt in ("json", "csv"):
        assert quiet("construct", "--dims", "4,4", "--space", space, "--format", fmt) == 0
    assert quiet("verify", "--dims", "4,4", "--space", space, "--method", "ff") == 0
exact = ("entspace.fields", "entspace.linalg", "entspace.construct", "entspace.codec",
         "entspace.examples", "entspace.elimination", "fractions", "decimal")
assert not loaded(exact), str(loaded(exact)) + " loaded by example2"

assert quiet("dims", "--dims", "3,3") == 0
assert not loaded(), str(loaded()) + " loaded by dims, construct or onb"
# the JSON writer quotes the documents' strings itself
assert not loaded(("json",)), "json loaded by construct"

from entspace.ff import _BATCH_FIBRES
from entspace.reduction import is_prime

# the finite-field oracle on plain ints: 2,2 at p has p + 1 fibres, so the
# largest prime at the cut stays numpy-free
at_cut = max(q for q in range(2, _BATCH_FIBRES) if is_prime(q))
assert quiet("verify", "--dims", "2,2", "--space", "S", "--primes", str(at_cut)) == 0
assert quiet("verify", "--dims", "3,3", "--space", "Sperp", "--method", "ff") == 0
oracle_only = ("entspace.upb", "entspace.elimination", "entspace.ffkernel", "json")
assert not loaded(oracle_only), str(loaded(oracle_only)) + " loaded by verify --method ff"
# nor with --lambdas, which loads fractions alone
assert quiet("upb", "--dims", "3,3", "--size", "9", "--lambdas=inf,0,1,-1,1/3") == 0
assert not loaded(("entspace.elimination", "entspace.upb")), "loaded by upb"
assert quiet("verify", "--dims", "4,4", "--space", "example2-R", "--primes", "7") == 0
assert quiet("classify", "--dims", "2,2", "--prime", "5") == 0
assert quiet("verify", "--dims", "3,3", "--space", "S", "--primes", "3") == 2
import entspace
assert entspace.ff_verify is entspace.ffobjects.ff_verify
assert entspace.UpbReport is entspace.upb.UpbReport
assert not loaded(), str(loaded()) + " loaded by verify --method ff, upb or classify"
# every command above read its argv from the option tables, so argparse,
# which loads gettext and locale, never loaded
assert not loaded(PARSER), str(loaded(PARSER)) + " loaded by a well-formed run"

def parsed(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entspace.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} did not end in the parser")

# help and refusals are the parser's, which loads them all
code, out, err = parsed("construct", "--help")
assert code == 0 and err == "", (code, err)
assert out.startswith("usage: entspace construct [-h] --dims DIMS"), out
code, out, err = parsed("verify", "--dims", "3,3", "--space", "S", "--seed", "x")
assert code == 2 and out == "" and err.startswith("usage: entspace verify [-h]"), err
assert err.splitlines()[-1] == ("entspace verify: error: argument --seed: "
                                "invalid non_negative_int value: 'x'"), err
assert loaded(PARSER) == list(PARSER), loaded(PARSER)

# just past the cut the batched kernel loads, and the ALS search does not
past_cut = next(q for q in range(_BATCH_FIBRES, 2 * _BATCH_FIBRES) if is_prime(q))
assert quiet("verify", "--dims", "2,2", "--space", "S", "--primes", str(past_cut)) == 0
kernel = loaded(("numpy", "entspace.ffkernel", "entspace.verify"))
assert kernel == ["numpy", "entspace.ffkernel"], kernel
"""

ALS_PROBE = """
import contextlib, io, sys
import entspace.cli

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return entspace.cli.main(list(argv))

PARSER = ("argparse", "gettext", "locale")
assert not [name for name in PARSER if name in sys.modules], "loaded by import entspace.cli"

# a graded search writes its report, a witness included, from its floats
for space in ("Sperp", "S", "level:1"):
    assert quiet("verify", "--dims", "2,2", "--space", space, "--method", "als",
                 "--restarts", "2") == 0
for name in ("numpy", "entspace.verify"):
    assert name in sys.modules, name + " not loaded by verify --method als"
for name in ("entspace.ff", "entspace.ffkernel", "json", "entspace.codec",
             "entspace.construct", "entspace.fields", "entspace.linalg",
             "entspace.reduction", "entspace.elimination"):
    assert name not in sys.modules, name + " loaded by a graded verify --method als"
# a module compiled after numpy raises the peak RSS
order = list(sys.modules)
assert order.index("entspace.serialize") < order.index("numpy")
# example2 is searched in dense form, on the float rows of its closed form
for space in ("example2-M", "example2-R"):
    assert quiet("verify", "--dims", "4,4", "--space", space, "--method", "als",
                 "--restarts", "4") == 0
for name in ("entspace.fields", "entspace.linalg", "entspace.construct", "entspace.codec",
             "entspace.examples", "entspace.elimination", "fractions", "decimal"):
    assert name not in sys.modules, name + " loaded by an example2 verify --method als"
# nor does any search read its argv with argparse
for name in PARSER:
    assert name not in sys.modules, name + " loaded by verify --method als"

import entspace
names = {}
exec("from entspace import *", names)
missing = [n for n in entspace.__all__ if n not in names]
assert not missing, missing
assert entspace.max_product_overlap is entspace.verify.max_product_overlap
assert entspace.verify_upb is entspace.upb.verify_upb
assert entspace.verify.VerificationReport is entspace.grading.VerificationReport
assert "max_product_overlap" in dir(entspace) and "ff_verify" in dir(entspace)
try:
    entspace.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
"""


FRACTION_PROBE = """
import contextlib, io, sys
import entspace.cli

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return entspace.cli.main(list(argv))

def loaded():
    return [name for name in ("fractions", "decimal") if name in sys.modules]

from entspace.ff import _BATCH_FIBRES
from entspace.reduction import is_prime

# no command below makes a rational: the oracle takes a graded space's rank
# and annihilator in closed form, and the ALS search its level-sum form
assert not loaded(), str(loaded()) + " loaded by import entspace.cli"
assert quiet("dims", "--dims", "3,3") == 0
for space in ("S", "Sperp", "level:2", "example1"):
    assert quiet("verify", "--dims", "3,3", "--space", space, "--method", "ff") == 0
past_cut = next(q for q in range(_BATCH_FIBRES, 2 * _BATCH_FIBRES) if is_prime(q))
assert quiet("verify", "--dims", "2,2", "--space", "Sperp", "--primes", str(past_cut)) == 0
assert quiet("classify", "--dims", "2,3", "--prime", "7") == 0
# a upb document is written from its integer points as text
assert quiet("upb", "--dims", "2,2", "--min", "--primes", "5") == 0
assert quiet("upb", "--dims", "3,3", "--size", "7") == 0
# example2 is written and searched from its closed forms
for space in ("example2-M", "example2-R"):
    for fmt in ("json", "csv"):
        assert quiet("construct", "--dims", "4,4", "--space", space, "--format", fmt) == 0
    assert quiet("verify", "--dims", "4,4", "--space", space, "--method", "ff") == 0
# and onb's character basis from its complex closed form
assert quiet("onb", "--dims", "3,3", "--level", "2") == 0
assert not loaded(), str(loaded()) + " loaded by a command that makes no rational"
for space in ("S", "Sperp", "level:1"):
    assert quiet("verify", "--dims", "2,2", "--space", space, "--method", "als",
                 "--restarts", "2") == 0
for space in ("example2-M", "example2-R"):
    assert quiet("verify", "--dims", "4,4", "--space", space, "--method", "als",
                 "--restarts", "2") == 0
assert not loaded(), str(loaded()) + " loaded by verify --method als"

# the guard can fail: the library's exact S and --lambdas points are rational
import entspace
entspace.entangled_subspace(entspace.Dims((3, 3)))
assert loaded() == ["fractions", "decimal"], loaded()
for name in ("fractions", "decimal"):
    del sys.modules[name]
assert quiet("upb", "--dims", "2,2", "--min", "--lambdas=0,1,2") == 0
assert loaded() == ["fractions", "decimal"], loaded()
"""


def test_dims_and_construct_start_without_numpy():
    src = str(Path(entspace_cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for probe in (STARTUP_PROBE, ALS_PROBE, FRACTION_PROBE):
        proc = subprocess.run([sys.executable, "-c", probe],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


GRADED_CONSTRUCT_PROBE = """
import contextlib, io, sys
import entspace.cli

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return entspace.cli.main(list(argv))

def loaded(names):
    return [name for name in names if name in sys.modules]

exact = ("entspace.fields", "entspace.linalg")
assert not loaded(exact), str(loaded(exact)) + " loaded by import entspace.cli"
assert quiet("dims", "--dims", "3,3") == 0
assert not loaded(exact), str(loaded(exact)) + " loaded by dims"

# a graded basis is written from its closed form as text: no scalar, vector
# or subspace is made
for space in ("S", "Sperp", "level:2", "example1"):
    for fmt in ("json", "csv"):
        assert quiet("construct", "--dims", "3,4", "--space", space, "--format", fmt) == 0
assert quiet("construct", "--dims", "2,3,4", "--space", "Sperp") == 0
assert quiet("construct", "--dims", "3,4,2", "--space", "S", "--format", "csv") == 2
assert quiet("construct", "--dims", "300,300", "--space", "S") == 2
rest = ("fractions", "decimal", "entspace.fields", "entspace.linalg",
        "entspace.construct", "numpy")
assert not loaded(rest), str(loaded(rest)) + " loaded by a graded construct"
package = sorted(name for name in sys.modules if name.startswith("entspace"))
assert package == ["entspace", "entspace.cli", "entspace.commands",
                   "entspace.commands.construct", "entspace.commands.dims",
                   "entspace.grading", "entspace.serialize"], package
objects = ("entspace.codec", "entspace.ffobjects")
assert not loaded(objects), str(loaded(objects)) + " loaded by a graded construct"

# so is example2: example2-M from its eight groups, and example2-R's
# Vandermonde vectors from their points by the text writer upb shares
for space in ("example2-M", "example2-R"):
    for fmt in ("json", "csv"):
        assert quiet("construct", "--dims", "4,4", "--space", space, "--format", fmt) == 0
exact = rest + objects + ("entspace.examples", "entspace.elimination")
assert not loaded(exact), str(loaded(exact)) + " loaded by construct of example2"
after = sorted(name for name in sys.modules if name.startswith("entspace"))
assert after == sorted(package + ["entspace.producttext"]), after

# the guard can fail: the library builds S over Q
import entspace
entspace.entangled_subspace(entspace.Dims((3, 3)))
assert loaded(rest) == list(rest[:-1]), loaded(rest)
"""


def test_graded_construct_loads_only_cli_grading_and_serialize():
    proc = subprocess.run([sys.executable, "-c", GRADED_CONSTRUCT_PROBE], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


ORACLE_PROBE = """
import contextlib, io, sys
import entspace.cli

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return entspace.cli.main(list(argv))

def package():
    return sorted(name for name in sys.modules if name.startswith("entspace"))

def loaded(names):
    return [name for name in names if name in sys.modules]

# the prime comes from the int-reduction module: entspace.fields would load
# the exact layers the probe looks for
from entspace.ff import _BATCH_FIBRES
from entspace.reduction import is_prime

exact = ("entspace.fields", "entspace.linalg", "entspace.construct", "fractions",
         "decimal")
oracle = ["entspace", "entspace.cli", "entspace.commands", "entspace.commands.classify",
          "entspace.commands.verify", "entspace.ff", "entspace.grading",
          "entspace.reduction", "entspace.serialize"]
spaces = ("S", "Sperp", "level:2", "example1")

# the oracle's documents are written from its int hits: no scalar, vector,
# subspace or report object is made
at_cut = max(q for q in range(2, _BATCH_FIBRES) if is_prime(q))
for space in spaces:
    assert quiet("verify", "--dims", "3,3", "--space", space, "--method", "ff") == 0
    assert quiet("verify", "--dims", "2,2", "--space", space, "--primes", str(at_cut)) == 0
# so are example2's: its rank and annihilator come in closed form too
for space in ("example2-M", "example2-R"):
    assert quiet("verify", "--dims", "4,4", "--space", space, "--method", "ff") == 0
assert quiet("verify", "--dims", "2,3", "--space", "S", "--primes", "5,7,11") == 0
assert quiet("classify", "--dims", "2,3", "--prime", "7") == 0
assert quiet("classify", "--dims", "2,2", "--prime", str(at_cut)) == 0
assert package() == oracle, package()
rest = exact + ("numpy",)
assert not loaded(rest), str(loaded(rest)) + " loaded below the cut"
# no object encoder and no library wrapper of the oracle
objects = ("entspace.codec", "entspace.ffobjects")
assert not loaded(objects), str(loaded(objects)) + " loaded by a graded oracle command"

# past the cut the batched kernel and numpy load, and nothing else
past_cut = next(q for q in range(_BATCH_FIBRES, 2 * _BATCH_FIBRES) if is_prime(q))
for space in spaces:
    assert quiet("verify", "--dims", "2,2", "--space", space, "--primes", str(past_cut)) == 0
assert quiet("classify", "--dims", "2,2", "--prime", str(past_cut)) == 0
assert package() == sorted(oracle + ["entspace.ffkernel"]), package()
assert "numpy" in sys.modules
assert not loaded(exact), str(loaded(exact)) + " loaded past the cut"

# the guard can fail: the library builds S over Q
import entspace
entspace.entangled_subspace(entspace.Dims((3, 3)))
assert loaded(exact) == list(exact), loaded(exact)
"""


def test_graded_oracle_loads_no_exact_layer():
    proc = subprocess.run([sys.executable, "-c", ORACLE_PROBE], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


GRADED_ALS_PROBE = """
import contextlib, io, sys
import entspace.cli

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return entspace.cli.main(list(argv))

def loaded(names):
    return [name for name in names if name in sys.modules]

# a graded space without sums holds no product vector: its search reports
# no witness and makes no exact object (nor does Sperp's: see ALS_PROBE)
for space in ("S", "level:2", "example1"):
    assert quiet("verify", "--dims", "3,4", "--space", space, "--method", "als",
                 "--restarts", "4") == 0
exact = ("entspace.construct", "entspace.fields", "entspace.linalg", "entspace.reduction",
         "entspace.codec", "entspace.ff", "entspace.ffobjects", "fractions")
assert not loaded(exact), str(loaded(exact)) + " loaded by a graded ALS search"
package = sorted(name for name in sys.modules if name.startswith("entspace"))
assert package == ["entspace", "entspace.cli", "entspace.commands",
                   "entspace.commands.verify", "entspace.grading", "entspace.normals",
                   "entspace.serialize", "entspace.verify"], package
# the starts are drawn by entspace.normals, not numpy.random
assert "numpy" in sys.modules
assert quiet("verify", "--dims", "3,4", "--space", "Sperp", "--method", "als",
             "--restarts", "4") == 0
assert not loaded(("numpy.random",)), "numpy.random loaded by a graded ALS search"

# nor does example2's: it is searched in dense form, on the float rows of
# its closed form
for space in ("example2-M", "example2-R"):
    assert quiet("verify", "--dims", "4,4", "--space", space, "--method", "als",
                 "--restarts", "2") == 0
assert not loaded(exact), str(loaded(exact)) + " loaded by an example2 ALS search"
after = sorted(name for name in sys.modules if name.startswith("entspace"))
assert after == package, after
assert not loaded(("numpy.random",)), "numpy.random loaded by an example2 ALS search"

# the guard can fail: the library builds S over Q and encodes it
import entspace
from entspace.codec import subspace_document
subspace_document(entspace.entangled_subspace(entspace.Dims((3, 3))))
assert loaded(exact[:5]) == list(exact[:5]), loaded(exact[:5])
# and numpy's own draw loads numpy.random
import numpy
numpy.random.default_rng(0)
assert loaded(("numpy.random",)) == ["numpy.random"]
"""


def test_graded_als_without_sums_loads_no_exact_layer():
    proc = subprocess.run([sys.executable, "-c", GRADED_ALS_PROBE], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# one command in a fresh interpreter; prints the package modules, after
# checking that numpy loaded after every one of them.  sys.modules lists
# modules as they finish loading, so entspace.verify, which imports numpy
# (after it is compiled), comes after it.
LOAD_ORDER_PROBE = """
import contextlib, io, sys
import entspace.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = entspace.cli.main(sys.argv[1:])
order = list(sys.modules)
package = [name for name in order if name.startswith("entspace")]
late = [name for name in package
        if order.index(name) > order.index("numpy") and name != "entspace.verify"]
assert not late, str(late) + " loaded after numpy"
print(code, *package)
"""


@pytest.mark.parametrize("space", ["S", "Sperp", "example2-M", "example2-R"])
def test_als_loads_every_package_module_before_numpy(space):
    # a module compiled after numpy raises the run's peak RSS; no search
    # loads an exact layer, example2's included
    dims = "4,4" if space.startswith("example2") else "3,4"
    argv = ["verify", "--dims", dims, "--space", space, "--method", "als",
            "--restarts", "4"]
    proc = subprocess.run([sys.executable, "-c", LOAD_ORDER_PROBE, *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, *package = proc.stdout.split()
    assert code == "0"
    # entspace.normals, which draws the starts, loads before numpy too
    assert "entspace.verify" in package and "entspace.normals" in package, package
    for name in ("entspace.codec", "entspace.construct", "entspace.elimination",
                 "entspace.examples"):
        assert name not in package, package


RUN_PROBE = """
import gc, os, sys
import entspace.cli

def exit_reporting(code):
    print(gc.isenabled(), *map(os.environ.get, entspace.cli.BLAS_THREADS),
          "numpy" in sys.modules, file=sys.stderr)
    sys.stderr.flush()
    real_exit(code)

real_exit = os._exit
os._exit = exit_reporting
sys.argv = ["entspace", *sys.argv[1:]]
entspace.cli.run()
"""


def test_run_turns_the_collector_off_and_blas_to_one_thread():
    # a pool size the caller set wins; the others are set before numpy loads
    env = _cli_env(OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None, MKL_NUM_THREADS="3")
    argv = ["verify", "--dims", "2,2", "--space", "S", "--method", "als", "--restarts", "2"]
    proc = subprocess.run([sys.executable, "-c", RUN_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", "1", "1", "3", "True"], proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "no-product-vector-found"


def test_main_leaves_the_collector_and_blas_threads_alone(capsys, monkeypatch):
    import gc

    for name in entspace_cli.BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    assert gc.isenabled()
    code, _, _ = run(capsys, "verify", "--dims", "2,2", "--space", "S", "--method", "als",
                     "--restarts", "2")
    assert code == 0 and gc.isenabled()
    assert not [name for name in entspace_cli.BLAS_THREADS if name in os.environ]


def _tracer_layers():
    """perfbench's tracer's ``LAYERS``: layer -> (module, the names it
    patches there).  spans.py is read, not imported."""
    import ast

    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
                     .read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))


def test_tracer_layer_names_still_resolve():
    # perfbench's tracer patches these (module, name) pairs; a moved encoder
    # or wrapper would break it
    import importlib

    checked = 0
    for module_name, names in _tracer_layers().values():
        module = importlib.import_module(module_name)
        for name in names:
            if "." in name:  # the tracer patches the class attribute itself
                owner, attr = name.split(".")
                fn = vars(getattr(module, owner))[attr]
            else:
                fn = getattr(module, name)
            assert callable(fn), (module_name, name)
            checked += 1
    assert checked > 30


def test_every_name_has_one_home():
    import importlib

    import entspace

    for name in entspace.__all__:
        home = importlib.import_module(f"entspace.{entspace._HOMES[name]}")
        assert getattr(entspace, name) is vars(home)[name], name
        assert name in dir(entspace), name
    assert "__getattr__" not in vars(entspace.ff) and "__getattr__" not in vars(entspace.grading)


def test_moved_names_resolve_in_their_old_modules():
    # the only moved names an old module still resolves are the ones the
    # tracer looks up in a module that does not define them (and
    # perfbench's test's ``construct.span``)
    import importlib
    import inspect
    import pkgutil

    import entspace

    wanted = {"entspace.construct": {"span"}}
    for module_name, names in _tracer_layers().values():
        module = importlib.import_module(module_name)
        wanted.setdefault(module_name, set()).update(
            name for name in names if "." not in name and name not in vars(module))
    wanted = {module_name: names for module_name, names in wanted.items() if names}
    tables = {}
    for info in pkgutil.walk_packages(entspace.__path__, "entspace."):
        module = importlib.import_module(info.name)
        if "__getattr__" in vars(module):
            tables[info.name] = inspect.getclosurevars(module.__getattr__).nonlocals["homes"]
    assert {name: set(homes) for name, homes in tables.items()} == wanted
    for module_name, homes in tables.items():
        module = importlib.import_module(module_name)
        for name, home in homes.items():
            assert getattr(module, name) is \
                vars(importlib.import_module(f"entspace.{home}"))[name], (module_name, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    # ``from .serialize import ...`` probes for ``__path__``, which loads nothing
    assert not hasattr(entspace.serialize, "__path__")
    # one kernel read-off, for the oracle and orthocomplement alike
    assert entspace.ff._kernel_basis is entspace.reduction._kernel_basis


def _graded_cases():
    """(dims, space) of every graded space on every shape of total <= 64,
    and on 12,14 and 16,16."""
    from entspace.counting import iter_dims

    for dims in [*iter_dims(64), Dims((12, 14)), Dims((16, 16))]:
        spaces = ["S", "Sperp"] + [f"level:{n}" for n in range(dims.max_level + 1)]
        yield from ((dims, space) for space in spaces + ["example1"] * (dims.k == 2))


def test_graded_construct_matches_the_exact_basis_byte_for_byte():
    # the text rows construct writes must be the Fraction basis's documents
    from entspace.codec import subspace_document
    from entspace.construct import _level_rows
    from entspace.serialize import csv_matrices, json_dumps

    cases = 0
    for dims, space in _graded_cases():
        basis = _level_rows(dims, commands._named_space(dims, space)[0])
        want = {"json": json_dumps(subspace_document(basis, {"space": space}))}
        if dims.k == 2:
            want["csv"] = csv_matrices(list(basis.rows), dims)
        for fmt, text in want.items():
            args = argparse.Namespace(dims=",".join(map(str, dims.d)), space=space,
                                      format=fmt, out=None)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert construct_command.run(args) == 0
            assert out.getvalue() == text, (dims, space, fmt)
            cases += 1
    assert cases > 5000


def test_example2_construct_matches_the_library_encoders_byte_for_byte():
    # example2-M is written from its groups and example2-R from its points,
    # as text: the documents the object encoders write of the library's
    # exact subspace and product vectors
    from entspace.codec import product_vectors_document, subspace_document
    from entspace.serialize import csv_matrices, json_dumps

    ex = split_antidiagonal_spaces()
    dims = Dims((4, 4))
    want = {
        "example2-M": (subspace_document(ex.m_space, {"space": "example2-M"}),
                       list(ex.m_space.rows)),
        "example2-R": (product_vectors_document(dims, RATIONAL, ex.spanning_set,
                                                {"space": "example2-R"}),
                       [pv.expand() for pv in ex.spanning_set]),
    }
    for space, (doc, vectors) in want.items():
        for fmt, text in (("json", json_dumps(doc)), ("csv", csv_matrices(vectors, dims))):
            got = _command_output(construct_command.run, dims="4,4", space=space,
                                  format=fmt)
            assert got == (0, text), (space, fmt)


def _command_output(command, **args) -> tuple[int, str]:
    """The exit code and stdout of one in-process run of a command handler."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = command(argparse.Namespace(out=None, **args))
    return code, out.getvalue()


def assert_verify_writers_agree(dims, space, primes):
    """``verify --method ff`` writes, from the oracle's int hits, the document
    the library encoders write of ``ff_verify``'s reports."""
    from entspace.codec import encode_report
    from entspace.grading import NO_WITNESS, WITNESS
    from entspace.serialize import json_dumps

    target, expected = _library_space(dims, space)
    reports = ffobjects.ff_verify(target, dims, primes)
    verdict = WITNESS if any(r.verdict == WITNESS for r in reports) else NO_WITNESS
    want = json_dumps({
        "dims": list(dims.d), "space": space, "method": "ff", "verdict": verdict,
        "expected": expected, "reports": [encode_report(r) for r in reports],
    })
    got = _command_output(verify_command.run, dims=",".join(map(str, dims.d)),
                          space=space, method="ff", primes=primes)
    assert got == (0 if verdict == expected else 3, want), (dims, space, primes)


def assert_classify_writers_agree(dims, p):
    """``classify`` writes, from the oracle's int hits, the document the
    library encoder writes of ``classify_product_vectors_fp``'s report."""
    from entspace.codec import encode_classify_report
    from entspace.serialize import json_dumps

    report = ffobjects.classify_product_vectors_fp(dims, p)
    got = _command_output(classify_command.run, dims=",".join(map(str, dims.d)),
                          prime=p)
    assert got == (0 if report.passed else 3,
                   json_dumps(encode_classify_report(report))), (dims, p)
    return json.loads(got[1])


def _admissible_primes(dims, count=2):
    """The smallest primes above the top level of ``dims``."""
    from entspace.reduction import is_prime

    q = dims.max_level + 1
    while count:
        if is_prime(q):
            yield q
            count -= 1
        q += 1


def _oracle_cases():
    """(dims, p) of every shape of total <= 64 at its smallest admissible
    prime and the next, where the fibre count times the total is at most
    1,000 (the plain-int walk then takes milliseconds), and of 3,4, 2,3,4
    and 2,2,2,2 at the same primes."""
    from entspace.counting import iter_dims
    from entspace.grading import BudgetExceededError

    for dims in iter_dims(64):
        for p in _admissible_primes(dims):
            try:
                fibres = ff_module._check_oracle(dims, p, ff_module.ENUMERATION_BUDGET)
            except BudgetExceededError:
                continue
            if fibres * dims.total <= 1000:
                yield dims, p
    for dims in (Dims((3, 4)), Dims((2, 3, 4)), Dims((2, 2, 2, 2))):
        yield from ((dims, p) for p in _admissible_primes(dims))


def test_oracle_documents_match_the_library_encoders_byte_for_byte():
    shapes = set()
    for dims, p in _oracle_cases():
        spaces = ["S", "Sperp"] + [f"level:{n}" for n in range(dims.max_level + 1)]
        for space in spaces + ["example1"] * (dims.k == 2):
            assert_verify_writers_agree(dims, space, (p,))
        assert assert_classify_writers_agree(dims, p)["passed"]
        shapes.add(dims)
    assert len(shapes) > 40
    # past the batched kernel's cut, and on the exact example2 spaces
    past_cut = 6007
    assert ff_module._check_oracle(Dims((2, 2)), past_cut, 10**6) > ff_module._BATCH_FIBRES
    for space in ("S", "Sperp"):
        assert_verify_writers_agree(Dims((2, 2)), space, (past_cut,))
    assert_classify_writers_agree(Dims((2, 2)), past_cut)
    for space in ("example2-M", "example2-R"):
        assert_verify_writers_agree(Dims((4, 4)), space, (7,))
    # several primes in one document, the default ones among them
    for space in ("S", "Sperp"):
        assert_verify_writers_agree(Dims((2, 3)), space, (5, 7, 11))
        assert_verify_writers_agree(Dims((2, 3)), space, None)


@pytest.mark.parametrize("dims, space, restarts, tol, seed", [
    ("2,2", "Sperp", 4, 1e-10, 0),
    ("2,2,2", "Sperp", 8, 1e-10, 5),
    ("3,4", "Sperp", 4, 1e-10, 1),
    ("2,3,4", "Sperp", 4, 1e-10, 0),
    pytest.param(",".join(["2"] * 21), "Sperp", 1, 1e-10, 0,
                 id="21-twos-Sperp"),  # past the dense budget
    ("3,4", "S", 4, 1e-10, 0),
    ("3,4", "S", 4, 0.9, 0),  # a witness on S under a loose tolerance
    ("2,3", "level:1", 4, 1e-10, 3),
    ("4,4", "example2-R", 4, 1e-10, 0),
    ("4,4", "example2-M", 2, 1e-10, 0),
])
def test_als_documents_match_the_library_encoder_byte_for_byte(dims, space, restarts, tol,
                                                               seed):
    # verify --method als writes its report, a witness included, from the
    # search's floats: the document encode_report writes of the library's
    from entspace.codec import encode_report
    from entspace.serialize import json_dumps

    shape = parse_dims(dims)
    basis, expected = _library_space(shape, space)
    if not isinstance(basis, LevelSums):
        basis = verify_module.orthonormal_basis(basis)
    result = verify_module.max_product_overlap(basis, shape, restarts=restarts, tol=tol,
                                               seed=seed)
    verdict = result.report.verdict
    want = json_dumps({"dims": list(shape.d), "space": space, "method": "als",
                       "verdict": verdict, "expected": expected,
                       "reports": [encode_report(result.report)]})
    got = _command_output(verify_command.run, dims=dims, space=space, method="als",
                          primes=None, restarts=restarts, tol=tol,
                          max_sweeps=DEFAULT_MAX_SWEEPS, seed=seed)
    assert got == (0 if verdict == expected else 3, want)
    if space == "Sperp" or tol == 0.9:
        assert verdict == "witness-found"


def test_classify_document_names_missing_and_extraneous_points(monkeypatch):
    dims, p = Dims((2, 3)), 5
    real = ff_module._product_points

    def tampered(generators, dims, p, budget):
        found = real(generators, dims, p, budget)
        return found[1:] + [((1, 2), (1, 1, 1))]  # drop one, add one

    monkeypatch.setattr(ff_module, "_product_points", tampered)
    doc = assert_classify_writers_agree(dims, p)
    assert doc["passed"] is False and doc["found_count"] == p + 1
    assert doc["missing"] == [{"factors": [["1", "0"], ["1", "0", "0"]],
                               "coeffs": ["1", "0", "0", "0", "0", "0"]}]
    assert doc["extraneous"] == [{"factors": [["1", "2"], ["1", "1", "1"]],
                                  "coeffs": ["1", "1", "1", "2", "2", "2"]}]


def test_fp_point_entry_is_written_from_residues(monkeypatch):
    from entspace.construct import ProductVector
    from entspace.fields import prime_field
    from entspace.grading import DENSE_BUDGET
    from entspace.codec import _product_entry, encode_witness

    def pv_residues(pv):
        return [[c.value for c in f] for f in pv.factors]

    # below the dense budget: the factors and the expansion mod p, as the
    # expanded vector's residues
    dims, p = Dims((2, 3, 2)), 7
    pv = ProductVector.from_values(dims, prime_field(p), ((3, 5), (1, 6, 2), (4, 4)))
    want = {"factors": [["3", "5"], ["1", "6", "2"], ["4", "4"]],
            "coeffs": [str(c.value) for c in pv.expand().coeffs]}
    assert _product_entry(pv) == ff_module._point_entry(dims, p, pv_residues(pv)) == want
    # past it the factors alone: nothing is expanded
    dims = Dims((2,) * 21)
    assert dims.total > DENSE_BUDGET
    pv = ProductVector.from_values(dims, prime_field(p), [(1, k % p) for k in range(21)])

    def no_expansion(self):
        raise AssertionError("a point past the dense budget was expanded")

    monkeypatch.setattr(ProductVector, "expand", no_expansion)
    factors = [["1", str(k % p)] for k in range(21)]
    assert _product_entry(pv) == ff_module._point_entry(dims, p, pv_residues(pv)) \
        == {"factors": factors}
    assert encode_witness(pv) == {"field": f"fp({p})", "factors": factors}


@pytest.mark.parametrize("lambdas, shown", [
    ("1,1,2", "1"), ("1/2,2/4,3", "1/2"), ("inf,oo,1", "inf")])
def test_duplicate_points_are_named_as_the_document_writes_them(capsys, lambdas, shown):
    code, out, err = run(capsys, "upb", "--dims", "2,2", "--min", f"--lambdas={lambdas}")
    assert (code, out, err) == (2, "", f"error: duplicate parameter point {shown}\n")


def test_module_entry_point_flushes_output_and_keeps_exit_codes(capsys, tmp_path):
    # ``python -m entspace.cli`` exits through ``run``, which flushes the
    # streams itself and skips the interpreter's teardown: stdout, ``--out``
    # files and exit codes must survive it
    src = str(Path(entspace_cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "entspace.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    argv = ("verify", "--dims", "2,2", "--space", "Sperp", "--method", "als",
            "--restarts", "2")
    want = run(capsys, *argv)
    proc = cli(*argv)
    assert (proc.returncode, proc.stdout) == want[:2]
    out = tmp_path / "s.csv"
    assert cli("construct", "--dims", "6,6", "--space", "S", "--format", "csv",
               "--out", str(out)).returncode == 0
    assert out.read_text() == run(capsys, "construct", "--dims", "6,6", "--space", "S",
                                  "--format", "csv")[1]
    proc = cli("verify", "--dims", "3,3", "--space", "S", "--primes", "3")
    assert proc.returncode == 2 and proc.stderr.startswith("error:")


def _cli_env(**changes):
    """The environment of a ``python -m entspace.cli`` subprocess that
    imports this source tree; a ``None`` value removes a variable."""
    src = str(Path(entspace_cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for key, value in changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", ["construct --dims 2,2 --space S", "--help"])
def test_failed_final_flush_exits_2(argv):
    # with buffered stdout the output is written only by the final flush,
    # also when argparse ends the run
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "entspace.cli", *argv.split()],
            env=_cli_env(PYTHONUNBUFFERED=None), stdout=full, stderr=subprocess.PIPE,
            text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("space, factors", [("S", 30), ("Sperp", 24)])
def test_many_factor_witness_is_written_from_its_factors(space, factors):
    # a witness on 2**24 or 2**30 entries once was expanded into the document
    # (a MemoryError at 30 factors); past the dense budget only its factors,
    # which determine it exactly, are written
    argv = ["verify", "--dims", ",".join(["2"] * factors), "--space", space,
            "--method", "als", "--restarts", "4"]
    proc = subprocess.run([sys.executable, "-m", "entspace.cli", *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_one_gigabyte_address_space)
    assert proc.returncode in (0, 3) and "Traceback" not in proc.stderr, proc.stderr
    doc = json.loads(proc.stdout)
    witness = doc["reports"][0]["witness"]
    if space == "Sperp":
        assert proc.returncode == 0 and witness is not None
    if witness is not None:
        assert list(witness) == ["field", "factors"]
        assert [len(f) for f in witness["factors"]] == [2] * factors


def test_thousand_factor_shapes_exit_cleanly():
    # 1,100 factors of 2 once overflowed the recursion limit in
    # enumerate_level and the float range in the ALS level weights; the
    # graded ALS search of a level of 3,000 factors of 2 once ran for minutes
    dims = ",".join(["2"] * 1100)
    for argv in (["construct", "--dims", dims, "--space", "S"],
                 ["onb", "--dims", dims, "--level", "1"],
                 ["verify", "--dims", dims, "--space", "S", "--method", "als",
                  "--restarts", "1"],
                 ["verify", "--dims", ",".join(["2"] * 3000), "--space", "level:1",
                  "--method", "als", "--restarts", "1"]):
        proc = subprocess.run([sys.executable, "-m", "entspace.cli", *argv],
                              env=_cli_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 2), proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv", [
    ("dims", "--dims", "2,2"),
    ("construct", "--dims", "2,2", "--space", "S"),
    ("verify", "--dims", "2,2", "--space", "Sperp", "--method", "als"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_negative_seed_rejected(capsys, argv, seed):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: must be at least 0, got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "--dims", "3,3", "--space", "S", "--primes="),
    ("verify", "--dims", "3,3", "--space", "S", "--primes", "7,7"),
    ("upb", "--dims", "3,3", "--min", "--primes", "5,7,5"),
    ("upb", "--dims", "3,3", "--min", "--lambdas="),
], ids=" ".join)
def test_empty_or_repeated_lists_rejected(capsys, argv):
    # an empty list is not the default, and a repeated prime is not a second run
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error" in captured.err


def test_verify_bad_prime(capsys):
    code, _, err = run(capsys, "verify", "--dims", "3,3", "--space", "S",
                       "--primes", "3")
    assert code == 2 and "error" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--dims", "2,3", "--prime", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["expected_count"] == 6
    assert len(doc["found"]) == 6
    code, _, _ = run(capsys, "classify", "--dims", "2,3", "--prime", "4")
    assert code == 2


def test_onb(capsys):
    code, out, _ = run(capsys, "onb", "--dims", "2,2", "--level", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["approx"] is True
    assert doc["field"] == "complex128-approx"
    assert len(doc["vectors"]) == 2
    for entry in doc["vectors"]:
        norm = sum(c["re"] ** 2 + c["im"] ** 2 for c in entry["coeffs"])
        assert abs(norm - 1.0) < 1e-12


def test_onb_matches_the_library_encoder_byte_for_byte(capsys):
    # onb writes the character basis from its closed form as text: the
    # document vectors_document writes of the library's complex vectors
    from entspace.codec import vectors_document
    from entspace.examples import character_basis
    from entspace.fields import COMPLEX
    from entspace.serialize import json_dumps

    for text in ("2,2", "2,3", "3,3", "2,3,4", "2,2,2,2"):
        dims = parse_dims(text)
        for n in range(dims.max_level + 1):
            want = json_dumps(vectors_document(dims, COMPLEX, character_basis(dims, n),
                                               {"level": n}))
            assert run(capsys, "onb", "--dims", text, "--level", str(n)) == (0, want, ""), \
                (text, n)


def test_byte_determinism(tmp_path, capsys):
    pairs = [
        ("als.json", ["verify", "--dims", "2,2", "--space", "Sperp",
                      "--method", "als", "--restarts", "4", "--seed", "9"]),
        ("upb.json", ["upb", "--dims", "3,3", "--size", "7"]),
        ("onb.json", ["onb", "--dims", "2,3", "--level", "2"]),
    ]
    for fname, argv in pairs:
        f1 = tmp_path / ("a_" + fname)
        f2 = tmp_path / ("b_" + fname)
        assert main(argv + ["--out", str(f1)]) in (0, 3)
        assert main(argv + ["--out", str(f2)]) in (0, 3)
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_bytes().endswith(b"\n")


# stdout sha256 and exit code of the exact-output commands.  The oracle
# entries were pinned from the oracle that reduced on Fp objects, and the
# last two from the spans that eliminated on Fraction and Fp objects; the
# reduction on ints must not change a byte.  Both fibre paths are covered:
# the runs at primes 6007 and 79 take the batched one.  ALS and onb are left
# out: their floats depend on LAPACK and libm.
GOLDEN = {
    "dims --dims 3,3":
        ("42c08e68bddf32af21da9dd203c848bba154b3b7c457f3a4ac607887b421310d", 0),
    "construct --dims 3,4 --space S":
        ("ba585d693e933a4e36b9c8b99323b32093ef43cdb7d619a96030c517c9822aac", 0),
    "construct --dims 3,4 --space Sperp":
        ("3b6400d072d7859e2d6a275433eaff4c25e36f9d68eb251c76a2abdb01edd745", 0),
    "construct --dims 2,3,4 --space level:2":
        ("8e0bf2cab5b9c3d2a67f04147ed8881a89737b40120e10868f1b836d7db31f42", 0),
    "construct --dims 3,4 --space example1":
        ("79c30382f441060859a017caad02c557520f39de3681a1412f3681af4c6660d6", 0),
    "construct --dims 4,4 --space example2-M":
        ("975a557761c1fcbc4915a1fb39aa2f71b66ddf43facc1155c0e3324c5a8fd361", 0),
    "construct --dims 4,4 --space example2-R":
        ("e8075cc4897d4c17df5bf133c211fc20437d955c4bdd736005d151f7bc0510fc", 0),
    "construct --dims 4,4 --space example2-M --format csv":
        ("687b357e0d4af4a49057080cc8d2d6075b0b110840f080cbfc51578ecb106141", 0),
    "construct --dims 4,5 --space S --format csv":
        ("2be0dc7e8a4dd98ab6b6a5882317933f62187c1261702989ca637b4766c20d35", 0),
    # on two factors example1 is S, so the same CSV as S at 3,4
    "construct --dims 3,4 --space example1 --format csv":
        ("27def5070a85646b4114bf0357b043461e28d8b9ebd4cdca1384bfb2c5f83389", 0),
    "verify --method ff --dims 3,3 --space S":
        ("0986f32889c02c910f0c797cac39f68c7c902c9e7651e8a8c569ebb76c36390b", 0),
    "verify --method ff --dims 3,3 --space Sperp":
        ("229b41d10d9a1ed89e7f34432dddc1a54fc868627d26d414f3d400851f4270db", 0),
    "verify --method ff --dims 2,3,4 --space level:3":
        ("9e51bbade89bb75de46363bad3546736535d63cb1471ac6196ed11f8cf658529", 0),
    "verify --method ff --dims 3,4 --space example1 --primes 7,11":
        ("1d124546ed943806f8932d24de5c60a9f3ea9bf2174b1ecc3e7780e13fa54532", 0),
    "verify --method ff --dims 4,4 --space example2-M":
        ("522e15cf0ddb97562b3826ebf670784c122ad38cff77a7a3ebc8bae72fdf5bfa", 0),
    "verify --method ff --dims 4,4 --space example2-R":
        ("e64c389f2146da5f7aa8986c81760001d3333b2f6f11d6ad1e6fecbf222b15ec", 0),
    "verify --dims 2,2 --space S --primes 6007":
        ("cb9785b0d3219afd555975d2230886e6fc109ad67a8d8bc0803f5da6a7e9a34a", 0),
    "verify --dims 2,2,2 --space Sperp --primes 79":
        ("000951986710e82d256155c0fcf2565aaa19d1d6d5ae5fa1c13a015a48159584", 0),
    "upb --dims 3,3 --min":
        ("9e80f3b1260f97e82f7ff761c2990c9b6f27939c1cfe54eb91ec355a4ca73231", 0),
    "upb --dims 2,2,2 --min --primes 5":
        ("a8cc1b3b3ff79f702ffa1a3c3112e424f5f7c4544acdb2882d1904023d2d67d1", 0),
    "upb --dims 2,3,4 --min --lambdas 0,1/2,2,3,4,5,inf --primes 11":
        ("9439a7c93770378c302c707f8e539a21af48401b4c99f220dea8830a0c431bad", 0),
    "upb --dims 3,4 --size 9 --primes 7,11":
        ("25fbcc0eae35dfac2c0d90aa9ffbd0ba2f21653c1b11f396e4ac2ac6c36aad11", 0),
    "classify --dims 3,3 --prime 7":
        ("c419bf20997733887ca27668e64725b0f7c51bb6e7054208e2fa3d4429a25183", 0),
    # negative and fractional points: the audit's spans over Q meet negative
    # leading entries and denominators
    "upb --dims 3,3 --min --lambdas=-1/3,0,2/5,inf,7 --primes 11":
        ("9ac2705b7621ffe86bd22980a3aefacc273d6bd67d0dfb7f3f6042f07df45b96", 0),
    "verify --dims 4,4 --space example2-R --method ff --primes 7,11":
        ("e64c389f2146da5f7aa8986c81760001d3333b2f6f11d6ad1e6fecbf222b15ec", 0),
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_oracle_output_matches_golden_digest(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == GOLDEN[argv]


def test_exit_codes_partition(capsys):
    # misuse -> 2, clean disagreement -> 3, success -> 0
    assert run(capsys, "dims", "--dims", "2,2")[0] == 0
    assert run(capsys, "dims", "--dims", "0,2")[0] == 2
    assert run(capsys, "verify", "--dims", "2,2", "--space", "S")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--seed", "-1"], ["--restarts", "0"], ["--restarts", "4", "0"], ["--dims", "1,3"],
], ids=" ".join)
def test_als_margins_script_rejects_bad_flags(capsys, argv):
    path = Path(__file__).resolve().parent.parent / "scripts" / "als_margins.py"
    spec = importlib.util.spec_from_file_location("als_margins", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err


def _parse_outcome(parser, argv):
    """(exit code or None, stdout, stderr, parsed arguments) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parser.parse_args(argv))
            code = None
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), args


@pytest.mark.parametrize("command, flags", [
    ("dims", []), ("construct", ["--space", "S"]), ("upb", ["--min"]),
    ("verify", ["--space", "S"]), ("classify", ["--prime", "5"]), ("onb", ["--level", "1"]),
])
def test_one_subcommand_parser_parses_as_the_full_one(command, flags):
    # argparse names a command's siblings only in the top-level usage, so the
    # parser main builds for a named command must print the same bytes
    valid = [command, "--dims", "2,2", *flags]
    cases = [[command, "--help"], [command, "--bogus"], [command, "--seed", "x"],
             [command], valid, valid + ["stray"]]
    for argv in cases:
        want = _parse_outcome(entspace_cli.build_parser(), argv)
        assert _parse_outcome(entspace_cli.build_parser(command), argv) == want, argv
    # the stray argument is refused by the top-level parser
    assert want[0] == 2 and want[2].startswith("usage: entspace [-h] {dims,construct,")


def test_main_builds_the_full_parser_only_without_a_command(capsys, monkeypatch):
    # a well-formed argv is read from the option tables and builds no parser;
    # any other builds its command's parser, or the full one without a command
    built = []
    real = entspace_cli.build_parser

    def recording(only=None):
        built.append(only)
        return real(only)

    monkeypatch.setattr(entspace_cli, "build_parser", recording)
    assert main(["dims", "--dims", "2,2"]) == 0
    assert main(["dims", "--dims", "2,2", "--dims", "2,3"]) == 0  # a repeat: the last wins
    for argv in (["dims", "--help"], ["--help"], ["bogus"], []):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert built == ["dims", "dims", None, None, None]


def _reads_as_the_parser(argv):
    """Whether the option reader takes ``argv``; where it does, its namespace
    must be the one the full parser makes."""
    args = entspace_cli.read_argv(argv)
    if args is not None:
        assert vars(args) == vars(entspace_cli.build_parser().parse_args(argv)), argv
    return args is not None


def test_reader_takes_every_listed_argv_as_the_parser_does():
    path = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argvs = script.default_argvs([1, 4242])
    taken = {text for text in argvs if _reads_as_the_parser(text.split())}
    # every GOLDEN and workload argv is well formed, and so skips argparse
    assert set(GOLDEN) | set(script.workload_argvs([1, 4242])) <= taken
    # the edge: = forms are read, and help, abbreviations, repeats, values
    # led by -, -- and a missing one-of are left to the parser
    assert "construct --dims=3,3 --space=S" in taken
    assert "upb --dims 2,2 --min --lambdas=-1,0,1" in taken
    for text in ("construct --dims 3,3 --space S -h", "construct --dim 3,3 --space S",
                 "construct --dims 3,3 --space S --space Sperp",
                 "upb --dims 2,2 --min --lambdas -1,0,1", "construct --dims 3,3 -- --space S",
                 "upb --dims 2,2", "upb --dims 2,2 --min --size 3", "upb --dims 2,2 --min=1"):
        assert text in argvs and text not in taken, text


@pytest.mark.parametrize("argv", [["--repeats", "0"], ["--bogus"], ["--repeats", "x"]],
                         ids=" ".join)
def test_startup_report_script_rejects_bad_flags(capsys, argv):
    path = Path(__file__).resolve().parent.parent / "scripts" / "startup_report.py"
    spec = importlib.util.spec_from_file_location("startup_report", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err
    # one run of one argv: the command's own modules, after the interpreter's
    assert script.main(["--repeats", "1", "dims --dims 2,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("entspace dims --dims 2,2")
    # and its peak RSS, from os.wait4
    peak = lines[-1].split("  peak RSS ")[1]
    assert peak.endswith(" MB") and float(peak[:-3]) > 0, lines[-1]
    assert any(line.split()[-1] == "entspace.grading" for line in lines[1:-1])
    assert not any(line.split()[-1] in ("site", "fractions") for line in lines[1:-1])
    assert " total " in lines[-1]


@pytest.mark.parametrize("argv", [["src"], ["--bogus", "a", "b"], ["a", "b", "--seeds", "x"]],
                         ids=" ".join)
def test_same_outputs_script_rejects_bad_flags(capsys, tmp_path, argv):
    path = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err
    # a tree compared with itself gives the same outputs; one whose CLI
    # writes another document does not
    src = str(Path(entspace_cli.__file__).resolve().parent.parent)
    assert script.main([src, src, "--argv", "dims --dims 2,2"]) == 0
    assert capsys.readouterr().out == "1 argv compared, 0 differ\n"
    other = tmp_path / "entspace"
    other.mkdir()
    (other / "__init__.py").write_text("")
    (other / "cli.py").write_text("print('dims: 2,2')\n")
    assert script.main([src, str(tmp_path), "--argv", "dims --dims 2,2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFFERS (stdout): dims --dims 2,2\n"), out
    assert out.endswith("1 argv compared, 1 differ\n"), out
    # the default list: every GOLDEN argv and every workload argv
    argvs = script.default_argvs([1])
    assert set(GOLDEN) <= set(argvs)
    assert "construct --dims 16,16 --space Sperp --format csv" in argvs  # exact-build
    assert "construct --dims 3,4,2 --space example1" in argvs


# The CLI grammar, bad values included: every argv must exit 0, 2 or 3 with
# no traceback.  Shapes, primes and restarts stay small so each run is quick.
_BAD_OUT = str(Path(__file__).resolve().parent / "no-such-dir" / "out.json")
# flag -> (good values, bad values)
_VALUES = {
    "--dims": (["2,2", "2,3", "3,3", "2,2,2", "4,4", "2x3"],
               ["1,3", "0,2", "2", "a,b", "", "-2,3"]),
    "--out": ([os.devnull], [_BAD_OUT]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--space": (["S", "Sperp", "level:0", "level:2", "example1", "example2-M",
                 "example2-R"], ["level:9", "level:x", "T"]),
    "--format": (["json", "csv"], ["xml"]),
    "--size": (["3", "5", "7", "9"], ["-1", "0", "x"]),
    "--lambdas": (["0,1,2", "0,1,2,3,4", "inf,1/2,3", "-1,0,1"], ["1/0", "0,0,1", "a", ""]),
    "--primes": (["5", "7,11"], ["2", "4", "0", "-5", "x", ""]),
    "--method": (["ff", "als"], ["lsq"]),
    "--restarts": (["1", "3"], ["0", "-2", "x"]),
    "--tol": (["1e-10", "0.5"], ["0", "1", "nan", "inf", "x"]),
    "--max-sweeps": (["1", "20"], ["0", "-3", "x"]),
    "--prime": (["5", "7", "11"], ["1", "2", "4", "0", "-7", "x"]),
    "--level": (["0", "1", "2"], ["-1", "9", "x"]),
}
_GRAMMAR = {  # command -> (required flags, optional flags); a tuple is a choice
    "dims": ([], []),
    "construct": (["--space"], ["--format"]),
    "upb": ([("--min", "--size")], ["--lambdas", "--primes"]),
    "verify": (["--space"], ["--method", "--primes", "--restarts", "--tol",
                             "--max-sweeps"]),
    "classify": (["--prime"], []),
    "onb": (["--level"], []),
    "bogus": ([], []),
}


@st.composite
def cli_argv(draw):
    """An argv of the CLI grammar: a required flag is left out one time in
    eight, an optional one half the time, a value is bad one time in six,
    and a flag foreign to the command comes in one time in eight.  A value
    is written ``--flag=value`` one time in four, and one argv in three
    takes a form the option reader leaves to argparse: an abbreviated or a
    repeated flag, a bare ``--``, or ``-h`` after the other flags (a value
    led by ``-`` comes from the values)."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional = _GRAMMAR[command]
    flags = [(f, 7) for f in ["--dims"] + required]  # (flag, times in eight)
    flags += [(f, 4) for f in ["--out", "--seed"] + optional]
    flags.append((draw(st.sampled_from(sorted(_VALUES))), 1))
    words = []  # each flag with its value, as one or two words
    for flag, keep in flags:
        if isinstance(flag, tuple):
            flag = draw(st.sampled_from(flag))
        if draw(st.integers(0, 7)) >= keep:
            continue
        if flag == "--min":
            words.append([flag])
            continue
        good, bad = _VALUES[flag]
        value = draw(st.sampled_from(good if draw(st.integers(0, 5)) else bad))
        words.append([f"{flag}={value}"] if draw(st.integers(0, 3)) == 0 else [flag, value])
    edge = draw(st.sampled_from(["abbreviate", "repeat", "--", "-h"] + [""] * 8))
    if words and edge == "abbreviate":  # --dims -> --dim, --max-sweeps -> --max-sweep
        at = draw(st.integers(0, len(words) - 1))
        flag, eq, value = words[at][0].partition("=")
        words[at][0] = flag[:-1] + eq + value
    elif words and edge == "repeat":
        words.append(list(draw(st.sampled_from(words))))
    elif edge == "--":
        words.insert(draw(st.integers(0, len(words))), ["--"])
    elif edge == "-h":
        words.append(["-h"])
    return [command] + [word for option in words for word in option]


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
def test_reader_reads_grammar_draws_as_the_parser(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        _reads_as_the_parser(argv)


@settings(max_examples=60, deadline=None)
@given(argv=cli_argv())
def test_cli_grammar_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error" in err.getvalue(), argv
