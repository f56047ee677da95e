"""End-to-end CLI runs: exit codes, formats, round-trips, determinism."""

import argparse
import ast
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
import entspace.construct as construct_module
import entspace.verify as verify_module
from entspace.cli import main
from entspace.codec import document_product_vectors, document_vectors, parse_csv
from entspace.counting import all_indices
from entspace.reduction import is_prime


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
    # int() reads each of these, but a document names a level one way
    for level in ("level: 1", "level:+1", "level:0_1", "level:01", "level:-0", "level:\u0662",
                  "level:None"):
        assert run(capsys, "construct", "--dims", "3,3", "--space", level) == (
            2, "", f"error: bad level selector {level!r}\n"), level


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


def test_running_out_of_memory_is_an_error_line():
    # within every budget, but its document needs more than 256 MB
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    proc = subprocess.run([sys.executable, "-m", "entspace.cli", "onb", "--dims", "500,500",
                           "--level", "1"], env=_cli_env(), capture_output=True, text=True,
                          timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_out_of_memory_frees_the_run_before_its_error_line(monkeypatch):
    # the exception's traceback holds the handler's frames and all they hold
    # (a half-built document): writing the line inside the except block
    # could run out of memory again
    import weakref

    import entspace.commands.dims as dims_command

    class Held(list):  # a list that a weakref can track
        pass

    held = []

    def handler(args):
        document = Held(range(1000))
        held.append(weakref.ref(document))
        raise MemoryError

    class Stderr:
        def write(self, text):
            freed.append(held[0]() is None)
            written.append(text)

    freed, written = [], []
    monkeypatch.setattr(dims_command, "run", handler)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["dims", "--dims", "2,2"]) == 2
    assert "".join(written) == "error: out of memory\n"
    assert freed and all(freed)


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


# The modules each kind of run loads, each row checked in a fresh interpreter
# by test_runs_load_exactly_their_modules.  A row's steps run in order: an
# argv through cli.main with its exit code, or a library statement with None.
# After them the row names every package module loaded (besides ``entspace``
# itself) and which SENTINELS loaded, both exactly.  README's load table
# restates these rows.
SENTINELS = ("numpy", "numpy.random", "fractions", "decimal", "json", "argparse",
             "gettext", "locale", "dataclasses", "inspect")
# the largest prime whose 2,2 oracle (p + 1 fibres) stays on plain ints, and
# the smallest past the cut, which runs the batched numpy kernel
AT_CUT = max(q for q in range(2, ff_module._BATCH_FIBRES) if is_prime(q))
PAST_CUT = next(q for q in range(ff_module._BATCH_FIBRES, 2 * ff_module._BATCH_FIBRES)
                if is_prime(q))
GRADED = ("S", "Sperp", "level:2", "example1")
COMMAND = "cli commands grading"  # every command, besides its handler
ORACLE = COMMAND + " commands.classify commands.verify ff reduction serialize"
UPB = COMMAND + " commands.upb ff producttext reduction serialize upbtext"
ALS = COMMAND + " commands.verify normals serialize verify"
LIBRARY_S = "import entspace; entspace.entangled_subspace(entspace.Dims((3, 3)))"
EXACT = "construct ff grading linalg producttext reduction serialize upbtext"
LOADS = {
    # the reader needs no handler, output layer, verifier or parser
    "import": ([("import entspace.cli", None)], "cli grading", ()),
    "dims": ([("dims --dims 3,3", 0)], COMMAND + " commands.dims", ()),
    # a graded basis is written from its closed form as text: no scalar,
    # vector or subspace, and the JSON writer quotes its strings itself
    "construct-graded": (
        [(f"construct --dims {dims} --space {space} --format {fmt}", 0)
         for dims in ("3,3", "3,4") for space in GRADED for fmt in ("json", "csv")]
        + [("construct --dims 2,3,4 --space Sperp", 0),
           ("construct --dims 3,4,2 --space S --format csv", 2),
           ("construct --dims 300,300 --space S", 2)],
        COMMAND + " commands.construct serialize", ()),
    # example2-M from its eight groups, example2-R's Vandermonde vectors from
    # their points by the text writer upb shares
    "construct-example2-M": (
        [(f"construct --dims 4,4 --space example2-M --format {fmt}", 0) for fmt in ("json", "csv")],
        COMMAND + " commands.construct serialize", ()),
    "construct-example2-R": (
        [(f"construct --dims 4,4 --space example2-R --format {fmt}", 0) for fmt in ("json", "csv")],
        COMMAND + " commands.construct producttext serialize", ()),
    # the character basis from its complex closed form
    "onb": ([(f"onb --dims {dims} --level {level}", 0)
             for dims, level in (("3,3", 2), ("2,3,4", 3), ("2,2,2,2,2", 0))],
            COMMAND + " commands.onb producttext serialize", ()),
    # a UPB is written from its recipe as text and audited in closed form
    "upb": ([("upb --dims 2,2 --min --primes 5", 0), ("upb --dims 3,3 --size 7", 0),
             ("upb --dims 2,3,4 --min", 0)], UPB, ()),
    # only the --lambdas parser makes a rational
    "upb-lambdas": ([("upb --dims 3,3 --size 9 --lambdas=inf,0,1,-1,1/3", 0),
                     ("upb --dims 2,2 --min --lambdas=0,1,2", 0)],
                    UPB, ("fractions", "decimal")),
    "upb-past-cut": ([(f"upb --dims 2,2 --min --primes {PAST_CUT}", 0)],
                     UPB + " ffkernel", ("numpy", "inspect")),
    # the oracle takes a graded space's rank and annihilator in closed form,
    # example2's too, and writes its documents from its int hits
    "oracle": (
        [(f"verify --dims 3,3 --space {space} --method ff", 0) for space in GRADED]
        + [(f"verify --dims 2,2 --space {space} --primes {AT_CUT}", 0) for space in GRADED]
        + [(f"verify --dims 4,4 --space {space} --method ff", 0)
           for space in ("example2-M", "example2-R")]
        + [("verify --dims 4,4 --space example2-R --primes 7", 0),
           ("verify --dims 2,3 --space S --primes 5,7,11", 0),
           ("verify --dims 3,3 --space S --primes 3", 2),
           ("classify --dims 2,3 --prime 7", 0), ("classify --dims 2,2 --prime 5", 0),
           (f"classify --dims 2,2 --prime {AT_CUT}", 0)],
        ORACLE, ()),
    # with both handlers loaded first, past the cut the batched kernel and
    # numpy load, and nothing else
    "oracle-past-cut": (
        [("classify --dims 2,3 --prime 7", 0)]
        + [(f"verify --dims 2,2 --space {space} --primes {PAST_CUT}", 0) for space in GRADED]
        + [(f"classify --dims 2,2 --prime {PAST_CUT}", 0)],
        ORACLE + " ffkernel", ("numpy", "inspect")),
    # a search writes its report, a witness included, from its floats; a
    # graded one runs on the level sums, example2 on the float rows of its
    # closed form, and normals draws the starts without numpy.random
    "als": (
        [(f"verify --dims 2,2 --space {space} --method als --restarts 2", 0)
         for space in ("Sperp", "S", "level:1")]
        + [(f"verify --dims 3,4 --space {space} --method als --restarts 4", 0)
           for space in GRADED]
        + [(f"verify --dims 4,4 --space {space} --method als --restarts {restarts}", 0)
           for space in ("example2-M", "example2-R") for restarts in (2, 4)],
        ALS, ("numpy", "inspect")),
    # help and refusals are the parser's, which alone loads argparse
    "parser": ([("construct --help", 0), ("verify --dims 3,3 --space S --seed x", 2)],
               COMMAND + "".join(f" commands.{name}" for name in entspace_cli.COMMANDS),
               ("argparse", "gettext", "locale")),
    # controls: the library loads what no command does, and the JSON writer
    # loads json only for a string that needs an escape
    "library-S": ([(LIBRARY_S, None)], EXACT, ("fractions", "decimal")),
    "library-codec": (
        [(LIBRARY_S, None),
         ("from entspace.codec import subspace_document; "
          "subspace_document(entspace.entangled_subspace(entspace.Dims((3, 3))))", None)],
        EXACT + " codec", ("fractions", "decimal")),
    "library-als": (
        [("import entspace; entspace.max_product_overlap("
          "entspace.LevelSums((1,)), entspace.Dims((2, 2)), restarts=2)", None),
         ("import numpy; numpy.random.default_rng(0)", None)],
        "grading normals serialize verify", ("numpy", "numpy.random", "inspect")),
    "library-counting": (
        [("import entspace; entspace.level_count(entspace.Dims((3, 3)), 2)", None),
         ("from entspace.serialize import json_dumps; json_dumps('\\u00e9')", None),
         ("import dataclasses", None)],
        "counting grading serialize", ("json", "dataclasses", "inspect")),
}

# One LOADS row in a fresh interpreter, after its STEPS and SENTINELS: prints
# the steps' exit codes, the package modules loaded, the sentinels loaded and
# the package modules that finished loading after numpy.  It imports no
# sentinel: the test reads its repr with ast.literal_eval.
LOAD_PROBE = """
import contextlib, io, sys

names = {}  # the library statements' namespace

def run(text, code):
    if code is None:
        exec(text, names)
        return None
    from entspace.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(text.split())
        except SystemExit as exc:  # the parser's help and refusals
            return exc.code

codes = [run(*step) for step in STEPS]
order = list(sys.modules)  # in the order the modules finished loading
after = order[order.index("numpy"):] if "numpy" in sys.modules else []
print(repr((codes, sorted(name for name in order if name.startswith("entspace")),
            [name for name in SENTINELS if name in sys.modules],
            [name for name in after if name.startswith("entspace")])))
"""


def _check_loads(steps, modules, sentinels):
    probe = f"STEPS = {steps!r}\nSENTINELS = {SENTINELS!r}\n" + LOAD_PROBE
    proc = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, package, loaded, after_numpy = ast.literal_eval(proc.stdout)
    assert codes == [code for _, code in steps]
    assert package == sorted(["entspace"] + [f"entspace.{name}" for name in modules.split()])
    assert loaded == list(sentinels)
    # a package module compiled after numpy raises the run's peak RSS: only
    # the one that imports numpy finishes loading after it
    assert after_numpy == [name for name in ("entspace.ffkernel", "entspace.verify")
                           if name in package]


@pytest.mark.parametrize("row", LOADS)
def test_runs_load_exactly_their_modules(row):
    _check_loads(*LOADS[row])


@pytest.mark.parametrize("space", ["S", "Sperp", "example2-M", "example2-R"])
def test_als_loads_every_package_module_before_numpy(space):
    # one search alone, in a fresh interpreter, loads the "als" row's modules:
    # no exact layer, example2's included, and only verify after numpy
    dims = "4,4" if space.startswith("example2") else "3,4"
    _check_loads([(f"verify --dims {dims} --space {space} --method als --restarts 4", 0)],
                 ALS, ("numpy", "inspect"))


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


# the public API, pinned: a layout change must not drop or add a name
PUBLIC_NAMES = [
    'Dims', 'parse_dims', 'enumerate_level', 'level_counts', 'LevelSums',
    'BudgetExceededError', 'DEFAULT_MAX_SWEEPS', 'DEFAULT_RESTARTS', 'DEFAULT_TOL',
    'NO_WITNESS', 'WITNESS', 'VerificationReport', 'INFINITY', 'multi_index',
    'all_indices', 'level', 'level_count', 'level_count_closed_form', 'Field', 'Fp',
    'RATIONAL', 'COMPLEX', 'prime_field', 'parse_field', 'StateVector', 'Subspace',
    'span', 'orthocomplement', 'intersect', 'subspace_sum', 'reduce_mod_p',
    'ProductVector', 'standard_product_vector', 'level_sum_vector',
    'vandermonde_vector', 'entangled_subspace', 'entangled_complement',
    'entangled_level', 'level_sum_line', 'antidiagonal_zero_space', 'UpbRecipe',
    'minimal_upb', 'upb_of_size', 'UpbReport', 'verify_upb', 'character_basis',
    'split_antidiagonal_spaces', 'gram_matrix', 'ENUMERATION_BUDGET',
    'candidate_count', 'default_primes', 'ClassifyReport',
    'classify_product_vectors_fp', 'ff_verify', 'find_product_vectors_fp',
    'ALS_BUDGET', 'AlsResult', 'max_product_overlap', 'nearest_vandermonde',
    'orthonormal_basis',
]


def test_public_names_are_pinned():
    import entspace

    assert len(PUBLIC_NAMES) == 60
    assert entspace.__all__ == PUBLIC_NAMES
    names = {}
    exec("from entspace import *", names)
    assert [name for name in PUBLIC_NAMES if name not in names] == []


def test_readme_library_block_runs():
    # README's ``## Library`` example, run as it is written
    path = Path(__file__).resolve().parent.parent / "scripts" / "reach_report.py"
    spec = importlib.util.spec_from_file_location("reach_report", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    block = script.readme_block()
    assert "from entspace import" in block
    exec(compile(block, "README.md", "exec"), {})


def test_every_name_has_one_home():
    import importlib
    import inspect

    import entspace

    for name in entspace.__all__:
        home = importlib.import_module(f"entspace.{entspace._HOMES[name]}")
        value = getattr(entspace, name)
        assert value is vars(home)[name], name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name
        assert name in dir(entspace), name
    with pytest.raises(AttributeError, match="no_such_name"):
        entspace.no_such_name
    # the ALS report is the one report type
    assert entspace.verify.VerificationReport is entspace.grading.VerificationReport
    assert "__getattr__" not in vars(entspace.ff) and "__getattr__" not in vars(entspace.grading)


def test_moved_names_resolve_in_their_old_modules():
    # the only moved names an old module still resolves are the ones the
    # tracer looks up in a module that does not define them
    import importlib
    import inspect
    import pkgutil

    import entspace

    wanted = {}
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
    # perfbench's test looks ``span`` up in ``construct``, which imports it
    assert entspace.construct.span is entspace.linalg.span


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
    reports = construct_module.ff_verify(target, dims, primes)
    verdict = WITNESS if any(r.verdict == WITNESS for r in reports) else NO_WITNESS
    want = json_dumps({
        "dims": list(dims.d), "space": space, "method": "ff", "verdict": verdict,
        "expected": expected, "reports": [encode_report(r) for r in reports],
    })
    got = _command_output(verify_command.run, dims=",".join(map(str, dims.d)),
                          space=space, method="ff", primes=primes, seed=None,
                          restarts=None, tol=None, max_sweeps=None)
    assert got == (0 if verdict == expected else 3, want), (dims, space, primes)


def assert_classify_writers_agree(dims, p):
    """``classify`` writes, from the oracle's int hits, the document the
    library encoder writes of ``classify_product_vectors_fp``'s report."""
    from entspace.codec import encode_classify_report
    from entspace.serialize import json_dumps

    report = construct_module.classify_product_vectors_fp(dims, p)
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
    from entspace.linalg import prime_field
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
    # verify alone takes a --seed; to the other commands it is unknown
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    message = (f"argument --seed: must be at least 0, got {seed}" if argv[0] == "verify"
               else f"error: unrecognized arguments: --seed {seed}")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    *((f"{command} --seed 1", "--seed") for command in (
        "dims --dims 1,3", "construct --dims 1,3 --space S", "upb --dims 1,3 --min",
        "classify --dims 1,3 --prime 5", "onb --dims 1,3 --level 1")),
    ("verify --dims 1,3 --space S --seed 1", "--seed"),
    *((f"verify --dims 1,3 --space S --method ff {flag} {value}", flag)
      for flag, value in (("--restarts", "2"), ("--tol", "0.5"), ("--max-sweeps", "3"))),
    ("verify --dims 1,3 --space S --method als --primes 5", "--primes"),
], ids=lambda value: value if value.startswith("--") else value.split()[0])
def test_options_are_accepted_only_where_they_are_read(capsys, argv, flag):
    # a refusal that names the option, before the bad --dims is read
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse: an option unknown to the command
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and "Traceback" not in err
    assert flag in err.splitlines()[-1], err


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
    from entspace.construct import character_basis
    from entspace.linalg import COMPLEX
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


# The exact-output ledger, tests/exact_outputs.txt: argv -> (stdout sha256,
# exit code, stderr sha256) of every exact argv that scripts/same_outputs.py
# compares.  Its first block is the golden table of earlier versions.
LEDGER = {json.loads(argv): (out, int(code), err) for out, code, err, argv in (
    line.split(" ", 3) for line in (Path(__file__).resolve().parent / "exact_outputs.txt")
    .read_text(encoding="utf-8").splitlines() if not line.startswith("#"))}


@pytest.mark.parametrize("argv", list(LEDGER))
def test_oracle_output_matches_golden_digest(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to it
    try:
        code = main(argv.split())
    except SystemExit as exc:  # the parser's help and refusals
        code = exc.code
    out, err = capsys.readouterr()
    digests = [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (out, err)]
    assert (digests[0], code, digests[1]) == LEDGER[argv]


def test_exit_codes_partition(capsys):
    # misuse -> 2, clean disagreement -> 3, success -> 0
    assert run(capsys, "dims", "--dims", "2,2")[0] == 0
    assert run(capsys, "dims", "--dims", "0,2")[0] == 2
    assert run(capsys, "verify", "--dims", "2,2", "--space", "S")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    # help and refusals are the parser's
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: entspace construct [-h] --dims DIMS"), out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dims", "3,3", "--space", "S", "--seed", "x"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and err.startswith("usage: entspace verify [-h]")
    assert err.splitlines()[-1] == ("entspace verify: error: argument --seed: "
                                    "invalid non_negative_int value: 'x'"), err


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


def test_main_builds_no_parser_for_a_well_formed_argv(monkeypatch):
    # a well-formed argv is read from the option tables
    def refuse():
        raise AssertionError("parser built")

    monkeypatch.setattr(entspace_cli, "build_parser", refuse)
    assert main(["dims", "--dims", "2,2"]) == 0


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
    # the edge: = forms are read, and help, abbreviations, repeats, values
    # led by -, -- and a missing one-of are left to the parser
    assert "construct --dims=3,3 --space=S" in taken
    assert "upb --dims 2,2 --min --lambdas=-1,0,1" in taken
    edge = ("--help", "construct --help", "construct --dims 3,3 --space S -h",
            "construct --dim 3,3 --space S", "construct --dims 3,3 --space S --space Sperp",
            "upb --dims 2,2 --min --lambdas -1,0,1", "construct --dims 3,3 -- --space S",
            "upb --dims 2,2", "upb --dims 2,2 --min --size 3", "upb --dims 2,2 --min=1")
    for text in edge:
        assert text in argvs and text not in taken, text
    # every workload argv, and every ledger argv that runs its command but
    # the edge forms, is well formed, and so skips argparse
    ran = {text for text, (_, code, _) in LEDGER.items() if code in (0, 3)}
    assert (ran - set(edge)) | set(script.workload_argvs([1, 4242])) <= taken


def test_reach_report_script_traces_two_argv():
    script = Path(__file__).resolve().parent.parent / "scripts" / "reach_report.py"
    proc = subprocess.run([sys.executable, str(script), "--argv", "dims --dims 3,3",
                           "--argv", "upb --dims 2,2 --min"], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "2 argv and README's library block", lines[0]
    rows = {line.split()[0]: [int(n) for n in line.split()[1:]] for line in lines[2:]
            if len(line.split()) == 4 and line.split()[1].isdigit()}
    total, by_argv, with_readme = rows["total"]
    assert 0 < by_argv < with_readme < total
    # each argv reaches its own handler and no other's
    assert rows["entspace.commands.dims"][1] > 0 and rows["entspace.commands.upb"][1] > 0
    assert rows["entspace.commands.onb"][1:] == [0, 0]
    # no command reaches the library; README's block does
    assert rows["entspace.construct"][1] == 0 < rows["entspace.construct"][2]
    assert any(line.startswith("functions neither reaches: ") for line in lines)
    assert "  entspace.commands.onb.run (7 lines)" in lines


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
    # the default list: every ledger argv and every workload argv; the
    # ledger holds every exact one at the seeds it was written at
    argvs = script.default_argvs([1, 4242])
    assert set(LEDGER) == {text for text in argvs if script.is_exact(text)}
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
    "verify": (["--space"], ["--seed", "--method", "--primes", "--restarts", "--tol",
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
    flags += [(f, 4) for f in ["--out"] + optional]
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
