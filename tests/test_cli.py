"""End-to-end CLI runs: exit codes, formats, round-trips, determinism."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entspace import (
    INFINITY,
    Dims,
    RATIONAL,
    entangled_complement,
    entangled_level,
    entangled_subspace,
    minimal_upb,
    span,
)
import entspace.cli as entspace_cli
import entspace.ff as ff_module
import entspace.verify as verify_module
from entspace.cli import main
from entspace.serialize import document_product_vectors, document_vectors, parse_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
                for idx in d.all_indices() if sum(idx) == n
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
        from entspace.cli import _resolve_space
        target, _ = _resolve_space(dims, space)
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
    calls = []
    real = verify_module.orthonormal_basis

    def recording(space):
        calls.append(space.dim)
        return real(space)

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


STARTUP_PROBE = """
import contextlib, io, sys
import entspace.cli

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return entspace.cli.main(list(argv))

def loaded(names=("numpy", "entspace.verify", "dataclasses", "inspect")):
    # the value types are plain classes: start-up needs no code generator
    return [name for name in names if name in sys.modules]

# the parser needs no construction, output layer or verifier
assert not loaded(("entspace.construct", "entspace.serialize", "entspace.ff",
                   "entspace.verify")), "loaded by import entspace.cli"

# the closed forms need no elimination, UPB, example or verifier
for space in ("S", "Sperp", "example1"):
    assert quiet("construct", "--dims", "3,3", "--space", space) == 0
assert quiet("construct", "--dims", "3,3", "--space", "S", "--format", "csv") == 0
closed_form = ("entspace.elimination", "entspace.upb", "entspace.examples", "entspace.ff",
               "entspace.verify")
assert not loaded(closed_form), str(loaded(closed_form)) + " loaded by construct"

assert quiet("dims", "--dims", "3,3") == 0
assert quiet("onb", "--dims", "3,3", "--level", "2") == 0
assert not loaded(), str(loaded()) + " loaded by dims, construct or onb"

from entspace.ff import _BATCH_FIBRES
from entspace.fields import is_prime

# the finite-field oracle on plain ints: 2,2 at p has p + 1 fibres, so the
# largest prime at the cut stays numpy-free
at_cut = max(q for q in range(2, _BATCH_FIBRES) if is_prime(q))
assert quiet("verify", "--dims", "2,2", "--space", "S", "--primes", str(at_cut)) == 0
assert quiet("verify", "--dims", "3,3", "--space", "Sperp", "--method", "ff") == 0
oracle_only = ("entspace.upb", "entspace.elimination", "entspace.ffkernel")
assert not loaded(oracle_only), str(loaded(oracle_only)) + " loaded by verify --method ff"
assert quiet("verify", "--dims", "4,4", "--space", "example2-R", "--primes", "7") == 0
assert quiet("upb", "--dims", "2,2", "--min", "--primes", "5") == 0
assert quiet("upb", "--dims", "3,3", "--size", "7") == 0
assert quiet("classify", "--dims", "2,2", "--prime", "5") == 0
assert quiet("verify", "--dims", "3,3", "--space", "S", "--primes", "3") == 2
import entspace
assert entspace.ff_verify is entspace.ff.ff_verify
assert entspace.UpbReport is entspace.upb.UpbReport
assert not loaded(), str(loaded()) + " loaded by verify --method ff, upb or classify"

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

assert quiet("verify", "--dims", "2,2", "--space", "Sperp", "--method", "als",
             "--restarts", "2") == 0
for name in ("numpy", "entspace.verify"):
    assert name in sys.modules, name + " not loaded by verify --method als"
for name in ("entspace.ff", "entspace.ffkernel"):
    assert name not in sys.modules, name + " loaded by verify --method als"
# a module compiled after numpy raises the peak RSS
order = list(sys.modules)
assert order.index("entspace.serialize") < order.index("numpy")

import entspace
names = {}
exec("from entspace import *", names)
missing = [n for n in entspace.__all__ if n not in names]
assert not missing, missing
assert entspace.max_product_overlap is entspace.verify.max_product_overlap
assert entspace.verify_upb is entspace.verify.verify_upb
assert entspace.verify.VerificationReport is entspace.ff.VerificationReport
assert "max_product_overlap" in dir(entspace) and "ff_verify" in dir(entspace)
try:
    entspace.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
"""


def test_dims_and_construct_start_without_numpy():
    src = str(Path(entspace_cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for probe in (STARTUP_PROBE, ALS_PROBE):
        proc = subprocess.run([sys.executable, "-c", probe],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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


def test_thousand_factor_shapes_exit_cleanly():
    # 1,100 factors of 2 once overflowed the recursion limit in
    # enumerate_level and the float range in the ALS level weights
    dims = ",".join(["2"] * 1100)
    for argv in (["construct", "--dims", dims, "--space", "S"],
                 ["onb", "--dims", dims, "--level", "1"],
                 ["verify", "--dims", dims, "--space", "S", "--method", "als",
                  "--restarts", "1"]):
        proc = subprocess.run([sys.executable, "-m", "entspace.cli", *argv],
                              env=_cli_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 2), proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr


# name -> (the module that defined it before, the module that defines it now)
MOVED_NAMES = {
    **{name: ("construct", "upb") for name in ("UpbRecipe", "minimal_upb", "upb_of_size")},
    **{name: ("construct", "examples") for name in (
        "SplitAntidiagonalExample", "split_antidiagonal_spaces", "gram_matrix",
        "character_basis")},
    **{name: ("linalg", "elimination") for name in (
        "span", "orthocomplement", "subspace_sum", "intersect", "reduce_mod_p")},
    **{name: ("ff", "upb") for name in ("UpbReport", "verify_upb")},
}


def test_moved_names_resolve_in_their_old_modules():
    import importlib

    import entspace

    for name in entspace.__all__:
        getattr(entspace, name)
        assert name in dir(entspace), name
    for name, (old, new) in MOVED_NAMES.items():
        old_module = importlib.import_module(f"entspace.{old}")
        new_module = importlib.import_module(f"entspace.{new}")
        assert getattr(old_module, name) is getattr(new_module, name), name
    assert entspace.verify.verify_upb is entspace.upb.verify_upb
    assert entspace.verify.UpbReport is entspace.upb.UpbReport
    # construct no longer eliminates, but perfbench's tracer test looks span up there
    assert entspace.construct.span is entspace.elimination.span
    with pytest.raises(AttributeError, match="no_such_name"):
        entspace.construct.no_such_name


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
# entries were pinned from the oracle that reduced on Fp objects; the
# plain-int reduction must not change a byte.  Both fibre paths are covered:
# the last two verify runs take the batched one.  ALS and onb are left out:
# their floats depend on LAPACK and libm.
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
    "upb --dims 3,4 --size 9 --primes 7,11":
        ("25fbcc0eae35dfac2c0d90aa9ffbd0ba2f21653c1b11f396e4ac2ac6c36aad11", 0),
    "classify --dims 3,3 --prime 7":
        ("c419bf20997733887ca27668e64725b0f7c51bb6e7054208e2fa3d4429a25183", 0),
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
    "--lambdas": (["0,1,2", "0,1,2,3,4", "inf,1/2,3"], ["1/0", "0,0,1", "a", ""]),
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
    and a flag foreign to the command comes in one time in eight."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional = _GRAMMAR[command]
    flags = [(f, 7) for f in ["--dims"] + required]  # (flag, times in eight)
    flags += [(f, 4) for f in ["--out", "--seed"] + optional]
    flags.append((draw(st.sampled_from(sorted(_VALUES))), 1))
    argv = [command]
    for flag, keep in flags:
        if isinstance(flag, tuple):
            flag = draw(st.sampled_from(flag))
        if draw(st.integers(0, 7)) >= keep:
            continue
        argv.append(flag)
        if flag != "--min":
            good, bad = _VALUES[flag]
            argv.append(draw(st.sampled_from(good if draw(st.integers(0, 5)) else bad)))
    return argv


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
