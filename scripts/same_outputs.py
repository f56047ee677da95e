#!/usr/bin/env python3
"""Check that two source trees give the CLI the same outputs, argv by argv.

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each argv runs as ``python -m entspace.cli`` once under each tree, with
PYTHONDONTWRITEBYTECODE=1 so that neither tree gains a bytecode cache, and
the runs are compared on stdout sha256, exit code and stderr.  The argv are
every argv of the exact-output ledger, ``tests/exact_outputs.txt``, the
three workload lists of ``perfbench/workloads.py`` at each seed of
``--seeds``, every graded space
and example2 in JSON and CSV on a few shapes, the finite-field oracle
(``verify --method ff`` of every graded space on a few shapes, example2 at
the default primes and at 7, and ``classify``),
below and past the batched kernel's cut, ``upb`` argv that neither of the
first two lists reaches, the ALS search on every graded space and on
example2 (witness runs included), ``onb`` and ``dims``, and a fixed list of
misuse and refusal argv (``onb``'s among them, in the order it refuses),
with argv on both sides of the option reader's
edge (``--name=value`` forms it reads; abbreviations, repeats, ``--``,
``-h`` and values led by ``-``, which it leaves to argparse);
``--argv`` replaces them all.  The argv that differ are printed, and the
exit code is 1 if any do.

``--write-ledger`` instead rewrites the ledger from this checkout's
``src``: it keeps the ledger's comments and the order of its argv, writes
each argv's outcome again, and appends every exact argv of the default
list (at seeds 1,4242; not the ALS search, not ``onb``) that it lacks.

    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC
    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC --seeds 1,4242
    python scripts/same_outputs.py --write-ledger
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "exact_outputs.txt"
GRADED_SPACES = ("S", "Sperp", "level:1", "level:3", "example1")
GRADED_SHAPES = ("3,4", "2,3,4", "12,14", "2,2,2,2,2,2")
# example2, written from its eight groups and its eight points
EXAMPLE2 = [f"construct --dims 4,4 --space {space}{fmt}"
            for space in ("example2-M", "example2-R") for fmt in ("", " --format csv")]
ORACLE_SHAPES = ("2,2", "3,4", "2,3,4", "2,2,2,2")
# the oracle below and past the batched kernel's cut of 6,000 fibres: 2,2
# at 6007 has 6,008
ORACLE = (
    [f"verify --dims {dims} --space {space} --method ff{primes}"
     for dims in ORACLE_SHAPES for space in GRADED_SPACES
     for primes in ("", " --primes 13,17")]
    + [f"verify --dims 2,2 --space {space} --primes 6007" for space in ("S", "Sperp")]
    + [f"verify --dims 4,4 --space {space} --method ff{primes}"
       for space in ("example2-M", "example2-R") for primes in ("", " --primes 7")]
    + [f"classify --dims {dims} --prime {p}"
       for dims in ("2,2", "2,3", "3,3") for p in (5, 7, 13)]
    + ["classify --dims 2,2 --prime 6007"]
)
# UPB shapes, sizes, points and default primes that GOLDEN and the workloads
# leave out: every admissible size on six small shapes, past the batched
# kernel's cut, three factors, a point at infinity among the --lambdas (on
# three factors too), shapes refused on the elimination budget of the basis
# or its complement (one of them with 59 points of 4,301 digits, refused
# before any vector is made), and points too long to write refused only
# after every other refusal
UPB = (
    [f"upb --dims {a},{b} --size {m}"
     for a, b in ((2, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4))
     for m in range(a + b - 1, a * b + 1)]
    + ["upb --dims 6,6 --size 20 --primes 11",
       "upb --dims 5,5 --size 15",
       "upb --dims 2,3,4 --min",
       "upb --dims 3,3,3 --min",
       "upb --dims 2,4 --size 7 --lambdas=inf,0,1/2,-3,5 --primes 7",
       "upb --dims 3,3 --size 9 --lambdas=inf,0,1,-1,1/3",
       "upb --dims 2,2,2 --min --lambdas=inf,0,-1/2,3 --primes 11",
       "upb --dims 20,20 --min",
       "upb --dims 17,17 --size 289",
       "upb --dims 30,30 --size 800",
       "upb --dims 2,2 --min --lambdas=1e3000,1",
       "upb --dims 2,2 --min --lambdas=1e3000,1e3000,1",
       "upb --dims 2,2 --min --lambdas=1e3000,1,2 --primes 4",
       "upb --dims 17,17 --size 289 --lambdas=1e200," + ",".join(map(str, range(32))),
       "upb --dims 64,64 --size 200 --lambdas=" + ",".join(f"{t}e40" for t in range(1, 128)),
       "upb --dims 30,30 --min --lambdas=" + ",".join(f"{t}e4300" for t in range(1, 60))]
)
# the ALS search on every graded space, witness runs included (Sperp on
# 2,2,2 and 3,4), a witness on S under a loose tolerance, example2, a
# one-sweep cap, and the commands no other list reaches: onb at its end
# levels (one index each) and on five factors
ALS = (
    [f"verify --dims {dims} --space {space} --method als --restarts 8"
     for dims in ("2,2,2", "3,4") for space in GRADED_SPACES]
    + [f"verify --dims 4,4 --space {space} --method als --restarts 4"
       for space in ("example2-M", "example2-R")]
    + [f"verify --dims 3,4 --space {space} --method als --restarts 4 --max-sweeps 1"
       for space in ("S", "Sperp")]
    + ["verify --dims 3,4 --space S --method als --restarts 4 --tol 0.9",
       "onb --dims 3,3 --level 2", "onb --dims 2,3,4 --level 3",
       "onb --dims 5,7 --level 0", "onb --dims 5,7 --level 10",
       "onb --dims 2,2,2,2,2 --level 2",
       "dims --dims 3,4", "dims --dims 2,3,4"]
)
# misuse, refusals and the edge of the option reader (the = forms it reads,
# and the forms it leaves to argparse): each must end the same way, with the
# same message
REFUSALS = (
    "",
    "bogus",
    "--help",
    "construct --help",
    "construct --dims 2,2",
    "construct --dims 1,3 --space S",
    "construct --dims 2,2 --space T",
    "construct --dims 2,2 --space S --format xml",
    "construct --dims 2,3 --space level:9",
    "construct --dims 2,3 --space level:-1",
    "construct --dims 2,3 --space level:x",
    # a level has one name
    "construct --dims 3,3 --space level:+1",
    "construct --dims 3,3 --space level:0_1",
    "construct --dims 3,3 --space level:01",
    "construct --dims 3,3 --space level:\u0662",
    "construct --dims 2,2 --space example2-M",
    "construct --dims 300,300 --space S",
    "construct --dims 1000,1000 --space Sperp --format csv",
    "construct --dims 3,4,2 --space S --format csv",
    "construct --dims 3,4,2 --space example1",
    "construct --dims 4,4 --space example2-R --format csv",
    "construct --dims " + ",".join(["2"] * 1100) + " --space S",
    "dims --dims 0,2",
    "dims --dims 2,2000000",
    "verify --dims 2,1000000 --space S --method als --restarts 1 --max-sweeps 1",
    "verify --dims " + ",".join(["2"] * 1100)
    + " --space level:550 --method als --restarts 1 --max-sweeps 1",
    "upb --dims 2,2 --min --lambdas=1,1,2",
    "upb --dims 2,2 --min --lambdas=1/2,2/4,3",
    "upb --dims 2,2 --min --lambdas=inf,oo,1",
    "upb --dims 2,2 --min --lambdas=1/0",
    "upb --dims 64,64 --size 200",
    "upb --dims 12,13 --min --primes 29",
    "verify --dims 3,3 --space S --primes 3",
    "verify --dims 2,2 --space Sperp --method als --restarts 0",
    "classify --dims 2,2 --prime 4",
    "classify --dims 2,2 --prime 1000003",
    "verify --dims 2,1000 --space S --primes 1009",
    "verify --dims 8,8 --space S --method ff",
    "construct --dims 9223372036854775807,2 --space S",
    "verify --dims 99999999999999999999,2 --space Sperp --method ff --primes 7",
    "construct --dims=3,3 --space=S",
    "verify --dims 3,3 --space S --method=als --restarts=2 --max-sweeps=2",
    "upb --dims 2,2 --min --lambdas=-1,0,1",
    "construct --dim 3,3 --space S",
    "verify --dims 3,3 --space S --method als --restarts 2 --max 2",
    "construct --dims 3,3 --space S --space Sperp",
    "construct --dims 3,3 --space S --seed -1",
    # each option only where it is read: --seed by verify alone, and each
    # method's options only under that method
    "dims --dims 3,3 --seed 1",
    "construct --dims 3,3 --space S --seed 1",
    "upb --dims 2,2 --min --seed 1",
    "classify --dims 2,2 --prime 5 --seed 1",
    "onb --dims 2,2 --level 1 --seed 1",
    "verify --dims 3,3 --space S --seed 1",
    "verify --dims 3,3 --space S --method ff --restarts 2",
    "verify --dims 3,3 --space S --method ff --tol 0.5",
    "verify --dims 3,3 --space S --method ff --max-sweeps 3",
    "verify --dims 3,3 --space S --method als --primes 7",
    "upb --dims 2,2 --min --lambdas -1,0,1",
    "construct --dims 3,3 -- --space S",
    "-- construct --dims 3,3 --space S",
    "construct --dims 3,3 --space S -h",
    "upb --dims 2,2",
    "upb --dims 2,2 --min --size 3",
    "upb --dims 2,2 --min=1",
    "verify --dims 3,3 --space S --method lsq",
    "verify --dims 3,3 --space S --tol=nan",
    "dims --dims 3,3 stray",
    "dims --dims",
    # onb's refusals, in their order: the dense size of one vector, the
    # level's range, then the dense size of the level's basis
    "onb --dims 200,200 --level 150",
    "onb --dims 3,3 --level 9",
    "onb --dims 3,3 --level -1",
    "onb --dims 2,2 --level 99999999999999999999",
    "onb --dims 9223372036854775807,2 --level 1",
    "onb --dims " + ",".join(["2"] * 1100) + " --level 3",
)


def ledger_items() -> list[str]:
    """The exact-output ledger's comment lines and its argv, in its order."""
    return [line if line.startswith("#") else json.loads(line.split(" ", 3)[3])
            for line in LEDGER.read_text(encoding="utf-8").splitlines()]


def ledger_argvs() -> list[str]:
    return [item for item in ledger_items() if not item.startswith("#")]


def workload_argvs(seeds) -> list[str]:
    """Every argv of the benchmark's workload lists at each seed."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [" ".join(argv) for seed in seeds for name in workloads.WORKLOADS
            for argv in workloads.invocations(name, seed)]


def default_argvs(seeds) -> list[str]:
    graded = [f"construct --dims {dims} --space {space}{fmt}"
              for dims in GRADED_SHAPES for space in GRADED_SPACES
              for fmt in ("", " --format csv")]
    return list(dict.fromkeys(
        ledger_argvs() + workload_argvs(seeds) + graded + EXAMPLE2 + ORACLE + UPB + ALS
        + list(REFUSALS)))


def outcome(src: str, argv: str) -> tuple[str, int, str]:
    """(stdout sha256, exit code, stderr) of one run of ``argv`` under ``src``.

    The runs take COLUMNS=80, to which argparse wraps its usage and help,
    and write UTF-8, so the ledger's digests depend on neither the terminal
    nor the locale.
    """
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80",
           "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "entspace.cli", *argv.split()],
                          env=env, capture_output=True, timeout=600)
    return (hashlib.sha256(proc.stdout).hexdigest(), proc.returncode,
            proc.stderr.decode("utf-8", "replace"))


def is_exact(argv: str) -> bool:
    """Whether ``argv`` writes the same bytes everywhere: not the ALS search
    nor ``onb``, whose floats depend on LAPACK and libm."""
    words = argv.replace("=", " ").split()
    return words[:1] != ["onb"] and "als" not in words


def write_ledger(argvs) -> None:
    """Rewrite the ledger from this checkout's ``src``: its comments stay,
    its argv keep their order, and each exact argv of ``argvs`` it lacks
    is appended."""
    items = ledger_items()
    items += [text for text in argvs if is_exact(text) and text not in items]
    lines = []
    for item in items:
        if not item.startswith("#"):
            out, code, err = outcome(str(ROOT / "src"), item)
            item = (f"{out} {code} {hashlib.sha256(err.encode()).hexdigest()} "
                    f"{json.dumps(item)}")
        lines.append(item + "\n")
    LEDGER.write_text("".join(lines), encoding="utf-8")


def seed_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", metavar="PARENT_SRC",
                    help="src directory of the parent tree")
    ap.add_argument("change", nargs="?", metavar="CHANGE_SRC",
                    help="src directory of the changed tree")
    ap.add_argument("--seeds", type=seed_list, default=[1, 4242],
                    help="comma-separated workload seeds (default 1,4242)")
    ap.add_argument("--argv", action="append", dest="argvs", metavar="ARGV",
                    help="compare only this quoted argv after 'entspace'; repeatable")
    ap.add_argument("--write-ledger", action="store_true",
                    help="rewrite tests/exact_outputs.txt from this checkout instead")
    args = ap.parse_args(argv)
    if args.write_ledger:
        write_ledger(default_argvs([1, 4242]))
        return 0
    if args.change is None:
        ap.error("give PARENT_SRC and CHANGE_SRC, or --write-ledger")
    for src in (args.parent, args.change):
        if not (Path(src) / "entspace" / "cli.py").is_file():
            ap.error(f"{src} holds no entspace/cli.py")
    argvs = args.argvs if args.argvs is not None else default_argvs(args.seeds)
    differ = 0
    for text in argvs:
        before, after = outcome(args.parent, text), outcome(args.change, text)
        if before == after:
            continue
        differ += 1
        what = [name for name, a, b in zip(("stdout", "exit code", "stderr"), before, after)
                if a != b]
        print(f"DIFFERS ({', '.join(what)}): {text[:200]}")
        if before[1] != after[1]:
            print(f"  exit code {before[1]} -> {after[1]}")
        if before[2] != after[2]:
            print(f"  stderr {before[2][-300:]!r} -> {after[2][-300:]!r}")
    print(f"{len(argvs)} argv compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
