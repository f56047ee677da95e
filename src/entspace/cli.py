"""Command-line front end.

Subcommands map one-to-one onto the library: ``dims`` (level-count table),
``construct`` (exact bases), ``upb`` (product bases with embedded audit),
``verify`` (finite-field or numerical check of a named space), ``classify``
(product vectors in the complement over a prime field), and ``onb``
(per-level character basis).  Exit codes: 0 success, 2 invalid input,
3 verification contradiction.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .grading import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    NO_WITNESS,
    WITNESS,
    BudgetExceededError,
    Dims,
    LevelSums,
    _check_level_rows,
    _group_entries,
    _level_groups,
    level_counts,
    parse_dims,
)

# The parser and ``main`` need only the names above.  Each command imports
# the layers it runs, so a process loads (and, with bytecode caching off,
# compiles) no other: a graded ``construct`` writes its closed-form rows as
# text with ``serialize`` alone, the oracle writes its documents from its int
# hits, the object encoders of ``codec`` load only where objects are made
# (example2, ``upb``, ``onb``, ALS), numpy only for ALS and for enumerations
# too large for plain ints, and exact elimination only for a ``verify`` of
# example2-R, which spans its product vectors: ``upb`` audits in closed form.

SPACES = ("S", "Sperp", "level:n", "example1", "example2-M", "example2-R")

# Largest ``dims`` table, as factors * levels: the level counts take one
# pass of prefix sums per factor, and the table has a line per level.
# 2,999999 is at the budget: about 3 s for a 33 MB table.
TABLE_BUDGET = 2 * 10**6


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _level_selector(name: str) -> int:
    try:
        return int(name[len("level:"):])
    except ValueError:
        raise ValueError(f"bad level selector {name!r}") from None


def _named_space(dims: Dims, name: str):
    """Named space -> (space, expected verdict).

    A graded space comes back unbuilt, as its ``LevelSums``; example2-M as
    its exact subspace and example2-R as its product-vector list.
    """
    every = range(dims.max_level + 1)
    if name == "S":
        return LevelSums(every), NO_WITNESS
    if name == "Sperp":
        return LevelSums(every, sums=True), WITNESS
    if name.startswith("level:"):
        return LevelSums((_level_selector(name),)), NO_WITNESS
    if name == "example1":
        if dims.k != 2:
            raise ValueError("example1 needs exactly two factors")
        return LevelSums(every), NO_WITNESS
    if name in ("example2-M", "example2-R"):
        if dims.d != (4, 4):
            raise ValueError("example2 is defined for dims 4,4")
        from .examples import split_antidiagonal_spaces

        ex = split_antidiagonal_spaces()
        if name == "example2-M":
            return ex.m_space, NO_WITNESS
        return ex.spanning_set, WITNESS
    raise ValueError(f"unknown space {name!r}; choose from {SPACES}")


def _as_subspace(target):
    """A subspace as it is, or the span of a product-vector list."""
    if isinstance(target, list):
        from .elimination import span

        return span([pv.expand() for pv in target])
    return target


def tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return tol


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return n


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return n


def prime_list(text: str) -> tuple[int, ...]:
    """Comma-separated oracle primes, each once; the oracle checks primality."""
    primes = tuple(int(p) for p in text.split(","))
    if len(set(primes)) != len(primes):
        raise argparse.ArgumentTypeError(f"repeated prime in {text}")
    return primes


def cmd_dims(args: argparse.Namespace) -> int:
    d = parse_dims(args.dims)
    steps = d.k * (d.max_level + 1)
    if steps > TABLE_BUDGET:
        raise BudgetExceededError(steps, TABLE_BUDGET, "level table", "factors * levels")
    counts = level_counts(d)
    lines = [
        f"dims: {','.join(str(x) for x in d.d)}",
        f"N: {d.max_level}",
        f"total: {d.total}",
        f"dim entangled subspace: {d.total - (d.max_level + 1)}",
        f"{'n':>4} {'a_n':>6} {'a_n-1':>6} {'cumulative':>11}",
    ]
    run = 0
    for n, a in enumerate(counts):
        run += a
        lines.append(f"{n:>4} {a:>6} {a - 1:>6} {run:>11}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    from .serialize import csv_matrices, json_dumps, rows_document

    dims = parse_dims(args.dims)
    target, _ = _named_space(dims, args.space)
    if isinstance(target, list):  # product vectors (example2-R)
        if args.format == "csv":
            _write(csv_matrices([pv.expand() for pv in target], dims), args.out)
        else:
            from .codec import product_vectors_document
            from .fields import RATIONAL

            doc = product_vectors_document(dims, RATIONAL, target, {"space": args.space})
            _write(json_dumps(doc), args.out)
        return 0
    if isinstance(target, LevelSums):
        # the closed form as text: every entry of a row e_i - e_last or u_n
        # is 0, 1 or -1, so no scalar is made
        _check_level_rows(dims, target)
        rows = _group_entries(dims.total, _level_groups(dims, target), target.sums,
                              "0", "1", "-1")
    else:  # example2-M, an exact subspace
        from .codec import encode_rows

        rows = encode_rows(target.rows)
    if args.format == "csv":
        if dims.k != 2:
            raise ValueError("csv output needs exactly two factors")
        _write(csv_matrices(rows, dims), args.out)
    else:
        _write(json_dumps(rows_document(dims, rows, {"space": args.space})), args.out)
    return 0


def cmd_upb(args: argparse.Namespace) -> int:
    from .codec import encode_upb_recipe, encode_upb_report, product_vectors_document
    from .fields import RATIONAL
    from .serialize import json_dumps
    from .upb import _check_point_digits, _parse_points, audit_recipe, upb_of_size

    dims = parse_dims(args.dims)
    points = None if args.lambdas is None else _parse_points(args.lambdas, dims.max_level)
    size = dims.max_level + 1 if args.min else args.size
    record, vectors = upb_of_size(dims, size, points)
    report = audit_recipe(record, primes=args.primes)
    if points is not None:  # last, as only writing the document would fail
        _check_point_digits(args.lambdas, points, dims.max_level)
    doc = product_vectors_document(
        dims, RATIONAL, vectors,
        {"upb": encode_upb_recipe(record, RATIONAL), "report": encode_upb_report(report)},
    )
    _write(json_dumps(doc), args.out)
    return 0 if report.is_upb else 3


def cmd_verify(args: argparse.Namespace) -> int:
    from .serialize import json_dumps

    dims = parse_dims(args.dims)
    # example2 is built, and example2-R spanned, before numpy loads; a graded
    # space stays a LevelSums, which both methods take with no basis
    space, expected = _named_space(dims, args.space)
    space = _as_subspace(space)
    if args.method == "ff":
        from .ff import _ff_runs, _report_entry

        reports = [_report_entry(dims, *run) for run in _ff_runs(space, dims, args.primes)]
    else:
        # every module the search runs loads before numpy: one compiled after
        # it raises the run's peak RSS.  A witness is a complex ProductVector,
        # which a graded space without sums does not hold (the paper's
        # theorem), so only Sperp and example2 load the exact layers for it.
        from .codec import encode_report

        graded = isinstance(space, LevelSums)
        if not graded or space.sums:
            from . import construct, fields  # noqa: F401
        from .verify import max_product_overlap, orthonormal_basis

        if not graded:
            space = orthonormal_basis(space)
        result = max_product_overlap(
            space, dims,
            restarts=args.restarts, max_sweeps=args.max_sweeps,
            tol=args.tol, seed=args.seed,
        )
        reports = [encode_report(result.report)]
    verdict = WITNESS if any(r["verdict"] == WITNESS for r in reports) else NO_WITNESS
    doc = {
        "dims": list(dims.d),
        "space": args.space,
        "method": args.method,
        "verdict": verdict,
        "expected": expected,
        "reports": reports,
    }
    _write(json_dumps(doc), args.out)
    return 0 if verdict == expected else 3


def cmd_classify(args: argparse.Namespace) -> int:
    from .ff import _classify_document, _classify_points
    from .serialize import json_dumps

    dims = parse_dims(args.dims)
    doc = _classify_document(dims, args.prime, *_classify_points(dims, args.prime))
    _write(json_dumps(doc), args.out)
    return 0 if doc["passed"] else 3


def cmd_onb(args: argparse.Namespace) -> int:
    from .codec import vectors_document
    from .examples import character_basis
    from .fields import COMPLEX
    from .serialize import json_dumps

    dims = parse_dims(args.dims)
    basis = character_basis(dims, args.level)
    doc = vectors_document(dims, COMPLEX, basis, {"level": args.level})
    _write(json_dumps(doc), args.out)
    return 0


def _add_construct(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, help=f"one of {SPACES}")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_upb(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--min", action="store_true", help="minimal size N+1")
    group.add_argument("--size", type=int,
                       help="requested size (above N+1, two factors only)")
    p.add_argument("--lambdas", default=None,
                   help="comma-separated parameter points, rationals or inf")
    p.add_argument("--primes", type=prime_list, default=None,
                   help="comma-separated oracle primes")


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, help=f"one of {SPACES}")
    p.add_argument("--method", choices=("ff", "als"), default="ff")
    p.add_argument("--primes", type=prime_list, default=None,
                   help="comma-separated oracle primes")
    p.add_argument("--restarts", type=positive_int, default=DEFAULT_RESTARTS)
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument("--max-sweeps", dest="max_sweeps", type=positive_int,
                   default=DEFAULT_MAX_SWEEPS)


def _add_classify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime", type=int, required=True)


def _add_onb(p: argparse.ArgumentParser) -> None:
    p.add_argument("--level", type=int, required=True)


# command -> (help, handler, the arguments beside --dims, --out and --seed)
COMMANDS = {
    "dims": ("level-count table and dimensions", cmd_dims, None),
    "construct": ("write a basis of a named space", cmd_construct, _add_construct),
    "upb": ("build and audit an unextendible product basis", cmd_upb, _add_upb),
    "verify": ("hunt for product vectors in a named space", cmd_verify, _add_verify),
    "classify": ("product vectors in the complement over F_p", cmd_classify,
                 _add_classify),
    "onb": ("character orthonormal basis of one level", cmd_onb, _add_onb),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand or with ``only``.

    A parser with one subcommand parses that command's argv as the full one
    does, byte for byte: argparse names a subcommand's siblings only in the
    top-level usage, which then lists every command as its metavar.
    """
    parser = argparse.ArgumentParser(
        prog="entspace",
        description="Completely entangled subspaces and unextendible "
                    "product bases, with exact and numerical verification.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{" + ",".join(COMMANDS) + "}")
    for name, (help_text, func, add_arguments) in COMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dims", required=True,
                       help="comma-separated local dimensions, e.g. 2,3")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=non_negative_int, default=0)
        if add_arguments is not None:
            add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its own subparser; --help, a missing or an
    # unknown command get the full parser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# BLAS thread pools of a command-line run, unless the caller set their size
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run() -> None:
    """Console entry point: ``main`` on ``sys.argv``, then exit at once.

    A run is one short process, so it runs without the cyclic garbage
    collector: the code makes its cycles per call, not per step, and the
    collector's passes (34 on an ALS search, most of them while numpy
    imports, about 5.6 ms) would free nothing the exit does not.  Its BLAS
    runs one thread unless the caller set a pool size: an ALS search makes
    many small eigensolves, and on two CPUs a second OpenBLAS thread only
    spins (0.33 s against 0.22 s of CPU on 5,5 S with 680 restarts, the
    same output).  ``main`` called in-process, and the library, change
    neither.

    ``--out`` files are closed by then, and the standard streams are flushed
    here.  ``os._exit`` then ends the process without the interpreter's
    teardown (module clean-up and the final garbage collections), and the
    memory goes back with the process.  From the end of ``main`` to the
    process being reaped took about 1.7 ms on ``construct`` and 3 ms on an
    ALS run, where numpy is loaded; a normal exit with the collector frozen
    took 4.8 ms and 11 ms.  A document that cannot be flushed (a full disk,
    a closed pipe) is an input error like any failed write: one ``error:``
    line and exit 2.
    """
    for name in BLAS_THREADS:  # before anything imports numpy
        os.environ.setdefault(name, "1")
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
