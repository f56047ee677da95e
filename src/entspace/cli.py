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
import os
import sys
from fractions import Fraction

from .grading import Dims, level_counts, parse_dims
from .linalg import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    NO_WITNESS,
    WITNESS,
    BudgetExceededError,
)

# The parser and ``main`` need only the names above.  Each command imports
# the layers it runs, so a process loads (and, with bytecode caching off,
# compiles) no other: numpy loads only for ALS and for enumerations too
# large for plain ints, and exact elimination only for ``upb`` and
# ``example2``.

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


def _check_example1(dims: Dims) -> None:
    if dims.k != 2:
        raise ValueError("example1 needs exactly two factors")


def _resolve_space(dims: Dims, name: str):
    """Named space -> (subspace or product-vector list, expected verdict)."""
    from .construct import (
        antidiagonal_zero_space, entangled_complement, entangled_level,
        entangled_subspace,
    )

    if name == "S":
        return entangled_subspace(dims), NO_WITNESS
    if name == "Sperp":
        return entangled_complement(dims), WITNESS
    if name.startswith("level:"):
        return entangled_level(dims, _level_selector(name)), NO_WITNESS
    if name == "example1":
        _check_example1(dims)
        return antidiagonal_zero_space(dims.d[0], dims.d[1]), NO_WITNESS
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


def _als_space(dims: Dims, name: str):
    """Named space -> (``max_product_overlap`` input, expected verdict).

    A graded space goes in unbuilt, as its ``LevelSums`` form; the example2
    spaces are built exactly, before numpy loads, and go in as orthonormal
    rows.
    """
    if name in ("S", "Sperp", "example1") or name.startswith("level:"):
        from .verify import LevelSums, check_form_size

        if name == "example1":
            _check_example1(dims)
        # refused before the list of levels is written down
        check_form_size(dims, dims.max_level + 1)
        every = tuple(range(dims.max_level + 1))
        if name == "Sperp":
            return LevelSums(every, sums=True), WITNESS
        if name.startswith("level:"):
            return LevelSums((_level_selector(name),)), NO_WITNESS
        return LevelSums(every), NO_WITNESS
    target, expected = _resolve_space(dims, name)
    target = _as_subspace(target)
    from .verify import orthonormal_basis

    return orthonormal_basis(target), expected


def _parse_points(text: str) -> list:
    from .construct import INFINITY

    pts = []
    for part in text.split(","):
        part = part.strip()
        if part in ("inf", "oo"):
            pts.append(INFINITY)
        else:
            try:
                pts.append(Fraction(part))
            except ZeroDivisionError:
                raise ValueError(f"bad parameter point {part!r}") from None
    return pts


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
    from .fields import RATIONAL
    from .serialize import (
        csv_matrices, json_dumps, product_vectors_document, subspace_document,
    )

    dims = parse_dims(args.dims)
    target, _ = _resolve_space(dims, args.space)
    if isinstance(target, list):  # product vectors (example2-R)
        if args.format == "csv":
            expansions = [pv.expand() for pv in target]
            _write(csv_matrices(expansions, dims), args.out)
        else:
            doc = product_vectors_document(
                dims, RATIONAL, target, {"space": args.space}
            )
            _write(json_dumps(doc), args.out)
        return 0
    if args.format == "csv":
        if dims.k != 2:
            raise ValueError("csv output needs exactly two factors")
        _write(csv_matrices(list(target.rows), dims), args.out)
    else:
        _write(json_dumps(subspace_document(target, {"space": args.space})), args.out)
    return 0


def cmd_upb(args: argparse.Namespace) -> int:
    from .construct import INFINITY
    from .fields import RATIONAL
    from .serialize import (
        encode_upb_recipe, encode_upb_report, json_dumps, product_vectors_document,
    )
    from .upb import minimal_upb, upb_of_size, verify_upb

    dims = parse_dims(args.dims)
    points = None if args.lambdas is None else _parse_points(args.lambdas)
    if args.min:
        vectors = minimal_upb(dims, points)
        recipe_entry = {
            "size": len(vectors),
            "levels": [],
            "points": [
                "inf" if p is INFINITY else str(RATIONAL.coerce(p))
                for p in (points or [Fraction(t) for t in range(dims.max_level + 1)])
            ],
            "dropped": [],
        }
    else:
        record, vectors = upb_of_size(dims, args.size, points)
        recipe_entry = encode_upb_recipe(record, RATIONAL)
    report = verify_upb(vectors, dims, primes=args.primes)
    doc = product_vectors_document(
        dims, RATIONAL, vectors,
        {"upb": recipe_entry, "report": encode_upb_report(report)},
    )
    _write(json_dumps(doc), args.out)
    return 0 if report.is_upb else 3


def cmd_verify(args: argparse.Namespace) -> int:
    # before the ALS search loads numpy: a module compiled after numpy raises
    # the run's peak RSS
    from .serialize import encode_report, json_dumps

    dims = parse_dims(args.dims)
    if args.method == "ff":
        from .ff import ff_verify

        target, expected = _resolve_space(dims, args.space)
        reports = ff_verify(_as_subspace(target), dims, args.primes)
    else:
        from .verify import max_product_overlap

        space, expected = _als_space(dims, args.space)
        result = max_product_overlap(
            space, dims,
            restarts=args.restarts, max_sweeps=args.max_sweeps,
            tol=args.tol, seed=args.seed,
        )
        reports = [result.report]
    verdict = WITNESS if any(r.verdict == WITNESS for r in reports) else NO_WITNESS
    doc = {
        "dims": list(dims.d),
        "space": args.space,
        "method": args.method,
        "verdict": verdict,
        "expected": expected,
        "reports": [encode_report(r) for r in reports],
    }
    _write(json_dumps(doc), args.out)
    return 0 if verdict == expected else 3


def cmd_classify(args: argparse.Namespace) -> int:
    from .ff import classify_product_vectors_fp
    from .serialize import encode_classify_report, json_dumps

    report = classify_product_vectors_fp(parse_dims(args.dims), args.prime)
    _write(json_dumps(encode_classify_report(report)), args.out)
    return 0 if report.passed else 3


def cmd_onb(args: argparse.Namespace) -> int:
    from .examples import character_basis
    from .fields import COMPLEX
    from .serialize import json_dumps, vectors_document

    dims = parse_dims(args.dims)
    basis = character_basis(dims, args.level)
    doc = vectors_document(dims, COMPLEX, basis, {"level": args.level})
    _write(json_dumps(doc), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entspace",
        description="Completely entangled subspaces and unextendible "
                    "product bases, with exact and numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dims", required=True, help="comma-separated local dimensions, e.g. 2,3")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=non_negative_int, default=0)

    p = sub.add_parser("dims", help="level-count table and dimensions")
    add_common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("construct", help="write a basis of a named space")
    add_common(p)
    p.add_argument("--space", required=True, help=f"one of {SPACES}")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("upb", help="build and audit an unextendible product basis")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--min", action="store_true", help="minimal size N+1")
    group.add_argument("--size", type=int, help="requested size (two factors only)")
    p.add_argument("--lambdas", default=None,
                   help="comma-separated parameter points, rationals or inf")
    p.add_argument("--primes", type=prime_list, default=None,
                   help="comma-separated oracle primes")
    p.set_defaults(func=cmd_upb)

    p = sub.add_parser("verify", help="hunt for product vectors in a named space")
    add_common(p)
    p.add_argument("--space", required=True, help=f"one of {SPACES}")
    p.add_argument("--method", choices=("ff", "als"), default="ff")
    p.add_argument("--primes", type=prime_list, default=None,
                   help="comma-separated oracle primes")
    p.add_argument("--restarts", type=positive_int, default=DEFAULT_RESTARTS)
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument("--max-sweeps", dest="max_sweeps", type=positive_int,
                   default=DEFAULT_MAX_SWEEPS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="product vectors in the complement over F_p")
    add_common(p)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("onb", help="character orthonormal basis of one level")
    add_common(p)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_onb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console entry point: ``main`` on ``sys.argv``, then exit at once.

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
