"""The command handlers, one module per command, and what they share.

``entspace.cli`` reads the argv and dispatches; the command ``name`` is
the module ``entspace.commands.<name>``, whose ``OPTIONS`` table declares
the options it reads beside ``--dims`` and ``--out`` (each as a flag and
its argparse ``add_argument`` keywords) and whose ``run`` handles a parsed
argv.  ``cli`` loads only the invoked command's module, so a run compiles
one handler, and nothing here loads argparse: a type function imports it
only to refuse a value, which argparse then reports.  Each handler imports
the layers it runs, and each writes text: ``construct`` its closed-form
rows, and example2-R's Vandermonde vectors, with ``serialize`` alone (and
``producttext``), ``onb`` its character rows the same way, the oracle and
``upb`` their documents from int hits and recipes, and the ALS search from
its floats.  No command loads the object encoders of ``codec`` or the
exact layers, and numpy loads only for ALS and for enumerations too large
for plain ints.  No named space is eliminated: each is a ``LevelSums`` or
a ``GroupSums``, or example2-R's points, whose Vandermonde vectors span
Sperp.
"""

from __future__ import annotations

import sys

from ..grading import INFINITY, NO_WITNESS, SPLIT_ANTIDIAGONAL, WITNESS, Dims, \
    LevelSums

SPACES = ("S", "Sperp", "level:n", "example1", "example2-M", "example2-R")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def bad_value(message: str) -> Exception:
    """argparse's error for a refused value: only a refusal loads argparse."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise bad_value(f"must be at least 1, got {text}")
    return n


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise bad_value(f"must be at least 0, got {text}")
    return n


def prime_list(text: str) -> tuple[int, ...]:
    """Comma-separated oracle primes, each once; the oracle checks primality."""
    primes = tuple(int(p) for p in text.split(","))
    if len(set(primes)) != len(primes):
        raise bad_value(f"repeated prime in {text}")
    return primes


def _named_space(dims: Dims, name: str):
    """Named space -> (space, expected verdict).

    A space comes back unbuilt: a graded space as its ``LevelSums``,
    example2-M as its ``GroupSums`` and example2-R as its parameter points.
    """
    every = range(dims.max_level + 1)
    if name == "S":
        return LevelSums(every), NO_WITNESS
    if name == "Sperp":
        return LevelSums(every, sums=True), WITNESS
    if name.startswith("level:"):
        try:  # a level has one name: no +, space, _, leading 0 or non-ASCII digit
            level = int(name[len("level:"):])
            if name == f"level:{level}":
                return LevelSums((level,)), NO_WITNESS
        except ValueError:
            pass
        raise ValueError(f"bad level selector {name!r}")
    if name == "example1":
        if dims.k != 2:
            raise ValueError("example1 needs exactly two factors")
        return LevelSums(every), NO_WITNESS
    if name in ("example2-M", "example2-R"):
        if dims.d != (4, 4):
            raise ValueError("example2 is defined for dims 4,4")
        if name == "example2-M":
            return SPLIT_ANTIDIAGONAL, NO_WITNESS
        return [*every, INFINITY], WITNESS
    raise ValueError(f"unknown space {name!r}; choose from {SPACES}")
