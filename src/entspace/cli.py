"""Command-line front end.

Subcommands map one-to-one onto the library: ``dims`` (level-count table),
``construct`` (exact bases), ``upb`` (product bases with embedded audit),
``verify`` (finite-field or numerical check of a named space), ``classify``
(product vectors in the complement over a prime field), and ``onb``
(per-level character basis).  Exit codes: 0 success, 2 invalid input,
3 verification contradiction.

This module holds the option reader, the parser, ``main`` and the console
entry point ``run``.  Each command's options and handler are its module of
``entspace.commands``, which a run loads for that command alone, so a run
compiles only the handler it runs.  A well-formed argv is read from the
option tables by ``read_argv`` and loads no ``argparse`` (nor the
``gettext`` and ``locale`` it loads); any other argv goes to the parser,
which alone writes usage, help and errors.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .grading import BudgetExceededError

# command -> its help.  The command's other options and its handler are
# the ``OPTIONS`` and ``run`` of its module, ``entspace.commands.<command>``.
COMMANDS = {
    "dims": "level-count table and dimensions",
    "construct": "write a basis of a named space",
    "upb": "build and audit an unextendible product basis",
    "verify": "hunt for product vectors in a named space",
    "classify": "product vectors in the complement over F_p",
    "onb": "character orthonormal basis of one level",
}
# the options every command reads, before its own: (flag, add_argument keywords)
OPTIONS = (
    ("--dims", {"required": True, "help": "comma-separated local dimensions, e.g. 2,3"}),
    ("--out", {"default": None, "help": "output path (default stdout)"}),
)


def _command(name: str):
    # __import__ is what an import statement runs, which -X importtime
    # reports (importlib.import_module is not)
    return __import__(f"{__package__}.commands.{name}", fromlist=["run"])


def build_parser():
    """The command-line parser, built from the ``OPTIONS`` tables that
    ``read_argv`` reads.  ``main`` builds it only for an argv the reader
    declines, so argparse loads only for help and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="entspace",
        description="Completely entangled subspaces and unextendible "
                    "product bases, with exact and numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        command = _command(name)
        p = sub.add_parser(name, help=help_text)
        one_of = getattr(command, "ONE_OF", ())
        group = p.add_mutually_exclusive_group(required=True) if one_of else None
        for flag, kwargs in OPTIONS + command.OPTIONS:
            (group if flag in one_of else p).add_argument(flag, **kwargs)
        p.set_defaults(func=command.run)
    return parser


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the parser makes of a plain argv, or None for the parser.

    Plain is a command, then each of its options at most once by its full
    name, as ``--name value`` (a value not led by ``-``) or ``--name=value``;
    each value passes its option's type and choices, the required options
    and one of a one-of are given, and the rest take their defaults as
    argparse gives them.  Help, abbreviations, repeats, ``--``, values led
    by ``-`` and refused values are not plain.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command = _command(argv[0])
    table = dict(OPTIONS + command.OPTIONS)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        kwargs = table.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        try:
            value = kwargs.get("type", str)(value)
        except Exception:  # the parser reports the refusal, or raises it again
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    one_of = getattr(command, "ONE_OF", ())
    if one_of and sum(flag in given for flag in one_of) != 1:
        return None
    args = {"command": argv[0], "func": command.run}
    for flag, kwargs in table.items():
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        elif kwargs.get("action") == "store_true":
            value = False
        else:
            value = kwargs.get("default")
        args[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    """Run the command of ``argv`` (default ``sys.argv[1:]``): its exit code.

    A well-formed argv is read by ``read_argv``; any other goes to the
    parser, which prints usage, help or an error and raises ``SystemExit``.
    A handler's input error, or its running out of memory, is one
    ``error:`` line and exit 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, ValueError, OSError) as exc:
        message = str(exc)
    except MemoryError:  # it carries no text
        message = "out of memory"
    # written once the exception has freed the frames and all they held:
    # inside its except block the print could run out of memory itself
    print(f"error: {message}", file=sys.stderr)
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
