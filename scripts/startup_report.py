#!/usr/bin/env python3
"""Show what a CLI command imports at start-up, and what each import costs.

Each ARGV is one quoted string, the arguments after ``entspace``.  It runs
as ``python -m entspace.cli`` in fresh interpreters with ``-X importtime``
and PYTHONDONTWRITEBYTECODE=1, so no bytecode cache is written and, in a
checkout without one, every package module compiles from source.  The
report lists every module the command loads after the interpreter's own
start-up (``site``): its median self time over the runs, whether it is a
package, standard-library or third-party module, and for a package module
the code it compiles, in bytes of source with docstrings and comments
stripped (``ast.unparse`` of the module without its docstrings).  Then the
totals: the package code includes ``entspace.cli``, which runs as
``__main__`` and so is not an import, and the run's peak RSS, the median
over the runs of the child's ``ru_maxrss`` as ``os.wait4`` reports it.
With no ARGV, one argv per command runs, ``construct`` of example2-M and
the oracle on example2-R, and ALS on S and on Sperp.

    python scripts/startup_report.py
    python scripts/startup_report.py "verify --dims 3,3 --space S --method ff --primes 13"
"""

import argparse
import ast
import os
import statistics
import subprocess
import sys
from pathlib import Path

from entspace.commands import positive_int

SRC = Path(__file__).resolve().parent.parent / "src"
# one argv per command, example2 (written and checked from its closed
# forms) under construct and the oracle, and the ALS search with and
# without a witness
DEFAULT_ARGVS = (
    "dims --dims 3,3",
    "construct --dims 3,3 --space S",
    "construct --dims 4,4 --space example2-M",
    "upb --dims 3,3 --min --primes 5",
    "verify --dims 3,3 --space S --method ff --primes 13",
    "verify --dims 4,4 --space example2-R --method ff --primes 7",
    "classify --dims 2,3 --prime 7",
    "onb --dims 3,3 --level 2",
    "verify --dims 3,3 --space S --method als --restarts 4",
    "verify --dims 3,3 --space Sperp --method als --restarts 4",
)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_bytes(module: str) -> int:
    """Bytes of a package module's source without docstrings or comments."""
    path = SRC.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            node.body = node.body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).encode("utf-8"))


def _kind(module: str) -> str:
    top = module.split(".")[0]
    if top == "entspace":
        return "package"
    return "stdlib" if top in sys.stdlib_module_names else "third-party"


def import_times(argv: str) -> tuple[dict[str, int], int]:
    """Self time in microseconds of each module one run of ``argv`` loads
    after ``site``, in load order, and the run's peak RSS in KB."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-X", "importtime", "-m", "entspace.cli",
                           *argv.split()],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    times: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():  # the header
            continue
        module = name.strip()
        if module == "site" and not name[1:].startswith(" "):  # a top-level import
            times.clear()  # everything so far is the interpreter's own start-up
            continue
        times[module] = times.get(module, 0) + int(self_us)
    return times, usage.ru_maxrss


def report(argv: str, repeats: int) -> str:
    runs, peaks = zip(*(import_times(argv) for _ in range(repeats)))
    order = list(dict.fromkeys(name for run in runs for name in run))
    median = {name: statistics.median(run.get(name, 0) for run in runs) for name in order}
    lines = [f"entspace {argv}  (median of {repeats} runs, self time in ms; "
             f"package code in bytes, docstrings and comments stripped)"]
    totals = dict.fromkeys(("package", "stdlib", "third-party"), 0.0)
    code = code_bytes("entspace.cli")
    lines.append(f"  {'-':>8}  {'package':<11}  {code:>6}  entspace.cli (as __main__)")
    for name in order:
        kind = _kind(name)
        totals[kind] += median[name]
        size = ""
        if kind == "package":
            size = code_bytes(name)
            code += size
        lines.append(f"  {median[name] / 1000:8.2f}  {kind:<11}  {size:>6}  {name}")
    lines.append("  " + "  ".join(f"{kind} {t / 1000:.2f}" for kind, t in totals.items())
                 + f"  total {sum(totals.values()) / 1000:.2f}"
                 + f"  package code {code} bytes ({code / 1000:.1f} KB)"
                 + f"  peak RSS {statistics.median(peaks) / 1024:.1f} MB")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("argvs", nargs="*", metavar="ARGV", default=list(DEFAULT_ARGVS),
                    help="one quoted argv after 'entspace' per command line")
    ap.add_argument("--repeats", type=positive_int, default=5,
                    help="fresh interpreters per argv (default 5)")
    args = ap.parse_args(argv)
    for text in args.argvs:
        print(report(text, args.repeats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
