#!/usr/bin/env python3
"""Show which lines of the package's functions the command line and the
README's library example reach.

A function-body line is the first line of a statement inside a function or
method of ``src/entspace`` (a docstring excluded, a nested function's body
counted as its own).  Every argv of ``scripts/same_outputs.py``'s default
list at its default seeds, 1 and 4242 (``--argv`` replaces the list), runs in
this process through ``cli.main``, with its exit caught, and then the
``python`` block under README's ``## Library`` runs; ``sys.settrace``
records the lines each reaches.  The console entry point's own lines
(``cli.run``: the collector, the BLAS threads, ``os._exit``) are not
counted as reached.  The report gives, per
module, its function-body lines, those the argv reach, and those the argv
or README reach, then the totals and the functions that neither reaches.

    python scripts/reach_report.py
    python scripts/reach_report.py --argv "dims --dims 3,3" --argv "onb --dims 2,2 --level 1"
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entspace"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def body_lines(tree: ast.Module) -> dict[str, set[int]]:
    """Qualified function name -> the first lines of its body's statements."""
    out: dict[str, set[int]] = {}

    def statements(node, lines: set[int]) -> None:
        if isinstance(node, ast.stmt):
            lines.add(node.lineno)
        if not isinstance(node, _SCOPES):  # a nested scope's body is its own
            for child in ast.iter_child_nodes(node):
                statements(child, lines)

    def scopes(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                scopes(child, prefix + child.name + ".")
                continue
            if isinstance(child, _SCOPES):
                name = prefix + child.name
                body = child.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                        and isinstance(body[0].value.value, str):
                    body = body[1:]  # the docstring
                lines = out.setdefault(name, set())
                for stmt in body:
                    statements(stmt, lines)
                prefix_here = name + "."
            else:
                prefix_here = prefix
            scopes(child, prefix_here)

    scopes(tree, "")
    return out


def package_functions() -> dict[str, tuple[str, dict[str, set[int]]]]:
    """Module name -> (its file, its functions' body lines), for every
    package module."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        out[module] = str(path), body_lines(ast.parse(path.read_text(encoding="utf-8")))
    return out


class LineTracer:
    """``sys.settrace`` hook recording (file, line) in the package's frames."""

    def __init__(self) -> None:
        self.lines: set[tuple[str, int]] = set()
        self._prefix = str(PACKAGE) + os.sep

    def __call__(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(self._prefix):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def installed(self):
        previous = sys.gettrace()
        sys.settrace(self)
        try:
            yield self
        finally:
            sys.settrace(previous)


def run_argv(argvs, tracer: LineTracer) -> None:
    """Each argv through ``cli.main`` in this process, its ``SystemExit``
    caught; output goes nowhere and any ``--out`` file into a temporary
    directory."""
    import entspace.cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for text in argvs:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                        contextlib.suppress(SystemExit), tracer.installed():
                    entspace.cli.main(text.split())
        finally:
            os.chdir(cwd)


def readme_block() -> str:
    """The ``python`` block under README's ``## Library`` heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def _same_outputs():
    sys.dont_write_bytecode = True  # leave scripts/ and perfbench/ as they are
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "scripts" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(functions, by_argv: set, with_readme: set) -> str:
    lines = [f"{'module':<28}{'body lines':>11}{'argv':>7}{'+README':>9}"]
    totals = [0, 0, 0]
    unreached = []
    for module, (path, funcs) in functions.items():
        counts = [0, 0, 0]
        for name, body in funcs.items():
            hits_argv = {n for n in body if (path, n) in by_argv}
            hits = {n for n in body if (path, n) in with_readme}
            counts[0] += len(body)
            counts[1] += len(hits_argv)
            counts[2] += len(hits)
            if body and not hits:
                unreached.append(f"  {module}.{name} ({len(body)} lines)")
        totals = [a + b for a, b in zip(totals, counts)]
        lines.append(f"{module:<28}{counts[0]:>11}{counts[1]:>7}{counts[2]:>9}")
    lines.append(f"{'total':<28}{totals[0]:>11}{totals[1]:>7}{totals[2]:>9}")
    lines.append(f"functions neither reaches: {len(unreached)}")
    return "\n".join(lines + unreached)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--argv", action="append", dest="argvs", metavar="ARGV",
                    help="run only this quoted argv after 'entspace'; repeatable")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))
    argvs = args.argvs if args.argvs is not None else _same_outputs().default_argvs([1, 4242])
    tracer = LineTracer()
    run_argv(argvs, tracer)
    by_argv = set(tracer.lines)
    with contextlib.redirect_stdout(io.StringIO()), tracer.installed():
        exec(compile(readme_block(), "README.md", "exec"), {})
    print(f"{len(argvs)} argv and README's library block")
    print(report(package_functions(), by_argv, tracer.lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
