"""``onb``: the character orthonormal basis of one level."""

from __future__ import annotations

from ..grading import parse_dims
from . import _write


OPTIONS = (("--level", {"type": int, "required": True}),)


def run(args) -> int:
    from ..producttext import _character_rows
    from ..serialize import _complex_entry, json_dumps, rows_document

    dims = parse_dims(args.dims)
    rows = [list(map(_complex_entry, row)) for row in _character_rows(dims, args.level)]
    doc = rows_document(dims, rows, {"level": args.level}, "complex128-approx", False)
    _write(json_dumps(doc), args.out)
    return 0
