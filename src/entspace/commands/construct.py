"""``construct``: a basis of a named space, as JSON or CSV."""

from __future__ import annotations

from ..grading import LevelSums, _check_level_rows, _group_entries, _level_groups, \
    parse_dims
from . import SPACES, _named_space, _write


OPTIONS = (
    ("--space", {"required": True, "help": f"one of {SPACES}"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
)


def run(args) -> int:
    from ..serialize import _document, csv_matrices, json_dumps

    dims = parse_dims(args.dims)
    target, _ = _named_space(dims, args.space)
    if isinstance(target, list):  # example2-R's points: their Vandermonde vectors
        from ..producttext import _vector_entries

        entries = _vector_entries(dims, target)
        rows = [entry["coeffs"] for entry in entries]
    else:
        # the closed form as text: every entry of a row e_i - e_last or a
        # group sum is 0, 1 or -1, so no scalar is made
        if isinstance(target, LevelSums):
            _check_level_rows(dims, target)
        rows = _group_entries(dims.total, _level_groups(dims, target), target.sums,
                              "0", "1", "-1")
        entries = [{"coeffs": row} for row in rows]
    if args.format == "csv":
        if dims.k != 2:
            raise ValueError("csv output needs exactly two factors")
        _write(csv_matrices(rows, dims), args.out)
    else:
        _write(json_dumps(_document(dims, "rational", True, entries, {"space": args.space})),
               args.out)
    return 0
