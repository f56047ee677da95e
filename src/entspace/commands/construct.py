"""``construct``: a basis of a named space, as JSON or CSV."""

from __future__ import annotations

import argparse

from ..grading import LevelSums, _check_level_rows, _group_entries, _level_groups, \
    parse_dims
from . import SPACES, _named_space, _write


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, help=f"one of {SPACES}")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def run(args: argparse.Namespace) -> int:
    from ..serialize import csv_matrices, json_dumps, rows_document

    dims = parse_dims(args.dims)
    target, _ = _named_space(dims, args.space)
    if isinstance(target, list):  # product vectors (example2-R)
        if args.format == "csv":
            _write(csv_matrices([pv.expand() for pv in target], dims), args.out)
        else:
            from ..codec import product_vectors_document
            from ..fields import RATIONAL

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
        from ..codec import encode_rows

        rows = encode_rows(target.rows)
    if args.format == "csv":
        if dims.k != 2:
            raise ValueError("csv output needs exactly two factors")
        _write(csv_matrices(rows, dims), args.out)
    else:
        _write(json_dumps(rows_document(dims, rows, {"space": args.space})), args.out)
    return 0
