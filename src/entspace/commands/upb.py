"""``upb``: an unextendible product basis with its audit, written from its
recipe as text (``entspace.upbtext``)."""

from __future__ import annotations

from ..grading import parse_dims
from . import _write, prime_list


OPTIONS = (
    ("--min", {"action": "store_true", "help": "minimal size N+1"}),
    ("--size", {"type": int, "help": "requested size (above N+1, two factors only)"}),
    ("--lambdas", {"default": None,
                   "help": "comma-separated parameter points, rationals or inf"}),
    ("--primes", {"type": prime_list, "default": None,
                  "help": "comma-separated oracle primes"}),
)
# exactly one of these is given
ONE_OF = ("--min", "--size")


def run(args) -> int:
    from ..serialize import json_dumps
    from ..upbtext import _audit_entry, _check_point_digits, _parse_points, \
        _upb_document, _upb_recipe

    dims = parse_dims(args.dims)
    points = None if args.lambdas is None else _parse_points(args.lambdas, dims.max_level)
    recipe = _upb_recipe(dims, dims.max_level + 1 if args.min else args.size, points)
    report = _audit_entry(recipe, args.primes)
    if points is not None:  # last, as only writing the document would fail
        _check_point_digits(args.lambdas, points, dims.max_level)
    _write(json_dumps(_upb_document(recipe, report)), args.out)
    return 0 if report["is_upb"] else 3
