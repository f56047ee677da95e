"""``classify``: the product vectors of the complement over F_p."""

from __future__ import annotations

from ..grading import parse_dims
from . import _write


OPTIONS = (("--prime", {"type": int, "required": True}),)


def run(args) -> int:
    from ..ff import _classify_document, _classify_points
    from ..serialize import json_dumps

    dims = parse_dims(args.dims)
    doc = _classify_document(dims, args.prime, *_classify_points(dims, args.prime))
    _write(json_dumps(doc), args.out)
    return 0 if doc["passed"] else 3
