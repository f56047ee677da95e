"""``onb``: the character orthonormal basis of one level."""

from __future__ import annotations

from ..grading import parse_dims
from . import _write


OPTIONS = (("--level", {"type": int, "required": True}),)


def run(args) -> int:
    from ..codec import vectors_document
    from ..examples import character_basis
    from ..fields import COMPLEX
    from ..serialize import json_dumps

    dims = parse_dims(args.dims)
    basis = character_basis(dims, args.level)
    doc = vectors_document(dims, COMPLEX, basis, {"level": args.level})
    _write(json_dumps(doc), args.out)
    return 0
