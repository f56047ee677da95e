"""Serialization for vectors, subspaces, product vectors, and reports.

JSON is emitted by a small canonical writer rather than the stdlib encoder
so output is byte-identical across runs: insertion-ordered keys, floats
always printed with 17 significant digits, exact scalars always as strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .construct import INFINITY, ProductVector
from .fields import Field, Fp, parse_field
from .grading import Dims
from .linalg import StateVector, Subspace

if TYPE_CHECKING:  # each command loads only the layers it runs
    from .ff import ClassifyReport
    from .linalg import VerificationReport
    from .upb import UpbRecipe, UpbReport


def _fmt_float(x: float) -> str:
    return "%.17g" % x


def _scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # what json.dumps does for a str
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append("  " * (indent + 1))
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        # a flat list is one line; exact coefficients are all strings
        types = set(map(type, seq))
        if types == {str}:
            out.append("[" + ", ".join(map(encode_basestring_ascii, seq)) + "]")
            return
        if not any(issubclass(t, (dict, list, tuple)) for t in types):
            out.append("[" + ", ".join(map(_scalar, seq)) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append("  " * (indent + 1))
            _emit(v, indent + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def json_dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _complex_entry(c) -> dict:
    z = complex(c)
    return {"re": z.real, "im": z.imag}


def _scalar_encoder(field: Field):
    """The function that encodes one scalar of ``field``, to map over vectors."""
    if field.kind == "rational":
        return str
    if field.kind == "fp":
        return lambda c: str(c.value)
    return _complex_entry


def encode_scalar(c, field: Field):
    return _scalar_encoder(field)(c)


def decode_scalar(raw, field: Field):
    if field.kind == "rational":
        return Fraction(raw)
    if field.kind == "fp":
        return Fp(int(raw), field.p)
    return complex(raw["re"], raw["im"])


def encode_point(pt, field: Field):
    if pt is INFINITY:
        return "inf"
    return encode_scalar(field.coerce(pt), field)


def _vector_entry(v: StateVector) -> dict:
    return {"coeffs": list(map(_scalar_encoder(v.field), v.coeffs))}


def _product_entry(pv: ProductVector) -> dict:
    enc = _scalar_encoder(pv.field)
    return {
        "factors": [list(map(enc, f)) for f in pv.factors],
        "coeffs": list(map(enc, pv.expand().coeffs)),
    }


def _header(dims: Dims, field: Field) -> dict:
    doc = {
        "dims": list(dims.d),
        "N": dims.max_level,
        "field": field.label,
        "index_order": "lex",
    }
    if not field.exact:
        doc["approx"] = True
    return doc


def subspace_document(s: Subspace, extra: dict | None = None) -> dict:
    doc = _header(s.dims, s.field)
    doc["vectors"] = [_vector_entry(r) for r in s.rows]
    if extra:
        doc.update(extra)
    return doc


def vectors_document(
    dims: Dims, field: Field, vectors: list[StateVector], extra: dict | None = None
) -> dict:
    doc = _header(dims, field)
    doc["vectors"] = [_vector_entry(v) for v in vectors]
    if extra:
        doc.update(extra)
    return doc


def product_vectors_document(
    dims: Dims, field: Field, vectors: list[ProductVector], extra: dict | None = None
) -> dict:
    doc = _header(dims, field)
    doc["vectors"] = [_product_entry(pv) for pv in vectors]
    if extra:
        doc.update(extra)
    return doc


def encode_witness(pv: ProductVector) -> dict:
    entry = _product_entry(pv)
    return {"field": pv.field.label, **entry}


def encode_report(rep: VerificationReport) -> dict:
    return {
        "method": rep.method,
        "params": dict(rep.params),
        "verdict": rep.verdict,
        "witness": encode_witness(rep.witness) if rep.witness else None,
        "metrics": dict(rep.metrics),
        "certified_dims": dict(rep.certified_dims),
    }


def encode_upb_report(rep: UpbReport) -> dict:
    return {
        "size": rep.size,
        "span_dim": rep.span_dim,
        "independent": rep.independent,
        "meets_min_size": rep.meets_min_size,
        "complement_dim": rep.complement_dim,
        "complement_in_entangled": rep.complement_in_entangled,
        "ff_reports": [encode_report(r) for r in rep.ff_reports],
        "als_report": None,  # the audit runs no ALS search; kept for the format
        "is_upb": rep.is_upb,
        "witness": encode_witness(rep.witness) if rep.witness else None,
    }


def encode_upb_recipe(recipe: UpbRecipe, field: Field) -> dict:
    return {
        "size": recipe.size,
        "levels": list(recipe.levels),
        "points": [encode_point(pt, field) for pt in recipe.points],
        "dropped": [list(idx) for idx in recipe.dropped],
    }


def encode_classify_report(rep: ClassifyReport) -> dict:
    def points(pvs):
        return [_product_entry(pv) for pv in pvs]

    return {
        "dims": list(rep.dims.d),
        "p": rep.p,
        "passed": rep.passed,
        "expected_count": rep.expected_count,
        "found_count": len(rep.found),
        "found": points(rep.found),
        "missing": points(rep.missing),
        "extraneous": points(rep.extraneous),
    }


def document_vectors(doc: dict) -> tuple[Dims, Field, list[StateVector]]:
    """Rebuild exact vectors from a parsed JSON document."""
    dims = Dims(tuple(doc["dims"]))
    field = parse_field(doc["field"])
    vectors = [
        StateVector(
            dims, field,
            tuple(decode_scalar(c, field) for c in entry["coeffs"]),
        )
        for entry in doc["vectors"]
    ]
    return dims, field, vectors


def document_product_vectors(doc: dict) -> tuple[Dims, Field, list[ProductVector]]:
    dims = Dims(tuple(doc["dims"]))
    field = parse_field(doc["field"])
    vectors = [
        ProductVector(
            dims, field,
            tuple(
                tuple(decode_scalar(c, field) for c in f)
                for f in entry["factors"]
            ),
        )
        for entry in doc["vectors"]
    ]
    return dims, field, vectors


def csv_matrices(vectors: list[StateVector], dims: Dims) -> str:
    """One d1 x d2 matrix per vector, blank line between matrices.

    Row i of a matrix is the lex-ordered slice ``coeffs[i*d2:(i+1)*d2]``.
    """
    if dims.k != 2:
        raise ValueError("csv output is defined for two factors only")
    d1, d2 = dims.d
    blocks = []
    for v in vectors:
        if not v.field.exact:
            raise ValueError("csv output is defined for exact scalars only")
        if v.dims != dims:
            raise ValueError(f"vector dims {v.dims.d} do not match {dims.d}")
        cells = list(map(str, v.coeffs))
        blocks.append("\n".join(
            ",".join(cells[i * d2:(i + 1) * d2]) for i in range(d1)
        ))
    return "\n\n".join(blocks) + "\n"


def parse_csv(text: str, field: Field | None = None) -> list[StateVector]:
    """Inverse of csv_matrices for rational matrices."""
    from .fields import RATIONAL

    field = field or RATIONAL
    blocks = [b for b in text.strip().split("\n\n") if b.strip()]
    vectors = []
    for block in blocks:
        rows = [line.split(",") for line in block.strip().splitlines()]
        d1, d2 = len(rows), len(rows[0])
        dims = Dims((d1, d2))
        coeffs = [field.coerce(cell.strip()) for row in rows for cell in row]
        vectors.append(StateVector(dims, field, tuple(coeffs)))
    return vectors
