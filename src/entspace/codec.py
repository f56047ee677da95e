"""The object layer of serialization: encoders and readers of the library's
scalars, vectors, subspaces, product vectors and reports.

Each encoder turns its object into rows of encoded entries or a plain dict
for the text layer, ``entspace.serialize``.  No command loads this module:
each writes its document as text from what it computes, and these encoders
are the tests' cross-check of those writers: ``construct``'s closed-form
rows, example2-R's vectors and ``onb``'s character rows (``producttext``),
the oracle's from its int residues (``ff._point_entry``, which also writes
a point over F_p here, and ``ff._classify_document``), ``upb``'s from its
recipe (``upbtext``), and the ALS search's from its floats
(``verify._als_entry``).  The objects it encodes and decodes are
``entspace.linalg``'s and ``entspace.construct``'s.
"""

from __future__ import annotations

from fractions import Fraction

from .construct import ClassifyReport, ProductVector, UpbReport
from .ff import _classify_document, _point_entry
from .grading import DENSE_BUDGET, INFINITY, Dims, VerificationReport
from .linalg import RATIONAL, Field, Fp, StateVector, Subspace, parse_field
from .serialize import _complex_entry, _document, rows_document
from .upbtext import UpbRecipe


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


def _product_entry(pv: ProductVector) -> dict:
    """The factors, and the expansion while one dense vector of ``total``
    entries passes ``check_dense_size``; past it the factors alone, which
    determine the vector exactly (``document_product_vectors`` reads only
    them).  A point over F_p is written by the oracle's ``ff._point_entry``."""
    if pv.field.kind == "fp":
        return _point_entry(pv.dims, pv.field.p, [[c.value for c in f] for f in pv.factors])
    enc = _scalar_encoder(pv.field)
    entry = {"factors": [list(map(enc, f)) for f in pv.factors]}
    if pv.dims.total <= DENSE_BUDGET:
        entry["coeffs"] = list(map(enc, pv.expand().coeffs))
    return entry


def encode_rows(vectors) -> list[list]:
    """Each vector's entries as the documents write them."""
    return [list(map(_scalar_encoder(v.field), v.coeffs)) for v in vectors]


def subspace_document(s: Subspace, extra: dict | None = None) -> dict:
    return rows_document(s.dims, encode_rows(s.rows), extra,
                         s.field.label, s.field.exact)


def vectors_document(
    dims: Dims, field: Field, vectors: list[StateVector], extra: dict | None = None
) -> dict:
    return rows_document(dims, encode_rows(vectors), extra,
                         field.label, field.exact)


def product_vectors_document(
    dims: Dims, field: Field, vectors: list[ProductVector], extra: dict | None = None
) -> dict:
    return _document(dims, field.label, field.exact,
                     [_product_entry(pv) for pv in vectors], extra)


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
    """The document of the oracle's int classify writer, ``ff._classify_document``."""
    return _classify_document(rep.dims, rep.p, *(
        [[[c.value for c in f] for f in pv.factors] for pv in pvs]
        for pvs in (rep.found, rep.missing, rep.extraneous)))


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


def parse_csv(text: str, field: Field | None = None) -> list[StateVector]:
    """Inverse of csv_matrices for rational matrices."""
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
