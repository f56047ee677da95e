"""Serialization for vectors, subspaces, product vectors, and reports.

JSON is emitted by a small canonical writer rather than the stdlib encoder
so output is byte-identical across runs: insertion-ordered keys, floats
always printed with 17 significant digits, exact scalars always as strings.

Vectors are written from rows of their encoded entries: ``rows_document``
and ``csv_matrices`` take such rows as they are, so a graded ``construct``
hands them its closed-form rows of "0", "1" and "-1" with no scalar ever
made, and ``subspace_document`` and ``vectors_document`` encode a basis
into rows first.  The module imports only ``grading`` at load; the scalar
and vector types it decodes into, and ``INFINITY``, are imported by the
functions that use them, so a graded ``construct`` compiles neither
``fields``, ``linalg`` nor ``construct``.  Nor does a graded oracle
command: an F_p point and the ``classify`` document have one writer each
on int residues, ``ff._point_entry`` and ``ff._classify_document``, which
those commands call directly and this module's encoders call for an F_p
``ProductVector`` and a ``ClassifyReport``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .grading import DENSE_BUDGET, Dims

if TYPE_CHECKING:  # each command loads only the layers it runs
    from .construct import ProductVector
    from .ff import ClassifyReport
    from .fields import Field
    from .linalg import StateVector, Subspace, VerificationReport
    from .upb import UpbRecipe, UpbReport


def _fmt_float(x: float) -> str:
    return "%.17g" % x


def _plain(s: str) -> bool:
    """Whether ``s`` needs no JSON escape: printable ASCII with no quote or
    backslash.  So does a list of strings whose concatenation is plain."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _quote(s: str) -> str:
    """``json.dumps(s)``; only a string that needs an escape loads the
    ``json`` package."""
    if _plain(s):
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(s)


def _scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
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
            out.append(_quote(k))
            out.append(": ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        # a flat list is one line; exact coefficients are all strings, checked
        # for escapes in one pass over their concatenation
        types = set(map(type, seq))
        if types == {str}:
            if _plain("".join(seq)):
                out.append('["' + '", "'.join(seq) + '"]')
            else:
                out.append("[" + ", ".join(map(_quote, seq)) + "]")
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
        from fractions import Fraction

        return Fraction(raw)
    if field.kind == "fp":
        from .fields import Fp

        return Fp(int(raw), field.p)
    return complex(raw["re"], raw["im"])


def encode_point(pt, field: Field):
    from .construct import INFINITY

    if pt is INFINITY:
        return "inf"
    return encode_scalar(field.coerce(pt), field)


def _product_entry(pv: ProductVector) -> dict:
    """The factors, and the expansion while one dense vector of ``total``
    entries passes ``check_dense_size``; past it the factors alone, which
    determine the vector exactly (``document_product_vectors`` reads only
    them).  A point over F_p is written by the oracle's ``ff._point_entry``."""
    if pv.field.kind == "fp":
        from .ff import _point_entry

        return _point_entry(pv.dims, pv.field.p, [[c.value for c in f] for f in pv.factors])
    enc = _scalar_encoder(pv.field)
    entry = {"factors": [list(map(enc, f)) for f in pv.factors]}
    if pv.dims.total <= DENSE_BUDGET:
        entry["coeffs"] = list(map(enc, pv.expand().coeffs))
    return entry


def _document(dims: Dims, label: str, exact: bool, entries: list,
              extra: dict | None) -> dict:
    doc = {
        "dims": list(dims.d),
        "N": dims.max_level,
        "field": label,
        "index_order": "lex",
    }
    if not exact:
        doc["approx"] = True
    doc["vectors"] = entries
    if extra:
        doc.update(extra)
    return doc


def rows_document(dims: Dims, rows: list[list], extra: dict | None = None,
                  label: str = "rational", exact: bool = True) -> dict:
    """The document of vectors given as rows of their encoded entries (text
    for an exact field), over the field labelled ``label``."""
    return _document(dims, label, exact, [{"coeffs": row} for row in rows], extra)


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
    from .ff import _classify_document

    return _classify_document(rep.dims, rep.p, *(
        [[[c.value for c in f] for f in pv.factors] for pv in pvs]
        for pvs in (rep.found, rep.missing, rep.extraneous)))


def document_vectors(doc: dict) -> tuple[Dims, Field, list[StateVector]]:
    """Rebuild exact vectors from a parsed JSON document."""
    from .fields import parse_field
    from .linalg import StateVector

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
    from .construct import ProductVector
    from .fields import parse_field

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


def csv_matrices(vectors: list, dims: Dims) -> str:
    """One d1 x d2 matrix per vector, blank line between matrices.

    A vector is an exact ``StateVector`` of ``dims``, or a row of its
    entries as text (a list).  Row i of a matrix is the lex-ordered slice
    ``coeffs[i*d2:(i+1)*d2]``.
    """
    if dims.k != 2:
        raise ValueError("csv output is defined for two factors only")
    d1, d2 = dims.d
    blocks = []
    for v in vectors:
        if isinstance(v, list):
            cells = v
        else:
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
    from .linalg import StateVector

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
