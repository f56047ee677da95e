"""The text layer: the canonical JSON writer and the document writers that
take rows of encoded entries.

JSON is emitted by a small canonical writer rather than the stdlib encoder
so output is byte-identical across runs: insertion-ordered keys, floats
always printed with 17 significant digits, exact scalars always as strings.

``rows_document`` and ``csv_matrices`` take vectors as rows of their
encoded entries, so a graded ``construct`` hands them its closed-form rows
of "0", "1" and "-1" with no scalar ever made, and the oracle writes its
documents from its int residues (``ff._point_entry``,
``ff._classify_document``).  The encoders and readers of the library's
objects (scalars, vectors, subspaces, product vectors and reports) are the
object layer, ``entspace.codec``.  This module imports nothing at load, so
a command that writes text compiles no encoder of an object it never
makes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import _lazy_getattr

if TYPE_CHECKING:
    from .grading import Dims

# Aliases that perfbench's tracer looks up here, until it names the homes
# (ROADMAP item 1).  Any other name, such as the ``__path__`` that
# ``from .serialize import ...`` probes for, is an AttributeError that loads
# nothing.
__getattr__ = _lazy_getattr(__name__, dict.fromkeys((
    "subspace_document", "vectors_document", "product_vectors_document",
    "encode_witness", "encode_report", "encode_upb_report", "encode_upb_recipe",
    "encode_classify_report"), "codec"))


def _complex_entry(c) -> dict:
    z = complex(c)
    return {"re": z.real, "im": z.imag}


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
        return "%.17g" % obj
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
