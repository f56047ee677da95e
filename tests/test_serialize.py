"""The flat JSON and CSV writers against the per-cell writers they replaced."""

import json

import pytest
from hypothesis import example, given, strategies as st

from entspace import (
    COMPLEX,
    Dims,
    RATIONAL,
    antidiagonal_zero_space,
    character_basis,
    classify_product_vectors_fp,
    entangled_complement,
    entangled_level,
    entangled_subspace,
    level_sum_line,
    max_product_overlap,
    minimal_upb,
    orthonormal_basis,
    prime_field,
    verify_upb,
)
from entspace.codec import (
    encode_classify_report,
    encode_report,
    encode_upb_report,
    product_vectors_document,
    subspace_document,
    vectors_document,
)
from entspace.serialize import csv_matrices, json_dumps

F7 = prime_field(7)
TWO_FACTOR = [Dims(d) for d in ((2, 2), (2, 3), (3, 2), (3, 4), (5, 3), (4, 4))]


def reference_csv_matrices(vectors, dims):
    d1, d2 = dims.d
    blocks = []
    for v in vectors:
        rows = []
        for i in range(d1):
            cells = [str(v.coeffs[dims.position((i, j))]) for j in range(d2)]
            rows.append(",".join(cells))
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


def reference_encode_scalar(c, field):
    if field.kind == "rational":
        return str(c)
    if field.kind == "fp":
        return str(c.value)
    z = complex(c)
    return {"re": z.real, "im": z.imag}


def reference_emit(obj, indent, out):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append("  " * (indent + 1) + json.dumps(k) + ": ")
            reference_emit(v, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
        elif all(not isinstance(v, (dict, list, tuple)) for v in seq):
            out.append("[")
            for i, v in enumerate(seq):
                reference_emit(v, indent, out)
                out.append(", " if i < len(seq) - 1 else "]")
        else:
            out.append("[\n")
            for i, v in enumerate(seq):
                out.append("  " * (indent + 1))
                reference_emit(v, indent + 1, out)
                out.append(",\n" if i < len(seq) - 1 else "\n")
            out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append("%.17g" % obj)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_json_dumps(obj):
    out = []
    reference_emit(obj, 0, out)
    return "".join(out) + "\n"


def assert_same_json(doc):
    assert json_dumps(doc) == reference_json_dumps(doc)


def two_factor_spaces(dims, field):
    yield entangled_subspace(dims, field)
    yield entangled_complement(dims, field)
    yield antidiagonal_zero_space(*dims.d, field)
    for n in range(dims.max_level + 1):
        yield entangled_level(dims, n, field)
        yield level_sum_line(dims, n, field)


@pytest.mark.parametrize("field", [RATIONAL, F7], ids=lambda f: f.label)
@pytest.mark.parametrize("dims", TWO_FACTOR, ids=str)
def test_csv_and_json_match_per_cell_writers(dims, field):
    for s in two_factor_spaces(dims, field):
        rows = list(s.rows)
        assert csv_matrices(rows, dims) == reference_csv_matrices(rows, dims)
        doc = subspace_document(s, {"space": "S"})
        # coefficients are encoded as they always were, one cell at a time
        assert doc["vectors"] == [
            {"coeffs": [reference_encode_scalar(c, field) for c in r.coeffs]}
            for r in rows
        ]
        assert_same_json(doc)


def test_csv_rejects_vectors_of_other_dims():
    with pytest.raises(ValueError, match="do not match"):
        csv_matrices(list(entangled_subspace(Dims((3, 4))).rows), Dims((4, 3)))


def test_product_and_complex_documents_match_reference():
    dims = Dims((2, 3))
    vectors = minimal_upb(dims)
    report = verify_upb(vectors, dims, primes=[5])
    assert_same_json(product_vectors_document(
        dims, RATIONAL, vectors, {"report": encode_upb_report(report)}))
    # complex-float witnesses and metrics from the ALS search
    result = max_product_overlap(
        orthonormal_basis(entangled_complement(dims)), dims, restarts=4, seed=3)
    witness = result.report.witness
    assert witness is not None
    entry = encode_report(result.report)
    assert entry["witness"]["coeffs"] == [
        reference_encode_scalar(c, COMPLEX) for c in witness.expand().coeffs]
    assert_same_json(entry)
    assert_same_json(encode_report(max_product_overlap(
        orthonormal_basis(entangled_subspace(dims)), dims, restarts=4, seed=3).report))
    assert_same_json(vectors_document(dims, COMPLEX, character_basis(dims, 2),
                                      {"level": 2}))
    assert_same_json(encode_classify_report(classify_product_vectors_fp(dims, 7)))


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [{}], {"a": []}, [[], [[]], {"b": {}}], [1, [2, "x"], None],
    ["0", 1, 2.5, True, None], [False, "é\n\"", float("inf"), -0.0],
], ids=repr)
def test_empty_and_nested_lists_match_reference(doc):
    assert_same_json(doc)


json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@given(json_like)
def test_json_writer_matches_reference_on_json_like_values(doc):
    assert_same_json(doc)


@given(st.text(), st.text())
@example('"', "\\")
@example("\n\x00\x1f", "\x7f ~")
@example("\u00e9\u2603", "\ud800\udfff")
@example("", "plain text, 3/4")
def test_strings_are_quoted_as_json_quotes_them(key, value):
    # plain strings are quoted without the json package; the rest go to it
    pairs = [(json_dumps(value), json.dumps(value)),
             (json_dumps([value, key]), json.dumps([value, key])),
             (json_dumps({key: value}), json.dumps({key: value}, indent=2))]
    for got, want in pairs:
        assert got.encode("ascii") == (want + "\n").encode("ascii")


# the escapes that a flat list's one-pass check must see in any item
_ESCAPED = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2603", "\ud800"]


@given(st.lists(st.sampled_from(["0", "1", "-1", "", "1/2"] + _ESCAPED) | st.text(),
                min_size=1))
@example(["0", "", "-1"])
@example(["", ""])
@example(["1", '2"'])
@example(["\\", "u0041"])
def test_flat_string_lists_are_quoted_in_one_pass(items):
    # a list whose concatenation needs no escape is joined at once; any
    # other is quoted item by item, and both must be what json writes
    from entspace.serialize import _quote

    got = json_dumps(items)
    assert got == "[" + ", ".join(map(_quote, items)) + "]\n"
    assert got == json.dumps(items) + "\n"


def test_product_vector_past_the_dense_budget_is_written_from_its_factors(monkeypatch):
    from entspace import ProductVector, vandermonde_vector
    from entspace.grading import DENSE_BUDGET
    from entspace.codec import document_product_vectors

    big = Dims((2,) * 21)  # 2**21 entries, past the budget; 2**20 is within it
    assert big.total // 2 <= DENSE_BUDGET < big.total
    doc = json.loads(json_dumps(product_vectors_document(
        Dims((2, 3)), RATIONAL, [vandermonde_vector(Dims((2, 3)), 2)])))
    assert doc["vectors"][0]["coeffs"] == ["1", "2", "4", "2", "4", "8"]

    def no_expansion(self):
        raise AssertionError("expanded past the dense budget")

    monkeypatch.setattr(ProductVector, "expand", no_expansion)
    for field in (RATIONAL, F7, COMPLEX):
        pv = vandermonde_vector(big, 3, field)
        doc = json.loads(json_dumps(product_vectors_document(big, field, [pv])))
        assert list(doc["vectors"][0]) == ["factors"]
        if field.exact:
            assert document_product_vectors(doc)[2] == [pv]
