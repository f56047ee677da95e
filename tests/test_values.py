"""The value and report types: constructors, equality, hash, repr, freezing."""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from entspace import (
    RATIONAL,
    Dims,
    Field,
    Fp,
    StateVector,
    Subspace,
    entangled_subspace,
    prime_field,
    standard_product_vector,
)
from entspace.codec import document_vectors
from entspace.construct import ProductVector
from entspace.ffobjects import ClassifyReport
from entspace.grading import NO_WITNESS, WITNESS, VerificationReport
from entspace.upb import UpbReport
from entspace.verify import AlsResult

D = Dims((2, 2))
PV = standard_product_vector(D, (0, 1))
REPORT = VerificationReport("als", {"seed": 0}, NO_WITNESS, None, {}, {"complex": 1})

# one instance of each type, and whether it is frozen
INSTANCES = [
    (D, True),
    (Fp(3, 7), True),
    (prime_field(7), True),
    (RATIONAL, True),
    (StateVector(D, RATIONAL, tuple(map(Fraction, (1, 0, 0, -1)))), True),
    (entangled_subspace(D), True),
    (PV, True),
    (REPORT, False),
    (ClassifyReport(D, 5, True, 6, [PV], [], []), False),
    (UpbReport(3, 3, True, True, 1, True), False),
    (AlsResult(0.5, None, [[0.5]], REPORT), False),
]
IDS = [type(x).__name__ for x, _ in INSTANCES]


def fields(x):
    return [getattr(x, f) for f in x._fields]


@pytest.mark.parametrize("x, frozen", INSTANCES, ids=IDS)
def test_repr_and_equality_match_the_generated_ones(x, frozen):
    # a dataclass twin of the same name and fields gives the reference repr;
    # the fields are the slots, but for a field held in a private slot
    # (AlsResult.witness, built on first access)
    twin = dataclasses.make_dataclass(type(x).__name__, x._fields, frozen=frozen)
    assert repr(x) == repr(twin(*fields(x)))
    again = type(x)(*fields(x))
    assert again == x and not (again != x) and again is not x
    assert x != twin(*fields(x)) and x != tuple(fields(x))
    if frozen:
        assert hash(again) == hash(x)
    else:
        with pytest.raises(TypeError):
            hash(x)
    assert pickle.loads(pickle.dumps(x)) == x
    assert not hasattr(x, "__dict__")


def test_exact_reprs_used_in_error_texts():
    assert repr(Dims((3, 3))) == "Dims(d=(3, 3))"
    assert repr(Field("fp", 7)) == "Field(kind='fp', p=7)"
    assert repr(RATIONAL) == "Field(kind='rational', p=None)"
    assert repr(Fp(10, 7)) == "Fp(value=3, p=7)"
    assert str(Dims((2, 3, 4))) == "2x3x4" and str(Fp(10, 7)) == "3"


def test_values_differ_field_by_field():
    assert Fp(3, 7) != Fp(3, 11) and Fp(3, 7) == Fp(10, 7)
    assert Fp(1, 5) != 1 and Fp(1, 5) + 1 == Fp(2, 5)
    assert Dims((2, 3)) != Dims((3, 2)) and Dims([2, 3]) == Dims((2, 3))
    assert prime_field(5) != prime_field(7) != RATIONAL
    assert len({Dims((2, 2)), Dims([2, 2]), Fp(1, 5), Fp(6, 5)}) == 2


@pytest.mark.parametrize("x, frozen", INSTANCES, ids=IDS)
def test_frozen_types_refuse_assignment(x, frozen):
    name = x.__slots__[0]
    value = getattr(x, name)
    if not frozen:
        setattr(x, name, value)  # reports are filled in after construction
        return
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(x, name, value)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, name) is value


def test_constructors_keep_their_signatures():
    assert Fp(value=3, p=7) == Fp(3, 7)
    assert Field(kind="fp", p=7) == prime_field(7) and Field("rational") == RATIONAL
    assert Dims(d=(2, 2)) == D
    a = UpbReport(size=3, span_dim=3, independent=True, meets_min_size=True,
                  complement_dim=1, complement_in_entangled=True)
    b = UpbReport(3, 3, True, True, 1, True)
    assert (a.ff_reports, a.is_upb, a.witness) == ([], False, None)
    a.ff_reports.append(REPORT)
    assert b.ff_reports == [] and a.ff_reports is not b.ff_reports
    best, witness, report = AlsResult(0.5, None, [], REPORT)
    assert (best, witness, report) == (0.5, None, REPORT)


def test_checks_and_messages_are_kept():
    with pytest.raises(ValueError, match="need at least 2 tensor factors, got 1"):
        Dims((3,))
    with pytest.raises(ValueError, match=r"must be >= 2, got \(3, 1\)"):
        Dims((3, 1))
    with pytest.raises(ValueError, match="expected 4 coefficients, got 3"):
        StateVector(D, RATIONAL, (Fraction(0),) * 3)
    with pytest.raises(ValueError, match="witness must be present exactly when found"):
        VerificationReport("als", {}, WITNESS, None, {}, {})
    with pytest.raises(ValueError, match="factor 1 is zero"):
        ProductVector(D, RATIONAL, ((Fraction(1), Fraction(0)), (Fraction(0),) * 2))
    assert Subspace(D, RATIONAL, ()).dim == 0


@pytest.mark.parametrize("bad", [(2.7, 3), (3, 3.0), "33", (Fraction(3), 3)])
def test_dims_refuse_non_integers(bad):
    # int() would truncate 2.7 to 2 and read "33" as 3,3
    with pytest.raises(TypeError):
        Dims(bad)


def test_documents_refuse_fractional_dims():
    doc = {"dims": [3.5, 3], "field": "rational", "vectors": []}
    with pytest.raises(TypeError):
        document_vectors(doc)
    doc["dims"] = [3, 3]
    assert document_vectors(doc)[0] == Dims((3, 3))


@pytest.mark.parametrize("p", [4, 9, 1, 0, -7])
def test_prime_fields_need_a_prime(p):
    with pytest.raises(ValueError, match=f"{p} is not prime"):
        Field("fp", p)
    with pytest.raises(ValueError, match=f"{p} is not prime"):
        prime_field(p)
