"""Scalar arithmetic across the coefficient fields."""

from fractions import Fraction

import pytest

from entspace import COMPLEX, RATIONAL, Field, Fp, parse_field, prime_field
from entspace.reduction import is_prime


def test_is_prime_table():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    # Miller-Rabin with the prime bases up to 41 decides every n below 3.3e24
    assert all(is_prime(n) == _trial_division(n) for n in range(-3, 20000))
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime up to 23
    assert 3215031751 == 151 * 751 * 28351 and not is_prime(3215031751)
    n = 3825123056546413051
    assert n == 149491 * 747451 * 34233211 and not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)
    # past the bound a base still refutes a composite, but a number that
    # passes every base is refused: the bound itself is the least composite
    # that does, and 2**89 - 1 is prime
    assert not is_prime(2**89 + 1) and not is_prime(10**30 + 1)
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="past the range of the primality test"):
            is_prime(n)


def test_fp_field_axioms_exhaustive():
    p = 7
    elems = [Fp(v, p) for v in range(p)]
    for a in elems:
        for b in elems:
            assert a + b == Fp(a.value + b.value, p)
            assert a * b == Fp(a.value * b.value, p)
            if b:
                assert (a / b) * b == a
    assert Fp(12, 7) == Fp(5, 7)
    assert -Fp(1, 7) == Fp(6, 7)
    assert Fp(3, 7).conjugate() == Fp(3, 7)


def test_fp_mixed_modulus_rejected():
    with pytest.raises(TypeError):
        Fp(1, 5) + Fp(1, 7)
    with pytest.raises(ZeroDivisionError):
        Fp(1, 5) / Fp(0, 5)


def test_fp_is_slotted_and_frozen():
    # an enumeration over a large prime holds millions of residues
    x = Fp(12, 5)
    assert not hasattr(x, "__dict__") and x.value == 2
    assert x == Fp(2, 5) and hash(x) == hash(Fp(2, 5))
    with pytest.raises(AttributeError):
        x.value = 3


def test_field_labels_roundtrip():
    for f in (RATIONAL, COMPLEX, prime_field(5), prime_field(11)):
        assert parse_field(f.label) == f
    # complex scalars are complex128; documents with the old label still parse
    assert COMPLEX.label == "complex128-approx"
    assert parse_field("complex64-approx") == COMPLEX
    with pytest.raises(ValueError):
        parse_field("fp(6)")
    with pytest.raises(ValueError):
        parse_field("octonion")
    with pytest.raises(ValueError):
        prime_field(9)
    with pytest.raises(ValueError):
        Field("fp")  # modulus required


def test_coerce_embeddings():
    assert RATIONAL.coerce(3) == Fraction(3)
    assert RATIONAL.coerce("2/5") == Fraction(2, 5)
    assert prime_field(5).coerce(Fraction(1, 2)) == Fp(3, 5)  # 2*3 = 1 mod 5
    assert COMPLEX.coerce(Fraction(1, 4)) == 0.25
    with pytest.raises(TypeError):
        prime_field(5).coerce(Fraction(1, 5))
    with pytest.raises(TypeError):
        RATIONAL.coerce(1.5)
    with pytest.raises(TypeError):
        prime_field(5).coerce(Fp(1, 7))


def test_zero_one():
    for f in (RATIONAL, prime_field(7), COMPLEX):
        assert not f.zero()
        assert f.one()
        assert f.one() + f.zero() == f.one()


def test_gaussian_field_is_gone():
    # the exact fields are Q and F_p; a Gaussian-rational label is unknown
    with pytest.raises(ValueError):
        Field("gaussian")
    with pytest.raises(ValueError):
        parse_field("gaussian")
