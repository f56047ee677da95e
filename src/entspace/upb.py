"""Unextendible product bases and their audit.

A minimal UPB (size max_level + 1, any number of factors) is a set of
Vandermonde product vectors at distinct points; for two factors, every
larger admissible size adds the standard product vectors of chosen levels.
Distinct points span Sperp (a Vandermonde determinant), and the standard
vectors complete each chosen level, so ``audit_recipe`` audits a basis from
its recipe in closed form, with its complement, the S-part of the unchosen
levels, as a ``LevelSums`` for the oracle; nothing is eliminated.
``verify_upb`` audits any claimed UPB by exact elimination.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .construct import INFINITY, ProductVector, standard_product_vector, \
    vandermonde_vector
from .ff import ENUMERATION_BUDGET, _check_prime
from .ffobjects import ff_verify
from .fields import Field, RATIONAL
from .grading import WITNESS, Dims, LevelSums, MultiIndex, Record, VerificationReport, \
    _level_groups, enumerate_level, level_counts
from .reduction import check_elimination_cost

_EXPONENT = re.compile(r"(.*)e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)
_TOO_LONG = "parameter point {!r}: power {} has over {} digits"


def _parse_points(text: str, top: int) -> list:
    """Comma-separated parameter points, each a rational or ``inf``/``oo``; a nonzero
    mantissa times 10**exp, exp past the digit limit, is refused before ``Fraction``
    spends seconds on it, as ``_check_point_digits`` would refuse the point."""
    limit = sys.get_int_max_str_digits()
    pts = []
    for part in map(str.strip, text.split(",")):
        if part in ("inf", "oo"):
            pts.append(INFINITY)
            continue
        m = _EXPONENT.fullmatch(part) if limit else None
        try:  # past the limit: the mantissa, a Fraction, is 0 or refused
            huge = abs(int(m[2])) > limit + len(part) and Fraction(m[1] + "e0")
        except (TypeError, ValueError):  # no exponent, or malformed: Fraction says how
            huge = False
        if huge:
            raise ValueError(_TOO_LONG.format(part, top, limit))
        try:
            pts.append(Fraction(part) if huge is False else huge)
        except ZeroDivisionError:
            raise ValueError(f"bad parameter point {part!r}") from None
    return pts


def _check_point_digits(text: str, points, top: int) -> None:
    """Refuse a point whose ``top``-th power, which a UPB document writes, has a
    numerator or denominator of over ``sys.get_int_max_str_digits()`` digits."""
    limit = sys.get_int_max_str_digits()
    for part, pt in zip(text.split(","), points):
        big = 0 if pt is INFINITY else max(abs(pt.numerator), pt.denominator)
        if limit and big**top >= 10**limit:
            raise ValueError(_TOO_LONG.format(part.strip(), top, limit))


def _upb_points(dims: Dims, points, field: Field) -> list:
    """The max_level + 1 distinct points of a minimal UPB, coerced to
    ``field``: ``points``, or the integers 0..max_level.  A shape whose
    span the audit refuses (as it would an elimination of the expansions)
    is refused before any point is made: the distinctness check is quadratic."""
    n_points = dims.max_level + 1
    check_elimination_cost(n_points, dims.total)
    if points is None:
        points = [Fraction(t) for t in range(n_points)]
    seen: list = []
    for pt in points:
        key = pt if pt is INFINITY else field.coerce(pt)
        if key in seen:  # named as the document writes it: 1, 1/2, inf
            shown = "inf" if key is INFINITY else key
            raise ValueError(f"duplicate parameter point {shown}")
        seen.append(key)
    if len(seen) != n_points:
        raise ValueError(f"need exactly {n_points} points, got {len(seen)}")
    return seen


def minimal_upb(
    dims: Dims, points=None, field: Field = RATIONAL
) -> list[ProductVector]:
    """Unextendible product basis of the minimal size max_level + 1: the
    Vandermonde product vectors at distinct points.

    Default points are the integers 0..max_level, all finite, keeping every
    coefficient rational.  Distinct points make the expansions span the
    product-vector complement exactly, so nothing is eliminated here or in
    the audit.
    """
    return [vandermonde_vector(dims, pt, field) for pt in _upb_points(dims, points, field)]


class UpbRecipe(NamedTuple):
    """Record of the choices behind an any-size bipartite UPB."""

    dims: Dims
    size: int
    levels: tuple[int, ...]
    points: tuple
    dropped: tuple[MultiIndex, ...]


def _choose_levels(weights: list[int], target: int) -> list[int]:
    # Suffix-achievability table, then greedy from the smallest level.
    # Only levels that actually contribute (weight > 0) are recorded.
    n = len(weights)
    achievable: list[set[int]] = [set() for _ in range(n + 1)]
    achievable[n] = {0}
    for i in range(n - 1, -1, -1):
        nxt = achievable[i + 1]
        achievable[i] = nxt | {w + weights[i] for w in nxt}
    if target not in achievable[0]:
        raise RuntimeError(f"no level subset reaches target {target}")
    chosen, rem = [], target
    for i in range(n):
        if weights[i] and weights[i] <= rem and rem - weights[i] in achievable[i + 1]:
            chosen.append(i)
            rem -= weights[i]
    if rem != 0:
        raise RuntimeError("level selection lost feasibility mid-walk")
    return chosen


def upb_of_size(
    dims: Dims, m: int, points=None, field: Field = RATIONAL
) -> tuple[UpbRecipe, list[ProductVector]]:
    """Unextendible product basis with exactly m elements: any number of
    factors at the minimal size max_level + 1, exactly two above it.

    Starts from a minimal UPB and, for each chosen level, adds every standard
    basis product vector of that level except the lexicographically last.
    The orthocomplement of the result is the direct sum of the entangled
    slices of the unchosen levels, which sits inside the entangled subspace.
    Nothing is eliminated here: ``audit_recipe`` reads rank and complement
    off the recipe.
    """
    top = dims.max_level
    lo, hi = top + 1, dims.total
    if dims.k != 2 and m != lo:
        raise ValueError("sizes above the minimum need exactly two factors")
    if not lo <= m <= hi:
        raise ValueError(f"size {m} outside [{lo}, {hi}] for dims {dims}")
    # first, so that an oversized shape is refused before the level choice;
    # the recipe records the points minimal_upb is given, defaults included
    points = _upb_points(dims, points, field)
    base = minimal_upb(dims, points, field)
    weights = [c - 1 for c in level_counts(dims)]
    chosen = _choose_levels(weights, m - lo)

    extras: list[ProductVector] = []
    dropped: list[MultiIndex] = []
    for n in chosen:
        idxs = enumerate_level(dims, n)
        dropped.append(idxs[-1])
        extras.extend(standard_product_vector(dims, idx, field) for idx in idxs[:-1])
    return UpbRecipe(dims, m, tuple(chosen), tuple(points), tuple(dropped)), base + extras


class UpbReport(Record):
    __slots__ = ("size", "span_dim", "independent", "meets_min_size",
                 "complement_dim", "complement_in_entangled", "ff_reports",
                 "is_upb", "witness")

    def __init__(self, size: int, span_dim: int, independent: bool,
                 meets_min_size: bool, complement_dim: int,
                 complement_in_entangled: bool,
                 ff_reports: list[VerificationReport] | None = None,
                 is_upb: bool = False, witness: ProductVector | None = None) -> None:
        self.size = size
        self.span_dim = span_dim
        self.independent = independent
        self.meets_min_size = meets_min_size
        self.complement_dim = complement_dim
        self.complement_in_entangled = complement_in_entangled
        self.ff_reports = [] if ff_reports is None else ff_reports
        self.is_upb = is_upb
        self.witness = witness


def _report(size: int, span_dim: int, complement_dim: int, inside: bool, complement,
            dims: Dims, primes, budget: int) -> UpbReport:
    """A UPB audit's report; the oracle runs on a nonempty ``complement``
    (None skips it), so that even a set too small comes with a witness."""
    reports = [] if complement_dim == 0 or complement is None else \
        ff_verify(complement, dims, primes, budget)
    witness = next((rep.witness for rep in reports if rep.verdict == WITNESS), None)
    independent, meets_min = span_dim == size, span_dim >= dims.max_level + 1
    return UpbReport(size, span_dim, independent, meets_min, complement_dim, inside,
                     reports, independent and meets_min and witness is None, witness)


def audit_recipe(recipe: UpbRecipe, primes=None) -> UpbReport:
    """``verify_upb`` of the basis ``upb_of_size`` builds from ``recipe``, in closed form,
    refused as its elimination would be; at full size every prime is still checked."""
    dims, m, total = recipe.dims, recipe.size, recipe.dims.total
    check_elimination_cost(m, total)
    check_elimination_cost(total - m, total)
    for p in primes if primes and m == total else ():
        _check_prime(dims, p)
    unchosen = [n for n in range(dims.max_level + 1) if n not in recipe.levels]
    return _report(m, m, total - m, True, LevelSums(unchosen), dims, primes, ENUMERATION_BUDGET)


def verify_upb(
    vectors: list[ProductVector],
    dims: Dims,
    primes=None,
    budget: int = ENUMERATION_BUDGET,
) -> UpbReport:
    """Full audit of a claimed unextendible product basis, by elimination.

    Checks exact linear independence, the minimal-size bound, membership of
    the orthocomplement of the span in S, and then runs the finite-field
    oracle on that complement (rational input only).
    """
    from .elimination import orthocomplement, span

    if not vectors:
        raise ValueError("empty product-vector set")
    for v in vectors:
        if v.dims != dims:
            raise TypeError(f"vector dims {v.dims} do not match {dims}")
    fld = vectors[0].field
    if not fld.exact:
        raise TypeError("exact coefficients required for the rank audit")
    spanned = span([v.expand() for v in vectors], dims=dims, field=fld)
    complement = orthocomplement(spanned)
    # a row lies in S, the annihilator of the level sums, when each is 0
    levels = list(_level_groups(dims, LevelSums(range(dims.max_level + 1))))
    inside = all(not sum(row.coeffs[i] for i in level) for row in complement.rows
                 for level in levels)
    return _report(len(vectors), spanned.dim, complement.dim, inside,
                   complement if fld == RATIONAL else None, dims, primes, budget)
