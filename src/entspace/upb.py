"""Unextendible product bases and their audit.

A minimal UPB (size max_level + 1, any number of factors) is a set of
Vandermonde product vectors at distinct points; for two factors, every
larger admissible size adds the standard product vectors of chosen levels.
``verify_upb`` audits any claimed UPB exactly: rank and complement by
elimination, then the finite-field oracle on the complement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .construct import (
    INFINITY, ProductVector, entangled_complement, standard_product_vector,
    vandermonde_vector,
)
from .elimination import orthocomplement, span
from .ff import ENUMERATION_BUDGET, ff_verify
from .fields import Field, RATIONAL
from .grading import Dims, MultiIndex, Record, enumerate_level, level_counts
from .linalg import WITNESS, VerificationReport, check_elimination_cost


def _distinct_points(points, field: Field) -> list:
    seen: list = []
    for pt in points:
        key = pt if pt is INFINITY else field.coerce(pt)
        if key in seen:
            raise ValueError(f"duplicate parameter point {key!r}")
        seen.append(key)
    return seen


def minimal_upb(
    dims: Dims, points=None, field: Field = RATIONAL
) -> list[ProductVector]:
    """Unextendible product basis of the minimal size max_level + 1.

    Default points are the integers 0..max_level, all finite, keeping every
    coefficient rational.  The expansions are rank-checked to span the
    product-vector complement exactly; distinct points guarantee this, so a
    failure here is a bug, not bad input.
    """
    n_points = dims.max_level + 1
    check_elimination_cost(n_points, dims.total)  # before any point is made
    if points is None:
        points = [Fraction(t) for t in range(n_points)]
    points = _distinct_points(points, field)
    if len(points) != n_points:
        raise ValueError(f"need exactly {n_points} points, got {len(points)}")
    vectors = [vandermonde_vector(dims, pt, field) for pt in points]
    spanned = span([v.expand() for v in vectors])
    if spanned.dim != n_points or spanned != entangled_complement(dims, field):
        raise AssertionError("expansions do not span the product-vector complement")
    return vectors


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
    """Bipartite unextendible product basis with exactly m elements.

    Starts from a minimal UPB and, for each chosen level, adds every standard
    basis product vector of that level except the lexicographically last.
    The orthocomplement of the result is the direct sum of the entangled
    slices of the unchosen levels, which sits inside the entangled subspace.
    Nothing is eliminated here: ``verify_upb`` audits rank and
    complement exactly.
    """
    if dims.k != 2:
        raise ValueError("sizes above the minimum need exactly two factors")
    top = dims.max_level
    lo, hi = top + 1, dims.total
    if not lo <= m <= hi:
        raise ValueError(f"size {m} outside [{lo}, {hi}] for dims {dims}")
    # first, so that an oversized shape is refused before the level choice
    base = minimal_upb(dims, points, field)
    weights = [c - 1 for c in level_counts(dims)]
    chosen = _choose_levels(weights, m - lo)

    used_points = (
        tuple(Fraction(t) for t in range(lo)) if points is None else tuple(points)
    )
    extras: list[ProductVector] = []
    dropped: list[MultiIndex] = []
    for n in chosen:
        idxs = enumerate_level(dims, n)
        dropped.append(idxs[-1])
        extras.extend(standard_product_vector(dims, idx, field) for idx in idxs[:-1])
    return UpbRecipe(dims, m, tuple(chosen), used_points, tuple(dropped)), base + extras


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


def verify_upb(
    vectors: list[ProductVector],
    dims: Dims,
    primes=None,
    budget: int = ENUMERATION_BUDGET,
) -> UpbReport:
    """Full audit of a claimed unextendible product basis.

    Checks exact linear independence, the minimal-size bound, and then runs
    the finite-field oracle on the orthocomplement of the span (rational
    input only).  Size below the minimum already disqualifies the set, but
    the oracle still runs so a failure comes with an explicit witness.
    """
    if not vectors:
        raise ValueError("empty product-vector set")
    for v in vectors:
        if v.dims != dims:
            raise TypeError(f"vector dims {v.dims} do not match {dims}")
    fld = vectors[0].field
    if not fld.exact:
        raise TypeError("exact coefficients required for the rank audit")
    expansions = [v.expand() for v in vectors]
    spanned = span(expansions, dims=dims, field=fld)
    independent = spanned.dim == len(vectors)
    meets_min = spanned.dim >= dims.max_level + 1
    complement = orthocomplement(spanned)
    # S is the annihilator of the level sums: a row lies in S when its
    # entries on every level sum to zero
    levels = [[dims.position(idx) for idx in enumerate_level(dims, n)]
              for n in range(dims.max_level + 1)]
    inside = all(not sum(row.coeffs[i] for i in level) for row in complement.rows
                 for level in levels)

    report = UpbReport(
        size=len(vectors),
        span_dim=spanned.dim,
        independent=independent,
        meets_min_size=meets_min,
        complement_dim=complement.dim,
        complement_in_entangled=inside,
    )
    if complement.dim > 0 and fld == RATIONAL:
        report.ff_reports = ff_verify(complement, dims, primes, budget)
        report.witness = next(
            (rep.witness for rep in report.ff_reports if rep.verdict == WITNESS), None)
    report.is_upb = independent and meets_min and report.witness is None
    return report
