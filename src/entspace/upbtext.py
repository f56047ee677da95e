"""The recipe of an unextendible product basis, its closed-form audit on the
oracle's int core, and its document as text: what the ``upb`` command runs.

A minimal UPB is the Vandermonde product vectors at max_level + 1 distinct
points; on two factors a larger one adds the standard product vectors of
chosen levels, and ``UpbRecipe`` records the choice.  Level n weighs its
count less one, the standard vectors it adds.  The levels are chosen
greedily from level 0, each taken while the size still missing, less its
weight, is at most the sum of the weights past it: on two factors every
sum up to that one is a sum of some of them, so no search is needed.  So
every entry of the document is known as text from the recipe: at a finite
point t the factor (1, t, t^2, ...) and the coefficient t^n at each index
of level n; at ``inf`` the top basis vector of each slot; and 0 or 1 for a
standard vector (``entspace.producttext`` writes them, as it writes
example2-R's vectors for ``construct``).  The audit needs no basis
either.  Distinct points span Sperp (a Vandermonde determinant) and the
standard vectors complete each chosen level, so the basis has rank
``size``, and its complement is the S-part of the unchosen levels, a
``LevelSums`` the oracle takes in closed form.  No scalar, vector or
report object is made, and ``fractions`` loads only to parse ``--lambdas``.

The library's ``upb_of_size`` (``entspace.upb``) builds the same recipe and
makes the vectors as objects, and its ``verify_upb`` audits them by
elimination; the tests check that ``codec`` writes both to the same bytes.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .ff import _check_prime, _ff_runs, _report_entry
from .grading import INFINITY, WITNESS, Dims, LevelSums, MultiIndex, enumerate_level, \
    level_counts
from .producttext import _vector_entries
from .reduction import check_elimination_cost
from .serialize import _document

_EXPONENT = re.compile(r"(.*)e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)
_TOO_LONG = "parameter point {!r}: power {} has over {} digits"


def _parse_points(text: str, top: int) -> list:
    """Comma-separated parameter points, each a rational or ``inf``/``oo``; a nonzero
    mantissa times 10**exp, exp past the digit limit, is refused before ``Fraction``
    spends seconds on it, as ``_check_point_digits`` would refuse the point."""
    from fractions import Fraction

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


def _upb_points(dims: Dims, points, coerce=None) -> list:
    """The max_level + 1 distinct points of a minimal UPB, each but ``inf``
    passed through ``coerce`` (a field's, or None to keep it as it is):
    ``points``, or the integers 0..max_level.  A shape whose span the audit
    refuses (as it would an elimination of the expansions) is refused before
    any point is made: the distinctness check is quadratic."""
    n_points = dims.max_level + 1
    check_elimination_cost(n_points, dims.total)
    seen: list = []
    for pt in range(n_points) if points is None else points:
        key = pt if pt is INFINITY or coerce is None else coerce(pt)
        if key in seen:  # named as the document writes it: 1, 1/2, inf
            shown = "inf" if key is INFINITY else key
            raise ValueError(f"duplicate parameter point {shown}")
        seen.append(key)
    if len(seen) != n_points:
        raise ValueError(f"need exactly {n_points} points, got {len(seen)}")
    return seen


class UpbRecipe(NamedTuple):
    """Record of the choices behind an any-size bipartite UPB."""

    dims: Dims
    size: int
    levels: tuple[int, ...]
    points: tuple
    dropped: tuple[MultiIndex, ...]


def _choose_levels(weights: list[int], target: int) -> list[int]:
    """Levels of positive weight summing to ``target``, greedy from level 0:
    level n is taken when ``0 < w_n <= rem`` and ``rem - w_n`` is at most the
    sum of the weights past n.  On two factors the weights run 0, 1, 2, ...,
    2, 1, 0, so a suffix's subset sums are exactly 0 up to its sum; on more
    factors the target is 0 and no level is taken."""
    chosen, rem, rest = [], target, sum(weights)
    for n, w in enumerate(weights):
        rest -= w
        if 0 < w <= rem and rem - w <= rest:
            chosen.append(n)
            rem -= w
    return chosen


def _upb_recipe(dims: Dims, m: int, points=None, coerce=None) -> UpbRecipe:
    """The recipe of the UPB of ``upb_of_size(dims, m, points)``: its points
    (through ``_upb_points``), the levels whose standard product vectors it
    adds, all but the lexicographically last of each, and those last ones."""
    top = dims.max_level
    lo, hi = top + 1, dims.total
    if dims.k != 2 and m != lo:
        raise ValueError("sizes above the minimum need exactly two factors")
    if not lo <= m <= hi:
        raise ValueError(f"size {m} outside [{lo}, {hi}] for dims {dims}")
    # first, so that an oversized shape is refused before the level choice;
    # the recipe records the points the basis is built at, defaults included
    points = _upb_points(dims, points, coerce)
    chosen = _choose_levels([c - 1 for c in level_counts(dims)], m - lo)
    dropped = tuple(enumerate_level(dims, n)[-1] for n in chosen)
    return UpbRecipe(dims, m, tuple(chosen), tuple(points), dropped)


def _audit_entry(recipe: UpbRecipe, primes=None) -> dict:
    """``encode_upb_report`` of ``verify_upb`` of the basis built from
    ``recipe``, from the oracle's int runs with no scalar, vector or report
    made.  The basis has rank ``size``, and its complement is the S-part of
    the unchosen levels.  Both are refused as their elimination would be,
    and at full size, where the oracle has nothing to search, every prime
    is still checked."""
    dims, m, total = recipe.dims, recipe.size, recipe.dims.total
    check_elimination_cost(m, total)
    check_elimination_cost(total - m, total)
    for p in primes if primes and m == total else ():
        _check_prime(dims, p)
    complement = LevelSums([n for n in range(dims.max_level + 1) if n not in recipe.levels])
    runs = _ff_runs(complement, dims, primes) if m < total else []
    reports = [_report_entry(dims, *run) for run in runs]
    witness = next((rep["witness"] for rep in reports if rep["verdict"] == WITNESS), None)
    return {
        "size": m,
        "span_dim": m,
        "independent": True,
        "meets_min_size": True,
        "complement_dim": total - m,
        "complement_in_entangled": True,
        "ff_reports": reports,
        "als_report": None,  # the audit runs no ALS search; kept for the format
        "is_upb": witness is None,
        "witness": witness,
    }


def _upb_document(recipe: UpbRecipe, report: dict) -> dict:
    """The ``upb`` document of a rational ``recipe`` and its ``_audit_entry``:
    ``product_vectors_document`` of the basis, with the recipe and report."""
    points = ["inf" if pt is INFINITY else str(pt) for pt in recipe.points]
    upb = {"size": recipe.size, "levels": list(recipe.levels), "points": points,
           "dropped": [list(idx) for idx in recipe.dropped]}
    entries = _vector_entries(recipe.dims, recipe.points, recipe.levels)
    return _document(recipe.dims, "rational", True, entries, {"upb": upb, "report": report})
