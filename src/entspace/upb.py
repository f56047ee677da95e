"""Unextendible product bases and their audit, as objects.

A minimal UPB (size max_level + 1, any number of factors) is a set of
Vandermonde product vectors at distinct points; for two factors, every
larger admissible size adds the standard product vectors of chosen levels.
The recipe of that choice, its parameter points and its closed-form checks
live in ``entspace.upbtext``, which the ``upb`` command runs on text alone;
here they become ``ProductVector``s.  ``verify_upb`` audits any claimed UPB
by exact elimination, the independent check of the command's closed-form
audit.
"""

from __future__ import annotations

from .construct import ProductVector, standard_product_vector, vandermonde_vector
from .ff import ENUMERATION_BUDGET
from .ffobjects import ff_verify
from .fields import Field, RATIONAL
from .grading import WITNESS, Dims, LevelSums, Record, VerificationReport, \
    _level_groups, enumerate_level
from .upbtext import UpbRecipe, _upb_points, _upb_recipe


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
    return [vandermonde_vector(dims, pt, field)
            for pt in _upb_points(dims, points, field.coerce)]


def upb_of_size(
    dims: Dims, m: int, points=None, field: Field = RATIONAL
) -> tuple[UpbRecipe, list[ProductVector]]:
    """Unextendible product basis with exactly m elements: any number of
    factors at the minimal size max_level + 1, exactly two above it.

    Starts from a minimal UPB and, for each chosen level, adds every standard
    basis product vector of that level except the lexicographically last.
    The orthocomplement of the result is the direct sum of the entangled
    slices of the unchosen levels, which sits inside the entangled subspace.
    """
    recipe = _upb_recipe(dims, m, points, field.coerce)
    extras = [standard_product_vector(dims, idx, field)
              for n in recipe.levels for idx in enumerate_level(dims, n)[:-1]]
    return recipe, minimal_upb(dims, recipe.points, field) + extras


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
    # the oracle runs on a nonempty rational complement, so that even a set
    # too small comes with a witness
    reports = ff_verify(complement, dims, primes, budget) \
        if complement.dim and fld == RATIONAL else []
    witness = next((rep.witness for rep in reports if rep.verdict == WITNESS), None)
    independent = spanned.dim == len(vectors)
    meets_min = spanned.dim >= dims.max_level + 1
    return UpbReport(len(vectors), spanned.dim, independent, meets_min, complement.dim,
                     inside, reports, independent and meets_min and witness is None,
                     witness)
