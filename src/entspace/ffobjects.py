"""The finite-field oracle's library entry points, on scalar, vector and
report objects.

Each wraps an int core of ``entspace.ff`` (``_product_points``,
``_ff_runs``, ``_classify_points``) and makes the ``Fp`` scalars,
``ProductVector``s and reports from its hits.  The command line writes its
documents from the int hits with no such object, so no command loads this
module; the library's UPB audit in ``entspace.upb`` does.
"""

from __future__ import annotations

from . import ff
from .construct import ProductVector
from .ff import ENUMERATION_BUDGET
from .fields import Fp, prime_field
from .grading import Dims, Record, VerificationReport


def find_product_vectors_fp(
    generators, dims: Dims, p: int, budget: int = ENUMERATION_BUDGET
) -> list[ProductVector]:
    """All projective product vectors lying in the given subspace over F_p.

    The subspace is spanned from the (integer) generators after reduction
    mod p; a subspace already over F_p is used as it is, and one over another
    prime is refused with ``ValueError``.  An empty result is an exact
    statement about F_p; it supports the complex-field claim only for p above
    the top level, which is why smaller primes are rejected outright.

    The search is a fibre solve.  A product vector lies in the subspace
    exactly when every row of the annihilator H contracts to zero with it.
    Fixing a projective point on every site but the largest one (the solved
    site) turns that into a small linear system on the solved site, whose
    projective kernel points are the hits of that fibre.  Hits come in
    lexicographic order of their per-site positions in
    ``ff._projective_points`` order, every factor scaled to first nonzero
    coordinate 1.  Up to ``ff._BATCH_FIBRES`` fibres the solve runs on plain
    ints; above it, on the batched numpy kernel.  Both give the same list.

    ``budget`` bounds the fibre solves plus the points found; the fibre
    count is checked before any work.
    """
    return _product_vectors(dims, p, ff._product_points(generators, dims, p, budget))


def _product_vectors(dims: Dims, p: int, combos) -> list[ProductVector]:
    """The int-tuple hits as ProductVectors over F_p; equal residues share
    one (immutable) ``Fp``."""
    fld = prime_field(p)
    residues: dict[int, Fp] = {}

    def residue(a: int) -> Fp:
        r = residues.get(a)
        if r is None:
            r = residues[a] = Fp(a, p)
        return r

    return [ProductVector(dims, fld, tuple(tuple(map(residue, f)) for f in combo))
            for combo in combos]


def ff_verify(
    generators, dims: Dims, primes=None, budget: int = ENUMERATION_BUDGET
) -> list[VerificationReport]:
    """One finite-field report per prime; witness recorded where found.

    ``generators`` is a subspace, a list of integer generators, or a
    ``LevelSums``.  A ``LevelSums`` is refused as its basis would be
    (``construct._level_rows``), and its rank and annihilator come in closed
    form, with no basis written down and nothing reduced.
    """
    reports = []
    for p, rank, rational_dim, hits in ff._ff_runs(generators, dims, primes, budget):
        witness = _product_vectors(dims, p, hits[:1])[0] if hits else None
        reports.append(VerificationReport(
            **ff._run_fields(dims, p, rank, rational_dim, hits, witness)))
    return reports


class ClassifyReport(Record):
    __slots__ = ("dims", "p", "passed", "expected_count", "found", "missing",
                 "extraneous")

    def __init__(self, dims: Dims, p: int, passed: bool, expected_count: int,
                 found: list[ProductVector], missing: list[ProductVector],
                 extraneous: list[ProductVector]) -> None:
        self.dims = dims
        self.p = p
        self.passed = passed
        self.expected_count = expected_count
        self.found = found
        self.missing = missing
        self.extraneous = extraneous


def classify_product_vectors_fp(
    dims: Dims, p: int, budget: int = ENUMERATION_BUDGET
) -> ClassifyReport:
    """Check that the product vectors in the entangled complement over F_p
    are exactly the p+1 projective Vandermonde points (one per field element
    plus the point at infinity)."""
    found, missing, extraneous = (_product_vectors(dims, p, points)
                                  for points in ff._classify_points(dims, p, budget))
    return ClassifyReport(
        dims=dims, p=p, passed=not missing and not extraneous,
        expected_count=p + 1, found=found, missing=missing,
        extraneous=extraneous,
    )
