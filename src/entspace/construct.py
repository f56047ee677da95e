"""The paper's objects, built exactly: product vectors, the closed-form
spaces, the unextendible product bases and their audit, the finite-field
oracle's object entry points, and the worked examples.

The completely entangled subspace is spanned by equal-level differences,
and its product-vector orthocomplement by the level sums (both named by a
``LevelSums`` and written down in reduced echelon form, with no
elimination), which the Vandermonde product vectors exhaust.
``LevelSums``, its refusal ``_check_level_rows``, its groups
``_level_groups`` and the row writer ``_group_entries`` live in
``entspace.grading``, which the command line loads anyway: a graded
``construct`` writes the rows there as text.  Here the same rows become a
``Subspace`` of ``Fraction`` (or ``Fp``) scalars.

A minimal UPB (size max_level + 1, any number of factors) is a set of
Vandermonde product vectors at distinct points; for two factors, every
larger admissible size adds the standard product vectors of chosen levels.
The recipe of that choice, its parameter points and its closed-form checks
live in ``entspace.upbtext``, which the ``upb`` command runs on text alone;
here they become ``ProductVector``s.  ``verify_upb`` audits any claimed UPB
by exact elimination, the independent check of the command's closed-form
audit.

The oracle's entry points each wrap an int core of ``entspace.ff``
(``_product_points``, ``_ff_runs``, ``_classify_points``) and make the
``Fp`` scalars, ``ProductVector``s and reports from its hits.  The worked
examples are the character orthonormal basis of a level and the 4x4
matrix-space example whose natural rank-one family undershoots its
complement (``example2``), with the Gram matrix of product vectors.

No command loads this module: each writes its document from ints and text
(``producttext``, ``upbtext``, ``ff``), and the objects built here are the
tests' reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import ff
from .ff import ENUMERATION_BUDGET
from .grading import INFINITY, SPLIT_ANTIDIAGONAL, WITNESS, Dims, LevelSums, MultiIndex, \
    Record, Value, VerificationReport, _check_level_rows, _group_entries, _level_groups, \
    enumerate_level
from .linalg import COMPLEX, RATIONAL, Field, Fp, Scalar, StateVector, Subspace, \
    orthocomplement, prime_field, span
from .producttext import _character_rows
from .upbtext import UpbRecipe, _upb_points, _upb_recipe


class ProductVector(Value):
    """One factor vector per tensor slot; the tensor expansion is dense.

    Zero factors are rejected: they would collapse the whole product to zero
    and silently break rank arguments downstream.
    """

    __slots__ = ("dims", "field", "factors")
    dims: Dims
    field: Field
    factors: tuple[tuple[Scalar, ...], ...]

    def __init__(self, dims: Dims, field: Field,
                 factors: tuple[tuple[Scalar, ...], ...]) -> None:
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "factors", factors)
        if len(factors) != dims.k:
            raise ValueError(
                f"expected {dims.k} factors, got {len(factors)}"
            )
        for r, f in enumerate(factors):
            if len(f) != dims.d[r]:
                raise ValueError(
                    f"factor {r} has length {len(f)}, expected {dims.d[r]}"
                )
            if not any(f):
                raise ValueError(f"factor {r} is zero")

    @staticmethod
    def from_values(dims: Dims, field: Field, factors) -> "ProductVector":
        return ProductVector(
            dims, field,
            tuple(tuple(field.coerce(c) for c in f) for f in factors),
        )

    def expand(self) -> StateVector:
        """Dense coefficients: product of factor entries at each multi-index."""
        coeffs: list[Scalar] = [self.field.one()]
        for f in self.factors:
            coeffs = [c * a for c in coeffs for a in f]
        return StateVector(self.dims, self.field, tuple(coeffs))

    def projective(self) -> "ProductVector":
        """Scale each factor so its first nonzero coordinate is 1."""
        if not self.field.exact:
            raise TypeError("projective normal form needs an exact field")
        scaled = []
        for f in self.factors:
            lead = next(c for c in f if c)
            scaled.append(tuple(c / lead for c in f))
        return ProductVector(self.dims, self.field, tuple(scaled))


def standard_product_vector(
    dims: Dims, idx: MultiIndex, field: Field = RATIONAL
) -> ProductVector:
    """The basis product vector e_{i_1} x ... x e_{i_k}."""
    dims.check_index(idx)
    factors = []
    for r, i in enumerate(idx):
        f = [field.zero()] * dims.d[r]
        f[i] = field.one()
        factors.append(tuple(f))
    return ProductVector(dims, field, tuple(factors))


def level_sum_vector(dims: Dims, n: int, field: Field = RATIONAL) -> StateVector:
    """Unweighted sum of all standard basis vectors whose index sum is n."""
    if not 0 <= n <= dims.max_level:
        raise ValueError(f"level {n} out of range [0, {dims.max_level}]")
    one, zero = field.one(), field.zero()
    coeffs = [zero] * dims.total
    for idx in enumerate_level(dims, n):
        coeffs[dims.position(idx)] = one
    return StateVector(dims, field, tuple(coeffs))


def vandermonde_vector(dims: Dims, point, field: Field = RATIONAL) -> ProductVector:
    """Product vector with factor (1, t, t^2, ...) at every slot.

    At INFINITY the factor degenerates to the top basis vector of each slot,
    matching the entrywise limit of z/t^N as |t| grows.
    """
    factors = []
    if point is INFINITY:
        for d in dims.d:
            f = [field.zero()] * d
            f[d - 1] = field.one()
            factors.append(tuple(f))
    else:
        lam = field.coerce(point)
        for d in dims.d:
            f = []
            cur = field.one()
            for _ in range(d):
                f.append(cur)
                cur = cur * lam
            factors.append(tuple(f))
    return ProductVector(dims, field, tuple(factors))


def _group_rows(dims: Dims, field: Field, groups, sums: bool = False) -> Subspace:
    """The space cut out by group sums (``_group_entries``) as an exact
    subspace of ``field``."""
    if not field.exact:
        raise TypeError("echelon bases need an exact field; convert floats upstream")
    one = field.one()
    rows = _group_entries(dims.total, groups, sums, field.zero(), one, -one)
    return Subspace(dims, field, tuple(StateVector(dims, field, tuple(c)) for c in rows))


def _level_rows(dims: Dims, space: LevelSums, field: Field = RATIONAL) -> Subspace:
    """Reduced echelon basis of a ``LevelSums`` space: one group per level,
    refused first by ``_check_level_rows``."""
    _check_level_rows(dims, space)
    return _group_rows(dims, field, _level_groups(dims, space), space.sums)


def entangled_subspace(dims: Dims, field: Field = RATIONAL) -> Subspace:
    """The maximal completely entangled subspace: per level, the vectors whose
    coefficients sum to zero.  Its dimension is total - (max_level + 1).

    Written down in reduced echelon form; the tests check it against the
    span of same-level differences by elimination."""
    return _level_rows(dims, LevelSums(range(dims.max_level + 1)), field)


def entangled_complement(dims: Dims, field: Field = RATIONAL) -> Subspace:
    """Orthocomplement of the entangled subspace: span of the level sums."""
    return _level_rows(dims, LevelSums(range(dims.max_level + 1), sums=True), field)


def entangled_level(dims: Dims, n: int, field: Field = RATIONAL) -> Subspace:
    """Slice of the entangled subspace inside a single level; dim a_n - 1."""
    return _level_rows(dims, LevelSums((n,)), field)


def level_sum_line(dims: Dims, n: int, field: Field = RATIONAL) -> Subspace:
    return _level_rows(dims, LevelSums((n,), sums=True), field)


def antidiagonal_zero_space(d1: int, d2: int, field: Field = RATIONAL) -> Subspace:
    """Matrices all of whose anti-diagonal sums vanish, viewed as vectors.

    This is the entangled subspace on two factors, so it is built the same
    way; the tests derive it independently as the orthocomplement of the
    anti-diagonal sum functionals.
    """
    return entangled_subspace(Dims((d1, d2)), field)


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


def character_basis(dims: Dims, n: int) -> list[StateVector]:
    """Discrete-Fourier orthonormal basis of a level, as complex floats.

    Entry 0 is the normalized level sum; entries 1.. span the entangled slice
    of the level.  The Gram matrix is the identity up to float roundoff.
    """
    return [StateVector.from_values(dims, COMPLEX, row)
            for row in _character_rows(dims, n)]


class SplitAntidiagonalExample(NamedTuple):
    m_space: Subspace
    m_perp: Subspace
    spanning_set: list[ProductVector]


def split_antidiagonal_spaces(field: Field = RATIONAL) -> SplitAntidiagonalExample:
    """4x4 matrix-space example where a natural rank-one family undershoots.

    The middle anti-diagonal constraint is split into two shorter runs, so
    m_space has eight constraints, the sums of eight disjoint groups
    (``grading.SPLIT_ANTIDIAGONAL``: the levels of the 4x4 grid, with
    (0,3), (1,2) apart from (2,1), (3,0)), and dimension 8, strictly inside
    the entangled subspace.  Both m_space and its complement m_perp, the
    span of those group sums, are written down in closed form from the
    groups the command line writes example2-M from.  The returned rank-one
    family (Vandermonde points 0..6 plus the top corner matrix) spans only a
    7-dimensional part of the 8-dimensional orthocomplement of m_space, yet
    its own orthocomplement is already completely entangled.
    """
    dims = Dims((4, 4))
    groups = SPLIT_ANTIDIAGONAL.groups
    m_space = _group_rows(dims, field, groups)
    m_perp = _group_rows(dims, field, groups, sums=True)
    pts = [Fraction(t) for t in range(7)] + [INFINITY]
    family = [vandermonde_vector(dims, pt, field) for pt in pts]
    return SplitAntidiagonalExample(m_space, m_perp, family)


def gram_matrix(vectors: list[ProductVector]) -> list[list[Scalar]]:
    """Gram matrix of the expansions, conjugate-linear in the row index."""
    expanded = [v.expand() for v in vectors]
    return [[a.inner(b) for b in expanded] for a in expanded]
