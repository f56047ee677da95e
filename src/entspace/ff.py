"""The finite-field oracle: every projective product vector of a subspace
over F_p, and the exact checks built on it.

The oracle runs on plain ints mod p from the generators to the hits.  One
reduction of the generators gives the rank mod p, and the free-column
read-off of that reduction gives the annihilator: the rows whose
contraction with a product vector vanishes exactly when the vector lies in
the subspace.  ``Fp`` objects are made only for the output.

This module runs without numpy, so ``verify --method ff``, ``upb`` and
``classify`` start as fast as ``construct``.  A small enumeration is a
depth-first fibre solve on plain ints; one with more than ``_BATCH_FIBRES``
fibres loads the batched numpy kernel in ``entspace.ffkernel``.  The UPB
audit built on the oracle is ``entspace.upb.verify_upb``; it and its
``UpbReport`` still resolve here, loading ``upb`` on first access.
"""

from __future__ import annotations

import math
from itertools import product

from . import _lazy_getattr
from .construct import ProductVector, level_sum_vector
from .fields import Fp, RATIONAL, is_prime, prime_field
from .grading import Dims, Record
from .linalg import NO_WITNESS, WITNESS, BudgetExceededError, Subspace, \
    VerificationReport, _as_int, check_elimination_cost, integer_generators

__getattr__ = _lazy_getattr(__name__, dict.fromkeys(("UpbReport", "verify_upb"), "upb"))

# Fibre solves plus product vectors found.  Every shape with at most 10**7
# projective product tuples needs fewer fibres (the most: 537,824 for 2^6
# at p = 13), and each found point is held in memory as a ProductVector.
ENUMERATION_BUDGET = 10**6
# Above this many fibres the fibre solve runs on the batched numpy kernel in
# ``ffkernel``, which wins once it has paid for loading numpy and the kernel
# (about 0.145 s).  The measured break-even grows as the solved site shrinks:
# about 3,700 fibres on 5,5, 5,000-5,800 on 3,4 and 4,4, 8,000-10,000 on 3,3
# and 3,3,3, and 15,000-23,000 on shapes of 2s.  At 6,000 neither side of the
# cut loses more than about 0.1 s.
_BATCH_FIBRES = 6000
DEFAULT_PRIME_POOL = (5, 7, 11)


def _over_budget(steps: int, budget: int) -> BudgetExceededError:
    # A step is one fibre solve or one product vector found; ``steps`` is the
    # fibre count alone when the enumeration is refused before it starts.
    return BudgetExceededError(
        steps, budget, "enumeration", "fibre solves and found points"
    )


def default_primes(dims: Dims, want: int = 2) -> list[int]:
    """Primes exceeding the top level, drawn from the default pool.

    The pool extends upward when the top level is large enough to exhaust it;
    at least ``want`` primes are always returned.
    """
    top = dims.max_level
    out = [p for p in DEFAULT_PRIME_POOL if p > top]
    q = max(DEFAULT_PRIME_POOL[-1], top) + 1
    while len(out) < want:
        if is_prime(q):
            out.append(q)
        q += 1
    return out


def _integer_rows(generators, dims: Dims) -> tuple[list[list[int]], int | None]:
    """The generators as rows of ints, and the prime they are residues
    modulo: that of a subspace over F_p, None for integer generators."""
    if isinstance(generators, Subspace):
        if generators.dims != dims:
            raise TypeError(f"subspace dims {generators.dims} do not match {dims}")
        fld = generators.field
        if fld.kind == "fp":
            return [[c.value for c in row.coeffs] for row in generators.rows], fld.p
        vectors = integer_generators(generators) if fld == RATIONAL else generators.rows
    else:
        vectors = generators
        for v in vectors:
            if v.dims != dims:
                raise TypeError(f"vector dims {v.dims} do not match {dims}")
    return [[_as_int(c) for c in v.coeffs] for v in vectors], None


def _projective_count(d: int, p: int) -> int:
    """Number of points of the projective space of F_p^d."""
    return (p**d - 1) // (p - 1)


def candidate_count(dims: Dims, p: int) -> int:
    """Number of projective product tuples over F_p."""
    return math.prod(_projective_count(d, p) for d in dims.d)


def _projective_points(d: int, p: int):
    """The projective points of F_p^d, each with first nonzero coordinate 1.

    Points are ordered by the position of that leading 1, then by the
    coordinates after it read as a base-p number; ``_site_index`` is the
    inverse.
    """
    for lead in range(d):
        head = (0,) * lead + (1,)
        for rest in product(range(p), repeat=d - lead - 1):
            yield head + rest


def _site_index(v, p: int) -> int:
    """Position of a normalized vector in ``_projective_points`` order."""
    d = len(v)
    lead = next(i for i, a in enumerate(v) if a)
    rest = 0
    for a in v[lead + 1:]:
        rest = rest * p + a
    return sum(p ** (d - 1 - i) for i in range(lead)) + rest


def _solved_site(dims: Dims) -> int:
    # solving the largest site leaves the fewest fibres to enumerate
    return max(range(dims.k), key=lambda r: (dims.d[r], r))


def _check_oracle(dims: Dims, p: int, budget: int) -> int:
    """Refuse a bad prime or an over-budget enumeration; return the fibre count."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= dims.max_level:
        raise ValueError(
            f"prime {p} must exceed the top level {dims.max_level}"
        )
    s = _solved_site(dims)
    fibres = math.prod(
        _projective_count(d, p) for r, d in enumerate(dims.d) if r != s
    )
    if fibres > budget:
        raise _over_budget(fibres, budget)
    # the batched kernel's residues are int64; refused on both paths alike
    if max(dims.d) * p * p >= 2**63:
        raise ValueError(f"prime {p} is too large for int64 residues")
    return fibres


def _kernel_basis(rows: list[list[int]], pivots: list[int], d: int,
                  p: int) -> list[list[int]]:
    """A basis of the kernel of a reduced matrix, one vector per free column
    (1 there, 0 in the other free columns).  Row i of ``rows`` carries the
    pivot ``pivots[i]`` and is zero in every other pivot column."""
    basis = []
    pivot_set = set(pivots)
    for j in range(d):
        if j in pivot_set:
            continue
        x = [0] * d
        x[j] = 1
        for row, c in zip(rows, pivots):
            x[c] = -row[j] % p
        basis.append(x)
    return basis


def _kernel_points(rows: list[list[int]], pivots: list[int], d: int, p: int):
    """Projective points of the kernel of a reduced matrix, each scaled so its
    first nonzero coordinate is 1."""
    basis = _kernel_basis(rows, pivots, d, p)
    for coef in _projective_points(len(basis), p):
        v = [sum(a * b[i] for a, b in zip(coef, basis)) % p for i in range(d)]
        inv = pow(next(a for a in v if a), -1, p)
        yield tuple(a * inv % p for a in v)


def _reduce_rows(rows, d: int, p: int, stop: int | None = None):
    """Reduced echelon rows and pivots of the matrix ``rows`` (width ``d``,
    entries in range(p)), or None as soon as its rank reaches ``stop``."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        for c, b in zip(pivots, basis):
            f = row[c]
            if f:
                row = [(a - f * e) % p for a, e in zip(row, b)]
        for lead, a in enumerate(row):
            if a:
                break
        else:  # a zero row
            continue
        if len(basis) + 1 == stop:
            return None
        inv = pow(a, -1, p)
        basis.append([x * inv % p for x in row])
        pivots.append(lead)
    # every row is zero at the pivots of the rows before it; clear the rest
    for i in range(len(basis) - 1, 0, -1):
        c, b = pivots[i], basis[i]
        for j in range(i):
            f = basis[j][c]
            if f:
                basis[j] = [(a - f * e) % p for a, e in zip(basis[j], b)]
    return basis, pivots


def _combine(parts: list[list[int]], lead: int, terms, p: int) -> list[int]:
    """parts[lead] plus c * parts[a] for every (a, c) of ``terms``, mod p.

    The parts are reduced already, so with no terms parts[lead] comes back
    as it is.
    """
    out = parts[lead]
    if not terms:
        return out
    for a, c in terms[:-1]:
        out = [u + c * v for u, v in zip(out, parts[a])]
    a, c = terms[-1]
    return [(u + c * v) % p for u, v in zip(out, parts[a])]


def _hit_fibres(h: list[list[int]], dims: Dims, p: int):
    """Yield (positions, points, rows, pivots) for every fibre with a hit.

    A depth-first walk over the unsolved sites on plain ints mod p: each
    partial contraction of the annihilator ``h`` is shared by every fibre
    below it.  At a leaf the rows of the fibre's matrix are made one at a
    time and eliminated as they come, so a fibre stops at full rank.
    """
    s = _solved_site(dims)
    d_s = dims.d[s]
    unsolved = [r for r in range(dims.k) if r != s]
    sites = [dims.d[r] for r in unsolved]
    strides = [math.prod(dims.d[r + 1:]) for r in range(dims.k)]
    # layout: the unsolved sites' indices outermost, then the row of h, then
    # the solved site's index
    outer = [sum(i * strides[r] for i, r in zip(idx, unsolved))
             for idx in product(*(range(d) for d in sites))]
    inner = [b * strides[s] for b in range(d_s)]
    m = len(h)
    tensor = [row[o + b] for o in outer for row in h for b in inner]
    # each point as its leading 1 and the (coordinate, value) pairs after it
    points = [
        [(x, x.index(1), [(a, c) for a, c in enumerate(x) if c][1:])
         for x in _projective_points(d, p)]
        for d in sites
    ]
    last = len(sites) - 1

    def walk(t, depth, pos, fixed):
        # t as one slice per coordinate of this depth's site
        size = len(t) // sites[depth]
        slices = [t[a * size:(a + 1) * size] for a in range(sites[depth])]
        if depth < last:
            for n, (x, lead, terms) in enumerate(points[depth]):
                yield from walk(_combine(slices, lead, terms, p), depth + 1,
                                pos + [n], fixed + [x])
            return
        # per row of h, its d_s entries in every slice
        by_row = [[sl[j * d_s:(j + 1) * d_s] for sl in slices] for j in range(m)]
        for n, (x, lead, terms) in enumerate(points[depth]):
            # a fibre of full rank has no hits
            reduced = _reduce_rows(
                (_combine(parts, lead, terms, p) for parts in by_row), d_s, p, d_s)
            if reduced is not None:
                yield (pos + [n], fixed + [x], *reduced)

    yield from walk(tensor, 0, [], [])


def _annihilator(rows: list[list[int]], modulus: int | None, dims: Dims,
                 p: int) -> tuple[int, list[list[int]]]:
    """Rank mod p of the integer rows, and a basis of their annihilator: the
    rows whose contraction with a vector vanishes exactly when the vector
    lies in their span mod p.  ``modulus`` is the prime the rows are
    residues modulo, if any."""
    if modulus not in (None, p):
        raise ValueError(f"subspace over F_{modulus} searched over F_{p}")
    total = dims.total
    check_elimination_cost(len(rows), total)
    basis, pivots = _reduce_rows([[a % p for a in row] for row in rows], total, p)
    # every fibre contracts the annihilator: refuse one that elimination on
    # it would refuse, as span() would
    check_elimination_cost(total - len(basis), total)
    return len(basis), _kernel_basis(basis, pivots, total, p)


def _rank_and_points(rows: list[list[int]], modulus: int | None, dims: Dims,
                     p: int, budget: int) -> tuple[int, list[tuple]]:
    """Rank mod p of the integer rows, and the oracle's hits in their span as
    int tuples, one per site, in output order."""
    fibres = _check_oracle(dims, p, budget)
    rank, h = _annihilator(rows, modulus, dims, p)
    if fibres > _BATCH_FIBRES:
        from .ffkernel import _batched_hit_fibres as hit_fibres
    else:
        hit_fibres = _hit_fibres

    s = _solved_site(dims)
    d_s = dims.d[s]
    steps = fibres
    hits = []
    for pos, fixed, red, pivots in hit_fibres(h, dims, p):
        steps += _projective_count(d_s - len(pivots), p)
        if steps > budget:
            raise _over_budget(steps, budget)
        for x in _kernel_points(red, pivots, d_s, p):
            key = pos[:s] + [_site_index(x, p)] + pos[s:]
            hits.append((key, tuple(fixed[:s]) + (x,) + tuple(fixed[s:])))
    hits.sort(key=lambda hit: hit[0])
    return rank, [combo for _, combo in hits]


def _product_points(generators, dims: Dims, p: int, budget: int) -> list[tuple]:
    """The oracle's hits as int tuples, one per site, in output order."""
    return _rank_and_points(*_integer_rows(generators, dims), dims, p, budget)[1]


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
    lexicographic order of their per-site positions in ``_projective_points``
    order, every factor scaled to first nonzero coordinate 1.  Up to
    ``_BATCH_FIBRES`` fibres the solve runs on plain ints; above it, on the
    batched numpy kernel.  Both give the same list.

    ``budget`` bounds the fibre solves plus the points found; the fibre
    count is checked before any work.
    """
    return _product_vectors(dims, p, _product_points(generators, dims, p, budget))


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
    """One finite-field report per prime; witness recorded where found."""
    primes = default_primes(dims) if primes is None else list(primes)
    rational_dim = None
    if isinstance(generators, Subspace):
        if generators.field == RATIONAL:
            rational_dim = generators.dim  # already a reduced echelon basis
    else:
        generators = list(generators)
        if generators and generators[0].field == RATIONAL:
            from .elimination import span

            rational_dim = span(generators, dims=dims, field=RATIONAL).dim
    if primes:
        # the first prime's checks, before converting a generator: an
        # oversized input is refused at once
        _check_oracle(dims, primes[0], budget)
        check_elimination_cost(
            generators.dim if isinstance(generators, Subspace) else len(generators),
            dims.total)
    rows, modulus = _integer_rows(generators, dims)
    reports = []
    for p in primes:
        rank, combos = _rank_and_points(rows, modulus, dims, p, budget)
        found = _product_vectors(dims, p, combos)
        certified = {f"fp({p})": rank}
        if rational_dim is not None:
            certified["rational"] = rational_dim
        reports.append(VerificationReport(
            method="finite-field",
            params={"p": p},
            verdict=WITNESS if found else NO_WITNESS,
            witness=found[0] if found else None,
            metrics={"tests": candidate_count(dims, p), "found": len(found)},
            certified_dims=certified,
        ))
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


def _vandermonde_points(dims: Dims, p: int) -> list[tuple]:
    """The p+1 projective Vandermonde points over F_p as int tuples, one per
    site: (1, t, t^2, ...) for t = 0 .. p-1, then the top basis vectors."""
    out = []
    for t in range(p):
        powers = [1]
        for _ in range(max(dims.d) - 1):
            powers.append(powers[-1] * t % p)
        out.append(tuple(tuple(powers[:d]) for d in dims.d))
    out.append(tuple((0,) * (d - 1) + (1,) for d in dims.d))
    return out


def classify_product_vectors_fp(
    dims: Dims, p: int, budget: int = ENUMERATION_BUDGET
) -> ClassifyReport:
    """Check that the product vectors in the entangled complement over F_p
    are exactly the p+1 projective Vandermonde points (one per field element
    plus the point at infinity)."""
    _check_oracle(dims, p, budget)  # before the N + 1 level sums are built
    # level sums have 0/1 coefficients, so reduction mod p is exact
    gens = [level_sum_vector(dims, n) for n in range(dims.max_level + 1)]
    combos = _product_points(gens, dims, p, budget)
    found = _product_vectors(dims, p, combos)
    expected = _vandermonde_points(dims, p)
    expected_set, found_set = set(expected), set(combos)
    missing = _product_vectors(
        dims, p, [combo for combo in expected if combo not in found_set])
    extraneous = [pv for combo, pv in zip(combos, found) if combo not in expected_set]
    return ClassifyReport(
        dims=dims, p=p, passed=not missing and not extraneous,
        expected_count=p + 1, found=found, missing=missing,
        extraneous=extraneous,
    )
