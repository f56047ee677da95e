"""The finite-field oracle: every projective product vector of a subspace
over F_p, and the exact checks built on it, on plain ints.

The oracle runs on plain ints mod p from the generators to the hits.  It
contracts the annihilator: the rows whose contraction with a product vector
vanishes exactly when the vector lies in the subspace.  For a subspace or
generators, one reduction gives the rank mod p, and the free-column
read-off of that reduction gives the annihilator; both, and the read-off of
each fibre's kernel, are ``reduction``'s, which ``orthocomplement`` uses
over Q too.  A graded space named by
a ``LevelSums`` (S, Sperp, ``level:n``, example1), or a ``GroupSums``
(example2-M), needs neither: its rows have disjoint supports, so its rank is
their number, and its annihilator is written down by ``grading``'s
group-row writer, the level sums for S and a level slice (with a unit row
at every position off the slice) and the S rows for Sperp, and the same
for each group.  No rational is made on such a space.

This module is what ``verify --method ff``, ``classify`` and the audit of
``upb`` run: the int cores (``_product_points``, ``_ff_runs``, ``_classify_points``) and the
writers of their documents from the int hits (``_point_entry``,
``_report_entry``, ``_classify_document``).  The library entry points that
make ``Fp`` scalars, ``ProductVector``s and reports from the hits
(``find_product_vectors_fp``, ``ff_verify``, ``classify_product_vectors_fp``
and ``ClassifyReport``) live in ``entspace.construct``.  So this module
imports only ``grading`` and ``reduction`` at load, and a graded oracle
command compiles neither ``linalg`` nor ``construct``.

This module runs without numpy, so ``verify --method ff``, ``upb`` and
``classify`` start as fast as ``construct``.  A small enumeration is a
depth-first fibre solve on plain ints; one with more than ``_BATCH_FIBRES``
fibres loads the batched numpy kernel in ``entspace.ffkernel``.  The UPB
audits run on it too: the ``upb`` command's in ``entspace.upbtext`` on a
``LevelSums``, and the library's in ``entspace.construct``.
"""

from __future__ import annotations

import math
from itertools import product

from .grading import DENSE_BUDGET, NO_WITNESS, WITNESS, BudgetExceededError, Dims, \
    GroupSums, LevelSums, _check_level_rows, _group_entries, _level_groups, \
    check_dense_size
from .reduction import _kernel_basis, _reduce_rows, check_elimination_cost, is_prime

# Fibre solves plus product vectors found.  Every shape with at most 10**7
# projective product tuples needs fewer fibres (the most: 537,824 for 2^6
# at p = 13), and each found point is held in memory as a tuple of int
# tuples, one per site.
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
    modulo: that of a subspace over F_p, None for a subspace over Q (its rows
    scaled to integers) or for integer generators."""
    from .linalg import Subspace, integer_rows

    if isinstance(generators, Subspace):
        if generators.dims != dims:
            raise TypeError(f"subspace dims {generators.dims} do not match {dims}")
        return integer_rows(generators.rows), generators.field.p
    return integer_rows(generators, dims), None


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


def _check_prime(dims: Dims, p: int) -> None:
    """Refuse a prime the oracle cannot use: not prime, or not above the top level."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= dims.max_level:
        raise ValueError(f"prime {p} must exceed the top level {dims.max_level}")


def _check_oracle(dims: Dims, p: int, budget: int) -> int:
    """Refuse a bad prime or an over-budget enumeration; return the fibre count."""
    _check_prime(dims, p)
    s = _solved_site(dims)
    fibres = math.prod(
        _projective_count(d, p) for r, d in enumerate(dims.d) if r != s
    )
    if fibres > budget:
        raise _over_budget(fibres, budget)
    # the batched kernel's residues are int64; refused on both paths alike.
    # Only a raised budget reaches this: at least p + 1 fibres within
    # ENUMERATION_BUDGET and max(d) <= p keep max(d) * p * p below 10**18
    if max(dims.d) * p * p >= 2**63:
        raise ValueError(f"prime {p} is too large for int64 residues")
    return fibres


def _kernel_points(rows: list[list[int]], pivots: list[int], d: int, p: int):
    """Projective points of the kernel of a reduced matrix, each scaled so its
    first nonzero coordinate is 1."""
    basis = _kernel_basis(rows, pivots, d, p)
    for coef in _projective_points(len(basis), p):
        v = [sum(a * b[i] for a, b in zip(coef, basis)) % p for i in range(d)]
        inv = pow(next(a for a in v if a), -1, p)
        yield tuple(a * inv % p for a in v)


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


def _level_rank(space: LevelSums, groups: list[list[int]]) -> int:
    """Rank of a ``LevelSums`` or ``GroupSums`` space over any field: its
    rows, a sum or the rows e_i - e_last per group, have disjoint supports."""
    return len(groups) if space.sums else sum(map(len, groups)) - len(groups)


def _level_annihilator(space: LevelSums, groups: list[list[int]], dims: Dims,
                       p: int) -> tuple[int, list[list[int]]]:
    """``_annihilator`` of a ``LevelSums`` or ``GroupSums`` space, in
    closed form.

    Per level (or group), the annihilator holds the other half of the split
    of that level: the level sum for the part orthogonal to it (S,
    ``level:n``, example2-M), and the rows e_i - e_last for the level sum
    (Sperp).  Every position off the space's levels adds its unit row.  It is refused as the elimination of
    the space's rows, and of their annihilator, would be.
    """
    total = dims.total
    rank = _level_rank(space, groups)
    check_elimination_cost(rank, total)
    check_elimination_cost(total - rank, total)
    on = bytearray(total)
    for positions in groups:
        for pos in positions:
            on[pos] = 1
    units = [[pos] for pos in range(total) if not on[pos]]
    h = _group_entries(total, groups, not space.sums, 0, 1, p - 1)
    return rank, h + _group_entries(total, units, True, 0, 1, p - 1)


def _oracle_target(generators, dims: Dims) -> tuple:
    """The arguments, before ``dims`` and p, of the annihilator the oracle
    contracts: a ``LevelSums`` or ``GroupSums`` and its groups, or the
    generators' integer rows and the prime they are residues modulo."""
    if isinstance(generators, (LevelSums, GroupSums)):
        return generators, list(_level_groups(dims, generators))
    return _integer_rows(generators, dims)


def _rank_and_points(target: tuple, dims: Dims, p: int,
                     budget: int) -> tuple[int, list[tuple]]:
    """Rank mod p of an ``_oracle_target``, and the oracle's hits in it as
    int tuples, one per site, in output order."""
    fibres = _check_oracle(dims, p, budget)
    if isinstance(target[0], (LevelSums, GroupSums)):
        rank, h = _level_annihilator(*target, dims, p)
    else:
        rank, h = _annihilator(*target, dims, p)
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
    return _rank_and_points(_oracle_target(generators, dims), dims, p, budget)[1]


def _point_entry(dims: Dims, p: int, combo) -> dict:
    """The document entry of the product vector over F_p whose factors are
    the residues ``combo``: the factors, and the expansion mod p while one
    dense vector of ``total`` entries passes ``check_dense_size``; past it
    the factors alone, which determine the vector exactly.  It is the one
    writer of an F_p point: ``codec`` writes an F_p ``ProductVector``
    with it too."""
    entry = {"factors": [list(map(str, f)) for f in combo]}
    if dims.total <= DENSE_BUDGET:
        coeffs = [1]
        for f in combo:
            coeffs = [c * a % p for c in coeffs for a in f]
        entry["coeffs"] = list(map(str, coeffs))
    return entry


def _ff_runs(generators, dims: Dims, primes=None,
             budget: int = ENUMERATION_BUDGET) -> list[tuple]:
    """The work of ``ff_verify`` on ints: per prime, (p, the rank mod p, the
    rank over Q or None, the hits as int tuples in output order)."""
    primes = default_primes(dims) if primes is None else list(primes)
    target = rational_dim = None
    if isinstance(generators, LevelSums):
        _check_level_rows(dims, generators)  # before any level is listed
    if isinstance(generators, (LevelSums, GroupSums)):
        target = _oracle_target(generators, dims)
        dim = rational_dim = _level_rank(*target)
        check_dense_size(dim, dims.total)  # the rows _level_rows would write
    else:
        from .linalg import RATIONAL, Subspace

        if isinstance(generators, Subspace):
            dim = generators.dim
        else:
            generators = list(generators)
            dim = len(generators)
    if primes:
        # the first prime's checks, before converting a generator: an
        # oversized input is refused at once
        _check_oracle(dims, primes[0], budget)
        check_elimination_cost(dim, dims.total)
    if target is None:
        target = _oracle_target(generators, dims)
        if isinstance(generators, Subspace):
            if generators.field == RATIONAL:
                rational_dim = dim  # already a reduced echelon basis
        elif generators:  # integer generators over Q: their rank, fraction-free
            check_elimination_cost(dim, dims.total)
            rational_dim = len(_reduce_rows(target[0], dims.total)[0])
    runs = []
    for p in primes:
        rank, hits = _rank_and_points(target, dims, p, budget)
        runs.append((p, rank, rational_dim, hits))
    return runs


def _run_fields(dims: Dims, p: int, rank: int, rational_dim: int | None,
                hits: list[tuple], witness) -> dict:
    """One prime's report, in the order of ``VerificationReport``'s fields,
    around the given ``witness``: every field of an ``ff_verify`` report is
    computed here, for the library and the command line alike."""
    certified = {f"fp({p})": rank}
    if rational_dim is not None:
        certified["rational"] = rational_dim
    return {
        "method": "finite-field",
        "params": {"p": p},
        "verdict": WITNESS if hits else NO_WITNESS,
        "witness": witness,
        "metrics": {"tests": candidate_count(dims, p), "found": len(hits)},
        "certified_dims": certified,
    }


def _report_entry(dims: Dims, p: int, rank: int, rational_dim: int | None,
                  hits: list[tuple]) -> dict:
    """``encode_report`` of one ``_ff_runs`` run's ``ff_verify`` report,
    written from its int hits with no scalar or vector made."""
    witness = None
    if hits:
        witness = {"field": f"fp({p})", **_point_entry(dims, p, hits[0])}
    return _run_fields(dims, p, rank, rational_dim, hits, witness)


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


def _classify_points(dims: Dims, p: int,
                     budget: int = ENUMERATION_BUDGET) -> tuple[list, list, list]:
    """The work of ``classify_product_vectors_fp`` on ints: the product
    vectors found in the entangled complement over F_p, the Vandermonde
    points missing from them and the found points beyond those, as int
    tuples."""
    _check_oracle(dims, p, budget)  # before the levels are listed
    found = _product_points(LevelSums(range(dims.max_level + 1), sums=True),
                            dims, p, budget)
    expected = _vandermonde_points(dims, p)
    expected_set, found_set = set(expected), set(found)
    return (found, [combo for combo in expected if combo not in found_set],
            [combo for combo in found if combo not in expected_set])


def _classify_document(dims: Dims, p: int, found: list[tuple], missing: list[tuple],
                       extraneous: list[tuple]) -> dict:
    """The ``classify`` document of ``_classify_points``'s int tuples; the
    one writer of it, which ``encode_classify_report`` also uses."""
    def entries(points):
        return [_point_entry(dims, p, combo) for combo in points]

    return {
        "dims": list(dims.d),
        "p": p,
        "passed": not missing and not extraneous,
        "expected_count": p + 1,
        "found_count": len(found),
        "found": entries(found),
        "missing": entries(missing),
        "extraneous": entries(extraneous),
    }
