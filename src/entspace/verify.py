"""Two independent verifiers for complete entanglement.

The finite-field route enumerates every projective product tuple over F_p
and tests exact membership, giving a definitive statement about the reduced
subspace.  The numerical route runs alternating single-site maximization of
the product overlap over complex floats and reports a margin; it can certify
the presence of a product vector (overlap near 1) but never the absence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .construct import INFINITY, ProductVector, entangled_subspace, \
    level_sum_vector, vandermonde_vector
from .fields import COMPLEX, Fp, RATIONAL, is_prime, prime_field
from .grading import Dims, level_counts
from .linalg import DEFAULT_MAX_SWEEPS, DEFAULT_RESTARTS, DEFAULT_TOL, \
    NO_WITNESS, WITNESS, BudgetExceededError, StateVector, Subspace, \
    integer_generators, orthocomplement, reduce_mod_p, span

# Fibre solves plus product vectors found.  Every shape with at most 10**7
# projective product tuples needs fewer fibres (the most: 537,824 for 2^6
# at p = 13), and each found point is held in memory as a ProductVector.
ENUMERATION_BUDGET = 10**6
# int64 entries per block of partial contractions in the fibre solve
_CHUNK_ENTRIES = 1 << 16
# complex entries per stacked array of the ALS restarts advanced together: a
# 64 KB stack stays in cache, and peak memory stays near a lone restart's
_ALS_BLOCK_ENTRIES = 1 << 12
# Worst-case ALS site updates, restarts * max_sweeps * sites.  The defaults
# need 64 * 500 * k, the largest benchmarked run (3,3 with 1000 restarts)
# 10**6; each update is also one float kept in ``AlsResult.histories``.
ALS_BUDGET = 4 * 10**6
DEFAULT_PRIME_POOL = (5, 7, 11)


def _over_budget(steps: int, budget: int) -> BudgetExceededError:
    # A step is one fibre solve or one product vector found; ``steps`` is the
    # fibre count alone when the enumeration is refused before it starts.
    return BudgetExceededError(
        steps, budget, "enumeration", "fibre solves and found points"
    )


@dataclass
class VerificationReport:
    method: str                 # "finite-field" | "als"
    params: dict
    verdict: str                # NO_WITNESS | WITNESS
    witness: ProductVector | None
    metrics: dict
    certified_dims: dict

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.verdict == WITNESS):
            raise ValueError("witness must be present exactly when found")


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


def _integer_rows(generators, dims: Dims) -> list[StateVector]:
    if isinstance(generators, Subspace):
        if generators.dims != dims:
            raise TypeError(f"subspace dims {generators.dims} do not match {dims}")
        if generators.field == RATIONAL:
            return integer_generators(generators)
        return list(generators.rows)
    return list(generators)


def _projective_count(d: int, p: int) -> int:
    """Number of points of the projective space of F_p^d."""
    return (p**d - 1) // (p - 1)


def candidate_count(dims: Dims, p: int) -> int:
    """Number of projective product tuples over F_p."""
    return math.prod(_projective_count(d, p) for d in dims.d)


def _site_points(d: int, p: int, pos: np.ndarray) -> np.ndarray:
    """Rows: the projective points of F_p^d at the given positions.

    Each point has first nonzero coordinate 1.  Points are ordered by the
    position of that leading 1, then by the coordinates after it read as a
    base-p number; ``_site_index`` is the inverse.
    """
    offsets = np.cumsum([0] + [p ** (d - 1 - lead) for lead in range(d - 1)])
    lead = np.searchsorted(offsets, pos, side="right") - 1
    rest = pos - offsets[lead]
    out = np.zeros((len(pos), d), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        out[:, i] = rest % p
        rest = rest // p
    out[np.arange(len(pos)), lead] = 1
    return out


def _site_index(v, p: int) -> int:
    """Position of a normalized vector in ``_site_points`` order."""
    d = len(v)
    lead = next(i for i, a in enumerate(v) if a)
    rest = 0
    for a in v[lead + 1:]:
        rest = rest * p + a
    return sum(p ** (d - 1 - i) for i in range(lead)) + rest


def _solved_site(dims: Dims) -> int:
    # solving the largest site leaves the fewest fibres to enumerate
    return max(range(dims.k), key=lambda r: (dims.d[r], r))


def _check_oracle(dims: Dims, p: int, budget: int) -> None:
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
    if max(dims.d) * p * p >= 2**63:
        raise ValueError(f"prime {p} is too large for int64 residues")


def _inverse_mod_p(x: np.ndarray, p: int) -> np.ndarray:
    # Fermat: x^(p-2); every intermediate product stays below p^2
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _rref_stack(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced echelon form over F_p of every matrix in an (F, m, d) stack.

    Works in place and returns the stack with the (F, d) mask of pivot
    columns; row i of a reduced matrix carries its i-th pivot.
    """
    nb, m, d = a.shape
    every = np.arange(nb)
    rank = np.zeros(nb, dtype=np.intp)
    pivot = np.zeros((nb, d), dtype=bool)
    for c in range(d):
        cand = (a[:, :, c] != 0) & (np.arange(m) >= rank[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        r = np.minimum(rank, m - 1)
        src = np.where(has, cand.argmax(axis=1), r)
        # rows at or below the rank are zero left of c, so only the columns
        # from c on change; a matrix without a pivot here gets top = 0
        top = a[every, src, c:]
        top = top * (_inverse_mod_p(top[:, 0], p) * has)[:, None] % p
        a[every, src] = a[every, r]
        tail = a[:, :, c:]
        tail -= tail[:, :, :1] * top[:, None, :]
        tail %= p
        a[every[has], r[has], c:] = top[has]
        pivot[:, c] = has
        rank += has
    return a, pivot


def _kernel_points(red: np.ndarray, pivot: np.ndarray, p: int):
    """Projective points of the kernel of one reduced matrix, each scaled so
    its first nonzero coordinate is 1."""
    d = len(pivot)
    pivot_rows = list(zip(red.tolist(), np.flatnonzero(pivot).tolist()))
    basis = []
    for j in np.flatnonzero(~pivot).tolist():
        x = [0] * d
        x[j] = 1
        for row, c in pivot_rows:
            x[c] = -row[j] % p
        basis.append(x)
    count = _projective_count(len(basis), p)
    for coef in _site_points(len(basis), p, np.arange(count)).tolist():
        v = [sum(a * b[i] for a, b in zip(coef, basis)) % p for i in range(d)]
        inv = pow(next(a for a in v if a), -1, p)
        yield [a * inv % p for a in v]


def _fibre_stacks(mat: np.ndarray, sites: list[int], p: int):
    """Yield, in fibre order, stacks of the small matrices M of every fibre.

    ``mat`` holds partial contractions of H along axis 0, with the next
    unsolved site as axis 2; ``sites`` lists the dimensions of the unsolved
    sites still to contract.  A contraction is shared by every fibre below
    it, and no block holds much more than ``_CHUNK_ENTRIES`` entries.
    """
    if not sites:
        yield mat
        return
    d, n = sites[0], _projective_count(sites[0], p)
    row_entries = max(1, mat[0].size // d)
    x_step = max(1, min(n, _CHUNK_ENTRIES // row_entries))
    rows_step = max(1, _CHUNK_ENTRIES // (row_entries * n))
    for i in range(0, len(mat), rows_step):
        for j in range(0, n, x_step):
            x = _site_points(d, p, np.arange(j, min(j + x_step, n)))
            out = np.einsum("cja...,na->cnj...", mat[i:i + rows_step], x) % p
            out = out.reshape((out.shape[0] * out.shape[1],) + out.shape[2:])
            yield from _fibre_stacks(out, sites[1:], p)


def find_product_vectors_fp(
    generators, dims: Dims, p: int, budget: int = ENUMERATION_BUDGET
) -> list[ProductVector]:
    """All projective product vectors lying in the given subspace over F_p.

    The subspace is spanned from the (integer) generators after reduction
    mod p; a subspace already over F_p is used as it is.  An empty result is
    an exact statement about F_p; it supports the complex-field claim only
    for p above the top level, which is why smaller primes are rejected
    outright.

    The search is a fibre solve.  A product vector lies in the subspace
    exactly when every row of the annihilator H contracts to zero with it.
    Fixing a projective point on every site but the largest one (the solved
    site) turns that into a small linear system on the solved site, whose
    projective kernel points are the hits of that fibre.  Hits come in
    lexicographic order of their per-site positions in ``_site_points``
    order, every factor scaled to first nonzero coordinate 1.

    ``budget`` bounds the fibre solves plus the points found; the fibre
    count is checked before any work.
    """
    _check_oracle(dims, p, budget)
    rows = _integer_rows(generators, dims)  # also checks a subspace's dims
    fld = prime_field(p)
    if isinstance(generators, Subspace) and generators.field == fld:
        reduced = generators
    else:
        reduced = reduce_mod_p(rows, dims, p)
    annihilator = orthocomplement(reduced)

    s = _solved_site(dims)
    sites = [d for r, d in enumerate(dims.d) if r != s]
    shape = tuple(_projective_count(d, p) for d in sites)
    h = np.array(
        [[c.value for c in row.coeffs] for row in annihilator.rows],
        dtype=np.int64,
    ).reshape((annihilator.dim,) + dims.d)
    h = np.moveaxis(h, s + 1, -1)

    steps = math.prod(shape)
    first = 0
    hits = []
    for stack in _fibre_stacks(h[None], sites, p):
        idx = np.unravel_index(np.arange(first, first + len(stack)), shape)
        first += len(stack)
        red, pivot = _rref_stack(stack, p)
        hit = np.flatnonzero(~pivot.all(axis=1))
        fixed = [_site_points(d, p, i[hit]).tolist() for d, i in zip(sites, idx)]
        for n, f in enumerate(hit):
            steps += _projective_count(dims.d[s] - int(pivot[f].sum()), p)
            if steps > budget:
                raise _over_budget(steps, budget)
            pos = [int(i[f]) for i in idx]
            factors = [pts[n] for pts in fixed]
            for x in _kernel_points(red[f], pivot[f], p):
                key = pos[:s] + [_site_index(x, p)] + pos[s:]
                hits.append((key, factors[:s] + [x] + factors[s:]))
    hits.sort(key=lambda hit: hit[0])
    return [
        ProductVector(dims, fld, tuple(tuple(Fp(a, p) for a in f) for f in combo))
        for _, combo in hits
    ]


def ff_verify(
    generators, dims: Dims, primes=None, budget: int = ENUMERATION_BUDGET
) -> list[VerificationReport]:
    """One finite-field report per prime; witness recorded where found."""
    if primes is None:
        primes = default_primes(dims)
    rows = _integer_rows(generators, dims)
    rational_dim = None
    if rows and rows[0].field == RATIONAL:
        if isinstance(generators, Subspace):
            rational_dim = generators.dim  # already a reduced echelon basis
        else:
            rational_dim = span(rows, dims=dims, field=RATIONAL).dim
    reports = []
    for p in primes:
        _check_oracle(dims, p, budget)  # before reducing: refuse at once
        reduced = reduce_mod_p(rows, dims, p)
        found = find_product_vectors_fp(reduced, dims, p, budget)
        certified = {f"fp({p})": reduced.dim}
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


@dataclass
class ClassifyReport:
    dims: Dims
    p: int
    passed: bool
    expected_count: int
    found: list[ProductVector]
    missing: list[ProductVector]
    extraneous: list[ProductVector]


def _factor_key(pv: ProductVector):
    return tuple(tuple(c.value for c in f) for f in pv.factors)


def classify_product_vectors_fp(
    dims: Dims, p: int, budget: int = ENUMERATION_BUDGET
) -> ClassifyReport:
    """Check that the product vectors in the entangled complement over F_p
    are exactly the p+1 projective Vandermonde points (one per field element
    plus the point at infinity)."""
    # level sums have 0/1 coefficients, so reduction mod p is exact
    gens = [level_sum_vector(dims, n) for n in range(dims.max_level + 1)]
    found = find_product_vectors_fp(gens, dims, p, budget)
    fld = prime_field(p)
    expected = {}
    for lam in range(p):
        pv = vandermonde_vector(dims, lam, fld)
        expected[_factor_key(pv)] = pv
    inf = vandermonde_vector(dims, INFINITY, fld)
    expected[_factor_key(inf)] = inf

    found_keys = {_factor_key(pv): pv for pv in found}
    missing = [pv for key, pv in expected.items() if key not in found_keys]
    extraneous = [pv for key, pv in found_keys.items() if key not in expected]
    passed = not missing and not extraneous
    return ClassifyReport(
        dims=dims, p=p, passed=passed, expected_count=p + 1,
        found=found, missing=missing, extraneous=extraneous,
    )


def orthonormal_basis(s: Subspace) -> np.ndarray:
    """Complex-float orthonormal rows spanning the same subspace.

    One QR factorization of the rows; a diagonal entry of R below 1e-12 means
    a row is numerically dependent on the ones before it.
    """
    if s.field.kind == "fp":
        raise TypeError("prime-field subspaces have no complex embedding")
    rows = np.array(
        [[complex(c) for c in r.coeffs] for r in s.rows], dtype=complex
    ).reshape(s.dim, s.dims.total)
    q, r = np.linalg.qr(rows.T)
    if not np.all(np.abs(np.diagonal(r)) >= 1e-12):  # also rejects nan
        raise ValueError("input rows are numerically dependent")
    return np.ascontiguousarray(q.T)


class LevelSums(NamedTuple):
    """A graded space named by its levels, for ``max_product_overlap``.

    With ``sums`` the space is spanned by the level sums u_n of ``levels``;
    without, it is the part of those levels orthogonal to their u_n.  So S
    (and example1, which is S on two factors) is every level without sums,
    Sperp every level with sums, and ``level:n`` the level n without sums:
    the spaces ``construct`` writes down exactly.
    """

    levels: tuple[int, ...]
    sums: bool = False


def _site_update_matrices(w_conj: np.ndarray, factors: list[np.ndarray], r: int) -> np.ndarray:
    # contraction of the conjugated basis against every restart's factors
    # except site r (each a (B, d_s) stack); returns c with
    # <w_j, x_b> = (c[b] @ x_b[r])_j
    k = len(factors)
    operands: list = [w_conj, list(range(1, k + 2))]
    for s in range(k):
        if s != r:
            operands.extend([factors[s], [0, s + 2]])
    return np.einsum(*operands, [0, 1, r + 2])


def _dense_form(basis, dims: Dims):
    """Site form of the span of orthonormal rows w_j: c^H c, where c holds
    the overlaps <w_j, x> as linear maps of site r's factor.

    Returns (form, shift, dim, rows): ``rows`` is the height of c.
    """
    basis = np.asarray(basis, dtype=complex)
    m = basis.shape[0]
    if m and basis.shape[1] != dims.total:
        raise ValueError(f"basis width {basis.shape[1]} != total {dims.total}")
    if m and not np.max(np.abs(basis @ basis.conj().T - np.eye(m))) <= 1e-8:
        raise ValueError("basis rows are not orthonormal")  # also rejects nan
    w_conj = basis.conj().reshape((m,) + dims.d)

    def form(factors: list[np.ndarray], r: int) -> np.ndarray:
        c = _site_update_matrices(w_conj, factors, r)
        return c.conj().transpose(0, 2, 1) @ c

    return form, 0.0, m, m


def _product_polynomial(factors: list[np.ndarray], skip: int) -> np.ndarray:
    # coefficients of prod_{s != skip} P_s(t), P_s(t) = sum_i f_s[i] t^i,
    # one row per restart
    q = None
    for s, f in enumerate(factors):
        if s == skip:
            continue
        if q is None:
            q = f
            continue
        out = np.zeros((len(q), q.shape[1] + f.shape[1] - 1), dtype=q.dtype)
        for j in range(f.shape[1]):
            out[:, j:j + q.shape[1]] += q * f[:, j:j + 1]
        q = out
    return q


def _toeplitz(q: np.ndarray, d: int) -> np.ndarray:
    # the stack T with T[b, n, j] = q[b, n - j], zero outside, so that T @ a
    # holds the coefficients of q(t) * sum_j a[j] t^j
    t = np.zeros((len(q), q.shape[1] + d - 1, d), dtype=q.dtype)
    for j in range(d):
        t[:, j:j + q.shape[1], j] = q
    return t


def _level_sum_form(space: LevelSums, dims: Dims):
    """Site form of a graded space, read off the level sums.

    For unit factors a_s, <u_n, x> is c_n, the t^n coefficient of
    prod_s P_s(t), and with every other site fixed c = T a_r.  So the part
    of x in the span of the u_n has squared norm a_r^H M a_r with
    M = T^H diag(1/a_n) T, and the rest of level n has the level's squared
    mass minus |c_n|^2 / a_n.  On S the levels hold all of x, so the overlap
    is 1 - a_r^H M a_r: the form is -M and the overlap is its top eigenvalue
    plus the shift 1, so the gap 1 - overlap is the bottom eigenvalue of M
    rather than a difference of two numbers near 1.

    Returns (form, shift, dim, rows): ``rows`` is the height of T.
    """
    for n in space.levels:
        if not 0 <= n <= dims.max_level:
            raise ValueError(f"level {n} out of range [0, {dims.max_level}]")
    counts = level_counts(dims)
    levels = np.array(sorted(set(space.levels)), dtype=np.intp)
    every = len(levels) == dims.max_level + 1
    # the form is M on the span of the sums, and -M (plus the masses) off it
    sign = 1.0 if space.sums else -1.0
    weights = sign / np.array([counts[n] for n in levels], dtype=float)[:, None]

    def form(factors: list[np.ndarray], r: int) -> np.ndarray:
        d = dims.d[r]
        t = _toeplitz(_product_polynomial(factors, r), d)
        if not every:
            t = t[:, levels]
        m = t.conj().transpose(0, 2, 1) @ (weights * t)
        if space.sums or every:
            return m
        masses = [f.real ** 2 + f.imag ** 2 for f in factors]
        mass = _toeplitz(_product_polynomial(masses, r), d)[:, levels].sum(axis=1)
        m[:, np.arange(d), np.arange(d)] += mass
        return m

    shift = 1.0 if every and not space.sums else 0.0
    dim = len(levels) if space.sums else sum(counts[n] - 1 for n in levels)
    return form, shift, dim, dims.max_level + 1


def _top_eigvec(a: np.ndarray, previous: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eigh(a)
    top = float(vals[-1])
    # degenerate top eigenvalue: stay close to the previous iterate so the
    # sweep remains deterministic
    near = vals > top - 1e-12 * max(1.0, abs(top))
    if int(near.sum()) > 1:
        sub = vecs[:, near]
        proj = sub @ (sub.conj().T @ previous)
        norm = np.linalg.norm(proj)
        if norm > 1e-8:
            return top, proj / norm
    return top, vecs[:, -1]


def _start_factors(dims: Dims, ts: range, seed: int) -> list[np.ndarray]:
    """Unit start factors of the restarts ``ts``, one (B, d_s) array per site.

    Restart t draws all its sites at once from the generator seeded with
    (seed, t): the site vectors in order, each entry a (real, imaginary)
    pair of standard normals.
    """
    factors = [np.empty((len(ts), d), dtype=complex) for d in dims.d]
    ends = np.cumsum(dims.d).tolist()
    for i, t in enumerate(ts):
        # default_rng([seed, t]) without its wrapper's overhead
        rng = np.random.Generator(np.random.PCG64([seed, t]))
        z = rng.standard_normal(2 * ends[-1]).view(complex)
        for f, a, b in zip(factors, [0] + ends, ends):
            f[i] = z[a:b] / np.linalg.norm(z[a:b])
    return factors


def _als_block(form, dims: Dims, ts: range, max_sweeps: int, tol: float,
               seed: int, shift: float = 0.0):
    """Advance the restarts ``ts`` together until each one converges.

    ``form(factors, r)`` gives every active restart's Hermitian site form:
    the factor of site r maximizing the overlap is its top eigenvector, and
    the overlap is its top eigenvalue plus ``shift``.  Returns every
    restart's final overlap, final factors (one (B, d_s) array per site)
    and history: its overlap after each site update.
    """
    factors = _start_factors(dims, ts, seed)
    final = np.empty(len(ts))
    n_sweeps = np.empty(len(ts), dtype=np.intp)
    active = np.arange(len(ts))
    work = list(factors)  # the active restarts' factors
    start = np.zeros(len(ts))
    log = []
    for sweep in range(max_sweeps):
        overlaps = np.empty((len(active), dims.k))
        for r in range(dims.k):
            a = form(work, r)
            vals, vecs = np.linalg.eigh(a)
            top = vals[:, -1]
            new = vecs[:, :, -1]
            near = vals > (top - 1e-12 * np.maximum(1.0, np.abs(top)))[:, None]
            for i in np.flatnonzero(near.sum(axis=1) > 1).tolist():
                _, new[i] = _top_eigvec(a[i], work[r][i])
            work[r] = new
            overlaps[:, r] = top + shift
        log.append((active, overlaps))
        current = overlaps[:, -1]
        done = (current - start < tol) | (sweep == max_sweeps - 1)
        for f, x in zip(factors, work):
            f[active[done]] = x[done]
        final[active[done]] = current[done]
        n_sweeps[active[done]] = sweep + 1
        keep = ~done
        if not keep.any():
            break
        active, start = active[keep], current[keep]
        work = [x[keep] for x in work]
    # a restart runs sweeps 0 .. n_sweeps - 1 without a gap, so its sweep s
    # goes right after its earlier ones
    ends = np.cumsum(n_sweeps)
    flat = np.empty((ends[-1], dims.k))
    for s, (act, overlaps) in enumerate(log):
        flat[ends[act] - n_sweeps[act] + s] = overlaps
    values = flat.ravel().tolist()
    ends = (ends * dims.k).tolist()
    return final, factors, [values[a:b] for a, b in zip([0] + ends, ends)]


@dataclass
class AlsResult:
    best_overlap: float
    witness: ProductVector | None
    histories: list[list[float]]
    report: VerificationReport

    def __iter__(self):
        return iter((self.best_overlap, self.witness, self.report))


def _fix_phases(factors: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    for f in factors:
        i = int(np.argmax(np.abs(f)))
        ph = f[i] / abs(f[i])
        out.append(f / ph)
    return out


def max_product_overlap(
    basis: np.ndarray | LevelSums,
    dims: Dims,
    restarts: int = DEFAULT_RESTARTS,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> AlsResult:
    """Maximize the squared projection of a unit product vector on a subspace.

    ``basis`` is a ``LevelSums`` graded space (S, Sperp, a level slice, or
    example1, which is S on two factors), or any subspace given by
    orthonormal rows (checked to 1e-8).  A graded space's site updates come
    from the level sums alone: a Toeplitz matrix of the other sites' product
    polynomial, with no basis and no contraction over the whole space.  Rows
    (the example2 spaces, and any basis a caller passes) are contracted
    densely against the factors.  Each restart draws
    fresh factors from an isotropic complex Gaussian, then cycles over the
    sites; the optimal single-site update is the top eigenvector of a small
    Hermitian matrix, so the overlap never decreases.  A restart stops after
    a sweep that gains less than ``tol``, or after ``max_sweeps`` sweeps.
    A search that could take more than ``ALS_BUDGET`` site updates raises
    ``BudgetExceededError`` before any work.

    Restarts advance together in blocks: each site update is one batched
    site form and one batched eigensolve over every unconverged restart of
    the block, and no stacked array holds more than ``_ALS_BLOCK_ENTRIES``
    entries (unless one restart alone needs more).  Restart
    seeds derive from (seed, restart index) alone and each restart's
    arithmetic is that of a lone run, so the outcome is independent of
    execution order and block size.  Among restarts reaching the same best
    overlap, the lowest index wins.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if max_sweeps < 1:
        raise ValueError(f"need at least one sweep, got max_sweeps={max_sweeps}")
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    updates = restarts * max_sweeps * dims.k
    if updates > ALS_BUDGET:
        raise BudgetExceededError(updates, ALS_BUDGET, "ALS search",
                                  "site updates (restarts * max_sweeps * sites)")
    params = {"restarts": restarts, "max_sweeps": max_sweeps,
              "tol": tol, "seed": seed}
    if isinstance(basis, LevelSums):
        form, shift, m, rows = _level_sum_form(basis, dims)
    else:
        form, shift, m, rows = _dense_form(basis, dims)
    if m == 0:
        report = VerificationReport(
            method="als", params=params,
            verdict=NO_WITNESS, witness=None,
            metrics={"best_overlap": 0.0, "total_sweeps": 0, "best_restart": -1},
            certified_dims={"complex": 0},
        )
        return AlsResult(0.0, None, [], report)
    # per restart, the site form's factor (c or T) holds rows * d_r entries
    # and the eigenproblem d_r * d_r
    width = max(dims.d)
    block = max(1, _ALS_BLOCK_ENTRIES // (width * max(rows, width)))
    best = -1.0
    best_factors: list[np.ndarray] | None = None
    best_restart = -1
    histories: list[list[float]] = []
    for first in range(0, restarts, block):
        ts = range(first, min(first + block, restarts))
        final, factors, block_histories = _als_block(
            form, dims, ts, max_sweeps, tol, seed, shift)
        histories += block_histories
        i = int(np.argmax(final))  # the first restart reaching the maximum
        if final[i] > best:
            best = float(final[i])
            best_factors = [f[i].copy() for f in factors]
            best_restart = first + i
    total_sweeps = sum(map(len, histories)) // dims.k

    best = min(max(best, 0.0), 1.0)
    witness_pv = ProductVector.from_values(
        dims, COMPLEX, [tuple(f) for f in _fix_phases(best_factors)]
    )
    verdict = WITNESS if best > 1.0 - tol else NO_WITNESS
    report = VerificationReport(
        method="als",
        params=params,
        verdict=verdict,
        witness=witness_pv if verdict == WITNESS else None,
        metrics={"best_overlap": best, "total_sweeps": total_sweeps,
                 "best_restart": best_restart},
        certified_dims={"complex": m},
    )
    return AlsResult(best, witness_pv, histories, report)


def nearest_vandermonde(witness: ProductVector, dims: Dims):
    """Best-fit parameter point for a numerically found product vector.

    Returns (point, distance): the distance is between unit expansions after
    optimizing the global phase, so an exact match gives 0.
    """
    num = 0j
    den = 0.0
    for f in witness.factors:
        arr = np.asarray([complex(c) for c in f])
        if len(arr) < 2:
            continue
        num += complex(np.vdot(arr[:-1], arr[1:]))
        den += float(np.vdot(arr[:-1], arr[:-1]).real)
    candidates: list = [INFINITY]
    if den > 1e-30:
        candidates.append(num / den)
    w = np.asarray([complex(c) for c in witness.expand().coeffs])
    w = w / np.linalg.norm(w)
    best_pt, best_dist = None, float("inf")
    for pt in candidates:
        z = vandermonde_vector(dims, pt, COMPLEX).expand()
        zv = np.asarray([complex(c) for c in z.coeffs])
        zv = zv / np.linalg.norm(zv)
        overlap = abs(complex(np.vdot(zv, w)))
        dist = math.sqrt(max(0.0, 2.0 - 2.0 * overlap))
        if dist < best_dist:
            best_pt, best_dist = pt, dist
    return best_pt, best_dist


@dataclass
class UpbReport:
    size: int
    span_dim: int
    independent: bool
    meets_min_size: bool
    complement_dim: int
    complement_in_entangled: bool
    ff_reports: list[VerificationReport] = dataclass_field(default_factory=list)
    als_report: VerificationReport | None = None
    is_upb: bool = False
    witness: ProductVector | None = None


def verify_upb(
    vectors: list[ProductVector],
    dims: Dims,
    primes=None,
    use_als: bool = False,
    restarts: int = DEFAULT_RESTARTS,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    budget: int = ENUMERATION_BUDGET,
) -> UpbReport:
    """Full audit of a claimed unextendible product basis.

    Checks exact linear independence, the minimal-size bound, and then hunts
    for a product vector in the orthocomplement of the span.  Size below the
    minimum already disqualifies the set, but the oracle still runs so a
    failure comes with an explicit witness.
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
    entangled = entangled_subspace(dims, fld)
    inside = all(entangled.contains(row) for row in complement.rows)

    report = UpbReport(
        size=len(vectors),
        span_dim=spanned.dim,
        independent=independent,
        meets_min_size=meets_min,
        complement_dim=complement.dim,
        complement_in_entangled=inside,
    )
    witness = None
    if complement.dim > 0:
        if fld == RATIONAL:
            report.ff_reports = ff_verify(complement, dims, primes, budget)
            for rep in report.ff_reports:
                if rep.verdict == WITNESS and witness is None:
                    witness = rep.witness
        if use_als:
            als = max_product_overlap(
                orthonormal_basis(complement), dims,
                restarts=restarts, max_sweeps=max_sweeps, tol=tol, seed=seed,
            )
            report.als_report = als.report
            if als.report.verdict == WITNESS and witness is None:
                witness = als.report.witness
    report.witness = witness
    report.is_upb = independent and meets_min and witness is None
    return report
