"""Two independent verifiers for complete entanglement.

The finite-field route (``entspace.ff``, whose public names are re-exported
here) enumerates every projective product vector of the subspace reduced
mod p, giving a definitive statement about the reduced subspace; this
module holds its batched numpy kernel for large enumerations.  The
numerical route runs alternating single-site maximization of the product
overlap over complex floats and reports a margin; it can certify the
presence of a product vector (overlap near 1) but never the absence.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# The package modules load before numpy: a module compiled from source after
# numpy (as when bytecode caching is off) raises the peak RSS of an ALS run.
from .construct import INFINITY, ProductVector, vandermonde_vector
from .fields import COMPLEX
from .grading import Dims, Record, level_counts
from .linalg import DEFAULT_MAX_SWEEPS, DEFAULT_RESTARTS, DEFAULT_TOL, \
    NO_WITNESS, WITNESS, BudgetExceededError, Subspace, VerificationReport

import numpy as np

# The oracle's names, re-exported on first access (PEP 562): an ALS search
# never loads ``entspace.ff``, whose compile and import cost about 15 ms.
_FF_NAMES = frozenset({
    "DEFAULT_PRIME_POOL", "ENUMERATION_BUDGET", "ClassifyReport", "UpbReport",
    "candidate_count", "classify_product_vectors_fp", "default_primes",
    "ff_verify", "find_product_vectors_fp", "verify_upb",
})


def __getattr__(name: str):
    if name in _FF_NAMES:
        from . import ff

        return getattr(ff, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# int64 entries per block of partial contractions in the batched fibre solve
_CHUNK_ENTRIES = 1 << 16
# complex entries per stacked array of the ALS restarts advanced together: a
# 64 KB stack stays in cache, and peak memory stays near a lone restart's
_ALS_BLOCK_ENTRIES = 1 << 12
# Worst-case ALS site updates, restarts * max_sweeps * sites.  The defaults
# need 64 * 500 * k, the largest benchmarked run (3,3 with 1000 restarts)
# 10**6; each update is also one float kept in ``AlsResult.histories``.
ALS_BUDGET = 4 * 10**6
# Largest ALS site form of one restart, as rows * d_r complex entries (its
# factor c or T; the eigenproblem is d_r * d_r).  A graded space has one row
# per level, so 2,1000000 would need 10**12 entries; 2e6 entries are 32 MB.
ALS_FORM_BUDGET = 2 * 10**6


def check_form_size(dims: Dims, rows: int) -> int:
    """Refuse an ALS site form of ``rows`` rows over ``ALS_FORM_BUDGET``
    before anything is built; return its entries per restart."""
    width = max(dims.d)
    entries = width * max(rows, width)
    if entries > ALS_FORM_BUDGET:
        raise BudgetExceededError(entries, ALS_FORM_BUDGET, "ALS site form",
                                  "entries per restart")
    return entries


def _site_points(d: int, p: int, pos: np.ndarray) -> np.ndarray:
    """Rows: the projective points of F_p^d at the given positions.

    Each point has first nonzero coordinate 1.  Points are in the order of
    ``entspace.ff._projective_points``: by the position of that leading 1,
    then by the coordinates after it read as a base-p number;
    ``_site_index`` is the inverse.
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


def _fibre_stacks(mat: np.ndarray, sites: list[int], p: int):
    """Yield, in fibre order, stacks of the small matrices M of every fibre.

    ``mat`` holds partial contractions of H along axis 0, with the next
    unsolved site as axis 2; ``sites`` lists the dimensions of the unsolved
    sites still to contract.  A contraction is shared by every fibre below
    it, and no block holds much more than ``_CHUNK_ENTRIES`` entries.
    """
    from .ff import _projective_count

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


def _batched_hit_fibres(h: list[list[int]], dims: Dims, p: int):
    """Yield (positions, points, rows, pivots) for every fibre with a hit,
    as ``entspace.ff._hit_fibres`` does, from stacks of fibres reduced at
    once: the kernel for enumerations too large for the plain-int walk."""
    from .ff import _projective_count, _solved_site

    s = _solved_site(dims)
    sites = [d for r, d in enumerate(dims.d) if r != s]
    shape = tuple(_projective_count(d, p) for d in sites)
    h = np.array(h, dtype=np.int64).reshape((len(h),) + dims.d)
    h = np.moveaxis(h, s + 1, -1)
    first = 0
    for stack in _fibre_stacks(h[None], sites, p):
        idx = np.unravel_index(np.arange(first, first + len(stack)), shape)
        first += len(stack)
        red, pivot = _rref_stack(stack, p)
        hit = np.flatnonzero(~pivot.all(axis=1))
        fixed = [list(map(tuple, _site_points(d, p, i[hit]).tolist()))
                 for d, i in zip(sites, idx)]
        for n, f in enumerate(hit.tolist()):
            pivots = np.flatnonzero(pivot[f]).tolist()
            yield ([int(i[f]) for i in idx], [pts[n] for pts in fixed],
                   red[f][:len(pivots)].tolist(), pivots)


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

    Returns (form, shift, dim).
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

    return form, 0.0, m


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

    Returns (form, shift, dim); T has one row per level.
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
    return form, shift, dim


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


class AlsResult(Record):
    __slots__ = ("best_overlap", "witness", "histories", "report")

    def __init__(self, best_overlap: float, witness: ProductVector | None,
                 histories: list[list[float]], report: VerificationReport) -> None:
        self.best_overlap = best_overlap
        self.witness = witness
        self.histories = histories
        self.report = report

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
    A search that could take more than ``ALS_BUDGET`` site updates, or
    whose site form holds more than ``ALS_FORM_BUDGET`` entries per restart,
    raises ``BudgetExceededError`` before any work.

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
    graded = isinstance(basis, LevelSums)
    per_restart = check_form_size(dims, dims.max_level + 1 if graded else len(basis))
    params = {"restarts": restarts, "max_sweeps": max_sweeps,
              "tol": tol, "seed": seed}
    if graded:
        form, shift, m = _level_sum_form(basis, dims)
    else:
        form, shift, m = _dense_form(basis, dims)
    if m == 0:
        report = VerificationReport(
            method="als", params=params,
            verdict=NO_WITNESS, witness=None,
            metrics={"best_overlap": 0.0, "total_sweeps": 0, "best_restart": -1},
            certified_dims={"complex": 0},
        )
        return AlsResult(0.0, None, [], report)
    block = max(1, _ALS_BLOCK_ENTRIES // per_restart)
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
