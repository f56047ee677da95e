"""Two independent verifiers for complete entanglement.

The finite-field route (``entspace.ff``, with its batched numpy kernel in
``entspace.ffkernel`` and its library entry points in
``entspace.ffobjects``; the UPB audit is ``entspace.upb``) enumerates every
projective product vector of the subspace reduced mod p, giving a
definitive statement about the reduced subspace.  This module is the
numerical route: alternating single-site maximization of the product
overlap over complex floats, which reports a margin; it can certify the
presence of a product vector (overlap near 1) but never the absence.

A search imports only ``grading``, ``serialize``, ``normals`` and numpy at
load, and never ``numpy.random``: ``normals`` draws each restart's start
factors as ``default_rng([seed, t])`` would, in plain Python.  The exact
layers (``construct``, ``fields``, ``linalg``) load only to make a witness
``ProductVector``: the report's, when the verdict is a witness, and
``AlsResult.witness`` on first access.  The command line makes neither: it
runs the search's float core, ``_als_runs``, and writes the report, a
witness included, from its floats with ``_als_entry``.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

# The package modules load before numpy: a module compiled from source after
# numpy (as when bytecode caching is off) raises the peak RSS of an ALS run.
from . import _lazy_getattr
from .grading import DEFAULT_MAX_SWEEPS, DEFAULT_RESTARTS, DEFAULT_TOL, DENSE_BUDGET, \
    INFINITY, NO_WITNESS, WITNESS, BudgetExceededError, Dims, LevelSums, Record, \
    VerificationReport, level_counts
from .normals import pcg64, seed_sequence_words, standard_normals, uint32_words
from .serialize import _complex_entry

import numpy as np

if TYPE_CHECKING:
    from .construct import ProductVector
    from .linalg import Subspace

# Aliases that perfbench's tracer looks up here, until it names the homes
# (ROADMAP item 1).
__getattr__ = _lazy_getattr(__name__, {
    **dict.fromkeys(("ff_verify", "find_product_vectors_fp",
                     "classify_product_vectors_fp"), "ffobjects"),
    "verify_upb": "upb",
})


# complex entries per stacked array of the ALS restarts advanced together: a
# 64 KB stack stays in cache, and peak memory stays near a lone restart's
_ALS_BLOCK_ENTRIES = 1 << 12
# Worst-case ALS site updates, restarts * max_sweeps * sites.  The defaults
# need 64 * 500 * k, the largest benchmarked run (3,3 with 1000 restarts)
# 10**6; each update is also one float kept in ``AlsResult.histories``.
ALS_BUDGET = 4 * 10**6
# Worst-case multiply-adds of a graded search, (k - 1) * max d * (N + 1) per
# site update (the other sites' polynomial product).  The defaults need 1.8e7
# on 12,12 and 1.1e8 on 12 factors of 2; one restart on 3,000 twos, 2.7e13.
ALS_POLY_BUDGET = 10**9
# Largest ALS site form of one restart, as rows * d_r complex entries (its
# factor c or T; the eigenproblem is d_r * d_r).  A graded space has one row
# per level, so 2,1000000 would need 10**12 entries; 2e6 entries are 32 MB.
ALS_FORM_BUDGET = 2 * 10**6


def orthonormal_basis(s: Subspace | list) -> np.ndarray:
    """Complex-float orthonormal rows spanning the same subspace.

    ``s`` is a subspace over Q or C, or a nonempty list of rows of numbers:
    the command line hands example2 over as the rows of its closed form,
    whose entries 0, 1 and -1 give the same complex matrix as its exact
    basis.  One QR factorization of the rows; a diagonal entry of R below
    1e-12 means a row is numerically dependent on the ones before it.
    """
    if isinstance(s, list):
        rows = np.array(s, dtype=complex)
    elif s.field.kind == "fp":
        raise TypeError("prime-field subspaces have no complex embedding")
    else:
        rows = np.array(
            [[complex(c) for c in r.coeffs] for r in s.rows], dtype=complex
        ).reshape(s.dim, s.dims.total)
    q, r = np.linalg.qr(rows.T)
    if not np.all(np.abs(np.diagonal(r)) >= 1e-12):  # also rejects nan
        raise ValueError("input rows are numerically dependent")
    return np.ascontiguousarray(q.T)


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
    top = dims.max_level  # a sum over the factors: not once per level
    for n in space.levels:
        if not 0 <= n <= top:
            raise ValueError(f"level {n} out of range [0, {top}]")
    levels = np.array(sorted(set(space.levels)), dtype=np.intp)
    every = len(levels) == top + 1
    # the largest level is at least the average, so a space of every level
    # is refused before the level counts, k * (N+1) big-int additions
    if every and dims.total > len(levels) * int(sys.float_info.max):
        raise ValueError(f"the largest level has at least a "
                         f"{(dims.total // len(levels)).bit_length()}-bit dimension, "
                         f"past the float range of the ALS search")
    counts = level_counts(dims)
    for n in space.levels:
        # the weights 1/a_n are floats; a count past the float range would
        # overflow converting (1,100 factors of 2 reach 10**329)
        if counts[n] > sys.float_info.max:
            raise ValueError(f"level {n} has {counts[n].bit_length()}-bit dimension, "
                             f"past the float range of the ALS search")
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

    Restart t draws all its sites at once, as ``default_rng([seed, t])``
    would: the site vectors in order, each entry a (real, imaginary) pair
    of standard normals.  ``entspace.normals`` repeats numpy's draw without
    loading ``numpy.random``: the block's seed sequences are hashed
    together, one uint64 entry per restart, then each restart's PCG64 draws
    its normals in plain Python.  Each restart fills its row of one block
    array, and each site of every restart is normalized in one batched
    inner product, the ddot of ``np.linalg.norm``.
    """
    ends = np.cumsum(dims.d).tolist()
    n = 2 * ends[-1]
    # a restart index is one 32-bit word: ALS_BUDGET keeps it below 2**32
    indices = np.arange(ts.start, ts.stop, dtype=np.uint64)
    words = seed_sequence_words(uint32_words(seed) + [indices])
    flat = []
    for w in np.stack(words, axis=1).tolist():
        flat += standard_normals(*pcg64(w), n)
    draws = np.array(flat).reshape(len(ts), n)
    factors = []
    for a, b in zip([0] + ends, ends):
        z = draws[:, 2 * a:2 * b]
        # the (B, 2, d) real and imaginary parts, each dotted with itself
        parts = z.reshape(len(ts), b - a, 2).transpose(0, 2, 1)[..., None, :]
        sq = parts @ parts.swapaxes(-1, -2)
        norm = np.sqrt(sq[:, 0, 0] + sq[:, 1, 0])
        factors.append(z.view(complex) / norm)
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
            # the eigenvalues ascend: the top one is degenerate when the
            # next one is near it
            near = vals[:, -2] > top - 1e-12 * np.maximum(1.0, np.abs(top))
            for i in np.flatnonzero(near).tolist():
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
    """A search's best overlap, its witness, every restart's history and the
    report.  ``witness`` is the best restart's product vector; given as its
    phase-fixed factors (a list of arrays), it is built on first access, so
    a search that reports no witness makes no exact object."""

    __slots__ = ("best_overlap", "_witness", "histories", "report")
    _fields = ("best_overlap", "witness", "histories", "report")

    def __init__(self, best_overlap: float, witness: ProductVector | list | None,
                 histories: list[list[float]], report: VerificationReport) -> None:
        self.best_overlap = best_overlap
        self._witness = witness
        self.histories = histories
        self.report = report

    @property
    def witness(self) -> ProductVector | None:
        if isinstance(self._witness, list):
            self._witness = _witness_vector(self._witness)
        return self._witness

    def __iter__(self):
        return iter((self.best_overlap, self.witness, self.report))


def _witness_vector(factors: list[np.ndarray]) -> ProductVector:
    """The complex product vector of the given factors, one array per site."""
    from .construct import ProductVector
    from .fields import COMPLEX

    dims = Dims(tuple(len(f) for f in factors))
    return ProductVector.from_values(dims, COMPLEX, [tuple(f) for f in factors])


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
    A search over ``ALS_BUDGET`` site updates, a graded one over
    ``ALS_POLY_BUDGET`` polynomial multiply-adds, or one whose site form
    holds more than ``ALS_FORM_BUDGET`` entries per restart, raises
    ``BudgetExceededError`` before any sweep.

    Restarts advance together in blocks: each site update is one batched
    site form and one batched eigensolve over every unconverged restart of
    the block, and no stacked array holds more than ``_ALS_BLOCK_ENTRIES``
    entries (unless one restart alone needs more).  Restart
    seeds derive from (seed, restart index) alone and each restart's
    arithmetic is that of a lone run, so the outcome is independent of
    execution order and block size.  Among restarts reaching the same best
    overlap, the lowest index wins.
    """
    fields, factors, histories = _als_runs(basis, dims, restarts, max_sweeps, tol, seed)
    witness = factors
    if fields["verdict"] == WITNESS:
        witness = fields["witness"] = _witness_vector(factors)
    return AlsResult(fields["metrics"]["best_overlap"], witness, histories,
                     VerificationReport(**fields))


def _als_entry(fields: dict, factors: list | None) -> dict:
    """``encode_report`` of the report of an ``_als_runs`` search, written
    from its floats: the witness is ``encode_witness`` of
    ``_witness_vector(factors)``, expanded with the same complex products,
    in the same order, as ``ProductVector.expand``."""
    if fields["verdict"] == WITNESS:
        sites = [f.tolist() for f in factors]
        entry = {"field": "complex128-approx",
                 "factors": [list(map(_complex_entry, f)) for f in sites]}
        if math.prod(map(len, sites)) <= DENSE_BUDGET:
            coeffs = [complex(1)]
            for f in sites:
                coeffs = [c * a for c in coeffs for a in f]
            entry["coeffs"] = list(map(_complex_entry, coeffs))
        fields["witness"] = entry
    return fields


def _als_runs(basis: np.ndarray | LevelSums, dims: Dims, restarts: int, max_sweeps: int,
              tol: float, seed: int) -> tuple[dict, list | None, list[list[float]]]:
    """The work of ``max_product_overlap`` on floats: the report's fields, in
    the order of ``VerificationReport``'s and with no witness; the best
    restart's phase-fixed factors, one array per site (None for a space of
    dimension 0); and every restart's history."""
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
    width = max(dims.d)
    per_restart = width * max(dims.max_level + 1 if graded else len(basis), width)
    if per_restart > ALS_FORM_BUDGET:
        raise BudgetExceededError(per_restart, ALS_FORM_BUDGET, "ALS site form",
                                  "entries per restart")
    params = {"restarts": restarts, "max_sweeps": max_sweeps,
              "tol": tol, "seed": seed}
    if graded:
        form, shift, m = _level_sum_form(basis, dims)
        work = updates * (dims.k - 1) * width * (dims.max_level + 1)
        if work > ALS_POLY_BUDGET:
            raise BudgetExceededError(work, ALS_POLY_BUDGET, "ALS search",
                                      "polynomial multiply-adds")
    else:
        form, shift, m = _dense_form(basis, dims)
    fields = {"method": "als", "params": params, "verdict": NO_WITNESS, "witness": None,
              "metrics": {"best_overlap": 0.0, "total_sweeps": 0, "best_restart": -1},
              "certified_dims": {"complex": m}}
    if m == 0:
        return fields, None, []
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
    if best > 1.0 - tol:
        fields["verdict"] = WITNESS
    fields["metrics"] = {"best_overlap": best, "total_sweeps": total_sweeps,
                         "best_restart": best_restart}
    return fields, _fix_phases(best_factors), histories


def nearest_vandermonde(witness: ProductVector, dims: Dims):
    """Best-fit parameter point for a numerically found product vector.

    Returns (point, distance): the distance is between unit expansions after
    optimizing the global phase, so an exact match gives 0.  Neither vector
    is expanded: the overlap of two product vectors is the product of their
    factors' overlaps, and so is each norm.
    """
    from .construct import vandermonde_vector
    from .fields import COMPLEX

    factors = [np.asarray([complex(c) for c in f]) for f in witness.factors]
    num = 0j
    den = 0.0
    for arr in factors:
        num += complex(np.vdot(arr[:-1], arr[1:]))
        den += float(np.vdot(arr[:-1], arr[:-1]).real)
    candidates: list = [INFINITY]
    if den > 1e-30:
        candidates.append(num / den)
    units = [w / np.linalg.norm(w) for w in factors]
    best_pt, best_dist = None, float("inf")
    for pt in candidates:
        # gap = 1 - overlap, gathered factor by factor as 1 - (1 - gap)(1 - h)
        # with h = 1 - |<z, w>| = |phase z - w|^2 / 2 for unit factors: no
        # cancellation near an exact match
        gap = 0.0
        for z, w in zip(vandermonde_vector(dims, pt, COMPLEX).factors, units):
            z = np.asarray(z) / np.linalg.norm(z)
            ip = complex(np.vdot(z, w))
            h = float(np.linalg.norm(z * (ip / abs(ip) if ip else 1) - w)) ** 2 / 2
            gap += h - gap * h
        dist = math.sqrt(max(0.0, 2.0 * gap))
        if dist < best_dist:
            best_pt, best_dist = pt, dist
    return best_pt, best_dist
