"""The batched numpy kernel of the finite-field oracle.

``entspace.ff`` solves small enumerations fibre by fibre on plain ints; one
with more than ``ff._BATCH_FIBRES`` fibres loads this module, which
contracts the annihilator against blocks of projective points and reduces
whole stacks of fibres at once.  It yields the same fibres, in the same
order, as the plain-int walk.
"""

from __future__ import annotations

import numpy as np

from .ff import _projective_count, _solved_site
from .grading import Dims

# int64 entries per block of partial contractions in the batched fibre solve
_CHUNK_ENTRIES = 1 << 16


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
