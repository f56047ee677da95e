"""Vectors written as document text: Vandermonde vectors at rational
parameter points, standard product vectors, and a level's character basis.

At a finite point t the Vandermonde vector's factor is (1, t, t^2, ...) and
its coefficient at each index of level n is t^n, written as the text of the
exact power; at ``inf`` it is the top basis vector of each slot; and a
standard vector is 0s and a 1.  So a document of such vectors is written
with no scalar or vector made.  ``upb`` writes its basis with it
(``entspace.upbtext``), and ``construct`` the eight vectors of example2-R;
the tests check both against ``codec``'s encoding of the library's
``ProductVector``s.  ``onb`` writes a level's character basis from its
closed form, whose rows ``examples.character_basis`` wraps as vectors.
"""

from __future__ import annotations

import math

from .grading import DENSE_BUDGET, INFINITY, Dims, check_dense_size, enumerate_level


def _character_rows(dims: Dims, n: int) -> list[list[complex]]:
    """The character basis of level n as rows of complex floats: row j is
    ``exp(2 pi i j t / a) / sqrt(a)`` at the t-th of the level's ``a``
    indices and 0 elsewhere, so row 0 is the normalized level sum."""
    import cmath  # upb and construct load this module without it

    check_dense_size(1, dims.total)  # before the level is enumerated
    positions = [dims.position(idx) for idx in enumerate_level(dims, n)]
    a = len(positions)
    check_dense_size(a, dims.total)
    scale = 1.0 / math.sqrt(a)
    rows = [[0j] * dims.total for _ in range(a)]
    for j, row in enumerate(rows):
        for t, pos in enumerate(positions):
            row[pos] = scale * cmath.exp(2j * math.pi * j * t / a)
    return rows


def _vector_entries(dims: Dims, points, chosen=()) -> list[dict]:
    """The document entries of the Vandermonde vectors at the rational
    ``points`` (``inf`` among them), then of the standard vectors of every
    index but the last of each level of ``chosen``: the factors, and the
    expansion while one dense vector of ``total`` entries passes
    ``check_dense_size``, as ``codec`` writes them."""
    top = dims.max_level
    dense = dims.total <= DENSE_BUDGET
    levels = [0]  # the level of every index, in lex order
    if dense:
        for d in dims.d:
            levels = [n + i for n in levels for i in range(d)]
    entries = []
    for pt in points:
        if pt is INFINITY:  # the top basis vector of each slot
            entry = {"factors": [["0"] * (d - 1) + ["1"] for d in dims.d]}
            powers = ["0"] * top + ["1"]
        else:  # the coefficient at level n is pt**n, 0**0 being 1
            powers = [str(pt**n) for n in range(top + 1)]
            entry = {"factors": [powers[:d] for d in dims.d]}
        if dense:
            entry["coeffs"] = [powers[n] for n in levels]
        entries.append(entry)
    for n in chosen:
        for idx in enumerate_level(dims, n)[:-1]:
            entry = {"factors": [["0"] * i + ["1"] + ["0"] * (d - i - 1)
                                 for i, d in zip(idx, dims.d)]}
            if dense:
                coeffs = ["0"] * dims.total
                coeffs[dims.position(idx)] = "1"
                entry["coeffs"] = coeffs
            entries.append(entry)
    return entries
