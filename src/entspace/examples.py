"""Worked examples beside the paper's construction.

The character orthonormal basis of a level (complex floats, for ``onb``),
and the 4x4 matrix-space example whose natural rank-one family undershoots
its complement (``example2``), with the Gram matrix of product vectors.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

from .construct import INFINITY, ProductVector, vandermonde_vector
from .fields import COMPLEX, Field, RATIONAL, Scalar
from .grading import Dims, enumerate_level
from .linalg import StateVector, Subspace, check_dense_size


def character_basis(dims: Dims, n: int) -> list[StateVector]:
    """Discrete-Fourier orthonormal basis of a level, as complex floats.

    Entry 0 is the normalized level sum; entries 1.. span the entangled slice
    of the level.  The Gram matrix is the identity up to float roundoff.
    """
    idxs = enumerate_level(dims, n)
    a = len(idxs)
    check_dense_size(a, dims.total)
    scale = 1.0 / math.sqrt(a)
    out = []
    for j in range(a):
        coeffs = [0j] * dims.total
        for t, idx in enumerate(idxs):
            coeffs[dims.position(idx)] = scale * cmath.exp(2j * math.pi * j * t / a)
        out.append(StateVector.from_values(dims, COMPLEX, coeffs))
    return out


class SplitAntidiagonalExample(NamedTuple):
    m_space: Subspace
    m_perp: Subspace
    spanning_set: list[ProductVector]


def split_antidiagonal_spaces(field: Field = RATIONAL) -> SplitAntidiagonalExample:
    """4x4 matrix-space example where a natural rank-one family undershoots.

    The middle anti-diagonal constraint is split into two shorter runs, so
    m_space has eight constraints and dimension 8, strictly inside the
    entangled subspace.  The returned rank-one family (Vandermonde points
    0..6 plus the top corner matrix) spans only a 7-dimensional part of the
    8-dimensional orthocomplement of m_space, yet its own orthocomplement is
    already completely entangled.
    """
    from .elimination import orthocomplement, span  # onb needs no elimination

    dims = Dims((4, 4))
    groups = [
        [(0, 0)],
        [(0, 1), (1, 0)],
        [(0, 2), (1, 1), (2, 0)],
        [(0, 3), (1, 2)],
        [(2, 1), (3, 0)],
        [(1, 3), (2, 2), (3, 1)],
        [(2, 3), (3, 2)],
        [(3, 3)],
    ]
    funcs = []
    for g in groups:
        coeffs = [field.zero()] * dims.total
        for idx in g:
            coeffs[dims.position(idx)] = field.one()
        funcs.append(StateVector(dims, field, tuple(coeffs)))
    m_space = orthocomplement(span(funcs))
    m_perp = orthocomplement(m_space)
    pts = [Fraction(t) for t in range(7)] + [INFINITY]
    family = [vandermonde_vector(dims, pt, field) for pt in pts]
    return SplitAntidiagonalExample(m_space, m_perp, family)


def gram_matrix(vectors: list[ProductVector]) -> list[list[Scalar]]:
    """Gram matrix of the expansions, conjugate-linear in the row index."""
    if not vectors:
        return []
    expanded = [v.expand() for v in vectors]
    return [[a.inner(b) for b in expanded] for a in expanded]
