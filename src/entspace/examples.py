"""Worked examples beside the paper's construction.

The character orthonormal basis of a level, and the 4x4 matrix-space
example whose natural rank-one family undershoots its complement
(``example2``), with the Gram matrix of product vectors.

No command loads this module: ``onb`` writes the rows its character basis
wraps (``producttext._character_rows``), and ``construct`` example2-M from
its eight groups and example2-R from its points, whose Vandermonde vectors
span Sperp of 4,4.  The objects built here are the tests' reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .construct import ProductVector, _group_rows, vandermonde_vector
from .fields import COMPLEX, Field, RATIONAL
from .grading import INFINITY, SPLIT_ANTIDIAGONAL, Dims
from .linalg import StateVector, Subspace
from .producttext import _character_rows

if TYPE_CHECKING:
    from .fields import Scalar


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
