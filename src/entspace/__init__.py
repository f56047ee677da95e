"""Completely entangled subspaces of multi-qudit systems.

Exact construction of the graded entangled subspace and its product-vector
complement, unextendible product bases, and two independent verifiers: a
finite-field enumeration oracle and a numerical product-overlap maximizer.
"""

from .grading import (
    Dims,
    enumerate_level,
    level,
    level_count,
    level_count_closed_form,
    level_counts,
    parse_dims,
)
from .fields import (
    COMPLEX,
    RATIONAL,
    Field,
    Fp,
    parse_field,
    prime_field,
)
from .linalg import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    NO_WITNESS,
    WITNESS,
    BudgetExceededError,
    StateVector,
    Subspace,
    intersect,
    orthocomplement,
    reduce_mod_p,
    span,
    subspace_sum,
)
from .construct import (
    INFINITY,
    ProductVector,
    UpbRecipe,
    antidiagonal_zero_space,
    character_basis,
    entangled_complement,
    entangled_level,
    entangled_subspace,
    gram_matrix,
    level_sum_line,
    level_sum_vector,
    minimal_upb,
    split_antidiagonal_spaces,
    standard_product_vector,
    upb_of_size,
    vandermonde_vector,
)

# The verifiers load on first access (PEP 562), so ``dims`` and
# ``construct`` import neither; the finite-field oracle needs no numpy, the
# ALS search does.
_FF_NAMES = frozenset({
    "ClassifyReport",
    "ENUMERATION_BUDGET",
    "UpbReport",
    "VerificationReport",
    "candidate_count",
    "classify_product_vectors_fp",
    "default_primes",
    "ff_verify",
    "find_product_vectors_fp",
    "verify_upb",
})
_VERIFY_NAMES = frozenset({
    "ALS_BUDGET",
    "AlsResult",
    "LevelSums",
    "max_product_overlap",
    "nearest_vandermonde",
    "orthonormal_basis",
})


def __getattr__(name: str):
    if name in _FF_NAMES:
        from . import ff

        return getattr(ff, name)
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _FF_NAMES | _VERIFY_NAMES)


__all__ = [
    "Dims",
    "parse_dims",
    "level",
    "enumerate_level",
    "level_count",
    "level_counts",
    "level_count_closed_form",
    "Field",
    "Fp",
    "RATIONAL",
    "COMPLEX",
    "prime_field",
    "parse_field",
    "StateVector",
    "Subspace",
    "span",
    "orthocomplement",
    "intersect",
    "subspace_sum",
    "reduce_mod_p",
    "INFINITY",
    "ProductVector",
    "UpbRecipe",
    "standard_product_vector",
    "level_sum_vector",
    "vandermonde_vector",
    "entangled_subspace",
    "entangled_complement",
    "entangled_level",
    "level_sum_line",
    "character_basis",
    "minimal_upb",
    "upb_of_size",
    "antidiagonal_zero_space",
    "split_antidiagonal_spaces",
    "gram_matrix",
    "ALS_BUDGET",
    "AlsResult",
    "BudgetExceededError",
    "ClassifyReport",
    "DEFAULT_MAX_SWEEPS",
    "DEFAULT_RESTARTS",
    "DEFAULT_TOL",
    "ENUMERATION_BUDGET",
    "LevelSums",
    "NO_WITNESS",
    "UpbReport",
    "VerificationReport",
    "WITNESS",
    "candidate_count",
    "classify_product_vectors_fp",
    "default_primes",
    "ff_verify",
    "find_product_vectors_fp",
    "max_product_overlap",
    "nearest_vandermonde",
    "orthonormal_basis",
    "verify_upb",
]

__version__ = "0.1.0"
