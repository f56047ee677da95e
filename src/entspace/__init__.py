"""Completely entangled subspaces of multi-qudit systems.

Exact construction of the graded entangled subspace and its product-vector
complement, unextendible product bases, and two independent verifiers: a
finite-field enumeration oracle and a numerical product-overlap maximizer.
"""

from importlib import import_module


def _lazy_getattr(module: str, homes: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) that resolves each name of
    ``homes`` in the package module named there, importing it on first
    access: a process compiles only the modules it uses."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(import_module(f"{__name__}.{home}"), name)

    return __getattr__


# Every public name, by the module that defines it.
_HOMES = {
    **dict.fromkeys((
        "Dims", "parse_dims", "enumerate_level", "level_counts", "LevelSums",
        "BudgetExceededError", "DEFAULT_MAX_SWEEPS", "DEFAULT_RESTARTS",
        "DEFAULT_TOL", "NO_WITNESS", "WITNESS", "VerificationReport", "INFINITY"),
        "grading"),
    **dict.fromkeys(("multi_index", "all_indices", "level", "level_count",
                     "level_count_closed_form"), "counting"),
    **dict.fromkeys((
        "Field", "Fp", "RATIONAL", "COMPLEX", "prime_field", "parse_field"),
        "fields"),
    **dict.fromkeys(("StateVector", "Subspace"), "linalg"),
    **dict.fromkeys((
        "span", "orthocomplement", "intersect", "subspace_sum", "reduce_mod_p"),
        "elimination"),
    **dict.fromkeys((
        "ProductVector", "standard_product_vector",
        "level_sum_vector", "vandermonde_vector",
        "entangled_subspace", "entangled_complement", "entangled_level",
        "level_sum_line", "antidiagonal_zero_space"), "construct"),
    **dict.fromkeys((
        "UpbRecipe", "minimal_upb", "upb_of_size", "UpbReport", "verify_upb"),
        "upb"),
    **dict.fromkeys((
        "character_basis", "split_antidiagonal_spaces", "gram_matrix"),
        "examples"),
    **dict.fromkeys((
        "ENUMERATION_BUDGET", "candidate_count", "default_primes"), "ff"),
    **dict.fromkeys((
        "ClassifyReport", "classify_product_vectors_fp", "ff_verify",
        "find_product_vectors_fp"), "ffobjects"),
    **dict.fromkeys((
        "ALS_BUDGET", "AlsResult", "max_product_overlap",
        "nearest_vandermonde", "orthonormal_basis"), "verify"),
}

__getattr__ = _lazy_getattr(__name__, _HOMES)

__all__ = list(_HOMES)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
