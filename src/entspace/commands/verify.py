"""``verify``: hunt for product vectors in a named space, by the finite-field
oracle or the ALS search."""

from __future__ import annotations

from ..grading import DEFAULT_MAX_SWEEPS, DEFAULT_RESTARTS, DEFAULT_TOL, NO_WITNESS, \
    WITNESS, LevelSums, _group_entries, _level_groups, parse_dims
from . import SPACES, _named_space, _write, bad_value, positive_int, prime_list


def tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise bad_value(f"must lie in (0, 1), got {text}")
    return tol


OPTIONS = (
    ("--space", {"required": True, "help": f"one of {SPACES}"}),
    ("--method", {"choices": ("ff", "als"), "default": "ff"}),
    ("--primes", {"type": prime_list, "default": None,
                  "help": "comma-separated oracle primes"}),
    ("--restarts", {"type": positive_int, "default": DEFAULT_RESTARTS}),
    ("--tol", {"type": tolerance, "default": DEFAULT_TOL}),
    ("--max-sweeps", {"type": positive_int, "default": DEFAULT_MAX_SWEEPS}),
)


def run(args) -> int:
    from ..serialize import json_dumps

    dims = parse_dims(args.dims)
    # a space stays unbuilt: the oracle takes its rank and annihilator in
    # closed form, and the search a graded space's level sums; example2 is
    # searched in dense form, on its rows
    space, expected = _named_space(dims, args.space)
    dense = not isinstance(space, LevelSums)
    if isinstance(space, list):  # example2-R: its Vandermonde vectors span Sperp
        space = LevelSums(range(dims.max_level + 1), sums=True)
    if args.method == "ff":
        from ..ff import _ff_runs, _report_entry

        runs = _ff_runs(space, dims, args.primes)
        reports = [_report_entry(dims, *ff_run) for ff_run in runs]
    else:
        # every module the search runs loads before numpy (one compiled after
        # it raises the run's peak RSS); the report, a witness included, is
        # written from the search's floats, so no exact layer loads for it
        from ..verify import _als_entry, _als_runs, orthonormal_basis

        if dense:
            space = orthonormal_basis(_group_entries(
                dims.total, _level_groups(dims, space), space.sums, 0, 1, -1))
        fields, factors, _ = _als_runs(space, dims, args.restarts, args.max_sweeps,
                                       args.tol, args.seed)
        reports = [_als_entry(fields, factors)]
    verdict = WITNESS if any(r["verdict"] == WITNESS for r in reports) else NO_WITNESS
    doc = {
        "dims": list(dims.d),
        "space": args.space,
        "method": args.method,
        "verdict": verdict,
        "expected": expected,
        "reports": reports,
    }
    _write(json_dumps(doc), args.out)
    return 0 if verdict == expected else 3
