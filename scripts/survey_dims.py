#!/usr/bin/env python3
"""Sweep factor shapes and tabulate entangled-subspace sizes.

For each dims with total dimension up to --max-total, print the top level N,
the ambient dimension, the entangled-subspace dimension, and the level-count
profile.  With --oracle the finite-field enumeration runs on each shape and
the product-vector count found in the complement is shown next to the
expected p+1.
"""

import argparse
import time

from entspace import (
    BudgetExceededError,
    candidate_count,
    default_primes,
    entangled_complement,
    entangled_subspace,
    find_product_vectors_fp,
    level_counts,
)
from entspace.counting import iter_dims


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-total", type=int, default=32)
    ap.add_argument("--oracle", action="store_true",
                    help="run the mod-p enumeration on each shape")
    ap.add_argument("--budget", type=int, default=10**6,
                    help="most fibre solves plus found points per oracle run")
    args = ap.parse_args()

    header = f"{'dims':>12} {'N':>3} {'total':>6} {'dim S':>6}  counts"
    if args.oracle:
        header += f"  {'p':>3} {'tuples':>8} {'in S':>5} {'in Sperp':>8} {'sec':>6}"
    print(header)

    for dims in iter_dims(max_total=args.max_total):
        counts = level_counts(dims)
        s = entangled_subspace(dims)
        line = (
            f"{str(dims):>12} {dims.max_level:>3} {dims.total:>6} "
            f"{s.dim:>6}  {counts}"
        )
        if args.oracle:
            p = default_primes(dims, want=1)[0]
            tests = candidate_count(dims, p)
            t0 = time.perf_counter()
            try:
                in_s = find_product_vectors_fp(s, dims, p, args.budget)
                comp = entangled_complement(dims)
                in_c = find_product_vectors_fp(comp, dims, p, args.budget)
            except BudgetExceededError:
                line += f"  {p:>3} {tests:>8} (skipped: over budget)"
            else:
                dt = time.perf_counter() - t0
                line += (
                    f"  {p:>3} {2 * tests:>8} {len(in_s):>5} "
                    f"{len(in_c):>8} {dt:>6.2f}"
                )
                assert not in_s, f"product vector inside S for {dims}"
                assert len(in_c) == p + 1, f"unexpected count for {dims}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
