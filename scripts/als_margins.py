#!/usr/bin/env python3
"""Measure how far entangled subspaces sit from the product-state variety.

For each requested shape the alternating optimizer maximizes the squared
product overlap with the entangled subspace; 1 - best is the margin that the
finite-field verdict predicts stays bounded away from zero.  The complement
is run alongside as a control where the optimizer must reach 1.  Both are
searched in their level-sum form, without building a basis.
"""

import argparse

from entspace import LevelSums, max_product_overlap, parse_dims
from entspace.commands import non_negative_int, positive_int


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", nargs="+", type=parse_dims,
                    default=[parse_dims(t) for t in ("2,2", "2,3", "3,3", "2,2,2")],
                    help="shapes to profile, e.g. --dims 2,3 3,3")
    ap.add_argument("--restarts", type=positive_int, nargs="+", default=[4, 16, 64])
    ap.add_argument("--seed", type=non_negative_int, default=0)
    args = ap.parse_args(argv)

    print(f"{'dims':>8} {'space':>6} {'restarts':>8} {'best overlap':>14} "
          f"{'margin':>10} {'sweeps':>7}")
    for dims in args.dims:
        every = tuple(range(dims.max_level + 1))
        for label, space in (
            ("S", LevelSums(every)),
            ("Sperp", LevelSums(every, sums=True)),
        ):
            for r in args.restarts:
                res = max_product_overlap(
                    space, dims, restarts=r, seed=args.seed
                )
                print(
                    f"{str(dims):>8} {label:>6} {r:>8} "
                    f"{res.best_overlap:>14.10f} "
                    f"{1 - res.best_overlap:>10.2e} "
                    f"{res.report.metrics['total_sweeps']:>7}"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
