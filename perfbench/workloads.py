"""Invocation lists for the three workloads.

Each workload is a fixed family of shapes.  The workload seed only picks
the order of the list, which way round asymmetric dims are written (a
reversal keeps the level structure, so the cost barely moves), which of two
cheap primes a ``classify`` uses, and the ``--seed`` of every ALS run.

Every list also carries a few small control invocations from the layers the
workload is not about, so that every per-layer span occurs on every
workload and a change to one layer can be seen not to move the others.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-build", "ff-oracle", "als-search")
CSV_CONTROL = "construct --dims 3,3 --space S --format csv"


def _als_control(pick) -> str:
    return f"verify --dims 2,2 --space Sperp --method als --restarts 4 --seed {pick.seed()}"


def _upb_control(pick) -> str:
    return f"upb --dims {pick(2, 3)} --size 5 --primes 5"


def _exact_build(pick) -> list[str]:
    # Exact Fraction elimination dominates: S by span of level differences,
    # example1 by orthocomplement of the level sums, large JSON and CSV.
    return [
        f"construct --dims {pick(12, 14)} --space S",
        f"construct --dims {pick(12, 14)} --space S --format csv",
        f"construct --dims {pick(12, 13)} --space example1",
        f"construct --dims {pick(12, 13)} --space example1 --format csv",
        "construct --dims 2,2,2,2,2,2 --space Sperp",
        f"construct --dims {pick(3, 4, 5)} --space S",
        "construct --dims 6,6,6 --space Sperp",
        "construct --dims 16,16 --space Sperp --format csv",
        "construct --dims 4,4 --space example2-M",
        _als_control(pick),
        _upb_control(pick),
    ]


def _ff_oracle(pick) -> list[str]:
    # The brute-force F_p walk dominates: S gives no hit, Sperp gives p+1.
    return [
        f"verify --dims {pick(3, 4)} --space S --method ff --primes 7",
        "verify --dims 3,3 --space S --method ff --primes 13",
        f"verify --dims {pick(2, 2, 3)} --space S --method ff --primes 11",
        f"verify --dims {pick(3, 4)} --space Sperp --method ff --primes 7",
        f"verify --dims {pick(2, 5)} --space Sperp --method ff --primes 7",
        "verify --dims 2,2,2,2 --space Sperp --method ff --primes 11",
        f"verify --dims {pick(2, 4)} --space Sperp --method ff --primes 13",
        f"upb --dims {pick(3, 4)} --size 8 --primes 7",
        f"upb --dims {pick(3, 4)} --min --primes 7",
        f"classify --dims {pick(2, 3)} --prime 7",
        f"classify --dims 3,3 --prime {pick.choice(5, 7)}",
        _als_control(pick),
        CSV_CONTROL,
    ]


def _als_search(pick) -> list[str]:
    # max_product_overlap dominates; building S on these shapes is cheap.
    # The Sperp runs take the witness-found path.  Restarts are set so the
    # runs cost about the same: the median and the tail percentile then
    # fall inside one group of samples, whatever the number of passes.
    als = "verify --method als --dims {} --space {} --restarts {} --seed {}"
    runs = [
        ("2,2,2,2,2,2", "S", 10),
        ("4,4,4", "S", 160),
        ("3,3,3", "S", 250),
        ("5,5", "S", 680),
        (pick(3, 5), "S", 900),
        ("3,3", "S", 1000),
        ("4,4,4", "Sperp", 260),
        ("5,5", "Sperp", 380),
        (pick(2, 3, 4), "Sperp", 180),
    ]
    return [als.format(dims, space, restarts, pick.seed()) for dims, space, restarts in runs] + [
        _upb_control(pick),
        CSV_CONTROL,
    ]


class _Picker:
    """Seeded choices: dims orientation, small variants and ALS seeds."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def __call__(self, *dims: int) -> str:
        if self.rng.random() < 0.5:
            dims = dims[::-1]
        return ",".join(str(d) for d in dims)

    def choice(self, *options):
        return self.rng.choice(options)

    def seed(self) -> int:
        return self.rng.randrange(2**31)


_BUILDERS = {
    "exact-build": _exact_build,
    "ff-oracle": _ff_oracle,
    "als-search": _als_search,
}


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The workload's invocation list (argv after ``entspace``), in run order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    pick = _Picker(random.Random(f"{workload}:{seed}"))
    cmds = _BUILDERS[workload](pick)
    pick.rng.shuffle(cmds)
    return [c.split() for c in cmds]
