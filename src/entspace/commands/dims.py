"""``dims``: the level-count table of a shape and its dimensions."""

from __future__ import annotations

from ..grading import BudgetExceededError, level_counts, parse_dims
from . import _write

# Largest ``dims`` table, as factors * levels: the level counts take one
# pass of prefix sums per factor, and the table has a line per level.
# 2,999999 is at the budget: about 3 s for a 33 MB table.
TABLE_BUDGET = 2 * 10**6


# none beside --dims, --out and --seed
OPTIONS = ()


def run(args) -> int:
    d = parse_dims(args.dims)
    steps = d.k * (d.max_level + 1)
    if steps > TABLE_BUDGET:
        raise BudgetExceededError(steps, TABLE_BUDGET, "level table", "factors * levels")
    counts = level_counts(d)
    lines = [
        f"dims: {','.join(str(x) for x in d.d)}",
        f"N: {d.max_level}",
        f"total: {d.total}",
        f"dim entangled subspace: {d.total - (d.max_level + 1)}",
        f"{'n':>4} {'a_n':>6} {'a_n-1':>6} {'cumulative':>11}",
    ]
    cumulative = 0
    for n, a in enumerate(counts):
        cumulative += a
        lines.append(f"{n:>4} {a:>6} {a - 1:>6} {cumulative:>11}")
    _write("\n".join(lines) + "\n", args.out)
    return 0
