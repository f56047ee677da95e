"""Exact row reduction on plain ints, its kernel read-off, its budget, and
the primality test.

``_reduce_rows`` is the one exact row reduction, over F_p on residues and
over Q on integer rows without fractions, and ``_kernel_basis`` the one
read-off of a kernel from reduced rows, over both fields.  The subspace
calculus in ``entspace.linalg`` builds on them, and the F_p oracle in
``entspace.ff`` reduces its inputs and reads its annihilator and every
fibre's kernel off with them, so each imports what it uses from here.  The
module imports only ``grading`` at load, so a graded oracle command
compiles no ``linalg``.
"""

from __future__ import annotations

import math

from .grading import BudgetExceededError

# Largest elimination span() takes on, as rows * cols * min(rows, cols), the
# order of the entry updates of a reduction: exact elimination is cubic, so
# past this an input fails at once; 16x16 S (about 1.3e7) is just below it.
ELIMINATION_BUDGET = 2 * 10**7


# Miller-Rabin bases: the primes up to 41 decide every n below this bound,
# which is the least composite that passes all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime, by deterministic Miller-Rabin with the prime
    bases up to 41: 13 modular powers, where trial division takes up to
    sqrt(n) / 2 steps.  The answer is exact: a number the bases refute is
    composite, and one that passes them all is prime below ``_MR_BOUND``
    (about 3.3e24).  Past the bound such a number is refused with
    ``ValueError``, as no test here decides it in bounded time."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:  # b witnesses that n is composite
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is past the range of the primality test "
                         f"(below {_MR_BOUND})")
    return True


def check_elimination_cost(rows: int, cols: int) -> None:
    """Refuse an elimination of ``rows`` vectors of length ``cols`` over budget."""
    estimate = rows * cols * min(rows, cols)
    if estimate > ELIMINATION_BUDGET:
        raise BudgetExceededError(estimate, ELIMINATION_BUDGET)


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _clear(row: list[int], b: list[int], c: int, p: int | None) -> list[int]:
    """``row`` with column c cleared by the reduced row ``b``, pivoted there."""
    f = row[c]
    if p is None:
        return _primitive([b[c] * a - f * e for a, e in zip(row, b)])
    return [(a - f * e) % p for a, e in zip(row, b)]


def _reduce_rows(rows, d: int, p: int | None = None, stop: int | None = None):
    """Reduced echelon rows and pivots of the int matrix ``rows`` (width
    ``d``), row i pivoted at ``pivots[i]`` and in input order, or None as
    soon as the rank reaches ``stop``.  Over F_p (entries in range(p)) every
    pivot is 1.  With ``p`` None the reduction is over Q without fractions:
    the pivot c of a row b clears a row as b[c] * row - row[c] * b, and every
    row is kept primitive (its gcd divided out) with a positive pivot, so a
    row of the rational reduced echelon form is a row here over its pivot.
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        for c, b in zip(pivots, basis):
            if row[c]:
                row = _clear(row, b, c, p)
        for lead, a in enumerate(row):
            if a:
                break
        else:  # a zero row
            continue
        if len(basis) + 1 == stop:
            return None
        if p is None:
            row = _primitive(row if a > 0 else [-x for x in row])
        else:
            inv = pow(a, -1, p)
            row = [x * inv % p for x in row]
        basis.append(row)
        pivots.append(lead)
    # every row is zero at the pivots of the rows before it; clear the rest
    for i in range(len(basis) - 1, 0, -1):
        c, b = pivots[i], basis[i]
        for j in range(i):
            if basis[j][c]:
                basis[j] = _clear(basis[j], b, c, p)
    return basis, pivots


def _kernel_basis(rows: list[list[int]], pivots: list[int], d: int,
                  p: int | None = None) -> list[list[int]]:
    """A basis of the kernel of a reduced matrix as ``_reduce_rows`` returns
    it, one vector per free column j (0 in the other free columns).  Row i of
    ``rows`` carries the pivot ``pivots[i]`` and is zero in every other pivot
    column.  Over F_p every pivot is 1 and the vector holds 1 at j.  Over Q
    the rows are primitive with positive pivots, and the vector holds at j
    the lcm of the pivots of the rows that meet column j, so every entry is
    an int."""
    basis = []
    pivot_set = set(pivots)
    for j in range(d):
        if j in pivot_set:
            continue
        x = [0] * d
        if p is None:
            m = x[j] = math.lcm(*[row[c] for row, c in zip(rows, pivots) if row[j]])
            for row, c in zip(rows, pivots):
                x[c] = -row[j] * (m // row[c])
        else:
            x[j] = 1
            for row, c in zip(rows, pivots):
                x[c] = -row[j] % p
        basis.append(x)
    return basis
