"""Exact linear solve over the rationals, in integer arithmetic.

A system is a list of rows of int or Fraction entries.  The one routine
here is fraction-free Gauss–Jordan elimination (Bareiss 1968), sized for
the small dense systems the rest of the package produces: the
class-weight systems of the Weingarten solve (moments._engine).  Each
row is held as a nonzero integer multiple of the rational row that plain
elimination would hold, so the pivots, the rank and the solution are
those of the rational reduced row echelon form; Fraction appears only
in the solution it returns.
"""

import math
from fractions import Fraction


def integer_multiple(row) -> tuple[int, list[int]]:
    """(D, D row) for int or Fraction entries, D the lcm of their
    denominators, the multiple as int."""
    denom = math.lcm(*(x.denominator for x in row))
    return denom, [x.numerator * (denom // x.denominator) for x in row]


def solve(a, b) -> tuple[list[Fraction], int]:
    """One solution of a x = b and the rank of a, from one elimination;
    raises ValueError if the system is inconsistent.

    For singular systems the free variables are set to zero, so the answer
    is a particular solution, not the unique one.  Each pivot is the first
    nonzero entry of its column at or below the current row; every other
    row r becomes p r - f (pivot row), p the pivot and f its entry in the
    column, divided by the gcd of its entries.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [integer_multiple(a[i][:] + [b[i]])[1] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols + 1):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(m[i], top)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(m[r][cols], m[r][c])
    return x, len(pivots)
