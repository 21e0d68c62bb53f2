"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction; vectors are lists of Fraction.
Everything here is plain Gaussian elimination, sized for the small dense
systems the rest of the package produces: the class-weight systems of the
Weingarten solve (moments._engine).
"""

from fractions import Fraction


Matrix = list[list[Fraction]]
Vector = list[Fraction]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def solve(a: Matrix, b: Vector) -> tuple[Vector, int]:
    """One solution of a x = b and the rank of a, from one elimination;
    raises ValueError if the system is inconsistent.

    For singular systems the free variables are set to zero, so the answer
    is a particular solution, not the unique one.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x, len(pivots)
