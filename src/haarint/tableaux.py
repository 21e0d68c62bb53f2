"""Young diagrams, the tableau families attached to the classical groups,
and the irreducible characters of the symmetric groups.

Entries are signed integers: a barred letter i-bar is stored as -i, and the
single middle letter of the odd orthogonal alphabet is stored as 0.  Each
group fixes a total order on its alphabet; enumeration is lexicographic on
the row-major entry list under that order.
"""

import math
import numbers


Shape = tuple[int, ...]


def check_int(value, what: str) -> int:
    """value as an int: an int or a numpy integer; a float, string or bool
    (JSON true/false) is refused."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_shape(shape) -> Shape:
    shape = tuple(check_int(p, "a shape part") for p in shape)
    if any(p <= 0 for p in shape):
        raise ValueError("shape parts must be positive")
    if any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError("shape parts must be weakly decreasing")
    return shape


def weight(shape) -> int:
    return sum(shape)


def conjugate(shape) -> Shape:
    shape = check_shape(shape)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > j) for j in range(shape[0]))


def gl_alphabet(n: int) -> list[int]:
    if n < 1:
        raise ValueError("need n >= 1")
    return list(range(1, n + 1))


def o_alphabet(n: int) -> list[int]:
    """Alphabet 1bar < 1 < 2bar < 2 < ... < rbar < r (< 0 when n is odd)."""
    if n < 1:
        raise ValueError("need n >= 1")
    letters = []
    for i in range(1, n // 2 + 1):
        letters += [-i, i]
    if n % 2 == 1:
        letters.append(0)
    return letters


def sp_alphabet(n: int) -> list[int]:
    """Alphabet 1bar < 1 < ... < Nbar < N for Sp(2N); dimension is 2n."""
    if n < 1:
        raise ValueError("need n >= 1")
    letters = []
    for i in range(1, n + 1):
        letters += [-i, i]
    return letters


class Tableau:
    """A filling of a Young diagram, rows as lists of signed entries."""

    def __init__(self, rows: list[list[int]]):
        self.rows = [list(r) for r in rows]
        self.shape = check_shape([len(r) for r in rows]) if rows else ()

    @classmethod
    def _of_shape(cls, rows: list[list[int]], shape: Shape) -> "Tableau":
        """A tableau on fresh rows whose lengths are the checked shape, as
        an enumerator builds them; no shape check is run."""
        t = cls.__new__(cls)
        t.rows = rows
        t.shape = shape
        return t

    def entry(self, a: int, b: int) -> int:
        """1-indexed (row, column) access."""
        return self.rows[a - 1][b - 1]

    def row_major(self) -> list[int]:
        return [x for row in self.rows for x in row]

    def column(self, b: int) -> list[int]:
        return [row[b - 1] for row in self.rows if len(row) >= b]

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self):
        body = " | ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Tableau[{body}]"


def _semistandard_fillings(shape: Shape, alphabet: list[int], row_floor=lambda r: 0):
    """Row-weak, column-strict fillings as row-major entry tuples,
    lexicographic in alphabet position, whose row r (0-based) holds no
    letter before position row_floor(r)."""
    pos = {letter: k for k, letter in enumerate(alphabet)}
    if len(pos) != len(alphabet):
        raise ValueError("alphabet letters must be distinct")
    # per cell, its row and the word positions of its left and upper
    # neighbours (-1 where there is none)
    cells = []
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            k = len(cells)
            cells.append((r, k - 1 if c else -1, k - shape[r - 1] if r else -1))
    word = [None] * len(cells)

    def fill(k: int):
        if k == len(cells):
            yield tuple(word)
            return
        r, left, up = cells[k]
        lo = row_floor(r)
        if left >= 0:
            lo = max(lo, pos[word[left]])
        if up >= 0:
            lo = max(lo, pos[word[up]] + 1)
        for idx in range(lo, len(alphabet)):
            word[k] = alphabet[idx]
            yield from fill(k + 1)

    yield from fill(0)


def _as_tableaux(shape: Shape, words) -> list[Tableau]:
    """Tableaux of the shape from row-major entry tuples."""
    bounds = []
    start = 0
    for row_len in shape:
        bounds.append((start, start + row_len))
        start += row_len
    return [Tableau._of_shape([list(w[a:b]) for a, b in bounds], shape) for w in words]


def check_group_shape(group: str, shape, n: int) -> Shape:
    """The checked shape, if it labels a module of the group at n: O(n)
    needs at most n boxes in the first two columns, Sp(2n) at most n rows."""
    shape = check_shape(shape)
    if group == "O" and sum(conjugate(shape)[:2]) > n:
        raise ValueError("first two column lengths must sum to at most n")
    if group == "Sp" and len(shape) > n:
        raise ValueError("shape must have at most n rows")
    return shape


def enumerate_gl_tableaux(shape, n: int) -> list[Tableau]:
    """Semistandard tableaux with entries 1..n; empty when the shape is too tall."""
    shape = check_shape(shape)
    return _as_tableaux(shape, _semistandard_fillings(shape, gl_alphabet(n)))


def _o_standard(t: Tableau, n: int, pos: dict[int, int]) -> bool:
    r = n // 2
    col1 = t.column(1)
    col2 = t.column(2)
    for i in range(1, r + 1):
        cut = pos[i]
        alpha = sum(1 for x in col1 if pos[x] <= cut)
        beta = sum(1 for x in col2 if pos[x] <= cut)
        if alpha + beta > 2 * i:
            return False
        if alpha + beta == 2 * i:
            if alpha > beta and t.entry(alpha, 1) == -i:
                row = beta  # row where an unbarred i could sit
                for b in range(1, (t.shape[row - 1] if row >= 1 else 0) + 1):
                    if row >= 1 and t.entry(row, b) == i:
                        if row == 1 or t.entry(row - 1, b) != -i:
                            return False
            if alpha == beta == i and t.entry(i, 1) == -i:
                for b in range(1, t.shape[i - 1] + 1):
                    if t.entry(i, b) == i:
                        if i == 1 or t.entry(i - 1, b) != -i:
                            return False
    return True


def enumerate_o_tableaux(shape, n: int) -> list[Tableau]:
    """Orthogonal standard tableaux for O(n) (shapes: check_group_shape)."""
    shape = check_group_shape("O", shape, n)
    alphabet = o_alphabet(n)
    pos = {letter: k for k, letter in enumerate(alphabet)}
    return [t for t in _as_tableaux(shape, _semistandard_fillings(shape, alphabet))
            if _o_standard(t, n, pos)]


def enumerate_sp_tableaux(shape, n: int) -> list[Tableau]:
    """Symplectic standard tableaux for Sp(2n): row i entries are >= ibar,
    the letter at position 2(i-1) of the alphabet."""
    shape = check_group_shape("Sp", shape, n)
    return _as_tableaux(shape, _sp_words(shape, n))


def _sp_words(shape: Shape, n: int):
    return _semistandard_fillings(shape, sp_alphabet(n), lambda r: 2 * r)


def admissible_words(group: str, shape, n: int) -> list[tuple]:
    """Row-major entry tuples of the admissible fillings of the U, O or Sp
    module of the shape, in the order of enumerate_*."""
    if group == "U":
        return list(_semistandard_fillings(check_shape(shape), gl_alphabet(n)))
    if group == "O":
        return [tuple(t.row_major()) for t in enumerate_o_tableaux(shape, n)]
    if group == "Sp":
        return list(_sp_words(check_group_shape("Sp", shape, n), n))
    raise ValueError(f"no tableau family for group tag {group!r}")


def count_standard_tableaux(shape) -> int:
    """Standard fillings of the diagram by 1..m, each exactly once.

    Evaluated by the ratio-of-factorials product over the shifted parts
    l_i = shape_i + n - i; the brute-force enumeration is the test oracle.
    """
    shape = check_shape(shape)
    if not shape:
        return 1
    m = weight(shape)
    n = len(shape)
    l = [shape[i] + n - (i + 1) for i in range(n)]
    num = math.factorial(m)
    for i in range(n):
        for j in range(i + 1, n):
            num *= l[i] - l[j]
    den = 1
    for li in l:
        den *= math.factorial(li)
    t, rem = divmod(num, den)
    assert rem == 0
    return t


def character(shape, cycle_type) -> int:
    """The irreducible character χ^shape of S_m at a permutation of the
    given cycle type (m the weight of both), by Murnaghan–Nakayama on the
    beta-numbers shape_i + ℓ - i of the diagram: removing a rim hook of
    length r moves one bead b to the free place b - r, with the sign
    (-1)^(beads strictly between)."""
    shape = check_shape(shape)
    if sum(cycle_type) != weight(shape):
        raise ValueError("the cycle type and the shape must have one weight")
    beads = frozenset(p + len(shape) - 1 - i for i, p in enumerate(shape))

    def strip(beads, parts):
        if not parts:
            return 1
        r, rest = parts[0], parts[1:]
        return sum((-1) ** sum(b - r < x < b for x in beads)
                   * strip(beads - {b} | {b - r}, rest)
                   for b in beads if b >= r and b - r not in beads)

    return strip(beads, tuple(sorted(cycle_type, reverse=True)))


def gl_dimension(shape, n: int) -> int:
    """Dimension of the GL(n) module: the hook-content product over the
    cells, prod (n + c - r) / hook(r, c), in O(weight) steps for any n."""
    shape = check_shape(shape)
    if len(shape) > n:
        return 0
    conj = conjugate(shape)
    num = 1
    den = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            num *= n + c - r
            den *= (row_len - c) + (conj[c] - r) - 1
    d, rem = divmod(num, den)
    assert rem == 0
    return d


def _weyl_ratio(ls, ms, linear: bool) -> int:
    """prod_{i<j} (l_i^2 - l_j^2)/(m_i^2 - m_j^2), times prod l_i/m_i when
    linear: the Weyl dimension formula of types B, C and D on the shifted
    parts l and the shifts m, both scaled by one factor, in int."""
    num = den = 1
    for i, (li, mi) in enumerate(zip(ls, ms)):
        for lj, mj in zip(ls[i + 1:], ms[i + 1:]):
            num *= li * li - lj * lj
            den *= mi * mi - mj * mj
        if linear:
            num *= li
            den *= mi
    d, rem = divmod(num, den)
    assert rem == 0
    return d


def o_dimension(shape, n: int) -> int:
    """Dimension of the O(n) module of the shape (check_group_shape), by
    the Weyl formula of SO(n) on the parts of the shape or of its
    associate, whose first column has n - shape'_1 boxes and which has
    the same dimension.  For n = 2r+1 the shifted parts are doubled,
    2(shape_i + r - i) - 1 over 2(r - i) - 1 (0-based i); for n = 2r a
    shape of r rows restricts to two SO(n) modules, so it counts twice."""
    shape = check_group_shape("O", shape, n)
    r = n // 2
    if 2 * len(shape) > n:
        cols = conjugate(shape)
        shape = conjugate((n - cols[0],) + cols[1:]) if n > cols[0] else ()
    parts = list(shape) + [0] * (r - len(shape))
    if n % 2:
        return _weyl_ratio([2 * (p + r - i) - 1 for i, p in enumerate(parts)],
                           [2 * (r - i) - 1 for i in range(r)], linear=True)
    dim = _weyl_ratio([p + r - 1 - i for i, p in enumerate(parts)],
                      [r - 1 - i for i in range(r)], linear=False)
    return 2 * dim if r and parts[-1] else dim


def sp_dimension(shape, n: int) -> int:
    """Dimension of the Sp(2n) module of the shape (at most n rows), by the
    Weyl formula of type C on shape_i + n - i over n - i (0-based i)."""
    shape = check_group_shape("Sp", shape, n)
    parts = list(shape) + [0] * (n - len(shape))
    return _weyl_ratio([p + n - i for i, p in enumerate(parts)],
                       [n - i for i in range(n)], linear=True)
