"""Young diagrams, the tableau families attached to the classical groups and
the dimensions of their modules, and the irreducible characters of the
symmetric groups.

Entries are signed integers: a barred letter i-bar is stored as -i, and the
single middle letter of the odd orthogonal alphabet is stored as 0.  Each
group fixes a total order on its alphabet; enumeration is lexicographic on
the row-major entry list under that order.
"""

import bisect
import itertools
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
    cols = []
    height = len(shape)  # the rows longer than column j
    for j in range(shape[0] if shape else 0):
        while shape[height - 1] <= j:
            height -= 1
        cols.append(height)
    return tuple(cols)


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
    """Alphabet 1bar < 1 < ... < Nbar < N for Sp(2N): that of O(2N)."""
    return o_alphabet(2 * n)


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


def _semistandard_fillings(shape: Shape, alphabet: list[int], row_floor: int = 0):
    """Row-weak, column-strict fillings as row-major entry tuples,
    lexicographic in alphabet position, whose row r (0-based) holds no
    letter before position row_floor * r.

    One loop over the cells, with no recursion: the cells after the last
    one advanced take their least letters, and a cell never takes a letter
    that leaves too few later letters for the cells below it in its
    column.  So with the floors of the U, O and Sp families (0, and 2 for
    Sp's 2n letters and at most n rows) no branch is entered that no
    filling completes, and the walk costs O(cells) per filling."""
    size = len(alphabet)
    if len(set(alphabet)) != size:
        raise ValueError("alphabet letters must be distinct")
    cols = conjugate(shape)
    # per cell: the word positions of its left and upper neighbours (-1
    # where there is none), and its least and greatest alphabet position
    cells = []
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            k = len(cells)
            cells.append((k - 1 if c else -1, k - shape[r - 1] if r else -1,
                          row_floor * r, size - cols[c] + r))
    at = [0] * len(cells)  # alphabet position of each cell
    word = [None] * len(cells)
    k = 0  # the cells before k are filled
    while True:
        while k < len(cells):
            left, up, lo, hi = cells[k]
            if left >= 0 and at[left] > lo:
                lo = at[left]
            if up >= 0 and at[up] >= lo:
                lo = at[up] + 1
            if lo > hi:
                break
            at[k] = lo
            word[k] = alphabet[lo]
            k += 1
        else:
            yield tuple(word)
        k -= 1  # advance the last filled cell that can still take a later letter
        while k >= 0 and at[k] == cells[k][3]:
            k -= 1
        if k < 0:
            return
        at[k] += 1
        word[k] = alphabet[at[k]]
        k += 1


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
    if group == "O" and len(shape) + sum(p > 1 for p in shape) > n:
        raise ValueError("first two column lengths must sum to at most n")
    if group == "Sp" and len(shape) > n:
        raise ValueError("shape must have at most n rows")
    return shape


def enumerate_gl_tableaux(shape, n: int) -> list[Tableau]:
    """Semistandard tableaux with entries 1..n; empty when the shape is too tall."""
    shape = check_shape(shape)
    return _as_tableaux(shape, admissible_words("U", shape, n))


def _o_standard(word: tuple, shape: Shape, starts: list, pos: dict[int, int]) -> bool:
    """Whether the row-major word of a semistandard filling over an
    orthogonal alphabet is orthogonal standard; row a (1-based) starts at
    word position starts[a - 1], and its entry in column b at that plus
    b - 1."""
    # the columns are strictly increasing in alphabet position
    col1 = [word[s] for s in starts]
    col2 = [word[s + 1] for s, row_len in zip(starts, shape) if row_len > 1]
    cuts1 = [pos[x] for x in col1]
    cuts2 = [pos[x] for x in col2]
    # alpha + beta - 2i only grows at an i = |x| of an entry x of the first
    # two columns and falls by 2 at every other i, so an i that breaks or
    # meets the bound with no such x follows one that already broke it
    for i in sorted({abs(x) for x in col1 + col2} - {0}):
        cut = pos[i]
        alpha = bisect.bisect_right(cuts1, cut)
        beta = bisect.bisect_right(cuts2, cut)
        if alpha + beta > 2 * i:
            return False
        if alpha + beta == 2 * i:
            if alpha > beta and word[starts[alpha - 1]] == -i:
                row = beta  # row where an unbarred i could sit
                if row >= 1 and _lone_unbarred(word, shape, starts, row, i):
                    return False
            if alpha == beta == i and word[starts[i - 1]] == -i:
                if _lone_unbarred(word, shape, starts, i, i):
                    return False
    return True


def _lone_unbarred(word, shape, starts, row: int, i: int) -> bool:
    """Whether row (1-based) holds an unbarred i that does not sit under
    an i-bar (one in the first row never does)."""
    here = starts[row - 1]
    above = starts[row - 2] if row > 1 else None
    return any(word[here + b] == i and (above is None or word[above + b] != -i)
               for b in range(shape[row - 1]))


def enumerate_o_tableaux(shape, n: int) -> list[Tableau]:
    """Orthogonal standard tableaux for O(n) (shapes: check_group_shape)."""
    shape = check_group_shape("O", shape, n)
    return _as_tableaux(shape, admissible_words("O", shape, n))


def enumerate_sp_tableaux(shape, n: int) -> list[Tableau]:
    """Symplectic standard tableaux for Sp(2n): row i entries are >= ibar,
    the letter at position 2(i-1) of the alphabet."""
    shape = check_group_shape("Sp", shape, n)
    return _as_tableaux(shape, admissible_words("Sp", shape, n))


def admissible_words(group: str, shape, n: int) -> list[tuple]:
    """Row-major entry tuples of the admissible fillings of the U, O or Sp
    module of the shape, in the order of enumerate_*: the semistandard
    fillings over the group's alphabet, for O those that are orthogonal
    standard, for Sp those whose row i holds no letter before i-bar."""
    if group == "U":
        return list(_semistandard_fillings(check_shape(shape), gl_alphabet(n)))
    if group == "O":
        shape = check_group_shape("O", shape, n)
        alphabet = o_alphabet(n)
        pos = {letter: k for k, letter in enumerate(alphabet)}
        starts = list(itertools.accumulate(shape, initial=0))[:-1]
        return [w for w in _semistandard_fillings(shape, alphabet)
                if _o_standard(w, shape, starts, pos)]
    if group == "Sp":
        return list(_semistandard_fillings(check_group_shape("Sp", shape, n),
                                           sp_alphabet(n), row_floor=2))
    raise ValueError(f"no tableau family for group tag {group!r}")


def count_standard_tableaux(shape) -> int:
    """Standard fillings of the diagram by 1..m, each exactly once: the
    hook length formula m!/prod hook; the brute-force enumeration is the
    test oracle."""
    _, cells = _cells(check_shape(shape))
    return _hook_ratio([math.factorial(len(cells))], cells)


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


def _without_full_columns(shape: Shape, n: int) -> Shape:
    """The shape of at most n rows less its columns of n boxes: GL(n)
    modules that differ by a power of the determinant have one dimension."""
    if not shape or len(shape) != n:
        return shape
    return tuple(p - shape[-1] for p in shape if p > shape[-1])


def gl_dimension(shape, n: int) -> int:
    """Dimension of the GL(n) module, after the columns of n boxes are
    dropped: where n^2 is below the weight, Weyl's formula over the pairs
    of the n rows, prod (l_i - l_j)/(j - i) on l_i = shape_i - i; else the
    hook-content product over the cells, prod (n + c - r) / hook(r, c).
    Either way at most min(n^2, weight) factors (gl_dimension_bits)."""
    shape = check_shape(shape)
    if len(shape) > n:
        return 0
    shape = _without_full_columns(shape, n)
    if n * n < weight(shape):
        parts = shape + (0,) * (n - len(shape))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        d, rem = divmod(_product([parts[i] - parts[j] + j - i for i, j in pairs]),
                        _product([j - i for i, j in pairs]))
        assert rem == 0
        return d
    _, cells = _cells(shape)
    return _hook_ratio([n + c - r for r, c, _ in cells], cells)


def _cells(shape: Shape) -> tuple[Shape, list]:
    """The conjugate of the shape and its cells (r, c, hook), 0-based and
    row by row: hook = (shape_r - c) + (shape'_c - r) - 1."""
    conj = conjugate(shape)
    return conj, [(r, c, row_len - c + conj[c] - r - 1)
                  for r, row_len in enumerate(shape) for c in range(row_len)]


def _hook_ratio(factors: list, cells: list) -> int:
    """The product of the factors over that of the cells' hooks, which
    divides it."""
    d, rem = divmod(_product(factors), _product([h for _, _, h in cells]))
    assert rem == 0
    return d


def _product(factors: list) -> int:
    """The product of the ints, multiplied in pairs of neighbours, then
    pairs of those products, and so on, so that big ints meet their
    equals: far cheaper than one long running product."""
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def gl_dimension_bits(shape, n: int) -> int:
    """A bound on the bits of the numerator gl_dimension multiplies out,
    and so on its cost and on the bits of the dimension: its factors,
    at most min(n^2, weight) after the full columns are dropped, are each
    at most n + weight; 0 for a shape of more than n rows."""
    shape = check_shape(shape)
    if len(shape) > n:
        return 0
    m = weight(_without_full_columns(shape, n))
    return min(n * n, m) * (n + m).bit_length()


def o_dimension(shape, n: int) -> int:
    """Dimension of the O(n) module of the shape (check_group_shape): the
    product over the cells (r, c), 0-based, of (n + s) / hook(r, c), with
    s = shape_r + shape_c - r - c - 2 on and below the diagonal (r >= c)
    and s = r + c - shape'_r - shape'_c above it (El Samra and King,
    J. Phys. A 12 (1979) 2317): |shape| factors at any n."""
    return _o_product(check_group_shape("O", shape, n), n)


def _o_product(shape: Shape, d: int) -> int:
    """o_dimension's product at any int d, the shape unchecked."""
    conj, cells = _cells(shape)
    return _hook_ratio([d + (shape[r] + shape[c] - r - c - 2 if r >= c
                             else r + c - conj[r] - conj[c]) for r, c, _ in cells], cells)


def sp_dimension(shape, n: int) -> int:
    """Dimension of the Sp(2n) module of the shape (at most n rows) by
    the duality Sp(2n) = O(-2n) (El Samra and King, as o_dimension):
    (-1)^|shape| times the O product at -2n on the conjugate shape."""
    shape = check_group_shape("Sp", shape, n)
    return (-1) ** weight(shape) * _o_product(conjugate(shape), -2 * n)
