"""Shared brute-force oracles for the test suite.

Everything here recomputes quantities by definition-level enumeration so the
package code can be checked against an independent route.
"""

import itertools
from fractions import Fraction

from haarint import moments, perms, tableaux, tensors
from haarint.moments import UnsupportedIntegralError, all_pairings
from haarint.tableaux import Tableau


def brute_standard_count(shape) -> int:
    """Fillings by 1..m each once with weakly increasing rows and strictly
    increasing columns; distinct entries force rows strict too."""
    m = tableaux.weight(shape)
    count = 0
    for t in tableaux.enumerate_gl_tableaux(shape, m):
        entries = t.row_major()
        if sorted(entries) == list(range(1, m + 1)):
            count += 1
    return count


def brute_row_stabilizer(t: Tableau) -> int:
    """Number of permutations of each row leaving the filling unchanged."""
    total = 1
    for row in t.rows:
        fixed = sum(1 for p in itertools.permutations(row)
                    if list(p) == row)
        total *= fixed
    return total


def brute_gl_dimension(shape, n: int) -> int:
    return len(tableaux.enumerate_gl_tableaux(shape, n))


def module_dimension_oracle(lam, form: tensors.BilinearForm) -> int:
    """Dimension of the module labeled by lam for the group preserving form.

    Applies the row-column symmetrizer to the traceless part of every
    elementary tensor and takes the exact rank; picks out a single copy of
    the module, so the rank is its dimension.
    """
    m = tableaux.weight(lam)
    c = tensors.young_symmetrizer(lam)
    images = []
    for idx in itertools.product(form.letters, repeat=m):
        t0, _ = tensors.traceless_project(tensors.SparseTensor.elementary(idx), form)
        images.append(c.apply(t0))
    cols = sorted({i for v in images for i in v.data})
    colpos = {i: k for k, i in enumerate(cols)}
    mat = []
    for v in images:
        row = [Fraction(0)] * len(cols)
        for i, coeff in v.data.items():
            row[colpos[i]] = Fraction(coeff)
        mat.append(row)
    from haarint.ratlinalg import rank
    return rank(mat) if cols else 0


def gl_module_dimension_oracle(lam, n: int) -> int:
    """Same rank construction without any traceless projection."""
    m = tableaux.weight(lam)
    c = tensors.young_symmetrizer(lam)
    images = []
    for idx in itertools.product(range(1, n + 1), repeat=m):
        images.append(c.apply(tensors.SparseTensor.elementary(idx)))
    cols = sorted({i for v in images for i in v.data})
    colpos = {i: k for k, i in enumerate(cols)}
    mat = []
    for v in images:
        row = [Fraction(0)] * len(cols)
        for i, coeff in v.data.items():
            row[colpos[i]] = Fraction(coeff)
        mat.append(row)
    from haarint.ratlinalg import rank
    return rank(mat) if cols else 0


def j_entry(i: int, j: int) -> int:
    """Interleaved skew form: J[i, i+1] = 1 for odd i, J[i, i-1] = -1."""
    if i % 2 and j == i + 1:
        return 1
    if i % 2 == 0 and j == i - 1:
        return -1
    return 0


def m_entry(k: int, l: int, i: int, j: int) -> int:
    """Mixed bilinear form: the J entry when the conjugation tags agree,
    a plain delta when they differ."""
    if k == l:
        return j_entry(i, j)
    return 1 if i == j else 0


def brute_leading(spec, n: int) -> Fraction:
    """The order-N^(-q) coefficient by enumeration: permutation matchings
    for U/SU, pair-partition delta products for O/SO, pair-partition mixed
    form products for Sp."""
    if spec.group in ("U", "SU"):
        if spec.group == "SU":
            short = moments._su_window(spec, n)
            if short is not None:
                return short
        plain = [f for f in spec.factors if not f.conj]
        conj = [f for f in spec.factors if f.conj]
        if len(plain) != len(conj):
            return Fraction(0)
        q = len(plain)
        if q == 0:
            return Fraction(1)
        count = 0
        for p in perms.all_permutations(q):
            if all(plain[k].row == conj[p[k]].row
                   and plain[k].col == conj[p[k]].col for k in range(q)):
                count += 1
        return Fraction(count, n ** q)

    if spec.group in ("O", "SO"):
        if spec.group == "SO":
            ok = moments._so_window_ok(spec, n)
            if ok is None:
                raise UnsupportedIntegralError(f"SO({n}) degree {spec.degree}")
            if ok is False:
                return Fraction(0)
        m = spec.degree
        if m % 2:
            return Fraction(0)
        if m == 0:
            return Fraction(1)
        q = m // 2
        total = 0
        rows = [f.row for f in spec.factors]
        cols = [f.col for f in spec.factors]
        for pairing in all_pairings(m):
            total += all(rows[a - 1] == rows[b - 1] and cols[a - 1] == cols[b - 1]
                         for a, b in pairing)
        return Fraction(total, n ** q)

    m = spec.degree
    if m % 2:
        return Fraction(0)
    if m == 0:
        return Fraction(1)
    q = m // 2
    rows = [f.row for f in spec.factors]
    cols = [f.col for f in spec.factors]
    tags = [2 if f.conj else 1 for f in spec.factors]
    total = 0
    for pairing in all_pairings(m):
        term = 1
        for a, b in pairing:
            term *= m_entry(tags[a - 1], tags[b - 1], rows[a - 1], rows[b - 1])
            if not term:
                break
            term *= m_entry(tags[a - 1], tags[b - 1], cols[a - 1], cols[b - 1])
            if not term:
                break
        total += term
    return Fraction(total, (2 * n) ** q)
