"""Shared brute-force oracles for the test suite.

Everything here recomputes quantities by definition-level enumeration so the
package code can be checked against an independent route.

That includes the dense reference route of the Weingarten calculus, which
the package itself never builds: the k x k Gram of the commutant basis,
either from the type table's loop counts (``gram_from_loops``) or from the
materialized pairing operators (``gram_from_operators``), its exact inverse
or Moore-Penrose inverse (``weingarten_data``), and the sign-tracking loop
walk (``loop_structure``) that the crossing-parity signs of the symplectic
Gram are checked against.  The package serves Sp(2N) as O(-2N); the
tests read its engine and match vectors through that fold
(``engine_for``, ``reduce_brackets``), and the symplectic Gram counts its
crossing signs itself (``crossing_parity``).

It also keeps the per-draw representation matrix (``rho_matrix_loop``):
dense basis tensors, the sample applied one tensor mode at a time, one
sum per entry.  The stacked sampled entries of the package are checked
against it draw by draw.

And it keeps the ungraded exact Gram–Schmidt of the module bases
(``trace_span_basis_ungraded``, ``traceless_project_ungraded``,
``gram_schmidt_ungraded``, ``build_irrep_basis_ungraded``): every vector
is orthogonalized against every earlier one, whatever its torus weight,
in rational arithmetic, and scaled to primitive form (``primitive``); the
Young symmetrizer is rebuilt for each filling.  Their entries and norms
are integral Fractions; the weight-graded, fraction-free bases of the
package, int throughout, must equal them converted to int, byte for byte.
The ungraded module basis also counts the fillings it drops
(``UngradedBasis``), which the package asserts are none.  The package's
whole trace span is read back from its per-weight spans in label order
(``trace_span_by_weights``).

It holds the paper's duality objects by definition, which the package no
longer needs: the product of the slot-permutation group algebra on
{permutation: coefficient} dicts (``algebra_product``) and the
symmetrizer summed term by term from single placements
(``symmetrize_by_definition``), the dense block projectors of V^(x)k
(``TensorOperator``, ``central_symmetrizer``, ``isotypic_projector``)
that acceptance criterion 6 checks, the symmetrizer constant
(``young_constant_mu``), the class sizes (``class_size``), the
symmetrized tableau norm (``normalization_squared``), and the tableau
counts ``count_distinct_entry_fillings`` and ``row_repetition_factor``
(from ``gelfand_counts``).  The dense route keeps its matrix product and
rank (``mat_mul``, ``rank``) here too, with the rational row reduction
behind them (``rref``).  That reduction also keeps the linear route
to the class weights that the closed forms of the package replaced: the
structure constants of the class algebra (``structure_constants``,
``class_product``) and G^2 w = G solved by ``solve_by_rref``
(``class_weights_by_rref``).  The per-pairing entry rule
(``brauer_entry``, ``entry_rule``) and the match vectors built from it
one element at a time (``match_vector_by_entries``) judge the
table-read match vectors of moments, and so does the slot-by-slot read
of a term's slot-pair factors (``pair_factors_by_slots``, on the bit
layout ``slot_pair_bits``) with one pass over the masks per term
(``match_vector_by_terms``), which the keyed, term-grouping kernel of
moments replaced.  These read a form's letters, bar, dual signs and
pairing; the O monomials, on the letters 1..N, are read through the
standard symmetric form (``StandardForm``), which the package, whose O
forms are split, no longer builds.  Brackets whose column tensors carry one more zero
term (``pad_columns``) take the two-pass reduce, against which the
one-pass reduce of diagonal brackets is judged.  The package holds the U basis as
output-input pairings; ``as_permutation`` reads each back as the slot
permutation it is, so the U entry rule, the N^cycles Gram
(``gram_from_loops``) and the permutation enumeration of
``brute_leading`` (``inverse``, ``all_permutations``) stay permutation
judges.  The tensor product of sparse tensors (``tensor_product``) and
the total box count of an irrep spec (``total_weight``) and the order-0
unit tensor (``unit_tensor``) are test-only too.

Last, it keeps the SU(2) closed form by full term enumeration
(``su2_integral_closed_enumerated``): one product per choice of a term
from each factor's half-angle expansion, exponential in the factor
count.  The factor-at-a-time product of the package must print the same
float.  And it keeps the Gauss-Legendre quadrature as it ran before the
rule was cached (``su2_integral_quadrature_fresh``): leggauss solved
afresh on every call, the half-angle cosine and sine taken per factor.  The cached rule must give the same float.

And it keeps the tableau walk the package's one loop replaced
(``semistandard_fillings_by_recursion``): one generator per cell, with no
look-ahead, and the O fillings built as tableaux, tested through
``Tableau.column`` and ``Tableau.entry`` (``o_standard_tableau``) and
flattened back (``admissible_words_by_recursion``).  The package's words
must equal them word for word and in order.

Last of all, it keeps the command line's JSON output as
``json.dumps(payload, indent=2)`` printed it (``emit_json_by_dumps``),
which the package's one-pass emitter must match byte for byte.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from haarint import irreps, moments, perms, su2, tableaux, tensors
from haarint.moments import all_pairings
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


def weyl_gl_dimension(shape, n: int) -> int:
    """Weyl's product over i < j of the shifted-part ratios, O(n^2) steps."""
    if len(shape) > n:
        return 0
    lam = list(shape) + [0] * (n - len(shape))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def _weyl_ratio(ls, ms, linear: bool) -> int:
    """prod_{i<j} (l_i^2 - l_j^2)/(m_i^2 - m_j^2), times prod l_i/m_i when
    linear: the Weyl dimension formula of types B, C and D on the shifted
    parts l and the shifts m, both scaled by one factor."""
    num = den = 1
    for i, (li, mi) in enumerate(zip(ls, ms)):
        for lj, mj in zip(ls[i + 1:], ms[i + 1:]):
            num *= li * li - lj * lj
            den *= mi * mi - mj * mj
        if linear:
            num *= li
            den *= mi
    assert num % den == 0
    return num // den


def weyl_o_dimension(shape, n: int) -> int:
    """Dimension of the O(n) module by the Weyl formula of SO(n) on the
    parts of the shape or of its associate, whose first column has
    n - shape'_1 boxes and which has the same dimension, O(n^2) steps.
    For n = 2r+1 the shifted parts are doubled, 2(shape_i + r - i) - 1
    over 2(r - i) - 1 (0-based i); for n = 2r a shape of r rows restricts
    to two SO(n) modules, so it counts twice."""
    shape = tableaux.check_group_shape("O", shape, n)
    r = n // 2
    if 2 * len(shape) > n:
        cols = tableaux.conjugate(shape)
        shape = tableaux.conjugate((n - cols[0],) + cols[1:]) if n > cols[0] else ()
    parts = list(shape) + [0] * (r - len(shape))
    if n % 2:
        return _weyl_ratio([2 * (p + r - i) - 1 for i, p in enumerate(parts)],
                           [2 * (r - i) - 1 for i in range(r)], linear=True)
    dim = _weyl_ratio([p + r - 1 - i for i, p in enumerate(parts)],
                      [r - 1 - i for i in range(r)], linear=False)
    return 2 * dim if r and parts[-1] else dim


def weyl_sp_dimension(shape, n: int) -> int:
    """Dimension of the Sp(2n) module by the Weyl formula of type C on
    shape_i + n - i over n - i (0-based i), O(n^2) steps."""
    shape = tableaux.check_group_shape("Sp", shape, n)
    parts = list(shape) + [0] * (n - len(shape))
    return _weyl_ratio([p + n - i for i, p in enumerate(parts)],
                       [n - i for i in range(n)], linear=True)


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
        images.append(tensors.permute(c, t0))
    cols = sorted({i for v in images for i in v.data})
    colpos = {i: k for k, i in enumerate(cols)}
    mat = []
    for v in images:
        row = [Fraction(0)] * len(cols)
        for i, coeff in v.data.items():
            row[colpos[i]] = Fraction(coeff)
        mat.append(row)
    return rank(mat) if cols else 0


def gl_module_dimension_oracle(lam, n: int) -> int:
    """Same rank construction without any traceless projection."""
    m = tableaux.weight(lam)
    c = tensors.young_symmetrizer(lam)
    images = []
    for idx in itertools.product(range(1, n + 1), repeat=m):
        images.append(tensors.permute(c, tensors.SparseTensor.elementary(idx)))
    cols = sorted({i for v in images for i in v.data})
    colpos = {i: k for k, i in enumerate(cols)}
    mat = []
    for v in images:
        row = [Fraction(0)] * len(cols)
        for i, coeff in v.data.items():
            row[colpos[i]] = Fraction(coeff)
        mat.append(row)
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
    form products for Sp; SU and SO go through the window both modes share."""
    short = moments._window(spec, n)
    if short is not None:
        return short
    if spec.group in ("U", "SU"):
        plain = [f for f in spec.factors if not f.conj]
        conj = [f for f in spec.factors if f.conj]
        if len(plain) != len(conj):
            return Fraction(0)
        q = len(plain)
        if q == 0:
            return Fraction(1)
        count = 0
        for p in all_permutations(q):
            if all(plain[k].row == conj[p[k]].row
                   and plain[k].col == conj[p[k]].col for k in range(q)):
                count += 1
        return Fraction(count, n ** q)

    if spec.group in ("O", "SO"):
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


# ---------------------------------------------------------------------------
# the dense Gram / Weingarten reference route

def rref(a) -> tuple[list, list]:
    """Reduced row echelon form, in Fraction arithmetic, and pivot column
    indices."""
    m = [[Fraction(x) for x in row] for row in a]
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


def solve_by_rref(a, b) -> tuple[list, int]:
    """One solution of a x = b by the rational rref of the augmented
    matrix: the free variables zero, ValueError when the system is
    inconsistent; and the rank of a."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref([list(a[i]) + [b[i]] for i in range(rows)])
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x, len(pivots)


def structure_constants(table) -> list:
    """products[l][m][v]: the number of c with type(a, c) = m and
    type(c, b) = v, for the pair (a, b) of type l whose a is the first
    element and whose b is the first of that type in row 0: the structure
    constants of the algebra of class functions of the type table."""
    k, p = len(table.rows), len(table.types)
    products = []
    for t in range(p):
        b = table.rows[0].index(t)
        counts = [[0] * p for _ in range(p)]
        for c in range(k):
            counts[table.rows[0][c]][table.rows[c][b]] += 1
        products.append(counts)
    return products


def class_product(products, x, y) -> list:
    """Product of two class functions, given by their values per type,
    through the structure constants."""
    return [sum((xm * yv * c for xm, counts in zip(x, per_type)
                 for yv, c in zip(y, counts) if c), Fraction(0))
            for per_type in products]


def class_weights_by_rref(kind: str, q: int, n: int) -> tuple:
    """Class weights of the U, O or Sp commutant by the linear route the
    package replaced with closed forms: one solution of G^2 w = G in the
    algebra of class functions (structure_constants), solved by
    solve_by_rref, and whether G^2 is singular there (the pseudo flag).
    The Sp Gram is ε_a ε_b (-1)^q (-2N)^ℓ(type) on the O basis; its signs
    cancel in the products, so its class function is the signed one."""
    table = moments.type_table("O" if kind == "Sp" else kind, q)
    d, sign = (-2 * n, (-1) ** q) if kind == "Sp" else (n, 1)
    products = structure_constants(table)
    g = [Fraction(sign * d ** len(t)) for t in table.types]
    h = class_product(products, g, g)
    system = [[sum((hm * counts[v] for hm, counts in zip(h, per_type)), Fraction(0))
               for v in range(len(g))] for per_type in products]
    w, rank = solve_by_rref(system, g)
    return tuple(w), rank < len(g)


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def mat_mul(a, b) -> list:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def rank(a) -> int:
    return len(rref(a)[1])


def invert(a) -> list:
    n = len(a)
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def pseudo_inverse(a) -> list:
    """Moore-Penrose inverse of a rational matrix, exact.

    Built from a full-rank factorization a = B C (B: pivot columns, C: the
    nonzero rows of the rref), giving a+ = C^T (C C^T)^-1 (B^T B)^-1 B^T.
    Satisfies a a+ a = a even when a is singular.
    """
    rows = len(a)
    if rows == 0:
        return []
    red, pivots = rref(a)
    r = len(pivots)
    if r == 0:
        return [[Fraction(0)] * rows for _ in range(len(a[0]))]
    bmat = [[a[i][c] for c in pivots] for i in range(rows)]
    cmat = red[:r]
    bt = transpose(bmat)
    ct = transpose(cmat)
    left = mat_mul(ct, invert(mat_mul(cmat, ct)))
    right = mat_mul(invert(mat_mul(bt, bmat)), bt)
    return mat_mul(left, right)


def cycle_count(p) -> int:
    return len(perms.cycle_type(p))


def inverse(p) -> tuple:
    inv = [0] * len(p)
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


def all_permutations(k: int) -> list:
    return list(itertools.permutations(range(k)))


def as_permutation(pairing) -> tuple:
    """The slot permutation p of an output-input pairing of the U basis:
    the pair of output slot 2i+1 and input slot 2j+2 (0-based i, j) gives
    p[j] = i, so its entry is the test left[p[j]] == right[j]."""
    p = [None] * len(pairing)
    for a, b in pairing:
        out, inp = (a, b) if a % 2 else (b, a)
        assert out % 2 and not inp % 2, f"{pairing} pairs two outputs or two inputs"
        p[inp // 2 - 1] = out // 2
    return tuple(p)


class StandardForm:
    """The symmetric form on the standard alphabet 1..n, which the package
    does not build (its O forms are split): the bar is the identity, every
    dual sign is 1 and the pairing is δ.  The oracles read O monomials,
    whose letters are 1..n, through it, as the kernel does with its split
    flag off."""
    kind = "orthogonal"

    def __init__(self, n: int):
        self.letters = list(range(1, n + 1))
        self.dim = n

    def bar(self, x: int) -> int:
        return x

    def dsign(self, x: int) -> int:
        return 1

    def pairing(self, x: int, y: int) -> int:
        return int(x == y)

    def dual_pairs(self):
        return [(x, x, 1) for x in self.letters]


def materialize_brauer(pairing, form) -> dict:
    """Full sparse matrix {(rows, cols): entry} of the pairing operator;
    reference for the entry rule and the loop-count Gram."""
    q = len(pairing)
    slots = {}
    out = {}
    for choice in itertools.product(form.letters, repeat=q):
        ok = True
        coeff = 1
        for (a, b), x in zip(pairing, choice):
            if a % 2 and b % 2:
                slots[a], slots[b] = x, form.bar(x)
                coeff *= form.dsign(x)
            elif not a % 2 and not b % 2:
                y = form.bar(x)
                w = form.pairing(x, y)
                if not w:
                    ok = False
                    break
                slots[a], slots[b] = x, y
                coeff *= w
            else:
                slots[a], slots[b] = x, x
                if form.kind == "symplectic" and not a % 2:
                    coeff = -coeff
        if not ok:
            continue
        rows = tuple(slots[s] for s in range(1, 2 * q + 1, 2))
        cols = tuple(slots[s] for s in range(2, 2 * q + 1, 2))
        out[(rows, cols)] = out.get((rows, cols), 0) + coeff
    return {rc: v for rc, v in out.items() if v}


def brauer_entry(pairing, row_letters, col_letters, form) -> int:
    """Matrix entry of the pairing operator between letter tuples, one pair
    at a time.

    Internal slot s (1-based, s <= 2q) is odd for the s-th output factor
    and even for inputs; the entry is the product of one factor per pair:
    two outputs pair through the dual expansion, two inputs through the
    form, and an output-input pair is a plain delta (with the skew sign
    when the input slot comes first).
    """
    def letter(s):
        return row_letters[(s - 1) // 2] if s % 2 else col_letters[s // 2 - 1]

    out = 1
    for a, b in pairing:
        x, y = letter(a), letter(b)
        if a % 2 and b % 2:
            if y != form.bar(x):
                return 0
            out *= form.dsign(x)
        elif not a % 2 and not b % 2:
            w = form.pairing(x, y)
            if not w:
                return 0
            out *= w
        elif a % 2:
            if x != y:
                return 0
        else:
            if x != y:
                return 0
            if form.kind == "symplectic":
                out = -out
    return out


def entry_rule(p, left, right, form) -> int:
    """Entry of commutant basis element p between letter tuples: for U
    (form None) the slot permutation test on the pairing's permutation
    (as_permutation), brauer_entry for O and Sp."""
    if form is None:
        p = as_permutation(p)
        return 1 if all(left[p[j]] == right[j] for j in range(len(p))) else 0
    return brauer_entry(p, left, right, form)


def match_vector_by_entries(elements, form, terms) -> list:
    """moments._match_vector one element at a time: the sum of
    c * entry_rule(p, left, right) over the terms (left, right, c)."""
    return [sum(c * entry_rule(p, left, right, form) for left, right, c in terms)
            for p in elements]


def slot_pair_bits(q: int) -> dict:
    """A bit for every slot pair (a, b), 1 <= a < b <= 2q, the k-th pair of
    itertools.combinations getting bit k: the layout of the pairing masks
    of moments."""
    pairs = itertools.combinations(range(1, 2 * q + 1), 2)
    return {pair: 1 << k for k, pair in enumerate(pairs)}


def pair_factors_by_slots(left, right, form) -> tuple:
    """moments._pair_factors slot by slot: for every slot a, each later
    slot b whose key is the bar of a's, with the factor's sign read from
    the rule of the two slots' kinds.
    Slot s (1-based, s <= 2q) is odd for the s-th output letter and even
    for inputs: two outputs pair through the dual expansion, two inputs
    through the form, and an output-input pair is a plain delta, with the
    skew sign when the input slot comes first.  Each rule needs one letter
    to be the bar of the other once the input letters are barred, so only
    slots keyed that way are paired.  Returns (live, minus) as slot-pair
    bits (slot_pair_bits)."""
    bits = slot_pair_bits(len(left))
    slots, keys = [None], {}  # slot -> (letter, key); key -> its slots
    for x, y in zip(left, right):
        for letter, key in ((x, x), (y, form.bar(y))):
            slots.append((letter, key))
            keys.setdefault(key, []).append(len(slots) - 1)
    skew = -1 if form.kind == "symplectic" else 1
    live = minus = 0
    for a in range(1, len(slots)):
        x, key = slots[a]
        for b in keys.get(form.bar(key), ()):
            if b > a:
                live |= bits[a, b]
                if (form.dsign(x) if a % 2 == b % 2 else 1 if a % 2 else skew) < 0:
                    minus |= bits[a, b]
    return live, minus


def match_vector_by_terms(masks, form, terms) -> list:
    """moments._match_vector one pass over the masks per term, without
    grouping the terms by their factors (pair_factors_by_slots): a pairing
    with a pair outside live has entry 0, any other (-1)^(its pairs in
    minus)."""
    out = [0] * len(masks)
    for left, right, c in terms:
        live, minus = pair_factors_by_slots(left, right, form)
        out = [x if m & live != m else x - c if (m & minus).bit_count() & 1 else x + c
               for x, m in zip(out, masks)]
    return out


def engine_for(group: str, n: int) -> tuple:
    """The engine kind and dimension that serve U(n), O(n) or Sp(2n):
    Sp(2n) is O(-2n)."""
    return ("O", -2 * n) if group == "Sp" else (group, n)


def reduce_brackets(group: str, split: bool, brackets):
    """The match vectors (kind, q, r_vec, c_vec) of moments._reduce for a
    U, O or Sp product of brackets, Sp read on the O basis with the skew
    entry rule, or the Fraction 0 or 1 where the degree settles the value."""
    kind = engine_for(group, 1)[0]
    q = moments._half_degree(kind, brackets)
    if not q:
        return Fraction(0 if q is None else 1)
    return (kind, q) + moments._reduce(kind, q, split, group == "Sp", brackets)


def crossing_parity(pairing) -> int:
    """(-1)^(crossing pairs a < c < b < d) of a pairing of sorted pairs."""
    return (-1) ** sum(a < c < b < d for a, b in pairing for c, d in pairing)


def pad_columns(brackets) -> list:
    """The same brackets (moments._reduce) with each column tensor written
    with one more term of coefficient 0, so that no bracket's column terms
    are its row terms, while every match vector stays the same."""
    out = []
    for conj, rows, cols in brackets:
        cols = list(cols)
        out.append((conj, rows, cols + [(cols[0][0], 0)]))
    return out


def loop_structure(pa, pb, kind: str):
    """(sign, loop count) of the trace pairing of two pairing operators.

    The union of the two pairings is a disjoint set of even cycles; each
    cycle forces all its letters from one free letter, contributing a
    dimension factor, and the walk accumulates the skew signs.
    """
    partner = {"a": {}, "b": {}}
    for tag, pairing in (("a", pa), ("b", pb)):
        for a, b in pairing:
            partner[tag][a] = b
            partner[tag][b] = a

    def edge_is_bar(a, b):
        return a % 2 == b % 2

    def edge_sign(a, b, flip_at_min):
        # bar edges carry the dual-pair coefficient of the letter at the
        # lower slot; skew input-output deltas carry -1 (symplectic only)
        lo, hi = min(a, b), max(a, b)
        if kind != "symplectic":
            return 1
        if edge_is_bar(a, b):
            return -1 if flip_at_min else 1
        if lo % 2 == 0:
            return -1
        return 1

    seen = set()
    loops = 0
    sign = 1
    dsign_exponent = 0
    for start in partner["a"]:
        if start in seen:
            continue
        loops += 1
        cur, flips, tag = start, 0, "a"
        while True:
            nxt = partner[tag][cur]
            bar = edge_is_bar(cur, nxt)
            flip_next = flips ^ bar
            flip_at_min = flips if min(cur, nxt) == cur else flip_next
            if bar and kind == "symplectic":
                dsign_exponent += 1
            sign *= edge_sign(cur, nxt, flip_at_min)
            seen.add(cur)
            seen.add(nxt)
            cur, flips = nxt, flip_next
            tag = "b" if tag == "a" else "a"
            if cur == start and tag == "a":
                break
        # both delta and bar edges come in even numbers per loop, so the
        # forced letters always close up consistently
        assert flips == 0
    assert dsign_exponent % 2 == 0
    return sign, loops


def _unitary_gram(q: int, n: int) -> list:
    elements = [as_permutation(p) for p in moments.type_table("U", q).elements]
    return [[Fraction(n ** cycle_count(perms.compose(inverse(pa), pb)))
             for pb in elements] for pa in elements]


def gram_from_loops(kind: str, q: int, n: int) -> list:
    """Exact trace pairings G[a][b] = Tr(B_a B_b^T) of the U, O or Sp
    commutant basis at degree q: N^cycles for U, N^loops from the O type
    table for O, and for Sp (-1)^q ε_a ε_b (-2N)^loops, ε the crossing
    parity (crossing_parity)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if kind == "U":
        return _unitary_gram(q, n)
    table = moments.type_table("O", q)
    d, sign = (-2 * n, (-1) ** q) if kind == "Sp" else (n, 1)
    eps = [crossing_parity(p) if kind == "Sp" else 1 for p in table.elements]
    return [[Fraction(sign * sa * sb * d ** len(table.types[t])) for sb, t in zip(eps, row)]
            for sa, row in zip(eps, table.rows)]


def gram_from_operators(kind: str, q: int, n: int) -> list:
    """The same Gram, for O and Sp from the materialized pairing operators
    instead of the type table."""
    if n < 1:
        raise ValueError("need n >= 1")
    if kind == "U":
        return _unitary_gram(q, n)
    form = tensors.symplectic_form(n) if kind == "Sp" else StandardForm(n)
    mats = [materialize_brauer(p, form) for p in moments.type_table("O", q).elements]
    out = []
    for ma in mats:
        row = []
        for mb in mats:
            small, big = (ma, mb) if len(ma) <= len(mb) else (mb, ma)
            row.append(Fraction(sum(v * big.get(rc, 0)
                                    for rc, v in small.items())))
        out.append(row)
    return out


@dataclass
class WeingartenData:
    weights: list  # rational matrix W with G W G = G
    pseudo: bool = field(default=False)


def weingarten_data(gram) -> WeingartenData:
    """Dense Weingarten matrix of a Gram; the reference for class weights."""
    g = [[Fraction(x) for x in row] for row in gram]
    k = len(g)
    if rank(g) == k:
        return WeingartenData(invert(g), pseudo=False)
    w = pseudo_inverse(g)
    gwg = mat_mul(mat_mul(g, w), g)
    assert gwg == g
    return WeingartenData(w, pseudo=True)


def rho_matrix_loop(u, basis) -> np.ndarray:
    """Representation matrix of one sample, entry by entry: each exact
    basis tensor made dense and unit, u applied along one mode at a time,
    then summed against every conj(b_i)."""
    letters = basis.form.letters if basis.form is not None else range(1, basis.n + 1)
    pos = {x: k for k, x in enumerate(letters)}
    act = np.asarray(u, dtype=complex)
    if basis.group == "O":
        s = irreps._split_transition(basis.n)
        act = s.conj().T @ act @ s
    m = basis.weight
    dense = []
    for vec, n2 in zip(basis.vectors, basis.norms2):
        arr = np.zeros((len(pos),) * m, dtype=complex)
        for idx, c in vec.data.items():
            arr[tuple(pos[x] for x in idx)] = float(c)
        dense.append(arr / np.sqrt(float(n2)))
    out = np.zeros((basis.rank, basis.rank), dtype=complex)
    for j, bj in enumerate(dense):
        w = bj
        for k in range(m):
            w = np.moveaxis(np.tensordot(w, act, axes=([k], [1])), -1, k)
        for i, bi in enumerate(dense):
            out[i, j] = np.sum(np.conj(bi) * w)
    return out


@functools.lru_cache(maxsize=64)
def trace_span_basis_ungraded(order: int, key: tuple) -> list:
    """Orthogonal rational basis of the span of all expanded lower tensors,
    each generator orthogonalized against the whole basis so far."""
    form = tensors.BilinearForm(*key)
    basis = []
    if order >= 2:
        for i, j in itertools.combinations(range(order), 2):
            for lower in itertools.product(form.letters, repeat=order - 2):
                v = tensors.expand(tensors.SparseTensor.elementary(lower), i, j, form)
                for u in basis:
                    coef = Fraction(u.inner(v), u.norm_squared())
                    if coef:
                        v = v - coef * u
                if not v.is_zero():
                    basis.append(v)
    return basis


def trace_span_by_weights(order: int, key: tuple) -> list:
    """The package's trace-span vectors of every weight of the expanded
    lower tensors, in label order: the whole span."""
    form = tensors.BilinearForm(*key)
    weights = {tensors._weight(lower)
               for lower in itertools.product(form.letters, repeat=order - 2)}
    return sorted((x for w in weights for x in tensors._trace_span_basis(order, key, w)),
                  key=lambda x: x[0])


def traceless_project_ungraded(t, form):
    """(t0, t1): t1 is the projection of t onto every trace-span vector."""
    t1 = tensors.SparseTensor(t.order)
    for u in trace_span_basis_ungraded(t.order, form.cache_key()):
        coef = Fraction(u.inner(t), u.norm_squared())
        if coef:
            t1 = t1 + coef * u
    return t - t1, t1


def unit_tensor() -> tensors.SparseTensor:
    """The order-0 tensor equal to 1."""
    return tensors.SparseTensor(0, {(): 1})


def tensor_product(a, b) -> tensors.SparseTensor:
    """a (x) b: the index tuples of a followed by those of b."""
    out = tensors.SparseTensor(a.order + b.order)
    for ia, ca in a.data.items():
        for ib, cb in b.data.items():
            out.add_term(ia + ib, ca * cb)
    return out


def total_weight(spec) -> int:
    """The summed box count of an irrep spec's factors: the order of the
    tensor power its product of entries lives in."""
    return sum(tableaux.weight(f.lam) for f in spec.factors)


def primitive(t):
    """t scaled to coprime integer coefficients, in the same item order."""
    denom = math.lcm(*(v.denominator for v in t.data.values()))
    num = math.gcd(*(v.numerator * (denom // v.denominator) for v in t.data.values()))
    return Fraction(denom, num) * t if num else t


def gram_schmidt_ungraded(candidates):
    """Orthogonalize (label, tensor) candidates against every kept vector."""
    vectors, norms2, kept, dropped = [], [], [], 0
    for label, v in candidates:
        u = v
        for w, n2 in zip(vectors, norms2):
            c = w.inner(u)
            if c:
                u = u - (c / n2) * w
        u = primitive(u)
        n2 = u.norm_squared()
        if n2 == 0:
            dropped += 1
            continue
        vectors.append(u)
        norms2.append(n2)
        kept.append(label)
    return vectors, norms2, kept, dropped


@dataclass
class UngradedBasis(irreps.IrrepBasis):
    dropped: int  # fillings whose projection fell into earlier spans


def build_irrep_basis_ungraded(group: str, lam, n: int) -> UngradedBasis:
    """The module basis from the ungraded loops above, one symmetrizer per
    filling, with the count of fillings dropped."""
    lam = tableaux.check_shape(lam)
    if group == "U":
        fillings, form = tableaux.enumerate_gl_tableaux(lam, n), None
    elif group == "O":
        fillings, form = tableaux.enumerate_o_tableaux(lam, n), tensors.orthogonal_form(n)
    else:
        fillings, form = tableaux.enumerate_sp_tableaux(lam, n), tensors.symplectic_form(n)

    def project(t):
        return t if form is None else traceless_project_ungraded(t, form)[0]

    candidates = ((t, project(symmetrized(lam, t))) for t in fillings)
    vectors, norms2, kept, dropped = gram_schmidt_ungraded(candidates)
    return UngradedBasis(group, lam, n, vectors, norms2, kept, form, dropped)


# ---------------------------------------------------------------------------
# the paper's group algebra, block projectors and tableau counts, by definition

def algebra_product(x: dict, y: dict) -> dict:
    """Product of two {slot permutation: coefficient} elements of the group
    algebra, sum of cx cy (p q) with (p q)(i) = p(q(i)); zero terms dropped."""
    out = {}
    for p, cp in x.items():
        for q, cq in y.items():
            r = perms.compose(p, q)
            out[r] = out.get(r, 0) + cp * cq
    return {r: c for r, c in out.items() if c}


def class_size(ctype: tuple[int, ...]) -> int:
    """Number of permutations with the given cycle type."""
    k = sum(ctype)
    z = 1
    mult = {}
    for length in ctype:
        mult[length] = mult.get(length, 0) + 1
    for length, m in mult.items():
        z *= (length ** m) * math.factorial(m)
    return math.factorial(k) // z


def young_constant_mu(shape) -> Fraction:
    """The scalar mu with c*c = mu*c for the row-column symmetrizer; m!/t."""
    shape = tableaux.check_shape(shape)
    return Fraction(math.factorial(tableaux.weight(shape)),
                    tableaux.count_standard_tableaux(shape))


def symmetrize_by_definition(shape, idx) -> tensors.SparseTensor:
    """Sum over column permutations q (outer) and row permutations p (inner)
    of sign(q) P_q (P_p e_idx), cells numbered row-major, each P a placement
    of one index tuple that moves the entry in slot i to slot p[i]."""
    m = len(idx)
    cell = {}
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            cell[r, c] = len(cell)
    rows = [[cell[r, c] for c in range(row_len)] for r, row_len in enumerate(shape)]
    cols = [[cell[r, c] for r in range(len(shape)) if (r, c) in cell]
            for c in range(shape[0] if shape else 0)]

    def group(lines):
        for images in itertools.product(*(itertools.permutations(line) for line in lines)):
            p = list(range(m))
            for line, image in zip(lines, images):
                for src, dst in zip(line, image):
                    p[src] = dst
            yield tuple(p)

    def place(p, index):
        out = [None] * m
        for i, x in enumerate(index):
            out[p[i]] = x
        return tuple(out)

    def sign(p):
        inversions = sum(p[i] > p[j] for i, j in itertools.combinations(range(m), 2))
        return -1 if inversions % 2 else 1

    out = tensors.SparseTensor(m)
    for q in group(cols):
        for p in group(rows):
            out.add_term(place(q, place(p, tuple(idx))), sign(q))
    return out


def symmetrized(shape, t: Tableau) -> tensors.SparseTensor:
    """The Young symmetrizer of shape applied to the tableau tensor of t,
    whose slot s holds the row-major entry s of t."""
    return tensors.permute(tensors.young_symmetrizer(shape),
                           tensors.SparseTensor.elementary(t.row_major()))


def normalization_squared(shape, t: Tableau):
    """Squared length of the symmetrized tableau tensor."""
    v = symmetrized(shape, t)
    return v.inner(v)


class TensorOperator:
    """Dense rational operator on V^(x)k, rows and columns indexed by
    letter tuples in lexicographic alphabet order."""

    def __init__(self, form: tensors.BilinearForm, k: int, mat=None):
        self.form = form
        self.k = k
        self.index = list(itertools.product(form.letters, repeat=k))
        self.pos = {idx: i for i, idx in enumerate(self.index)}
        n = len(self.index)
        self.mat = mat if mat is not None else [
            [Fraction(0)] * n for _ in range(n)]

    def matmul(self, other: "TensorOperator") -> "TensorOperator":
        if self.k != other.k or self.form.cache_key() != other.form.cache_key():
            raise ValueError("operator shape mismatch")
        return TensorOperator(self.form, self.k, mat_mul(self.mat, other.mat))

    def rank(self) -> int:
        return rank(self.mat)

    def sub(self, other: "TensorOperator") -> "TensorOperator":
        return TensorOperator(self.form, self.k,
                              [[a - b for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.mat, other.mat)])

    def is_zero(self) -> bool:
        return all(not x for row in self.mat for x in row)


def central_symmetrizer(shape) -> dict:
    """Conjugation average of the Young symmetrizer over all slot
    permutations, divided by mu^2.

    The average is central, so it acts as a scalar on every irreducible
    slot-permutation module; the scalar is mu^2 on the module attached to
    the shape and 0 elsewhere, which makes the result the central
    idempotent selecting that module.  Only class totals of the
    symmetrizer coefficients are needed.
    """
    shape = tableaux.check_shape(shape)
    m = tableaux.weight(shape)
    c = tensors.young_symmetrizer(shape)
    mu = young_constant_mu(shape)

    coeff_by_type = {}
    for p, cp in c.items():
        ct = perms.cycle_type(p)
        coeff_by_type[ct] = coeff_by_type.get(ct, 0) + cp

    fact = math.factorial(m)
    out = {}
    for g in all_permutations(m):
        ct = perms.cycle_type(g)
        total = coeff_by_type.get(ct)
        if total:
            out[g] = Fraction(total * fact, class_size(ct)) / (mu * mu)
    return out


def isotypic_projector(lam, k: int, form: tensors.BilinearForm) -> TensorOperator:
    """Projector onto the block of V^(x)k labeled by the weight-k partition lam.

    The block is the lam-isotypic part of the contraction-free subspace:
    project away every expanded lower-order tensor, then apply the central
    idempotent of the slot-permutation algebra.  The two projections
    commute (the expansion span is permutation-stable), so the composite
    is idempotent; exact rational entries.
    """
    lam = tableaux.check_shape(lam)
    if tableaux.weight(lam) != k:
        raise ValueError("partition weight must equal the tensor order")
    if k > 3:
        raise tensors.CostGateError(
            f"order-{k} projector needs an exact orthogonal basis of the "
            f"expansion span inside a {len(form.letters) ** k}-dimensional "
            f"space plus {math.factorial(k)} symmetrizer terms; supported "
            f"up to order 3")
    z = central_symmetrizer(lam)
    op = TensorOperator(form, k)
    for col, idx in enumerate(op.index):
        t0, _ = tensors.traceless_project(tensors.SparseTensor.elementary(idx), form)
        v = tensors.permute(z, t0)
        for out_idx, cval in v.data.items():
            op.mat[op.pos[out_idx]][col] += cval
    return op


def count_distinct_entry_fillings(shape, n: int) -> int:
    """Standard fillings using each of 1..n exactly once.

    Identical to count_standard_tableaux when n equals the weight; zero
    otherwise, since m cells cannot hold n distinct forced entries.
    """
    shape = tableaux.check_shape(shape)
    return tableaux.count_standard_tableaux(shape) if n == tableaux.weight(shape) else 0


def gelfand_counts(t: Tableau, n: int) -> dict[tuple[int, int], int]:
    """Triangular counts m[(mu, nu)] = entries <= nu in row mu, 1<=mu<=nu<=n.

    Defined for tableaux over the alphabet 1..n; rows beyond the shape
    count zero.
    """
    if any(x < 1 or x > n for x in t.row_major()):
        raise ValueError("entries must lie in 1..n")
    counts = {}
    for nu in range(1, n + 1):
        for mu in range(1, nu + 1):
            row = t.rows[mu - 1] if mu <= len(t.rows) else []
            counts[(mu, nu)] = sum(1 for x in row if x <= nu)
    return counts


def row_repetition_factor(t: Tableau, n: int) -> int:
    """Product of factorials of entry multiplicities per row.

    Computed from successive differences of the Gelfand counts; equals the
    number of row-preserving permutations fixing the filling.
    """
    counts = gelfand_counts(t, n)
    f = 1
    for (mu, nu), c in counts.items():
        prev = counts.get((mu, nu - 1), 0)
        f *= math.factorial(c - prev)
    return f


def su2_integral_closed_enumerated(spec) -> float:
    """The closed-form SU(2) average summed over every combination of one
    half-angle term per factor."""
    factors = spec.factors
    if not factors:
        return 1.0
    sign = lambda f: -1 if f.conj else 1
    if sum(sign(f) * f.twice_mp for f in factors):
        return 0.0
    if sum(sign(f) * f.twice_m for f in factors):
        return 0.0
    prefactor = 1.0
    expansions = []
    for f in factors:
        prefactor *= math.sqrt(su2._small_d_root(f.twice_j, f.twice_mp, f.twice_m))
        expansions.append(su2._small_d_terms(f.twice_j, f.twice_mp, f.twice_m))
    total = Fraction(0)
    buckets: dict = {}
    for combo in itertools.product(*expansions):
        coeff = Fraction(1)
        ec = es = 0
        for c, e1, e2 in combo:
            coeff *= c
            ec += e1
            es += e2
        buckets[ec, es] = buckets.get((ec, es), Fraction(0)) + coeff
    for (ec, es), coeff in buckets.items():
        if coeff:
            total += coeff * su2._half_angle_moment(ec, es)
    return prefactor * float(total)


def su2_integral_quadrature_fresh(spec, nodes: int = 32) -> float:
    """su2.su2_integral_quadrature with the Gauss-Legendre rule solved
    afresh on every call, and cos(beta/2), sin(beta/2) taken once per
    factor."""
    x, w = np.polynomial.legendre.leggauss(nodes)

    def gauss_nodes(a, b):
        half = (b - a) / 2
        return a + half * (x + 1), half * w

    factors = spec.factors
    if not factors:
        return 1.0
    xa, wa = gauss_nodes(0.0, 4 * math.pi)
    xb, wb = gauss_nodes(0.0, math.pi)
    ka, kg = su2._magnetic_sums(factors)
    alpha_sum = np.dot(wa, np.exp(-0.5j * ka * xa))
    gamma_sum = np.dot(wa, np.exp(-0.5j * kg * xa))
    profile = np.ones_like(xb)
    for f, scale in zip(factors, su2._scales(factors)):
        c, s = np.cos(xb / 2), np.sin(xb / 2)
        d = scale * sum(float(coeff) * c ** ec * s ** es for coeff, ec, es
                        in su2._small_d_terms(f.twice_j, f.twice_mp, f.twice_m))
        profile = profile * d
    beta_sum = np.dot(wb, profile * np.sin(xb))
    value = alpha_sum * beta_sum * gamma_sum / (32 * math.pi ** 2)
    return float(value.real)


# ---------------------------------------------------------------------------
# the tableau families as they were enumerated before the one loop

def semistandard_fillings_by_recursion(shape, alphabet, row_floor=lambda r: 0):
    """Row-weak, column-strict fillings as row-major entry tuples,
    lexicographic in alphabet position, whose row r (0-based) holds no
    letter before position row_floor(r): one generator per cell, each
    trying every later letter, with no look-ahead."""
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


def o_standard_tableau(t: Tableau, n: int, pos: dict) -> bool:
    """The orthogonal standardness test on a built tableau, read through
    Tableau.column and Tableau.entry."""
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


def admissible_words_by_recursion(group: str, shape, n: int) -> list:
    """tableaux.admissible_words by the recursive walk: the O fillings
    built as tableaux, tested, and flattened back by Tableau.row_major."""
    if group == "U":
        return list(semistandard_fillings_by_recursion(
            tableaux.check_shape(shape), tableaux.gl_alphabet(n)))
    if group == "O":
        shape = tableaux.check_group_shape("O", shape, n)
        alphabet = tableaux.o_alphabet(n)
        pos = {letter: k for k, letter in enumerate(alphabet)}
        built = tableaux._as_tableaux(shape, semistandard_fillings_by_recursion(shape, alphabet))
        return [tuple(t.row_major()) for t in built if o_standard_tableau(t, n, pos)]
    return list(semistandard_fillings_by_recursion(
        tableaux.check_group_shape("Sp", shape, n), tableaux.sp_alphabet(n), lambda r: 2 * r))


def emit_json_by_dumps(records: list):
    """cli._emit's JSON output by json.dumps(indent=2), whose pure-Python
    encoder the one-pass emitter of the package must match byte for byte."""
    payload = records[0] if len(records) == 1 else records
    print(json.dumps(payload, indent=2))
