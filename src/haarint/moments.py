"""Exact Haar integrals of matrix-entry monomials over the classical
compact groups, with their large-N leading terms.

The integral of a monomial in entries of u and u-bar equals a matrix
element of the orthogonal projection of |J><J'| onto the span of the
commutant operators: slot permutations for U(N), pair-partition operators
for O(N) and Sp(2N).  The projection is r^T W c for match vectors r, c
and any W with G W G = G, G the Gram matrix of operator traces.  Both
bases are pairings of the 2q slots (_basis): a permutation σ is the
Brauer diagram pairing output σ(j) with input j.

G(a, b) depends on a and b only through a partition of q, the type of
the pair: the loop lengths of a ∪ b, which for two permutations is the
cycle type of a^-1 b (Collins–Śniady 2006, Collins–Matsumoto 2009).  So
does W, whose p(q) weights are closed forms in the characters of the
symmetric group (_engine): w_μ = (1/M) Σ_λ a_λ(μ)/z_λ(N) over λ ⊢ q,
with M and a_λ(μ) free of N.  Where some z_λ is 0 (small N) the Gram is
singular and the sum without those λ is a generalized inverse; any W
with G W G = G gives the same projection.  Each build checks
G (D w) G = D G in int, D the weights' common denominator, by a route of
its own (_class_product).  Sp(2N) is O(-2N): the symplectic Gram, and
so W, is the orthogonal one at dimension -2N up to the signs
ε_a ε_b (-1)^q, ε_a the crossing parity of the pairing a (_crossing_signs),
so the engine knows only U and O.  The dense Gram and its Weingarten
matrix are not built here: they live in the test suite (tests/helpers.py)
as the reference route that judges these weights.

Monomials and irrep matrix elements (irreps) only build brackets, u_ij
being the degree-one <e_i|u|e_j>, e_a the a-th letter of the alphabet
(the split one for Sp).  _bracket_integral owns the rest in both modes:
the degree rule, the trivial 0 and 1, the commutant basis, one match-work
gate, the reduce to r, c and the contraction with W (exact) or with its
leading diagonal δ/N^q, Sp read as O at -2N.  Both modes read one cached
listing of the basis as slot-pair masks (_masks); only exact requests
build type tables, character sums and class weights.  An entry is a
product of the factors of the pairing's slot pairs, each 0 or ±1; each
term of a bracket product reads them once (_pair_factors, from a per-q
slot-pair table) as two bitmasks, the nonzero pairs and the -1 pairs, so
a pairing's entry is 0 unless its mask lies inside the first, else the
parity of its overlap with the second.  Terms with the same two masks
add their coefficients before the one pass over the basis they share.
The kernel needs two bits of the alphabet: whether it is split (the bar
of x is -x; otherwise x, as on the letters 1..N of U and O monomials),
and whether the form is skew, which is Sp's.  One SU/SO window serves
both modes: SU(1) and SO(1) give 1, other cases defer to U or O, vanish,
or are refused where determinant invariants enter.

The Monte Carlo cross-check (integrate_monomial_mc) evaluates the monomial
on stacks of Haar draws, one stack per block of sampling.mc_expectation.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import perms, sampling, tableaux
from .tensors import CostGateError

DEGREE_CAP = 4  # operators per side; the commutant span grows as q! / (2q-1)!!
# basis elements any request may list (_masks); exact ones stop at DEGREE_CAP
LEADING_CAP = 10 ** 6


class UnsupportedIntegralError(NotImplementedError):
    """The requested integral needs invariants outside the implemented span
    (determinant-type contributions of SU/SO at low dimension)."""


@dataclass(frozen=True)
class Factor:
    row: int
    col: int
    conj: bool = False

    def __post_init__(self):
        object.__setattr__(self, "row", tableaux.check_int(self.row, "row"))
        object.__setattr__(self, "col", tableaux.check_int(self.col, "col"))


@dataclass(frozen=True)
class MonomialSpec:
    group: str
    factors: tuple

    def __init__(self, group, factors):
        if group not in ("U", "SU", "O", "SO", "Sp"):
            raise ValueError(f"unknown group tag {group!r}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "factors", tuple(
            f if isinstance(f, Factor) else Factor(*f) for f in factors))

    @property
    def degree(self) -> int:
        return len(self.factors)

    def validate(self, n: int):
        top = sampling.dimension(self.group, n)
        for f in self.factors:
            if not (1 <= f.row <= top and 1 <= f.col <= top):
                raise ValueError(f"index out of range 1..{top}: {f}")

    def to_dict(self, n: int) -> dict:
        return {"group": self.group, "N": n,
                "factors": [{"i": f.row, "j": f.col, "conj": f.conj}
                            for f in self.factors]}

    @classmethod
    def from_dict(cls, d: dict) -> tuple:
        spec = cls(_spec_key(d, "group"), [
            Factor(*(tableaux.check_int(_spec_key(f, k), k) for k in ("i", "j")),
                   _spec_conj(f)) for f in _spec_factors(d)])
        return spec, tableaux.check_int(_spec_key(d, "N"), "N")


def _spec_key(d: dict, key: str):
    """A required entry of a spec file or of one of its factors, refused
    by name when it is absent."""
    if key not in d:
        raise ValueError(f"missing {key!r} entry in the spec")
    return d[key]


def _spec_conj(factor: dict) -> bool:
    """The optional conjugation flag of a spec factor, false if absent."""
    conj = factor.get("conj", False)
    if not isinstance(conj, bool):
        raise ValueError(f"conj must be true or false, got {conj!r}")
    return conj


def _spec_factors(d: dict) -> list:
    factors = _spec_key(d, "factors")
    if not isinstance(factors, list) or not all(isinstance(f, dict) for f in factors):
        raise ValueError("factors must be a list of objects")
    return factors


def evaluate_monomial(spec: MonomialSpec, matrix) -> complex | np.ndarray:
    """Value of the monomial on one sampled matrix, or the values on each
    matrix of a stack (size, d, d) (1-based indices)."""
    matrix = np.asarray(matrix)
    out = 1.0 + 0.0j
    for f in spec.factors:
        v = matrix[..., f.row - 1, f.col - 1]
        out = out * (v.conj() if f.conj else v)
    return out


def integrate_monomial_mc(spec: MonomialSpec, n: int, samples: int, seed: int):
    """Monte Carlo estimate of the monomial's integral over stacked Haar
    draws (sampling.mc_expectation), refused past sampling.MC_CAP."""
    n = tableaux.check_int(n, "N")
    spec.validate(n)  # a negative index would wrap instead of failing
    d = sampling.dimension(spec.group, n)
    sampling.check_cost("Monte Carlo", samples, 1 + d * d, sampling.MC_CAP)
    return sampling.mc_expectation(
        lambda stream, size: evaluate_monomial(
            spec, sampling.sample_group(spec.group, n, stream, size).matrix),
        samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# commutant bases

def all_pairings(m: int):
    """Pair partitions of {1..m} as sorted pair tuples, lexicographic."""
    if m % 2:
        raise ValueError("need an even number of points")

    def rec(points):
        if not points:
            yield ()
            return
        a = points[0]
        for k in range(1, len(points)):
            b = points[k]
            rest = points[1:k] + points[k + 1:]
            for tail in rec(rest):
                yield ((a, b),) + tail

    return list(rec(tuple(range(1, m + 1))))


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


# ---------------------------------------------------------------------------
# type tables: the dimension-free structure of a commutant basis

def _partners(pairing) -> list:
    out = [0] * (2 * len(pairing) + 1)
    for a, b in pairing:
        out[a], out[b] = b, a
    return out


def _loop_type(pa, pb) -> tuple:
    """Loop lengths of the union of two pairings (as partner lists), each
    halved, so they partition q; descending."""
    seen = [False] * len(pa)
    lengths = []
    for start in range(1, len(pa)):
        if seen[start]:
            continue
        steps, cur = 0, start
        while True:
            nxt = pa[cur]
            seen[cur] = seen[nxt] = True
            cur = pb[nxt]
            steps += 1
            if cur == start:
                break
        lengths.append(steps)
    return tuple(sorted(lengths, reverse=True))


def _crossing_sign(pairing) -> int:
    """(-1)^(number of crossing pairs): the sign of the slot permutation
    a₁b₁a₂b₂… of the pairing ((a₁, b₁), (a₂, b₂), …)."""
    return perms.sign([s - 1 for pair in pairing for s in pair])


@dataclass(frozen=True)
class TypeTable:
    """Dimension-free structure of one commutant basis: ``rows[a][b]``
    indexes into ``types`` the partition of q that labels the pair (a, b)."""
    elements: list  # pairings (tuples of slot pairs), _basis order
    types: tuple
    rows: tuple  # bytes per basis element


@functools.lru_cache(maxsize=16)
def _slot_pair_table(q: int) -> tuple:
    """The bits of the slot pairs (a, b), 1 <= a < b <= 2q, one per pair in
    itertools.combinations order, as lookup tables over 1-based slots:
    bits[a][b] = bits[b][a], the bit of the pair; lower[a], the bits of the
    pairs (a, b), b > a, of slots of one parity (two outputs or two
    inputs); and input_first, the bits of the pairs whose lower slot is an
    input and whose upper one an output."""
    m = 2 * q
    bits = [[0] * (m + 1) for _ in range(m + 1)]
    for k, (a, b) in enumerate(itertools.combinations(range(1, m + 1), 2)):
        bits[a][b] = bits[b][a] = 1 << k
    lower = tuple(sum(bits[a][a + 2::2]) for a in range(m + 1))
    input_first = sum(bits[a][b] for a in range(2, m + 1, 2) for b in range(a + 1, m + 1, 2))
    return tuple(map(tuple, bits)), lower, input_first


def _basis(kind: str, q: int) -> list:
    """The U or O commutant basis at degree q as pairings of the slots
    1..2q, odd slot 2i-1 the i-th output and even slot 2j the j-th input:
    every pairing for O (all_pairings), which Sp(2N) reads as O(-2N), and
    for U the output-input ones, one per slot permutation p
    (itertools.permutations order) made of the pairs (2p[j]+1, 2j+2),
    0-based j, each written low slot first.  The loop type of two such
    pairings σ, τ is the cycle type of σ^-1 τ, so one loop walk
    (_loop_type) labels both bases."""
    if kind == "U":
        pair = [[tuple(sorted((2 * i + 1, 2 * j + 2))) for i in range(q)]
                for j in range(q)]
        return [tuple(map(list.__getitem__, pair, p))
                for p in itertools.permutations(range(q))]
    if kind == "O":
        return all_pairings(2 * q)
    raise ValueError(f"unknown group tag {kind!r}")


@functools.lru_cache(maxsize=16)
def type_table(kind: str, q: int) -> TypeTable:
    """Type table of the U or O commutant basis at degree q (_basis); Sp
    reads O's (_bracket_integral)."""
    if q < 1:
        raise ValueError("need q >= 1")
    if q > DEGREE_CAP:
        raise CostGateError(
            f"commutant span at q={q} has {math.factorial(q)} permutations or "
            f"{_double_factorial(2 * q - 1)} pairings; capped at q={DEGREE_CAP}")
    elems = _basis(kind, q)
    partners = [_partners(p) for p in elems]
    index: dict = {}
    # every type occurs in row 0, so the type order is fixed by that row
    rows = tuple(bytes(index.setdefault(_loop_type(pa, pb), len(index)) for pb in partners)
                 for pa in partners)
    return TypeTable(elems, tuple(index), rows)


@functools.lru_cache(maxsize=DEGREE_CAP)
def _crossing_signs(q: int) -> tuple:
    """The ε_a = (-1)^cr(a) of the O pairings at degree q (type_table
    order), cr(a) the number of crossing pairs of a: the symplectic Gram is
    G(a, b) = ε_a ε_b (-1)^q (-2N)^ℓ(type) (Collins–Matsumoto 2009).  The
    first pairing ((1, 2), (3, 4), …) has none, so ε = 1 there."""
    return tuple(_crossing_sign(p) for p in type_table("O", q).elements)


def _class_product(table: TypeTable, x, y) -> list:
    """Product of two class functions, given by their values per type:
    at type t, the sum over c of x(first, c) y(c, b), b the first element
    of row 0 of type t."""
    first = table.rows[0]
    return [sum(x[s] * y[u] for s, u in zip(first, table.rows[first.index(t)]))
            for t in range(len(table.types))]


@functools.lru_cache(maxsize=16)
def _character_sums(kind: str, q: int) -> tuple:
    """The N-free part of the U or O class weights at degree q: M, and
    per λ ⊢ q in type order the a_λ(μ) per type μ.  For U, M = q!^2 and
    a_λ(μ) = χ^λ(1)^2 χ^λ(μ), μ the cycle type of σ^-1 τ.  For O, M = (2q)! and
    a_λ(μ) = f^2λ Σ_τ χ^2λ(τ), τ over the 2^q q! slot permutations that
    carry the first pairing ((1, 2), (3, 4), …) onto the first pairing p
    of type μ in row 0: p's slot permutation (as in _crossing_sign) after
    each one that keeps the first pairing."""
    table = type_table(kind, q)
    shapes = table.types  # every partition of q is a type
    if kind == "U":
        return math.factorial(q) ** 2, tuple(
            tuple(tableaux.count_standard_tableaux(lam) ** 2 * tableaux.character(lam, mu)
                  for mu in shapes) for lam in shapes)
    keep = [tuple(x for j, f in zip(order, flips) for x in (2 * j + f, 2 * j + 1 - f))
            for order in itertools.permutations(range(q))
            for flips in itertools.product((0, 1), repeat=q)]
    cosets = []  # per type, the cycle types of its τ with their counts
    for t in range(len(shapes)):
        p = [s - 1 for pair in table.elements[table.rows[0].index(t)] for s in pair]
        cosets.append(collections.Counter(perms.cycle_type(perms.compose(p, h)) for h in keep))
    sums = []
    for lam in shapes:
        doubled = tuple(2 * part for part in lam)
        chi = {nu: tableaux.character(doubled, nu) for nu in set().union(*cosets)}
        sums.append(tuple(tableaux.count_standard_tableaux(doubled)
                          * sum(m * chi[nu] for nu, m in coset.items()) for coset in cosets))
    return math.factorial(2 * q), tuple(sums)


# ---------------------------------------------------------------------------
# exact and leading-order integrals

@dataclass(frozen=True)
class ClassWeights:
    """Weingarten weights as a class function: the k x k matrix is
    W(a, b) = weights[rows[a][b]], with G W G = G."""
    table: TypeTable
    weights: tuple  # one Fraction per type
    pseudo: bool  # the Gram is singular, W is a generalized inverse


@functools.lru_cache(maxsize=128)
def _engine(group: str, q: int, n: int) -> ClassWeights:
    """Class weights of the U or O commutant at degree q, dimension n, for
    O any nonzero int, Sp(2N) being O at n = -2N (_bracket_integral):
    w = (1/M) Σ a_λ/z_λ over the λ with z_λ ≠ 0 (_character_sums), where
    z_λ = s_λ(1^n) for U and Π (n + 2j - i) over the cells (i, j) of λ,
    0-based, for O.  The sum is taken in int over D = M lcm(z_λ), and so
    is the check G (D w) G = D G; Fraction enters with w."""
    table = type_table(group, q)
    m, sums = _character_sums(group, q)
    if group == "U":
        z = [tableaux.gl_dimension(lam, n) for lam in table.types]
    else:
        z = [math.prod(n + 2 * j - i for i, part in enumerate(lam) for j in range(part))
             for lam in table.types]
    live = [(a, x) for a, x in zip(sums, z) if x]
    common = math.lcm(*(x for _, x in live))
    dw = [sum(a[t] * (common // x) for a, x in live) for t in range(len(z))]
    denom = m * common
    g = [n ** len(t) for t in table.types]  # the Gram as a class function
    assert _class_product(table, _class_product(table, g, dw), g) == [denom * x for x in g]
    return ClassWeights(table, tuple(Fraction(x, denom) for x in dw), pseudo=len(live) < len(z))


def _contract(engine: ClassWeights, r_vec, c_vec) -> Fraction:
    """r^T W c, summed per type of the basis pair before weighting."""
    cols = [(b, cb) for b, cb in enumerate(c_vec) if cb]
    bins = [0] * len(engine.weights)
    for ra, row in zip(r_vec, engine.table.rows):
        if ra:
            for b, cb in cols:
                bins[row[b]] += ra * cb
    return sum((w * m for w, m in zip(engine.weights, bins) if m), Fraction(0))


def _pair_factors(left, right, split: bool, skew: bool) -> tuple:
    """The factors that slot pairs (a, b), a < b, contribute to a pairing's
    entry between letter tuples, each 0 or ±1, as two sets of slot-pair
    bits (_slot_pair_table): live, the pairs whose factor is nonzero, and
    minus, those whose factor is -1.
    Slot s (1-based, s <= 2q) is odd for the s-th output letter and even
    for inputs: two outputs pair through the dual expansion, two inputs
    through the form, and an output-input pair is a plain delta, with the
    skew sign when the input slot comes first.  Each rule needs one letter
    to be the bar of the other once the input letters are barred, so the
    live pairs join the slots of a key to those of its bar.  Only the
    skew form has -1 factors: the input-first pairs, and the same-parity
    pairs whose lower slot holds a letter of dual sign -1, the positive
    letters.  The bar of x is -x on a split alphabet and x otherwise."""
    bits, lower, input_first = _slot_pair_table(len(left))
    bar = -1 if split else 1
    keys: dict = {}  # key -> its slots, ascending
    slot = 1
    for x, y in zip(left, right):
        keys.setdefault(x, []).append(slot)
        keys.setdefault(bar * y, []).append(slot + 1)
        slot += 2
    live = 0
    for key, slots in keys.items():
        partner = bar * key
        if partner == key:
            for i, a in enumerate(slots):
                row = bits[a]
                for b in slots[i + 1:]:
                    live |= row[b]
        elif key < partner and partner in keys:
            others = keys[partner]
            for a in slots:
                row = bits[a]
                for b in others:
                    live |= row[b]
    if not skew:
        return live, 0
    negative = input_first
    for i, (x, y) in enumerate(zip(left, right)):
        if x > 0:
            negative |= lower[2 * i + 1]
        if y > 0:
            negative |= lower[2 * i + 2]
    return live, live & negative


def _match_vector(masks, split: bool, skew: bool, terms) -> list:
    """Per basis element, given by its mask (_masks), the sum of
    c * entry(left, right) over the terms (left letters, right letters, c)
    of a tensor.  Each term looks up its slot-pair factors once
    (_pair_factors), and terms with the same factors add their
    coefficients before the pass over the masks: a pairing with a pair
    outside live has entry 0, any other (-1)^(its pairs in minus).  A term
    with no live pair adds nothing, since every pairing has a pair."""
    grouped: dict = {}
    for left, right, c in terms:
        factors = _pair_factors(left, right, split, skew)
        if factors[0]:
            grouped[factors] = grouped.get(factors, 0) + c
    out = [0] * len(masks)
    for (live, minus), c in grouped.items():
        if c:
            out = [x if m & live != m else x - c if (m & minus).bit_count() & 1 else x + c
                   for x, m in zip(out, masks)]
    return out


@functools.lru_cache(maxsize=16)
def _masks(kind: str, q: int) -> tuple:
    """The U or O commutant basis at degree q (_basis) as the bits
    (_slot_pair_table) of each pairing's slot pairs.  A count past
    LEADING_CAP is refused before any listing, so the cache holds only U
    at q <= 9 and O at q <= 7."""
    count = math.factorial(q) if kind == "U" else _double_factorial(2 * q - 1)
    if count > LEADING_CAP:
        noun = "permutations" if kind == "U" else "pairings"
        raise CostGateError(
            f"leading order at q={q} enumerates {count} {noun}; "
            f"capped at {LEADING_CAP}")
    bits = _slot_pair_table(q)[0]
    return tuple(sum(bits[a][b] for a, b in p) for p in _basis(kind, q))


def _half_degree(kind: str, brackets) -> int | None:
    """q, the operators per side, of a product of brackets, read from each
    bracket's degree (the letters of any of its terms); None where the
    integral vanishes: U needs as many plain as conjugated slots, O an
    even total."""
    plain = total = 0
    for conj, rows, _ in brackets:
        degree = len(next(iter(rows))[0])
        total += degree
        plain += 0 if conj else degree
    if kind == "U":
        return plain if 2 * plain == total else None
    return None if total % 2 else total // 2


def _twist(terms, q: int, skew: bool) -> list:
    """Rewrite the slots from q on through the inverse matrix of a split
    form: each letter x there becomes bar(x) = -x at the cost of its dual
    sign (-1 for positive letters of the skew form).  At q = 0 this is the
    entrywise conjugate of a whole bracket."""
    out = []
    for letters, c in terms:
        tail = tuple(-x for x in letters[q:])
        if skew:
            for x in tail:
                if x < 0:
                    c = -c
        out.append((letters[:q] + tail, c))
    return out


def _reduce(kind: str, q: int, split: bool, skew: bool, brackets) -> tuple:
    """The match vectors (r_vec, c_vec) of a product of brackets
    <row|u|col> of q >= 1 operators per side (_half_degree): its integral
    is r^T W c over the basis _masks(kind, q), kind U or O.
    A bracket is (conj, row terms, col terms), a term (letters, coeff) of
    a tensor, whose int coefficients give int match vectors; conj marks
    the entrywise conjugate.  The letters are on the split alphabet
    (tableaux) where split is set, the bar of x being -x, and otherwise
    on 1..N with the identity bar, as for U and O monomials and U
    modules; the form is skew for Sp.  Before any match vector, the
    match-work gate refuses basis elements x the larger side's term count
    past LEADING_CAP (one term for a monomial).  Plain brackets fill the
    early slots and conjugated ones the late, as U needs; O takes any
    split of the slots.  On a split alphabet a conjugated bracket is
    twisted whole, then the product's slots from q on to the inverse;
    otherwise the twist is the identity.  Where every bracket's row terms
    are its column terms the two sides are one computation, so c is r."""
    masks = _masks(kind, q)
    expanded = max(math.prod(len(b[side]) for b in brackets) for side in (1, 2))
    sampling.check_cost(f"match vectors at q={q}", len(masks), expanded,
                        LEADING_CAP, "bracket-term matches")
    brackets = sorted(brackets, key=lambda b: b[0])
    if split:
        brackets = [(conj, _twist(rows, 0, skew), _twist(cols, 0, skew)) if conj
                    else (conj, rows, cols) for conj, rows, cols in brackets]
    vectors = []
    for side in (1,) if all(rows == cols for _, rows, cols in brackets) else (1, 2):
        terms = [((), 1)]
        for bracket in brackets:
            terms = [(x + y, cx * cy) for x, cx in terms for y, cy in bracket[side]]
        if split:
            terms = _twist(terms, q, skew)
        vectors.append(_match_vector(masks, split, skew, [(x[:q], x[q:], c) for x, c in terms]))
    return vectors[0], vectors[-1]


def _bracket_integral(kind: str, n: int, split: bool, brackets, exact: bool) -> Fraction:
    """The integral over U(n), O(n) or Sp(2n) of a product of brackets
    (_reduce): the match vectors contracted with the class weights (exact)
    or with the order-n^-q part of W, the diagonal δ/n^q (Collins–Śniady
    2006, Collins–Matsumoto 2009): r^T c / n^q.  Sp(2n) is O(-2n): its
    skew entry rule gives the match vectors, then the O engine at -2n
    contracts them, each times the crossing signs ε (_crossing_signs),
    and the value is times (-1)^q; the leading value skips ε, as ε^2 = 1,
    and (-1)^q / (-2n)^q is 1/(2n)^q.  The engine comes first: past
    DEGREE_CAP its type table refuses the request."""
    skew = kind == "Sp"
    if skew:
        kind, n = "O", -2 * n
    q = _half_degree(kind, brackets)
    if q is None:
        return Fraction(0)
    if q == 0:
        return Fraction(1)
    engine = _engine(kind, q, n) if exact else None
    r_vec, c_vec = _reduce(kind, q, split, skew, brackets)
    sign = (-1) ** q if skew else 1
    if not exact:
        return Fraction(sign * sum(ra * ca for ra, ca in zip(r_vec, c_vec)), n ** q)
    if skew:
        eps = _crossing_signs(q)
        r_vec, c_vec = ([x * e for x, e in zip(v, eps)] for v in (r_vec, c_vec))
    return sign * _contract(engine, r_vec, c_vec)


def _brackets(spec: MonomialSpec) -> tuple:
    """(kind, split, brackets) of a monomial: each factor u_ij is the
    degree-one bracket <e_i|u|e_j>, e_a the a-th letter of the group's
    alphabet, read without building it: a for U and O, the a-th of the
    split alphabet -1, 1, -2, 2, … (tableaux.sp_alphabet) for Sp, the one
    split kind; SU and SO read U and O."""
    kind = {"SU": "U", "SO": "O"}.get(spec.group, spec.group)
    split = kind == "Sp"
    e = (lambda a: ((-1) ** a * ((a + 1) // 2),)) if split else (lambda a: (a,))
    return kind, split, [(f.conj, [(e(f.row), 1)], [(e(f.col), 1)]) for f in spec.factors]


def _window(spec: MonomialSpec, n: int) -> Fraction | None:
    """The SU or SO value where the U or O machinery settles it, in both
    modes; None defers to U or O (and passes U, O and Sp through); raises
    where determinant invariants enter."""
    if spec.group not in ("SU", "SO"):
        return None
    if n == 1:
        return Fraction(1)  # the one-dimensional group is trivial
    m = spec.degree
    if spec.group == "SU":
        plain = sum(not f.conj for f in spec.factors)
        conj = m - plain
        if plain == conj:
            return None
        if (plain - conj) % n:
            return Fraction(0)
        raise UnsupportedIntegralError(
            f"SU({n}) monomial with {plain} plain and {conj} conjugate factors "
            f"picks up determinant invariants; only the balanced and "
            f"center-killed cases are supported")
    if m % 2 == 0 and (n % 2 or m < n):
        return None
    if m % 2 and m < n:
        return Fraction(0)
    raise UnsupportedIntegralError(
        f"SO({n}) degree-{m} monomials pick up determinant (epsilon-tensor) "
        f"invariants; supported only when the degree is even and (N odd or "
        f"degree < N), or odd with degree < N")


def _integral(spec: MonomialSpec, n: int, exact: bool) -> Fraction:
    n = tableaux.check_int(n, "N")
    if n < 1:
        raise ValueError("need n >= 1")
    spec.validate(n)
    short = _window(spec, n)
    if short is not None:
        return short
    kind, split, brackets = _brackets(spec)
    return _bracket_integral(kind, n, split, brackets, exact)


def exact_integral(spec: MonomialSpec, n: int) -> Fraction:
    """Exact Haar integral of the monomial; Fraction."""
    return _integral(spec, n, exact=True)


def asymptotic_leading(spec: MonomialSpec, n: int) -> Fraction:
    """The order-N^(-q) coefficient of the integral: the exact path's
    match vectors contracted with the diagonal leading weights."""
    return _integral(spec, n, exact=False)
