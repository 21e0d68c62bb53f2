"""Exact tensor algebra on V^(x)k with integer or rational coefficients.

Tensors are sparse maps from index tuples (alphabet letters, see tableaux)
to int or Fraction coefficients.  The module provides one slot-permutation
kernel (permute), which applies a single permutation or a whole row-column
symmetrizer (young_symmetrizer, a read-only {permutation: sign} map), the
invariant bilinear pairings of the orthogonal and symplectic groups on
their split alphabets (tableaux), index contraction and expansion, and the
split of a tensor into traceless and trace parts.

One exact Gram–Schmidt (gram_schmidt), graded by torus weight (_weight),
builds the expansion span basis behind the trace part and the module
bases of irreps: symmetrizing, projecting and an expansion keep a
tensor's weight, and tensors of different weights have disjoint supports,
so the inner products the grading skips are exactly zero.  It is
fraction-free: it takes int candidates, every vector it holds is a
positive integer multiple of the rational one, and every vector it keeps
is primitive, so the span basis and the module bases hold int.  The trace
part comes from one integer kernel (_trace_part), D t1 with D the lcm of
the span norms met; traceless_project divides by D for its rational
parts, while the irrep build keeps D t0 = D t - D t1.
"""

import functools
import itertools
import math
import types
from fractions import Fraction

from . import perms, tableaux


class SparseTensor:
    """Sparse tensor of fixed order; zero coefficients are never stored."""

    def __init__(self, order: int, data=None):
        self.order = order
        self.data = {}
        if data:
            for idx, c in data.items():
                if c:
                    self.data[tuple(idx)] = self.data.get(tuple(idx), 0) + c

    @classmethod
    def elementary(cls, index) -> "SparseTensor":
        index = tuple(index)
        return cls(len(index), {index: 1})

    def copy(self) -> "SparseTensor":
        t = SparseTensor(self.order)
        t.data = dict(self.data)
        return t

    def is_zero(self) -> bool:
        return not self.data

    def add_term(self, index, coeff):
        if not coeff:
            return
        cur = self.data.get(index, 0) + coeff
        if cur:
            self.data[index] = cur
        else:
            self.data.pop(index, None)

    def __add__(self, other):
        if self.order != other.order:
            raise ValueError("order mismatch")
        out = self.copy()
        for idx, c in other.data.items():
            out.add_term(idx, c)
        return out

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        out = SparseTensor(self.order)
        if scalar:
            out.data = {idx: scalar * c for idx, c in self.data.items()}
        return out

    def inner(self, other: "SparseTensor"):
        """Dot product in the index basis; exact."""
        if self.order != other.order:
            raise ValueError("order mismatch")
        a, b = self.data, other.data
        if len(b) < len(a):
            a, b = b, a
        return sum((c * b[idx] for idx, c in a.items() if idx in b), 0)

    def norm_squared(self):
        return sum((c * c for c in self.data.values()), 0)

    def __eq__(self, other):
        return (isinstance(other, SparseTensor) and self.order == other.order
                and self.data == other.data)

    def __repr__(self):
        body = " + ".join(f"{c}*e{list(i)}" for i, c in sorted(self.data.items()))
        return f"SparseTensor({self.order}: {body or '0'})"


def permute(terms, t: SparseTensor) -> SparseTensor:
    """Sum of c P_p t over the (p, c) items of terms, permutation outer and
    support inner, where P_p moves the factor in slot i to slot p[i]; one
    permutation is {p: 1}, a whole symmetrizer its young_symmetrizer."""
    out = SparseTensor(t.order)
    data = out.data  # add_term inlined
    slots = range(t.order)
    for p, c in terms.items():
        if len(p) != t.order:
            raise ValueError("permutation length must match tensor order")
        for idx, tc in t.data.items():
            new = [0] * t.order
            for i in slots:
                new[p[i]] = idx[i]
            new = tuple(new)
            cur = data.get(new, 0) + c * tc
            if cur:
                data[new] = cur
            else:
                data.pop(new, None)
    return out


def _subgroup_perms(k: int, blocks: list[list[int]]):
    """All permutations of {0..k-1} permuting each block within itself."""
    out = []
    for parts in itertools.product(*[itertools.permutations(b) for b in blocks]):
        p = list(range(k))
        for block, image in zip(blocks, parts):
            for src, dst in zip(block, image):
                p[src] = dst
        out.append(tuple(p))
    return out


def young_symmetrizer(shape) -> types.MappingProxyType:
    """Column antisymmetrization after row symmetrization, cells numbered
    row-major: {q p: sign(q)} over column permutations q (outer) and row
    permutations p (inner).  The two groups meet only in the identity, so
    no two terms share a permutation.  As an element of the group algebra
    it satisfies c c = mu c with mu = m!/f^lambda, f^lambda the number of
    standard tableaux of the shape (tableaux.count_standard_tableaux).
    Each shape's is built once and handed out read-only."""
    return _young_symmetrizer(tableaux.check_shape(shape))


@functools.lru_cache(maxsize=64)
def _young_symmetrizer(shape: tuple) -> types.MappingProxyType:
    m = tableaux.weight(shape)
    label = itertools.count()
    rows = [[next(label) for _ in range(row_len)] for row_len in shape]
    cols = [[rows[r][c] for r in range(col_len)]
            for c, col_len in enumerate(tableaux.conjugate(shape))]
    row_group = _subgroup_perms(m, rows)
    out = {}
    for q in _subgroup_perms(m, cols):
        sq = perms.sign(q)
        for p in row_group:
            out[perms.compose(q, p)] = sq
    return types.MappingProxyType(out)


class BilinearForm:
    """Invariant pairing on V, with the dual-basis data used for expansion,
    on the split alphabet, where the bar of letter x is -x: kind
    "orthogonal" is the symmetric form with omega(i, ibar) = 1, the middle
    letter 0 of odd n paired with itself, and kind "symplectic" the skew
    form with omega(ibar, i) = 1 = -omega(i, ibar).
    """

    def __init__(self, kind: str, n: int):
        if kind not in ("orthogonal", "symplectic"):
            raise ValueError(f"unknown form kind {kind!r}")
        if n < 1:
            raise ValueError("need n >= 1")
        self.kind = kind
        self.n = n
        self.letters = tableaux.o_alphabet(2 * n if kind == "symplectic" else n)
        self.dim = len(self.letters)

    def bar(self, x: int) -> int:
        return -x

    def pairing(self, x: int, y: int) -> int:
        """omega(e_x, e_y)."""
        return self.dsign(x) if y == self.bar(x) else 0

    def dsign(self, x: int) -> int:
        """Coefficient s_x in sum_p f_p (x) f^p = sum_x s_x e_x (x) e_bar(x)."""
        if self.kind == "symplectic":
            return 1 if x < 0 else -1
        return 1

    def dual_pairs(self):
        return [(x, self.bar(x), self.dsign(x)) for x in self.letters]

    def cache_key(self):
        return (self.kind, self.n)

    def __repr__(self):
        return f"BilinearForm({self.kind}, n={self.n})"


def orthogonal_form(n: int) -> BilinearForm:
    return BilinearForm("orthogonal", n)


def symplectic_form(n: int) -> BilinearForm:
    return BilinearForm("symplectic", n)


def contract(t: SparseTensor, i: int, j: int, form: BilinearForm) -> SparseTensor:
    """Pair slots i < j with the form; order drops by two."""
    if not 0 <= i < j < t.order:
        raise ValueError("need 0 <= i < j < order")
    out = SparseTensor(t.order - 2)
    for idx, c in t.data.items():
        w = form.pairing(idx[i], idx[j])
        if w:
            rest = tuple(x for s, x in enumerate(idx) if s != i and s != j)
            out.add_term(rest, w * c)
    return out


def expand(t: SparseTensor, i: int, j: int, form: BilinearForm) -> SparseTensor:
    """Insert the invariant dual pair at result slots i < j; order grows by two."""
    k = t.order + 2
    if not 0 <= i < j < k:
        raise ValueError("need 0 <= i < j < new order")
    out = SparseTensor(k)
    for idx, c in t.data.items():
        for x, y, s in form.dual_pairs():
            new = [0] * k
            it = iter(idx)
            for pos in range(k):
                if pos == i:
                    new[pos] = x
                elif pos == j:
                    new[pos] = y
                else:
                    new[pos] = next(it)
            out.add_term(tuple(new), s * c)
    return out


def _weight(idx) -> tuple:
    """Torus weight of an index tuple: the net count of each letter pair
    (+i counts 1, -i counts -1, the letter 0 nothing) as sorted
    (i, count) pairs, zero counts dropped.  On the U alphabet, positive
    letters only, it is the content.  A slot permutation keeps it, and so
    does an expansion by a form, which inserts x beside -x."""
    net = {}
    for x in idx:
        if x:
            net[abs(x)] = net.get(abs(x), 0) + (1 if x > 0 else -1)
    return tuple(sorted((a, c) for a, c in net.items() if c))


def gram_schmidt(candidates):
    """Orthogonalize (label, tensor) candidates in order, each of one weight,
    read from its first index, against the kept vectors of that weight only,
    and scale each survivor to primitive form, coprime integers; a candidate
    in the span of earlier ones is dropped.  The candidates hold int
    coefficients, and so do the kept (label, weight, vector, norm²)
    returned.  Candidates are left as they are; a kept vector may be its
    candidate tensor itself.

    Fraction-free (Bareiss 1968): a candidate is held as a positive integer
    multiple of its rational residue, v <- (n2/g) v - (<u,v>/g) u with
    g = gcd(<u,v>, n2), so it drops the same zero entries, keeps the same
    item order and has the same primitive form as v <- v - <u,v>/n2 u."""
    kept, by_weight = [], {}
    for label, v in candidates:
        w = _weight(next(iter(v.data), ()))
        same = by_weight.setdefault(w, [])
        for u, n2 in same:
            ip = u.inner(v)
            if ip:  # scaled into a new tensor: the candidate stays as it was
                g = math.gcd(ip, n2)
                v = (n2 // g) * v
                ip //= g
                for idx, c in u.data.items():
                    v.add_term(idx, -ip * c)
        if v.is_zero():
            continue
        content = math.gcd(*v.data.values())
        if content != 1:
            out = SparseTensor(v.order)
            out.data = {idx: c // content for idx, c in v.data.items()}
            v = out
        n2 = v.norm_squared()
        same.append((v, n2))
        kept.append((label, w, v, n2))
    return kept


@functools.lru_cache(maxsize=1024)
def _trace_span_basis(order: int, key: tuple, weight: tuple) -> list:
    """The kept (label, weight, vector, norm²) of gram_schmidt over the
    expanded lower tensors of one weight, of the form with the given cache
    key: an expansion keeps the weight of its lower tensor, and the
    Gram–Schmidt is graded, so these are the whole span's vectors of that
    weight, in its order.  A label is the generator's place in the whole
    sequence, slot pairs (i, j) outer, lower inner."""
    if order < 2:
        return []
    form = BilinearForm(*key)
    lowers = enumerate(itertools.product(form.letters, repeat=order - 2))
    lowers = [(k, lower) for k, lower in lowers if _weight(lower) == weight]
    size = len(form.letters) ** (order - 2)
    generators = ((c * size + k, expand(SparseTensor.elementary(lower), i, j, form))
                  for c, (i, j) in enumerate(itertools.combinations(range(order), 2))
                  for k, lower in lowers)
    return gram_schmidt(generators)


def _trace_part(t: SparseTensor, form: BilinearForm, weight: tuple | None = None):
    """(D, D t1): t1 the trace part of traceless_project, D the lcm of the
    norms of the span vectors t meets, so D t1 is integral when t is.

    Only the span vectors of a weight that occurs in t can meet its
    support, and only those are built (_trace_span_basis); they are taken
    in the whole span's order, so a tensor of mixed weight gets the same
    parts as from the whole span.  weight, where given, is the one weight
    of every index of t."""
    key = form.cache_key()
    weights = {_weight(idx) for idx in t.data} if weight is None else {weight}
    span = [x for w in weights for x in _trace_span_basis(t.order, key, w)]
    if len(weights) > 1:
        span.sort(key=lambda x: x[0])
    hits = [(ip, u, n2) for _, _, u, n2 in span if (ip := u.inner(t))]
    d = math.lcm(*(n2 for *_, n2 in hits))
    t1 = SparseTensor(t.order)
    for ip, u, n2 in hits:
        s = ip * (d // n2)
        for idx, c in u.data.items():
            t1.add_term(idx, s * c)
    return d, t1


def traceless_project(t: SparseTensor, form: BilinearForm):
    """Split t = t0 + t1 with every contraction of t0 zero and t1 in the
    span of expanded lower-order tensors; the parts are orthogonal and
    rational: t1 is _trace_part's D t1 over D."""
    d, t1 = _trace_part(t, form)
    t1 = Fraction(1, d) * t1
    return t - t1, t1


class CostGateError(RuntimeError):
    """Raised when a request exceeds the supported exact-computation size."""
