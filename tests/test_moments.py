"""Exact monomial integrals: frozen values, dual-route Gram checks,
Monte Carlo agreement, and symmetry invariants.

Frozen expected values come from routes that never touch the engine:
sphere moments of a single column (Dirichlet moments of |entries|^2),
the explicit rotation/reflection measure of the 2x2 orthogonal group,
and 2x2 special unitary parametrization.
"""

import functools
import importlib
import itertools
import math
import operator
import pkgutil
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import haarint
from haarint import moments, perms, sampling, tableaux
from haarint.moments import (
    CostGateError,
    Factor,
    MonomialSpec,
    UnsupportedIntegralError,
    all_pairings,
    asymptotic_leading,
    evaluate_monomial,
    exact_integral,
    type_table,
)
from haarint.tensors import orthogonal_form, symplectic_form
from helpers import (
    StandardForm,
    as_permutation,
    brauer_entry,
    brute_leading,
    class_weights_by_rref,
    crossing_parity,
    engine_for,
    gram_from_loops,
    gram_from_operators,
    inverse,
    j_entry,
    loop_structure,
    m_entry,
    mat_mul,
    match_vector_by_entries,
    match_vector_by_terms,
    materialize_brauer,
    pad_columns,
    pair_factors_by_slots,
    reduce_brackets,
    slot_pair_bits,
    transpose,
    weingarten_data,
)


def spec(group, *ijc):
    return MonomialSpec(group, [Factor(*t) for t in ijc])


# ---------------------------------------------------------------------------
# bases and pairings

def test_pairing_counts():
    assert len(all_pairings(2)) == 1
    assert len(all_pairings(4)) == 3
    assert len(all_pairings(6)) == 15
    assert len(all_pairings(8)) == 105


def test_pairing_order_lexicographic():
    assert all_pairings(4) == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]


def test_basis_sizes_and_order():
    # U: one output-input pairing per permutation, identity first
    assert type_table("U", 2).elements == (((1, 2), (3, 4)), ((2, 3), (1, 4)))
    assert len(type_table("O", 2).elements) == 3
    assert len(type_table("O", 3).elements) == 15
    assert type_table("O", 1).elements == (((1, 2),),)


def test_a_cached_type_table_cannot_be_edited():
    # type_table hands out its cached table: no edit of it may reach the
    # Gram solve (G W G = G) of a later request, here Sp(2) |u11|^4
    quartic = spec("Sp", (1, 1), (1, 1), (1, 1, True), (1, 1, True))
    value = exact_integral(quartic, 2)
    table = type_table("O", 2)
    for edit in (lambda: table.elements.reverse(),
                 lambda: table.elements.append(table.elements[0]),
                 lambda: operator.setitem(table.elements, 0, table.elements[1]),
                 lambda: setattr(table, "elements", table.elements[::-1])):
        with pytest.raises((AttributeError, TypeError)):
            edit()
    assert exact_integral(quartic, 2) == value


def test_degree_cap():
    with pytest.raises(CostGateError):
        type_table("U", 5)
    with pytest.raises(CostGateError):
        type_table("O", 5)


# ---------------------------------------------------------------------------
# pairing operators

def test_identity_pairing_is_identity():
    for form in (StandardForm(3), symplectic_form(2)):
        mat = materialize_brauer(((1, 2), (3, 4)), form)
        letters = form.letters
        for a in letters:
            for b in letters:
                assert mat.get(((a, b), (a, b))) == 1
        assert len(mat) == len(letters) ** 2


def test_entry_rule_orthogonal():
    form = StandardForm(3)
    cross = ((1, 3), (2, 4))  # outputs paired, inputs paired
    assert brauer_entry(cross, (1, 1), (2, 2), form) == 1
    assert brauer_entry(cross, (1, 2), (2, 2), form) == 0
    hook = ((1, 4), (2, 3))
    assert brauer_entry(hook, (1, 1), (1, 1), form) == 1
    assert brauer_entry(hook, (1, 2), (2, 1), form) == 1
    assert brauer_entry(hook, (1, 2), (1, 2), form) == 0


def test_entry_rule_symplectic_signs():
    form = symplectic_form(1)
    hook = ((1, 4), (2, 3))  # input-before-output pair carries the skew sign
    assert brauer_entry(hook, (-1, -1), (-1, -1), form) == -1
    cross = ((1, 3), (2, 4))
    # output pair: dual expansion weight; input pair: form value
    assert brauer_entry(cross, (-1, 1), (-1, 1), form) == 1
    assert brauer_entry(cross, (1, -1), (-1, 1), form) == -1
    assert brauer_entry(cross, (-1, -1), (-1, 1), form) == 0


def test_materialized_entries_are_signs():
    for form in (StandardForm(2), symplectic_form(2)):
        for p in all_pairings(4):
            for v in materialize_brauer(p, form).values():
                assert v in (1, -1)


def test_materialize_matches_entry_rule():
    form = symplectic_form(2)
    for p in all_pairings(4):
        mat = materialize_brauer(p, form)
        for r in itertools.product(form.letters, repeat=2):
            for c in itertools.product(form.letters, repeat=2):
                assert mat.get((r, c), 0) == brauer_entry(p, r, c, form)


# kind -> (the oracle's form at n, the kernel's split flag); Sp is the skew kind
MATCH_FORMS = {"U": (lambda n: None, False), "O": (StandardForm, False),
               "O split": (orthogonal_form, True), "Sp": (symplectic_form, True)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_match_vector_is_the_entry_rule(data):
    # the table-read match vectors against the per-element entry rule, on
    # the U, O (standard and split alphabets) and Sp bases up to q = 4 and
    # the leading-only q = 5: letters repeat and are barred, tensors have
    # one or more terms, and a term's negation may cancel it
    # (the kernel reads U with the split flag off, the oracle keeps the
    # slot permutation test)
    kind = data.draw(st.sampled_from(sorted(MATCH_FORMS)))
    q = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 3))
    make_form, split = MATCH_FORMS[kind]
    form = make_form(n)
    letters = list(range(1, n + 1)) if form is None else form.letters
    group = "U" if kind == "U" else "O"  # Sp is read on the O basis
    masks = moments._masks(group, q)
    elements = moments._basis(group, q)
    word = st.lists(st.sampled_from(letters), min_size=q, max_size=q).map(tuple)
    coeff = st.integers(-3, 3).filter(bool)
    terms = data.draw(st.lists(st.tuples(word, word, coeff), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        left, right, c = data.draw(st.sampled_from(terms))
        terms.append((left, right, -c))
    got = moments._match_vector(masks, split, kind == "Sp", terms)
    assert got == match_vector_by_entries(elements, form, terms)
    assert all(type(x) is int for x in got)


# kind -> (the oracle's form at n, the kernel's split flag), as MATCH_FORMS
KERNEL_FORMS = {"U": (StandardForm, False), "O": (StandardForm, False),
                "O split": (lambda n: orthogonal_form(2 * n - 1), True),
                "Sp": (symplectic_form, True)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_keyed_kernel_is_the_slot_by_slot_read(data):
    # the keyed slot-pair factors and the term-grouping match vectors
    # against the slot-by-slot read with one pass per term, on U and O
    # (read through the standard form), split O at odd N (whose alphabet
    # has the self-barred letter 0) and Sp up to q = 4; the tensors repeat
    # terms and relabel them by letter permutations that keep bar and the
    # dual signs, so terms share their factors
    kind = data.draw(st.sampled_from(sorted(KERNEL_FORMS)))
    q = data.draw(st.integers(1, moments.DEGREE_CAP))
    make_form, split = KERNEL_FORMS[kind]
    form = make_form(data.draw(st.integers(1, 3)))
    skew = kind == "Sp"
    masks = moments._masks("U" if kind == "U" else "O", q)
    bits = moments._slot_pair_table(q)[0]
    assert {pair: bits[pair[0]][pair[1]] for pair in slot_pair_bits(q)} == slot_pair_bits(q)
    letters = form.letters
    word = st.lists(st.sampled_from(letters), min_size=q, max_size=q).map(tuple)
    coeff = st.integers(-3, 3).filter(bool)
    terms = data.draw(st.lists(st.tuples(word, word, coeff), min_size=1, max_size=4))
    sizes = sorted({abs(x) for x in letters} - {0})
    for _ in range(data.draw(st.integers(0, 4))):
        left, right, _ = data.draw(st.sampled_from(terms))
        image = dict(zip(sizes, data.draw(st.permutations(sizes))))
        relabel = lambda w: tuple(x and (image[x] if x > 0 else -image[-x]) for x in w)
        terms.append((relabel(left), relabel(right), data.draw(coeff)))
    for left, right, _ in terms:
        assert moments._pair_factors(left, right, split, skew) == \
            pair_factors_by_slots(left, right, form)
    got = moments._match_vector(masks, split, skew, terms)
    assert got == match_vector_by_terms(masks, form, terms)
    assert all(type(x) is int for x in got)


@pytest.mark.parametrize("group,n,factors", [
    ("U", 3, [(1, 1, False), (2, 2, False), (1, 1, True), (2, 2, True)]),
    ("O", 3, [(1, 1, False), (1, 1, False), (2, 2, False), (3, 3, True)]),
    ("Sp", 2, [(1, 1, False), (3, 3, True), (2, 2, False), (4, 4, True)]),
    ("U", 3, [(1, 2, False), (2, 1, True)]),
    ("Sp", 2, [(1, 2, False), (2, 1, True)]),
])
def test_reduce_reuses_the_row_vector(group, n, factors, monkeypatch):
    # where every bracket's row terms are its column terms one match
    # vector serves both sides; the same brackets with a zero term padded
    # onto each column tensor take two passes and give the same vectors,
    # and so the same value
    kind, split, brackets = moments._brackets(spec(group, *factors))
    calls = []
    match_vector = moments._match_vector

    def counting(*args):
        calls.append(args)
        return match_vector(*args)

    monkeypatch.setattr(moments, "_match_vector", counting)
    reduced = reduce_brackets(kind, split, brackets)
    diagonal = all(f[0] == f[1] for f in factors)
    assert len(calls) == (1 if diagonal else 2)
    padded = pad_columns(brackets)
    assert reduce_brackets(kind, split, padded) == reduced
    assert len(calls) == (3 if diagonal else 4)
    value = moments._bracket_integral(kind, n, split, brackets, True)
    assert value == moments._bracket_integral(kind, n, split, padded, True)
    assert value == _dense_value(spec(group, *factors), n)


def _dense(pairing, form):
    n = len(form.letters)
    q = len(pairing)
    out = np.zeros((n ** q, n ** q))
    pos = {x: form.letters.index(x) for x in form.letters}

    def flat(idx):
        k = 0
        for x in idx:
            k = k * n + pos[x]
        return k

    for (r, c), v in materialize_brauer(pairing, form).items():
        out[flat(r), flat(c)] = v
    return out


@pytest.mark.parametrize("group,n", [("O", 3), ("Sp", 2)])
def test_pairing_operators_commute_with_tensor_action(group, n):
    # the defining property of the span: a sampled group element, embedded
    # with interleaved letters in the symplectic case, must commute with
    # every pairing operator
    form = symplectic_form(n) if group == "Sp" else StandardForm(n)
    u = sampling.sample_group(group, n, sampling.RngStream(911))
    uu = np.kron(u, u)
    for p in all_pairings(4):
        b = _dense(p, form)
        assert np.max(np.abs(b @ uu - uu @ b)) < 1e-12


# ---------------------------------------------------------------------------
# Gram matrices and weights

def test_gram_unitary_frozen():
    assert gram_from_loops("U", 1, 5) == [[5]]
    for n in (1, 2, 3, 7):
        assert gram_from_loops("U", 2, n) == [[n * n, n], [n, n * n]]


def test_gram_orthogonal_frozen():
    assert gram_from_loops("O", 1, 4) == [[4]]
    for n in (2, 3, 5):
        assert gram_from_loops("O", 2, n) == [
            [n * n, n, n], [n, n * n, n], [n, n, n * n]]


def test_gram_symplectic_frozen():
    # skew signs flip the entries that hook an output pair to an input pair
    for n in (1, 2, 3):
        d = 2 * n
        assert gram_from_loops("Sp", 2, n) == [
            [d * d, d, -d], [d, d * d, d], [-d, d, d * d]]


@pytest.mark.parametrize("group", ["O", "Sp"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_gram_loops_match_direct(group, q):
    for n in (1, 2, 3):
        assert gram_from_loops(group, q, n) == gram_from_operators(group, q, n)


def test_weingarten_unitary_frozen():
    for n in (2, 3, 5):
        w = weingarten_data(gram_from_loops("U", 2, n))
        assert not w.pseudo
        den = n * n * (n * n - 1)
        assert w.weights == [
            [Fraction(n * n, den), Fraction(-n, den)],
            [Fraction(-n, den), Fraction(n * n, den)]]


def test_weingarten_singular_cases_flagged():
    w = weingarten_data(gram_from_loops("U", 2, 1))
    assert w.pseudo
    g = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    wd = weingarten_data(g)
    assert wd.pseudo
    gwg = mat_mul(mat_mul(g, wd.weights), g)
    assert gwg == g


def test_weingarten_rank_deficient_normal_equations():
    # Gram of a dependent spanning set: the weights must still reproduce
    # the projection, which G W G = G certifies
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)],
         [Fraction(0), Fraction(1)]]
    g = mat_mul(a, transpose(a))
    wd = weingarten_data(g)
    assert wd.pseudo
    gwg = mat_mul(mat_mul(g, wd.weights), g)
    assert gwg == g

# ---------------------------------------------------------------------------
# class-function weights against the dense route

def _class_weights(group, q, n):
    """The engine that serves U(n), O(n) or Sp(2n), and the class weights
    of that group: Sp(2n) is O(-2n), its weights times (-1)^q."""
    kind, d = engine_for(group, n)
    engine = moments._engine(kind, q, d)
    sign = (-1) ** q if group == "Sp" else 1
    return engine, [sign * w for w in engine.weights]


def _expand(group, q, n):
    """The engine and the k x k Weingarten matrix its class weights stand
    for: for Sp, (-1)^q E W_O(-2N) E, E the crossing parities counted
    afresh."""
    engine, weights = _class_weights(group, q, n)
    t = engine.table
    eps = [crossing_parity(p) if group == "Sp" else 1 for p in t.elements]
    return engine, [[sa * sb * weights[x] for sb, x in zip(eps, row)]
                    for sa, row in zip(eps, t.rows)]


CLASS_CASES = ([("U", q, n) for q in range(1, 5) for n in range(1, 7)]
               + [("O", q, n) for q in range(1, 4) for n in range(1, 6)]
               + [("Sp", q, n) for q in range(1, 4) for n in range(1, 5)])


@pytest.mark.parametrize("group,q,n", CLASS_CASES)
def test_class_weights_invert_dense_gram(group, q, n):
    # the pairing Grams come from materialized operators, not the type table
    g = gram_from_operators(group, q, n)
    engine, w = _expand(group, q, n)
    assert mat_mul(mat_mul(g, w), g) == g
    assert engine.pseudo == weingarten_data(g).pseudo


@pytest.mark.parametrize("kind", ["U", "O", "Sp"])
def test_type_table_matches_loop_walk(kind):
    # loop counts, and for Sp, read on the O table, the factorized signs
    # ε_a ε_b (-1)^(q+ℓ), agree with the sign-tracking walk on every pair
    # up to the degree cap; a U label is the cycle type of σ_a^-1 σ_b
    form_kind = "symplectic" if kind == "Sp" else "orthogonal"
    for q in range(1, moments.DEGREE_CAP + 1):
        t = type_table("U" if kind == "U" else "O", q)
        elems = t.elements
        eps = moments._crossing_signs(q) if kind == "Sp" else None
        for a, pa in enumerate(elems):
            for b, pb in enumerate(elems):
                sign, loops = loop_structure(pa, pb, form_kind)
                assert loops == len(t.types[t.rows[a][b]])
                if kind == "Sp":
                    assert sign == eps[a] * eps[b] * (-1) ** (q + loops)
                else:
                    assert sign == 1
                if kind == "U":
                    sa, sb = as_permutation(pa), as_permutation(pb)
                    assert t.types[t.rows[a][b]] == perms.cycle_type(
                        perms.compose(inverse(sa), sb))
        if kind == "U":
            assert sorted(map(as_permutation, elems)) == sorted(
                itertools.permutations(range(q)))


def _fresh_table(kind, q):
    # the table built afresh, past the cache
    elems = moments._basis(kind, q)
    partners = [moments._partners(p) for p in elems]
    index = {}
    rows = tuple(bytes(index.setdefault(moments._loop_type(pa, pb), len(index))
                       for pb in partners) for pa in partners)
    return moments.TypeTable(tuple(elems), tuple(index), rows)


@pytest.mark.parametrize("q", range(1, moments.DEGREE_CAP + 1))
def test_sp_reads_the_o_tables(q, monkeypatch):
    # an exact Sp(2N) request builds only the O table and the O engine at
    # -2N, whose crossing signs are the counted ones; the U/O-only
    # internals refuse the Sp tag
    o = type_table("O", q)
    if q < moments.DEGREE_CAP:  # the q=4 rows take seconds to rebuild
        assert o == _fresh_table("O", q)
    assert moments._crossing_signs(q) == tuple(crossing_parity(p) for p in all_pairings(2 * q))
    tables, engines = [], []
    type_table_, engine = moments.type_table, moments._engine.__wrapped__  # past the cache
    monkeypatch.setattr(moments, "type_table", lambda *a: tables.append(a) or type_table_(*a))
    monkeypatch.setattr(moments, "_engine", lambda *a: engines.append(a) or engine(*a))
    power = spec("Sp", *[(1, 1)] * q, *[(1, 1, True)] * q)
    for n in (1, 2):
        assert exact_integral(power, n) == Fraction(1, math.comb(2 * n + q - 1, q))
    assert set(tables) == {("O", q)}
    assert engines == [("O", q, -2), ("O", q, -4)]
    monkeypatch.undo()
    for internal in (moments.type_table, moments._masks, moments._character_sums,
                     moments._basis, lambda *a: moments._engine(*a, 2)):
        with pytest.raises(ValueError, match="unknown group tag 'Sp'"):
            internal("Sp", q)
    assert moments._character_sums("O", q) == moments._character_sums.__wrapped__("O", q)


@pytest.mark.parametrize("q", [5, 6])
def test_crossing_parity_matches_loop_walk(q):
    # above the degree cap: the sign rule of the type table against the
    # walk on the first-pairing column (no crossings there, so ε = 1) and
    # against a direct count of the crossing pairs
    pairings = all_pairings(2 * q)
    first = pairings[0]
    for p in pairings:
        eps = moments._crossing_sign(p)
        sign, loops = loop_structure(p, first, "symplectic")
        assert eps == sign * (-1) ** (q + loops)
        assert eps == (-1) ** sum(a < c < b < d for a, b in p for c, d in p)


@functools.lru_cache(maxsize=64)
def _dense_weights(group, q, n):
    return weingarten_data(gram_from_loops(group, q, n)).weights


def _dense_value(spec, n):
    group, split, brackets = moments._brackets(spec)
    reduced = reduce_brackets(group, split, brackets)
    if isinstance(reduced, Fraction):
        return reduced
    _, q, r_vec, c_vec = reduced
    w = _dense_weights(group, q, n)
    return sum((ra * w[a][b] * cb for a, ra in enumerate(r_vec)
                for b, cb in enumerate(c_vec) if ra and cb), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_class_weights_match_dense_route(data):
    group = data.draw(st.sampled_from(["U", "O", "Sp"]))
    q = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4 if group == "U" else 3))
    top = 2 * n if group == "Sp" else n
    idx = st.integers(1, min(top, 3))
    if group == "U":
        conj = [False] * q + [True] * q
    else:
        conj = [data.draw(st.booleans()) for _ in range(2 * q)]
    s = MonomialSpec(group, [Factor(data.draw(idx), data.draw(idx), c)
                             for c in conj])
    assert exact_integral(s, n) == _dense_value(s, n)


def _gwg_is_g(g, group, q, n) -> bool:
    """G W G = G for a dense Gram g and the Weingarten matrix of the
    class weights, in int: G (D W) G = D G, D the weights' common
    denominator."""
    assert all(x.denominator == 1 for row in g for x in row)
    engine, w = _expand(group, q, n)
    d = math.lcm(*(x.denominator for x in engine.weights))
    dense = np.array([[int(x) for x in row] for row in g], dtype=object)
    dw = np.array([[int(x * d) for x in row] for row in w], dtype=object)
    return bool((dense @ dw @ dense == d * dense).all())


@pytest.mark.parametrize("kind", ["U", "O", "Sp"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_class_weights_are_the_rref_route(kind, q):
    # the closed forms flag a singular Gram where G^2 w = G is singular,
    # and give the linear route's weights wherever it is not; where it is,
    # the two are different generalized inverses, and the closed forms'
    # one inverts the dense Gram, so every r^T W c is the linear route's
    for n in range(1, 11):
        engine, weights = _class_weights(kind, q, n)
        expected, pseudo = class_weights_by_rref(kind, q, n)
        assert engine.pseudo == pseudo
        assert all(type(w) is Fraction for w in engine.weights)
        if pseudo:
            assert _gwg_is_g(gram_from_loops(kind, q, n), kind, q, n)
        else:
            assert tuple(weights) == expected


def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


@pytest.mark.parametrize("kind", ["U", "O", "Sp"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_class_weights_have_the_moebius_asymptotics(kind, q):
    # w_μ = Π_i (-1)^(μ_i - 1) Cat(μ_i - 1) / D^(q + |μ|) + O(D^-(q + |μ| + 1)),
    # |μ| = q - ℓ(μ) (Collins–Śniady 2006, Collins–Matsumoto 2009): D = N
    # for U and O, and -2N for Sp, whose weights carry (-1)^q.  At μ = 1^q
    # this is the δ/D^q that the leading order contracts; every other type
    # is of higher order in 1/D.
    n = 10 ** 6
    engine, weights = _class_weights(kind, q, n)
    d, sign = (-2 * n, (-1) ** q) if kind == "Sp" else (n, 1)
    for mu, w in zip(engine.table.types, weights):
        moebius = math.prod((-1) ** (part - 1) * _catalan(part - 1) for part in mu)
        assert abs(sign * d ** (2 * q - len(mu)) * w - moebius) <= Fraction(1, 10 ** 4)


def _package_lru_caches() -> dict:
    """Every functools.lru_cache defined in a haarint module, at module
    level or in a class body, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(haarint.__path__):
        module = importlib.import_module(f"haarint.{info.name}")
        members = list(vars(module).values())
        members += [m for cls in members if isinstance(cls, type) for m in vars(cls).values()]
        for m in members:
            if hasattr(m, "cache_parameters") and m.__module__.startswith("haarint."):
                found[f"{m.__module__}.{m.__qualname__}"] = m
    return found


def test_integer_arguments_refuse_floats():
    # N, samples and seed go through check_int: a float is a ValueError
    # (it was a bare AssertionError, a TypeError, or a seed of 1.5 that ran)
    square = spec("U", (1, 1), (1, 1, True))
    calls = [lambda: exact_integral(square, 2.5),
             lambda: asymptotic_leading(square, 2.5),
             lambda: moments.integrate_monomial_mc(square, 2.5, 10, 1),
             lambda: moments.integrate_monomial_mc(square, 2, 10.0, 1),
             lambda: moments.integrate_monomial_mc(square, 2, 10, 1.5)]
    for call in calls:
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    assert exact_integral(square, np.int64(2)) == asymptotic_leading(square, np.int32(2)) == \
        Fraction(1, 2)
    est = moments.integrate_monomial_mc(square, np.int64(2), np.int64(10), np.int64(1))
    assert est == moments.integrate_monomial_mc(square, 2, 10, 1) and type(est.seed) is int


def test_engine_caches_are_bounded():
    caches = _package_lru_caches()
    assert {"haarint.moments._engine", "haarint.moments._character_sums",
            "haarint.moments.type_table",
            "haarint.irreps._module", "haarint.irreps._weight_space", "haarint.su2._gauss_rule",
            "haarint.tensors._trace_span_basis"} <= set(caches)
    for name, cached in caches.items():
        assert cached.cache_parameters()["maxsize"] is not None, name


def test_closed_forms_at_degree_eight():
    # E O11^8 = 7!!/(N(N+2)(N+4)(N+6)); a Sp column is uniform on the
    # sphere in 2N complex coordinates, so E|U11|^8 = 1/C(2N+3, 4)
    eighth = spec("O", *[(1, 1)] * 8)
    for n in range(2, 6):
        assert exact_integral(eighth, n) == \
            Fraction(105, n * (n + 2) * (n + 4) * (n + 6))
    four = spec("Sp", *[(1, 1)] * 4, *[(1, 1, True)] * 4)
    for n in range(1, 4):
        assert exact_integral(four, n) == Fraction(1, math.comb(2 * n + 3, 4))


# ---------------------------------------------------------------------------
# exact integrals, frozen against sphere and low-rank oracles

def test_unitary_second_moment():
    # |u_11|^2 averages the first coordinate of a uniform point on the
    # complex sphere: Dirichlet(1,...,1) mean
    for n in range(1, 6):
        assert exact_integral(spec("U", (1, 1), (1, 1, True)), n) == Fraction(1, n)
    for n in range(2, 6):
        assert exact_integral(spec("U", (1, 2), (1, 2, True)), n) == Fraction(1, n)


def test_unitary_fourth_moments():
    for n in range(1, 6):
        s = spec("U", (1, 1), (1, 1), (1, 1, True), (1, 1, True))
        # Dirichlet second moment 2/(n(n+1))
        assert exact_integral(s, n) == Fraction(2, n * (n + 1))
    for n in range(2, 6):
        s = spec("U", (1, 1), (1, 2), (1, 1, True), (1, 2, True))
        # Dirichlet cross moment 1/(n(n+1))
        assert exact_integral(s, n) == Fraction(1, n * (n + 1))
        s = spec("U", (1, 1), (2, 2), (1, 1, True), (2, 2, True))
        assert exact_integral(s, n) == Fraction(1, n * n - 1)
        s = spec("U", (1, 1), (2, 2), (1, 2, True), (2, 1, True))
        assert exact_integral(s, n) == Fraction(-1, n * (n * n - 1))
        # the same product, a conjugated factor first
        s = spec("U", (1, 2, True), (1, 1), (2, 2), (2, 1, True))
        assert exact_integral(s, n) == Fraction(-1, n * (n * n - 1))


def test_unitary_unbalanced_is_zero():
    assert exact_integral(spec("U", (1, 1)), 3) == 0
    assert exact_integral(spec("U", (1, 1), (2, 2)), 3) == 0
    assert exact_integral(spec("U", (1, 1), (1, 1), (1, 1, True)), 2) == 0


def test_unitary_phase_mismatch_is_zero():
    assert exact_integral(spec("U", (1, 1), (2, 2, True)), 4) == 0
    assert exact_integral(spec("U", (1, 1), (1, 2, True)), 4) == 0


def test_orthogonal_moments():
    # single-column sphere moments: E x^2 = 1/n, E x^4 = 3/(n(n+2));
    # the 2x2 case is the explicit cos/sin measure: E cos^4 = 3/8
    for n in range(1, 6):
        assert exact_integral(spec("O", (1, 1), (1, 1)), n) == Fraction(1, n)
        assert exact_integral(
            spec("O", (1, 1), (1, 1), (1, 1), (1, 1)), n) == \
            Fraction(3, n * (n + 2))
    for n in range(2, 6):
        assert exact_integral(
            spec("O", (1, 1), (2, 2), (1, 1), (2, 2)), n) == \
            Fraction(n + 1, n * (n - 1) * (n + 2))
        assert exact_integral(
            spec("O", (1, 1), (1, 2), (2, 1), (2, 2)), n) == \
            Fraction(-1, (n - 1) * n * (n + 2))
    assert exact_integral(
        spec("O", (1, 1), (1, 1), (2, 2), (2, 2)), 2) == Fraction(3, 8)


def test_orthogonal_odd_degree_zero():
    assert exact_integral(spec("O", (1, 1)), 3) == 0
    assert exact_integral(spec("O", (1, 1), (1, 1), (1, 1)), 3) == 0


def test_orthogonal_off_diagonal_zero():
    assert exact_integral(spec("O", (1, 1), (1, 2)), 3) == 0
    assert exact_integral(spec("O", (1, 1), (2, 2)), 3) == 0


def test_symplectic_moments():
    # first column uniform on the sphere in 2n complex coordinates
    for n in range(1, 5):
        two = spec("Sp", (1, 1), (1, 1, True))
        assert exact_integral(two, n) == Fraction(1, 2 * n)
        four = spec("Sp", (1, 1), (1, 1), (1, 1, True), (1, 1, True))
        assert exact_integral(four, n) == Fraction(2, 2 * n * (2 * n + 1))
        cross = spec("Sp", (1, 1), (1, 2), (1, 1, True), (1, 2, True))
        assert exact_integral(cross, n) == Fraction(1, 2 * n * (2 * n + 1))


def test_symplectic_unconjugated_pairs():
    # the 2x2 compact symplectic group is the special unitary group:
    # u11 u22 = |a|^2, u12 u21 = -|b|^2
    for n in range(1, 5):
        assert exact_integral(spec("Sp", (1, 1), (2, 2)), n) == Fraction(1, 2 * n)
        assert exact_integral(spec("Sp", (1, 2), (2, 1)), n) == Fraction(-1, 2 * n)
        assert exact_integral(spec("Sp", (1, 1), (1, 2)), n) == 0
        assert exact_integral(spec("Sp", (1, 1)), n) == 0


def test_symplectic_pseudo_inverse_route():
    # at 2n = 2 the three pairing operators are dependent and the Gram is
    # singular; the projection must still give the special unitary value 1/3
    g = gram_from_loops("Sp", 2, 1)
    assert weingarten_data(g).pseudo
    four = spec("Sp", (1, 1), (1, 1), (1, 1, True), (1, 1, True))
    assert exact_integral(four, 1) == Fraction(1, 3)


def test_low_dimension_pseudo_values():
    assert exact_integral(
        spec("U", (1, 1), (1, 1), (1, 1, True), (1, 1, True)), 1) == 1
    assert exact_integral(
        spec("O", (1, 1), (1, 1), (1, 1), (1, 1)), 1) == 1


def test_special_unitary_windows():
    balanced = spec("SU", (1, 1), (1, 1, True))
    for n in range(2, 5):
        assert exact_integral(balanced, n) == Fraction(1, n)
    # center kills monomials whose plain/conjugate surplus misses n
    assert exact_integral(spec("SU", (1, 1), (2, 2)), 3) == 0
    assert exact_integral(spec("SU", (1, 1)), 2) == 0
    # surplus equal to n picks up determinant terms: refuse, never guess
    with pytest.raises(UnsupportedIntegralError):
        exact_integral(spec("SU", (1, 1), (2, 2)), 2)
    with pytest.raises(UnsupportedIntegralError):
        exact_integral(spec("SU", (1, 1), (2, 2), (3, 3)), 3)
    assert exact_integral(spec("SU", (1, 1)), 1) == 1


def test_special_orthogonal_windows():
    for n in (3, 5):
        assert exact_integral(spec("SO", (1, 1), (1, 1)), n) == Fraction(1, n)
    assert exact_integral(
        spec("SO", (1, 1), (1, 1), (1, 1), (1, 1)), 5) == Fraction(3, 35)
    assert exact_integral(spec("SO", (1, 1), (1, 1), (1, 1)), 5) == 0
    assert exact_integral(spec("SO", (2, 2)), 3) == 0
    # even dimension at full degree: the rotation group really differs
    # from the full orthogonal group (2x2: E cos^2 = 1/2 vs 0)
    with pytest.raises(UnsupportedIntegralError):
        exact_integral(spec("SO", (1, 1), (2, 2)), 2)
    with pytest.raises(UnsupportedIntegralError):
        exact_integral(spec("SO", (1, 1), (2, 2), (3, 3)), 3)
    assert exact_integral(spec("SO", (1, 1)), 1) == 1
    assert exact_integral(spec("SO", (1, 1), (1, 1), (1, 1)), 1) == 1


def test_unitarity_sum_rule():
    for n in range(1, 6):
        total = sum(exact_integral(spec("U", (1, j), (1, j, True)), n)
                    for j in range(1, n + 1))
        assert total == 1
        total = sum(exact_integral(spec("O", (1, j), (1, j)), n)
                    for j in range(1, n + 1))
        assert total == 1
    for n in (1, 2, 3):
        total = sum(exact_integral(spec("Sp", (1, j), (1, j, True)), n)
                    for j in range(1, 2 * n + 1))
        assert total == 1


def test_monomial_letters_need_no_alphabet():
    # a monomial reads its letters by position, so no alphabet of N letters
    # is built: 10^9 letters would take tens of GB
    for n in range(1, 5):
        _, split, brackets = moments._brackets(
            spec("Sp", *[(a, a) for a in range(1, 2 * n + 1)]))
        assert split and [b[1][0][0][0] for b in brackets] == tableaux.sp_alphabet(n)
    start = time.perf_counter()
    big = 10 ** 9
    assert exact_integral(spec("O", (1, 1), (1, 1)), big) == Fraction(1, big)
    assert exact_integral(spec("O", (1, 1)), big) == 0
    assert asymptotic_leading(spec("Sp", (1, 1), (1, 1, True)), big) == Fraction(1, 2 * big)
    assert time.perf_counter() - start < 0.5


def test_monomial_factors_refuse_non_integer_indices():
    # a float index once gave 1/2 exact and a numpy IndexError in Monte
    # Carlo; numpy integers are integers and pass as ints
    with pytest.raises(ValueError, match="row must be an integer"):
        MonomialSpec("U", [(1.0, 1), (1.0, 1, True)])
    with pytest.raises(ValueError, match="col must be an integer"):
        MonomialSpec("U", [(1, "1")])
    s = MonomialSpec("U", [(np.int64(1), np.int32(1)), (1, 1, True)])
    assert all(type(x) is int for f in s.factors for x in (f.row, f.col))
    assert exact_integral(s, 2) == Fraction(1, 2)
    assert s == spec("U", (1, 1), (1, 1, True))


def test_index_validation():
    with pytest.raises(ValueError):
        exact_integral(spec("U", (1, 4), (1, 4, True)), 3)
    with pytest.raises(ValueError):
        exact_integral(spec("O", (0, 1), (1, 1)), 3)
    # symplectic indices run over the doubled dimension
    exact_integral(spec("Sp", (4, 4), (4, 4, True)), 2)
    with pytest.raises(ValueError):
        exact_integral(spec("Sp", (5, 5), (5, 5, True)), 2)
    with pytest.raises(ValueError):
        MonomialSpec("Q", [])


# ---------------------------------------------------------------------------
# symmetry invariants

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_unitary_relabeling_invariance(data):
    n = data.draw(st.integers(2, 4))
    q = data.draw(st.integers(1, 2))
    idx = st.integers(1, n)
    fs = [Factor(data.draw(idx), data.draw(idx), False) for _ in range(q)]
    fs += [Factor(data.draw(idx), data.draw(idx), True) for _ in range(q)]
    rowp = data.draw(st.permutations(range(1, n + 1)))
    colp = data.draw(st.permutations(range(1, n + 1)))
    base = MonomialSpec("U", fs)
    moved = MonomialSpec("U", [
        Factor(rowp[f.row - 1], colp[f.col - 1], f.conj) for f in fs])
    assert exact_integral(base, n) == exact_integral(moved, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orthogonal_relabeling_invariance(data):
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.sampled_from([2, 4]))
    idx = st.integers(1, n)
    fs = [Factor(data.draw(idx), data.draw(idx)) for _ in range(m)]
    rowp = data.draw(st.permutations(range(1, n + 1)))
    colp = data.draw(st.permutations(range(1, n + 1)))
    base = MonomialSpec("O", fs)
    moved = MonomialSpec("O", [
        Factor(rowp[f.row - 1], colp[f.col - 1]) for f in fs])
    assert exact_integral(base, n) == exact_integral(moved, n)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_symplectic_block_relabeling_invariance(data):
    # permuting the n interleaved planes is a symplectic permutation
    n = data.draw(st.integers(2, 3))
    idx = st.integers(1, 2 * n)
    fs = [Factor(data.draw(idx), data.draw(idx), data.draw(st.booleans()))
          for _ in range(2)]
    blockp = data.draw(st.permutations(range(1, n + 1)))

    def move(a):
        block, off = (a + 1) // 2, (a + 1) % 2
        return 2 * blockp[block - 1] - off

    base = MonomialSpec("Sp", fs)
    moved = MonomialSpec("Sp", [
        Factor(move(f.row), move(f.col), f.conj) for f in fs])
    assert exact_integral(base, n) == exact_integral(moved, n)


# ---------------------------------------------------------------------------
# Monte Carlo agreement

MC_SPECS = [
    ("U", 3, [(1, 1), (1, 1, True)]),
    ("U", 2, [(1, 2), (2, 1), (1, 1, True), (2, 2, True)]),
    ("U", 5, [(1, 1), (2, 2), (1, 2, True), (2, 1, True)]),
    ("SU", 3, [(1, 1), (2, 2, True)]),
    ("SU", 2, [(1, 2), (1, 2, True)]),
    ("O", 2, [(1, 1), (2, 2)]),
    ("O", 3, [(1, 1), (1, 2), (2, 1), (2, 2)]),
    ("O", 4, [(1, 1), (1, 1), (2, 2), (2, 2)]),
    ("SO", 5, [(1, 1), (2, 2)]),
    ("SO", 3, [(2, 2), (2, 2)]),
    ("Sp", 1, [(1, 1), (1, 1), (1, 1, True), (1, 1, True)]),
    ("Sp", 2, [(1, 2), (2, 1)]),
    ("Sp", 2, [(1, 1), (3, 3, True)]),
    ("Sp", 3, [(1, 1), (1, 1, True)]),
]


@pytest.mark.parametrize("group,n,factors", MC_SPECS)
def test_exact_matches_monte_carlo(group, n, factors):
    s = spec(group, *factors)
    target = float(exact_integral(s, n))
    est = moments.integrate_monomial_mc(s, n, samples=2000, seed=2024)
    assert abs(est.mean.real - target) <= 4 * est.stderr + 1e-9
    assert abs(est.mean.imag) <= 4 * est.stderr + 1e-9


# ---------------------------------------------------------------------------
# leading asymptotics

def test_delta_and_j_forms():
    assert j_entry(1, 2) == 1
    assert j_entry(2, 1) == -1
    assert j_entry(3, 4) == 1
    assert j_entry(4, 3) == -1
    assert j_entry(1, 1) == 0
    assert j_entry(2, 3) == 0
    assert m_entry(1, 1, 1, 2) == 1
    assert m_entry(1, 2, 1, 2) == 0
    assert m_entry(1, 2, 3, 3) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_leading_matches_enumeration(data):
    # the match-vector contraction against the permutation and pairing
    # enumerations it replaced
    group = data.draw(st.sampled_from(["U", "SU", "O", "SO", "Sp"]))
    n = data.draw(st.integers(1, 4))
    top = 2 * n if group == "Sp" else n
    idx = st.integers(1, min(top, 3))
    m = data.draw(st.integers(0, 8))
    s = MonomialSpec(group, [Factor(data.draw(idx), data.draw(idx), data.draw(st.booleans()))
                             for _ in range(m)])
    try:
        want = brute_leading(s, n)
    except UnsupportedIntegralError:
        with pytest.raises(UnsupportedIntegralError):
            asymptotic_leading(s, n)
        return
    assert asymptotic_leading(s, n) == want


def test_leading_unitary():
    assert asymptotic_leading(spec("U", (1, 1), (1, 1, True)), 7) == Fraction(1, 7)
    s = spec("U", (1, 1), (1, 1), (1, 1, True), (1, 1, True))
    assert asymptotic_leading(s, 5) == Fraction(2, 25)
    s = spec("U", (1, 1), (2, 2), (1, 1, True), (2, 2, True))
    assert asymptotic_leading(s, 5) == Fraction(1, 25)
    assert asymptotic_leading(spec("U", (1, 1), (2, 2, True)), 5) == 0
    assert asymptotic_leading(spec("U", (1, 1)), 5) == 0
    # above the degree cap the leading order still needs no weights
    s = spec("U", *[(1, 1)] * 5, *[(1, 1, True)] * 5)
    assert asymptotic_leading(s, 3) == Fraction(120, 3 ** 5)


def test_leading_orthogonal():
    assert asymptotic_leading(spec("O", (1, 1), (1, 1)), 9) == Fraction(1, 9)
    s = spec("O", (1, 1), (1, 1), (1, 1), (1, 1))
    assert asymptotic_leading(s, 4) == Fraction(3, 16)
    s = spec("O", (1, 1), (2, 2), (1, 1), (2, 2))
    assert asymptotic_leading(s, 4) == Fraction(1, 16)
    # both row and column indices must pair up; rows alone would wrongly
    # accept the transposed-entry monomial below
    s = spec("O", (1, 1), (1, 2), (2, 1), (2, 2))
    assert asymptotic_leading(s, 4) == 0
    assert exact_integral(s, 3) == Fraction(-1, 30)
    assert asymptotic_leading(spec("O", *[(1, 1)] * 10), 3) == Fraction(945, 3 ** 5)


def _refuse(*args):
    raise AssertionError("a leading request built a type table or class weights")


@pytest.mark.parametrize("group,n", [("O", 3), ("Sp", 2)])
def test_leading_builds_no_type_table(group, n, monkeypatch):
    # a leading q = 4 request reads only the listed masks: no type table,
    # character sums or class weights
    monkeypatch.setattr(moments, "type_table", _refuse)
    monkeypatch.setattr(moments, "_engine", _refuse)
    s = spec(group, (1, 1), (1, 1), (2, 2), (2, 2), (1, 1, True), (1, 1, True),
             (2, 2, True), (2, 2, True))
    assert asymptotic_leading(s, n) == brute_leading(s, n) != 0


@pytest.mark.parametrize("q", range(1, moments.DEGREE_CAP + 1))
@pytest.mark.parametrize("kind", ["U", "O"])
def test_masks_are_the_type_table_elements(kind, q):
    # one listing for both modes: the slot-pair bits of the type table's
    # elements, in their order
    bits = slot_pair_bits(q)
    assert moments._masks(kind, q) == tuple(
        sum(bits[pair] for pair in p) for p in type_table(kind, q).elements)


def test_leading_above_the_degree_cap_lists_the_basis_once(monkeypatch):
    # SO(3) o_12^10 (q = 5, 945 pairings) twice: the second request reads
    # the cached listing, and so does an Sp request, without a key of its own
    moments._masks.cache_clear()
    listed = []
    basis = moments._basis
    monkeypatch.setattr(moments, "_basis", lambda *args: listed.append(args) or basis(*args))
    s = spec("SO", *[(1, 2)] * 10)
    assert asymptotic_leading(s, 3) == asymptotic_leading(s, 3) == Fraction(945, 3 ** 5)
    asymptotic_leading(spec("Sp", *[(1, 1)] * 5, *[(1, 1, True)] * 5), 3)
    assert listed == [("O", 5)]
    info = moments._masks.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def test_leading_gate_above_the_degree_cap():
    # (2q-1)!! = 2027025 pairings at q = 8 and 10! permutations at q = 10
    # are over LEADING_CAP: refused from the closed-form count, before any
    # enumeration; the exact path keeps its degree-cap refusal
    o16 = spec("O", *[(1, 1)] * 16)
    start = time.perf_counter()
    with pytest.raises(CostGateError, match="2027025 pairings"):
        asymptotic_leading(o16, 11)
    with pytest.raises(CostGateError, match="2027025 pairings"):
        asymptotic_leading(spec("Sp", *[(1, 1)] * 8, *[(1, 1, True)] * 8), 3)
    with pytest.raises(CostGateError, match="3628800 permutations"):
        asymptotic_leading(spec("U", *[(1, 1)] * 10, *[(1, 1, True)] * 10), 3)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(CostGateError, match="capped at q=4"):
        exact_integral(o16, 11)


def test_leading_symplectic():
    assert asymptotic_leading(spec("Sp", (1, 1), (1, 1, True)), 3) == Fraction(1, 6)
    # unconjugated pairs hit the skew form: J[1,2] = +1, J[2,1] = -1
    assert asymptotic_leading(spec("Sp", (1, 1), (2, 2)), 3) == Fraction(1, 6)
    assert asymptotic_leading(spec("Sp", (1, 2), (2, 1)), 3) == Fraction(-1, 6)
    assert asymptotic_leading(spec("Sp", (1, 1), (2, 1)), 3) == 0
    s = spec("Sp", (1, 1), (1, 1), (1, 1, True), (1, 1, True))
    assert asymptotic_leading(s, 2) == Fraction(2, 16)


def test_leading_matches_exact_at_top_order():
    cases = [
        (spec("U", (1, 1), (1, 1), (1, 1, True), (1, 1, True)), "U"),
        (spec("U", (1, 1), (2, 2), (1, 1, True), (2, 2, True)), "U"),
        (spec("O", (1, 1), (1, 1), (2, 2), (2, 2)), "O"),
        (spec("Sp", (1, 1), (1, 1), (1, 1, True), (1, 1, True)), "Sp"),
    ]
    for s, group in cases:
        q = s.degree // 2
        for n in (6, 9, 12):
            d = 2 * n if group == "Sp" else n
            gap = abs(float(exact_integral(s, n)) - float(asymptotic_leading(s, n)))
            assert gap * d ** q <= 3.0 / d


def test_leading_so_window():
    assert asymptotic_leading(spec("SO", (1, 1), (1, 1)), 7) == Fraction(1, 7)
    assert asymptotic_leading(spec("SO", (1, 1), (1, 1), (1, 1)), 7) == 0
    with pytest.raises(UnsupportedIntegralError):
        asymptotic_leading(spec("SO", (1, 1), (2, 2)), 2)
    # SO(1) is the trivial group, as in the exact mode: 1 at every degree,
    # not the O(1) pairing count (3 at degree 4, 15 at degree 6)
    for m in (1, 3, 4, 6):
        assert asymptotic_leading(spec("SO", *[(1, 1)] * m), 1) == 1


@settings(max_examples=300, deadline=None)
@given(group=st.sampled_from(["U", "SU", "O", "SO", "Sp"]), n=st.integers(1, 5),
       factors=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()),
                        max_size=8))
@example(group="SO", n=1, factors=[(0, 0, False)])
def test_exact_and_leading_refuse_alike(group, n, factors):
    # one window answers for both modes, so neither refuses an integral
    # that the other one answers, and both refuse with the same message
    top = 2 * n if group == "Sp" else n
    s = MonomialSpec(group, [(i % top + 1, j % top + 1, c) for i, j, c in factors])
    outcomes = []
    for fn in (exact_integral, asymptotic_leading):
        try:
            fn(s, n)
            outcomes.append(None)
        except UnsupportedIntegralError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# plumbing

def test_spec_dict_roundtrip():
    s = spec("Sp", (1, 2), (3, 4, True))
    d = s.to_dict(2)
    assert d == {"group": "Sp", "N": 2, "factors": [
        {"i": 1, "j": 2, "conj": False}, {"i": 3, "j": 4, "conj": True}]}
    back, n = MonomialSpec.from_dict(d)
    assert back == s
    assert n == 2


def test_evaluate_monomial_conjugates():
    m = np.array([[1 + 2j, 0.5j], [-0.25, 3 - 1j]])
    s = spec("U", (1, 1), (2, 2, True))
    assert evaluate_monomial(s, m) == (1 + 2j) * np.conj(3 - 1j)
    # a stack gives one value per matrix, the same as one matrix at a time
    stack = np.stack([m, m.T, 2 * m])
    assert list(evaluate_monomial(s, stack)) == [evaluate_monomial(s, u) for u in stack]


@pytest.mark.parametrize("group,n", [("U", 2), ("SO", 3), ("Sp", 2)])
def test_monte_carlo_is_the_blockwise_reference(group, n):
    # integrate_monomial_mc averages, in sample order, the monomial on each
    # matrix of block b's stack from RngStream(seed, b)
    s = spec(group, (1, 2), (2, 1, True), (2, 2))
    est = moments.integrate_monomial_mc(s, n, samples=sampling.BLOCK + 3, seed=8)
    vals = [evaluate_monomial(s, u)
            for b, size in ((0, sampling.BLOCK), (1, 3))
            for u in sampling.sample_group(group, n, sampling.BlockStack(8, b, size))]
    assert est.n == len(vals)
    assert abs(est.mean - np.mean(vals)) < 1e-12


def test_monte_carlo_memory_grows_only_with_the_values():
    # from 600 to 10 000 samples of U(8) |u11|^2 the traced peak grows by
    # the complex value array and its variance temporaries (vals - mean,
    # its modulus and square: 16 + 16 + 8 + 8 bytes a sample), never by
    # the stack of draws, which STACK_NUMBERS bounds
    s = spec("U", (1, 1), (1, 1, True))

    def peak(samples):
        tracemalloc.start()
        try:
            moments.integrate_monomial_mc(s, 8, samples, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # first-call imports and caches
    assert peak(10_000) - peak(600) <= 48 * (10_000 - 600)
