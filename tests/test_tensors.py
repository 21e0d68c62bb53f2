import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from haarint import perms, tableaux, tensors
from haarint.tableaux import Tableau
from haarint.tensors import (
    CostGateError, SparseTensor, contract, expand,
    gram_schmidt, orthogonal_form, permute, symplectic_form, traceless_project,
)

from helpers import (
    StandardForm, TensorOperator, algebra_product, central_symmetrizer,
    gl_module_dimension_oracle, gram_schmidt_ungraded, inverse, isotypic_projector,
    module_dimension_oracle, normalization_squared, symmetrize_by_definition,
    symmetrized, tensor_product, trace_span_basis_ungraded, trace_span_by_weights,
    traceless_project_ungraded, unit_tensor, young_constant_mu,
)


def e(*idx):
    return SparseTensor.elementary(idx)


def test_sparse_arithmetic():
    t = e(1, 2) + e(2, 1)
    assert t.inner(e(1, 2)) == 1
    assert t.norm_squared() == 2
    assert (t - t).is_zero()
    assert (Fraction(1, 2) * t).inner(t) == 1
    assert tensor_product(t, e(3)) == e(1, 2, 3) + e(2, 1, 3)
    # equality is by value: int and equal Fraction coefficients agree, and
    # a differing support does not
    assert Fraction(2) * t == 2 * t
    assert t != e(1, 2) and t + e(1, 1) != t


def test_apply_permutation_moves_slots():
    # p sends slot 0 to slot 1: a cyclic shift of (1,2,3)
    t = permute({(1, 2, 0): 1}, e(1, 2, 3))
    assert t == e(3, 1, 2)
    with pytest.raises(ValueError, match="length"):
        permute({(1, 0): 1}, e(1, 2, 3))


def test_group_algebra_composition():
    a = {(1, 2, 0): 1}
    c = algebra_product(a, a)
    assert c == {(2, 0, 1): 1}
    t = e(1, 2, 3)
    assert permute(c, t) == permute(a, permute(a, t))


_PERMUTATION_PAIRS = st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.permutations(range(k)), st.permutations(range(k)),
    st.dictionaries(st.lists(st.integers(-2, 2), min_size=k, max_size=k).map(tuple),
                    st.integers(-3, 3), max_size=4)))


@given(_PERMUTATION_PAIRS)
@settings(max_examples=100, deadline=None)
def test_permute_composes(case):
    # P_p P_q = P_(p q) with (p q)(i) = p(q(i)), the composition of perms
    p, q, data = case
    p, q, t = tuple(p), tuple(q), SparseTensor(len(p), data)
    assert permute({p: 1}, permute({q: 1}, t)) == permute({perms.compose(p, q): 1}, t)


_SHAPES_TO_FIVE = [
    (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2),
    (2, 1, 1), (1, 1, 1, 1), (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
    (2, 1, 1, 1), (1, 1, 1, 1, 1)]


@given(st.sampled_from(_SHAPES_TO_FIVE).flatmap(lambda shape: st.tuples(
    st.just(shape), st.lists(st.integers(-2, 2), min_size=sum(shape),
                             max_size=sum(shape)))))
@settings(max_examples=100, deadline=None)
def test_symmetrizer_kernel_is_the_definition(case):
    # letters drawn from five values repeat, so terms merge and cancel
    shape, idx = case
    got = permute(tensors.young_symmetrizer(shape), e(*idx))
    assert list(got.data.items()) == list(symmetrize_by_definition(shape, idx).data.items())


@pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (2, 1), (3,),
                                   (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)])
def test_symmetrizer_is_quasi_idempotent(shape):
    c = tensors.young_symmetrizer(shape)
    mu = young_constant_mu(shape)
    assert algebra_product(c, c) == {p: mu * w for p, w in c.items()}


def test_symmetrizer_values():
    c = tensors.young_symmetrizer((1, 1))
    assert c == {(0, 1): 1, (1, 0): -1}
    c = tensors.young_symmetrizer((2,))
    assert c == {(0, 1): 1, (1, 0): 1}
    # column permutation outer, row permutation inner
    assert list(tensors.young_symmetrizer((2, 1)).items()) == [
        ((0, 1, 2), 1), ((1, 0, 2), 1), ((2, 1, 0), -1), ((1, 2, 0), -1)]


def test_symmetrizer_is_shared_read_only():
    # one build per shape, whatever form the shape is given in; the shared
    # map refuses writes, so no caller can change another's symmetrizer
    c = tensors.young_symmetrizer((2, 1))
    assert tensors.young_symmetrizer([2, 1]) is c
    with pytest.raises(TypeError):
        c[(0, 1, 2)] = 5
    assert c[(0, 1, 2)] == 1


def test_normalization_squared_known():
    assert normalization_squared((2,), Tableau([[1, 2]])) == 2
    assert normalization_squared((2,), Tableau([[1, 1]])) == 4
    assert normalization_squared((1, 1), Tableau([[1], [2]])) == 2
    assert normalization_squared((2, 1), Tableau([[1, 1], [2]])) == 8


def test_norm_against_young_constant_boundary():
    # mu*<cT, eT> equals the squared norm exactly when the symmetrizer is
    # self-adjoint, i.e. for one-row and one-column shapes; the smallest
    # mixed shape already separates the two quantities (4 vs 3).
    for shape, t in [((2,), Tableau([[1, 2]])), ((2,), Tableau([[1, 1]])),
                     ((3,), Tableau([[1, 2, 3]])), ((1, 1), Tableau([[1], [2]])),
                     ((1, 1, 1), Tableau([[1], [2], [3]]))]:
        v = symmetrized(shape, t)
        mu = young_constant_mu(shape)
        assert v.inner(v) == mu * v.inner(e(*t.row_major()))
    t = Tableau([[1, 2], [3]])
    v = symmetrized((2, 1), t)
    assert v.inner(v) == 4
    assert young_constant_mu((2, 1)) * v.inner(e(*t.row_major())) == 3


@pytest.mark.parametrize("shape,t", [
    ((2,), Tableau([[1, 2]])),
    ((2, 1), Tableau([[1, 2], [2]])),
    ((2, 1), Tableau([[1, 1], [2]])),
    ((2, 2), Tableau([[1, 1], [2, 2]])),
])
def test_symmetrizer_adjoint(shape, t):
    # the adjoint of sum sgn(q) q.p is sum sgn(q) p^-1.q^-1
    c = tensors.young_symmetrizer(shape)
    c_adj = {inverse(p): w for p, w in c.items()}
    v = e(*t.row_major())
    u = permute({tuple(range(1, v.order)) + (0,): 1}, v)
    assert permute(c, v).inner(u) == v.inner(permute(c_adj, u))


def test_pairing_tables():
    f = orthogonal_form(4)
    assert f.letters == (-1, 1, -2, 2)
    assert f.pairing(1, -1) == 1
    assert f.pairing(-1, 1) == 1
    assert f.pairing(1, 1) == 0
    h = symplectic_form(2)
    assert h.pairing(-1, 1) == 1
    assert h.pairing(1, -1) == -1
    assert h.pairing(1, 2) == 0
    assert [s for _, _, s in h.dual_pairs()] == [1, -1, 1, -1]


def test_contract_known_values():
    h = symplectic_form(1)
    t = e(-1, 1) - e(1, -1)
    assert contract(t, 0, 1, h) == 2 * unit_tensor()
    f = orthogonal_form(2)
    assert contract(e(-1, 1), 0, 1, f) == unit_tensor()
    assert contract(e(1, 1), 0, 1, f).is_zero()


def test_expand_known_values():
    f = orthogonal_form(2)
    t = expand(unit_tensor(), 0, 1, f)
    assert t == e(-1, 1) + e(1, -1)


@pytest.mark.parametrize("form", [orthogonal_form(2), orthogonal_form(3), StandardForm(2),
                                  symplectic_form(1), symplectic_form(2)])
def test_contract_expand_traces_dimension(form):
    base = e(*([form.letters[0]] * 2))
    t = expand(base, 1, 3, form)
    assert contract(t, 1, 3, form) == form.dim * base


def test_traceless_split_example():
    f = orthogonal_form(2)
    t = e(1, -1)
    t0, t1 = traceless_project(t, f)
    half = Fraction(1, 2)
    assert t1 == half * (e(1, -1) + e(-1, 1))
    assert contract(t0, 0, 1, f).is_zero()
    assert t0.inner(t1) == 0
    again0, again1 = traceless_project(t0, f)
    assert again1.is_zero() and again0 == t0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([("orthogonal", 2), ("orthogonal", 3), ("symplectic", 1)]),
       st.integers(min_value=2, max_value=3),
       st.data())
def test_traceless_split_properties(spec, order, data):
    kind, n = spec
    form = orthogonal_form(n) if kind == "orthogonal" else symplectic_form(n)
    idx = tuple(data.draw(st.sampled_from(form.letters)) for _ in range(order))
    t0, t1 = traceless_project(SparseTensor.elementary(idx), form)
    assert t0 + t1 == SparseTensor.elementary(idx)
    for i in range(order):
        for j in range(i + 1, order):
            assert contract(t0, i, j, form).is_zero()
    assert t0.inner(t1) == 0


def test_weight_is_net_count_with_zeros_dropped():
    assert tensors._weight((1, -1, 0, 2, 2, -3)) == ((2, 2), (3, -1))
    assert tensors._weight((1, -1)) == tensors._weight(()) == ()
    assert tensors._weight((3, 1, 3)) == ((1, 1), (3, 2))  # the U content


def test_gram_schmidt_drops_and_grades():
    # U content grading: (1,2) and (2,1) share a weight, (1,1)
    # has its own; zero and dependent candidates are dropped
    candidates = [("a", e(1, 2) + e(2, 1)), ("zero", SparseTensor(2)),
                  ("b", 2 * e(1, 2)), ("c", 3 * e(1, 1)),
                  ("dep", 2 * e(1, 2) - 12 * e(2, 1)), ("d", e(2, 1))]
    kept = gram_schmidt(candidates)
    assert len(kept) == len(candidates) - 3
    assert [label for label, *_ in kept] == ["a", "b", "c"]
    assert [w for _, w, _, _ in kept] == [((1, 1), (2, 1))] * 2 + [((1, 2),)]
    for i, (_, _, u, n2) in enumerate(kept):
        assert n2 == u.norm_squared() > 0
        coeffs = [Fraction(c) for c in u.data.values()]
        # primitive: coprime integer coefficients
        assert all(c.denominator == 1 for c in coeffs)
        assert math.gcd(*(c.numerator for c in coeffs)) == 1
        for _, _, v, _ in kept[i + 1:]:
            assert u.inner(v) == 0
    assert kept[1][2] == e(1, 2) - e(2, 1)
    assert kept[2][2] == e(1, 1)


@st.composite
def gram_schmidt_candidates(draw, one_weight):
    """(label, tensor) candidates on the U alphabet 1..3, each of one
    content, with int and Fraction coefficients, zero candidates and
    combinations of earlier candidates of the same content."""
    order = draw(st.integers(1, 3))
    tuples = list(itertools.product((1, 2, 3), repeat=order))
    classes = {}
    for idx in tuples:
        classes.setdefault(tensors._weight(idx), []).append(idx)
    contents = sorted(classes)
    coeff = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    fixed = draw(st.sampled_from(contents))
    out, by_content = [], {}
    for k in range(draw(st.integers(1, 10))):
        content = fixed if one_weight else draw(st.sampled_from(contents))
        earlier = by_content.get(content, [])
        kind = draw(st.sampled_from(["new", "new", "zero", "combination"]))
        t = SparseTensor(order)
        if kind == "zero":
            pass
        elif kind == "combination" and earlier:
            for u in draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=3)):
                t = t + draw(coeff) * u
        else:
            for idx in draw(st.lists(st.sampled_from(classes[content]), min_size=1,
                                     max_size=4)):
                t.add_term(idx, draw(coeff))
        if not t.is_zero():
            by_content.setdefault(content, []).append(t)
        out.append((k, t))
    return out


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(gram_schmidt_candidates))
def test_fraction_free_gram_schmidt_is_the_rational_one(candidates):
    # the fraction-free loop keeps, drops, weighs and scales as the ungraded
    # rational one: same labels, weights, values and dict item order, and
    # it leaves its candidates as they were.  It takes int candidates, each
    # here a rational one times the lcm of its denominators, a positive
    # scale that changes no primitive form
    def integral(t):
        d = math.lcm(*(Fraction(c).denominator for c in t.data.values()))
        return SparseTensor(t.order, {idx: int(d * c) for idx, c in t.data.items()})

    scaled = [(label, integral(t)) for label, t in candidates]
    before = [list(t.data.items()) for _, t in scaled]
    kept = gram_schmidt(scaled)
    vectors, norms2, labels, dropped_ref = gram_schmidt_ungraded(candidates)
    assert [list(t.data.items()) for _, t in scaled] == before
    assert [label for label, *_ in kept] == labels
    assert len(kept) == len(candidates) - dropped_ref
    for (_, w, v, n2), ref, ref_n2 in zip(kept, vectors, norms2):
        assert list(v.data.items()) == list(ref.data.items())
        assert n2 == ref_n2
        assert all(tensors._weight(idx) == w for idx in ref.data)
        assert all(type(c) is int for c in [*v.data.values(), n2])


@pytest.mark.parametrize("order,key", [
    (2, ("orthogonal", 3)), (3, ("orthogonal", 2)),
    (3, ("orthogonal", 3)), (3, ("symplectic", 2)),
    (4, ("symplectic", 1)),
])
def test_trace_span_basis_spans_the_ungraded_one(order, key):
    form = tensors.BilinearForm(*key)
    graded = trace_span_by_weights(order, form)
    assert len(graded) == len(trace_span_basis_ungraded(order, form))
    for i, (_, w, u, _) in enumerate(graded):
        assert all(tensors._weight(idx) == w for idx in u.data)
        assert all(u.inner(v) == 0 for _, _, v, _ in graded[i + 1:])


# O(1..5), odd N with the letter 0; Sp(1..3)
GRADED_FORMS = ([orthogonal_form(n) for n in range(1, 6)]
                + [symplectic_form(n) for n in range(1, 4)])


def _cancelling_index(data, form, order):
    """An index tuple holding a letter beside its partner, so that letter
    pair counts to net zero."""
    rest = [data.draw(st.sampled_from(form.letters)) for _ in range(order - 2)]
    x = data.draw(st.sampled_from(form.letters))
    i, j = sorted(data.draw(st.lists(st.integers(0, order - 1), min_size=2,
                                     max_size=2, unique=True)))
    rest.insert(i, x)
    rest.insert(j, form.bar(x))
    return tuple(rest)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GRADED_FORMS), st.integers(min_value=2, max_value=4),
       st.data())
def test_traceless_project_matches_ungraded(form, order, data):
    # a tensor of mixed weight gets, byte for byte, the parts the ungraded
    # projection onto the whole trace span gives
    if form.dim ** order > 300:  # keeps the ungraded reference span short
        order = 3
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    plain = st.tuples(*[st.sampled_from(form.letters)] * order)
    t = SparseTensor(order)
    for _ in range(data.draw(st.integers(1, 5))):
        t.add_term(data.draw(plain), data.draw(coeff))
    for _ in range(data.draw(st.integers(0, 2))):
        t.add_term(_cancelling_index(data, form, order), data.draw(coeff))
    got = traceless_project(t, form)
    want = traceless_project_ungraded(t, form)
    for part, ref in zip(got, want):
        assert repr(list(part.data.items())) == repr(list(ref.data.items()))


def test_central_symmetrizer_values():
    z = central_symmetrizer((2,))
    assert z == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
    z = central_symmetrizer((1, 1))
    assert z == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
    z = central_symmetrizer((2, 1))
    assert z == {(0, 1, 2): Fraction(2, 3),
                 (1, 2, 0): Fraction(-1, 3),
                 (2, 0, 1): Fraction(-1, 3)}


@pytest.mark.parametrize("shape", [(2,), (1, 1), (2, 1), (3,), (1, 1, 1)])
def test_central_symmetrizer_idempotent(shape):
    z = central_symmetrizer(shape)
    assert algebra_product(z, z) == z


def test_central_symmetrizers_orthogonal_and_complete():
    shapes = [(3,), (2, 1), (1, 1, 1)]
    zs = [central_symmetrizer(s) for s in shapes]
    for i in range(3):
        for j in range(i + 1, 3):
            assert algebra_product(zs[i], zs[j]) == {}
    total = {}
    for z in zs:
        for p, w in z.items():
            total[p] = total.get(p, 0) + w
    assert {p: w for p, w in total.items() if w} == {(0, 1, 2): 1}


@pytest.mark.parametrize("form", [orthogonal_form(2), orthogonal_form(3),
                                  symplectic_form(1), symplectic_form(2)])
def test_projector_order_one_is_identity(form):
    p = isotypic_projector((1,), 1, form)
    ident = TensorOperator(
        form, 1, [[Fraction(int(i == j)) for j in range(form.dim)]
                  for i in range(form.dim)])
    assert p.sub(ident).is_zero()


def _check_blocks(form, k, expected_ranks):
    ops = {lam: isotypic_projector(lam, k, form) for lam in expected_ranks}
    for lam, op in ops.items():
        assert op.matmul(op).sub(op).is_zero(), lam
        assert op.rank() == expected_ranks[lam], lam
    items = list(ops.items())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            assert items[i][1].matmul(items[j][1]).is_zero()


def test_projector_blocks_orthogonal_three():
    _check_blocks(orthogonal_form(3), 2, {(2,): 5, (1, 1): 3})


def test_projector_blocks_symplectic_four():
    _check_blocks(symplectic_form(2), 2, {(2,): 10, (1, 1): 5})


def test_projector_blocks_symplectic_two():
    form = symplectic_form(1)
    p = isotypic_projector((2,), 2, form)
    assert p.matmul(p).sub(p).is_zero()
    assert p.rank() == 3
    q = isotypic_projector((1, 1), 2, form)
    assert q.is_zero()


def test_projector_blocks_order_three():
    form = orthogonal_form(3)
    expected = {}
    for lam in [(3,), (2, 1), (1, 1, 1)]:
        expected[lam] = (module_dimension_oracle(lam, form)
                         * tableaux.count_standard_tableaux(lam))
    assert expected == {(3,): 7, (2, 1): 10, (1, 1, 1): 1}
    _check_blocks(form, 3, expected)


def test_projector_rank_matches_module_oracle_order_two():
    for form in (orthogonal_form(2), orthogonal_form(3), symplectic_form(2)):
        for lam in [(2,), (1, 1)]:
            expect = (module_dimension_oracle(lam, form)
                      * tableaux.count_standard_tableaux(lam))
            assert isotypic_projector(lam, 2, form).rank() == expect


def test_projector_cost_gate():
    with pytest.raises(CostGateError):
        isotypic_projector((2, 2), 4, orthogonal_form(3))


def test_tableau_counts_match_module_dimensions():
    # enumerations agree with explicitly constructed module dimensions
    assert len(tableaux.enumerate_o_tableaux((2,), 3)) == \
        module_dimension_oracle((2,), orthogonal_form(3))
    assert len(tableaux.enumerate_sp_tableaux((2,), 2)) == \
        module_dimension_oracle((2,), symplectic_form(2))
    assert len(tableaux.enumerate_sp_tableaux((1, 1), 2)) == \
        module_dimension_oracle((1, 1), symplectic_form(2))
    assert tableaux.gl_dimension((2, 1), 3) == \
        gl_module_dimension_oracle((2, 1), 3)
