"""Irreducible-representation matrix elements: orthonormal module bases,
representation matrices, and exact / leading-order / Monte Carlo integrals.

Frozen expected values come from Schur orthogonality (an integral of
rho_ij conj(rho_kl) over one irreducible block equals delta delta / dim,
with the dimension checked against the product formulas in helpers) and
from the vector representation, where the matrix elements are plain
matrix entries and the monomial engine is an independent route.
"""

import dataclasses
import functools
import itertools
import math
import operator
import os
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarint import irreps, moments, sampling, tableaux, tensors
from haarint.irreps import (
    RepFactor,
    RepMatrixElementSpec,
    asymptotic_irrep,
    build_irrep_basis,
    integrate_irrep_exact,
    integrate_irrep_mc,
    rho_matrix,
    _split_transition,
)
from haarint.tensors import CostGateError, SparseTensor, orthogonal_form, symplectic_form

from helpers import (
    build_irrep_basis_ungraded,
    engine_for,
    gl_module_dimension_oracle,
    gram_from_loops,
    module_dimension_oracle,
    pad_columns,
    reduce_brackets,
    rho_matrix_loop,
    total_weight,
    weingarten_data,
)

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "bench"))
import workloads  # noqa: E402  (the benchmark's request lists)


def schur_spec(group, n, lam, i=1, j=1, k=None, l=None):
    """rho^lam_ij conj(rho^lam_kl); (k, l) default to (i, j)."""
    k = i if k is None else k
    l = j if l is None else l
    return RepMatrixElementSpec(group, n, (
        RepFactor(lam, i, j, False), RepFactor(lam, k, l, True)))


def rep_spec(group, n, *factors):
    return RepMatrixElementSpec(group, n, [RepFactor(*f) for f in factors])


# ---------------------------------------------------------------------------
# spec objects

def test_spec_validation():
    with pytest.raises(ValueError):
        RepMatrixElementSpec("SU", 2, (RepFactor((1,), 1, 1, False),))
    with pytest.raises(ValueError):
        RepFactor((1, 2), 1, 1, False)  # not weakly decreasing
    s = rep_spec("U", 2, ((2,), 1, 1, False), ((1,), 2, 1, True))
    assert total_weight(s) == 3


def test_rep_factor_refuses_non_integer_entries():
    # a float entry once reached the basis lookup (TypeError) or a numpy
    # index (IndexError); numpy integers are integers and pass as ints
    with pytest.raises(ValueError, match="row must be an integer"):
        RepFactor((2,), 1.0, 1)
    with pytest.raises(ValueError, match="col must be an integer"):
        RepFactor((2,), 1, True)
    f = RepFactor((2,), np.int64(2), np.int32(1))
    assert (f.row, f.col) == (2, 1) and type(f.row) is type(f.col) is int
    spec = RepMatrixElementSpec("U", 3, [f, RepFactor((2,), 2, 1, True)])
    assert integrate_irrep_exact(spec) == integrate_irrep_exact(
        rep_spec("U", 3, ((2,), 2, 1, False), ((2,), 2, 1, True)))


def test_rep_spec_refuses_a_non_integer_dimension():
    # N = 3.7 once ran silently at N = 3
    with pytest.raises(ValueError, match="N must be an integer"):
        RepMatrixElementSpec("U", 3.7, [((1,), 1, 1, False)])
    with pytest.raises(ValueError, match="N must be an integer"):
        RepMatrixElementSpec("U", "3", [((1,), 1, 1, False)])
    spec = RepMatrixElementSpec("U", np.int64(3), [((1,), 1, 1, False)])
    assert spec.n == 3 and type(spec.n) is int


def test_spec_json_roundtrip():
    s = rep_spec("Sp", 2, ((2, 1), 1, 3, False), ((1,), 2, 2, True))
    d = s.to_dict()
    assert d["N"] == 2 and d["factors"][0]["lambda"] == [2, 1]
    assert RepMatrixElementSpec.from_dict(d) == s


# ---------------------------------------------------------------------------
# module bases: ranks match the tableau count and the dimension oracles

RANK_TABLE = [
    ("U", (1,), 2, 2),
    ("U", (2,), 2, 3),
    ("U", (1, 1), 2, 1),
    ("U", (2,), 3, 6),
    ("U", (2, 1), 3, 8),
    ("O", (1,), 3, 3),
    ("O", (2,), 3, 5),
    ("O", (1, 1), 3, 3),
    ("Sp", (1,), 1, 2),
    ("Sp", (2,), 1, 3),
    ("Sp", (1,), 2, 4),
    ("Sp", (1, 1), 2, 5),
    ("Sp", (2,), 2, 10),
]


@pytest.mark.parametrize("group,lam,n,rank", RANK_TABLE)
def test_basis_rank_frozen(group, lam, n, rank):
    basis = build_irrep_basis(group, lam, n)
    assert basis.rank == rank
    assert build_irrep_basis_ungraded(group, lam, n).dropped == 0
    assert len(basis.tableaux) == rank
    if group == "U":
        assert rank == gl_module_dimension_oracle(lam, n)
    else:
        form = symplectic_form(n) if group == "Sp" else orthogonal_form(n)
        assert rank == module_dimension_oracle(lam, form)


@pytest.mark.parametrize("group,lam,n,rank", RANK_TABLE)
def test_basis_vectors_orthogonal(group, lam, n, rank):
    basis = build_irrep_basis(group, lam, n)
    for i in range(rank):
        assert basis.vectors[i].norm_squared() == basis.norms2[i] > 0
        for j in range(i + 1, rank):
            assert basis.vectors[i].inner(basis.vectors[j]) == 0


# every module the benchmark workloads build, and a weight-4/5 grid whose
# ungraded builds stay short
BENCH_MODULES = sorted(
    {(g, tuple(lam), n) for g, lam, n, _ in workloads.COLD_IRREPS}
    | {(g, tuple(lam), n) for g, lam, n in workloads.WARM_IRREPS + workloads.MC_IRREPS})
WEIGHT_45_GRID = [
    ("U", (2, 2), 3), ("U", (3, 1), 3), ("U", (2, 1, 1), 3), ("U", (5,), 2),
    ("U", (3, 2), 3), ("U", (4, 1), 3), ("U", (2, 2, 1), 3),
    ("O", (4,), 2), ("O", (5,), 2), ("O", (4,), 3), ("O", (3, 1), 3),
    ("O", (2, 2), 4), ("O", (3, 1), 4), ("O", (4,), 4), ("O", (2, 1, 1), 4),
    ("Sp", (4,), 1), ("Sp", (5,), 1), ("Sp", (2, 2), 2), ("Sp", (3, 1), 2),
    ("Sp", (4,), 2),
]


def _fields(basis):
    return (repr([list(v.data.items()) for v in basis.vectors]),
            repr(list(basis.norms2)), [t.rows for t in basis.tableaux])


@pytest.mark.parametrize("group,lam,n", BENCH_MODULES + WEIGHT_45_GRID)
def test_graded_basis_is_the_ungraded_one(group, lam, n):
    # the weight-graded Gram–Schmidt gives, byte for byte, the basis of the
    # ungraded rational loops, whose entries and norms are integers: vectors
    # in dict item order, norms, fillings; the loops drop no filling
    ref = build_irrep_basis_ungraded(group, lam, n)
    assert ref.dropped == 0
    assert all(c.denominator == 1 for v in ref.vectors for c in v.data.values())
    assert all(n2.denominator == 1 for n2 in ref.norms2)
    ref.vectors = [SparseTensor(v.order, {idx: int(c) for idx, c in v.data.items()})
                   for v in ref.vectors]
    ref.norms2 = [int(n2) for n2 in ref.norms2]
    assert _fields(build_irrep_basis(group, lam, n)) == _fields(ref)


def _partitions(m, largest=None):
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _admissible(group, lam, n):
    if group == "U":
        return len(lam) <= n
    try:
        tableaux.check_group_shape(group, lam, n)
    except ValueError:
        return False
    return True


# every U/O/Sp module with N <= 5 and weight <= 5 that the build gate admits
DIMENSION_GRID = [(g, lam, n) for g in ("U", "O", "Sp") for n in range(1, 6)
                  for m in range(1, 6) for lam in _partitions(m)
                  if _admissible(g, lam, n) and irreps._build_work(g, lam, n) <= irreps.BUILD_CAP]
DIMENSIONS = {"U": tableaux.gl_dimension, "O": tableaux.o_dimension,
              "Sp": tableaux.sp_dimension}
ENUMERATORS = {"U": tableaux.enumerate_gl_tableaux, "O": tableaux.enumerate_o_tableaux,
               "Sp": tableaux.enumerate_sp_tableaux}


@pytest.mark.parametrize("group,lam,n", DIMENSION_GRID)
def test_dimension_is_the_filling_count_and_the_rank(group, lam, n):
    # the Weyl dimension, the admissible-filling count the module
    # asserts, and the rank of the Gram–Schmidt agree: the weight spaces
    # keep every filling
    basis = build_irrep_basis(group, lam, n)
    assert DIMENSIONS[group](lam, n) == len(ENUMERATORS[group](lam, n)) == basis.rank
    assert basis.rank == len(basis.vectors) == sum(
        len(irreps._weight_space(group, lam, n, w)) for w in basis.by_weight)


@pytest.mark.parametrize("group,lam,n", BENCH_MODULES + WEIGHT_45_GRID)
def test_weight_spaces_merge_to_the_full_basis(group, lam, n):
    # every entry read through its weight space is the full basis's entry
    # at the same position, dict item order included; the fillings are the
    # enumerator's tableaux, in order
    basis = build_irrep_basis(group, lam, n)
    assert basis.words == tuple(tuple(t.row_major()) for t in ENUMERATORS[group](lam, n))
    for p, (vector, n2) in enumerate(zip(basis.vectors, basis.norms2), start=1):
        got, got_n2 = basis._entry(p)
        assert list(got.data.items()) == list(vector.data.items()) and got_n2 == n2
    merged = sorted((basis.words.index(word), v) for w in basis.by_weight
                    for word, _, v, _ in irreps._weight_space(group, lam, n, w))
    assert tuple(v for _, v in merged) == basis.vectors


def _full_basis_value(spec, bases, exact):
    # the integral read from full bases, as every request did before
    norms = math.prod(b.norms2[f.row - 1] * b.norms2[f.col - 1]
                      for f, b in zip(spec.factors, bases))
    brackets = [(f.conj, b.vectors[f.row - 1].data.items(), b.vectors[f.col - 1].data.items())
                for f, b in zip(spec.factors, bases)]
    return irreps._finish(moments._bracket_integral(
        spec.group, spec.n, spec.group != "U", brackets, exact), norms)


@pytest.mark.parametrize("group,lam,n", [("Sp", (2, 1), 4), ("U", (2, 1), 7)])
def test_exact_and_leading_build_only_the_weight_spaces_read(group, lam, n, monkeypatch):
    # a Schur request reads four entries: it builds their weight spaces, a
    # few of the module's many, and never the full basis, and gives the
    # full-basis route's Fraction
    basis = build_irrep_basis(group, lam, n)
    assert len(basis.by_weight) > 20

    def refuse(*args):
        raise AssertionError("full basis read for an exact or leading request")

    rank = basis.rank
    entries = [(1, 1), (1, rank), (rank, 1), (rank, rank)] + [
        (1 + (7 * k) % rank, 1 + (11 * k + 3) % rank) for k in range(12)]
    for route, exact in ((integrate_irrep_exact, True), (asymptotic_irrep, False)):
        for (i, j), (k, l) in zip(entries, entries[:1] + entries[:-1]):
            spec = schur_spec(group, n, lam, i, j, k, l)
            irreps._weight_space.cache_clear()
            with monkeypatch.context() as m:
                for merged in ("vectors", "norms2", "float_vectors"):
                    m.setattr(irreps.IrrepBasis, merged, property(refuse))
                got = route(spec)
            info = irreps._weight_space.cache_info()
            read = {basis.weights[p - 1] for p in (i, j, k, l)}
            assert info.misses == info.currsize == len(read)
            assert got == _full_basis_value(spec, [basis, basis], exact)


INT_GUARD_MODULES = [("U", (2, 1), 3), ("O", (2, 1), 3), ("O", (2,), 2),
                     ("Sp", (2, 1), 2), ("Sp", (3,), 1)]


def _cold_build(group, lam, n, patch):
    """The module basis built past every cache that holds its vectors, and
    every gram_schmidt call the build makes, as (candidates, kept): one per
    weight space, and for O/Sp one more per trace span of that weight."""
    seen = []
    real = tensors.gram_schmidt

    def recording(candidates):
        candidates = list(candidates)
        kept = real(candidates)
        seen.append((candidates, kept))
        return kept

    patch.setattr(irreps, "gram_schmidt", recording)
    patch.setattr(tensors, "gram_schmidt", recording)
    irreps._weight_space.cache_clear()
    tensors._trace_span_basis.cache_clear()
    basis = dataclasses.replace(build_irrep_basis(group, lam, n))  # nothing merged yet
    basis.vectors  # the merge builds every weight space
    spaces = len(basis.by_weight)
    assert len(seen) == (spaces if group == "U" else 2 * spaces)
    return basis, seen


@pytest.mark.parametrize("group,lam,n", INT_GUARD_MODULES)
def test_build_keeps_int_coefficients(group, lam, n, monkeypatch):
    # a cold build does no Fraction arithmetic: every gram_schmidt call, over
    # the trace spans' generators and over the projected fillings, takes and
    # keeps int, and so does IrrepBasis
    basis, seen = _cold_build(group, lam, n, monkeypatch)
    assert all(type(c) is int for candidates, _ in seen
               for _, t in candidates for c in t.data.values())
    assert all(type(c) is int for _, kept in seen
               for _, _, v, n2 in kept for c in [*v.data.values(), n2])
    assert all(type(c) is int for v in basis.vectors for c in v.data.values())
    assert all(type(n2) is int for n2 in basis.norms2)


@pytest.mark.parametrize("group,lam,n", INT_GUARD_MODULES)
def test_build_makes_no_fraction(group, lam, n, monkeypatch):
    # no Fraction is made on the way from the fillings to IrrepBasis
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction made in the basis build")

    want = _fields(build_irrep_basis(group, lam, n))
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", refuse)
        basis, _ = _cold_build(group, lam, n, m)
    assert _fields(basis) == want


def test_a_second_module_leaves_the_first_cached():
    # U(42) lambda=(2,1), just under BUILD_CAP, has 13 202 weights; its
    # build once evicted every other module's weight spaces, and its own
    sp = irreps.RepMatrixElementSpec("Sp", 2, [((2,), 1, 1), ((2,), 1, 1, True)])
    irreps._weight_space.cache_clear()
    value = irreps.integrate_irrep_exact(sp)
    big = build_irrep_basis("U", (2, 1), 42)
    assert len(big.by_weight) == 13202
    dataclasses.replace(big).vectors  # a fresh merge of every weight space
    misses = irreps._weight_space.cache_info().misses
    assert irreps.integrate_irrep_exact(sp) == value
    dataclasses.replace(big).vectors
    assert irreps._weight_space.cache_info().misses == misses


@pytest.mark.parametrize("group,lam,n", INT_GUARD_MODULES)
def test_monte_carlo_and_exact_share_weight_spaces(group, lam, n):
    # a Monte Carlo request builds the full basis as the merge of every
    # weight space, each once, and an exact request on the same module
    # after it builds none
    basis = build_irrep_basis(group, lam, n)
    spec = schur_spec(group, n, lam, 1, basis.rank)
    irreps._module.cache_clear()
    irreps._weight_space.cache_clear()
    integrate_irrep_mc(spec, samples=4, seed=1)
    assert integrate_irrep_exact(spec) == Fraction(1, basis.rank)
    info = irreps._weight_space.cache_info()
    assert info.misses == info.currsize == len(basis.by_weight)


def _edits(basis):
    """Every way to edit what build_irrep_basis hands out: its tuples, a
    vector's data, the sampled rows, the form's letters and attributes."""
    vec = basis.vectors[0]
    key = next(iter(vec.data))
    rows = basis.float_vectors
    edits = [lambda: basis.vectors.append(vec), lambda: basis.norms2.append(1),
             lambda: operator.setitem(basis.vectors, 0, basis.vectors[-1]),
             lambda: operator.setitem(basis.norms2, 0, 3),
             lambda: operator.setitem(vec.data, key, 3 * vec.data[key]),
             lambda: vec.data.clear(),
             lambda: operator.setitem(rows, (0, 0), 3),
             lambda: operator.imul(rows[0], 2),
             lambda: operator.setitem(basis.words, 0, basis.words[-1]),
             lambda: operator.setitem(basis.by_weight, (), ()),
             lambda: setattr(basis, "n", basis.n + 1),
             lambda: setattr(basis, "vectors", basis.vectors[::-1]),
             lambda: setattr(basis, "float_vectors", 2 * rows),
             lambda: delattr(basis, "norms2"),
             lambda: setattr(vec, "data", {key: 1})]
    if basis.form is not None:
        edits += [lambda: operator.setitem(basis.form.letters, 0, basis.form.letters[-1]),
                  lambda: setattr(basis.form, "n", basis.form.n + 1)]
    return edits


@pytest.mark.parametrize("group,lam,n", [("U", (2, 1), 3), ("O", (2, 1), 3)])
def test_a_cached_basis_cannot_be_edited(group, lam, n):
    # build_irrep_basis hands out the one cached module: every edit of it
    # raises, and no later exact or Monte Carlo value moves
    spec = schur_spec(group, n, lam)
    exact, mc = integrate_irrep_exact(spec), integrate_irrep_mc(spec, samples=2000, seed=1)
    for edit in _edits(build_irrep_basis(group, lam, n)):
        with pytest.raises((AttributeError, TypeError, ValueError)):
            edit()
    assert integrate_irrep_exact(spec) == exact
    assert integrate_irrep_mc(spec, samples=2000, seed=1) == mc
    if group == "U":
        assert exact == Fraction(1, 8) and mc.mean.real == pytest.approx(0.12284837885)


@pytest.mark.parametrize("cols", [[0], [-1], [7], [1.0], [6, 0], [True]])
def test_rho_matrix_refuses_columns_outside_the_module(cols):
    # U(3) lambda=(2) has rank 6: 0 and -1 would wrap round to column 6,
    # 7 would be a numpy IndexError, and 1.0 and True are no column numbers
    basis = build_irrep_basis("U", (2,), 3)
    assert rho_matrix(np.eye(3), basis, [1, np.int64(6)]).shape == (6, 2)
    with pytest.raises(ValueError, match=r"columns .* are not all ints in 1\.\.6"):
        rho_matrix(np.eye(3), basis, cols)


FRACTION_ARITHMETIC = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__"]


@pytest.mark.parametrize("group,q,n", [("U", 2, 1), ("U", 4, 3), ("O", 3, 1), ("O", 4, 4),
                                       ("Sp", 2, 1), ("Sp", 3, 2)])
def test_engine_does_no_fraction_arithmetic(group, q, n, monkeypatch):
    # the Gram, the character sums and the G W G = G check run in int,
    # singular Grams included: any Fraction operator raises, and only the
    # final weights are Fraction; Sp(2n) is served by O at -2n
    kind, d = engine_for(group, n)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the engine")

    with monkeypatch.context() as m:
        for name in FRACTION_ARITHMETIC:
            m.setattr(Fraction, name, refuse)
        engine = moments._engine.__wrapped__(kind, q, d)  # past the cache
    assert engine.weights == moments._engine(kind, q, d).weights
    assert all(type(w) is Fraction for w in engine.weights)
    with pytest.raises(AssertionError, match="Fraction arithmetic"):
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__mul__", refuse)
            Fraction(1, 2) * 2


@pytest.mark.parametrize("spec,diagonal", [
    (schur_spec("U", 3, (2, 1), 2, 2), True), (schur_spec("O", 3, (2, 1), 4, 4), True),
    (schur_spec("Sp", 2, (2, 1), 3, 3), True), (schur_spec("Sp", 1, (3,), 2, 2), True),
    (rep_spec("O", 2, ((2,), 2, 2, False), ((1,), 1, 1, False), ((1,), 1, 1, False)), True),
    (schur_spec("U", 3, (2, 1), 2, 5), False), (schur_spec("Sp", 2, (2, 1), 3, 7), False),
])
def test_reduce_reuses_the_row_vector_on_diagonal_factors(spec, diagonal, monkeypatch):
    # a product of diagonal matrix elements builds one match vector, and
    # the same brackets with a zero term padded onto each column tensor
    # give the same two vectors in two passes
    split, brackets, _ = irreps._brackets(spec)
    calls = []
    match_vector = moments._match_vector

    def counting(*args):
        calls.append(args)
        return match_vector(*args)

    monkeypatch.setattr(moments, "_match_vector", counting)
    reduced = reduce_brackets(spec.group, split, brackets)
    assert len(calls) == (1 if diagonal else 2)
    assert reduce_brackets(spec.group, split, pad_columns(brackets)) == reduced
    assert len(calls) == (3 if diagonal else 4)


@pytest.mark.parametrize("spec", [
    schur_spec("U", 3, (2, 1), 2, 5), schur_spec("O", 3, (2, 1), 1, 4),
    rep_spec("O", 2, ((2,), 2, 2, False), ((1,), 1, 1, False), ((1,), 1, 1, False)),
    schur_spec("Sp", 2, (2, 1), 3, 7), schur_spec("Sp", 1, (3,), 2, 3),
])
def test_match_vectors_are_int(spec):
    split, brackets, norms = irreps._brackets(spec)
    assert type(norms) is int
    assert all(type(c) is int for _, rows, cols in brackets for _, c in [*rows, *cols])
    reduced = reduce_brackets(spec.group, split, brackets)
    assert not isinstance(reduced, Fraction)  # the vectors are built
    _, _, r_vec, c_vec = reduced
    assert any(r_vec) and any(c_vec)
    assert all(type(x) is int for x in r_vec + c_vec)


def test_inadmissible_shapes_raise():
    with pytest.raises(ValueError):
        build_irrep_basis("U", (1, 1, 1), 2)
    with pytest.raises(ValueError):
        build_irrep_basis("O", (2, 1), 2)
    with pytest.raises(ValueError):
        build_irrep_basis("Sp", (1, 1), 1)


# ---------------------------------------------------------------------------
# representation matrices

RHO_CASES = [("U", (2, 1), 3), ("O", (2,), 3), ("Sp", (2,), 2)]


@pytest.mark.parametrize("group,lam,n", RHO_CASES)
def test_rho_identity(group, lam, n):
    basis = build_irrep_basis(group, lam, n)
    d = 2 * n if group == "Sp" else n
    rho = rho_matrix(np.eye(d), basis)
    assert np.allclose(rho, np.eye(basis.rank), atol=1e-12)


@pytest.mark.parametrize("group,lam,n", RHO_CASES)
def test_rho_unitary_and_homomorphic(group, lam, n):
    basis = build_irrep_basis(group, lam, n)
    u = sampling.sample_group(group, n, sampling.RngStream(31))
    v = sampling.sample_group(group, n, sampling.RngStream(32))
    ru, rv = rho_matrix(u, basis), rho_matrix(v, basis)
    assert np.allclose(ru @ ru.conj().T, np.eye(basis.rank), atol=1e-10)
    assert np.allclose(rho_matrix(u @ v, basis), ru @ rv, atol=1e-10)


def test_rho_vector_rep_is_the_matrix_itself():
    # GL and Sp use the standard basis in standard order; O uses the
    # split basis, so the matrix appears conjugated by the transition
    u = sampling.sample_group("U", 3, sampling.RngStream(41))
    assert np.allclose(rho_matrix(u, build_irrep_basis("U", (1,), 3)), u)
    w = sampling.sample_group("Sp", 2, sampling.RngStream(42))
    assert np.allclose(rho_matrix(w, build_irrep_basis("Sp", (1,), 2)), w)
    o = sampling.sample_group("O", 3, sampling.RngStream(43))
    s = _split_transition(3)
    assert np.allclose(rho_matrix(o, build_irrep_basis("O", (1,), 3)),
                       s.conj().T @ o @ s)


# ---------------------------------------------------------------------------
# Schur orthogonality, exactly

SCHUR_DIMS = [
    ("U", 2, (1,), 2), ("U", 2, (2,), 3), ("U", 2, (1, 1), 1),
    ("U", 2, (3,), 4), ("U", 2, (2, 1), 2),
    ("U", 3, (1,), 3), ("U", 3, (2,), 6), ("U", 3, (1, 1), 3),
    ("U", 3, (2, 1), 8), ("U", 3, (1, 1, 1), 1),
    ("O", 2, (1,), 2), ("O", 2, (2,), 2), ("O", 2, (3,), 2),
    ("O", 3, (1,), 3), ("O", 3, (2,), 5), ("O", 3, (1, 1), 3),
    ("O", 3, (3,), 7), ("O", 3, (2, 1), 5), ("O", 3, (1, 1, 1), 1),
    ("Sp", 1, (1,), 2), ("Sp", 1, (2,), 3),
    ("Sp", 2, (1,), 4), ("Sp", 2, (2,), 10), ("Sp", 2, (1, 1), 5),
]


@pytest.mark.parametrize("group,n,lam,dim", SCHUR_DIMS)
def test_schur_diagonal(group, n, lam, dim):
    basis = build_irrep_basis(group, lam, n)
    assert basis.rank == dim
    assert integrate_irrep_exact(schur_spec(group, n, lam)) == Fraction(1, dim)
    if dim > 1:
        assert integrate_irrep_exact(
            schur_spec(group, n, lam, i=1, j=dim)) == Fraction(1, dim)


@pytest.mark.parametrize("group,n,lam,dim",
                         [c for c in SCHUR_DIMS if c[3] > 1])
def test_schur_off_diagonal_zero(group, n, lam, dim):
    # mismatched entry pairs integrate to zero within one block
    assert integrate_irrep_exact(
        schur_spec(group, n, lam, i=1, j=1, k=2, l=2)) == 0
    assert integrate_irrep_exact(
        schur_spec(group, n, lam, i=1, j=2, k=2, l=1)) == 0


CROSS_CASES = [
    ("U", 2, (2,), (1, 1)),
    ("U", 3, (2,), (1, 1)),
    ("U", 3, (3,), (2, 1)),
    ("U", 3, (2, 1), (1, 1, 1)),
    ("O", 3, (2,), (1, 1)),
    ("O", 3, (3,), (2, 1)),
    ("O", 3, (3,), (1, 1, 1)),
    ("Sp", 2, (2,), (1, 1)),
]


@pytest.mark.parametrize("group,n,lam,mu", CROSS_CASES)
def test_schur_cross_block_zero(group, n, lam, mu):
    s = RepMatrixElementSpec(group, n, (
        RepFactor(lam, 1, 1, False), RepFactor(mu, 1, 1, True)))
    assert integrate_irrep_exact(s) == 0


def test_unbalanced_conjugation_zero():
    # one factor conjugated, one not: a global phase kills the average
    s = rep_spec("U", 2, ((2,), 1, 1, False), ((2,), 1, 1, False))
    assert integrate_irrep_exact(s) == 0


# ---------------------------------------------------------------------------
# the vector representation reproduces the monomial engine bit for bit

VECTOR_MONOMIALS = [
    [(1, 1, False), (1, 1, True)],
    [(1, 2, False), (1, 2, True)],
    [(1, 1, False), (2, 2, False), (1, 1, True), (2, 2, True)],
    [(1, 1, False), (2, 2, False), (1, 2, True), (2, 1, True)],
    [(1, 1, False), (1, 1, False), (1, 1, True), (1, 1, True)],
]


@pytest.mark.parametrize("group,n", [("U", 2), ("U", 3), ("Sp", 1), ("Sp", 2)])
@pytest.mark.parametrize("factors", VECTOR_MONOMIALS)
def test_vector_rep_matches_monomial_engine(group, n, factors):
    rs = RepMatrixElementSpec(group, n, [
        RepFactor((1,), i, j, c) for i, j, c in factors])
    ms = moments.MonomialSpec(group, [moments.Factor(i, j, c)
                                      for i, j, c in factors])
    assert integrate_irrep_exact(rs) == moments.exact_integral(ms, n)
    assert asymptotic_irrep(rs) == moments.asymptotic_leading(ms, n)


def test_vector_rep_orthogonal_split_second_moment():
    # the split-basis entries are not standard entries, but every
    # |rho_xy|^2 still averages to 1/n by two-sided invariance
    for x, y in itertools.product(range(1, 4), repeat=2):
        assert integrate_irrep_exact(
            schur_spec("O", 3, (1,), i=x, j=y)) == Fraction(1, 3)


@functools.lru_cache(maxsize=32)
def _dense_weights(group, q, n):
    return weingarten_data(gram_from_loops(group, q, n)).weights


def _dense_value(spec):
    """The same match vectors contracted with the dense Weingarten matrix
    of the materialized Gram."""
    split, brackets, norms = irreps._brackets(spec)
    reduced = reduce_brackets(spec.group, split, brackets)
    if isinstance(reduced, Fraction):
        return irreps._finish(reduced, norms)
    _, q, r_vec, c_vec = reduced
    w = _dense_weights(spec.group, q, spec.n)
    core = sum((ra * w[a][b] * cb for a, ra in enumerate(r_vec)
                for b, cb in enumerate(c_vec) if ra and cb), Fraction(0))
    return irreps._finish(core, norms)


DENSE_GRID = [("U", n, lam) for n in (2, 3) for lam in [(1,), (2,), (1, 1), (2, 1), (3,)]] \
    + [("O", n, lam) for n in (2, 3) for lam in [(1,), (2,), (1, 1)]] \
    + [("O", 3, (2, 1)), ("Sp", 1, (1,)), ("Sp", 1, (2,)), ("Sp", 1, (3,))] \
    + [("Sp", 2, lam) for lam in [(1,), (2,), (1, 1)]]


MIXED_SHAPES = {"U": [((1,), (1,), (2,)), ((1,), (1,), (1, 1)), ((2,), (1,), (2, 1))],
                "O": [((1,), (1,), (2,)), ((1,), (1,), (1, 1))],
                "Sp": [((1,), (1,), (2,))]}


def _outcome(route, spec):
    # a norm product that is not a perfect square ends both routes in the
    # same ValueError
    try:
        return route(spec)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("group,n,lam", DENSE_GRID)
def test_exact_matches_dense_route(group, n, lam):
    rank = build_irrep_basis(group, lam, n).rank
    entries = range(1, min(rank, 3) + 1)
    nonzero = 0
    for i, j, k, l in itertools.product(entries, repeat=4):
        s = schur_spec(group, n, lam, i, j, k, l)
        value = integrate_irrep_exact(s)
        assert value == _dense_value(s)
        nonzero += value != 0
    assert nonzero
    # products of two brackets against a third, conjugated, of weight two
    for shapes in MIXED_SHAPES[group]:
        ranks = [build_irrep_basis(group, mu, n).rank for mu in shapes]
        for ij in itertools.product(range(1, 3), repeat=6):
            s = rep_spec(group, n, *[(mu, min(ij[2 * k], r), min(ij[2 * k + 1], r), k == 2)
                                     for k, (mu, r) in enumerate(zip(shapes, ranks))])
            assert _outcome(integrate_irrep_exact, s) == _outcome(_dense_value, s)


def test_repeated_exact_call_hits_the_engine_cache():
    s = schur_spec("O", 3, (2,))
    integrate_irrep_exact(s)
    before = moments._engine.cache_info()
    integrate_irrep_exact(s)
    after = moments._engine.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# ---------------------------------------------------------------------------
# leading order

def test_leading_unitary_symmetric_square():
    # exact 2/(N(N+1)), leading 2/N^2: the rescaled gap is exactly 2/(N+1)
    for n in range(3, 11):
        s = schur_spec("U", n, (2,))
        gap = asymptotic_irrep(s) - integrate_irrep_exact(s)
        assert gap * n * n == Fraction(2, n + 1)


def test_leading_orthogonal_frozen():
    # traceless correction shows up one order down
    for n, lam, gap in [(3, (2,), Fraction(1, 45)), (4, (2,), Fraction(1, 72)),
                        (3, (1, 1), Fraction(-1, 9)),
                        (4, (1, 1), Fraction(-1, 24))]:
        s = schur_spec("O", n, lam)
        assert asymptotic_irrep(s) - integrate_irrep_exact(s) == gap


def test_leading_symplectic_frozen():
    for n, lam, gap in [(1, (2,), Fraction(1, 6)), (2, (2,), Fraction(1, 40)),
                        (2, (1, 1), Fraction(-3, 40))]:
        s = schur_spec("Sp", n, lam)
        assert asymptotic_irrep(s) - integrate_irrep_exact(s) == gap


def test_leading_vector_rep_exact_at_weight_two():
    # the q=1 Weingarten weight is exactly 1/D, so leading == exact
    for group, n in [("U", 4), ("O", 4), ("Sp", 2)]:
        s = schur_spec(group, n, (1,))
        assert asymptotic_irrep(s) == integrate_irrep_exact(s)


# ---------------------------------------------------------------------------
# Monte Carlo agreement

MC_CASES = [
    ("U", 2, [((2,), 1, 1, False), ((2,), 3, 3, False),
              ((2,), 1, 1, True), ((2,), 3, 3, True)], 7),
    ("U", 3, [((2, 1), 1, 2, False), ((2, 1), 1, 2, True)], 19),
    ("O", 3, [((2,), 1, 2, False), ((2,), 1, 2, True)], 11),
    ("O", 3, [((1, 1), 2, 2, False), ((1, 1), 2, 2, True)], 17),
    ("Sp", 1, [((2,), 1, 2, False), ((2,), 1, 2, True)], 13),
    ("Sp", 2, [((1, 1), 1, 1, False), ((1, 1), 1, 1, True)], 23),
]


@pytest.mark.parametrize("group,n,factors,seed", MC_CASES)
def test_exact_matches_monte_carlo(group, n, factors, seed):
    s = RepMatrixElementSpec(group, n, [RepFactor(*f) for f in factors])
    exact = complex(float(integrate_irrep_exact(s)))
    est = integrate_irrep_mc(s, samples=8000, seed=seed)
    assert abs(est.mean - exact) < 4 * est.stderr + 1e-9


# every module this file builds, as (group, lam, n)
ALL_MODULES = sorted(
    {(g, lam, n) for g, lam, n, _ in RANK_TABLE} | set(RHO_CASES)
    | {(g, lam, n) for g, n, lam, _ in SCHUR_DIMS}
    | {(g, shape, n) for g, n, lam, mu in CROSS_CASES for shape in (lam, mu)}
    | {(g, lam, n) for g, n, lam in DENSE_GRID}
    | {(g, f[0], n) for g, n, factors, _ in MC_CASES for f in factors})


@pytest.mark.parametrize("group,lam,n", ALL_MODULES)
def test_stacked_entries_match_rho_matrix(group, lam, n):
    # the sampled columns of a stack equal, draw by draw, the full matrix
    # of that draw alone and the per-entry loop reference
    basis = build_irrep_basis(group, lam, n)
    stack = sampling.sample_group(group, n, sampling.BlockStack(77, 0, 3))
    cols = [basis.rank, 1]  # out of order, and repeated when the rank is 1
    picked = rho_matrix(stack, basis, cols)
    assert picked.shape == (3, basis.rank, 2)
    for s, u in enumerate(stack):
        full = rho_matrix(u, basis)
        assert np.abs(full - rho_matrix_loop(u, basis)).max() < 1e-12
        for c, j in enumerate(cols):
            assert np.abs(picked[s, :, c] - full[:, j - 1]).max() < 1e-12
    assert np.abs(rho_matrix(stack, basis) - np.stack(
        [rho_matrix(u, basis) for u in stack])).max() < 1e-12


@pytest.mark.parametrize("group,n,factors", [
    ("U", 2, [((2,), 1, 3, False), ((1,), 2, 1, True), ((2,), 2, 3, True),
              ((2,), 1, 3, False)]),
    ("O", 3, [((2,), 4, 2, False), ((1,), 3, 1, True), ((2,), 4, 2, True)]),
    ("Sp", 1, [((2,), 1, 2, False), ((1,), 2, 2, False), ((1,), 1, 2, True)]),
])
def test_mc_is_the_blockwise_reference(group, n, factors):
    # integrate_irrep_mc averages, in sample order, the products of the
    # per-draw entries of block b's stack from RngStream(seed, b)
    s = rep_spec(group, n, *factors)
    est = integrate_irrep_mc(s, samples=sampling.BLOCK + 3, seed=6)
    vals = []
    for b, size in ((0, sampling.BLOCK), (1, 3)):
        for u in sampling.sample_group(group, n, sampling.BlockStack(6, b, size)):
            val = 1
            for f in s.factors:
                e = rho_matrix_loop(u, build_irrep_basis(group, f.lam, n))[f.row - 1, f.col - 1]
                val *= e.conjugate() if f.conj else e
            vals.append(val)
    assert est.n == len(vals)
    assert abs(est.mean - np.mean(vals)) < 1e-12


def test_mc_reproducible():
    s = schur_spec("U", 2, (2,))
    a = integrate_irrep_mc(s, samples=500, seed=5)
    b = integrate_irrep_mc(s, samples=500, seed=5)
    assert a.mean == b.mean and a.stderr == b.stderr


# ---------------------------------------------------------------------------
# trivial factors and gates

def test_empty_shape_factor_is_constant_one():
    s = rep_spec("U", 3, ((), 1, 1, False))
    assert integrate_irrep_exact(s) == 1
    est = integrate_irrep_mc(s, samples=100, seed=1)
    assert est.mean == 1 and est.stderr == 0


def test_empty_shape_factor_is_neutral():
    base = schur_spec("U", 2, (2,))
    padded = RepMatrixElementSpec("U", 2,
                                  base.factors + (RepFactor((), 1, 1, False),))
    assert integrate_irrep_exact(padded) == integrate_irrep_exact(base)


def test_cost_gates(monkeypatch):
    heavy = RepMatrixElementSpec("U", 2, tuple(
        RepFactor((2,), 1, 1, c) for c in (False,) * 3 + (True,) * 3))
    assert total_weight(heavy) == 12
    with pytest.raises(CostGateError, match="capped at q=4"):
        integrate_irrep_exact(heavy)

    def refuse(*args):
        raise AssertionError("basis built before the build gate")

    # exact requests pass the build gate of every mode, before any build
    monkeypatch.setattr(irreps, "build_irrep_basis", refuse)
    with pytest.raises(CostGateError, match="work estimate 105952 exceeds"):
        integrate_irrep_exact(schur_spec("U", 43, (2, 1)))
    with pytest.raises(CostGateError, match="work estimate 115200 exceeds"):
        integrate_irrep_exact(schur_spec("O", 4, (3, 2)))
    # Sp(2) rho^(3,2)_11 rho^(1)_11: a 9 s order-5 trace-span build before
    sp = rep_spec("Sp", 2, ((3, 2), 1, 1, False), ((1,), 1, 1, False))
    with pytest.raises(CostGateError) as refused:
        integrate_irrep_exact(sp)
    assert str(refused.value) == ("module basis builds: work estimate 115204 "
                                  "exceeds the cap 100000 for Sp(2)")


@pytest.mark.parametrize("group,n,lam", [("U", 12, (2, 1)), ("O", 6, (2,)),
                                         ("O", 7, (2, 1)), ("Sp", 5, (1, 1))])
def test_exact_above_the_old_fixed_caps(group, n, lam):
    # N past the former exact-path caps (U 10, O/Sp 4): the build gate
    # admits these modules, and Schur orthogonality gives 1/dim
    rank = build_irrep_basis(group, lam, n).rank
    for ij in [(1, 1), (1, rank), (rank, 2)]:
        for kl in [ij, (2, 1)]:
            want = workloads.oracles.schur_exact(group, lam, n, ij, kl)
            assert integrate_irrep_exact(schur_spec(group, n, lam, *ij, *kl)) == want


@pytest.mark.parametrize("group,n,lam", [("U", 3, (5,)), ("U", 2, (3, 2)),
                                         ("Sp", 1, (5,))])
def test_leading_above_the_degree_cap(group, n, lam):
    # q = 5 is past DEGREE_CAP: the leading order enumerates the basis, as
    # for monomials, and gives q!/(f^lambda D^q); the exact value is refused
    rank = build_irrep_basis(group, lam, n).rank
    for ij, kl in [((1, 1), (1, 1)), ((1, rank), (1, rank)), ((rank, 1), (rank, 1)),
                   ((1, 1), (rank, rank))]:
        want = workloads.oracles.schur_leading(group, lam, n, ij, kl)
        assert asymptotic_irrep(schur_spec(group, n, lam, *ij, *kl)) == want
    with pytest.raises(CostGateError, match="capped at q=4"):
        integrate_irrep_exact(schur_spec(group, n, lam))


@pytest.mark.parametrize("group,n,lam", [("O", 4, (4,)), ("Sp", 2, (2, 2))])
def test_leading_irrep_builds_no_type_table(group, n, lam, monkeypatch):
    # a leading q = 4 irrep request reads only the listed masks: no type
    # table, character sums or class weights
    def refuse(*args):
        raise AssertionError("a leading request built a type table or class weights")

    rank = build_irrep_basis(group, lam, n).rank
    monkeypatch.setattr(moments, "type_table", refuse)
    monkeypatch.setattr(moments, "_engine", refuse)
    for ij, kl in [((1, 1), (1, 1)), ((1, rank), (1, rank))]:
        want = workloads.oracles.schur_leading(group, lam, n, ij, kl)
        assert asymptotic_irrep(schur_spec(group, n, lam, *ij, *kl)) == want != 0


@pytest.mark.parametrize("exact", [True, False])
def test_match_gate_refuses_before_any_match_vector(monkeypatch, exact):
    # O(16) lambda=(2): four factors at the entry of largest support are
    # 105 pairings x 16^4 row terms; the leading mode ran for 18.6 s before
    basis = build_irrep_basis("O", (2,), 16)
    k = 1 + max(range(basis.rank), key=lambda i: len(basis.vectors[i].data))
    assert len(basis.vectors[k - 1].data) == 16

    def refuse(*args):
        raise AssertionError("match vector built before the match gate")

    monkeypatch.setattr(moments, "_match_vector", refuse)
    s = rep_spec("O", 16, *[((2,), k, k, c) for c in (False, False, True, True)])
    start = time.perf_counter()
    with pytest.raises(CostGateError) as refused:
        (integrate_irrep_exact if exact else asymptotic_irrep)(s)
    assert time.perf_counter() - start < 0.5
    assert str(refused.value) == ("match vectors at q=4: 105 x 65536 = 6881280 "
                                  "bracket-term matches; capped at 1000000")


def test_build_cap_admits_every_module_in_use():
    # every module this file, the weight-4/5 grid and the benchmark build,
    # and U(20) lambda=(2,1), the large-N leading case
    for group, lam, n in (ALL_MODULES + BENCH_MODULES + WEIGHT_45_GRID
                          + [("U", (2, 1), 20)]):
        assert irreps._build_work(group, lam, n) <= irreps.BUILD_CAP
    assert asymptotic_irrep(schur_spec("U", 20, (2, 1))) == Fraction(3, 8000)


def test_build_gate_refuses_before_any_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("basis built before the build gate")

    monkeypatch.setattr(irreps, "build_irrep_basis", refuse)
    monkeypatch.setattr(irreps, "_module", refuse)
    big = schur_spec("U", 43, (2, 1))  # 26488 fillings x 4 symmetrizer terms
    with pytest.raises(CostGateError, match="work estimate 105952 exceeds"):
        asymptotic_irrep(big)
    with pytest.raises(CostGateError, match="work estimate 105952 exceeds"):
        integrate_irrep_mc(big, samples=100, seed=1)
    # O/Sp: times C(m,2) dim V for the trace span
    with pytest.raises(CostGateError, match="work estimate 115200 exceeds"):
        asymptotic_irrep(schur_spec("O", 4, (3, 2)))
    with pytest.raises(CostGateError):  # no O(N^2) step at huge N
        asymptotic_irrep(schur_spec("U", 10 ** 9, (1,)))
    with pytest.raises(CostGateError, match="a weight-65 shape"):  # 65! terms
        asymptotic_irrep(schur_spec("U", 1, (65,)))
    with pytest.raises(CostGateError, match="a weight-1000000000 shape"):
        asymptotic_irrep(schur_spec("U", 1, (10 ** 9,)))


# ---------------------------------------------------------------------------
# properties

@given(st.sampled_from(SCHUR_DIMS), st.integers(0, 1))
@settings(max_examples=20, deadline=None)
def test_schur_value_independent_of_entry(case, offset):
    # the diagonal of Schur orthogonality cannot depend on which entry
    group, n, lam, dim = case
    j = 1 + offset % dim
    assert integrate_irrep_exact(
        schur_spec(group, n, lam, i=1, j=j)) == Fraction(1, dim)
