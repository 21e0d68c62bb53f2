"""End-to-end acceptance: the ten headline guarantees of the package,
each at its stated tolerance.

Everything here runs at desk scale.  Exact statements are checked as
exact rationals; stochastic cross-checks use pinned seeds and a four
standard-error band; asymptotic statements fit their constant on the
small half of an N-grid and hold it on the large half.  The last test
asserts this file's own wall-clock budget.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from haarint import cli, entropy, irreps, moments, sampling, su2, tableaux, tensors
from haarint.moments import Factor, MonomialSpec
from haarint.irreps import RepFactor, RepMatrixElementSpec
from haarint.su2 import Su2Factor, Su2MonomialSpec

from fractions import Fraction

from helpers import (
    algebra_product, build_irrep_basis_ungraded, isotypic_projector,
    module_dimension_oracle, young_constant_mu,
)

_T0 = time.time()


def mono(group, *ijc):
    return MonomialSpec(group, [Factor(*t) for t in ijc])


def assert_mc_agrees(spec, n, exact, samples, seed):
    est = moments.integrate_monomial_mc(spec, n, samples, seed)
    assert abs(est.mean - complex(float(exact))) < 4 * est.stderr + 1e-9, (
        spec, n, exact, est)


# ---------------------------------------------------------------------------
# 1. exact unitary moments

def test_criterion_01_unitary_moments():
    for n in range(1, 7):
        for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
            expected = Fraction(1, n) if (i == k and j == l) else Fraction(0)
            got = moments.exact_integral(
                mono("U", (i, j, False), (k, l, True)), n)
            assert got == expected, (n, i, j, k, l)
    for n in range(2, 9):
        fourth = mono("U", (1, 1, False), (1, 1, False),
                      (1, 1, True), (1, 1, True))
        assert moments.exact_integral(fourth, n) == Fraction(2, n * (n + 1))
        diag = mono("U", (1, 1, False), (2, 2, False),
                    (1, 1, True), (2, 2, True))
        assert moments.exact_integral(diag, n) == Fraction(1, n * n - 1)


def test_criterion_01_monte_carlo_oracle():
    # pinned specs re-verified at the contractual sample count
    assert_mc_agrees(mono("U", (1, 1, False), (1, 1, True)), 3,
                     Fraction(1, 3), samples=100_000, seed=101)
    assert_mc_agrees(mono("U", (1, 1, False), (1, 1, False),
                          (1, 1, True), (1, 1, True)), 2,
                     Fraction(1, 3), samples=100_000, seed=102)
    assert_mc_agrees(mono("U", (1, 1, False), (2, 2, False),
                          (1, 1, True), (2, 2, True)), 4,
                     Fraction(1, 15), samples=100_000, seed=103)


# ---------------------------------------------------------------------------
# 2. exact orthogonal moments and odd-degree vanishing

def test_criterion_02_orthogonal_moments():
    for n in range(2, 9):
        second = mono("O", (1, 1, False), (1, 1, False))
        assert moments.exact_integral(second, n) == Fraction(1, n)
        fourth = mono("O", *[(1, 1, False)] * 4)
        assert moments.exact_integral(fourth, n) == Fraction(3, n * (n + 2))


def test_criterion_02_monte_carlo_oracle():
    assert_mc_agrees(mono("O", (1, 1, False), (1, 1, False)), 3,
                     Fraction(1, 3), samples=100_000, seed=201)
    assert_mc_agrees(mono("O", *[(1, 1, False)] * 4), 3,
                     Fraction(1, 5), samples=100_000, seed=202)


def test_criterion_02_odd_degree_vanishes():
    odd_specs = [
        [(1, 1, False)],
        [(1, 2, False)],
        [(1, 1, False), (1, 1, False), (1, 1, False)],
        [(1, 1, False), (1, 2, False), (2, 2, False)],
    ]
    for n in (2, 3, 4):
        for ijc in odd_specs:
            assert moments.exact_integral(mono("O", *ijc), n) == 0
            assert moments.exact_integral(mono("Sp", *ijc), n) == 0


# ---------------------------------------------------------------------------
# 3. leading-order remainder is one power down

ASYMPTOTIC_SPECS = {
    "U": [
        [(1, 1, False), (1, 1, True)],
        [(1, 2, False), (1, 2, True)],
        [(1, 1, False), (1, 1, False), (1, 1, True), (1, 1, True)],
        [(1, 1, False), (1, 2, False), (1, 1, True), (1, 2, True)],
        [(1, 1, False), (2, 2, False), (1, 1, True), (2, 2, True)],
        [(1, 1, False), (2, 2, False), (1, 2, True), (2, 1, True)],
        [(1, 2, False), (1, 2, False), (1, 2, True), (1, 2, True)],
        [(1, 1, False)] * 3 + [(1, 1, True)] * 3,
        [(1, 1, False), (2, 2, False), (3, 3, False),
         (1, 1, True), (2, 2, True), (3, 3, True)],
        [(1, 1, False), (2, 2, False), (3, 3, False),
         (1, 2, True), (2, 3, True), (3, 1, True)],
    ],
    "O": [
        [(1, 1, False)] * 2,
        [(1, 2, False)] * 2,
        [(1, 1, False)] * 4,
        [(1, 1, False), (1, 1, False), (1, 2, False), (1, 2, False)],
        [(1, 1, False), (1, 1, False), (2, 2, False), (2, 2, False)],
        [(1, 1, False), (1, 2, False), (2, 1, False), (2, 2, False)],
        [(1, 2, False)] * 4,
        [(1, 1, False)] * 6,
        [(1, 1, False), (1, 1, False), (2, 2, False), (2, 2, False),
         (3, 3, False), (3, 3, False)],
        [(1, 1, False)] * 4 + [(2, 2, False)] * 2,
    ],
    "Sp": [
        [(1, 1, False), (1, 1, True)],
        [(1, 2, False), (2, 1, False)],
        [(1, 1, False), (1, 1, False), (1, 1, True), (1, 1, True)],
        [(1, 2, False), (1, 2, False), (1, 2, True), (1, 2, True)],
        [(1, 1, False), (2, 2, False), (1, 1, True), (2, 2, True)],
        [(1, 1, False), (2, 2, False), (1, 2, True), (2, 1, True)],
        [(1, 1, False), (3, 3, False), (1, 1, True), (3, 3, True)],
        [(1, 1, False)] * 3 + [(1, 1, True)] * 3,
        [(1, 1, False), (2, 2, False), (3, 3, False),
         (1, 1, True), (2, 2, True), (3, 3, True)],
        [(1, 2, False), (2, 1, False), (1, 1, False), (1, 1, True)],
    ],
}


def test_criterion_03_asymptotic_remainder():
    grid = list(range(4, 17))
    fit, hold = grid[:len(grid) // 2], grid[len(grid) // 2:]
    for group, spec_list in ASYMPTOTIC_SPECS.items():
        assert len(spec_list) >= 10
        for ijc in spec_list:
            spec = mono(group, *ijc)
            q = spec.degree // 2 if group == "U" else len(ijc) // 2

            def rescaled(n):
                d = 2 * n if group == "Sp" else n
                gap = moments.exact_integral(spec, n) \
                    - moments.asymptotic_leading(spec, n)
                return abs(gap) * Fraction(d) ** q * d

            c = Fraction(3, 2) * max(rescaled(n) for n in fit)
            for n in hold:
                assert rescaled(n) <= c, (group, ijc, n, c)


# ---------------------------------------------------------------------------
# 4. representation matrix elements

WEIGHT3_SHAPES = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def _admissible_basis(group, lam, n):
    try:
        return irreps.build_irrep_basis(group, lam, n)
    except ValueError:
        return None


def test_criterion_04_schur_orthogonality_grid():
    for group in ("U", "O"):
        for n in (2, 3):
            shapes = [(lam, _admissible_basis(group, lam, n))
                      for lam in WEIGHT3_SHAPES]
            shapes = [(lam, b) for lam, b in shapes
                      if b is not None and b.rank > 0]
            for (lam, bl), (mu, bm) in itertools.product(shapes, repeat=2):
                if tableaux.weight(lam) != tableaux.weight(mu):
                    continue  # unbalanced phases vanish trivially
                spec = RepMatrixElementSpec(group, n, (
                    RepFactor(lam, 1, 1, False), RepFactor(mu, 1, 1, True)))
                expected = Fraction(1, bl.rank) if lam == mu else Fraction(0)
                assert irreps.integrate_irrep_exact(spec) == expected, (
                    group, n, lam, mu)
                if lam == mu and bl.rank > 1:
                    off = RepMatrixElementSpec(group, n, (
                        RepFactor(lam, 1, 2, False),
                        RepFactor(mu, 1, 2, True)))
                    assert irreps.integrate_irrep_exact(off) \
                        == Fraction(1, bl.rank)
                    mixed = RepMatrixElementSpec(group, n, (
                        RepFactor(lam, 1, 1, False),
                        RepFactor(mu, 2, 2, True)))
                    assert irreps.integrate_irrep_exact(mixed) == 0


def test_criterion_04_vector_rep_bit_exact():
    monomials = [
        [(1, 1, False), (1, 1, True)],
        [(1, 2, False), (1, 2, True)],
        [(1, 1, False), (2, 2, False), (1, 1, True), (2, 2, True)],
        [(1, 1, False), (2, 2, False), (1, 2, True), (2, 1, True)],
    ]
    for group, n in [("U", 2), ("U", 3), ("Sp", 1), ("Sp", 2)]:
        for ijc in monomials:
            rs = RepMatrixElementSpec(group, n, [
                RepFactor((1,), i, j, c) for i, j, c in ijc])
            assert irreps.integrate_irrep_exact(rs) \
                == moments.exact_integral(mono(group, *ijc), n)
    # the orthogonal module lives in the split basis, where the matching
    # value-level statement is the 1/N second moment of every entry
    for x, y in itertools.product(range(1, 4), repeat=2):
        spec = RepMatrixElementSpec("O", 3, (
            RepFactor((1,), x, y, False), RepFactor((1,), x, y, True)))
        assert irreps.integrate_irrep_exact(spec) == Fraction(1, 3) \
            == moments.exact_integral(mono("O", (1, 1, False),
                                           (1, 1, False)), 3)


def _random_rep_specs(count):
    rng = random.Random(2027)
    shapes = [(1,), (2,), (1, 1)]
    specs = []
    while len(specs) < count:
        group = rng.choice(["U", "O", "Sp"])
        n = rng.choice([2, 3]) if group != "Sp" else rng.choice([1, 2])
        lam = rng.choice(shapes)
        mu = rng.choice(shapes)
        bl = _admissible_basis(group, lam, n)
        bm = _admissible_basis(group, mu, n)
        if not bl or not bm or not bl.rank or not bm.rank:
            continue
        f1 = RepFactor(lam, rng.randint(1, bl.rank), rng.randint(1, bl.rank),
                       False)
        f2 = RepFactor(mu, rng.randint(1, bm.rank), rng.randint(1, bm.rank),
                       True)
        specs.append(RepMatrixElementSpec(group, n, (f1, f2)))
    return specs


def test_criterion_04_exact_vs_monte_carlo():
    for i, spec in enumerate(_random_rep_specs(20)):
        exact = irreps.integrate_irrep_exact(spec)
        est = irreps.integrate_irrep_mc(spec, samples=2500, seed=400 + i)
        assert abs(est.mean - complex(float(exact))) \
            < 4 * est.stderr + 1e-9, (spec, exact, est)


# ---------------------------------------------------------------------------
# 5. tableau count = module rank = dimension oracle

def _weyl_dimension_gl(lam, n):
    # hook-content product over the cells of the diagram
    lam = tableaux.check_shape(lam)
    conj = tableaux.conjugate(lam)
    dim = Fraction(1)
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            hook = (row_len - c) + (conj[c] - r) - 1
            dim *= Fraction(n + c - r, hook)
    assert dim.denominator == 1
    return int(dim)


def test_criterion_05_dimension_consistency():
    enumerators = {"U": tableaux.enumerate_gl_tableaux,
                   "O": tableaux.enumerate_o_tableaux,
                   "Sp": tableaux.enumerate_sp_tableaux}
    grids = [("U", (2, 3)), ("O", (2, 3)), ("Sp", (1, 2))]
    for group, ns in grids:
        for n in ns:
            for lam in WEIGHT3_SHAPES:
                basis = _admissible_basis(group, lam, n)
                if basis is None:
                    continue
                count = len(enumerators[group](lam, n))
                assert basis.rank == count, (group, n, lam)
                assert build_irrep_basis_ungraded(group, lam, n).dropped == 0, (
                    group, n, lam)
                if group == "U":
                    assert basis.rank == _weyl_dimension_gl(lam, n)
                else:
                    form = (tensors.symplectic_form(n) if group == "Sp"
                            else tensors.orthogonal_form(n))
                    assert basis.rank == module_dimension_oracle(lam, form)


# ---------------------------------------------------------------------------
# 6. projection suite

def test_criterion_06_symmetrizer_quasi_idempotent():
    for m in range(1, 5):
        for lam in _partitions(m):
            c = tensors.young_symmetrizer(lam)
            mu = young_constant_mu(lam)
            square = algebra_product(c, c)
            scaled = {p: mu * w for p, w in c.items()}
            assert square == scaled, lam


def _partitions(m):
    if m == 0:
        yield ()
        return
    def gen(rest, most):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, most), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    yield from gen(m, m)


def test_criterion_06_block_projectors():
    for form in (tensors.orthogonal_form(3), tensors.symplectic_form(1)):
        for k in (1, 2, 3):
            projectors = {lam: isotypic_projector(lam, k, form)
                          for lam in _partitions(k)}
            for lam, p in projectors.items():
                assert p.matmul(p).sub(p).is_zero(), (form.kind, k, lam)
            for lam, mu in itertools.combinations(projectors, 2):
                assert projectors[lam].matmul(projectors[mu]).is_zero(), (
                    form.kind, k, lam, mu)


def test_criterion_06_traceless_projection():
    form = tensors.orthogonal_form(3)
    rng = random.Random(6)
    for order in (2, 3):
        t = tensors.SparseTensor(order)
        for _ in range(5):
            idx = tuple(rng.choice(form.letters) for _ in range(order))
            t.add_term(idx, Fraction(rng.randint(-3, 3)))
        t0, _ = tensors.traceless_project(t, form)
        again, residue = tensors.traceless_project(t0, form)
        assert again == t0 and residue.is_zero()
        for i, j in itertools.combinations(range(order), 2):
            assert tensors.contract(t0, i, j, form).is_zero()


# ---------------------------------------------------------------------------
# 7. SU(2) closed form

def test_criterion_07_closed_vs_quadrature_exhaustive():
    opts = ([(1, a, b, c) for a in (-1, 1) for b in (-1, 1)
             for c in (False, True)]
            + [(2, a, b, c) for a in (-2, 0, 2) for b in (-2, 0, 2)
               for c in (False, True)])
    checked = 0
    for r in range(1, 5):
        for combo in itertools.combinations_with_replacement(opts, r):
            if sum(f[0] for f in combo) > 4:
                continue
            spec = Su2MonomialSpec([Su2Factor(*f) for f in combo])
            closed = su2.su2_integral_closed(spec)
            assert abs(closed - su2.su2_integral_quadrature(spec, 24)) \
                < 1e-10, combo
            checked += 1
    assert checked == 1475


def test_criterion_07_schur_and_conjugation():
    for tj in (1, 2, 3):
        for tmp in range(-tj, tj + 1, 2):
            for tm in range(-tj, tj + 1, 2):
                spec = Su2MonomialSpec([Su2Factor(tj, tmp, tm, False),
                                        Su2Factor(tj, tmp, tm, True)])
                assert abs(su2.su2_integral_closed(spec)
                           - 1 / (tj + 1)) < 1e-12
    rng = random.Random(700)
    for _ in range(100):
        tj = rng.choice([0, 1, 2, 3, 4])
        tmp = rng.randrange(-tj, tj + 1, 2) if tj else 0
        tm = rng.randrange(-tj, tj + 1, 2) if tj else 0
        ang = (rng.uniform(0, 4 * math.pi), rng.uniform(0, math.pi),
               rng.uniform(0, 4 * math.pi))
        lhs = su2.wigner_D(tj, tmp, tm, ang).conjugate()
        rhs = (-1) ** ((tmp - tm) // 2) * su2.wigner_D(tj, -tmp, -tm, ang)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# 8. entropy

def test_criterion_08_page_values_and_monte_carlo():
    assert entropy.page_entropy_fraction(2, 2) == Fraction(1, 3)
    assert entropy.page_entropy_fraction(2, 3) == Fraction(9, 20)
    for m, n, seed in [(2, 2, 801), (2, 3, 802), (3, 3, 803)]:
        est = entropy.mc_average_entropy(m, n, samples=10_000, seed=seed)
        assert abs(est.mean.real - entropy.page_entropy_exact(m, n)) \
            < 4 * est.stderr + 1e-9, (m, n, est)
    assert abs(entropy.page_entropy_exact(2, 16)
               - entropy.page_entropy_approx(2, 16)) < 0.02


def test_criterion_08_marginal_entropies_agree():
    for i in range(30):
        m, n = [(2, 2), (2, 3), (3, 3)][i % 3]
        v = entropy.random_pure_state(m * n, sampling.RngStream(810, i))
        rho = np.outer(v, v.conj())
        sa = entropy.von_neumann_entropy(entropy.partial_trace(rho, (m, n), "A"))
        sb = entropy.von_neumann_entropy(entropy.partial_trace(rho, (m, n), "B"))
        assert abs(sa - sb) < 1e-9


# ---------------------------------------------------------------------------
# 9. reproducibility

def test_criterion_09_bit_reproducibility(capsys):
    spec = mono("U", (1, 1, False), (1, 1, True))
    a = moments.integrate_monomial_mc(spec, 2, samples=1000, seed=900)
    b = moments.integrate_monomial_mc(spec, 2, samples=1000, seed=900)
    assert a.mean == b.mean and a.stderr == b.stderr

    argv = ["integral", "--group", "U", "--N", "2", "--factors",
            "1,1,+;1,1,-", "--mode", "mc", "--samples", "500", "--seed", "9"]
    outs = []
    for threads in ("1", "7"):
        assert cli.main(argv + ["--threads", threads]) == 0
        outs.append(capsys.readouterr().out.replace(
            f'"threads": {threads}', '"threads": X'))
    assert outs[0] == outs[1]

    est1 = entropy.mc_average_entropy(2, 2, samples=500, seed=901)
    est2 = entropy.mc_average_entropy(2, 2, samples=500, seed=901)
    assert est1.mean == est2.mean


# ---------------------------------------------------------------------------
# 10. runtime budget

def test_criterion_10_runtime_budget():
    # wall clock since this module was imported; the acceptance file is
    # the heavyweight part of the suite and must stay inside ten minutes
    assert time.time() - _T0 < 600
