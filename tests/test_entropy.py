"""Bipartite entropy tools: frozen marginals, Schmidt round trips,
average-entropy formulas, and Monte Carlo agreement.

The (2,2) and (2,3) average entropies have hand-evaluated harmonic-sum
values 1/3 and 0.45; the Monte Carlo route and an independent Gaussian
state model must both land on them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarint import entropy
from haarint.entropy import (
    bloch_vector,
    mc_average_entropy,
    page_entropy_approx,
    page_entropy_exact,
    page_entropy_fraction,
    partial_trace,
    purify,
    random_pure_state,
    schmidt,
    validate_density,
    von_neumann_entropy,
)
from haarint.sampling import BLOCK, BlockStack, RngStream, mc_expectation, sample_unitary
from haarint.tensors import CostGateError

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def pure_density(v):
    return np.outer(v, np.conj(v))


# ---------------------------------------------------------------------------
# marginals

def test_bell_marginals_maximally_mixed():
    rho = pure_density(BELL)
    assert np.allclose(partial_trace(rho, (2, 2), "A"), np.eye(2) / 2)
    assert np.allclose(partial_trace(rho, (2, 2), "B"), np.eye(2) / 2)


def test_product_state_marginal_is_projector():
    v = np.zeros(6, dtype=complex)
    v[0] = 1  # e_1 (x) f_1 on dims (2, 3)
    ra = partial_trace(pure_density(v), (2, 3), "A")
    assert np.allclose(ra, np.diag([1.0, 0.0]))
    rb = partial_trace(pure_density(v), (2, 3), "B")
    assert np.allclose(rb, np.diag([1.0, 0.0, 0.0]))


def test_partial_trace_preserves_trace():
    for i, dims in enumerate([(2, 2), (2, 3), (3, 3), (4, 2)]):
        v = random_pure_state(dims[0] * dims[1], RngStream(100 + i))
        for keep in "AB":
            marg = partial_trace(pure_density(v), dims, keep)
            assert abs(np.trace(marg).real - 1) < 1e-12
            assert np.allclose(marg, marg.conj().T, atol=1e-12)


def test_partial_trace_validation():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, (2, 3), "A")  # wrong factorization
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, (2, 2), "C")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 2), "A")  # trace 4
    with pytest.raises(ValueError):
        validate_density(np.array([[1, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# Schmidt data

def test_bell_schmidt_coefficients():
    xi, _, _ = schmidt(BELL, (2, 2))
    assert np.allclose(xi, [1 / math.sqrt(2)] * 2)


def test_product_schmidt_coefficients():
    v = np.zeros(4, dtype=complex)
    v[1] = 1  # e_1 (x) f_2
    xi, _, _ = schmidt(v, (2, 2))
    assert np.allclose(xi, [1.0, 0.0])


def test_schmidt_reconstruction_and_spectrum():
    for i, dims in enumerate([(2, 2), (2, 3), (3, 3), (2, 4)]):
        m, n = dims
        v = random_pure_state(m * n, RngStream(7 + i))
        xi, vec_a, vec_b = schmidt(v, dims)
        assert abs((xi ** 2).sum() - 1) < 1e-10
        assert all(x >= y - 1e-12 for x, y in zip(xi, xi[1:]))
        rec = sum(x * np.kron(a, b) for x, a, b in zip(xi, vec_a, vec_b))
        assert np.linalg.norm(rec - v) < 1e-10
        # squared coefficients are the marginal spectrum
        eigs = np.linalg.eigvalsh(partial_trace(pure_density(v), dims, "A"))
        assert np.allclose(np.sort(xi ** 2), np.sort(eigs), atol=1e-9)


def test_schmidt_bases_orthonormal():
    v = random_pure_state(9, RngStream(55))
    _, vec_a, vec_b = schmidt(v, (3, 3))
    for vecs in (vec_a, vec_b):
        g = np.array([[np.vdot(p, q) for q in vecs] for p in vecs])
        assert np.allclose(g, np.eye(len(vecs)), atol=1e-10)


# ---------------------------------------------------------------------------
# purification

def test_purify_round_trip():
    for eigs in ([1], [0.5, 0.5], [0.7, 0.2, 0.1]):
        v = purify(eigs, 3, 3)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        xi, _, _ = schmidt(v, (3, 3))
        padded = np.zeros(3)
        padded[:len(eigs)] = eigs
        assert np.allclose(np.sort(xi ** 2), np.sort(padded), atol=1e-10)


def test_purify_equal_marginal_spectra():
    v = purify([0.6, 0.4], 2, 5)
    rho = pure_density(v)
    ea = np.linalg.eigvalsh(partial_trace(rho, (2, 5), "A"))
    eb = np.linalg.eigvalsh(partial_trace(rho, (2, 5), "B"))
    assert np.allclose(np.sort(ea)[::-1][:2], [0.6, 0.4], atol=1e-12)
    assert np.allclose(np.sort(eb)[::-1][:2], [0.6, 0.4], atol=1e-12)
    assert np.allclose(np.sort(eb)[:3], 0.0, atol=1e-12)


def test_purify_validation():
    with pytest.raises(ValueError):
        purify([0.5, 0.3, 0.2], 2, 2)  # three values, two slots
    with pytest.raises(ValueError):
        purify([0.3, 0.7], 2, 2)  # not descending
    with pytest.raises(ValueError):
        purify([0.6, 0.2], 2, 2)  # sums to 0.8


# ---------------------------------------------------------------------------
# entropy and Bloch

def test_entropy_frozen_values():
    assert abs(von_neumann_entropy(pure_density(BELL))) < 1e-12
    assert abs(von_neumann_entropy(np.eye(2) / 2) - math.log(2)) < 1e-14
    assert abs(von_neumann_entropy(np.eye(5) / 5) - math.log(5)) < 1e-14
    rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
    assert abs(von_neumann_entropy(rho) - 1.5 * math.log(2)) < 1e-14


def test_entropy_bounds_on_marginals():
    for i, dims in enumerate([(2, 2), (2, 3), (3, 3)]):
        v = random_pure_state(dims[0] * dims[1], RngStream(200 + i))
        s = von_neumann_entropy(partial_trace(pure_density(v), dims, "A"))
        assert -1e-12 <= s <= math.log(min(dims)) + 1e-12


def test_marginal_entropies_agree():
    for i, dims in enumerate([(2, 3), (3, 4), (2, 5)]):
        v = random_pure_state(dims[0] * dims[1], RngStream(300 + i))
        rho = pure_density(v)
        sa = von_neumann_entropy(partial_trace(rho, dims, "A"))
        sb = von_neumann_entropy(partial_trace(rho, dims, "B"))
        assert abs(sa - sb) < 1e-9


def test_bloch_frozen_values():
    assert np.allclose(bloch_vector(np.diag([1.0, 0.0]).astype(complex)),
                       (0, 0, 1))
    assert np.allclose(bloch_vector(np.eye(2) / 2), (0, 0, 0))
    sx_half = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    assert np.allclose(bloch_vector(sx_half), (0.5, 0, 0))
    with pytest.raises(ValueError):
        bloch_vector(np.eye(3) / 3)


def test_bloch_norm_one_iff_pure():
    for i in range(6):
        v = random_pure_state(4, RngStream(400 + i))
        rho = partial_trace(pure_density(v), (2, 2), "A")
        x, y, z = bloch_vector(rho)
        norm = math.sqrt(x * x + y * y + z * z)
        purity = float(np.trace(rho @ rho).real)
        assert norm <= 1 + 1e-10
        assert (abs(norm - 1) < 1e-9) == (abs(purity - 1) < 1e-9)


# ---------------------------------------------------------------------------
# average entropy

def test_page_exact_frozen():
    assert page_entropy_exact(2, 2) == float(1) / 3
    assert page_entropy_exact(2, 3) == 0.45
    assert page_entropy_exact(1, 7) == 0.0
    assert abs(page_entropy_exact(3, 3)
               - (sum(1 / k for k in range(4, 10)) - 1 / 3)) < 1e-14


def test_page_exact_needs_small_side_first():
    with pytest.raises(ValueError, match="swap"):
        page_entropy_exact(3, 2)


def test_page_approx_values():
    assert abs(page_entropy_approx(2, 16) - (math.log(2) - 1 / 16)) < 1e-14
    assert page_entropy_approx(1, 4) == -0.125
    # approximation regime claim at desk scale
    assert abs(page_entropy_exact(2, 16) - page_entropy_approx(2, 16)) < 0.02


def test_mc_average_entropy_agrees():
    for m, n, seed in [(2, 2, 5), (2, 3, 6), (3, 3, 7)]:
        est = mc_average_entropy(m, n, samples=4000, seed=seed)
        assert abs(est.mean.real - page_entropy_exact(m, n)) \
            < 4 * est.stderr + 1e-9
        assert est.mean.imag == 0


def test_mc_gaussian_model_equivalent():
    # normalized Gaussian vectors follow the same law as unitary columns
    def draw(stack):
        return [von_neumann_entropy(partial_trace(pure_density(v), (2, 2), "A"))
                for v in sample_unitary(4, stack)[..., :, 0]]

    a = mc_expectation(draw, samples=4000, seed=21)
    b = mc_average_entropy(2, 2, samples=4000, seed=22)
    assert abs(a.mean.real - b.mean.real) \
        < 4 * math.hypot(a.stderr, b.stderr) + 1e-9


def test_mc_is_the_blockwise_reference():
    # each block is one stack of states from RngStream(seed, b); the batched
    # singular values give, state by state, the marginal's entropy
    samples = BLOCK + 40
    est = mc_average_entropy(2, 3, samples=samples, seed=9)
    vals = [von_neumann_entropy(partial_trace(pure_density(v), (2, 3), "A"))
            for b, size in ((0, BLOCK), (1, 40))
            for v in random_pure_state(6, BlockStack(9, b, size))]
    assert est.n == len(vals) == samples
    assert abs(est.mean - np.mean(vals)) < 1e-12


def test_stacked_pure_states():
    states = random_pure_state(6, BlockStack(4, 0, 5))
    assert states.shape == (5, 6)
    assert np.abs(np.linalg.norm(states, axis=1) - 1).max() < 1e-12


def test_mc_trivial_marginal():
    est = mc_average_entropy(1, 4, samples=200, seed=3)
    assert est.mean == 0 and est.stderr == 0


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_average_entropy(2, 2, samples=50, seed=1)


@pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (1, -1), (-3, 4)])
def test_mc_refuses_empty_factors_before_the_cost_gate(m, n):
    # samples far past the cap: the dimension check comes first
    with pytest.raises(ValueError, match=r"need m, n >= 1"):
        mc_average_entropy(m, n, samples=10 ** 9, seed=1)
    with pytest.raises(ValueError, match=r"need m, n >= 1"):
        mc_average_entropy(m, n, samples=100, seed=1)


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_entropy_invariants_random(m, n, seed):
    v = random_pure_state(m * n, RngStream(seed))
    rho = pure_density(v)
    sa = von_neumann_entropy(partial_trace(rho, (m, n), "A"))
    sb = von_neumann_entropy(partial_trace(rho, (m, n), "B"))
    assert abs(sa - sb) < 1e-9
    assert -1e-12 <= sa <= math.log(min(m, n)) + 1e-12


def test_page_fraction_harmonic_cap():
    # (m-1)n harmonic terms are refused past the cap before the sum starts
    with pytest.raises(CostGateError, match="20001 harmonic terms"):
        page_entropy_fraction(2, entropy.HARMONIC_CAP + 1)
    with pytest.raises(CostGateError, match="capped at 20000"):
        page_entropy_fraction(10 ** 9, 10 ** 9)
    x = page_entropy_fraction(3, entropy.HARMONIC_CAP // 2)  # at the cap
    assert abs(float(x) - page_entropy_approx(3, entropy.HARMONIC_CAP // 2)) < 1e-4
