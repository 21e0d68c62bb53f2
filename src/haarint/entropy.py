"""Bipartite pure-state tools: marginals, Schmidt data, purification,
von Neumann entropy, Bloch vectors, and average-entropy formulas.

A pure state on a product of an m- and an n-dimensional space reshapes
into an m x n coefficient matrix; its singular values carry every
quantity of interest here.  Both marginals share one spectrum, so the
two subsystem entropies coincide, and averaging that entropy over
random pure states approaches the closed formulas exposed at the end of
the module.  Entropies are in nats throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .sampling import (
    MC_CAP, BlockStack, McEstimate, RngStream, check_cost, mc_expectation,
)
from .tensors import CostGateError

__all__ = [
    "partial_trace",
    "schmidt",
    "purify",
    "von_neumann_entropy",
    "bloch_vector",
    "page_entropy_approx",
    "page_entropy_exact",
    "page_entropy_fraction",
    "mc_average_entropy",
    "random_pure_state",
    "validate_density",
]

_EIG_CLIP = 1e-12  # float noise below this is treated as an exact zero

# harmonic terms (m-1)n one exact Page value may sum (about 0.7 s at the
# cap); past it mn > 2*10^4, and those values already have over 8000
# digits, more than str() prints by default
HARMONIC_CAP = 2 * 10 ** 4


def validate_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.allclose(rho, rho.conj().T, atol=1e-12):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1) > 1e-12:
        raise ValueError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def _as_state(v: np.ndarray, m: int, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != m * n:
        raise ValueError(f"state length {v.size} does not factor as {m}*{n}")
    if abs(np.linalg.norm(v) - 1) > 1e-12:
        raise ValueError("state vector must have unit norm")
    return v


def partial_trace(rho: np.ndarray, dims, keep: str = "A") -> np.ndarray:
    """Marginal of a density matrix on the dims = (m, n) product space.

    keep="A" returns the m-dimensional marginal, keep="B" the
    n-dimensional one.
    """
    m, n = dims
    rho = validate_density(rho)
    if rho.shape[0] != m * n:
        raise ValueError(f"dimension {rho.shape[0]} does not factor as {m}*{n}")
    four = rho.reshape(m, n, m, n)
    if keep == "A":
        return np.einsum("ikjk->ij", four)
    if keep == "B":
        return np.einsum("kikj->ij", four)
    raise ValueError("keep must be 'A' or 'B'")


def schmidt(v: np.ndarray, dims):
    """Schmidt data (coefficients, vectors_a, vectors_b) of a unit vector.

    Coefficients come back descending and non-negative with squares
    summing to one; v equals sum_k xi_k vectors_a[k] (x) vectors_b[k].
    """
    m, n = dims
    mat = _as_state(v, m, n).reshape(m, n)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return s, [u[:, k] for k in range(s.size)], [vh[k, :] for k in range(s.size)]


def purify(eigs, m: int, n: int) -> np.ndarray:
    """Unit vector on the (m, n) product whose marginals both carry the
    given descending eigenvalue list."""
    eigs = [Fraction(x) if isinstance(x, (int, Fraction)) else float(x)
            for x in eigs]
    vals = np.array([float(x) for x in eigs], dtype=float)
    if vals.size > min(m, n):
        raise ValueError(
            f"{vals.size} eigenvalues do not fit in min({m},{n}) Schmidt slots")
    if np.any(vals < -1e-12) or np.any(np.diff(vals) > 1e-12):
        raise ValueError("eigenvalues must be descending and non-negative")
    if abs(vals.sum() - 1) > 1e-10:
        raise ValueError("eigenvalues must sum to one")
    v = np.zeros(m * n, dtype=complex)
    for i, lam in enumerate(vals):
        v[i * n + i] = math.sqrt(max(lam, 0.0))
    return v


def von_neumann_entropy(rho: np.ndarray) -> float:
    rho = validate_density(rho)
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > _EIG_CLIP]
    eigs = eigs / eigs.sum()  # absorb roundoff so pure states give exactly 0
    return float(-(eigs * np.log(eigs)).sum())


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))


def bloch_vector(rho: np.ndarray):
    """Pauli expectation triple of a qubit state; length 1 exactly on
    the pure states."""
    rho = validate_density(rho)
    if rho.shape != (2, 2):
        raise ValueError("Bloch vector needs a 2x2 density matrix")
    return tuple(float(np.trace(rho @ s).real) for s in _PAULI)


def page_entropy_approx(m: int, n: int) -> float:
    """Large-dimension approximation ln m - m/(2n) to the average
    entropy of the m-dimensional marginal."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    return math.log(m) - m / (2 * n)


def page_entropy_fraction(m: int, n: int) -> Fraction:
    """Exact rational value behind page_entropy_exact: the harmonic
    tail sum_{k=n+1}^{mn} 1/k minus (m-1)/(2n); refused past HARMONIC_CAP
    terms before the sum starts."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    if m > n:
        raise ValueError(
            "formula applies to the smaller marginal first: swap to "
            f"(m, n) = ({n}, {m})")
    if (m - 1) * n > HARMONIC_CAP:
        raise CostGateError(
            f"exact Page value for (m, n) = ({m}, {n}): {(m - 1) * n} "
            f"harmonic terms; capped at {HARMONIC_CAP}")
    tail = sum(Fraction(1, k) for k in range(n + 1, m * n + 1))
    return tail - Fraction(m - 1, 2 * n)


def page_entropy_exact(m: int, n: int) -> float:
    """Average marginal entropy of a random pure state on C^m (x) C^n."""
    return float(page_entropy_fraction(m, n))


def random_pure_state(dim: int, stream: RngStream | BlockStack) -> np.ndarray:
    """Haar-random unit vector from an RngStream, or a stack (size, dim) of
    them from the blocks of a sampling.BlockStack: a normalized complex
    Gaussian vector (the real part drawn first), whose law is that of the
    first column of a Haar unitary."""
    re, im = stream.gaussians(2, (dim,))
    z = re + 1j * im
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def mc_average_entropy(m: int, n: int, samples: int, seed: int) -> McEstimate:
    """Monte Carlo mean of the m-side entropy over random pure states: each
    stack of blocks is one stack of states and one batched singular-value
    call; refused past MC_CAP sampled numbers."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    per_sample = 1 + m * n
    check_cost("Monte Carlo entropy", samples, per_sample, MC_CAP)

    def draw(stack):
        v = random_pure_state(m * n, stack)
        sq = np.linalg.svd(v.reshape(stack.size, m, n), compute_uv=False) ** 2
        sq = np.where(sq > _EIG_CLIP, sq, 0.0)
        sq /= sq.sum(axis=-1, keepdims=True)
        return -(sq * np.log(np.where(sq > 0, sq, 1.0))).sum(axis=-1)

    return mc_expectation(draw, samples=samples, seed=seed, per_sample=per_sample)
