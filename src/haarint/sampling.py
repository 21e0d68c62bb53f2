"""Haar-distributed random matrices and Monte Carlo estimation.

Every sampler consumes an RngStream — a counter-based substream fully
determined by (seed, stream index) — and draws either one matrix or a
stack (size, d, d) of them from that one stream: one Gaussian array,
one stacked QR, then the phase, sign or determinant fixes applied to
the whole stack.

A Monte Carlo estimate is drawn in blocks of BLOCK samples: block b is
one stack from RngStream(seed, b), the last block holding what is left.
The values land in one array in sample order and are reduced with
numpy's pairwise mean, so an estimate depends only on (seed, samples).
Blocks replaced an earlier one-stream-per-sample loop, so a given seed
now gives other, equally valid estimates than that loop did.  Nothing
runs in parallel; the CLI's --threads is echoed in each record and never
changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tableaux import check_int
from .tensors import CostGateError

# samples per stacked draw: enough to amortize the per-call overhead, few
# enough that a block's temporaries do not raise the peak memory
BLOCK = 64
# sampled numbers (each sample's matrix entries and its value) that one
# Monte Carlo estimate may hold: at most 10^7 values, 160 MB
MC_CAP = 2 * 10 ** 7


@dataclass(frozen=True)
class RngStream:
    """Counter-based substream; (seed, stream) pins the whole draw sequence."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2 ** 64, self.stream % 2 ** 64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass
class GroupSample:
    matrix: np.ndarray  # one d x d matrix, or a stack (size, d, d)
    group: str

    def __getitem__(self, ij):
        return self.matrix[ij]

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]


@dataclass
class McEstimate:
    mean: complex
    stderr: float
    n: int
    seed: int

    def to_json_dict(self) -> dict:
        return {"mean_re": self.mean.real, "mean_im": self.mean.imag,
                "stderr": self.stderr, "n": self.n, "seed": self.seed}


def dimension(group: str, n: int) -> int:
    """Side of the sampled matrices: n, or 2n for the symplectic Sp(2n)."""
    return 2 * n if group == "Sp" else n


def check_cost(what: str, count: int, per_item: int, cap: int,
               unit: str = "sampled numbers"):
    """Refuse, before the work starts, count items of per_item units each
    when their product exceeds cap."""
    work = count * per_item
    if work > cap:
        raise CostGateError(
            f"{what}: {count} x {per_item} = {work} {unit}; capped at {cap}")


def _shape(n: int, size) -> tuple:
    return (n, n) if size is None else (size, n, n)


def _complex_gaussian(g: np.random.Generator, shape: tuple) -> np.ndarray:
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def sample_unitary(n: int, stream: RngStream, size=None) -> GroupSample:
    """Haar sample from U(n), or a stack of size of them: complex Gaussian,
    QR, then divide out the phases of R's diagonal (plain QR alone is not
    Haar)."""
    if n < 1:
        raise ValueError("need n >= 1")
    a = _complex_gaussian(stream.generator(), _shape(n, size))
    a /= math.sqrt(2)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return GroupSample(q, "U")


def sample_special_unitary(n: int, stream: RngStream, size=None) -> GroupSample:
    u = sample_unitary(n, stream, size).matrix
    u = u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)[..., None, None]
    return GroupSample(u, "SU")


def sample_orthogonal(n: int, stream: RngStream, size=None) -> GroupSample:
    """Haar sample from O(n), or a stack: real Gaussian, QR, sign-fixed
    diagonal."""
    if n < 1:
        raise ValueError("need n >= 1")
    q, r = np.linalg.qr(stream.generator().standard_normal(_shape(n, size)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return GroupSample(q, "O")


def sample_special_orthogonal(n: int, stream: RngStream, size=None) -> GroupSample:
    """O(n) samples with the last column negated where the determinant is
    -1."""
    o = sample_orthogonal(n, stream, size).matrix
    o[..., :, -1] *= np.sign(np.linalg.det(o))[..., None]
    return GroupSample(o, "SO")


def symplectic_j(two_n: int) -> np.ndarray:
    """The skew form in interleaved pairs: J[2i, 2i+1] = 1 = -J[2i+1, 2i]
    (0-based), all other entries zero."""
    if two_n % 2:
        raise ValueError("need even dimension")
    j = np.zeros((two_n, two_n))
    for i in range(0, two_n, 2):
        j[i, i + 1] = 1.0
        j[i + 1, i] = -1.0
    return j


def sample_compact_symplectic(n: int, stream: RngStream, size=None) -> GroupSample:
    """Haar sample from Sp(2n) ∩ U(2n), or a stack, as 2n x 2n complex
    matrices preserving symplectic_j(2n) (Mezzadri, Notices AMS 2007).

    A quaternionic Gaussian matrix (2x2 blocks [[a, b], [-conj(b),
    conj(a)]]) is orthonormalized by block Gram-Schmidt.  All updates are
    right-multiplications by 2x2 quaternion blocks, so the block structure
    — equivalent to preservation of J — survives; quaternion norms are
    real positive, so no phase fix is needed.  Two passes for stability.
    Each step is one batched 2x2-block product over the whole stack.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = stream.generator()
    a = _complex_gaussian(g, _shape(n, size))
    b = _complex_gaussian(g, _shape(n, size))
    u = np.zeros(a.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    u[..., 0::2, 0::2] = a
    u[..., 0::2, 1::2] = b
    u[..., 1::2, 0::2] = -b.conj()
    u[..., 1::2, 1::2] = a.conj()

    for j in range(n):
        cj = slice(2 * j, 2 * j + 2)
        for _ in range(2):
            for i in range(j):
                ci = slice(2 * i, 2 * i + 2)
                coef = _adjoint(u[..., :, ci]) @ u[..., :, cj]
                u[..., :, cj] -= u[..., :, ci] @ coef
        norm = np.sqrt((_adjoint(u[..., :, cj]) @ u[..., :, cj])[..., 0, 0].real)
        u[..., :, cj] /= norm[..., None, None]
    return GroupSample(u, "Sp")


_SAMPLERS = {
    "U": sample_unitary,
    "SU": sample_special_unitary,
    "O": sample_orthogonal,
    "SO": sample_special_orthogonal,
    "Sp": sample_compact_symplectic,
}


def sample_group(group: str, n: int, stream: RngStream, size=None) -> GroupSample:
    """Dispatch by group tag; n is the symplectic half-dimension for Sp.
    With size, one stack (size, d, d) drawn from the one stream."""
    try:
        sampler = _SAMPLERS[group]
    except KeyError:
        raise ValueError(f"unknown group tag {group!r}") from None
    return sampler(n, stream, size)


def mc_expectation(draw, samples: int, seed: int) -> McEstimate:
    """Mean and standard error of samples values of draw(stream, size).

    draw returns the values of a stack of size samples drawn from stream.
    Block b covers samples b*BLOCK up to (b+1)*BLOCK and is drawn from
    RngStream(seed, b); the last block is shorter when BLOCK does not
    divide samples.  The values land in one array in sample order and are
    reduced with numpy's pairwise mean, so the estimate depends only on
    (seed, samples).
    """
    samples, seed = check_int(samples, "samples"), check_int(seed, "seed")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    vals = np.empty(samples, dtype=complex)
    for start in range(0, samples, BLOCK):
        size = min(BLOCK, samples - start)
        vals[start:start + size] = draw(RngStream(seed, start // BLOCK), size)
    mean = vals.mean()
    var = float((np.abs(vals - mean) ** 2).sum()) / (samples - 1)
    return McEstimate(complex(mean), math.sqrt(var / samples), samples, seed)
