"""Haar-distributed random matrices and Monte Carlo estimation.

Every sampler draws its Gaussians from a source, and the source fixes
the draw's shape: an RngStream — a counter-based substream fully
determined by (seed, stream index) — gives one d x d matrix, and a
BlockStack of consecutive Monte Carlo blocks, each block drawn from its
own stream, gives a stack (size, d, d).  Either source gives one
Gaussian array per part, then the sampler runs one QR and the phase,
sign or determinant fixes on the whole draw.

A Monte Carlo estimate is drawn in blocks of BLOCK samples: block b is
the Gaussians of RngStream(seed, b), the last block holding what is
left.  Consecutive blocks are drawn as one stack of blocks that holds at
most STACK_NUMBERS sampled numbers, and one block at least, so the QR,
the fixes and the evaluation run once per stack of blocks.  LAPACK
factors each matrix of a stack on its own, so a stack of blocks gives
the bits of its blocks drawn one by one.  The values land in one array
in sample order and are reduced with numpy's pairwise mean, so an
estimate depends only on (seed, samples).  Blocks replaced an earlier
one-stream-per-sample loop, so a given seed now gives other, equally
valid estimates than that loop did.  Nothing runs in parallel; the CLI's
--threads is echoed in each record and never changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tableaux import check_int
from .tensors import CostGateError

# samples per block: block b of an estimate is drawn from RngStream(seed, b)
BLOCK = 64
# sampled numbers (each sample's matrix entries and its value) one stack of
# blocks may hold: enough to amortize the per-call overhead, few enough
# that a stack's temporaries do not raise the peak memory
STACK_NUMBERS = 8192
# sampled numbers (each sample's matrix entries and its value) that one
# Monte Carlo estimate may hold: at most 10^7 values, 160 MB
MC_CAP = 2 * 10 ** 7


@dataclass(frozen=True)
class RngStream:
    """Counter-based substream; (seed, stream) pins the whole draw sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        check_seed(self.stream, "stream index")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def gaussians(self, parts: int, shape: tuple) -> list:
        """parts arrays of standard normals, each of shape, drawn one after
        the other."""
        g = self.generator()
        return [g.standard_normal(shape) for _ in range(parts)]


@dataclass(frozen=True)
class BlockStack:
    """size samples of consecutive Monte Carlo blocks, from block first on:
    block b holds BLOCK samples, the last one what is left, drawn from
    RngStream(seed, b)."""

    seed: int
    first: int
    size: int

    @property
    def blocks(self) -> list:
        """(stream, samples) of each block, in sample order."""
        return [(RngStream(self.seed, self.first + k // BLOCK), min(BLOCK, self.size - k))
                for k in range(0, self.size, BLOCK)]

    def gaussians(self, parts: int, shape: tuple) -> list:
        """parts arrays (size,) + shape: each block draws its parts from its
        own stream, as RngStream.gaussians does, into its rows."""
        out = [np.empty((self.size,) + shape) for _ in range(parts)]
        for start, (stream, count) in zip(range(0, self.size, BLOCK), self.blocks):
            g = stream.generator()
            for a in out:
                g.standard_normal(out=a[start:start + count])
        return out


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


def check_seed(seed: int, what: str = "seed") -> int:
    """seed itself, refused unless it is one 64-bit word of the Philox key:
    Philox would read any other int modulo 2**64, as another seed's stream."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{what} must be in 0..2**64 - 1, got {seed}")
    return seed


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def sample_unitary(n: int, stream: RngStream | BlockStack) -> np.ndarray:
    """Haar sample from U(n), or a stack from a BlockStack: complex Gaussian
    (the real part drawn first), QR, then divide out the phases of R's
    diagonal (plain QR alone is not Haar)."""
    if n < 1:
        raise ValueError("need n >= 1")
    re, im = stream.gaussians(2, (n, n))
    a = re + 1j * im
    a /= math.sqrt(2)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def sample_special_unitary(n: int, stream: RngStream | BlockStack) -> np.ndarray:
    u = sample_unitary(n, stream)
    return u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)[..., None, None]


def sample_orthogonal(n: int, stream: RngStream | BlockStack) -> np.ndarray:
    """Haar sample from O(n), or a stack from a BlockStack: real Gaussian,
    QR, sign-fixed diagonal."""
    if n < 1:
        raise ValueError("need n >= 1")
    q, r = np.linalg.qr(stream.gaussians(1, (n, n))[0])
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def sample_special_orthogonal(n: int, stream: RngStream | BlockStack) -> np.ndarray:
    """O(n) samples with the last column negated where the determinant is
    -1."""
    o = sample_orthogonal(n, stream)
    o[..., :, -1] *= np.sign(np.linalg.det(o))[..., None]
    return o


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


def sample_compact_symplectic(n: int, stream: RngStream | BlockStack) -> np.ndarray:
    """Haar sample from Sp(2n) ∩ U(2n), or a stack from a BlockStack, as
    2n x 2n complex matrices preserving symplectic_j(2n) (Mezzadri,
    Notices AMS 2007).

    A quaternionic Gaussian matrix (2x2 blocks [[a, b], [-conj(b),
    conj(a)]]) is orthonormalized by block Gram-Schmidt.  All updates are
    right-multiplications by 2x2 quaternion blocks, so the block structure
    — equivalent to preservation of J — survives; quaternion norms are
    real positive, so no phase fix is needed.  Two passes for stability.
    Each step is one batched 2x2-block product over the whole stack.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    a_re, a_im, b_re, b_im = stream.gaussians(4, (n, n))
    a = a_re + 1j * a_im
    b = b_re + 1j * b_im
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
    return u


_SAMPLERS = {
    "U": sample_unitary,
    "SU": sample_special_unitary,
    "O": sample_orthogonal,
    "SO": sample_special_orthogonal,
    "Sp": sample_compact_symplectic,
}


def sample_group(group: str, n: int, stream: RngStream | BlockStack) -> np.ndarray:
    """Dispatch by group tag; n is the symplectic half-dimension for Sp.
    One d x d matrix from an RngStream, a stack (size, d, d) from a
    BlockStack."""
    try:
        sampler = _SAMPLERS[group]
    except KeyError:
        raise ValueError(f"unknown group tag {group!r}") from None
    return sampler(n, stream)


def mc_expectation(draw, samples: int, seed: int, per_sample: int = 1) -> McEstimate:
    """Mean and standard error of samples values of draw(stack).

    draw returns the values of the stack.size samples of a BlockStack,
    drawn from it as one stack.  Block b covers samples b*BLOCK up to
    (b+1)*BLOCK and is drawn from RngStream(seed, b); the last block is
    shorter when BLOCK does not divide samples.  A stack holds as many
    consecutive blocks as fit in STACK_NUMBERS sampled numbers at
    per_sample each, one block at least; a last block of one sample is a
    stack of its own.  The values land in one array in sample order and
    are reduced with numpy's pairwise mean, so the estimate depends only
    on (seed, samples).
    """
    samples, seed = check_int(samples, "samples"), check_seed(check_int(seed, "seed"))
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if check_int(per_sample, "per_sample") < 1:
        raise ValueError(f"per_sample must be at least 1, got {per_sample}")
    step = BLOCK * max(1, STACK_NUMBERS // (per_sample * BLOCK))
    vals = np.empty(samples, dtype=complex)
    start = 0
    while start < samples:
        size = min(step, samples - start)
        if size > BLOCK and size % BLOCK == 1:
            # numpy's in-place complex multiply (as in the irrep draws)
            # rounds a one-element array without FMA, so a last block of
            # one sample keeps its bits only when it is drawn alone
            size -= 1
        vals[start:start + size] = draw(BlockStack(seed, start // BLOCK, size))
        start += size
    mean = vals.mean()
    var = float((np.abs(vals - mean) ** 2).sum()) / (samples - 1)
    return McEstimate(complex(mean), math.sqrt(var / samples), samples, seed)
