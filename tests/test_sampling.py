import math
import os
import subprocess
import sys

import numpy as np
import pytest

import haarint
from haarint import sampling
from haarint.entropy import random_pure_state
from haarint.sampling import (
    BLOCK, STACK_NUMBERS, BlockStack, McEstimate, RngStream, mc_expectation,
    sample_compact_symplectic, sample_group, sample_orthogonal,
    sample_special_orthogonal, sample_special_unitary, sample_unitary,
    symplectic_j,
)


def residual_unitary(m):
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_unitary_residuals(n):
    for i in range(5):
        u = sample_unitary(n, RngStream(7, i))
        assert residual_unitary(u) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_orthogonal_residuals(n):
    for i in range(5):
        o = sample_orthogonal(n, RngStream(8, i))
        assert np.isrealobj(o)
        assert residual_unitary(o) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_special_groups_det(n):
    for i in range(5):
        su = sample_special_unitary(n, RngStream(9, i))
        assert abs(np.linalg.det(su) - 1) < 1e-10
        assert residual_unitary(su) < 1e-12
        so = sample_special_orthogonal(n, RngStream(10, i))
        assert abs(np.linalg.det(so) - 1) < 1e-10
        assert residual_unitary(so) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symplectic_residuals(n):
    jmat = symplectic_j(2 * n)
    for i in range(5):
        u = sample_compact_symplectic(n, RngStream(11, i))
        assert residual_unitary(u) < 1e-12
        assert np.abs(u.T @ jmat @ u - jmat).max() < 1e-10


@pytest.mark.parametrize("group", ["U", "SU", "O", "SO", "Sp"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_stack_residuals(group, n):
    # one block's stack: every matrix is in the group, and no two matrices
    # of the stack repeat
    stack = sample_group(group, n, BlockStack(12, 3, BLOCK))
    d = sampling.dimension(group, n)
    assert stack.shape == (BLOCK, d, d)
    eye = np.eye(d)
    assert np.abs(stack.conj().swapaxes(-1, -2) @ stack - eye).max() < 1e-12
    det = np.linalg.det(stack)
    assert np.abs(np.abs(det) - 1).max() < 1e-10
    if group in ("SU", "SO"):
        assert np.abs(det - 1).max() < 1e-10
    if group in ("O", "SO"):
        assert np.isrealobj(stack)
    if group == "Sp":
        jmat = symplectic_j(d)
        assert np.abs(stack.swapaxes(-1, -2) @ jmat @ stack - jmat).max() < 1e-10
        assert np.abs(det - 1).max() < 1e-10
    if d > 1 or group == "U":  # O(1) is {1, -1}, SU(1) and SO(1) are {1}
        assert len({u.tobytes() for u in stack}) == BLOCK


@pytest.mark.parametrize("group", ["U", "SU", "O", "SO", "Sp"])
def test_stack_of_one_is_the_single_draw(group):
    # the same Gaussians and the same fixes, whether or not the draw is
    # stacked; not bit-equal for SU, whose phase fix numpy multiplies by a
    # scalar in one case and by a one-element array in the other, rounding
    # some entries differently (by up to about 3e-16)
    for i in range(10):
        one = sample_group(group, 3, RngStream(13, i))
        stacked = sample_group(group, 3, BlockStack(13, i, 1))
        assert one.shape == stacked.shape[1:]
        assert np.abs(stacked[0] - one).max() < 1e-12


def test_mc_blocks_in_sample_order():
    calls = []

    def draw(stack):
        calls.append((stack.blocks, stack.size))
        return np.concatenate([np.arange(count) + 1000.0 * st.stream
                               for st, count in stack.blocks])

    samples = 2 * BLOCK + 5
    est = mc_expectation(draw, samples, 4)
    blocks = [block for stack_blocks, _ in calls for block in stack_blocks]
    assert blocks == [(RngStream(4, 0), BLOCK), (RngStream(4, 1), BLOCK),
                      (RngStream(4, 2), 5)]
    assert sum(size for _, size in calls) == samples
    vals = np.concatenate([np.arange(size) + 1000.0 * st.stream for st, size in blocks])
    assert est.mean == vals.mean()
    assert est.stderr == pytest.approx(math.sqrt(vals.var(ddof=1) / samples), rel=1e-12)


@pytest.mark.parametrize("per_sample", [1, 10, 37, 200])
def test_mc_stacks_stay_within_the_bound(per_sample):
    # a request spanning at least three stacks: every stack holds whole
    # blocks, in order, within STACK_NUMBERS sampled numbers (or one block)
    calls = []

    def draw(stack):
        assert stack.size == sum(count for _, count in stack.blocks)
        calls.append(stack)
        return np.zeros(stack.size)

    per_stack = max(1, STACK_NUMBERS // (per_sample * BLOCK)) * BLOCK
    samples = 3 * per_stack + 7
    mc_expectation(draw, samples, 9, per_sample=per_sample)
    assert len(calls) == 4
    for stack in calls:
        assert stack.size * per_sample <= max(STACK_NUMBERS, BLOCK * per_sample)
    blocks = [block for stack in calls for block in stack.blocks]
    assert blocks == [(RngStream(9, b), min(BLOCK, samples - b * BLOCK))
                      for b in range(-(-samples // BLOCK))]


def test_mc_draws_a_last_block_of_one_sample_alone():
    # a stack never ends in a one-sample block of another stack's blocks
    calls = []
    mc_expectation(lambda stack: calls.append(stack.blocks) or np.zeros(stack.size),
                   2 * BLOCK + 1, 2)
    assert calls == [[(RngStream(2, 0), BLOCK), (RngStream(2, 1), BLOCK)],
                     [(RngStream(2, 2), 1)]]


@pytest.mark.parametrize("group", ["U", "SU", "O", "SO", "Sp"])
def test_a_stack_of_blocks_draws_the_blocks_bits(group):
    # the samplers and random_pure_state give each block of a stack the
    # bits of that block drawn alone from its own stream
    stack = BlockStack(14, 3, 2 * BLOCK + 9)
    alone = [BlockStack(14, st.stream, count) for st, count in stack.blocks]
    assert [(s.first, s.size) for s in alone] == [(3, BLOCK), (4, BLOCK), (5, 9)]
    g = RngStream(14, 5).generator()  # a block's parts are its stream's draws
    for part in alone[-1].gaussians(2, (3, 3)):
        assert np.array_equal(part, g.standard_normal((9, 3, 3)))
    assert np.array_equal(sample_group(group, 3, stack),
                          np.concatenate([sample_group(group, 3, s) for s in alone]))
    assert np.array_equal(random_pure_state(6, stack),
                          np.concatenate([random_pure_state(6, s) for s in alone]))


def test_symplectic_j_convention():
    j = symplectic_j(4)
    assert j[0, 1] == 1 and j[1, 0] == -1
    assert j[2, 3] == 1 and j[3, 2] == -1
    assert np.count_nonzero(j) == 4
    with pytest.raises(ValueError):
        symplectic_j(3)


def test_structural_residuals_bulk():
    # every sampler stays within tolerance over many draws
    for i in range(200):
        assert residual_unitary(sample_unitary(6, RngStream(3, i))) < 1e-12
        assert residual_unitary(sample_orthogonal(6, RngStream(4, i))) < 1e-12
    jmat = symplectic_j(6)
    for i in range(200):
        u = sample_compact_symplectic(3, RngStream(5, i))
        assert residual_unitary(u) < 1e-12
        assert np.abs(u.T @ jmat @ u - jmat).max() < 1e-10


def test_reproducibility():
    a = sample_unitary(4, RngStream(42, 17))
    b = sample_unitary(4, RngStream(42, 17))
    assert np.array_equal(a, b)
    c = sample_unitary(4, RngStream(42, 18))
    assert not np.array_equal(a, c)


def test_sample_group_dispatch():
    for group, n, d in [("U", 3, 3), ("SU", 3, 3), ("O", 3, 3), ("SO", 3, 3), ("Sp", 2, 4)]:
        one = sample_group(group, n, RngStream(1))
        assert isinstance(one, np.ndarray) and one.shape == (d, d)
        stack = sample_group(group, n, BlockStack(1, 0, 5))
        assert isinstance(stack, np.ndarray) and stack.shape == (5, d, d)
    with pytest.raises(ValueError):
        sample_group("X", 3, RngStream(1))


def test_numpy_random_loads_on_the_first_draw():
    # the sampler's annotations stay unevaluated, so importing the CLI
    # leaves numpy.random unloaded until something samples
    script = ("import sys\n"
              "import haarint.cli\n"
              "print('numpy.random' in sys.modules)\n"
              "from haarint.sampling import RngStream, sample_group\n"
              "sample_group('U', 2, RngStream(1))\n"
              "print('numpy.random' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(haarint.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("bad", [-1, 2 ** 64, 2 ** 64 + 1])
def test_streams_and_estimates_refuse_seeds_outside_64_bits(bad):
    # Philox would read them modulo 2^64, as the streams of other seeds
    with pytest.raises(ValueError, match="2\\*\\*64"):
        RngStream(bad)
    with pytest.raises(ValueError, match="stream index"):
        RngStream(1, bad)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        mc_expectation(lambda st: 1.0, 10, bad)
    top = sample_unitary(2, RngStream(2 ** 64 - 1, 2 ** 64 - 1))
    assert residual_unitary(top) < 1e-12


def test_mc_constant():
    est = mc_expectation(lambda st: 1.0, 10, 0)
    assert est.mean == 1.0 and est.stderr == 0.0 and est.n == 10


def test_mc_requires_two_samples():
    with pytest.raises(ValueError):
        mc_expectation(lambda st: 1.0, 1, 0)


@pytest.mark.parametrize("bad", [0, -1, 1.0, "2", True])
def test_mc_refuses_per_sample_below_one_or_not_an_int(bad):
    def draw(stack):
        raise AssertionError("drawn with a bad per_sample")

    with pytest.raises(ValueError, match="per_sample"):
        mc_expectation(draw, 10, 0, per_sample=bad)


def test_mc_deterministic_and_serializable():
    f = lambda st: abs(sample_unitary(2, st)[:, 0, 0]) ** 2
    a = mc_expectation(f, 500, 123)
    b = mc_expectation(f, 500, 123)
    assert a.mean == b.mean and a.stderr == b.stderr
    d = a.to_json_dict()
    assert set(d) == {"mean_re", "mean_im", "stderr", "n", "seed"}
    assert d["n"] == 500 and d["seed"] == 123


def test_mean_entry_moments_unitary():
    # E U11 = 0 by phase symmetry; E |U11|^2 = 1/N
    est = mc_expectation(
        lambda st: sample_unitary(3, st)[:, 0, 0], 4000, 21)
    assert abs(est.mean) < 4 * est.stderr
    est = mc_expectation(
        lambda st: abs(sample_unitary(3, st)[:, 0, 0]) ** 2,
        4000, 22)
    assert abs(est.mean - 1 / 3) < 4 * est.stderr
    est = mc_expectation(
        lambda st: abs(sample_unitary(2, st)[:, 0, 0]) ** 2,
        4000, 23)
    assert abs(est.mean - 1 / 2) < 4 * est.stderr


def test_mean_entry_moments_orthogonal():
    est = mc_expectation(
        lambda st: sample_orthogonal(4, st)[:, 0, 0], 4000, 24)
    assert abs(est.mean) < 4 * est.stderr
    est = mc_expectation(
        lambda st: sample_orthogonal(4, st)[:, 0, 0] ** 2,
        4000, 25)
    assert abs(est.mean - 1 / 4) < 4 * est.stderr


def test_mean_entry_moments_symplectic():
    # E |U11|^2 = 1/(2N) for Sp(2N) with 2N = 4
    est = mc_expectation(
        lambda st: abs(
            sample_compact_symplectic(2, st)[:, 0, 0]) ** 2,
        4000, 26)
    assert abs(est.mean - 1 / 4) < 4 * est.stderr


def test_fourth_moment_unitary():
    # E U11 U22 conj(U11) conj(U22) = 1/(N^2 - 1) at N = 3
    def f(st):
        u = sample_unitary(3, st)
        return u[:, 0, 0] * u[:, 1, 1] * np.conj(u[:, 0, 0]) * np.conj(u[:, 1, 1])

    est = mc_expectation(f, 20000, 27)
    assert abs(est.mean - 1 / 8) < 4 * est.stderr


def test_left_invariance_smoke():
    # two-sample KS between Re tr(U) and Re tr(gU) for a fixed g
    g = sample_unitary(3, RngStream(99, 0))
    n = 1500
    a = np.array([np.trace(sample_unitary(3, RngStream(31, i))).real
                  for i in range(n)])
    b = np.array([np.trace(g @ sample_unitary(3, RngStream(32, i))).real
                  for i in range(n)])
    a.sort()
    b.sort()
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / n
    fb = np.searchsorted(b, grid, side="right") / n
    d = np.abs(fa - fb).max()
    assert d < 1.95 * math.sqrt(2 / n)
