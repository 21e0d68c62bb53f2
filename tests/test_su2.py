"""Spin-j matrix elements and the closed-form SU(2) monomial average.

Frozen expectations come from the explicit half-angle form of the
two-dimensional representation, the cosine profile of the spin-1 middle
element, Schur orthogonality (1/(2j+1) on the diagonal), and a
Gauss-Legendre quadrature oracle over the Euler box.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarint import cli, su2
from helpers import su2_integral_closed_enumerated, su2_integral_quadrature_fresh
from haarint.su2 import (
    Su2Factor,
    Su2MonomialSpec,
    su2_integral_closed,
    su2_integral_quadrature,
    wigner_D,
    wigner_small_d,
)


def small_d_matrix(twice_j: int, beta: float) -> np.ndarray:
    rng = range(twice_j, -twice_j - 1, -2)
    return np.array([[wigner_small_d(twice_j, a, b, beta) for b in rng]
                     for a in rng])


def schur_pair(twice_j, tmp, tm):
    return Su2MonomialSpec([Su2Factor(twice_j, tmp, tm, False),
                            Su2Factor(twice_j, tmp, tm, True)])


# ---------------------------------------------------------------------------
# profiles

def test_half_spin_profile():
    for beta in (0.0, 0.3, 1.1, 2.9, math.pi):
        c, s = math.cos(beta / 2), math.sin(beta / 2)
        assert abs(wigner_small_d(1, 1, 1, beta) - c) < 1e-15
        assert abs(wigner_small_d(1, 1, -1, beta) + s) < 1e-15
        assert abs(wigner_small_d(1, -1, 1, beta) - s) < 1e-15
        assert abs(wigner_small_d(1, -1, -1, beta) - c) < 1e-15


def test_spin_one_middle_is_cosine():
    for beta in (0.2, 0.8, 1.7, 3.0):
        assert abs(wigner_small_d(2, 0, 0, beta) - math.cos(beta)) < 1e-14


def test_spin_one_matrix_frozen():
    beta = 0.9
    c, s = math.cos(beta), math.sin(beta)
    r2 = math.sqrt(2)
    expected = np.array([
        [(1 + c) / 2, -s / r2, (1 - c) / 2],
        [s / r2, c, -s / r2],
        [(1 - c) / 2, s / r2, (1 + c) / 2],
    ])
    assert np.allclose(small_d_matrix(2, beta), expected, atol=1e-14)


def test_zero_angle_is_identity():
    for tj in (0, 1, 2, 3, 4, 5):
        assert np.allclose(small_d_matrix(tj, 0.0), np.eye(tj + 1),
                           atol=1e-15)


def test_profile_matrix_orthogonal():
    for tj in (1, 2, 3, 4):
        for beta in (0.4, 1.3, 2.6):
            d = small_d_matrix(tj, beta)
            assert np.allclose(d @ d.T, np.eye(tj + 1), atol=1e-10)


def test_triple_validation():
    with pytest.raises(ValueError):
        wigner_small_d(-1, 0, 0, 0.5)
    with pytest.raises(ValueError):
        wigner_small_d(2, 3, 0, 0.5)  # out of range
    with pytest.raises(ValueError):
        wigner_small_d(2, 1, 0, 0.5)  # parity mismatch
    with pytest.raises(ValueError):
        Su2Factor(1, 1, 0, False)


def test_factor_fields_must_be_integers():
    # a float spin was accepted and failed later inside the closed form
    for bad in ((2.0, 0, 0), (2, 0.0, 0), (2, 0, "0"), (True, 1, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            Su2Factor(*bad)
    f = Su2Factor(np.int64(2), np.int32(0), np.int64(0))
    assert (f.twice_j, f.twice_mp, f.twice_m) == (2, 0, 0)
    assert all(type(x) is int for x in (f.twice_j, f.twice_mp, f.twice_m))
    assert su2_integral_closed(Su2MonomialSpec([f, Su2Factor(2, 0, 0, True)])) == \
        su2_integral_closed(Su2MonomialSpec([Su2Factor(2, 0, 0), Su2Factor(2, 0, 0, True)]))


# ---------------------------------------------------------------------------
# full matrix elements

def test_half_spin_full_matrix():
    # explicit half-angle matrix of the two-dimensional representation
    a, b, g = 0.7, 1.9, 2.3
    c, s = math.cos(b / 2), math.sin(b / 2)
    expected = np.array([
        [c * np.exp(-0.5j * (a + g)), -s * np.exp(-0.5j * (a - g))],
        [s * np.exp(0.5j * (a - g)), c * np.exp(0.5j * (a + g))],
    ])
    got = np.array([[wigner_D(1, i, j, (a, b, g)) for j in (1, -1)]
                    for i in (1, -1)])
    assert np.allclose(got, expected, atol=1e-12)
    assert abs(np.linalg.det(got) - 1) < 1e-12


def test_spin_zero_is_constant():
    assert wigner_D(0, 0, 0, (1.0, 2.0, 3.0)) == 1.0


def test_phase_preserves_magnitude():
    for _ in range(20):
        tj = random.Random(5).choice([1, 2, 3])
        ang = (0.3, 1.1, 2.2)
        assert abs(abs(wigner_D(tj, tj, -tj, ang))
                   - abs(wigner_small_d(tj, tj, -tj, 1.1))) < 1e-14


def test_conjugation_identity():
    rng = random.Random(17)
    for _ in range(100):
        tj = rng.choice([0, 1, 2, 3, 4])
        tmp = rng.randrange(-tj, tj + 1, 2) if tj else 0
        tm = rng.randrange(-tj, tj + 1, 2) if tj else 0
        ang = (rng.uniform(0, 4 * math.pi), rng.uniform(0, math.pi),
               rng.uniform(0, 4 * math.pi))
        lhs = wigner_D(tj, tmp, tm, ang).conjugate()
        rhs = (-1) ** ((tmp - tm) // 2) * wigner_D(tj, -tmp, -tm, ang)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# closed-form averages

def test_schur_diagonal_both_paths():
    for tj in (1, 2, 3):
        for tmp in range(-tj, tj + 1, 2):
            for tm in range(-tj, tj + 1, 2):
                s = schur_pair(tj, tmp, tm)
                assert abs(su2_integral_closed(s) - 1 / (tj + 1)) < 1e-12
                assert abs(su2_integral_quadrature(s, 32)
                           - 1 / (tj + 1)) < 1e-10


def test_cross_spin_zero():
    s = Su2MonomialSpec([Su2Factor(2, 0, 0, False), Su2Factor(4, 0, 0, True)])
    assert su2_integral_closed(s) == 0.0
    assert abs(su2_integral_quadrature(s, 32)) < 1e-12


def test_phase_constraint_zeroes():
    # a single half-integer factor can never balance the phases
    assert su2_integral_closed(
        Su2MonomialSpec([Su2Factor(1, 1, 1, False)])) == 0.0
    assert su2_integral_closed(
        Su2MonomialSpec([Su2Factor(2, 2, 0, False),
                         Su2Factor(2, 0, 0, True)])) == 0.0


def test_trivial_averages():
    assert su2_integral_closed(Su2MonomialSpec([])) == 1.0
    assert su2_integral_closed(
        Su2MonomialSpec([Su2Factor(0, 0, 0, False)])) == 1.0
    assert abs(su2_integral_quadrature(
        Su2MonomialSpec([Su2Factor(0, 0, 0, False)]), 8) - 1.0) < 1e-12


def test_clebsch_gordan_square_values():
    # coupling two half spins to spin one: squared coefficients 1/2 and 1/3
    s = Su2MonomialSpec([Su2Factor(2, 2, 2, False), Su2Factor(1, -1, -1, False),
                         Su2Factor(1, 1, 1, True)])
    assert abs(su2_integral_closed(s) - 1 / 3) < 1e-14
    # mixed middle coupling is an irrational multiple: value -sqrt(2)/6
    s = Su2MonomialSpec([Su2Factor(2, 2, 0, False), Su2Factor(1, -1, 1, False),
                         Su2Factor(1, 1, 1, True)])
    v = su2_integral_closed(s)
    assert v < 0 and abs(18 * v * v - 1) < 1e-12
    assert abs(v - su2_integral_quadrature(s, 32)) < 1e-12


def _low_spin_grid():
    opts = ([(1, a, b, c) for a in (-1, 1) for b in (-1, 1)
             for c in (False, True)]
            + [(2, a, b, c) for a in (-2, 0, 2) for b in (-2, 0, 2)
               for c in (False, True)])
    for r in range(1, 5):
        for combo in itertools.combinations_with_replacement(opts, r):
            if sum(f[0] for f in combo) <= 4:
                yield Su2MonomialSpec([Su2Factor(*f) for f in combo])


def test_closed_matches_quadrature_exhaustively():
    # every monomial with all spins <= 1 and total degree <= 4
    count = nonzero = 0
    for spec in _low_spin_grid():
        c = su2_integral_closed(spec)
        assert abs(c - su2_integral_quadrature(spec, 24)) < 1e-10
        count += 1
        nonzero += c != 0.0
    assert count == 1475 and nonzero == 133


@pytest.mark.parametrize("nodes", [8, 32, 33, 100])
def test_cached_rule_gives_the_fresh_quadrature(nodes):
    # the rule computed once per node count and the hoisted half-angle
    # cosine and sine print the floats of a leggauss solved on every call
    for spec in _low_spin_grid():
        assert su2_integral_quadrature(spec, nodes) == \
            su2_integral_quadrature_fresh(spec, nodes)


def test_cached_rule_refuses_writes():
    for a in su2._gauss_rule(32):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_second_su2_request_reuses_the_rule(capsys):
    argv = ["su2", "--factors", "2,0,2,+;2,0,2,-", "--nodes", "37"]
    assert cli.main(argv) == 0
    before = su2._gauss_rule.cache_info()
    assert cli.main(argv) == 0
    after = su2._gauss_rule.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    out = capsys.readouterr().out
    assert out[:len(out) // 2] == out[len(out) // 2:]


def test_quadrature_node_convergence():
    s = schur_pair(3, 1, -1)
    assert abs(su2_integral_quadrature(s, 16)
               - su2_integral_quadrature(s, 48)) < 1e-12
    with pytest.raises(ValueError):
        su2_integral_quadrature(s, 7)


def test_spec_json_roundtrip():
    s = Su2MonomialSpec([Su2Factor(3, 1, -3, True), Su2Factor(2, 0, 2, False)])
    assert Su2MonomialSpec.from_dict(s.to_dict()) == s


@given(st.lists(st.tuples(st.sampled_from([0, 1, 2]), st.booleans()),
                min_size=1, max_size=3), st.randoms())
@settings(max_examples=40, deadline=None)
def test_closed_quadrature_property(shape, rnd):
    factors = []
    for tj, conj in shape:
        tmp = rnd.randrange(-tj, tj + 1, 2) if tj else 0
        tm = rnd.randrange(-tj, tj + 1, 2) if tj else 0
        factors.append(Su2Factor(tj, tmp, tm, conj))
    spec = Su2MonomialSpec(factors)
    assert abs(su2_integral_closed(spec)
               - su2_integral_quadrature(spec, 24)) < 1e-9


@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=5),
       st.booleans(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_closed_matches_enumeration_oracle(shape, balance, rnd):
    # the factor-at-a-time product prints, byte for byte, the float of the
    # full term enumeration; with balance, a sixth factor zeroes both phase
    # sums so the middle-angle integral is reached
    factors = [Su2Factor(tj, rnd.randrange(-tj, tj + 1, 2), rnd.randrange(-tj, tj + 1, 2),
                         conj) for tj, conj in shape]
    if balance:
        sign = lambda f: -1 if f.conj else 1
        a = -sum(sign(f) * f.twice_mp for f in factors)
        b = -sum(sign(f) * f.twice_m for f in factors)
        factors.append(Su2Factor(max(abs(a), abs(b)), a, b, False))
    spec = Su2MonomialSpec(factors)
    assert repr(su2_integral_closed(spec)) == repr(su2_integral_closed_enumerated(spec))


def test_closed_eight_factor_product():
    # the full term enumeration (11^8 combinations, tens of seconds) gives
    # this float
    spec = Su2MonomialSpec([Su2Factor(10, 0, 0, c) for c in [False] * 4 + [True] * 4])
    assert repr(su2_integral_closed(spec)) == "0.007923853892058805"
