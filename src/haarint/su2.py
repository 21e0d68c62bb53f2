"""Wigner matrices for SU(2) and the closed-form monomial Haar integral.

Matrix elements of the spin-j representation factor through Euler angles
as a phase, a real rotation profile in the middle angle, and a second
phase.  Averaging a product of such elements over the group therefore
splits into two phase constraints (the signed magnetic indices must sum
to zero on each side) and a single middle-angle integral of a
trigonometric polynomial in the half angle, which reduces to exact Beta
values.  The Beta route is primary; an alternating binomial expansion of
the same integral runs alongside it and any disagreement is raised, not
patched over.

Half-integer spins are carried as doubled integers throughout, so all
bookkeeping stays in exact integer arithmetic; factorials are exact big
integers converted to floats only at the very end.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .moments import _spec_conj, _spec_factors, _spec_key
from .tableaux import check_int
from .tensors import CostGateError

__all__ = [
    "Su2Factor",
    "Su2MonomialSpec",
    "wigner_small_d",
    "wigner_D",
    "su2_integral_closed",
    "su2_integral_quadrature",
]


def _check_triple(twice_j: int, twice_mp: int, twice_m: int):
    if twice_j < 0:
        raise ValueError("twice_j must be non-negative")
    for tm in (twice_mp, twice_m):
        if abs(tm) > twice_j or (twice_j - tm) % 2:
            raise ValueError(
                f"magnetic index {tm}/2 invalid for spin {twice_j}/2")


@dataclass(frozen=True)
class Su2Factor:
    twice_j: int
    twice_mp: int  # row index m', doubled
    twice_m: int   # column index m, doubled
    conj: bool = False

    def __post_init__(self):
        for name in ("twice_j", "twice_mp", "twice_m"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        _check_triple(self.twice_j, self.twice_mp, self.twice_m)


@dataclass(frozen=True)
class Su2MonomialSpec:
    factors: tuple

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))
        for f in self.factors:
            if not isinstance(f, Su2Factor):
                raise TypeError("factors must be Su2Factor instances")

    def to_dict(self) -> dict:
        return {"factors": [{"twice_j": f.twice_j, "twice_mp": f.twice_mp,
                             "twice_m": f.twice_m, "conj": f.conj}
                            for f in self.factors]}

    @classmethod
    def from_dict(cls, d: dict) -> "Su2MonomialSpec":
        return cls([Su2Factor(*(check_int(_spec_key(f, k), k)
                                for k in ("twice_j", "twice_mp", "twice_m")),
                              _spec_conj(f)) for f in _spec_factors(d)])


def _small_d_root(twice_j: int, twice_mp: int, twice_m: int) -> int:
    """The positive integer under the square root that the profile's
    expansion (_small_d_terms) shares: (j+m)! (j-m)! (j+m')! (j-m')!.
    All four factorial arguments are integers by the parity constraint."""
    return math.prod(math.factorial((twice_j + s * t) // 2)
                     for t in (twice_m, twice_mp) for s in (1, -1))


def _small_d_terms(twice_j: int, twice_mp: int, twice_m: int):
    """Expansion of the middle-angle profile, over sqrt(_small_d_root), as
    Sum coeff * C^ec * S^es with C = cos(beta/2), S = sin(beta/2): a list
    of (Fraction coefficient, ec, es)."""
    jm = (twice_j + twice_m) // 2
    jpm = (twice_j - twice_mp) // 2
    shift = (twice_m - twice_mp) // 2  # m - m'
    terms = []
    for k in range(max(0, shift), min(jm, jpm) + 1):
        denom = (math.factorial(jm - k) * math.factorial(k)
                 * math.factorial(jpm - k) * math.factorial(k - shift))
        sign = -1 if (k - shift) % 2 else 1
        terms.append((Fraction(sign, denom),
                      twice_j - 2 * k + shift, 2 * k - shift))
    return terms


def _scales(factors) -> list:
    """sqrt(_small_d_root) of each factor, before any expansion; refused
    where a root, or the product of the square roots, passes the float
    range: the square root would overflow, the closed form print NaN."""
    top, product, scales = sys.float_info.max, 1.0, []
    for f in factors:
        # past twice_j = 2 max_exp a factorial argument k is over max_exp,
        # and k! >= 2^(k-1) is past the range before it is computed
        root = (_small_d_root(f.twice_j, f.twice_mp, f.twice_m)
                if f.twice_j <= 2 * sys.float_info.max_exp else math.inf)
        if root > top or product * math.sqrt(root) > top:
            raise CostGateError(
                f"su2: the spin-{f.twice_j}/2 factor takes the square-root "
                f"prefactors past the float range ({top})")
        scales.append(math.sqrt(root))
        product *= scales[-1]
    return scales


def _magnetic_sums(factors) -> tuple:
    """The signed sums of the doubled row and column indices, a conjugated
    factor counting negative: the Haar average vanishes unless both are 0."""
    signs = [-1 if f.conj else 1 for f in factors]
    return (sum(s * f.twice_mp for s, f in zip(signs, factors)),
            sum(s * f.twice_m for s, f in zip(signs, factors)))


def wigner_small_d(twice_j: int, twice_mp: int, twice_m: int,
                   beta: float) -> float:
    """Rotation profile d^j_{m'm}(beta) of the spin-j representation."""
    _check_triple(twice_j, twice_mp, twice_m)
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    return math.sqrt(_small_d_root(twice_j, twice_mp, twice_m)) * sum(
        float(coeff) * c ** ec * s ** es
        for coeff, ec, es in _small_d_terms(twice_j, twice_mp, twice_m))


def wigner_D(twice_j: int, twice_mp: int, twice_m: int, angles) -> complex:
    """Full matrix element: phase in the outer angles times the profile."""
    alpha, beta, gamma = angles
    phase = cmath.exp(-0.5j * (alpha * twice_mp + gamma * twice_m))
    return phase * wigner_small_d(twice_j, twice_mp, twice_m, beta)


def _half_angle_moment(ec: int, es: int) -> Fraction:
    """(1/2) Int_0^pi C^ec S^es sin(beta) d(beta), exact.

    Both exponents are even whenever the phase constraints already hold;
    the substitution x = S^2 turns the integral into Int_0^1 x^q (1-x)^p
    with p = ec/2, q = es/2.  Evaluated as the factorial ratio and as
    the alternating binomial sum; the two must agree identically.
    """
    assert ec % 2 == 0 and es % 2 == 0, \
        "phase constraints force even half-angle exponents"
    p, q = ec // 2, es // 2
    primary = Fraction(math.factorial(p) * math.factorial(q),
                       math.factorial(p + q + 1))
    binom = sum(Fraction((-1) ** i * math.comb(p, i), q + i + 1)
                for i in range(p + 1))
    if primary != binom:  # dual route, kept live on purpose
        raise AssertionError(
            f"half-angle moment mismatch at (p={p}, q={q}): "
            f"{primary} vs {binom}")
    return primary


def su2_integral_closed(spec: Su2MonomialSpec) -> float:
    """Haar average of a product of spin-j matrix elements.

    Zero unless the signed row indices and the signed column indices
    both sum to zero; otherwise the middle-angle integral of the
    expanded product, exact up to one final square root.  The product is
    multiplied out one factor at a time with its terms bucketed by their
    half-angle exponents, so its size stays polynomial in the factor count.
    """
    factors = spec.factors
    if not factors:
        return 1.0
    if any(_magnetic_sums(factors)):
        return 0.0
    prefactor = math.prod(_scales(factors))
    poly = {(0, 0): Fraction(1)}  # the product so far, by (ec, es)
    for f in factors:
        terms = _small_d_terms(f.twice_j, f.twice_mp, f.twice_m)
        product: dict = {}
        for (ec, es), coeff in poly.items():
            for c, e1, e2 in terms:
                key = (ec + e1, es + e2)
                product[key] = product.get(key, 0) + coeff * c
        poly = product
    total = sum((coeff * _half_angle_moment(ec, es)
                 for (ec, es), coeff in poly.items() if coeff), Fraction(0))
    return prefactor * float(total)


@functools.lru_cache(maxsize=8)
def _gauss_rule(nodes: int) -> tuple:
    """The Gauss-Legendre rule on [-1, 1] (leggauss), computed once per
    node count and handed out as read-only arrays, so no caller can change
    what the next one reads."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_nodes(a: float, b: float, rule) -> tuple:
    """The nodes and weights of a rule (_gauss_rule) scaled to [a, b]."""
    x, w = rule
    half = (b - a) / 2
    return a + half * (x + 1), half * w


def su2_integral_quadrature(spec: Su2MonomialSpec, nodes: int = 32) -> float:
    """Tensor-product Gauss-Legendre oracle for the same average.

    Integrates over the Euler box [0,4pi] x [0,pi] x [0,4pi] with weight
    sin(beta)/(32 pi^2).  The integrand is a product of a function of
    each angle separately, so the triple tensor sum factors into three
    one-dimensional sums; the value is identical to the full tensor
    product up to roundoff.
    """
    if nodes < 8:
        raise ValueError("need at least 8 nodes per dimension")
    factors = spec.factors
    if not factors:
        return 1.0
    rule = _gauss_rule(nodes)
    xa, wa = _gauss_nodes(0.0, 4 * math.pi, rule)
    xb, wb = _gauss_nodes(0.0, math.pi, rule)
    ka, kg = _magnetic_sums(factors)
    alpha_sum = np.dot(wa, np.exp(-0.5j * ka * xa))
    gamma_sum = np.dot(wa, np.exp(-0.5j * kg * xa))
    profile = np.ones_like(xb)
    c, s = np.cos(xb / 2), np.sin(xb / 2)
    # conjugation leaves the real profile alone
    for f, scale in zip(factors, _scales(factors)):
        d = scale * sum(float(coeff) * c ** ec * s ** es for coeff, ec, es
                        in _small_d_terms(f.twice_j, f.twice_mp, f.twice_m))
        profile = profile * d
    beta_sum = np.dot(wb, profile * np.sin(xb))
    value = alpha_sum * beta_sum * gamma_sum / (32 * math.pi ** 2)
    return float(value.real)
