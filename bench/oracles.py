"""Values and checks the benchmark computes without the program.

Nothing here imports haarint: every expected value comes from a closed
form (moments of one matrix entry, Weyl and hook dimension formulas,
Page's harmonic sum) or from an identity the method must satisfy.  The
checks return an error string, or None when the output passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

MC_SIGMAS = 4.0
FLOAT_REL_TOL = 1e-11
FLOAT_ABS_TOL = 1e-13


# ---------------------------------------------------------------------------
# closed forms for one matrix entry

def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def entry_moment(group: str, n: int, q: int) -> Fraction:
    """E|u_ij|^{2q} (E o_ij^{2q} for O/SO); n is the half-dimension for Sp."""
    if group in ("U", "SU"):
        return Fraction(1, math.comb(n + q - 1, q))
    if group in ("O", "SO"):
        den = 1
        for k in range(q):
            den *= n + 2 * k
        return Fraction(double_factorial(2 * q - 1), den)
    if group == "Sp":
        return Fraction(1, math.comb(2 * n + q - 1, q))
    raise ValueError(group)


def entry_leading(group: str, n: int, q: int) -> Fraction:
    """The order-N^-q term of entry_moment."""
    if group in ("U", "SU"):
        return Fraction(math.factorial(q), n ** q)
    if group in ("O", "SO"):
        return Fraction(double_factorial(2 * q - 1), n ** q)
    if group == "Sp":
        return Fraction(math.factorial(q), (2 * n) ** q)
    raise ValueError(group)


# ---------------------------------------------------------------------------
# dimensions of irreducible modules

def conjugate_shape(lam) -> tuple:
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0])) if lam else ()


def standard_tableaux(lam) -> int:
    """f^lambda by the hook length formula."""
    lam = tuple(p for p in lam if p)
    conj = conjugate_shape(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(sum(lam)) // hooks


def gl_dim(lam, n: int) -> int:
    """Hook-content formula for the U(n) module lambda."""
    lam = tuple(p for p in lam if p)
    if len(lam) > n:
        return 0
    conj = conjugate_shape(lam)
    num = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j - 1) + (conj[j] - i - 1) + 1
            num *= Fraction(n + j - i, hook)
    assert num.denominator == 1
    return int(num)


def _weyl_product(ls, ms, *, squares: bool, linear: bool) -> Fraction:
    out = Fraction(1)
    r = len(ls)
    for i in range(r):
        for j in range(i + 1, r):
            if squares:
                out *= Fraction(ls[i] ** 2 - ls[j] ** 2, ms[i] ** 2 - ms[j] ** 2)
            else:
                out *= Fraction(ls[i] - ls[j], ms[i] - ms[j])
        if linear:
            out *= Fraction(ls[i], ms[i])
    return out


def o_dim(lam, n: int) -> int:
    """Dimension of the O(n) module labelled by lambda (first two columns
    summing to at most n), by the Weyl formula of SO(n).

    A shape with more than n/2 rows is the associate of the shape whose
    first column has n - lambda'_1 boxes; both have the same dimension.
    """
    lam = tuple(p for p in lam if p)
    conj = conjugate_shape(lam)
    if len(conj) >= 2 and conj[0] + conj[1] > n or (conj and conj[0] > n):
        raise ValueError(f"{lam} labels no O({n}) module")
    r = n // 2
    if 2 * len(lam) > n:
        cols = [n - conj[0]] + list(conj[1:])
        lam = tuple(p for p in conjugate_shape(cols) if p) if cols[0] else ()
    if r == 0:
        return 1
    parts = list(lam) + [0] * (r - len(lam))
    if n % 2:
        ls = [Fraction(2 * (parts[i] + r - i) - 1, 2) for i in range(r)]
        ms = [Fraction(2 * (r - i) - 1, 2) for i in range(r)]
        dim = _weyl_product(ls, ms, squares=True, linear=True)
    else:
        ls = [parts[i] + r - 1 - i for i in range(r)]
        ms = [r - 1 - i for i in range(r)]
        dim = _weyl_product(ls, ms, squares=True, linear=False)
        if parts[r - 1]:
            dim *= 2  # lambda and its sign-flipped twin restrict to two SO(n) modules
    assert dim.denominator == 1
    return int(dim)


def sp_dim(lam, n: int) -> int:
    """Dimension of the Sp(2n) module lambda (at most n rows), Weyl formula of C_n."""
    lam = tuple(p for p in lam if p)
    if len(lam) > n:
        raise ValueError(f"{lam} labels no Sp({2 * n}) module")
    parts = list(lam) + [0] * (n - len(lam))
    ls = [parts[i] + n - i for i in range(n)]
    ms = [n - i for i in range(n)]
    dim = _weyl_product(ls, ms, squares=True, linear=True)
    assert dim.denominator == 1
    return int(dim)


def irrep_dim(group: str, lam, n: int) -> int:
    if group == "U":
        return gl_dim(lam, n)
    if group == "O":
        return o_dim(lam, n)
    if group == "Sp":
        return sp_dim(lam, n)
    raise ValueError(group)


def schur_exact(group: str, lam, n: int, ij, kl) -> Fraction:
    """Integral of rho_ij * conj(rho_kl): delta_ik delta_jl / dim."""
    if tuple(ij) != tuple(kl):
        return Fraction(0)
    return Fraction(1, irrep_dim(group, lam, n))


def schur_leading(group: str, lam, n: int, ij, kl) -> Fraction:
    """Leading term of schur_exact: q! / (f^lambda D^q), D = n or 2n."""
    if tuple(ij) != tuple(kl):
        return Fraction(0)
    q = sum(lam)
    d = 2 * n if group == "Sp" else n
    return Fraction(math.factorial(q), standard_tableaux(lam) * d ** q)


# ---------------------------------------------------------------------------
# entanglement

def page_entropy(m: int, n: int) -> Fraction:
    """Page's mean entropy of the m-side marginal, m <= n, as an exact sum."""
    total = Fraction(0)
    for k in range(n + 1, m * n + 1):
        total += Fraction(1, k)
    return total - Fraction(m - 1, 2 * n)


def page_approx(m: int, n: int) -> float:
    return math.log(m) - m / (2 * n)


# ---------------------------------------------------------------------------
# checks

def check_fraction(label: str, got: str, want: Fraction):
    try:
        value = Fraction(got)
    except (TypeError, ValueError):
        return f"{label}: unparsable rational {got!r}"
    if value != want:
        return f"{label}: got {value}, expected {want}"
    return None


def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_ABS_TOL + FLOAT_REL_TOL * max(abs(a), abs(b))


def check_float(label: str, got, want: float):
    if not isinstance(got, (int, float)) or not close(float(got), want):
        return f"{label}: got {got!r}, expected {want!r}"
    return None


def check_mc(label: str, est: dict, want, samples: int, seed: int):
    """A Monte Carlo record against an independent value: the sample
    count and seed are echoed, and the mean lies within MC_SIGMAS
    standard errors of the value."""
    try:
        mean = complex(est["mean_re"], est["mean_im"])
        stderr = float(est["stderr"])
    except (KeyError, TypeError, ValueError):
        return f"{label}: malformed estimate {est!r}"
    if est.get("n") != samples or est.get("seed") != seed:
        return f"{label}: echoed n/seed {est.get('n')}/{est.get('seed')}, sent {samples}/{seed}"
    if not (stderr >= 0 and math.isfinite(stderr)):
        return f"{label}: stderr {stderr!r}"
    dev = abs(mean - complex(want))
    if stderr == 0:
        # every draw gave the same value, so it must be the exact one
        return None if close(dev, 0.0) else f"{label}: constant draws {mean}, expected {float(want)!r}"
    if dev > MC_SIGMAS * stderr:
        return (f"{label}: mean {mean} is {dev / stderr:.2f} standard errors "
                f"from {float(want)!r}")
    return None
