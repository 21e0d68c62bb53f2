"""Seeded request lists for the three workloads.

A workload is a list of rounds; a round is a list of requests, each an
argv for ``haarint.cli.main`` plus the check its output must pass.  The
seed picks matrix indices, entry positions, Monte Carlo seeds and the
order of requests; it never changes which engines, module bases or
sample counts a round touches, so every seed costs the same work.

The checks name closed forms from ``oracles`` or identities between
requests that share a ``group`` key (row orthonormality and index
relabelling, see ``identity_groups``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import oracles

# exact_cold runs its cold round in COLD_REPEATS fresh processes and the
# O q=4 engine in one more; the other workloads run their rounds in one
# process per session
COLD_REPEATS = 3
ROUNDS_PER_SESSION = {"exact_cold": COLD_REPEATS + 1, "exact_warm": 3, "monte_carlo": 2}

MC_SAMPLES = 600
ENTROPY_SAMPLES = 300
IRREP_MC_SAMPLES = 250


@dataclass
class Request:
    argv: list
    check: dict
    spec: dict | None = None      # written to a file that argv names as "{spec}"


@dataclass
class Workload:
    setup: list        # untimed requests each process runs before its timed ones
    rounds: list       # list of lists of Request, all run timed
    verify: list       # untimed requests run after the timed ones
    # the fresh processes of one session, each (round indices, indices into
    # verify); None: one process runs every round, then all of verify
    processes: list | None = None

    def process_plan(self) -> list:
        if self.processes is None:
            return [(list(range(len(self.rounds))), list(range(len(self.verify))))]
        return self.processes


# ---------------------------------------------------------------------------
# monomials

def _dim(group: str, n: int) -> int:
    return 2 * n if group == "Sp" else n


def _factors(plain, conj) -> str:
    parts = [f"{i},{j},+" for i, j in plain] + [f"{i},{j},-" for i, j in conj]
    return ";".join(parts)


def _o_factors(entries) -> str:
    return ";".join(f"{i},{j}" for i, j in entries)


def _monomial_argv(group, n, text, mode):
    return ["integral", "--group", group, "--N", str(n), "--factors", text,
            "--mode", mode]


def _balanced(rng, group, n, q):
    """A monomial of q entries and q conjugate entries (U, SU, Sp) or 2q
    entries (O, SO) whose integral is generically nonzero: conjugate rows
    and columns are permutations of the plain ones (O: every row and
    column index appears an even number of times)."""
    d = _dim(group, n)
    if group in ("O", "SO"):
        rows = [rng.randint(1, d) for _ in range(q)] * 2
        cols = [rng.randint(1, d) for _ in range(q)] * 2
        rng.shuffle(rows)
        rng.shuffle(cols)
        return list(zip(rows, cols)), []
    plain = [(rng.randint(1, d), rng.randint(1, d)) for _ in range(q)]
    rows = [i for i, _ in plain]
    cols = [j for _, j in plain]
    rng.shuffle(rows)
    rng.shuffle(cols)
    return plain, list(zip(rows, cols))


def _relabel(rng, group, n, plain, conj):
    """Rows and columns renamed by permutations that lie in the group
    (Sp: permutations of the quaternionic index pairs)."""
    d = _dim(group, n)
    if group == "Sp":
        perm_r, perm_c = list(range(n)), list(range(n))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)

        def rmap(i):
            return 2 * perm_r[(i - 1) // 2] + (i - 1) % 2 + 1

        def cmap(j):
            return 2 * perm_c[(j - 1) // 2] + (j - 1) % 2 + 1
    else:
        perm_r, perm_c = list(range(1, d + 1)), list(range(1, d + 1))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)

        def rmap(i):
            return perm_r[i - 1]

        def cmap(j):
            return perm_c[j - 1]
    return ([(rmap(i), cmap(j)) for i, j in plain],
            [(rmap(i), cmap(j)) for i, j in conj])


def _text(group, plain, conj):
    if group in ("O", "SO"):
        return _o_factors(plain)
    return _factors(plain, conj)


def identity_groups(rng, group, n, q, key, mode="exact"):
    """Requests for one row-orthonormality group on the engine (group, q, n).

    base X has degree q-1 per side; term k is u_ik conj(u_ik) X (o_ik o_ik X
    for O/SO), k = 1..D, and the terms sum to X.  relabel is X with rows
    and columns renamed inside the group, equal to X.  At q = 1, X is the
    empty monomial, whose integral 1 the check supplies itself.
    Returns (base_requests, term_requests).
    """
    d = _dim(group, n)
    plain, conj = _balanced(rng, group, n, q - 1)
    i = rng.randint(1, d)
    base = []
    if q > 1:
        base.append(Request(_monomial_argv(group, n, _text(group, plain, conj), mode),
                            {"kind": "identity", "group": key, "role": "base"}))
        rp, rc = _relabel(rng, group, n, plain, conj)
        base.append(Request(_monomial_argv(group, n, _text(group, rp, rc), mode),
                            {"kind": "identity", "group": key, "role": "relabel"}))
    terms = []
    for k in range(1, d + 1):
        if group in ("O", "SO"):
            tp, tc = [(i, k), (i, k)] + plain, []
        else:
            tp, tc = [(i, k)] + plain, [(i, k)] + conj
        terms.append(Request(_monomial_argv(group, n, _text(group, tp, tc), mode),
                             {"kind": "identity", "group": key, "role": "term",
                              "empty_base": q == 1}))
    return base, terms


def entry_power(rng, group, n, q, mode):
    """|u_ij|^{2q} (o_ij^{2q}) at a random position: a closed form."""
    d = _dim(group, n)
    i, j = rng.randint(1, d), rng.randint(1, d)
    if group in ("O", "SO"):
        text = _o_factors([(i, j)] * (2 * q))
    else:
        text = _factors([(i, j)] * q, [(i, j)] * q)
    want = (oracles.entry_moment if mode == "exact" else oracles.entry_leading)(group, n, q)
    return Request(_monomial_argv(group, n, text, mode),
                   {"kind": "value", "field": mode, "want": want})


# ---------------------------------------------------------------------------
# irreducible modules

def _schur_spec(rng, group, lam, n, diagonal):
    dim = oracles.irrep_dim(group, lam, n)
    ij = (rng.randint(1, dim), rng.randint(1, dim))
    kl = ij
    if not diagonal and dim > 1:
        while kl == ij:
            kl = (rng.randint(1, dim), rng.randint(1, dim))
    spec = {"group": group, "N": n, "factors": [
        {"lambda": list(lam), "i": ij[0], "j": ij[1], "conj": False},
        {"lambda": list(lam), "i": kl[0], "j": kl[1], "conj": True}]}
    return spec, ij, kl


def schur_request(rng, group, lam, n, mode, diagonal=True, samples=None, seed=None):
    spec, ij, kl = _schur_spec(rng, group, lam, n, diagonal)
    argv = ["integral", "--spec", "{spec}", "--mode", mode]
    if mode == "mc":
        argv += ["--samples", str(samples), "--seed", str(seed), "--threads", "2"]
        check = {"kind": "mc", "field": "mc",
                 "want": oracles.schur_exact(group, lam, n, ij, kl),
                 "samples": samples, "seed": seed}
    else:
        fn = oracles.schur_exact if mode == "exact" else oracles.schur_leading
        check = {"kind": "value", "field": mode, "want": fn(group, lam, n, ij, kl)}
    return Request(argv, check, spec=spec)


SHAPES_UP_TO_3 = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def _o_shape_ok(lam, n):
    conj = oracles.conjugate_shape(lam)
    return (conj[0] if conj else 0) + (conj[1] if len(conj) > 1 else 0) <= n


# ---------------------------------------------------------------------------
# su2

def _su2_factor(tj, tmp, tm, conj):
    return f"{tj},{tmp},{tm},{'-' if conj else '+'}"


def su2_square(rng, twice_j):
    tmp = rng.randrange(-twice_j, twice_j + 1, 2)
    tm = rng.randrange(-twice_j, twice_j + 1, 2)
    text = ";".join([_su2_factor(twice_j, tmp, tm, False),
                     _su2_factor(twice_j, tmp, tm, True)])
    return Request(["su2", "--factors", text],
                   {"kind": "su2", "want": 1.0 / (twice_j + 1)})


def su2_triple(rng, j1, j2, j3):
    """D^{j1}_{a b} D^{j2}_{c d} conj(D^{j3}_{a+c, b+d}) with the sums chosen
    inside spin j3, so the phase constraints hold; checked against quadrature."""
    while True:
        a, b = rng.randrange(-j1, j1 + 1, 2), rng.randrange(-j1, j1 + 1, 2)
        c, d = rng.randrange(-j2, j2 + 1, 2), rng.randrange(-j2, j2 + 1, 2)
        if abs(a + c) <= j3 and abs(b + d) <= j3:
            break
    text = ";".join([_su2_factor(j1, a, b, False), _su2_factor(j2, c, d, False),
                     _su2_factor(j3, a + c, b + d, True)])
    return Request(["su2", "--factors", text], {"kind": "su2", "want": None})


# ---------------------------------------------------------------------------
# workloads

COLD_ENGINES = ([("U", q, n) for n in range(2, 11) for q in range(1, 4)]
                + [("U", 4, n) for n in range(2, 7)]
                + [("O", q, n) for n in range(2, 9) for q in range(1, 4)]
                + [("Sp", q, n) for n in range(1, 6) for q in range(1, 4)]
                + [("O", 4, 4)])


def _cold_irreps():
    out = []
    for n in range(2, 8):
        out += [("U", lam, n) for lam in SHAPES_UP_TO_3 if len(lam) <= n]
    for n in range(2, 5):
        out += [("O", lam, n) for lam in SHAPES_UP_TO_3 if _o_shape_ok(lam, n)]
    for n in range(1, 5):
        out += [("Sp", lam, n) for lam in SHAPES_UP_TO_3 if len(lam) <= n]
    # alternate exact and leading along a fixed order, so each seed asks
    # for the same modes on the same modules
    return [(g, lam, n, "exact" if k % 2 == 0 else "leading")
            for k, (g, lam, n) in enumerate(out)]


COLD_IRREPS = _cold_irreps()


def exact_cold(seed: int) -> Workload:
    """One request per engine and per module basis, ordered by degree.
    The order is not shuffled: each engine a process caches makes later
    work slower, so the order decides what every request pays for the heap
    before it.  A session runs this cold round in COLD_REPEATS fresh
    processes, the same requests each time, and the O q=4 engine, last in
    COLD_ENGINES, alone in one more."""
    rng = random.Random(f"exact_cold:{seed}")
    timed, verify = [], []   # timed holds (degree, request)
    heavy_verify = []        # indices into verify on the O q=4 engine
    for g, q, n in COLD_ENGINES:
        base, terms = identity_groups(rng, g, n, q, f"{g}{n}q{q}")
        k0 = rng.randrange(len(terms))
        timed.append((q, terms[k0]))
        first = len(verify)
        verify += base + terms[:k0] + terms[k0 + 1:]
        verify.append(entry_power(rng, g, n, q, "exact"))
        heavy_verify = list(range(first, len(verify)))
    heavy = timed.pop()[1]
    for g, lam, n, mode in COLD_IRREPS:
        timed.append((sum(lam), schur_request(rng, g, lam, n, mode,
                                              diagonal=rng.random() < 0.7)))
    # a stable sort keeps engines before modules at each degree
    timed.sort(key=lambda dr: dr[0])
    cold = [r for _, r in timed]
    light_verify = [k for k in range(len(verify)) if k not in heavy_verify]
    processes = ([([0], light_verify)] + [([k], []) for k in range(1, COLD_REPEATS)]
                 + [([COLD_REPEATS], heavy_verify)])
    return Workload([], [cold] * COLD_REPEATS + [[heavy]], verify, processes)


WARM_ENGINES = [("U", 3, 4), ("U", 5, 4), ("SU", 4, 3), ("O", 3, 3),
                ("O", 4, 3), ("SO", 5, 3), ("Sp", 1, 3), ("Sp", 2, 3)]
WARM_IRREPS = [("U", (2, 1), 3), ("U", (3,), 3), ("U", (1, 1, 1), 3),
                     ("U", (2, 1), 4),
                     ("O", (2, 1), 3), ("O", (3,), 3), ("O", (1, 1, 1), 3),
                     ("O", (2,), 4),
                     ("O", (2, 1), 4),
                     ("Sp", (2, 1), 2), ("Sp", (3,), 2), ("Sp", (3,), 1),
                     ("Sp", (1, 1, 1), 3), ("Sp", (1, 1), 2)]
WARM_SU2 = 16


def _warm_round(rng, r):
    reqs = []
    for g, n, qmax in WARM_ENGINES:
        for q in range(2, qmax + 1):
            key = f"{r}:{g}{n}q{q}"
            base, terms = identity_groups(rng, g, n, q, key)
            reqs += base + terms
            lkey = f"lead:{key}"
            lbase, _ = identity_groups(rng, g, n, q, lkey, mode="leading")
            reqs += lbase
            reqs.append(entry_power(rng, g, n, q, "exact"))
            reqs.append(entry_power(rng, g, n, q, "leading"))
    for mode in ("exact", "leading"):
        for g, lam, n in WARM_IRREPS:
            reqs.append(schur_request(rng, g, lam, n, mode, diagonal=rng.random() < 0.7))
    for k in range(WARM_SU2):
        if k % 2:
            reqs.append(su2_square(rng, 1 + k % 6))
        else:
            j1 = 1 + k % 3
            reqs.append(su2_triple(rng, j1, 2, j1 + 2))
    rng.shuffle(reqs)
    return reqs


def exact_warm(seed: int) -> Workload:
    rng = random.Random(f"exact_warm:{seed}")
    rounds = [_warm_round(rng, r) for r in range(ROUNDS_PER_SESSION["exact_warm"])]
    # the set-up pass builds every engine and module basis the table uses
    setup = []
    for g, n, qmax in WARM_ENGINES:
        for q in range(1, qmax + 1):
            setup.append(entry_power(rng, g, n, q, "exact"))
    for g, lam, n in WARM_IRREPS:
        setup.append(schur_request(rng, g, lam, n, "leading"))
    return Workload(setup, rounds, [])


# Each Monte Carlo check fails by chance about 6e-5 of the time, so a
# round asks few distinct stochastic questions and repeats them: monomials
# three times, irreps twice.  Repeats share seeds and must print the same.
MC_MONOMIALS = [("U", 2, 2), ("U", 8, 1), ("SU", 4, 2), ("O", 6, 1),
                ("SO", 3, 2), ("Sp", 3, 1)]
MC_ZEROS = [("U", 5), ("O", 4)]
MC_MONOMIAL_REPEATS = 3
MC_ENTROPY = [("2", "2,3"), ("1,3", "3")]
# modules whose rho_matrix costs about 1 ms per draw, so that every irrep
# request is slower than every monomial and entropy request
MC_IRREPS = [("U", (2,), 3), ("U", (3,), 2), ("U", (1,), 8), ("O", (2,), 3),
             ("Sp", (1,), 3)]
MC_IRREP_REPEATS = 2


def _mc_seed(rng):
    return rng.randrange(2 ** 31)


def _mc_argv(group, n, text, samples, seed, threads=2):
    return (_monomial_argv(group, n, text, "mc")
            + ["--samples", str(samples), "--seed", str(seed), "--threads", str(threads)])


def _entropy_pairs(ms, ns):
    return [(m, n) for m in map(int, ms.split(",")) for n in map(int, ns.split(","))
            if m <= n]


def _mc_round(rng):
    monomials = []
    for g, n, q in MC_MONOMIALS:
        d = _dim(g, n)
        i, j = rng.randint(1, d), rng.randint(1, d)
        text = (_o_factors([(i, j)] * (2 * q)) if g in ("O", "SO")
                else _factors([(i, j)] * q, [(i, j)] * q))
        s = _mc_seed(rng)
        monomials.append(Request(_mc_argv(g, n, text, MC_SAMPLES, s),
                                 {"kind": "mc", "field": "mc",
                                  "want": oracles.entry_moment(g, n, q),
                                  "samples": MC_SAMPLES, "seed": s}))
    for g, n in MC_ZEROS:
        i, j = rng.randint(1, n), rng.randint(1, n)
        k = rng.choice([c for c in range(1, n + 1) if c != j])
        text = _o_factors([(i, j), (i, k)]) if g == "O" else _factors([(i, j)], [(i, k)])
        s = _mc_seed(rng)
        monomials.append(Request(_mc_argv(g, n, text, MC_SAMPLES, s),
                                 {"kind": "mc", "field": "mc", "want": Fraction(0),
                                  "samples": MC_SAMPLES, "seed": s}))
    # one more copy with only --threads changed must print the same numbers
    twin_argv = list(monomials[0].argv)
    twin_argv[twin_argv.index("--threads") + 1] = "1"
    reqs = monomials * MC_MONOMIAL_REPEATS + [Request(twin_argv, dict(monomials[0].check))]
    for ms, ns in MC_ENTROPY:
        s = _mc_seed(rng)
        reqs.append(Request(["entropy", "--m", ms, "--n", ns, "--samples",
                             str(ENTROPY_SAMPLES), "--seed", str(s), "--threads", "2"],
                            {"kind": "entropy", "pairs": _entropy_pairs(ms, ns),
                             "samples": ENTROPY_SAMPLES, "seed": s}))
    for g, lam, n in MC_IRREPS:
        reqs += [schur_request(rng, g, lam, n, "mc", diagonal=rng.random() < 0.7,
                               samples=IRREP_MC_SAMPLES, seed=_mc_seed(rng))] * MC_IRREP_REPEATS
    rng.shuffle(reqs)
    return reqs


def monte_carlo(seed: int) -> Workload:
    rng = random.Random(f"monte_carlo:{seed}")
    first = _mc_round(rng)
    # later rounds repeat the first in another order: same seeds, same output
    rounds = [first]
    for _ in range(ROUNDS_PER_SESSION["monte_carlo"] - 1):
        rounds.append(rng.sample(first, len(first)))
    # warm-up: every irrep module basis is built once before timing
    setup = [schur_request(rng, g, lam, n, "mc", samples=2, seed=0) for g, lam, n in MC_IRREPS]
    for r in setup:
        r.check = {"kind": "ran"}
    return Workload(setup, rounds, [])


WORKLOADS = {"exact_cold": exact_cold, "exact_warm": exact_warm,
             "monte_carlo": monte_carlo}
