"""Same results: a committed corpus of exact and leading-order outcomes.

tests/data/golden.json holds seeded monomials (U/SU/O/SO/Sp, N 1..5,
degree <= 8) and irrep matrix-element products (U/O/Sp, N <= 3, total
weight <= 6), each with its exact and its leading-order outcome: the value
as a p/q string, or "!k" for the refusal messages[k], "Class: message".
The test recomputes every outcome and compares them byte for byte.

Each spec is a string of space-separated factors.  A monomial factor u_ij
is two letters, a = 1, b = 2, ...: "ab" is u_12, "AB" its conjugate.  An
irrep factor is the shape's parts, a dot, and the row and column letters:
"21.ab" is ρ^(2,1)_12, "21.AB" its conjugate.

After a deliberate change of results, rewrite the data file with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
import string
from pathlib import Path

from haarint import irreps, moments
from haarint.moments import UnsupportedIntegralError
from haarint.tensors import CostGateError

DATA = Path(__file__).parent / "data" / "golden.json"
SEED = 8110219
REFUSALS = (ValueError, UnsupportedIntegralError, CostGateError)

# the core/sqrt(r) values irreps._finish refuses (U(3), Sp(2), O(3))
SURDS = [("U", 3, "1.aa 1.ab 2.AB"), ("Sp", 2, "1.aa 1.ab 2.AB"),
         ("O", 3, "1.aa 1.ab 2.AE")]


def _letters(text: str) -> tuple:
    """Row, column and conjugation of two index letters."""
    return (string.ascii_lowercase.index(text[0].lower()) + 1,
            string.ascii_lowercase.index(text[1].lower()) + 1, text.isupper())


def _spell(i: int, j: int, conj: bool) -> str:
    text = string.ascii_lowercase[i - 1] + string.ascii_lowercase[j - 1]
    return text.upper() if conj else text


def monomial(group: str, text: str) -> moments.MonomialSpec:
    return moments.MonomialSpec(group, [_letters(t) for t in text.split()])


def irrep(group: str, n: int, text: str) -> irreps.RepMatrixElementSpec:
    factors = []
    for token in text.split():
        parts, idx = token.split(".")
        factors.append((tuple(map(int, parts)), *_letters(idx)))
    return irreps.RepMatrixElementSpec(group, n, factors)


def outcome(fn, *args, messages: list) -> str:
    try:
        return str(fn(*args))
    except REFUSALS as e:
        text = f"{type(e).__name__}: {e}"
        if text not in messages:
            messages.append(text)
        return f"!{messages.index(text)}"


def outcomes(monomials, irrep_specs, messages: list) -> tuple:
    """Each spec row with its exact and leading outcomes appended."""
    mono = [[group, n, text,
             outcome(moments.exact_integral, monomial(group, text), n, messages=messages),
             outcome(moments.asymptotic_leading, monomial(group, text), n, messages=messages)]
            for group, n, text in monomials]
    irr = [[group, n, text,
            outcome(irreps.integrate_irrep_exact, irrep(group, n, text), messages=messages),
            outcome(irreps.asymptotic_irrep, irrep(group, n, text), messages=messages)]
           for group, n, text in irrep_specs]
    return mono, irr


def generate(rng: random.Random):
    """Seeded spec rows.  Indices favour a small range so that many
    integrals are nonzero; half the U/SU monomials are balanced."""
    mono = []
    for _ in range(1000):
        group = rng.choice(["U", "SU", "O", "SO", "Sp"])
        n = rng.randint(1, 5)
        top = 2 * n if group == "Sp" else n
        span = rng.choice([min(top, 2), top])
        m = rng.randint(0, 8)
        conj = [rng.random() < 0.5 for _ in range(m)]
        if group in ("U", "SU") and rng.random() < 0.5:
            conj = [k < m // 2 for k in range(m)]
            rng.shuffle(conj)
        mono.append([group, n, " ".join(
            _spell(rng.randint(1, span), rng.randint(1, span), c) for c in conj)])
    shapes = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    irr = [[group, n, text] for group, n, text in SURDS]
    while len(irr) < 200:
        # three in four specs pair each factor with a conjugate of the same
        # module, often at the same entry, as nonzero integrals need
        paired = rng.random() < 0.75
        factors, budget = [], 3 if paired else 6
        while budget and (not factors or rng.random() < 0.5):
            lam = rng.choice([s for s in shapes if sum(s) <= budget])
            budget -= sum(lam)
            i, j, conj = rng.randint(1, 3 - paired), rng.randint(1, 3 - paired), rng.random() < 0.5
            factors.append((lam, i, j, conj))
            if paired:
                if rng.random() < 0.5:
                    i, j = rng.randint(1, 2), rng.randint(1, 2)
                factors.append((lam, i, j, not conj))
        rng.shuffle(factors)
        irr.append([rng.choice(["U", "O", "Sp"]), rng.randint(1, 3), " ".join(
            "".join(map(str, lam)) + "." + _spell(i, j, conj) for lam, i, j, conj in factors)])
    return mono, irr


def test_golden_outcomes():
    data = json.loads(DATA.read_text())
    messages = list(data["messages"])
    specs = ([row[:3] for row in data["monomials"]], [row[:3] for row in data["irreps"]])
    mono, irr = outcomes(*specs, messages)

    def show(row):
        return [messages[int(x[1:])] if str(x).startswith("!") else x for x in row]

    changed = [(show(old), show(new))
               for old, new in zip(data["monomials"] + data["irreps"], mono + irr) if old != new]
    assert not changed, changed[:5]
    assert any("not a perfect square" in m for m in messages)


if __name__ == "__main__":
    messages: list = []
    mono, irr = outcomes(*generate(random.Random(SEED)), messages)
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w") as fh:
        fh.write('{"messages": [\n')
        fh.write(",\n".join(json.dumps(m, ensure_ascii=False) for m in messages))
        for key, rows in (("monomials", mono), ("irreps", irr)):
            fh.write(f'\n], "{key}": [\n')
            fh.write(",\n".join(json.dumps(row, ensure_ascii=False) for row in rows))
        fh.write("\n]}\n")
