"""Same bits: a committed corpus of seeded Monte Carlo estimates.

tests/data/mc_golden.json holds seeded Monte Carlo records (mean_re,
mean_im and stderr, each as float.hex) for monomials (U/SU/O/SO/Sp),
irrep matrix-element products (U/O/Sp) and entropy averages.  The test
recomputes every record and compares the bits.

Sample counts sit on both sides of the BLOCK = 64 boundaries and of the
boundaries of a stack of blocks bounded at 8192 sampled numbers, which
for a sample of k numbers holds max(1, 128 // k) blocks: U(1) 4096
samples, U(2) 1600, U(3) 768, U(4) and Sp(2) 448, SO(5) 256, O(6) and
Sp(3) 192, one block from U(8) up.  Specs are spelled as in
test_golden.py.

After a deliberate change of results, rewrite the data file with

    PYTHONPATH=src python tests/test_mc_golden.py
"""

import json
from pathlib import Path

from haarint import entropy, irreps, moments

from test_golden import irrep, monomial

DATA = Path(__file__).parent / "data" / "mc_golden.json"

MONOMIALS = [  # group, N, spec, sample counts
    ("U", 1, "aa AA", [2, 4095, 4097]),
    ("U", 2, "ab AB", [2, 63, 64, 65, 1599, 1600, 1601, 5000]),
    ("U", 3, "aa bb AA BB", [63, 64, 65, 767, 768, 769, 1023, 1024, 1025]),
    ("U", 8, "aa AA", [63, 65, 600, 1025]),
    ("SU", 4, "ab cd AB CD", [64, 447, 448, 449, 1025]),
    ("SU", 2, "ab", [65, 1601]),
    ("O", 6, "ab ab ab ab", [2, 191, 192, 193, 600, 5000]),
    ("O", 3, "aa ab", [63, 65, 767, 769]),
    ("SO", 3, "aa aa bb bb", [64, 767, 768, 769, 1024]),
    ("SO", 5, "aa bc", [65, 255, 256, 257]),
    ("Sp", 2, "ab ca AB CA", [2, 63, 447, 448, 449, 1025]),
    ("Sp", 3, "ab AB", [64, 191, 192, 193, 5000]),
]
IRREPS = [  # group, N, spec, sample counts (k = 1 + d^2 + the module sizes)
    ("U", 3, "2.aa 2.AA", [2, 65, 255, 256, 257, 600]),  # k = 28: 4 blocks
    ("U", 2, "3.ab 3.AB", [63, 64, 65, 383, 384, 385]),  # k = 21: 6 blocks
    ("U", 8, "1.ab 1.AB", [65, 250]),  # k = 81: 1 block
    ("O", 3, "2.ab 2.AB", [65, 255, 257]),  # k = 28
    ("Sp", 3, "1.aa 1.AA", [2, 65, 127, 129, 250]),  # k = 49: 2 blocks
]
ENTROPY = [  # m, n, sample counts (k = 1 + mn)
    (2, 2, [100, 1100, 1599, 1600, 1601, 3000]),
    (2, 3, [100, 1151, 1152, 1153, 3000]),
    (1, 3, [100, 2047, 2049]),
    (3, 3, [767, 769, 1100]),
]


def _hex(est) -> list:
    return [est.mean.real.hex(), est.mean.imag.hex(), float(est.stderr).hex()]


def records() -> dict:
    """Every corpus row with its seed and its estimate's bits appended."""
    mono, irr, ent = [], [], []
    seed = 0
    for group, n, text, counts in MONOMIALS:
        for samples in counts:
            seed += 1
            est = moments.integrate_monomial_mc(monomial(group, text), n, samples, seed)
            mono.append([group, n, text, samples, seed, *_hex(est)])
    for group, n, text, counts in IRREPS:
        for samples in counts:
            seed += 1
            est = irreps.integrate_irrep_mc(irrep(group, n, text), samples, seed)
            irr.append([group, n, text, samples, seed, *_hex(est)])
    for m, n, counts in ENTROPY:
        for samples in counts:
            seed += 1
            est = entropy.mc_average_entropy(m, n, samples, seed)
            ent.append([m, n, samples, seed, *_hex(est)])
    return {"monomials": mono, "irreps": irr, "entropy": ent}


def test_mc_golden_records():
    data = json.loads(DATA.read_text())
    new = records()
    assert list(new) == list(data)
    for key, rows in new.items():
        changed = [(old, row) for old, row in zip(data[key], rows, strict=True) if old != row]
        assert not changed, (key, changed[:5])


if __name__ == "__main__":
    with open(DATA, "w") as fh:
        fh.write("{" + ",\n".join(
            f'"{key}": [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]"
            for key, rows in records().items()) + "}\n")
