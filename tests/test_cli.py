"""Command-line surface: golden records, exit codes, reproducibility.

Each invocation runs in-process through main(argv); stdout carries one
JSON record (or list), so the tests parse and compare structurally.
"""

import argparse
import gc
import json
import math
import pathlib
import statistics
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings, strategies as st

from haarint import cli, entropy, irreps, su2, tableaux
from haarint.sampling import BLOCK

from helpers import emit_json_by_dumps

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# tableaux

def test_tableaux_listing(capsys):
    rec = run_json(capsys, "tableaux", "--shape", "2", "--N", "2",
                   "--group", "GL")
    assert rec["count"] == 3
    assert rec["tableaux"] == [[[1, 1]], [[1, 2]], [[2, 2]]]


def test_tableaux_empty_is_success(capsys):
    rec = run_json(capsys, "tableaux", "--shape", "1,1,1", "--N", "2")
    assert rec["count"] == 0 and rec["tableaux"] == []


def test_tableaux_alphabet_gated(capsys):
    # the empty shape has no entries, but the enumeration builds the whole
    # alphabet: N = 10^6 + 1 letters are refused before it is built
    start = time.perf_counter()
    code = cli.main(["tableaux", "--shape", "", "--N", "1000001"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == ("cost gate: tableaux: 1 x 1000001 = 1000001 alphabet "
                   "letters; capped at 1000000\n")
    assert time.perf_counter() - start < 0.5
    rec = run_json(capsys, "tableaux", "--shape", "", "--N", "3", "--group", "Sp")
    assert rec["count"] == 1 and rec["tableaux"] == [[]]


COLUMN_1500 = ",".join(["1"] * 1500)


@pytest.mark.parametrize("shape,n,rows", [
    ("1000", 1, [[1] * 1000]),  # RecursionError
    (COLUMN_1500, 1500, [[k] for k in range(1, 1501)]),  # RecursionError
    ("100000", 1, [[1] * 100000]),  # RecursionError after 10 s in the gate
    ("300000", 1, [[1] * 300000]),  # past 60 s in the gate
    ("50000,50000", 2, [[1] * 50000, [2] * 50000]),  # 9 s in the gate
], ids=["1000-N1", "1x1500-N1500", "100000-N1", "300000-N1", "50000x2-N2"])
def test_tableaux_long_shapes_are_listed(capsys, shape, n, rows):
    # one filling each, of up to 300 000 entries: no length limit other
    # than the entry gate, and no walk that recurses per cell
    start = time.perf_counter()
    code = cli.main(["tableaux", "--shape", shape, "--N", str(n)])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert rec["count"] == 1 and rec["tableaux"] == [rows]


@pytest.mark.parametrize("argv,err", [
    # the exact count, as before, found by Weyl's formula over the two rows
    (["--shape", "100000", "--N", "2"],
     "tableaux: 100001 x 100000 = 10000100000 tableau entries; capped at 1000000"),
    (["--shape", COLUMN_1500, "--N", "1500", "--group", "Sp"],
     f"tableaux: {math.comb(3000, 1500)} x 1500 = {1500 * math.comb(3000, 1500)} "
     f"tableau entries; capped at 1000000"),
    # the exact count takes more bits than the gate multiplies out: a bound
    (["--shape", "1000000", "--N", "1000"],
     "tableaux: at least 1000 x 1000000 = 1000000000 tableau entries (the exact "
     "count takes over 1048576 bits); capped at 1000000"),
    (["--shape", "100000000000000000000", "--N", "100000000000000000000"],
     f"tableaux: at least {10 ** 20} x {10 ** 20} = {10 ** 40} tableau entries (the "
     f"exact count takes over 1048576 bits); capped at 1000000"),
    # a count str() cannot print, once an error with exit code 2
    (["--shape", "10000", "--N", "100000"],
     "tableaux: tableau entries: 14555 decimal digits; str() prints at most 4300"),
    # long Sp rows, in well under a second: the GL(2) count refuses, then
    # the Sp count under the bits bound, or the GL count where the Sp count
    # would pass it (Sp(2) = SL(2), so both counts are k + 1)
    (["--shape", "61680", "--N", "1", "--group", "Sp"],
     "tableaux: 61681 x 61680 = 3804484080 tableau entries; capped at 1000000"),
    (["--shape", "65536", "--N", "1", "--group", "Sp"],
     "tableaux: 65537 x 65536 = 4295032832 tableau entries; capped at 1000000"),
], ids=["exact", "exact-Sp", "bound", "bound-huge", "digits", "Sp-row", "Sp-row-bits"])
def test_tableaux_gate_refuses_fast(capsys, argv, err):
    start = time.perf_counter()
    code = cli.main(["tableaux", *argv])
    out, printed = capsys.readouterr()
    assert time.perf_counter() - start < 5
    assert (code, out, printed) == (3, "", f"cost gate: {err}\n")


def test_tableaux_sp_gate_reads_the_sp_count(capsys):
    # the GL(8) count, 232848 x 16 entries, is over the cap; the Sp(8)
    # walk lists only its 26026 fillings, 416416 entries
    rec = run_json(capsys, "tableaux", "--shape", "4,4,4,4", "--N", "4", "--group", "Sp")
    assert rec["count"] == tableaux.sp_dimension((4, 4, 4, 4), 4) == 26026


def test_tableaux_bad_shape_usage_error(capsys):
    code, _ = run(capsys, "tableaux", "--shape", "two", "--N", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# integral

def test_integral_inline_exact(capsys):
    rec = run_json(capsys, "integral", "--group", "U", "--N", "3",
                   "--factors", "1,1,+;1,1,-")
    assert rec["exact"] == "1/3"
    assert rec["kind"] == "monomial"


def test_integral_odd_degree_zero(capsys):
    rec = run_json(capsys, "integral", "--group", "O", "--N", "4",
                   "--factors", "1,1;1,1;1,1")
    assert rec["exact"] == "0"


def test_integral_modes_all(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "group": "U", "N": 2,
        "factors": [{"i": 1, "j": 1, "conj": False},
                    {"i": 1, "j": 1, "conj": True}]}))
    rec = run_json(capsys, "integral", "--spec", str(spec), "--mode", "all",
                   "--seed", "9", "--samples", "2000")
    assert rec["exact"] == "1/2"
    assert rec["leading"] == "1/2"
    est = rec["mc"]
    assert abs(est["mean_re"] - 0.5) < 4 * est["stderr"] + 1e-9
    assert est["seed"] == 9 and est["n"] == 2000


def test_integral_trivial_special_orthogonal_all_modes(capsys):
    # SO(1) is the trivial group: both modes answer 1, at odd degree too
    rec = run_json(capsys, "integral", "--group", "SO", "--N", "1",
                   "--factors", "1,1", "--mode", "all", "--seed", "1",
                   "--samples", "10")
    assert rec["exact"] == "1" and rec["leading"] == "1"


def test_integral_irrep_spec_file(capsys, tmp_path):
    spec = tmp_path / "irrep.json"
    spec.write_text(json.dumps({
        "group": "U", "N": 2,
        "factors": [{"lambda": [2], "i": 1, "j": 1, "conj": False},
                    {"lambda": [2], "i": 1, "j": 1, "conj": True}]}))
    rec = run_json(capsys, "integral", "--spec", str(spec))
    assert rec["kind"] == "irrep"
    assert rec["exact"] == "1/3"
    assert rec["dropped_basis_vectors"] == 0


@pytest.mark.parametrize("group,lam,n", [("U", (2, 1), 3), ("O", (2, 1), 3), ("Sp", (2, 1), 2)])
@pytest.mark.parametrize("mode", ["exact", "leading", "all"])
def test_irrep_requests_read_weight_spaces(capsys, tmp_path, monkeypatch, group, lam, n, mode):
    # irrep factors have no inline form: a --spec request reads the weight
    # spaces of its entries, never a full basis outside Monte Carlo, and
    # prints the dropped count, 0, and the rank check of the full basis
    basis = irreps.build_irrep_basis(group, lam, n)
    rank = basis.rank
    if mode == "all":
        basis.float_vectors  # Monte Carlo's merge, read before the count starts
    else:
        def refuse(*args):
            raise AssertionError("full basis read for an exact or leading request")

        for merged in ("vectors", "norms2", "float_vectors"):
            monkeypatch.setattr(irreps.IrrepBasis, merged, property(refuse))
    extra = ["--samples", "50", "--seed", "3"] if mode == "all" else []

    def request(i, j):
        spec = tmp_path / "irrep.json"
        spec.write_text(json.dumps({"group": group, "N": n, "factors": [
            {"lambda": list(lam), "i": i, "j": j, "conj": c} for c in (False, True)]}))
        code = cli.main(["integral", "--spec", str(spec), "--mode", mode] + extra)
        return (code, *capsys.readouterr())

    irreps._weight_space.cache_clear()
    code, out, err = request(rank, 1)
    assert code == 0 and err == ""
    assert '"dropped_basis_vectors": 0,' in out
    if mode != "leading":
        assert json.loads(out)["exact"] == f"1/{rank}"
    assert irreps._weight_space.cache_info().currsize == len(
        {basis.weights[rank - 1], basis.weights[0]})
    assert request(rank + 1, 1) == (
        2, "", f"error: entry ({rank + 1},1) outside rank-{rank} module {lam}\n")


def test_integral_missing_n_usage(capsys):
    code, _ = run(capsys, "integral", "--group", "U", "--factors", "1,1,+")
    assert code == 2


def test_integral_cost_gate_exit(capsys):
    argv = ["integral", "--group", "U", "--N", "11", "--factors",
            ";".join(["1,1,+"] * 5 + ["1,1,-"] * 5)]
    assert cli.main(argv) == 3
    capsys.readouterr()


SCHUR_U2 = {"group": "U", "N": 2,
            "factors": [{"lambda": [1], "i": 1, "j": 1, "conj": False},
                        {"lambda": [1], "i": 1, "j": 1, "conj": True}]}


@pytest.mark.parametrize("argv,estimate", [
    (["integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,-",
      "--mode", "mc", "--samples", "1000000000"], "1000000000 x 5 = 5000000000"),
    (["integral", "--spec", "{spec}", "--mode", "mc", "--samples", "1000000000"],
     "1000000000 x 9 = 9000000000"),
    (["entropy", "--m", "1,2", "--n", "3", "--samples", "10000000"],
     "10000000 x 11 = 110000000"),
    (["sample", "--group", "U", "--N", "2", "--count", "1000000000"],
     "1000000000 x 4 = 4000000000"),
    (["sample", "--group", "Sp", "--N", "100000"], "1 x 40000000000 = 40000000000"),
    (["su2", "--factors", "2,0,0,+;2,0,0,-", "--nodes", "1001"], "1001 x 1001 = 1002001"),
    (["su2", "--factors", "2,0,0,+;2,0,0,-", "--nodes", "1000000000"],
     "1000000000 x 1000000000 = 1000000000000000000"),
    (["tableaux", "--shape", "9", "--N", "30"], "163011640 x 9 = 1467104760"),
    (["tableaux", "--shape", "3,3", "--N", "40", "--group", "Sp"], "1885572000 x 6 = 11313432000"),
])
def test_monte_carlo_sizes_refused_before_drawing(capsys, tmp_path, monkeypatch,
                                                  argv, estimate):
    # sample counts, matrix sizes, quadrature nodes and tableau listings are
    # refused from one work estimate before any draw, allocation,
    # enumeration or module basis build
    def refuse(*args):
        raise AssertionError("work done before the cost gate")

    monkeypatch.setattr(irreps, "build_irrep_basis", refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(tableaux, "_semistandard_fillings", refuse)
    unit = {"su2": "companion-matrix entries",
            "tableaux": "tableau entries"}.get(argv[0], "sampled numbers")
    spec = tmp_path / "irrep.json"
    spec.write_text(json.dumps(SCHUR_U2))
    argv = [str(spec) if a == "{spec}" else a for a in argv] + ["--seed", "1"]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 3 and out == "", err
    assert err.startswith("cost gate: ") and f"{estimate} {unit}" in err
    assert elapsed < 0.5


def test_irrep_cost_gate_before_bases(capsys, tmp_path, monkeypatch):
    # U(43) lambda=(2,1) is over the build gate, which exact requests pass
    # too; the refusal must come before the module bases (dim^2 work at
    # this N) are built
    def refuse(*args):
        raise AssertionError("basis built before the cost gate")

    monkeypatch.setattr(irreps, "build_irrep_basis", refuse)
    spec = tmp_path / "irrep.json"
    spec.write_text(json.dumps({
        "group": "U", "N": 43,
        "factors": [{"lambda": [2, 1], "i": 1, "j": 1, "conj": False},
                    {"lambda": [2, 1], "i": 1, "j": 1, "conj": True}]}))
    code = cli.main(["integral", "--spec", str(spec), "--mode", "exact"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == ("cost gate: module basis builds: work estimate 105952 "
                   "exceeds the cap 100000 for U(43)\n")


@pytest.mark.parametrize("mode", ["leading", "mc"])
def test_irrep_build_gate_before_bases(capsys, tmp_path, monkeypatch, mode):
    # leading-order and Monte Carlo requests are refused from one work
    # estimate of the module bases, before any is built
    def refuse(*args):
        raise AssertionError("basis built before the cost gate")

    monkeypatch.setattr(irreps, "build_irrep_basis", refuse)
    spec = tmp_path / "irrep.json"
    spec.write_text(json.dumps({
        "group": "O", "N": 4,
        "factors": [{"lambda": [3, 2], "i": 1, "j": 1, "conj": False},
                    {"lambda": [3, 2], "i": 1, "j": 1, "conj": True}]}))
    code = cli.main(["integral", "--spec", str(spec), "--mode", mode,
                     "--samples", "100", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == ("cost gate: module basis builds: work estimate 115200 "
                   "exceeds the cap 100000 for O(4)\n")


BIG_N = [(group, n, mode, lam) for group in ("U", "O", "Sp") for n in (10 ** 3, 10 ** 5)
         for mode in ("exact", "leading") for lam in ([1], [2], [1, 1])]


@pytest.mark.parametrize("group,n,mode,lam", BIG_N)
def test_big_n_irrep_requests_end_fast(capsys, tmp_path, group, n, mode, lam):
    # the module dimensions take weight(lam) factors at any N, and weight-1
    # O/Sp modules count towards the build gate: each request answers or
    # is refused, and neither takes O(N^2) steps
    spec = tmp_path / "irrep.json"
    spec.write_text(json.dumps({"group": group, "N": n, "factors": [
        {"lambda": lam, "i": 1, "j": 1, "conj": conj} for conj in (False, True)]}))
    start = time.perf_counter()
    code = cli.main(["integral", "--spec", str(spec), "--mode", mode])
    _, err = capsys.readouterr()
    assert code in (0, 3), err
    assert time.perf_counter() - start < 2


def test_big_n_o_tableaux_listing_ends_fast(capsys):
    # the O standardness test reads the letters of the first two columns,
    # not all N/2 letter pairs
    start = time.perf_counter()
    code, out = run(capsys, "tableaux", "--shape", "1", "--N", "100000", "--group", "O")
    assert time.perf_counter() - start < 2
    assert code == 0 and json.loads(out)["count"] == 100000


SP2 = {"group": "Sp", "N": 2}
PLAIN_AND_BAR = [{"i": 1, "j": 1, "conj": False}, {"i": 1, "j": 1, "conj": True}]


@pytest.mark.parametrize("command,payload", [
    ("integral", []),
    ("integral", {**SP2, "factors": [{"i": 1.5, "j": 1, "conj": False}, PLAIN_AND_BAR[1]]}),
    ("integral", {**SP2, "factors": [{"i": 1, "j": 1, "conj": "no"}, PLAIN_AND_BAR[1]]}),
    ("integral", {**SP2, "factors": [{"i": True, "j": 1, "conj": False}, PLAIN_AND_BAR[1]]}),
    ("integral", {"group": "U", "N": "2", "factors": PLAIN_AND_BAR}),
    ("integral", {"group": "U", "N": 2, "factors": {"i": 1}}),
    ("integral", {"group": "U", "N": 2, "factors": [
        {"lambda": [True], "i": 1, "j": 1, "conj": False},
        {"lambda": [1], "i": 1, "j": 1, "conj": True}]}),
    ("integral", {"group": "U", "N": 2, "factors": [
        {"lambda": "1", "i": 1, "j": 1, "conj": False},
        {"lambda": [1], "i": 1, "j": 1, "conj": True}]}),
    ("su2", []),
    ("su2", {"factors": [{"twice_j": 2, "twice_mp": 0, "twice_m": 0.0}]}),
], ids=["top-level-list", "float-index", "string-conj", "bool-index", "string-N",
        "factors-object", "bool-lambda-part", "string-lambda", "su2-top-level-list",
        "su2-float-index"])
def test_malformed_spec_file_usage_error(capsys, tmp_path, command, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code = cli.main([command, "--spec", str(spec), "--mode", "all", "--seed", "1",
                     "--samples", "10"] if command == "integral" else
                    [command, "--spec", str(spec)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")


@pytest.mark.parametrize("payload,message", [
    ({"group": "U", "N": 2, "factors": [{"i": 1}]}, "missing 'j' entry in the spec"),
    ({"N": 2, "factors": PLAIN_AND_BAR}, "missing 'group' entry in the spec"),
    ({"group": "U", "N": 2, "factors": [
        {"lambda": [1], "i": 1, "j": 1}, {"i": 1, "j": 1, "conj": True}]},
     "spec factors mix irrep entries (with 'lambda') and monomial entries (without)"),
    ({"group": "U", "N": 2, "factors": [1]}, "factors must be a list of objects"),
], ids=["factor-without-j", "no-group", "mixed-lambda", "int-factor"])
def test_malformed_spec_file_names_the_problem(capsys, tmp_path, payload, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code = cli.main(["integral", "--spec", str(spec)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["integral", "--group", "U", "--N", "2", "--factors", "1,1;1"],
     "bad factor '1'; expected i,j or i,j,+/-"),
    (["integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,x"],
     "conjugation mark must be + or -, got 'x'"),
    (["su2", "--factors", "2,0,0,+;2,0"],
     "bad factor '2,0'; expected twice_j,twice_mp,twice_m[,+/-]"),
    (["su2", "--factors", "2,0,0,?;2,0,0,-"],
     "conjugation mark must be + or -, got '?'"),
], ids=["integral-arity", "integral-mark", "su2-arity", "su2-mark"])
def test_inline_factor_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("option,text", [("--m", "2,,3"), ("--n", "2,x")])
def test_entropy_list_errors_name_the_option(capsys, option, text):
    argv = {"--m": "2", "--n": "3", option: text}
    code = cli.main(["entropy", "--m", argv["--m"], "--n", argv["--n"], "--seed", "1"])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: bad {option} list {text!r}; expected like 2,3\n")


@pytest.mark.parametrize("payload", [
    {"group": "U", "N": 2, "factors": [{"i": 3, "j": 1}, {"i": 3, "j": 1, "conj": True}]},
    {"group": "U", "N": 2, "factors": [{"i": 0, "j": 1}, {"i": 1, "j": 1, "conj": True}]},
    {"group": "Sp", "N": 1, "factors": [{"i": -1, "j": 1}, {"i": 1, "j": 1}]},
], ids=["past-the-end", "zero", "negative"])
@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_spec_file_indices_checked_in_every_mode(capsys, tmp_path, payload, mode):
    # the sampled path indexes the matrix directly: a negative index would
    # wrap to another entry, one past the end would raise IndexError
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code = cli.main(["integral", "--spec", str(spec), "--mode", mode, "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: index out of range 1..2") and "Traceback" not in err


def assert_clean_exit(capsys, argv):
    """A defined exit code: success, usage error or cost gate, never an
    internal assertion (4) and never a traceback."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


def fuzz(examples: int):
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz(200)
@given(st.data())
def test_monomial_integral_surface_fuzz(capsys, tmp_path, data):
    group = data.draw(st.sampled_from(["U", "SU", "O", "SO", "Sp"]))
    n = data.draw(st.integers(1, 3))
    index = st.integers(-1, 2 * n + 2)
    factors = data.draw(st.lists(st.tuples(index, index, st.booleans()), max_size=4))
    mode = data.draw(st.sampled_from(["exact", "leading", "mc", "all"]))
    argv = ["integral", "--mode", mode, "--seed", "1",
            "--samples", str(data.draw(st.integers(2, 20)))]
    if data.draw(st.booleans()):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"group": group, "N": n, "factors": [
            {"i": i, "j": j, "conj": c} for i, j, c in factors]}))
        argv += ["--spec", str(spec)]
    else:
        text = ";".join(f"{i},{j},{'-' if c else '+'}" for i, j, c in factors)
        argv += ["--group", group, "--N", str(n), f"--factors={text}"]
    assert_clean_exit(capsys, argv)


# shapes of weight <= 3, thrice as likely as the malformed ones
SHAPES = [[], [1], [2], [1, 1], [3], [2, 1], [1, 1, 1]] * 3 + [[0], [1, 2], [-1], [2, 0], [1.0]]


@fuzz(60)
@given(st.data())
def test_irrep_integral_surface_fuzz(capsys, tmp_path, data):
    # weighted towards specs that reach a value: small indices, N 2..3
    index = st.sampled_from([-1, 0, 4] + [1, 2, 3] * 3)
    factors = data.draw(st.lists(st.fixed_dictionaries({
        "lambda": st.sampled_from(SHAPES), "i": index, "j": index,
        "conj": st.booleans()}), min_size=1, max_size=3))
    spec = tmp_path / "irrep.json"
    spec.write_text(json.dumps({
        "group": data.draw(st.sampled_from(["U", "O", "Sp"] * 3 + ["SU"])),
        "N": data.draw(st.sampled_from([0, 1] + [2, 3] * 3)), "factors": factors}))
    assert_clean_exit(capsys, [
        "integral", "--spec", str(spec), "--seed", "1",
        "--mode", data.draw(st.sampled_from(["exact", "leading", "mc", "all"])),
        "--samples", str(data.draw(st.integers(2, 5)))])


def test_integral_unsupported_exit(capsys):
    code, _ = run(capsys, "integral", "--group", "SO", "--N", "2",
                  "--factors", "1,1,+;1,1,+")
    assert code == 2


def test_integral_mc_needs_seed(capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    code, _ = run(capsys, "integral", "--group", "U", "--N", "2",
                  "--factors", "1,1,+;1,1,-", "--mode", "mc")
    assert code == 2


def test_integral_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "13")
    rec = run_json(capsys, "integral", "--group", "U", "--N", "2",
                   "--factors", "1,1,+;1,1,-", "--mode", "mc",
                   "--samples", "500")
    assert rec["mc"]["seed"] == 13


TOP_SEED = 2 ** 64 - 1
MC_ARGV = ["integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,-",
           "--mode", "mc", "--samples", "100"]


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1, -(2 ** 64) + 1])
def test_a_seed_outside_64_bits_is_refused(capsys, monkeypatch, seed):
    # Philox reads a seed modulo 2^64, so 2^64 + 1 would repeat the draws
    # of seed 1 and -1 those of 2^64 - 1: both sources of a seed refuse it
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    for argv in (MC_ARGV, ["integral", "--group", "U", "--N", "2", "--factors",
                           "1,1,+;1,1,-"],
                 ["entropy", "--m", "2", "--n", "2", "--samples", "100"],
                 ["sample", "--group", "O", "--N", "2", "--count", "1"]):
        assert cli.main([*argv, "--seed", str(seed)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --seed must be in 0..2**64 - 1, got {seed}\n"
        monkeypatch.setenv(cli.SEED_ENV, str(seed))
        assert cli.main(list(argv)) == 2
        assert capsys.readouterr().err == (
            f"error: {cli.SEED_ENV} must be in 0..2**64 - 1, got {seed}\n")
        monkeypatch.delenv(cli.SEED_ENV)


def test_the_seed_range_ends_at_2_to_the_64(capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    for seed in (0, TOP_SEED):
        rec = run_json(capsys, *MC_ARGV, "--seed", str(seed))
        assert rec["seed"] == rec["mc"]["seed"] == seed
    monkeypatch.setenv(cli.SEED_ENV, str(TOP_SEED))
    assert run_json(capsys, *MC_ARGV)["mc"]["seed"] == TOP_SEED
    assert run_json(capsys, *MC_ARGV, "--seed", "1") != run_json(
        capsys, *MC_ARGV, "--seed", str(2 ** 64 - 2))


def test_the_last_entropy_row_seed_is_checked_before_any_draw(capsys, monkeypatch):
    # row i of the grid draws from seed + i: a grid whose last row would
    # pass 2^64 - 1 is refused before the first row draws anything
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    grid = ["entropy", "--m", "1,2", "--n", "2,3", "--samples", "100"]  # 4 rows
    with mock.patch.object(entropy, "mc_average_entropy") as mc:
        assert cli.main([*grid, "--seed", str(TOP_SEED - 2)]) == 2
        monkeypatch.setenv(cli.SEED_ENV, str(TOP_SEED - 2))
        assert cli.main(list(grid)) == 2
        monkeypatch.delenv(cli.SEED_ENV)
    assert mc.call_count == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the last row's seed, seed + 3, must be in 0..2**64 - 1, "
                   "got 18446744073709551616"] * 2
    records = run_json(capsys, *grid, "--seed", str(TOP_SEED - 3))
    assert [r["mc"]["seed"] for r in records] == [TOP_SEED - 3 + i for i in range(4)]


# ---------------------------------------------------------------------------
# su2

def test_su2_spec_file(capsys, tmp_path):
    spec = tmp_path / "bell.json"
    spec.write_text(json.dumps({"factors": [
        {"twice_j": 1, "twice_mp": 1, "twice_m": 1, "conj": False},
        {"twice_j": 1, "twice_mp": 1, "twice_m": 1, "conj": True}]}))
    rec = run_json(capsys, "su2", "--spec", str(spec), "--nodes", "32")
    assert abs(rec["closed"] - 0.5) < 1e-12
    assert rec["difference"] < 1e-10


def test_su2_inline_factors(capsys):
    rec = run_json(capsys, "su2", "--factors", "2,0,0,+;2,0,0,-")
    assert abs(rec["closed"] - 1 / 3) < 1e-12


def test_su2_bad_conjugation_mark(capsys):
    code, _ = run(capsys, "su2", "--factors", "2,0,0,x;2,0,0,-")
    assert code == 2


def test_su2_bad_nodes(capsys):
    code, _ = run(capsys, "su2", "--factors", "2,0,0,+;2,0,0,-",
                  "--nodes", "4")
    assert code == 2


@pytest.mark.parametrize("factors,spin", [
    # (75!)^4 under one square root: math.sqrt overflowed with a traceback
    ("150,0,0,+;150,0,0,-", 150),
    # each root fits, the third square root takes the product past the
    # float range: the closed form printed NaN
    ("100,0,0,+;100,0,0,+;100,0,0,-;100,0,0,-", 100),
    # a spin whose factorials alone would take minutes to compute
    ("2000000000,0,0,+;2000000000,0,0,-", 2000000000),
])
def test_su2_past_the_float_range_refused(capsys, factors, spin):
    start = time.perf_counter()
    code = cli.main(["su2", "--factors", factors])
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == (f"cost gate: su2: the spin-{spin}/2 factor takes the square-root "
                   f"prefactors past the float range ({sys.float_info.max})\n")
    # two of the spin-50 factors still fit: |D^50_00|^2 averages to 1/101
    rec = run_json(capsys, "su2", "--factors", "100,0,0,+;100,0,0,-")
    assert abs(rec["closed"] - 1 / 101) < 1e-12


def test_su2_phase_killed_profile_past_the_float_range(capsys):
    # the magnetic sums are 2 and 0, so the average is 0 before any profile
    # is evaluated; the quadrature's float-range gate refuses the spin-1025
    # profiles, so the closed value stands without its cross-check
    code, out = run(capsys, "su2", "--factors", "2050,2,0,+;2050,0,0,-")
    assert code == 0
    rec = json.loads(out)
    assert (rec["closed"], rec["quadrature"], rec["difference"]) == (0.0, None, None)
    assert '"quadrature": null,' in out and '"difference": null' in out
    assert rec["closed"] == su2.su2_integral_closed(su2.Su2MonomialSpec([
        su2.Su2Factor(2050, 2, 0), su2.Su2Factor(2050, 0, 0, True)]))


def test_su2_equal_spins_with_zero_sums_still_refused(capsys):
    # equal spins and zero magnetic sums: the closed form itself needs the
    # profiles, so the float-range gate refuses the request
    code = cli.main(["su2", "--factors", "2050,2,0,+;2050,2,0,-"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("cost gate: su2: the spin-2050/2 factor")


# ---------------------------------------------------------------------------
# entropy

def test_entropy_grid(capsys):
    recs = run_json(capsys, "entropy", "--m", "2", "--n", "2,3",
                    "--samples", "400", "--seed", "7")
    assert [r["n"] for r in recs] == [2, 3]
    assert recs[0]["exact"] == "1/3"
    assert recs[1]["exact"] == "9/20"
    for r in recs:
        assert abs(r["mc"]["mean_re"] - r["exact_float"]) \
            < 4 * r["mc"]["stderr"] + 1e-9


def test_entropy_exact_digit_boundary(capsys, monkeypatch):
    # n = 4937 is the last n for m = 2 whose exact value str() prints
    rec = run_json(capsys, "entropy", "--m", "2", "--n", "4937",
                   "--samples", "100", "--seed", "1")
    num, den = rec["exact"].split("/")
    assert len(num) == len(den) == 4299
    assert rec["exact_float"] == entropy.page_entropy_exact(2, 4937)

    def refuse(*args, **kwargs):
        raise AssertionError("drew before the digit check")

    monkeypatch.setattr(entropy, "mc_average_entropy", refuse)
    code = cli.main(["entropy", "--m", "2", "--n", "2,4938", "--samples", "100",
                     "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == ("cost gate: exact Page value for (m, n) = (2, 4938): 4303 "
                   "decimal digits; str() prints at most 4300\n")


def test_entropy_exact_value_once_per_row(capsys, monkeypatch):
    calls = []

    def counted(m, n):
        calls.append((m, n))
        return page_fraction(m, n)

    page_fraction = entropy.page_entropy_fraction
    monkeypatch.setattr(entropy, "page_entropy_fraction", counted)
    recs = run_json(capsys, "entropy", "--m", "2", "--n", "2,3",
                    "--samples", "400", "--seed", "7")
    assert calls == [(2, 2), (2, 3)]
    assert [r["exact_float"] for r in recs] == [1 / 3, 9 / 20]


def test_entropy_empty_grid_usage(capsys):
    code, _ = run(capsys, "entropy", "--m", "3", "--n", "2",
                  "--samples", "400", "--seed", "7")
    assert code == 2


# ---------------------------------------------------------------------------
# sample

def test_sample_special_unitary(capsys):
    rec = run_json(capsys, "sample", "--group", "SU", "--N", "2",
                   "--count", "3", "--seed", "1")
    assert len(rec["matrices"]) == 3
    for m in rec["matrices"]:
        assert abs(m["det_re"] - 1) < 1e-10 and abs(m["det_im"]) < 1e-10


def test_sample_negative_count_usage(capsys):
    code = cli.main(["sample", "--group", "U", "--N", "2", "--count", "-1",
                     "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--count" in err
    # N < 1 is a usage error too, even when nothing would be drawn
    for group, n in (("U", "-1"), ("Sp", "0"), ("O", "0")):
        code = cli.main(["sample", "--group", group, "--N", n, "--count", "0",
                         "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --N must be at least 1, got {n}\n"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_usage(capsys, threads):
    # refused like --N < 1, before any work, in every subcommand; it was
    # echoed into the record with exit 0
    for argv in (["tableaux", "--shape", "2", "--N", "2"],
                 ["sample", "--group", "U", "--N", "2", "--seed", "1"],
                 ["integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,-"]):
        code = cli.main(argv + ["--threads", threads])
        assert (code, *capsys.readouterr()) == (
            2, "", f"error: --threads must be at least 1, got {threads}\n")
    assert run_json(capsys, "tableaux", "--shape", "2", "--N", "2",
                    "--threads", "1")["threads"] == 1


def test_sample_reproducible_across_threads(capsys):
    a = run_json(capsys, "sample", "--group", "O", "--N", "3",
                 "--count", "2", "--seed", "4", "--threads", "1")
    b = run_json(capsys, "sample", "--group", "O", "--N", "3",
                 "--count", "2", "--seed", "4", "--threads", "8")
    a.pop("threads"), b.pop("threads")
    assert a == b


def test_mc_reproducible_across_threads(capsys):
    argv = ["integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,-",
            "--mode", "mc", "--samples", "300", "--seed", "6"]
    a = run_json(capsys, *argv, "--threads", "1")
    b = run_json(capsys, *argv, "--threads", "4")
    assert a["mc"] == b["mc"]


@pytest.mark.parametrize("samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 600])
def test_mc_block_boundaries_across_threads(capsys, tmp_path, samples):
    # Monte Carlo records depend on (seed, samples) alone: the same with
    # any --threads, and on a repeat, at and around a block boundary
    spec = tmp_path / "irrep.json"
    spec.write_text(json.dumps(SCHUR_U2))
    for argv in (["integral", "--group", "Sp", "--N", "2", "--factors",
                  "1,2,+;3,1,-;1,2,-;3,1,+", "--mode", "mc"],
                 ["integral", "--spec", str(spec), "--mode", "mc"],
                 ["entropy", "--m", "2", "--n", "2,3"]):
        if argv[0] == "entropy" and samples < 100:
            continue
        argv += ["--samples", str(samples), "--seed", "3"]
        records = []
        for threads in ("1", "8", "1"):
            out = run_json(capsys, *argv, "--threads", threads)
            for rec in out if isinstance(out, list) else [out]:
                assert rec.pop("threads") == int(threads)
                assert rec["mc"]["n"] == samples
            records.append(out)
        assert records[0] == records[1] == records[2]


def test_sample_matches_per_draw_samplers(capsys):
    # data/samples.json holds `haarint sample` output written when every
    # sampler drew one matrix per call; `sample` still draws matrix i alone
    # from RngStream(seed, i), so it gives the same matrices
    frozen = json.loads((DATA / "samples.json").read_text())["records"]
    for group, want in frozen.items():
        rec = run_json(capsys, "sample", "--group", group, "--N", str(want["N"]),
                       "--count", "2", "--seed", "11")
        for got, old in zip(rec["matrices"], want["matrices"], strict=True):
            assert got["index"] == old["index"]
            for key in ("det_re", "det_im"):
                assert abs(got[key] - old[key]) < 1e-12
            for key in ("matrix_re", "matrix_im"):
                assert np.abs(np.array(got[key]) - np.array(old[key])).max() < 1e-12


@fuzz(40)
@given(st.data())
def test_sample_surface_fuzz(capsys, data):
    assert_clean_exit(capsys, [
        "sample", "--group", data.draw(st.sampled_from(["U", "SU", "O", "SO", "Sp"])),
        "--N", str(data.draw(st.integers(-1, 4))),
        "--count", str(data.draw(st.integers(-2, 3))), "--seed", "1"])


# ---------------------------------------------------------------------------
# surface fuzz of the other commands: small arguments, malformed text

TEXT = st.sampled_from(["", ",", "x", "1,", "-1", "0", "1,2", "2,1", "3", "1,1,1", "2,2"])


@fuzz(40)
@given(st.data())
def test_tableaux_surface_fuzz(capsys, data):
    assert_clean_exit(capsys, [
        "tableaux", "--shape", data.draw(TEXT), "--N", str(data.draw(st.integers(-1, 4))),
        "--group", data.draw(st.sampled_from(["GL", "O", "Sp"]))])


@fuzz(40)
@given(st.data())
def test_su2_surface_fuzz(capsys, data):
    factor = st.tuples(st.integers(-1, 3), st.integers(-4, 4), st.integers(-4, 4),
                       st.sampled_from(["", ",+", ",-", ",x", ",1"]))
    factors = data.draw(st.lists(factor, min_size=1, max_size=3))
    assert_clean_exit(capsys, [
        "su2", "--factors=" + ";".join(f"{j},{a},{b}{mark}" for j, a, b, mark in factors),
        "--nodes", str(data.draw(st.integers(-1, 24)))])


@fuzz(20)
@given(st.data())
def test_entropy_surface_fuzz(capsys, data):
    assert_clean_exit(capsys, [
        "entropy", "--m=" + data.draw(TEXT), "--n=" + data.draw(TEXT), "--seed", "1",
        "--samples", str(data.draw(st.sampled_from([-1, 2, 100, 150])))])


# ---------------------------------------------------------------------------
# formats

def test_csv_flattening(capsys):
    code, out = run(capsys, "entropy", "--m", "2", "--n", "2,3",
                    "--samples", "400", "--seed", "7", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two rows
    header = lines[0].split(",")
    assert header[:3] == ["command", "m", "n"]
    assert "mc.mean_re" in header and "mc.seed" in header


def test_csv_stable_column_order(capsys):
    args = ("entropy", "--m", "2", "--n", "2", "--samples", "400",
            "--seed", "3", "--format", "csv")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_every_record_echoes_seed_and_caps(capsys):
    rec = run_json(capsys, "tableaux", "--shape", "1", "--N", "2")
    assert "seed" in rec and "threads" in rec
    rec = run_json(capsys, "integral", "--group", "Sp", "--N", "2",
                   "--factors", "1,1,+;1,1,-")
    assert rec["seed"] is None and rec["threads"] == 1


def test_unknown_command_usage(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


# every subcommand, CSV output, a usage error from the parser, one from a
# command, and a cost-gate refusal; then the argv that reach the top-level
# parser after a command (arguments left over) or without one, and each help
PARSER_ARGV = [
    ["tableaux", "--shape", "2,1", "--N", "3", "--group", "O"],
    ["tableaux", "--shape", "2", "--N", "2", "--format", "csv"],
    ["integral", "--group", "U", "--N", "3", "--factors", "1,1,+;1,1,-",
     "--mode", "all", "--seed", "4", "--samples", "200"],
    ["integral", "--group", "Sp", "--N", "2", "--factors", "1,1,+;1,1,-", "--format", "csv"],
    ["integral", "--mode", "nonsense"],
    ["integral", "--group", "U", "--N", "3"],
    ["su2", "--factors", "2,0,0,+;2,0,0,-"],
    ["entropy", "--m", "2", "--n", "2,3", "--samples", "100", "--seed", "5"],
    ["sample", "--group", "SO", "--N", "2", "--count", "2", "--seed", "6", "--threads", "2"],
    ["sample", "--group", "U", "--N", "1001", "--seed", "1"],
    ["tableaux", "--shape", "2", "--N", "2", "--threads", "0"],
    ["frobnicate"],
    ["tableaux", "--shape", "3", "--N", "2"],
    ["integral", "--bogus", "1"],
    ["integral", "extra", "--N", "2"],
    ["integral", "--", "x"],
    ["integral", "integral"],
    ["sample", "-h", "--bogus"],
    ["integral", "--format"],
    ["integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,-",
     "--mode", "mc", "--seed", "1", "--sa", "200"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["-h"],
    [],
    ["--seed", "1", "integral"],
]


def test_one_shared_parser_answers_as_fresh_ones(capsys, monkeypatch):
    # the cached parsers, one per command and each built once, give the
    # exit codes, stdout and stderr of fresh ones on two passes in two
    # orders
    monkeypatch.delenv(cli.SEED_ENV, raising=False)

    def answers(order):
        return {i: (cli.main(list(PARSER_ARGV[i])), *capsys.readouterr()) for i in order}

    order = range(len(PARSER_ARGV))
    with mock.patch.object(cli, "command_parser", cli.command_parser.__wrapped__):
        fresh = answers(order)
    assert {code for code, *_ in fresh.values()} == {0, 2, 3}
    cli.command_parser.cache_clear()
    assert answers(order) == fresh
    assert answers(reversed(order)) == fresh
    info = cli.command_parser.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (len(cli.COMMANDS),) * 3


def test_a_cached_parser_carries_nothing_between_requests(capsys, monkeypatch):
    # options, the seed environment and the help width of one request do
    # not reach the next one through the command's cached parser
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    argv = ["integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,-"]
    code, out = run(capsys, *argv, "--seed", "4", "--samples", "200",
                    "--threads", "2", "--format", "csv")
    assert code == 0 and out.splitlines()[1].endswith(",4,2")
    rec = run_json(capsys, *argv)
    assert (rec["seed"], rec["samples"], rec["threads"]) == (None, None, 1)

    mc = [*argv, "--mode", "mc", "--samples", "100"]
    monkeypatch.setenv(cli.SEED_ENV, "3")
    assert run_json(capsys, *mc)["seed"] == 3
    monkeypatch.delenv(cli.SEED_ENV)
    assert cli.main(list(mc)) == 2
    assert "needs --seed" in capsys.readouterr().err

    helps = []
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out = run(capsys, "integral", "-h")
        assert code == 0
        assert out == cli.command_parser.__wrapped__("integral").format_help()
        helps.append(out)
    assert len(helps[1].splitlines()) > len(helps[0].splitlines())


def test_csv_header_is_linear_in_the_keys(capsys):
    # 10^5 flattened keys over two records: the header keeps the
    # first-seen order (the second record's new key "b" before the rest of
    # its longer list), and the pass over the keys takes linear time
    half = 5 * 10 ** 4
    records = [{"a": list(range(half))}, {"b": -1, "a": list(range(2 * half - 1))}]
    start = time.perf_counter()
    cli._emit(records, "csv")
    assert time.perf_counter() - start < 1.0
    header, first, second = capsys.readouterr().out.splitlines()
    keys = [f"a.{i}" for i in range(half)] + ["b"] + [f"a.{i}" for i in range(half, 2 * half - 1)]
    assert len(keys) == 10 ** 5
    assert header.split(",") == keys
    assert first.split(",") == [str(i) for i in range(half)] + [""] * half
    assert second.split(",")[half] == "-1"


def test_a_request_builds_only_its_command_parser(capsys, monkeypatch):
    # a named command, and its help, build its one parser the first time
    # and none after; arguments left over add the full parser, which
    # builds all 5 subcommands' and the top level's
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.command_parser.cache_clear()
    argv = ["integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,-"]
    assert cli.main(list(argv)) == 0
    assert len(built) == 1
    built.clear()
    assert cli.main(list(argv)) == 0
    assert len(built) == 0
    for name in cli.COMMANDS:
        built.clear()
        assert cli.main([name, "-h"]) == 0
        assert len(built) == (name != "integral")
        built.clear()
        assert cli.main([name, "-h"]) == 0
        assert len(built) == 0
    built.clear()
    assert cli.main(["integral", "--bogus", "1"]) == 2
    assert len(built) == 6
    capsys.readouterr()
    built.clear()
    cli.build_parser()
    assert len(built) == 6


def _through_full_parser(name: str):
    """A stand-in for cli.command_parser that answers the whole request
    through build_parser().parse_args(argv), leaving nothing over."""
    def parse_known_args(rest):
        return cli.build_parser().parse_args([name, *rest]), []
    return mock.Mock(parse_known_args=parse_known_args)


# every option of the five commands, small values for them, and the tokens
# that end options, ask for help, go unrecognized or read as negative
ARGV_TOKENS = sorted({
    "--format", "--seed", "--samples", "--threads", "--shape", "--N",
    "--group", "--spec", "--factors", "--mode", "--nodes", "--m", "--n",
    "--count", "json", "csv", "0", "1", "2", "3", "2,1", "GL", "U", "SU",
    "O", "SO", "Sp", "exact", "leading", "mc", "all", "1,1,+;1,1,-",
    "2,0,0,+;2,0,0,-", "--", "-h", "x", "-1", "no-such-spec.json"})


@seed(1)
@fuzz(150)
@given(st.sampled_from(sorted(cli.COMMANDS)),
       st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, name, tokens):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    argv = [name, *tokens]
    answer = (cli.main(list(argv)), *capsys.readouterr())
    with mock.patch.object(cli, "command_parser", _through_full_parser):
        assert (cli.main(list(argv)), *capsys.readouterr()) == answer


def test_a_warm_request_leaves_little_cyclic_garbage(capsys):
    # unreachable objects one in-process request leaves for the collector,
    # counted with the collector off (all of them are young): a parser
    # built per request, or json.dumps(indent=...)'s per-call encoder
    # closures, would leave cycles
    argv = ["integral", "--group", "U", "--N", "3", "--factors", "1,1,+;1,1,-"]
    assert cli.main(list(argv)) == 0
    counts = []
    gc.disable()
    try:
        gc.collect()
        for _ in range(20):
            gc.collect(0)
            cli.main(list(argv))
            counts.append(gc.collect(0))
    finally:
        gc.enable()
    capsys.readouterr()
    assert statistics.median(counts) == 0, counts


JSON_SCALARS = (st.integers() | st.booleans() | st.none() | st.text()
                | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40)


@fuzz(200)
@given(st.lists(JSON_PAYLOADS, min_size=1, max_size=3))
@example([{"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0,
           "tiny": 5e-324, "\x00\u00e9\u2028\"": ["\x1f\ud7ff", True, False, None],
           "empty": [{}, [], ""]}])
@example([[], {}])
def test_json_output_is_json_dumps_text(capsys, records):
    emit_json_by_dumps(records)
    expected = capsys.readouterr().out
    cli._emit(records, "json")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("payload", [
    {"a": [1, np.int64(2)]}, {"b": {"c": 1j}}, [1.5, {"d": {1, 2}}]])
def test_json_output_refuses_what_json_refuses(capsys, payload):
    with pytest.raises(TypeError) as expected:
        emit_json_by_dumps([payload])
    with pytest.raises(TypeError) as refused:
        cli._emit([payload], "json")
    assert str(refused.value) == str(expected.value)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["haarint", "integral", "--group", "U", "--N", "2", "--factors", "1,1,+;1,1,-"],
    ["haarint"],
])
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", argv)
    by_default = (cli.main(), *capsys.readouterr())
    assert (cli.main(sys.argv[1:]), *capsys.readouterr()) == by_default
    code, _, err = by_default
    if argv == ["haarint"]:
        assert code == 2 and "required: command" in err
    else:
        assert code == 0
