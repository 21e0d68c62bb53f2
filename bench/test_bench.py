"""Tests of the benchmark's own oracles and checks (no haarint import).

    python3 -m pytest bench/test_bench.py -q

The oracles are checked against second, independent routes (Schur-Weyl
and Brauer dimension counts, a second dimension formula, small cases by
hand), and every output check is shown to reject a value perturbed by
one part in 10^9 and a wrong Monte Carlo mean.
"""

import math
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PERTURB = 1e-9


def partitions(m, largest=None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("group", ["U", "O", "Sp"])
def test_entry_moment_small_cases(group):
    d = {"U": 1, "O": 1, "Sp": 2}[group]
    for n in range(1, 6):
        # q = 1: a column is a unit vector in dimension n (2n for Sp)
        assert oracles.entry_moment(group, n, 1) == Fraction(1, d * n)
    if group != "Sp":
        for q in range(1, 6):  # the one-dimensional group is {±1} or the circle
            assert oracles.entry_moment(group, 1, q) == 1


def test_entry_moment_beta_integral():
    # |u_11|^2 on U(n) is Beta(1, n-1): E x^q = q! (n-1)! / (n+q-1)!
    for n in range(2, 8):
        for q in range(1, 6):
            want = Fraction(math.factorial(q) * math.factorial(n - 1), math.factorial(n + q - 1))
            assert oracles.entry_moment("U", n, q) == want
            assert oracles.entry_moment("Sp", n, q) == oracles.entry_moment("U", 2 * n, q)


@pytest.mark.parametrize("group", ["U", "O", "Sp"])
def test_entry_leading_is_the_limit(group):
    n = 10 ** 6
    for q in range(1, 5):
        ratio = oracles.entry_moment(group, n, q) / oracles.entry_leading(group, n, q)
        assert abs(ratio - 1) < Fraction(q * q * 10, n)


def test_standard_tableaux_sum_of_squares():
    for m in range(1, 8):
        assert sum(oracles.standard_tableaux(lam) ** 2 for lam in partitions(m)) == math.factorial(m)


def test_gl_dim_two_formulas_and_schur_weyl():
    for n in range(1, 6):
        for m in range(1, 6):
            total = 0
            for lam in partitions(m):
                d = oracles.gl_dim(lam, n)
                parts = list(lam) + [0] * max(0, n - len(lam))
                weyl = Fraction(1)
                for i in range(n):
                    for j in range(i + 1, n):
                        weyl *= Fraction(parts[i] - parts[j] + j - i, j - i)
                assert d == (weyl if len(lam) <= n else 0)
                total += oracles.standard_tableaux(lam) * d
            assert total == n ** m  # V^(x)m = sum f^lambda V_lambda


def test_o_and_sp_dims_known_values():
    assert [oracles.o_dim((k,), 3) for k in range(1, 5)] == [3, 5, 7, 9]
    assert oracles.o_dim((1, 1), 3) == 3 and oracles.o_dim((1, 1, 1), 3) == 1
    assert oracles.o_dim((2, 1), 3) == 5  # (2) twisted by the determinant
    assert oracles.o_dim((1,), 2) == 2 and oracles.o_dim((3,), 2) == 2
    assert oracles.o_dim((1, 1), 2) == 1
    assert oracles.o_dim((1, 1), 4) == 6 and oracles.o_dim((2, 1), 4) == 16
    assert oracles.sp_dim((1,), 2) == 4 and oracles.sp_dim((1, 1), 2) == 5
    assert oracles.sp_dim((2,), 2) == 10 and oracles.sp_dim((3,), 1) == 4
    assert oracles.sp_dim((2, 1), 2) == 16


def test_second_tensor_power_decompositions():
    # V(x)V = S^2_0 + Lambda^2 + trivial for O(n); S^2 + Lambda^2_0 + trivial for Sp(2n)
    for n in range(2, 9):
        assert oracles.o_dim((2,), n) + oracles.o_dim((1, 1), n) + 1 == n * n
    for n in range(1, 6):
        assert oracles.sp_dim((2,), n) + (oracles.sp_dim((1, 1), n) if n > 1 else 0) + 1 == 4 * n * n


def test_third_tensor_power_of_o3():
    # V^(x)3 for O(3): 27 = 7 + 2*5 + 3*3 (from (1) through traces) + 1
    assert oracles.o_dim((3,), 3) + 2 * oracles.o_dim((2, 1), 3) + 3 * oracles.o_dim((1,), 3) \
        + oracles.o_dim((1, 1, 1), 3) == 27


def test_schur_values():
    assert oracles.schur_exact("U", (2, 1), 3, (1, 2), (1, 2)) == Fraction(1, 8)
    assert oracles.schur_exact("U", (2, 1), 3, (1, 2), (2, 1)) == 0
    # leading terms of the exact values, as N grows
    for group in ("U", "O", "Sp"):
        for lam in [(1,), (2,), (1, 1), (2, 1)]:
            n = 400  # the Weyl products cost n^2
            ratio = oracles.schur_exact(group, lam, n, (1, 1), (1, 1)) / \
                oracles.schur_leading(group, lam, n, (1, 1), (1, 1))
            assert abs(ratio - 1) < Fraction(20, n)


def test_page_entropy():
    assert oracles.page_entropy(1, 7) == 0
    assert oracles.page_entropy(2, 2) == Fraction(1, 3)
    for m, n in [(2, 3), (3, 3), (2, 50)]:
        # the harmonic tail sum_{k=n+1}^{mn} 1/k tends to ln m
        assert abs(float(oracles.page_entropy(m, n)) - oracles.page_approx(m, n)) < 1.0 / n


# ---------------------------------------------------------------------------
# every check rejects a perturbed value


def bump(x):
    return x * (1 + PERTURB) if x else PERTURB


def test_value_check_rejects_perturbation():
    check = {"kind": "value", "field": "exact", "want": Fraction(3, 7)}
    assert run.check_output(check, [{"exact": "3/7"}]) is None
    assert run.check_output(check, [{"exact": str(Fraction(3, 7) * Fraction(10 ** 9 + 1, 10 ** 9))}])
    assert run.check_output(check, [{"exact": str(float(Fraction(3, 7)))}])


def test_su2_checks_reject_perturbation():
    check = {"kind": "su2", "want": 1 / 3}
    good = {"closed": 1 / 3, "quadrature": 1 / 3 - 2e-16}
    assert run.check_output(check, [good]) is None
    assert run.check_output(check, [dict(good, closed=bump(good["closed"]))])
    assert run.check_output(check, [dict(good, quadrature=bump(good["quadrature"]))])
    both = bump(1 / 3)
    assert run.check_output(check, [{"closed": both, "quadrature": both}])
    generic = {"kind": "su2", "want": None}
    assert run.check_output(generic, [{"closed": 0.117851130197758, "quadrature": 0.117851130197758}]) is None
    assert run.check_output(generic, [{"closed": 0.117851130197758,
                                       "quadrature": bump(0.117851130197758)}])


def mc(mean, stderr, n=600, seed=5):
    return {"mean_re": mean, "mean_im": 0.0, "stderr": stderr, "n": n, "seed": seed}


def test_mc_check_rejects_wrong_mean():
    check = {"kind": "mc", "field": "mc", "want": Fraction(1, 3), "samples": 600, "seed": 5}
    assert run.check_output(check, [{"mc": mc(1 / 3 + 0.01, 0.005)}]) is None
    assert run.check_output(check, [{"mc": mc(1 / 3 + 0.021, 0.005)}])      # 4.2 standard errors
    assert run.check_output(check, [{"mc": mc(1 / 3, 0.005, n=599)}])
    assert run.check_output(check, [{"mc": mc(1 / 3, 0.005, seed=6)}])
    assert run.check_output(check, [{"mc": mc(1 / 3 + 1e-9, 0.0)}])          # constant draws
    assert run.check_output(check, [{"mc": dict(mc(1 / 3, 0.005), mean_im=0.03)}])


def entropy_record(m, n, k, seed=40):
    want = oracles.page_entropy(m, n)
    return {"m": m, "n": n, "exact": str(want), "exact_float": float(want),
            "approx": oracles.page_approx(m, n), "mc": mc(float(want), 0.01, 300, seed + k)}


def test_entropy_check_rejects_perturbation():
    check = {"kind": "entropy", "pairs": [(2, 2), (2, 3)], "samples": 300, "seed": 40}
    rows = [entropy_record(2, 2, 0), entropy_record(2, 3, 1)]
    assert run.check_output(check, rows) is None
    for field in ("exact_float", "approx"):
        bad = [dict(rows[0]), rows[1]]
        bad[0][field] = bump(bad[0][field])
        assert run.check_output(check, bad), field
    bad = [rows[0], dict(rows[1], exact=str(Fraction(rows[1]["exact"]) * Fraction(10 ** 9 + 1, 10 ** 9)))]
    assert run.check_output(check, bad)
    bad = [rows[0], dict(rows[1], mc=mc(rows[1]["exact_float"] + 0.05, 0.01, 300, 41))]
    assert run.check_output(check, bad)
    assert run.check_output(check, rows[:1])


def identity(role, value, group="g", empty=False):
    return ({"kind": "identity", "group": group, "role": role, "empty_base": empty},
            [{"exact": str(value)}])


def test_identity_check_rejects_perturbation():
    base = Fraction(1, 12)
    terms = [Fraction(1, 30), Fraction(1, 20)]
    good = [identity("base", base), identity("relabel", base)] + [identity("term", t) for t in terms]
    assert run.check_identities(good) == []
    eps = Fraction(1, 10 ** 9)
    assert run.check_identities(good[:2] + [identity("term", terms[0] * (1 + eps)), good[3]])
    assert run.check_identities([good[0], identity("relabel", base * (1 + eps))] + good[2:])
    assert run.check_identities(good[1:])  # no base to compare with
    empty = [identity("term", Fraction(1, 2), "e", True), identity("term", Fraction(1, 2), "e", True)]
    assert run.check_identities(empty) == []
    assert run.check_identities(empty[:1] + [identity("term", Fraction(1, 2) + eps, "e", True)])


def test_repeat_check_rejects_a_changed_bit():
    req = workloads.Request(["integral", "--seed", "3", "--threads", "2"], {"kind": "ran"})
    twin = ["integral", "--seed", "3", "--threads", "1"]
    out = '{"mc": {"mean_re": 0.25}, "threads": 2}'
    checker = run.Checker()
    checker.add(req, req.argv, {"rc": 0, "out": out, "err": ""}, True, {})
    checker.add(req, twin, {"rc": 0, "out": out.replace('"threads": 2', '"threads": 1'),
                            "err": ""}, True, {})
    assert checker.errors == []
    checker.add(req, twin, {"rc": 0, "out": '{"mc": {"mean_re": 0.25000000000000006}}',
                            "err": ""}, True, {})
    assert checker.errors


def test_failed_requests_are_counted_not_hidden():
    req = workloads.Request(["integral"], {"kind": "ran"})
    checker = run.Checker()
    checker.add(req, req.argv, {"rc": 2, "out": "", "err": "boom"}, True, {})
    assert checker.failed == 1 and checker.errors == []
    checker.add(req, req.argv, {"rc": 2, "out": "", "err": "boom"}, False, {})
    assert checker.errors


# ---------------------------------------------------------------------------
# workloads


def _shape(wl):
    """What a workload costs, independent of the indices the seed picks:
    each argv with its factor indices and seeds blanked, plus the group,
    N and shapes of any spec file."""
    out = []
    for rnd in wl.rounds:
        for r in rnd:
            argv = list(r.argv)
            for flag in ("--seed", "--factors"):
                if flag in argv:
                    k = argv.index(flag) + 1
                    marks = [part.split(",")[-1] for part in argv[k].split(";")]
                    argv[k] = ";".join(m if m in ("+", "-") else "o" for m in marks) \
                        if flag == "--factors" else "*"
            if r.spec:
                argv.append(str((r.spec["group"], r.spec["N"],
                                 [f["lambda"] for f in r.spec["factors"]])))
            out.append(" ".join(argv))
    return sorted(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_work(name):
    make = workloads.WORKLOADS[name]
    a, b = make(1), make(2)
    assert [r.argv for rnd in a.rounds for r in rnd] == [r.argv for rnd in make(1).rounds for r in rnd]
    assert [r.argv for rnd in a.rounds for r in rnd] != [r.argv for rnd in b.rounds for r in rnd]
    assert len(a.rounds) == workloads.ROUNDS_PER_SESSION[name]
    assert _shape(a) == _shape(b)


def test_latencies_are_medians_over_repeated_rounds():
    keys = [("a", "b"), ("a", "b"), ("a", "b"), ("c",)]
    times = {0: [1.0, 5.0], 1: [3.0, 4.0], 2: [2.0, 9.0], 3: [7.0]}
    assert run.latency_samples(keys, times) == [2.0, 5.0, 7.0]
    assert run.latency_samples([("a",), ("b",)], {0: [1.0], 1: [2.0]}) == [1.0, 2.0]


def test_tail_percentile_leaves_ten_requests():
    for name, make in workloads.WORKLOADS.items():
        wl = make(0)
        n = sum(len(r) for r in {tuple(tuple(q.argv) for q in r): r for r in wl.rounds}.values())
        assert n >= 40, name
        pct = run.tail_percentile(n)
        rank = math.ceil(pct / 100 * n)
        assert n - rank >= run.TAIL_BEYOND
        assert n - math.ceil((pct + 1) / 100 * n) < run.TAIL_BEYOND


# ---------------------------------------------------------------------------
# host-speed calibration


def test_local_scales_follow_the_host_speed_near_each_span():
    import calibrate

    ref, w = calibrate.REF_S, calibrate.HALF_WINDOW_S
    # one kernel every 0.1 s; the host is twice as slow from t = 20 on
    samples = [(0.1 * k, ref if k < 200 else 2 * ref) for k in range(400)]
    f = calibrate.local_scales(samples, [(5.0, 5.1), (30.0, 30.0), (10.0, 30.0),
                                         (20.0 - w / 2, 20.0 - w / 2)])
    assert f[0] == pytest.approx(1.0) and f[1] == pytest.approx(0.5)
    # a long span is scaled by the mean speed over it and its margins:
    # from 10 - w to 20 at full speed, from 20 to 30 + w at half speed
    assert f[2] == pytest.approx((10 + w + 0.5 * (10 + w)) / (20 + 2 * w), rel=0.01)
    assert 0.5 < f[3] < 1.0
    # too few kernels nearby: the nearest MIN_SAMPLES ones are used
    sparse = [(0.0, ref)] * 3 + [(100.0, 2 * ref)] * 20
    g = calibrate.local_scales(sparse, [(1.0, 1.0)])[0]
    n = calibrate.MIN_SAMPLES
    assert g == pytest.approx((3 + 0.5 * (n - 3)) / n)
    # a stalled kernel counts as a moment of near-zero speed, not as a
    # huge slowdown
    stall = [(0.1 * k, ref) for k in range(9)] + [(0.9, 1000 * ref)]
    assert calibrate.local_scales(stall, [(0.0, 1.0)])[0] == pytest.approx(0.9001)
    with pytest.raises(ValueError):
        calibrate.local_scales([], [(0.0, 1.0)])


def test_sampler_takes_kernel_time_out_of_requests():
    import time

    import calibrate
    import worker

    sampler = calibrate.Sampler()
    sampler.start()
    try:
        def busy(argv):
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
            return 0
        res = worker._run(busy, [], sampler)
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert res["rc"] == 0
    # every kernel ran inside the request, and none of them is counted
    t0, t1 = res["span"]
    assert res["wall"] == pytest.approx(t1 - t0 - sampler.spent[0], abs=1e-9)
    # many short requests: none may lose a kernel it did not contain
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        short = [worker._run(lambda argv: sum(range(2000)) and 0, [], sampler)
                 for _ in range(20000)]
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert min(r["t"] for r in short) > 0
    assert res["t"] <= res["wall"]
    assert 0 < sampler.spent[0] and 0 < sampler.spent[1]


def test_running_time_leaves_out_steal_not_parallel_work():
    import calibrate

    assert calibrate.running(1.0, 0.8) == 0.8      # 0.2 s taken by the host
    assert calibrate.running(1.0, 1.9) == 1.0      # two threads busy


def test_kernel_is_fixed_work():
    import calibrate

    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.timed_kernel() > 0


# ---------------------------------------------------------------------------
# tracer


def test_tracer_self_times_add_up(tmp_path):
    import time
    import types

    import tracer

    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    ratlinalg = types.ModuleType("fakepkg.ratlinalg")
    moments = types.ModuleType("fakepkg.moments")

    def rank(g):
        time.sleep(0.002)
        return len(g)

    def weingarten_data(g):
        time.sleep(0.001)
        return ratlinalg.rank(g) + ratlinalg.rank(g)

    ratlinalg.rank = rank
    moments.weingarten_data = weingarten_data
    moments.rank_alias = rank       # a second binding of the same function
    mods = {"fakepkg": pkg, "fakepkg.ratlinalg": ratlinalg, "fakepkg.moments": moments}
    saved = {k: sys.modules.get(k) for k in mods}
    sys.modules.update(mods)
    try:
        t = tracer.Tracer()
        t.install(pkg)
        assert moments.rank_alias is ratlinalg.rank is not rank
        assert "moments.gram_matrix" in t.missing
        t.enabled = True
        start = time.perf_counter()
        assert moments.weingarten_data([[1, 0], [0, 1]]) == 4
        total = time.perf_counter() - start
        t.enabled = False
        moments.weingarten_data([[1]])          # not recorded
        tot = t.totals()
        assert tot["ratlinalg.rank.calls"] == 2 and tot["moments.weingarten_data.calls"] == 1
        assert tot["moments.gram_entries"] == 4
        spent = tot["ratlinalg.rank.self_s"] + tot["moments.weingarten_data.self_s"]
        assert 0 < spent <= total
        assert tot["ratlinalg.rank.self_s"] >= 0.004 and tot["moments.weingarten_data.self_s"] >= 0.001
        path = tmp_path / "spans.jsonl.gz"
        t.write(path)
        import gzip
        import json
        lines = gzip.open(path, "rt").read().splitlines()
        rows = [json.loads(x) for x in lines[1:]]
        assert len(rows) == 3
        root = [r for r in rows if r[1] == -1]
        assert len(root) == 1 and all(r[1] == root[0][0] for r in rows if r is not root[0])
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
