"""haarint benchmark: seeded CLI request lists through haarint.cli.main.

    python3 bench/run.py --workload exact_cold --seed 1 --seconds 30 --trace 0

Each workload (see workloads.py and README.md) is run as whole sessions,
started one after another while the next would end less than half a
session past ``--seconds``.  A session is one fresh worker process, or a
fixed few for exact_cold; each process is a single client sending its
requests in a closed loop.  Set-up-only processes are added until
``MIN_SETUPS`` set-up times are known.  Every time is scaled to the
reference host by the calibration kernels timed around it (calibrate.py).
Every output is checked against oracles.py.  The last line of stdout is
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (per round, from spans recorded around the program's public
functions) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, LAYERS  # noqa: E402

MIN_SETUPS = 5
TAIL_BEYOND = 10          # requests that must lie beyond the tail percentile
RUN_BUDGET_S = 170.0      # every process ends within this many seconds
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# worker processes

def _spawn(job: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (spawn time, its result)."""
    payload = json.dumps(job)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(payload, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return t_spawn, json.loads(out)


def _materialize(requests, spec_dir) -> list:
    """argv lists with every spec written to a file named by its content."""
    out = []
    for req in requests:
        argv = list(req.argv)
        if req.spec is not None:
            text = json.dumps(req.spec, sort_keys=True)
            path = os.path.join(spec_dir, hashlib.sha1(text.encode()).hexdigest()[:16] + ".json")
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    fh.write(text)
            argv[argv.index("{spec}")] = path
        out.append(argv)
    return out


# ---------------------------------------------------------------------------
# output checks

def _records(out: str) -> list:
    data = json.loads(out)
    return data if isinstance(data, list) else [data]


def check_output(check: dict, records: list):
    """Error string for one request's parsed records, or None."""
    kind = check["kind"]
    if kind == "ran":
        return None
    rec = records[0]
    if kind == "value":
        return oracles.check_fraction(check["field"], rec.get(check["field"]), check["want"])
    if kind == "mc":
        return oracles.check_mc("mc", rec.get("mc", {}), check["want"],
                                check["samples"], check["seed"])
    if kind == "su2":
        err = oracles.check_float("su2 closed vs quadrature", rec.get("closed"),
                                  rec.get("quadrature"))
        if err is None and check["want"] is not None:
            err = oracles.check_float("su2 closed", rec.get("closed"), check["want"])
        return err
    if kind == "entropy":
        if [(r.get("m"), r.get("n")) for r in records] != [tuple(p) for p in check["pairs"]]:
            return f"entropy rows {[(r.get('m'), r.get('n')) for r in records]}"
        # row k of the grid is sampled with seed + k
        for k, (r, (m, n)) in enumerate(zip(records, check["pairs"])):
            want = oracles.page_entropy(m, n)
            err = (oracles.check_fraction(f"entropy {m}x{n} exact", r.get("exact"), want)
                   or oracles.check_float(f"entropy {m}x{n} exact_float",
                                          r.get("exact_float"), float(want))
                   or oracles.check_float(f"entropy {m}x{n} approx", r.get("approx"),
                                          oracles.page_approx(m, n))
                   or oracles.check_mc(f"entropy {m}x{n} mc", r.get("mc", {}), want,
                                       check["samples"], check["seed"] + k))
            if err:
                return err
        return None
    if kind == "identity":
        value = rec.get("exact", rec.get("leading"))
        return None if isinstance(value, str) else f"identity member printed {value!r}"
    raise ValueError(f"unknown check kind {kind!r}")


def check_identities(items) -> list:
    """items: (check, records) of identity members.  Terms of a group sum
    to its base, and a relabelled base equals the base."""
    groups: dict = {}
    for check, records in items:
        rec = records[0]
        value = Fraction(rec["exact"] if "exact" in rec else rec["leading"])
        g = groups.setdefault(check["group"], {"base": [], "relabel": [], "term": [],
                                               "empty": False})
        g[check["role"]].append(value)
        g["empty"] |= bool(check.get("empty_base"))
    errors = []
    for key, g in groups.items():
        base = [Fraction(1)] if g["empty"] else g["base"]
        if len(base) != 1:
            errors.append(f"group {key}: {len(base)} base values")
            continue
        if g["term"] and sum(g["term"]) != base[0]:
            errors.append(f"group {key}: terms sum to {sum(g['term'])}, base is {base[0]}")
        for v in g["relabel"]:
            if v != base[0]:
                errors.append(f"group {key}: relabelled value {v}, base is {base[0]}")
    return errors


def _strip_threads(value):
    if isinstance(value, dict):
        return {k: _strip_threads(v) for k, v in value.items() if k != "threads"}
    if isinstance(value, list):
        return [_strip_threads(v) for v in value]
    return value


def _argv_key(argv) -> tuple:
    argv = list(argv)
    if "--threads" in argv:
        k = argv.index("--threads")
        del argv[k:k + 2]
    return tuple(argv)


class Checker:
    """Collects every request's output and judges them."""

    def __init__(self):
        self.errors: list[str] = []
        self.failed = 0
        self.seen: dict = {}       # argv without --threads -> stripped records

    def add(self, req, argv, res, timed: bool, identity_items: dict):
        """Judge one request; identity members go to ``identity_items``,
        once per group, role and argv however often the session repeats it."""
        if res["rc"] != 0:
            if timed:
                self.failed += 1
            else:
                self.errors.append(f"untimed request {argv} exited {res['rc']}")
            print(f"request {argv} exited {res['rc']}: {res['err'].strip()}", file=sys.stderr)
            return
        try:
            records = _records(res["out"])
        except json.JSONDecodeError:
            self.errors.append(f"{argv}: output is not JSON")
            return
        err = check_output(req.check, records)
        if err:
            self.errors.append(f"{argv}: {err}")
        key = _argv_key(argv)
        if req.check["kind"] == "identity":
            identity_items.setdefault((req.check["group"], req.check["role"], key),
                                      (req.check, records))
        stripped = _strip_threads(records)
        if key in self.seen and self.seen[key] != stripped:
            self.errors.append(f"{argv}: output differs from an earlier identical request")
        self.seen.setdefault(key, stripped)


# ---------------------------------------------------------------------------
# metrics

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_samples(round_keys: list, round_times: dict) -> list:
    """One latency per distinct timed request of a session.  Rounds with
    the same argv lists (a cold round run in several fresh processes) give
    each of their requests the median of its copies."""
    groups: dict = {}
    for i, key in enumerate(round_keys):
        groups.setdefault(key, []).append(i)
    out = []
    for ids in groups.values():
        out += [statistics.median(c) for c in zip(*(round_times[i] for i in ids))]
    return out


def tail_percentile(per_session: int) -> int:
    """Highest whole percentile with TAIL_BEYOND requests beyond it in the
    smallest run, which is one session."""
    return math.floor(100.0 * (per_session - TAIL_BEYOND) / per_session)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    wl = workloads.WORKLOADS[workload](seed)
    spec_dir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(spec_dir, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setup_argv = _materialize(wl.setup, spec_dir)
        timed_reqs = [r for rnd in wl.rounds for r in rnd]
        round_slices, k = [], 0
        for rnd in wl.rounds:
            round_slices.append(range(k, k + len(rnd)))
            k += len(rnd)
        timed_argv = _materialize(timed_reqs, spec_dir)
        verify_argv = _materialize(wl.verify, spec_dir)
        round_keys = [tuple(tuple(timed_argv[k]) for k in ks) for ks in round_slices]
        checker = Checker()
        times: list[float] = []       # scaled to the reference host
        latencies: list[float] = []   # one per distinct request and session
        raw_times: list[float] = []   # wall clock, not scaled
        spans: list[list] = []        # (start, end) of each timed request
        setups: list[float] = []      # scaled to the reference host
        raw_setups: list[float] = []  # wall clock, not scaled
        cals: list[list] = []         # (time, kernel running time) of each process
        rss: list[float] = []
        layers: dict = {}
        sessions = 0
        # whole sessions only; start another while it would end less than
        # half a session past --seconds
        while sessions == 0 or (time.monotonic() - start
                                + 0.5 * (time.monotonic() - start) / sessions < seconds):
            identity_items: dict = {}
            session_rss = 0.0
            round_times: dict = {}
            for p, (round_ids, verify_ids) in enumerate(wl.process_plan()):
                trace_file = (os.path.join(OUT_DIR, f"trace-{workload}-{seed}-s{sessions}"
                                                    f"p{p}.jsonl.gz") if trace else None)
                reqs = [(i, timed_reqs[k], timed_argv[k]) for i in round_ids
                        for k in round_slices[i]]
                checks = [(wl.verify[k], verify_argv[k]) for k in verify_ids]
                t_spawn, res = _spawn({"root": ROOT, "setup": setup_argv,
                                       "timed": [a for _, _, a in reqs],
                                       "verify": [a for _, a in checks], "trace": trace,
                                       "trace_file": trace_file}, deadline)
                _add_setup(res, t_spawn, setups, raw_setups)
                session_rss = max(session_rss, res["rss_mb"])
                for req, argv, r in zip(wl.setup, setup_argv, res["setup"]):
                    checker.add(req, argv, r, False, identity_items)
                cals.append(res["cal"])
                scales = calibrate.local_scales(res["cal"], [r["span"] for r in res["timed"]])
                for (i, req, argv), r, f in zip(reqs, res["timed"], scales):
                    checker.add(req, argv, r, True, identity_items)
                    times.append(r["t"] * f)
                    round_times.setdefault(i, []).append(r["t"] * f)
                    raw_times.append(r["wall"])
                    spans.append(r["span"])
                for (req, argv), r in zip(checks, res["verify"]):
                    checker.add(req, argv, r, False, identity_items)
                for k, v in res.get("layers", {}).items():
                    layers[k] = layers.get(k, 0) + v
            sessions += 1
            rss.append(session_rss)
            latencies += latency_samples(round_keys, round_times)
            checker.errors += check_identities(identity_items.values())
        while len(setups) < MIN_SETUPS:
            t_spawn, res = _spawn({"root": ROOT, "setup": setup_argv, "timed": [],
                                   "verify": [], "trace": False}, deadline)
            _add_setup(res, t_spawn, setups, raw_setups)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    per_session = sum(len(key) for key in set(round_keys))   # latencies per session
    pct = tail_percentile(per_session)
    attempted = len(times)
    if trace:
        # per round; per session where a session spans several processes
        per = len(wl.rounds) if wl.processes is None else 1
        metrics = per_layer_metrics(layers, sessions * per)
    else:
        metrics = {
            "requests_per_s": {"value": attempted / sum(times), "unit": "1/s"},
            "request_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "request_tail_ms": {"value": 1e3 * percentile(latencies, pct), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    for e in checker.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{workload} seed={seed}: {sessions} session(s) x {len(timed_reqs)} requests, "
          f"{per_session} latencies, tail = p{pct}, {len(setups)} set-ups, {time.monotonic() - start:.1f} s; "
          f"wall clock: {attempted / sum(raw_times):.4g} requests/s, "
          f"p50 {1e3 * statistics.median(raw_times):.4g} ms, "
          f"set-up {statistics.median(raw_setups):.4g} s", file=sys.stderr)
    result = {"correct": not checker.errors, "attempted": attempted,
              "failed": checker.failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{workload}-{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(dict(result, sessions=sessions, tail_percentile=pct,
                       request_times_s=times, latencies_s=latencies, setup_times_s=setups,
                       raw_request_times_s=raw_times, raw_setup_times_s=raw_setups,
                       kernel_times_s=cals, request_spans_s=spans,
                       check_errors=checker.errors), fh)
    return result


def _add_setup(res: dict, t_spawn: float, setups: list, raw: list):
    """A worker's set-up time: wall clock from spawn, and the running time
    (the worker's CPU time up to then, at most the wall time) scaled by the
    kernels timed right after it."""
    wall = res["t_ready"] - t_spawn
    raw.append(wall)
    t = calibrate.running(wall, res["ready_cpu"])
    setups.append(t * calibrate.local_scales(res["cal"], [(res["ready"], res["ready"])])[0])


def per_layer_metrics(layers: dict, rounds: int) -> dict:
    """The per-layer metrics BENCHMARK.json names, per round."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    known = ({f"{n}.self_s" for n in LAYERS} | {f"{n}.calls" for n in LAYERS} | set(COUNTS))
    unknown = sorted(set(names) - known)
    if unknown:
        raise BenchError(f"BENCHMARK.json names layers the tracer does not record: {unknown}")
    return {n: {"value": layers.get(n, 0) / rounds,
                "unit": "s" if n.endswith(".self_s") else "count"} for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "haarint", "cli.py")):
        print(f"no haarint sources under {ROOT}/src", file=sys.stderr)
        return 2
    # a terminated run still stops its worker (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
