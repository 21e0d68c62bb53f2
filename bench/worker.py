"""One fresh benchmark process: a single client calling haarint.cli.main.

Reads a job from stdin, imports haarint from the checkout's ``src``, runs
the untimed set-up requests, then the timed requests one after another
(a closed loop), then the untimed verification requests, and prints one
JSON object with every request's exit code, output and time, and the
times of the calibration kernel (calibrate.py) run right after set-up and
on a clock during the timed requests.

The job is {"root", "setup", "timed", "verify", "trace", "trace_file"}:
three lists of argv lists, whether to record layer spans during the timed
requests, and where to write them.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calibrate


def _run(main, argv, sampler=None):
    """One request.  ``t`` is its running time (calibrate.running), ``wall``
    its wall-clock time; both leave out the calibration kernels that ran
    inside it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        (w0, c0), s0 = sampler.read() if sampler else (calibrate.clocks(), (0.0, 0.0))
        try:
            code = main(argv)
        except Exception:
            # an escaped exception is a failed request, not a failed benchmark
            traceback.print_exc()
            code = -1
        (w1, c1), s1 = sampler.read() if sampler else (calibrate.clocks(), (0.0, 0.0))
    wall = w1 - w0 - (s1[0] - s0[0])
    cpu = c1 - c0 - (s1[1] - s0[1])
    return {"rc": code, "out": out.getvalue(), "err": err.getvalue(),
            "t": calibrate.running(wall, cpu), "wall": wall, "span": [w0, w1]}


def main():
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import haarint
    import haarint.cli

    here = os.path.realpath(os.path.dirname(haarint.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"haarint imported from {here}, not from {src}", file=sys.stderr)
        return 3

    setup = [_run(haarint.cli.main, argv) for argv in job["setup"]]
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(haarint)
    t_ready = time.monotonic()
    ready, ready_cpu = calibrate.clocks()
    sampler = calibrate.Sampler()
    for _ in range(calibrate.SETUP_SAMPLES):
        sampler.sample()
    if not tracer:              # a traced run keeps the kernel out of its spans
        sampler.start()
    timed = []
    for k, argv in enumerate(job["timed"]):
        if tracer is not None:
            tracer.request = k
            tracer.enabled = True
        # look main up each time: the tracer may have replaced it
        timed.append(_run(haarint.cli.main, argv, sampler))
        if tracer is not None:
            tracer.enabled = False
    sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verify = [_run(haarint.cli.main, argv) for argv in job["verify"]]
    result = {"t_ready": t_ready, "ready": ready, "ready_cpu": ready_cpu, "rss_mb": rss_mb,
              "cal": sampler.samples, "setup": setup, "timed": timed, "verify": verify}
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["trace_missing"] = tracer.missing
        if job.get("trace_file"):
            tracer.write(job["trace_file"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
