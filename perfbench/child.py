"""One timed run of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME [--smoke] [--cache DIR] [--trace]
    python3 perfbench/child.py --workload NAME --ready-only

run.py starts this with PYTHONPATH pointing at the checkout's ``src``.  It
imports barspin, notes the moment it is ready, calls
``verify.run_suite`` for each job of the workload, and prints one JSON
line: the ready time (``time.monotonic``, comparable with the parent's)
with the calibration kernel's time right after it, the time of the suite
calls (``wall_s`` at the reference speed of speed.py, ``raw_wall_s`` as
measured), its own peak RSS and a summary of every report.  With
``--trace`` the line also carries the tracer's spans, counts and memo
growth.  With ``--ready-only`` it prints the ready time and its calibration
and stops, so that set-up can be timed on its own.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import resource
import statistics
import sys
import time

from barspin import verify

import speed
import tracer

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = HERE / "workloads.json"
PAIRS = re.compile(r"^(\d+) pairs \[")


def load_workloads():
    with open(WORKLOADS) as fh:
        return json.load(fh)


def jobs_of(spec, smoke):
    """[(suite, max_n or None), ...] for the workload."""
    key = "smoke_max_n" if smoke else "max_n"
    return [(job["suite"], job[key]) for job in spec["jobs"]]


def summarize(rep):
    """Fingerprint and verdict of one Report.  Instances are the sum of the
    'N checks pass' tallies; pairs the sum of the 'K pairs [...]' counts."""
    instances = sum(
        int(c.expected.split()[0]) for c in rep.cases if c.expected.endswith(" checks pass")
    )
    pairs = 0
    for c in rep.cases:
        m = PAIRS.match(c.actual)
        if m:
            pairs += int(m.group(1))
    return {
        "suite": rep.suite,
        "ok": rep.ok,
        "cases": len(rep.cases),
        "instances": instances,
        "pairs": pairs,
    }


def run_jobs(jobs, cache_dir=None):
    """Run the jobs in order; (wall seconds, reports, seconds per suite)."""
    suite_s = {}
    reports = []
    t0 = time.perf_counter()
    for suite, max_n in jobs:
        s0 = time.perf_counter()
        reports.append(verify.run_suite(suite, max_n, cache_dir))
        suite_s[suite] = time.perf_counter() - s0
    return time.perf_counter() - t0, reports, suite_s


def run_workload(spec, smoke=False, cache_dir=None, trace=False):
    """Everything the parent needs from one run, except the ready time."""
    jobs = jobs_of(spec, smoke)
    with speed.Speedometer() as sp:
        if trace:
            with tracer.Tracer() as tr:
                _, reports, suite_s = run_jobs(jobs, cache_dir)
        else:
            _, reports, suite_s = run_jobs(jobs, cache_dir)
    out = {
        "wall_s": sp.ref_s,
        "raw_wall_s": sp.raw_s,
        "kernel_s": statistics.median(sp.kernels),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reports": [summarize(r) for r in reports],
    }
    if trace:
        out["trace"] = dict(tr.result(), suite_s=suite_s)
    return out


def main(argv=None):
    ready = time.monotonic()
    ready_kernel_s = speed.calibrate()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--cache")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--ready-only", action="store_true")
    args = ap.parse_args(argv)
    if pathlib.Path(verify.__file__).resolve().parent.parent != SRC:
        sys.exit(f"barspin imported from {verify.__file__}, not from {SRC}")
    spec = load_workloads()[args.workload]
    out = {} if args.ready_only else run_workload(spec, args.smoke, args.cache, args.trace)
    out["ready"] = ready
    out["ready_kernel_s"] = ready_kernel_s
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
