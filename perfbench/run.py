"""barspin benchmark: cold-process runs of the verify suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seconds S] [--trace 0|1]   # every workload
    python3 perfbench/run.py --smoke --seconds 1            # tiny bounds

Every timed run is a fresh interpreter (perfbench/child.py), one at a time,
because barspin memoizes its tables and recursions for the life of the
process.  Times are scaled to a reference host speed (perfbench/speed.py),
because a shared host's speed swings far more than barspin's.  Runs repeat until ``--seconds`` is used up; the metrics are
medians over the runs that passed.  A run passes when every Report is ok and
its case, instance and pair counts equal the ones in workloads.json; a
failed or crashed run is counted and its timings are dropped.  The workloads
are exhaustive sweeps, so ``--seed`` changes nothing they compute.

End-to-end metrics (``--trace 0``): ``wall_s``, the child's time from the
first suite call to the last report; ``setup_s``, from spawning the child
until barspin is imported and ready (median over ``SETUP_SPAWNS`` children
that stop there and the timed runs), plus (scan-cached) the median of the
cold runs that fill the table cache, each of them spawn to last report; ``peak_rss_mb``, the child's own
``RUSAGE_SELF`` peak.  ``--trace 1`` alternates traced and untraced runs and
reports the per-layer metrics of the traced ones (see README.md).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every run
passed, 1 when a correctness gate failed, 2 when barspin cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())

# cold fills of the scan-cached table cache per untraced run; setup_s takes
# their median
SETUP_FILLS = 3
# children per untraced run that only start, import barspin and stop; the
# spawn-to-ready part of setup_s is a median over them and the timed runs
SETUP_SPAWNS = 20
CHILD_TIMEOUT = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "symfunc.p_in_P_s": "s",
    "symfunc.schur_p_s": "s",
    "symfunc.memo_entries": "count",
    "charvalues.spin_table_s": "s",
    "charvalues.linear_table_s": "s",
    "charvalues.chi_memo_entries": "count",
    "charvalues.pairing_s": "s",
    "charvalues.ratio_calls": "count",
    "charvalues.pairs_found": "count",
    "charvalues.pair_yield": "ratio",
    "charvalues.cache_read_s": "s",
    "charvalues.cache_write_s": "s",
    "charvalues.cache_bytes": "bytes",
    "charvalues.spin_value_calls": "count",
    "charspace.apply_e_s": "s",
    "charspace.apply_f_s": "s",
    "charspace.runner_swap_s": "s",
    "charspace.quot_red_s": "s",
    "charspace.interm_s": "s",
    "charspace.apply_calls": "count",
    "partitions.enum_s": "s",
    "partitions.spin_moves_s": "s",
    "partitions.rim_hooks_calls": "count",
    "scalars.ops": "count",
    "abacus.s": "s",
    "classify.s": "s",
    **{f"verify.{job['suite']}_s": "s" for job in WORKLOADS["verify-all"]["jobs"]},
    "verify.cases": "count",
    "verify.instances": "count",
    "trace.overhead_s": "s",
}

CACHE_READ = "charvalues.cache_read_s"
CACHE_WRITE = "charvalues.cache_write_s"


# ---------------------------------------------------------------------------
# one child run

def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_child(workload, smoke=False, cache_dir=None, trace=False, ready_only=False):
    """Run perfbench/child.py once and wait for it.  Returns a sample: the
    child's JSON plus ``setup_s`` (spawn to ready, at the reference speed),
    or ``{"crash": message}``.  A ``ready_only`` child stops once ready."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    if smoke:
        cmd.append("--smoke")
    if cache_dir is not None:
        cmd += ["--cache", cache_dir]
    if trace:
        cmd.append("--trace")
    if ready_only:
        cmd.append("--ready-only")
    kernel_s = speed.calibrate()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"crash": f"timed out after {CHILD_TIMEOUT} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crash": f"exit {proc.returncode}: {tail[0]}"}
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crash": "no JSON result line"}
    out["raw_setup_s"] = out.pop("ready") - spawned
    out["setup_s"] = speed.at_ref(out["raw_setup_s"], (kernel_s + out["ready_kernel_s"]) / 2)
    return out


def gate(sample, workload, smoke=False):
    """Reasons the sample fails its correctness gate; empty when it passes."""
    if "crash" in sample:
        return [sample["crash"]]
    jobs = WORKLOADS[workload]["jobs"]
    reports = sample["reports"]
    if [r["suite"] for r in reports] != [j["suite"] for j in jobs]:
        return [f"suites {[r['suite'] for r in reports]} were run"]
    problems = []
    key = "smoke_expect" if smoke else "expect"
    for rep, job in zip(reports, jobs):
        if not rep["ok"]:
            problems.append(f"{rep['suite']}: a case failed")
        got = {k: rep[k] for k in job[key]}
        if got != job[key]:
            problems.append(f"{rep['suite']}: fingerprint {got} != {job[key]}")
    return problems


# ---------------------------------------------------------------------------
# a benchmark run of one workload

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def median(values):
    return statistics.median(values) if values else None


def cache_bytes(path):
    return sum(f.stat().st_size for f in pathlib.Path(path).rglob("*") if f.is_file())


def layer_metrics(sample, cache_metric):
    """Per-layer values of one traced sample."""
    t = sample["trace"]
    c = t["counts"]
    out = {name: 0 for name in PER_LAYER}
    out.update(tracer.layer_seconds(t["spans"], cache_metric))
    out.update(t["memo"])
    ratio_calls = c.get("charvalues.proportionality_ratio", 0)
    out["charvalues.ratio_calls"] = ratio_calls
    out["charvalues.pairs_found"] = c.get(tracer.RATIO_HITS, 0)
    out["charvalues.pair_yield"] = out["charvalues.pairs_found"] / ratio_calls if ratio_calls else 0.0
    out["charvalues.spin_value_calls"] = c.get("charvalues.spin_value", 0)
    out["charspace.apply_calls"] = c.get("charspace.apply_e", 0) + c.get("charspace.apply_f", 0)
    out["partitions.rim_hooks_calls"] = c.get("partitions.rim_hooks", 0)
    out["scalars.ops"] = c.get(tracer.SCALAR_COUNT, 0)
    for suite, secs in t["suite_s"].items():
        out[f"verify.{suite}_s"] = secs
    out["verify.cases"] = sum(r["cases"] for r in sample["reports"])
    out["verify.instances"] = sum(r["instances"] for r in sample["reports"])
    return out


def bench(workload, seconds, workdir, trace=False, smoke=False, runner=run_child):
    """Set up, measure for ``seconds``, and summarize one workload.  Cache
    directories go under ``workdir``.

    ``runner`` has the signature of run_child.  Returns (summary, metrics);
    the metrics are medians over the runs that passed their gate."""
    spec = WORKLOADS[workload]

    def attempt(cache_dir, traced):
        sample = runner(workload, smoke, cache_dir, traced)
        sample["problems"] = gate(sample, workload, smoke)
        return sample

    spawns = [] if trace else [runner(workload, smoke, ready_only=True)
                               for _ in range(SETUP_SPAWNS)]
    for sample in spawns:
        sample["problems"] = [sample["crash"]] if "crash" in sample else []
    fills, cache_dir = [], None
    if spec["cache"]:
        for _ in range(1 if trace else SETUP_FILLS):
            fill_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
            fills.append(attempt(fill_dir, trace))
            cache_dir = cache_dir or fill_dir
    timed = []
    started = time.monotonic()
    while True:
        # traced mode alternates traced and untraced runs, traced first
        timed.append(attempt(cache_dir, trace and len(timed) % 2 == 0))
        elapsed = time.monotonic() - started
        enough = len(timed) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(timed) > seconds:
            break

    failed = [s for s in spawns + fills + timed if s["problems"]]
    summary = {
        "workload": workload,
        "attempted": len(spawns) + len(fills) + len(timed),
        "failed": len(failed),
        "problems": [s["problems"][0] for s in failed],
        "spawns": len(spawns),
        "fills": len(fills),
        "runs": len(timed),
    }
    good_fills = [s for s in fills if not s["problems"]]
    plain = [s for s in timed if not s["problems"] and "trace" not in s]
    traced = [s for s in timed if not s["problems"] and "trace" in s]
    if not trace:
        walls = [s["wall_s"] for s in plain]
        summary["walls"] = len(walls)
        summary["wall_quartiles"] = quartiles(walls) if walls else None
        setup = median([s["setup_s"] for s in spawns + plain if not s["problems"]])
        summary["raw_wall_s"] = median([s["raw_wall_s"] for s in plain])
        summary["slowdown"] = median([s["kernel_s"] for s in plain]) / speed.REF_KERNEL_S \
            if plain else None
        if spec["cache"]:
            fill = median([s["setup_s"] + s["wall_s"] for s in good_fills])
            setup = None if setup is None or fill is None else setup + fill
        return summary, {
            "wall_s": median(walls),
            "setup_s": setup,
            "peak_rss_mb": median([s["rss_mb"] for s in plain]),
        }
    per_run = [layer_metrics(s, CACHE_READ if spec["cache"] else None) for s in traced]
    metrics = {name: median([m[name] for m in per_run]) for name in PER_LAYER}
    if good_fills:
        metrics[CACHE_WRITE] = layer_metrics(good_fills[0], CACHE_WRITE)[CACHE_WRITE]
        metrics["charvalues.cache_bytes"] = cache_bytes(cache_dir)
    metrics["trace.overhead_s"] = (
        median([s["wall_s"] for s in traced]) - median([s["wall_s"] for s in plain])
        if traced and plain else None
    )
    return summary, metrics


# ---------------------------------------------------------------------------
# output

def print_human(summary, metrics, units):
    s = summary
    fills = f", {s['fills']} cache fills" if s["fills"] else ""
    spawns = f", {s['spawns']} set-up spawns" if s["spawns"] else ""
    print(f"{s['workload']}: {s['runs']} timed runs{fills}{spawns}")
    for name, unit in units.items():
        value = metrics[name]
        text = "n/a" if value is None else f"{value:.6g}"
        extra = ""
        if name == "wall_s" and s.get("wall_quartiles"):
            lo, hi = s["wall_quartiles"]
            extra = (f"  (median of {s['walls']}; quartiles {lo:.4f} .. {hi:.4f};"
                     f" as measured {s['raw_wall_s']:.4f} s on a host"
                     f" {s['slowdown']:.3f} x slower than the reference)")
        if name == "charvalues.pair_yield":
            extra = (f"  (pairs_found / ratio_calls = {metrics['charvalues.pairs_found']:g}"
                     f" / {metrics['charvalues.ratio_calls']:g})")
        print(f"  {name:30s} {text} {unit}{extra}")
    print(f"  {'fail_ratio':30s} {s['failed'] / s['attempted']:.6g} "
          f"(failed / attempted runs = {s['failed']} / {s['attempted']})")
    for why in s["problems"][:5]:
        print(f"  FAILED: {why}")


def result_line(summary, metrics, units):
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; every workload when left out")
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted but unused: the sweeps are exhaustive")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny bounds, for the tests")
    args = ap.parse_args(argv)

    if not (SRC / "barspin" / "__init__.py").is_file():
        print(f"barspin sources not found under {SRC}", file=sys.stderr)
        return 2
    # compile barspin's bytecode once so that setup_s never includes it
    warm = subprocess.run([sys.executable, "-c", "import barspin.verify"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if warm.returncode != 0:
        print(f"cannot import barspin: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for workload in workloads:
            summary, metrics = bench(workload, args.seconds, workdir, bool(args.trace),
                                     args.smoke)
            print_human(summary, metrics, units)
            print(result_line(summary, metrics, units), flush=True)
            ok = ok and summary["failed"] == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
