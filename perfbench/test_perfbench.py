"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import functools
import json
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from barspin import charspace, charvalues, partitions, scalars, symfunc, verify  # noqa: E402


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _snapshot():
    """Every module-level binding of barspin, and the Scalar class dict."""
    snap = {
        (name, attr): obj
        for name, mod in sys.modules.items() if name.startswith("barspin")
        for attr, obj in vars(mod).items()
    }
    snap.update({("Scalar", attr): obj for attr, obj in vars(scalars.Scalar).items()})
    return snap


@functools.lru_cache(maxsize=None)
def _smoke(trace):
    """Every workload at smoke bounds: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload(trace):
    code, out, err = _smoke(trace)
    assert code == 0, out + err
    spec = _bench_json()
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    lines = _result_lines(out)
    assert len(lines) == len(run.WORKLOADS)
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in metrics} == {
            k: v["unit"] for k, v in line["metrics"].items()
        }
        assert all(v["value"] is not None for v in line["metrics"].values())
    assert "fail_ratio" in out
    assert not list(ROOT.glob(".perfbench-*"))


def test_smoke_predicted_zeros():
    """Layers a workload bypasses read exactly 0 in its traced run."""
    _, out, _ = _smoke(1)
    value = {
        w: {k: v["value"] for k, v in line["metrics"].items()}
        for w, line in zip(run.WORKLOADS, _result_lines(out))
    }
    charspace_s = [k for k in run.PER_LAYER if k.startswith("charspace.")]
    symfunc_s = ["symfunc.p_in_P_s", "symfunc.schur_p_s", "symfunc.memo_entries"]
    tables = ["charvalues.spin_table_s", "charvalues.linear_table_s"]
    for w in ("scan-reach", "scan-cached"):
        assert all(value[w][k] == 0 for k in charspace_s), w
    for w in ("operators", "scan-cached"):
        assert all(value[w][k] == 0 for k in symfunc_s + tables), w
    assert value["scan-reach"]["symfunc.p_in_P_s"] > 0
    assert value["operators"]["charspace.apply_e_s"] > 0
    assert value["scan-cached"]["charvalues.cache_read_s"] > 0
    assert value["scan-cached"]["charvalues.cache_write_s"] > 0
    assert value["scan-cached"]["charvalues.cache_bytes"] > 0


def test_benchmark_json_names_what_run_prints():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_failing_report_counts_as_failure_and_is_not_timed(monkeypatch):
    samples, spawns = [], []

    def runner(workload, smoke, cache_dir=None, trace=False, ready_only=False):
        if ready_only:
            spawns.append({"setup_s": 0.005 * len(spawns)})
            return spawns[-1]
        failing = len(samples) % 2 == 1
        with monkeypatch.context() as m:
            if failing:
                m.setattr(verify.Report, "ok", property(lambda self: False))
            sample = child.run_workload(run.WORKLOADS[workload], smoke, cache_dir, trace)
        sample.update(setup_s=0.01 * len(samples), failing=failing)
        samples.append(sample)
        return sample

    summary, metrics = run.bench("scan-reach", 1.0, None, smoke=True, runner=runner)
    passing = [s for s in samples if not s["failing"]]
    assert len(samples) >= 2
    assert len(spawns) == run.SETUP_SPAWNS
    assert summary["attempted"] == len(spawns) + len(samples)
    assert summary["failed"] == len(samples) - len(passing)
    assert all(s["problems"] == ["main: a case failed"] for s in samples if s["failing"])
    assert metrics["wall_s"] == statistics.median(s["wall_s"] for s in passing)
    assert metrics["setup_s"] == statistics.median(s["setup_s"] for s in spawns + passing)
    line = json.loads(run.result_line(summary, metrics, run.END_TO_END))
    assert line["correct"] is False and line["failed"] == summary["failed"]


def test_gate_rejects_fingerprint_mismatch_and_crash():
    sample = child.run_workload(run.WORKLOADS["scan-reach"], smoke=True)
    assert run.gate(sample, "scan-reach", smoke=True) == []
    assert run.gate(sample, "scan-reach", smoke=False)  # full-bound fingerprint
    sample["reports"][0]["pairs"] += 1
    assert run.gate(sample, "scan-reach", smoke=True)
    assert run.gate({"crash": "exit 1: boom"}, "scan-reach") == ["exit 1: boom"]


def test_traced_run_restores_every_function():
    before = _snapshot()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as cache:
        for name, spec in run.WORKLOADS.items():
            out = child.run_workload(spec, smoke=True, cache_dir=cache if spec["cache"] else None,
                                     trace=True)
            assert out["trace"]["spans"], name
    after = _snapshot()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []


def test_wrappers_cover_every_import_and_restore_on_error():
    before = _snapshot()
    original = symfunc.p_in_P_coefficient
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert charvalues.p_in_P_coefficient is symfunc.p_in_P_coefficient
            assert charvalues.p_in_P_coefficient is not original
            assert charspace.spin_removals is partitions.spin_removals
            assert scalars.Scalar.__dict__["__mul__"] is not before[("Scalar", "__mul__")]
            assert charvalues.chi is before[("barspin.charvalues", "chi")]
            raise RuntimeError("inside the traced region")
    after = _snapshot()
    assert [k for k in before if before[k] is not after[k]] == []


def test_self_times():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 15, 25, 1),
        ("b", 50, 60, 0),
    ]
    got = tracer.self_times(spans)
    assert got == {"a": 60e-9, "b": 30e-9, "c": 10e-9}


def test_speedometer_scales_by_kernel_speed():
    sp = speed.Speedometer()
    sp.stretches = [0.5, 0.25, 0.25]
    # the SMOOTH leading and trailing kernels bracket the stretches
    sp.kernels = [2 * speed.REF_KERNEL_S] * (len(sp.stretches) + 2 * speed.SMOOTH - 1)
    assert sp.raw_s == 1.0
    assert sp.ref_s == pytest.approx(0.5)


def test_speedometer_interrupts_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(interval=0.005) as sp:
        end = speed.time.perf_counter() + 0.1
        while speed.time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sp.stretches) > 2
    assert len(sp.kernels) == len(sp.stretches) + 2 * speed.SMOOTH - 1
    assert 0 < sp.raw_s < 0.1 and sp.ref_s > 0


def test_checkout_without_sources_fails_without_a_result():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, pathlib.Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan-reach",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
