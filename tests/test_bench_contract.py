"""The benchmark's tracer binds barspin names from outside the package
(perfbench/tracer.py).  Renaming or deleting one of them breaks only a
traced benchmark run, so this installs the tracer around a small suite."""

import importlib.util
from pathlib import Path

from barspin import charvalues as cv, verify
from barspin.scalars import Scalar

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("barspin_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_around_a_suite():
    tracer = _load_tracer()
    scan, add = cv.scan, Scalar.__dict__["__add__"]
    with tracer.Tracer() as t:
        assert cv.scan is not scan
        rep = verify.run_suite("main", 4)
    assert rep.ok
    assert cv.scan is scan and Scalar.__dict__["__add__"] is add
    assert "charvalues.scan" in {span[0] for span in t.spans}
    assert t.counts["charvalues.scan"] == 4


def test_tracer_spans_the_operator_layer():
    """partitions.spin_moves_s is charged by the spin moves that apply_e
    and apply_f make; the node sets no longer enumerate moves."""
    tracer = _load_tracer()
    with tracer.Tracer() as t:
        reps = [verify.run_suite(suite, 4)
                for suite in ("runner-swap", "quot-red", "runner-swap-spin")]
    assert all(rep.ok for rep in reps)
    # (caller, callee) for every span opened inside another
    calls = {(t.spans[parent][0], name) for name, _, _, parent in t.spans if parent >= 0}
    for composite in ("runner_swap", "quot_red"):
        for op in ("apply_e", "apply_f"):
            assert (f"charspace.{composite}", f"charspace.{op}") in calls
    assert ("charspace.apply_e", "partitions.spin_removals") in calls
    assert ("charspace.apply_f", "partitions.spin_additions") in calls


def test_tracer_spans_the_interm_layer():
    """charspace.interm_s is charged by the signed-sum and B routines
    themselves; neither of them calls interm."""
    tracer = _load_tracer()
    with tracer.Tracer() as t:
        rep = verify.run_suite("interm", 4)
    assert rep.ok
    spanned = {span[0] for span in t.spans}
    assert {"charspace.interm_signed_sum", "charspace.b_sum"} <= spanned
    assert tracer.layer_seconds(t.spans).get("charspace.interm_s", 0) > 0
