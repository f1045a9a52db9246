"""The benchmark's tracer binds barspin names from outside the package
(perfbench/tracer.py).  Renaming or deleting one of them breaks only a
traced benchmark run, so this installs the tracer around a small suite.

Those names are also the only library functions that library code need not
call: every other module-level function of barspin is named somewhere in
barspin outside its own body, so that no test-only route lives in the
library.  And every name a library module imports at module level is
read in that module, so a deleted route leaves no import behind."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

from barspin import charvalues as cv, symfunc as sf, verify
from barspin.scalars import Scalar

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
LIBRARY = ROOT / "src" / "barspin"


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
    and apply_f make; the node sets no longer enumerate moves.  quot_red
    takes the two steps through apply_e and apply_f; runner_swap takes its
    closed form in both bases and calls neither, but is spanned itself."""
    tracer = _load_tracer()
    with tracer.Tracer() as t:
        reps = [verify.run_suite(suite, 4)
                for suite in ("runner-swap", "quot-red", "runner-swap-spin")]
    assert all(rep.ok for rep in reps)
    # (caller, callee) for every span opened inside another
    calls = {(t.spans[parent][0], name) for name, _, _, parent in t.spans if parent >= 0}
    for op in ("apply_e", "apply_f"):
        assert ("charspace.quot_red", f"charspace.{op}") in calls
    assert "charspace.runner_swap" in {span[0] for span in t.spans}
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


def test_memo_sizes_read_the_kernel_memos():
    """The tracer reads chi's memo size from charvalues.chi.cache_info() and
    symfunc's from its lru caches; chi's is its bitmask kernel's, and the
    bar recursion's is one of symfunc's."""
    tracer = _load_tracer()
    cv.chi.cache_clear()
    sf._bar_kernel.cache_clear()
    with tracer.Tracer() as t:
        rep = verify.run_suite("main", 8)
    assert rep.ok
    sizes = tracer.memo_sizes()
    assert sizes["charvalues.chi_memo_entries"] > 0
    assert sizes["symfunc.memo_entries"] > 0
    grown = t.result()["memo"]
    assert grown["charvalues.chi_memo_entries"] == sizes["charvalues.chi_memo_entries"]
    assert grown["symfunc.memo_entries"] >= sf._bar_kernel.cache_info().currsize > 0


def _names(node):
    """How often each name is read under node, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute))


def unreferenced_functions(library=LIBRARY):
    """module.function for every module-level function of the library that
    no library code names outside the function's own body."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(library.glob("*.py"))}
    total = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and total[node.name] == _names(node)[node.name]]


def test_library_has_no_test_only_functions():
    """A function that only the tests call is an oracle and lives in
    tests/oracles.py; the tracer's names are exempt, as the tracer reaches
    them from outside."""
    tracer = _load_tracer()
    exempt = set(tracer.SPAN_METRICS) | set(tracer.COUNTED)
    assert [name for name in unreferenced_functions() if name not in exempt] == []


def unread_imports(library=LIBRARY):
    """module.name for every name bound by a module-level import of the
    library that its module never reads; __future__ imports and the names
    in __all__ are read."""
    out = []
    for path in sorted(library.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [f"{path.stem}.{name}" for alias in node.names
                        if (name := alias.asname or alias.name.partition(".")[0]) not in read]
    return out


def test_library_imports_only_what_it_reads():
    assert unread_imports() == []
