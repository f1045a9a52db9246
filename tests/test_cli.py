"""End-to-end tests of the command line surface.

Everything drives cli.main directly so exit codes and printed output are
both captured.  Frozen outputs follow the worked abacus examples used in
the operator tests.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from barspin import classify, cli, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# info

def test_info_strict_fsas(capsys):
    code, out, _ = run(capsys, "info", "strict", "12,8,7,4,3,2")
    assert code == 0
    assert "strict label: <<12,8,7,4,3,2>>" in out
    assert "(a,r,s)=(4,4,2)" in out
    assert "linear partner: 12,9,6,3,3,1,1,1" in out
    assert "proportionality ratio: sqrt2^4" in out


def test_info_strict_reads_a_long_label(capsys):
    """One part of 500 and the staircase of 24 rows (n = 300): the spin
    degree is a closed form, so neither recurses through sub-labels."""
    for label in ("500", ",".join(map(str, range(24, 0, -1)))):
        code, out, _ = run(capsys, "info", "strict", label)
        assert code == 0, label
        assert "spin degree: " in out


def test_python_dash_m_barspin(capsys):
    """`python3 -m barspin` runs the same command line as cli.main."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "barspin", "info", "partition", "2,1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, "info", "partition", "2,1")
    assert code == 0
    assert proc.stdout == out


def test_info_strict_not_fsas(capsys):
    code, out, _ = run(capsys, "info", "strict", "3,2,1")
    assert code == 0
    assert "four-stepped and semicongruent: no" in out


def test_info_strict_decomposes_the_label_once(capsys, monkeypatch):
    """`info strict` reads the FSAS answer and both linear partners off one
    decomposition, which parses the label once."""
    calls = {"fsas_decompose": [], "spin_rock_decompose": []}
    for name, log in calls.items():
        def counted(al, fn=getattr(classify, name), log=log):
            log.append(al)
            return fn(al)

        monkeypatch.setattr(classify, name, counted)
    code, out, _ = run(capsys, "info", "strict", "12,8,7,4,3,2")
    assert code == 0
    assert "linear partner: 12,9,6,3,3,1,1,1 (conjugate 8,5,5,3,3,3,2,2,2,1,1,1)" in out
    al = (12, 8, 7, 4, 3, 2)
    assert calls == {"fsas_decompose": [al], "spin_rock_decompose": [al]}


def test_info_partition_empty(capsys):
    code, out, _ = run(capsys, "info", "partition", "-")
    assert code == 0
    assert "size: 0" in out


def test_info_partition_with_quotient(capsys):
    code, out, _ = run(capsys, "info", "partition", "6,3,1,1")
    assert code == 0
    assert "2-core: 2,1" in out
    assert "2-quotient: (1;2,1)" in out


def test_info_rejects_garbage(capsys):
    code, _, err = run(capsys, "info", "partition", "3,x")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text", ["1_0", "+3", "\uff13,1"])
def test_info_rejects_parts_that_are_not_ascii_digits(capsys, text):
    code, out, err = run(capsys, "info", "partition", text)
    assert code == 2
    assert out == ""
    assert "bad partition text" in err


def test_info_rejects_non_strict(capsys):
    code, _, err = run(capsys, "info", "strict", "2,2")
    assert code == 2


# ---------------------------------------------------------------------------
# value

def test_value_specht(capsys):
    code, out, _ = run(capsys, "value", "specht", "2,2", "3,1")
    assert (code, out.strip()) == (0, "-1")


def test_value_spin(capsys):
    code, out, _ = run(capsys, "value", "spin", "4", "3,1")
    assert (code, out.strip()) == (0, "-sqrt2")


def test_value_specht_trivial(capsys):
    code, out, _ = run(capsys, "value", "specht", "4", "1,1,1,1")
    assert (code, out.strip()) == (0, "1")


def test_value_size_mismatch(capsys):
    code, _, err = run(capsys, "value", "specht", "2,2", "3,1,1")
    assert code == 2
    assert "size mismatch" in err


def test_value_spin_even_class(capsys):
    for cls in ("2,2", "2,1,1", "1,2,1", "1,1,2"):
        code, _, err = run(capsys, "value", "spin", "4", cls)
        assert code == 2, cls
        assert "odd classes" in err, cls


def test_value_takes_the_class_in_any_order(capsys):
    """A class is a multiset, as in `chi` and `spin_value`: `1,3` prints
    what `3,1` prints, in both bases."""
    for basis, label in (("specht", "2,2"), ("spin", "4"), ("spin", "3,1")):
        want = run(capsys, "value", basis, label, "3,1")
        assert want[0] == 0
        assert run(capsys, "value", basis, label, "1,3") == want, (basis, label)
    for cls in ("1,3,0", "0,1,3"):
        code, _, err = run(capsys, "value", "specht", "2,2", cls)
        assert code == 2
        assert "positive integers" in err


# ---------------------------------------------------------------------------
# apply

def test_apply_swap_linear(capsys):
    code, out, _ = run(
        capsys, "apply", "S", "--eps", "1", "--c", "-2", "--basis", "linear", "6,3,1,1"
    )
    assert (code, out.strip()) == (0, "-[5,2,2]")


def test_apply_quot_red_spin(capsys):
    code, out, _ = run(
        capsys, "apply", "R", "--eps", "1", "--d", "-1", "--basis", "spin", "4,3,2"
    )
    assert (code, out.strip()) == (0, "-sqrt2*<<4,3>>")


def test_apply_e_to_empty(capsys):
    code, out, _ = run(
        capsys, "apply", "e", "--eps", "0", "--r", "1", "--basis", "linear", "1"
    )
    assert (code, out.strip()) == (0, "[-]")


def test_apply_flag_mix_ups(capsys):
    code, _, err = run(capsys, "apply", "S", "--eps", "1", "--basis", "linear", "2,1")
    assert code == 2
    code, _, err = run(
        capsys, "apply", "e", "--eps", "0", "--c", "1", "--basis", "linear", "2,1"
    )
    assert code == 2
    code, _, err = run(
        capsys, "apply", "R", "--eps", "0", "--r", "1", "--d", "1", "--basis", "spin", "2,1"
    )
    assert code == 2
    code, _, err = run(
        capsys, "apply", "e", "--eps", "0", "--r", "-1", "--basis", "linear", "2,1"
    )
    assert code == 2


def test_apply_bad_eps_is_usage_error(capsys):
    code, _, err = run(capsys, "apply", "e", "--eps", "2", "--basis", "linear", "2,1")
    assert code == 2
    assert "error: --eps must be 0 or 1" in err


# ---------------------------------------------------------------------------
# README

def readme_examples():
    """(argv, expected lines) for each `$ barspin info|value|apply` line in
    README; the expected lines run to the next `$` line or the end of the
    code block."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    out = []
    for i, line in enumerate(lines):
        argv = line.split()[2:]
        if line.startswith("$ barspin ") and argv[0] in ("info", "value", "apply"):
            want = itertools.takewhile(lambda w: not w.startswith(("$", "```")), lines[i + 1:])
            out.append((argv, list(want)))
    return out


def test_readme_examples_match_the_cli(capsys):
    """Each example prints its lines exactly; a `...` line stands for the
    lines it elides, so the shown ones keep their order, first and last."""
    examples = readme_examples()
    assert len(examples) == 5
    for argv, want in examples:
        code, out, _ = run(capsys, *argv)
        got = out.splitlines()
        assert code == 0, argv
        shown = [w for w in want if w != "..."]
        rest = iter(got)
        assert all(w in rest for w in shown), argv
        assert (got[0], got[-1]) == (want[0], want[-1]), argv
        assert len(got) == len(want) or "..." in want, argv


# ---------------------------------------------------------------------------
# drawn command lines: every run of value, info and apply exits 0 or 2
#
# Labels and classes have at most 4 parts of at most 6 (0 allowed, in any
# order), so n <= 24; eps runs over -1..2 and r, c and d over -3..3.  Larger
# classes are out of scope: the class 2,2,...,2 of size 1200 still exits 3
# (a RecursionError in the chi kernel).

PARTS = st.one_of(
    st.lists(st.integers(1, 6), max_size=4).map(lambda ps: sorted(ps, reverse=True)),
    st.sets(st.integers(1, 6), max_size=4).map(lambda ps: sorted(ps, reverse=True)),
    st.lists(st.integers(0, 6), max_size=4))
NOT_PARTS = st.sampled_from(["", "a", "1,,2", "2;1", "1.0", "-1", "+2", "\u0663", " 3 , 1 "])
TEXT = st.one_of(PARTS.map(lambda ps: ",".join(map(str, ps)) or "-"), NOT_PARTS)


def run_quiet(argv):
    """(exit code, stdout, stderr) of cli.main, captured without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    """Exit 0 with output and a silent stderr, or exit 2 with one stderr
    line and no traceback."""
    code, out, err = run_quiet(argv)
    assert code in (0, 2), (argv, err)
    if code == 0:
        assert out and not err, argv
    else:
        assert not out and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err, argv


@st.composite
def cycle_type(draw, n):
    """Text of a class of size n, its parts in any order; each even part is
    split into p - 1 and 1 half the time, so odd classes come up too."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])] if n else []
    if draw(st.booleans()):
        parts = [q for p in parts for q in ((p - 1, 1) if p % 2 == 0 else (p,))]
    return ",".join(map(str, draw(st.permutations(parts)))) or "-"


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_drawn_value_commands_exit_0_or_2(data):
    """The class is of the label's size unless drawn freely."""
    parts = data.draw(PARTS)
    label = ",".join(map(str, parts)) or "-"
    cls = data.draw(st.one_of(cycle_type(sum(parts)), TEXT))
    assert_clean_exit(["value", data.draw(st.sampled_from(["specht", "spin"])), label, cls])


@given(st.sampled_from(["partition", "strict"]), TEXT)
@settings(max_examples=200, deadline=None)
def test_drawn_info_commands_exit_0_or_2(kind, label):
    assert_clean_exit(["info", kind, label])


FLAG = {"e": "r", "f": "r", "S": "c", "R": "d"}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_drawn_apply_commands_exit_0_or_2(data):
    """The operator's own flag is set or left out; a flag of another
    operator is added now and then."""
    op = data.draw(st.sampled_from("efSR"))
    flags = data.draw(st.dictionaries(st.just(FLAG[op]), st.integers(-3, 3)))
    flags |= data.draw(st.dictionaries(st.sampled_from("rcd"), st.integers(-3, 3), max_size=1))
    argv = ["apply", op, "--basis", data.draw(st.sampled_from(["linear", "spin"])),
            f"--eps={data.draw(st.integers(-1, 2))}", data.draw(TEXT)]
    assert_clean_exit(argv + [f"--{k}={v}" for k, v in flags.items()])


# ---------------------------------------------------------------------------
# verify

def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "symfunc", "--max-n", "4")
    assert code == 0
    assert "symfunc: PASS" in out


def test_verify_symfunc_labels_the_tableau_case_with_its_bound(capsys):
    """The tableau case checks sizes up to min(bound, 6), and says so."""
    code, out, _ = run(capsys, "verify", "symfunc", "--max-n", "3", "--format", "json")
    assert code == 0
    labels = [case["input"] for case in json.loads(out)["cases"]]
    assert "bar recursion equals tableau evaluation in four variables, size <= 3" in labels
    assert not any("size <= 6" in label for label in labels)


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "degrees", "--max-n", "6", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"suite", "maxN", "cases", "pass", "millis"}
    assert blob["suite"] == "degrees"
    assert blob["maxN"] == 6
    assert blob["pass"] is True
    for case in blob["cases"]:
        assert set(case) == {"input", "expected", "actual", "pass", "millis"}
        assert case["pass"] is True
        assert type(case["millis"]) is int and case["millis"] >= 0
    assert json.dumps(blob) == out.strip()


def test_case_millis_is_the_time_since_the_previous_case():
    rep = verify.Report(suite="main", max_n=2)
    time.sleep(0.03)
    rep.check("first", "x", "x")
    rep.tally("second", [None])
    time.sleep(0.05)
    rep.check("third", "x", "y")
    first, second, third = rep.cases
    assert first.millis >= 30
    assert second.millis < first.millis
    assert third.millis >= 50
    assert [c["millis"] for c in rep.to_dict()["cases"]] == [c.millis for c in rep.cases]


def test_tally_counts_one_entry_per_instance():
    """The count is the number of entries, a falsy entry passes, and the
    failure text names the first three messages."""
    rep = verify.Report(suite="main", max_n=2)
    rep.tally("all pass", [None, "", False, 0, []])
    rep.tally("some fail", iter([None, "a", "b", None, "c", "d"]))
    rep.tally("nothing to check", [])
    passing, failing, empty = rep.cases
    assert (passing.expected, passing.actual, passing.ok) == (
        "5 checks pass", "5 checks pass", True)
    assert (failing.expected, failing.actual, failing.ok) == (
        "6 checks pass", "4 of 6 checks fail: a; b; c", False)
    assert (empty.expected, empty.actual, empty.ok) == ("0 checks pass", "0 checks pass", True)


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "interm", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,input,expected,actual,pass"
    assert len(lines) > 1


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "4", "--format", "json")
    assert code == 0
    blobs = json.loads(out)
    assert {b["suite"] for b in blobs} == set(verify.SUITES)
    assert all(b["pass"] for b in blobs)


# sha256 of `verify all --format json` at the default bounds, every millis
# removed, keys sorted, with a final newline
VERIFY_ALL_SHA256 = "34cdf8ae67216057460c83408b22a6a427771166e5da6615f01aef8831fc7c83"


def _without_millis(blob):
    if isinstance(blob, dict):
        return {k: _without_millis(x) for k, x in blob.items() if k != "millis"}
    if isinstance(blob, list):
        return [_without_millis(x) for x in blob]
    return blob


def test_verify_all_json_matches_the_golden_digest(capsys):
    """Every case of every suite, its input, expected and actual text
    included, is the same as when the digest was recorded."""
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    text = json.dumps(_without_millis(json.loads(out)), sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_SHA256


# sha256 of each operators suite's JSON report past its default bound, made
# as VERIFY_ALL_SHA256 is
OPERATOR_REPORT_SHA256 = {
    ("runner-swap", 16): "628e9216a1dde9e4673e53829c1a34f40f2749b6a647e0647874f09f0fe311e6",
    ("runner-swap-spin", 18): "07e61202b328fcf03ee946e2e3439c5d7d420e87fb10dd2c0cdff8439217cebf",
    ("quot-red", 18): "63c6acc24963c3efc84338d494ef864227acedce8249bab341a22eb93326de19",
    ("interm", 12): "6b9bebab94b124c7b3ee5ea031d884c4bfd5de2fbdde0fb0ee593eba26562652",
}


@pytest.mark.parametrize(("suite", "max_n"), sorted(OPERATOR_REPORT_SHA256))
def test_operator_reports_match_the_golden_digests(suite, max_n):
    """The operators suites past their default bounds, every case's text
    included, are the same as when the digests were recorded."""
    rep = verify.run_suite(suite, max_n)
    assert rep.ok
    text = json.dumps(_without_millis(rep.to_dict()), sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == OPERATOR_REPORT_SHA256[suite, max_n]


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["all", "main"])
def test_verify_negative_max_n_is_usage_error(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--max-n", "-2")
    assert code == 2
    assert out == ""
    assert "--max-n must be nonnegative" in err


@pytest.mark.parametrize("suite", ["main", "symfunc"])
@pytest.mark.parametrize("max_n", [-3, 2.5, True, "4"])
def test_run_suite_names_a_bound_that_is_not_a_non_negative_int(suite, max_n):
    with pytest.raises(ValueError, match="sizes must be non-negative integers"):
        verify.run_suite(suite, max_n)
    with pytest.raises(ValueError, match="sizes must be non-negative integers"):
        verify.run_all(max_n)


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    rep = verify.Report(suite="main", max_n=2)
    rep.check("stub", "left", "right")
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: rep)
    code, out, _ = run(capsys, "verify", "main", "--max-n", "2")
    assert code == 1
    assert "FAIL" in out


def test_verify_cache_on_a_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    code, _, err = run(capsys, "verify", "main", "--max-n", "2", "--cache", str(path))
    assert code == 2
    assert "is not a directory" in err


def test_verify_cache_under_a_file_is_usage_error(capsys, tmp_path):
    """A cache path that cannot be made a directory, as one under a regular
    file, is a usage error: exit 2, one line naming the path."""
    path = tmp_path / "not-a-dir"
    path.write_text("")
    code, _, err = run(capsys, "verify", "main", "--max-n", "3", "--cache", str(path / "sub"))
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith(f"error: --cache {path / 'sub'} is not a directory")


def test_verify_internal_error_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(verify, "run_suite", boom)
    code, _, err = run(capsys, "verify", "main", "--max-n", "2")
    assert code == 3
    assert "internal error in verify: ValueError: boom" in err


@pytest.mark.parametrize("argv", [
    ("verify", "all"),
    ("verify", "all", "--format", "json"),
    ("verify", "all", "--format", "csv"),
    ("info", "partition", "20000"),
])
def test_closed_stdout_ends_quietly(argv):
    """A reader that closes the pipe after one line (or 1 KiB: a JSON report
    is one line) ends the run with exit 141 and nothing on stderr.  The
    pipe holds 4 KiB and each output is over 10 KiB, so the run is still
    writing when the pipe closes."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs pipes whose size can be set")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "barspin", *argv],
                            stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n") and len(line) < 1024:
        line += os.read(read_end, 1)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert line.strip()
    assert (proc.returncode, err) == (cli.CLOSED_STDOUT, b"")
    assert cli.CLOSED_STDOUT == 141


def test_verify_with_truncated_cache_rebuilds(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "main", "--max-n", "4", "--cache", str(tmp_path))
    assert code == 0
    (tmp_path / "brauer_4.json").write_text("{\"n\": 4, \"lin")
    code, out, err = run(capsys, "verify", "main", "--max-n", "4", "--cache", str(tmp_path))
    assert code == 0
    assert "main: PASS" in out
    assert err.count("warning: ignoring bad table cache") == 1
