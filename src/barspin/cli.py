"""Command line surface: label inspection, operator application, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error (any other exception escaping a command), 141 when the
reader of standard output closes it early (as in `barspin verify all |
head -1`), with nothing on stderr; 141 is what a shell reports for a
process ended by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from barspin import abacus, charspace, charvalues, classify, verify
from barspin import partitions as pt
from barspin.partitions import format_partition


CLOSED_STDOUT = 141


class UsageError(Exception):
    pass


def _parse(parse, text):
    """A label or class from the command line; malformed text is a usage
    error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="barspin",
        description="Exact partition, abacus and character computations "
        "around proportional spin and linear 2-Brauer characters.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe a partition or strict label")
    p.add_argument("kind", choices=["partition", "strict"])
    p.add_argument("label", help="comma-separated parts, or - for the empty partition")

    p = sub.add_parser("value", help="one exact character value")
    p.add_argument("basis", choices=["specht", "spin"])
    p.add_argument("label")
    p.add_argument("cls", metavar="class", help="cycle type, comma-separated")

    p = sub.add_parser("apply", help="apply a branching or swapping operator")
    p.add_argument("op", choices=["e", "f", "S", "R"])
    p.add_argument("label")
    p.add_argument("--eps", type=int, required=True, help="residue, 0 or 1")
    p.add_argument("--r", type=int, default=None, help="divided power for e/f")
    p.add_argument("--c", type=int, default=None, help="degree shift for S")
    p.add_argument("--d", type=int, default=None, help="redistribution amount for R")
    p.add_argument("--basis", choices=["linear", "spin"], required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(verify.SUITES) + ["all"])
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--format", dest="fmt", choices=["text", "json", "csv"], default="text")
    p.add_argument("--cache", default=None, help="directory for the character table cache")
    return ap


# ---------------------------------------------------------------------------
# info

def _info_partition(la):
    core, quotient = abacus.two_quotient(la)
    counts = pt.content_counts(la)
    lines = [
        f"partition: {charspace.format_label('linear', la)}",
        f"size: {pt.size(la)}",
        f"conjugate: {format_partition(pt.conjugate(la))}",
        f"2-core: {format_partition(core)}",
        f"2-quotient: ({format_partition(quotient[0])};{format_partition(quotient[1])})",
        f"2-weight: {pt.k_weight(la, 2)}",
        f"content: {counts[0]} nodes of residue 0, {counts[1]} of residue 1",
        f"2-regular form: {format_partition(pt.regularize2(la))}",
        "abacus:",
        abacus.pretty(la),
    ]
    return "\n".join(lines)


def _info_strict(al):
    core4, w4 = pt.four_bar_core(al)
    counts = pt.spin_content_counts(al)
    lines = [
        f"strict label: {charspace.format_label('spin', al)}",
        f"size: {pt.size(al)}",
        f"double: {format_partition(pt.dbl(al))}",
        f"4-bar-core: {format_partition(core4)} (weight {w4})",
        f"spin content: {counts[0]} nodes of residue 0, {counts[1]} of residue 1",
        f"spin degree: {charvalues.spin_degree(al)}",
    ]
    dec = classify.fsas_decompose(al)
    if dec is None:
        lines.append("four-stepped and semicongruent: no")
    else:
        first, second = dec.linear_labels()
        lines.append(
            f"four-stepped and semicongruent: yes, (a,r,s)=({dec.a},{dec.r},{dec.s})"
        )
        lines.append(f"linear partner: {format_partition(first)} "
                     f"(conjugate {format_partition(second)})")
        lines.append(f"proportionality ratio: sqrt2^{classify.ratio_exponent(al)}")
    return "\n".join(lines)


def cmd_info(args):
    if args.kind == "partition":
        print(_info_partition(_parse(pt.parse_partition, args.label)))
    else:
        print(_info_strict(_parse(pt.parse_strict, args.label)))
    return 0


# ---------------------------------------------------------------------------
# value

def cmd_value(args):
    nu = _parse(pt.parse_class, args.cls)
    spin = args.basis == "spin"
    label = _parse(pt.parse_strict if spin else pt.parse_partition, args.label)
    if pt.size(label) != pt.size(nu):
        raise UsageError(f"size mismatch: |{format_partition(label)}| != |{format_partition(nu)}|")
    if spin and any(q % 2 == 0 for q in nu):
        raise UsageError(f"spin values live on odd classes, got {format_partition(nu)}")
    print((charvalues.spin_value if spin else charvalues.chi)(label, nu))
    return 0


# ---------------------------------------------------------------------------
# apply

def cmd_apply(args):
    parse = pt.parse_partition if args.basis == "linear" else pt.parse_strict
    label = _parse(parse, args.label)
    if args.eps not in (0, 1):
        raise UsageError("--eps must be 0 or 1")
    v = charspace.unit(args.basis, label)
    if args.op in ("e", "f"):
        if args.c is not None or args.d is not None:
            raise UsageError("e and f take --r, not --c or --d")
        r = 1 if args.r is None else args.r
        if r < 0:
            raise UsageError("--r must be nonnegative")
        fn = charspace.apply_e if args.op == "e" else charspace.apply_f
        out = fn(v, args.eps, r)
    elif args.op == "S":
        if args.c is None:
            raise UsageError("S requires --c")
        if args.r is not None or args.d is not None:
            raise UsageError("S takes only --c")
        out = charspace.runner_swap(v, args.eps, args.c)
    else:
        if args.d is None:
            raise UsageError("R requires --d")
        if args.r is not None or args.c is not None:
            raise UsageError("R takes only --d")
        out = charspace.quot_red(v, args.eps, args.d)
    print(charspace.format_vector(out))
    return 0


# ---------------------------------------------------------------------------
# verify

def _print_text(reports):
    for rep in reports:
        for case in rep.cases:
            tag = "PASS" if case.ok else "FAIL"
            print(f"[{tag}] {rep.suite}: {case.input}")
            if not case.ok:
                print(f"       expected: {case.expected}")
                print(f"       actual:   {case.actual}")
        status = "PASS" if rep.ok else "FAIL"
        print(f"{rep.suite}: {status} ({len(rep.cases)} cases, maxN={rep.max_n}, {rep.millis} ms)")


def _print_csv(reports):
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(["suite", "input", "expected", "actual", "pass"])
    for rep in reports:
        for case in rep.cases:
            writer.writerow([rep.suite, case.input, case.expected, case.actual, case.ok])


def cmd_verify(args):
    if args.max_n is not None and args.max_n < 0:
        raise UsageError("--max-n must be nonnegative")
    if args.cache is not None:
        try:
            os.makedirs(args.cache, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"--cache {args.cache} is not a directory and cannot be made one"
                             f" ({exc.strerror})") from None
    if args.suite == "all":
        reports = verify.run_all(args.max_n, args.cache)
    else:
        reports = [verify.run_suite(args.suite, args.max_n, args.cache)]
    if args.fmt == "json":
        if len(reports) == 1:
            print(json.dumps(reports[0].to_dict()))
        else:
            print(json.dumps([rep.to_dict() for rep in reports]))
    elif args.fmt == "csv":
        _print_csv(reports)
    else:
        _print_text(reports)
    return 0 if all(rep.ok for rep in reports) else 1


COMMANDS = {
    "info": cmd_info,
    "value": cmd_value,
    "apply": cmd_apply,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, so the interpreter's last flush of what is
        # still buffered does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error in {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
