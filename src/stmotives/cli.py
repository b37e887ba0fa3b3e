"""Command-line surface.

  stmotives groups table --coeff a1|a2 [--group NAME]
  stmotives groups invariants
  stmotives motive sum --f1 27.2a --f2 9.4a --field Q(w) --bound-log2 16
  stmotives motive tensor-ec --e1 0,4 --e2 0,1 --field Q(w) --bound-log2 16
  stmotives motive symcube --e1 0,1 --field Q --bound-log2 12
  stmotives motive tensor-mf --f1 27.2a --f2 27.3.5a --bound-log2 12
  stmotives motive dwork --z -1 --bound-log2 10 [--coeffs a1|both]
  stmotives stats classify --in stats.tsv

Motive commands print the moment-statistics row (and with --classify the
nearest-group ranking); --coeffs a1 keeps the a1 moments alone.  Exit codes:
0 ok, 1 internal consistency failure, 2 bad arguments (an unknown group, field
or newform, a missing label or curve, wrong form weights, a singular curve,
a --z that is not a finite rational, z = 0 or 1, a bound below 2^1 or above
2^32 (the prime sieve takes one byte per integer up to the bound), --jobs
below 1, an --out path that cannot be written), 3 data errors (a bad, missing
or non-UTF-8 coefficient file, a stream with no good primes, a bad stats file).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import motives, stats, stgroups
from .cmforms import CoeffFileError, CurveSpec, FORMS
from .ntkernel import FIELD_ALIASES
from .records import ConsistencyError

MAX_BOUND_LOG2 = 32  # the prime sieve takes one byte per integer up to B = 2^N


class CliError(Exception):
    def __init__(self, msg, code=2):
        super().__init__(msg)
        self.code = code


def _field(name: str):
    try:
        return FIELD_ALIASES[name]
    except KeyError:
        raise CliError(f"unknown field {name!r}; one of {sorted(FIELD_ALIASES)}")


def _form(label: str | None, flag: str):
    if label is None:
        raise CliError(f"missing {flag}: a newform label")
    try:
        return FORMS[label]
    except KeyError:
        raise CliError(f"unknown newform {label!r}; one of {sorted(FORMS)}")


def _curve(text: str | None, flag: str) -> CurveSpec:
    if text is None:
        raise CliError(f"missing {flag}: a curve A,B or a1,a2,a3,a4,a6")
    try:
        parts = [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError(f"curve spec {text!r} must be comma-separated integers")
    if len(parts) == 2:
        return CurveSpec.short(*parts)
    if len(parts) == 5:
        return CurveSpec(*parts)
    raise CliError("curve spec needs 2 (A,B short form) or 5 (a1,..,a6) integers")


def _check_out(out: str | None):
    """Refuse an --out that is a directory, or whose parent is not a
    directory, before any work, with the error open() would give; the file
    is only opened once its text is ready."""
    if out and os.path.isdir(out):
        err = errno.EISDIR
    else:
        try:  # the trailing separator makes a parent that is a regular file ENOTDIR
            os.stat(os.path.join(os.path.dirname(out or "") or ".", ""))
            return
        except OSError as exc:
            err = exc.errno
    raise CliError(f"cannot write --out {out}: {os.strerror(err)}")


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write --out {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def cmd_groups(args) -> int:
    names = {args.group} if args.group else None
    if args.group and args.group not in {g.name for g in stgroups.catalog()}:
        raise CliError(f"unknown group {args.group!r}")
    if args.action == "table":
        _emit(stgroups.emit_group_table(args.coeff, names), args.out)
    else:  # invariants
        lines = ["#group\td\tc\tz1\tz2\tcomponent_group"]
        for g in stgroups.catalog():
            if names and g.name not in names:
                continue
            d, c, z1, z2, lbl = stgroups.invariants(g)
            z2s = ",".join(str(v) for v in z2)
            lines.append(f"{g.name}\t{d}\t{c}\t{z1}\t[{z2s}]\t{lbl}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _make_spec(args) -> motives.MotiveSpec:
    field = _field(args.field)
    try:
        if args.construction == "sum":
            cons = motives.DirectSum(_form(args.f1, "--f1"), _form(args.f2, "--f2"))
        elif args.construction == "tensor-ec":
            cons = motives.TensorEC(_curve(args.e1, "--e1"), _curve(args.e2, "--e2"))
        elif args.construction == "symcube":
            cons = motives.SymCube(_curve(args.e1, "--e1"))
        elif args.construction == "tensor-mf":
            cons = motives.TensorMF(_form(args.f1, "--f1"), _form(args.f2, "--f2"))
        else:
            cons = motives.Dwork(args.z)
    except ValueError as exc:  # refused by a curve, form or construction when built
        raise CliError(f"motive {args.construction}: {exc}")
    return motives.MotiveSpec(cons, field)


def cmd_motive(args) -> int:
    if args.bound_log2 < 1:
        raise CliError(f"--bound-log2 must be at least 1, got {args.bound_log2}")
    if args.bound_log2 > MAX_BOUND_LOG2:
        raise CliError(f"--bound-log2 must be at most {MAX_BOUND_LOG2} (the prime sieve takes "
                       f"one byte per integer up to the bound), got {args.bound_log2}")
    spec = _make_spec(args)
    bound = 2**args.bound_log2
    a1_only = args.coeffs == "a1"
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    _check_out(args.out)
    rows = motives.cached_lpoly_stream(spec, bound, args.cache_dir, a1_only=a1_only, jobs=args.jobs)
    if not rows:
        raise CliError(f"no good primes for {spec.describe()} up to {bound}", code=3)
    st = stats.moment_statistics(rows, bound)
    body = stats.emit_table([stats.stats_row(st)], fmt=args.format)
    header = f"# {spec.describe()} B=2^{args.bound_log2} primes={st.count}\n"
    text = header + body
    if args.classify:
        result = stats.classify(st)
        text += "".join(f"# rank{i+1} {name} dist={d:.6g}\n" for i, (name, d) in enumerate(result.ranked[:5]))
        text += f"# top {result.top}\n"
    _emit(text, args.out)
    return 0


def cmd_classify(args) -> int:
    try:
        with open(args.infile) as fh:
            st = stats.parse_stats_tsv(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {args.infile}: {exc}", code=3)
    except ValueError as exc:
        raise CliError(f"bad stats file: {exc}", code=3)
    result = stats.classify(st)
    for i, (name, d) in enumerate(result.ranked):
        sys.stdout.write(f"{i+1}\t{name}\t{d:.8g}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stmotives", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groups", help="exact group moment tables and invariants")
    g.add_argument("action", choices=("table", "invariants"))
    g.add_argument("--coeff", choices=("a1", "a2"), default="a1")
    g.add_argument("--group", default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_groups)

    m = sub.add_parser("motive", help="L-polynomial statistics of a construction")
    m.add_argument("construction", choices=("sum", "tensor-ec", "symcube", "tensor-mf", "dwork"))
    m.add_argument("--f1", help="weight-2 newform label")
    m.add_argument("--f2", help="weight-3/4 newform label")
    m.add_argument("--e1", help="curve A,B or a1,a2,a3,a4,a6")
    m.add_argument("--e2", help="curve A,B or a1,a2,a3,a4,a6")
    m.add_argument("--z", default="-1", help="Dwork parameter z (rational)")
    m.add_argument("--field", default="Q")
    m.add_argument("--bound-log2", type=int, required=True, metavar="N", help="norm bound B = 2^N")
    m.add_argument("--coeffs", choices=("a1", "both"), default="both",
                   help="a1: print and classify on c1 alone, leaving the a2 cells "
                        "empty (for dwork this skips the H_(p^2) sum)")
    m.add_argument("--classify", action="store_true")
    m.add_argument("--format", choices=("tsv", "aligned"), default="tsv")
    m.add_argument("--out", default=None)
    m.add_argument("--cache-dir", default=None)
    m.add_argument("--jobs", type=int, default=1)
    m.set_defaults(func=cmd_motive)

    s = sub.add_parser("stats", help="operate on emitted statistics files")
    s.add_argument("action", choices=("classify",))
    s.add_argument("--in", dest="infile", required=True)
    s.set_defaults(func=cmd_classify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except CoeffFileError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 3
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
