"""Command-line entry point: per-topic verification subcommands plus
`verify-all`, each emitting a manifest in json, text, or csv form.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error, 3 a budget cap stopped at least one check (caps are never silently
downgraded into smaller runs).  Every check verifies with
`errors.require`, so `python -O` changes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import __version__, checks
from .errors import DomainError
from .fastscan import MAX_DEGREE
from .ffield import require_odd_prime
from .jsearch import _require_pow2, _require_vector_q, _split_prime_power
from .report import EMITTERS, Manifest

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUDGET_ENV = "JOUBERT2_BUDGET"


def _require_positive(n: int) -> None:
    if n < 1:
        raise DomainError(f"{n} must be positive")


def _int(require):
    """argparse type: an int that `require` accepts.  Its DomainError is a
    usage error, so bad input never reaches a check."""
    def parse(text: str) -> int:
        try:
            val = int(text)
            require(val)
        except DomainError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        return val
    return parse


_positive = _int(_require_positive)
_Q_POW2 = dict(type=_int(_require_pow2), required=True,
               help="base field size, a power of 2")
_Q_VECTOR = dict(type=_int(_require_vector_q), required=True,
                 help=f"base field size, a power of 2 with q^6 <= "
                      f"2^{MAX_DEGREE}")
_Q_ANY = dict(type=_int(_split_prime_power), required=True,
              help="base field size, any prime power")
_P = dict(type=_int(require_odd_prime), required=True, help="odd prime")
_M = dict(type=_positive, required=True, help="exponent rank")

# command -> its help, its options (dest -> argparse keywords) and `rows`,
# from those options to the rows that `checks.verify_all_checks` runs.
COMMANDS = {
    "joubert-search": dict(
        help="find and re-verify one degree-6 generator with s1 = s3 = 0",
        options={"q": _Q_POW2},
        rows=lambda q: [("check_generator_search", (q,))]),
    "joubert-enum": dict(
        help="enumerate the monic irreducible sextics with zero t^5 and t^3 "
             "coefficients",
        options={"q": _Q_ANY},
        rows=lambda q: [("check_generator_enum", (q,))]),
    "hermite": dict(
        help="find a degree-5 generator with s1 = s3 = 0",
        options={"q": _Q_ANY},
        rows=lambda q: [("check_hermite", (q,))]),
    "surface": dict(
        help="census of the cubic locus on the trace-zero projective quotient",
        options={"q": _Q_VECTOR},
        rows=lambda q: [("check_surface", (q,))]),
    "obstruction": dict(
        help="invariant-plane obstruction for the block action of "
             "(Z/pZ)^m x (Z/pZ)^m",
        options={"p": _P, "m": _M,
                 "brute_force": dict(
                     action="store_true",
                     help="also sweep every 2-dim subspace as an oracle")},
        rows=lambda p, m, brute_force: [("check_obstruction", (p, m))] + (
            [("check_obstruction_brute", (p, m))] if brute_force else [])),
    "curve": dict(
        help="fiber census of u^q - u = x^(2q+1) + x^(q+2)",
        options={"q": _Q_VECTOR},
        rows=lambda q: [("check_curve", (q,))]),
    "verify-all": dict(
        help="run the complete check registry",
        options={},
        rows=lambda: checks.REGISTRY),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="joubert2",
        description="finite-field verification engine for degree-6 "
                    "generators with vanishing first and third symmetric "
                    "functions")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        sp = sub.add_parser(command, help=spec["help"])
        for dest, kw in spec["options"].items():
            sp.add_argument("--" + dest.replace("_", "-"), **kw)
        sp.add_argument("--budget", type=_positive, default=None,
                        help="largest element count any single scan may "
                             f"touch (default: ${BUDGET_ENV} or 2^28)")
        sp.add_argument("--threads", type=_positive, default=1,
                        help="worker threads for chunked scans; never "
                             "changes results")
        sp.add_argument("--out", default=None,
                        help="write the manifest here instead of stdout")
        sp.add_argument("--format", choices=sorted(EMITTERS),
                        default="text", help="manifest format")
    return ap


def _resolve_budget(ap: argparse.ArgumentParser, args) -> int | None:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        return _positive(raw)
    except argparse.ArgumentTypeError as e:
        ap.error(f"${BUDGET_ENV}: {e}")


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory,
    renamed over path only once complete: a failed write leaves any
    previous file as it was."""
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    budget = _resolve_budget(ap, args)
    spec = COMMANDS[args.command]
    opts = {dest: getattr(args, dest) for dest in spec["options"]}
    results = checks.verify_all_checks(budget, args.threads,
                                       spec["rows"](**opts))
    config = dict(opts, command=args.command, budget=budget)
    manifest = Manifest(version=__version__, config=config, checks=results)
    text = EMITTERS[args.format](manifest)
    if args.out:
        try:
            _write_atomic(args.out, text)
        except OSError as e:
            print(f"joubert2: error: cannot write --out {args.out}: {e}",
                  file=sys.stderr)
            return EXIT_USAGE
        t = manifest.tally
        print(f"wrote {args.out} (verdict: {manifest.verdict}; "
              f"{t['pass']} passed, {t['fail']} failed, {t['skip']} skipped)")
    else:
        sys.stdout.write(text)
    if manifest.verdict == "fail":
        return EXIT_FAIL
    if any(c.outcome == "skip" for c in manifest.checks):
        return EXIT_BUDGET
    return EXIT_PASS


if __name__ == "__main__":
    raise SystemExit(main())
