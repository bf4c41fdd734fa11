"""Command-line entry point: per-topic verification subcommands plus
`verify-all`, each emitting a manifest in json, text, or csv form.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error, 3 a budget cap stopped at least one check (caps are never silently
downgraded into smaller runs).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, checks
from .errors import DomainError
from .jsearch import _require_pow2, _split_prime_power
from .report import EMITTERS, Manifest

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUDGET_ENV = "JOUBERT2_BUDGET"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="joubert2",
        description="finite-field verification engine for degree-6 "
                    "generators with vanishing first and third symmetric "
                    "functions")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--budget", type=int, default=None,
                        help="largest element count any single scan may "
                             f"touch (default: ${BUDGET_ENV} or 2^28)")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads for chunked scans; never "
                             "changes results")
        sp.add_argument("--out", default=None,
                        help="write the manifest here instead of stdout")
        sp.add_argument("--format", choices=sorted(EMITTERS),
                        default="text", help="manifest format")

    sp = sub.add_parser("joubert-search",
                        help="find and re-verify one degree-6 generator "
                             "with s1 = s3 = 0")
    sp.add_argument("--q", type=int, required=True,
                    help="base field size, a power of 2")
    common(sp)

    sp = sub.add_parser("joubert-enum",
                        help="enumerate the monic irreducible sextics with "
                             "zero t^5 and t^3 coefficients")
    sp.add_argument("--q", type=int, required=True,
                    help="base field size, any prime power")
    common(sp)

    sp = sub.add_parser("hermite",
                        help="find a degree-5 generator with s1 = s3 = 0")
    sp.add_argument("--q", type=int, required=True,
                    help="base field size, any prime power")
    common(sp)

    sp = sub.add_parser("surface",
                        help="census of the cubic locus on the trace-zero "
                             "projective quotient")
    sp.add_argument("--q", type=int, required=True,
                    help="base field size, a power of 2")
    sp.add_argument("--smooth-deg", type=int, choices=[1, 2], default=None,
                    help="also scan for singular points with coordinates "
                         "in the degree-D extension")
    common(sp)

    sp = sub.add_parser("obstruction",
                        help="invariant-plane obstruction for the block "
                             "action of (Z/pZ)^m x (Z/pZ)^m")
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--m", type=int, required=True, help="exponent rank")
    sp.add_argument("--brute-force", action="store_true",
                    help="also sweep every 2-dim subspace as an oracle")
    common(sp)

    sp = sub.add_parser("curve",
                        help="fiber census of u^q - u = x^(2q+1) + x^(q+2)")
    sp.add_argument("--q", type=int, required=True,
                    help="base field size, a power of 2")
    common(sp)

    sp = sub.add_parser("explore",
                        help="informational count of elements killing the "
                             "first p power traces in degree 2p^m")
    sp.add_argument("--q", type=int, required=True,
                    help="base field size, a power of 2")
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--m", type=int, required=True, help="exponent rank")
    common(sp)

    sp = sub.add_parser("verify-all",
                        help="run the complete check registry")
    common(sp)

    return ap


def _validate(ap: argparse.ArgumentParser, args) -> None:
    """Reject malformed parameters before any check runs, so bad input is a
    usage error rather than a failed check."""
    try:
        if args.command in ("joubert-search", "surface", "curve", "explore"):
            _require_pow2(args.q)
        if args.command in ("joubert-enum", "hermite"):
            _split_prime_power(args.q)
        if args.command in ("obstruction", "explore"):
            from .ffield import is_prime
            if args.p == 2 or not is_prime(args.p):
                raise DomainError(f"p = {args.p} must be an odd prime")
            if args.m < 1:
                raise DomainError(f"m = {args.m} must be positive")
        if args.budget is not None and args.budget < 1:
            raise DomainError("--budget must be positive")
        if args.threads < 1:
            raise DomainError("--threads must be positive")
    except DomainError as e:
        ap.error(str(e))


def _resolve_budget(ap: argparse.ArgumentParser, args) -> int | None:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        val = int(raw)
        if val < 1:
            raise ValueError
    except ValueError:
        ap.error(f"${BUDGET_ENV} must be a positive integer, got {raw!r}")
    return val


def _gather(args, budget: int | None) -> tuple[list, dict]:
    t = args.threads
    if args.command == "joubert-search":
        return ([checks.check_generator_search(args.q, budget, t)],
                {"q": args.q})
    if args.command == "joubert-enum":
        return ([checks.check_generator_enum(args.q, budget, t)],
                {"q": args.q})
    if args.command == "hermite":
        return [checks.check_hermite(args.q, budget, t)], {"q": args.q}
    if args.command == "surface":
        out = [checks.check_surface(args.q, budget, t)]
        config = {"q": args.q}
        if args.smooth_deg is not None:
            out.append(checks.check_smoothness(args.q, args.smooth_deg,
                                               budget, t))
            config["smooth_deg"] = args.smooth_deg
        return out, config
    if args.command == "obstruction":
        out = [checks.check_obstruction(args.p, args.m, budget, t)]
        if args.brute_force:
            out.append(checks.check_obstruction_brute(args.p, args.m,
                                                      budget, t))
        return out, {"p": args.p, "m": args.m,
                     "brute_force": args.brute_force}
    if args.command == "curve":
        return [checks.check_curve(args.q, budget, t)], {"q": args.q}
    if args.command == "explore":
        return ([checks.check_explore(args.q, args.p, args.m, budget, t)],
                {"q": args.q, "p": args.p, "m": args.m})
    assert args.command == "verify-all"
    return checks.verify_all_checks(budget, t), {}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    _validate(ap, args)
    budget = _resolve_budget(ap, args)
    results, config = _gather(args, budget)
    config["command"] = args.command
    config["budget"] = budget
    manifest = Manifest(version=__version__, config=config, checks=results)
    text = EMITTERS[args.format](manifest)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
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
