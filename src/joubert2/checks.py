"""Verification checks and `REGISTRY`, the rows `verify-all` runs; the
per-topic CLI subcommands run rows of their own through the same runner.

Every check re-derives the facts its witness reports before the witness is
serialized; a failed `require`, or any other exception, becomes a "fail"
outcome rather than escaping, and a blown budget becomes a "skip" (never a
silent downgrade).
Thread count is accepted for speed but kept out of manifests, because it
can never change a result.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from array import array
from itertools import product

from . import ascurve, cubic, jsearch, obstruct
from .errors import BudgetError, DomainError, require
from .fastscan import Workspace, run_chunked
from .ffield import FElt, TableOps, make_ext, make_field
from .fpoly import (UPoly, char_poly, char_poly_det, compress_poly,
                    format_poly, is_irreducible, parse_poly)
from .gflinalg import rref
from .jsearch import _ext_scan
from .report import CheckResult
from .sigma import is_joubert, power_traces, sigma_profile, sigma_profiles

import numpy as np


def _run(check_id: str, anchor: str, params: dict, body) -> CheckResult:
    t0 = time.perf_counter()
    try:
        witness = body()
        outcome = "pass"
    except BudgetError as e:
        outcome, witness = "skip", {"reason": str(e)}
    except (AssertionError, DomainError) as e:
        outcome, witness = "fail", {"error": str(e) or type(e).__name__}
    except Exception as e:  # one faulty check must not lose the manifest
        traceback.print_exc(file=sys.stderr)
        outcome, witness = "fail", {"error": f"{type(e).__name__}: {e}"}
    return CheckResult(check_id=check_id, anchor=anchor, params=params,
                       outcome=outcome, witness=witness,
                       elapsed_ms=(time.perf_counter() - t0) * 1000)


def check_shape_census(budget: int | None = None,
                       threads: int = 1) -> CheckResult:
    def body():
        polys = jsearch.enumerate_joubert_polys(2, budget=budget)
        texts = [format_poly(f) for f in polys]
        require(texts == ["t^6+t+1", "t^6+t^4+t^2+t+1"],
                "GF(2) sextics are not the two named ones")
        for text in texts:
            require(is_irreducible(parse_poly(text, make_field(2, 1))),
                    "named sextic is reducible")
        return {"candidates": 16, "irreducible": texts,
                "reverified": len(texts)}

    return _run(
        "shape-census-gf2",
        "Of the 16 monic sextics over GF(2) with zero coefficients at t^5 "
        "and t^3, exactly t^6+t+1 and t^6+t^4+t^2+t+1 are irreducible.",
        {"q": 2}, body)


def check_named_polynomials(budget: int | None = None,
                            threads: int = 1) -> CheckResult:
    def irreducible(poly: UPoly) -> bool:
        # Rabin's verdict, required to agree with Berlekamp's criterion
        verdict = is_irreducible(poly)
        require(_berlekamp_irreducible(poly) == verdict,
                "Rabin's and Berlekamp's criteria disagree")
        return verdict

    def body():
        f2 = make_field(2, 1, limit=budget)
        require(irreducible(parse_poly("t^6+t+1", f2)),
                "t^6+t+1 is reducible over GF(2)")
        f4 = make_field(2, 2, limit=budget)
        quartic_alphas = []
        for a in (2, 3):  # the two elements outside GF(2)
            poly = UPoly(f4, (a, 1, 1, 0, 0, 0, 1))
            require(irreducible(poly),
                    "quartic-alpha sextic is reducible over GF(4)")
            quartic_alphas.append(format_poly(poly))
        f8 = make_field(2, 3, limit=budget)
        betas = [b for b in range(2, 8)
                 if irreducible(UPoly(f8, (b, 1, 0, 0, 0, 0, 1)))]
        require(betas, "no constant term in GF(8) - GF(2) works")
        return {"gf2": "t^6+t+1", "gf4": quartic_alphas,
                "gf8_betas": [format_poly(UPoly(f8, (b,))) for b in betas]}

    return _run(
        "named-polynomials",
        "t^6+t+1 is irreducible over GF(2); t^6+t^2+t+a is irreducible over "
        "GF(4) for both a outside GF(2); some b in GF(8) outside GF(2) "
        "makes t^6+t+b irreducible over GF(8).",
        {}, body)


def _witness(search, q: int, n: int, budget: int | None):
    """search(q)'s report and F_{q^n}, the witness re-verified there."""
    rep = search(q, budget=budget)
    require(rep.found is not None, "no generator found")
    ext = make_ext(*jsearch._split_prime_power(q), n, limit=budget)
    require(is_joubert(rep.found, ext), "not a Joubert generator")
    return rep, ext


def check_generator_search(q: int, budget: int | None = None,
                           threads: int = 1) -> CheckResult:
    def body():
        rep, ext = _witness(jsearch.find_joubert_generator, q, 6, budget)
        prof = sigma_profile(rep.found, ext)
        require(prof.sigma(1) == 0 and prof.sigma(3) == 0,
                "witness has nonzero s1 or s3")
        mp = compress_poly(rep.found_min_poly, ext)
        require(is_irreducible(mp), "minimal polynomial is reducible")
        # the scan extent describes the search, not the claim; only the
        # mathematical content belongs in the manifest
        return {"witness_val": rep.found.val,
                "min_poly": format_poly(rep.found_min_poly, ext)}

    return _run(
        f"generator-search-q{q}",
        f"F_q^6 with q = {q} contains a generator over F_q whose first and "
        "third elementary symmetric functions vanish; the witness is "
        "re-verified from scratch.",
        {"q": q}, body)


def _squarefree(f: UPoly) -> bool:
    """Whether gcd(f, f') = 1, by Euclid on UPoly arithmetic."""
    field, a = f.field, f
    b = UPoly(field, [field.mul_val(i % field.p, c)
                      for i, c in enumerate(f.coeffs)][1:])
    while not b.is_zero():
        a, b = b, a % b
    return a.degree == 0


def _berlekamp_irreducible(f: UPoly) -> bool:
    """Berlekamp's criterion (E. R. Berlekamp, Bell Syst. Tech. J. 46,
    1967; Knuth, TAOCP vol. 2, 4.6.2): f of degree d over GF(Q) is
    irreducible iff gcd(f, f') = 1 and Q - I has rank d - 1, where row i of
    Q holds t^(iQ) mod f.  Its kernel counts the irreducible factors of a
    squarefree f.  It runs on UPoly arithmetic, not on the coefficient
    lists of Rabin's test."""
    field, d = f.field, f.degree
    if not _squarefree(f):
        return False
    tq = UPoly(field, [0] * field.order + [1]) % f
    row, rows = UPoly(field, [1]), []
    for i in range(d):
        rows.append([field.sub_val(row.coeff(j), int(i == j))
                     for j in range(d)])
        row = row * tq % f
    return len(rref(rows, field)[1]) == d - 1


def check_generator_enum(q: int, budget: int | None = None,
                         threads: int = 1) -> CheckResult:
    def body():
        # the root side: six roots per sextic, all Joubert generators,
        # counted by the vector kernels of GF(q^6) where they apply; run
        # before the enumeration, so that a GF(q^6) over budget skips at once
        roots = None
        if jsearch._vector_q(q):
            roots = jsearch.count_joubert_generators(
                q, budget=budget, threads=threads).count
        # the divisor sieve lists them; Rabin's test re-tests each one
        polys = jsearch.enumerate_joubert_polys(q, budget=budget)
        for f in polys:
            require(f.degree == 6 and f.is_monic(), "not a monic sextic")
            require(f.coeff(5) == 0 and f.coeff(3) == 0,
                    "nonzero t^5 or t^3 coefficient")
            require(is_irreducible(f), "sextic is reducible")
        routes = ["sieve", "rabin"]
        if roots is None:
            # no root side: a second criterion over every candidate
            field = make_field(*jsearch._split_prime_power(q))
            listed = [f for f in (UPoly(field, [d, c, b, 0, a, 0, 1])
                                  for a, b, c, d in product(range(q),
                                                            repeat=4))
                      if _berlekamp_irreducible(f)]
            require(listed == polys,
                    "sextic list disagrees with Berlekamp's criterion")
            routes.append("berlekamp")
        require(len(polys) * 6 % (q * q - q) == 0,
                "generator count is not a multiple of q^2 - q")
        if roots is not None:
            require(6 * len(polys) == roots,
                    "sextic count disagrees with the root-side count")
            routes.append("root-count")
        return {"count": len(polys),
                "first": format_poly(polys[0]) if polys else None,
                "generators": 6 * len(polys), "routes": routes}

    return _run(
        f"generator-enum-q{q}",
        f"All monic irreducible sextics over F_q (q = {q}) with zero t^5 "
        "and t^3 coefficients, each carrying 6 generators.",
        {"q": q}, body)


def check_hermite(q: int, budget: int | None = None,
                  threads: int = 1) -> CheckResult:
    def body():
        rep, ext = _witness(jsearch.hermite_search, q, 5, budget)
        return {"witness_val": rep.found.val,
                "min_poly": format_poly(rep.found_min_poly, ext),
                "scanned": rep.scanned}

    return _run(
        f"hermite-q{q}",
        f"F_q^5 with q = {q} contains a generator over F_q with zero first "
        "and third elementary symmetric functions.",
        {"q": q}, body)


def check_hermite_family(budget: int | None = None,
                         threads: int = 1) -> CheckResult:
    params = {"qs": [2, 3, 4, 5, 8, 9]}
    return _run(
        "hermite-family",
        "For q in {2,3,4,5,8,9}, F_q^5 contains a generator over F_q with "
        "zero first and third elementary symmetric functions.",
        params, lambda: {"witness_vals": {
            str(q): _witness(jsearch.hermite_search, q, 5, budget)[0].found.val
            for q in params["qs"]}})


def check_surface(q: int, budget: int | None = None,
                  threads: int = 1) -> CheckResult:
    jsearch._require_vector_q(q)  # a code limit, not a false claim

    def body():
        census = cubic.surface_census(q, budget=budget, threads=threads)
        if q == 2:
            require(census.total == 9, "GF(2) surface count is not 9")
        return {"total": census.total, "on_line": census.on_line,
                "generator_classes": census.generator_points,
                "trace_zero_cubic_count": census.affine_zero_count,
                "manin_floor": census.manin_floor,
                "generator_count": census.generator_count}

    return _run(
        f"surface-census-q{q}",
        f"In the projective space of trace-zero classes over F_q (q = {q}), "
        "the locus Tr(y^3) = 0 has q+1 points on the subfield line, meets "
        "the floor q^2-7q+1, and its class count matches the direct "
        "element count through (S - q)/(q^2 - q).",
        {"q": q}, body)


def check_obstruction(p: int, m: int, budget: int | None = None,
                      threads: int = 1) -> CheckResult:
    def body():
        g = obstruct.build_group(p, m, budget=budget)
        E = obstruct.choose_char_field(p, budget=budget)
        lines = obstruct.eigen_decomposition(g, E)
        require(len(lines) == g.n, "eigenline count is not n")
        for line in lines:
            require(obstruct.eigenline_powersum(line, E, p) == 1,
                    "eigenline p-power sum is not 1")
        ok, wits, note = obstruct.no_plane_in_x(g, E)
        require(ok, "an invariant plane lies in the variety")
        w = wits[0]
        return {"field": f"GF({E.order})", "lines": len(lines),
                "rank": g.n, "planes": len(wits), "all_excluded": True,
                "sample_witness": {"plane_basis": [list(r) for r in
                                                   w.plane.basis],
                                   "combination": list(w.coeffs),
                                   "equation": w.equation},
                "reduction": note}

    return _run(
        f"obstruction-p{p}m{m}",
        f"Two commuting copies of (Z/{p})^{m} acting block-regularly on "
        f"{2 * p**m} coordinates over the minimal GF(2^d) containing the "
        f"p-th roots of unity (p = {p}): the character lines span "
        f"everything, each has p-power sum 1, and no invariant 2-plane "
        f"lies in the variety where the first {p} power sums vanish.",
        {"p": p, "m": m}, body)


def check_obstruction_brute(p: int, m: int, budget: int | None = None,
                            threads: int = 1) -> CheckResult:
    def body():
        g = obstruct.build_group(p, m, budget=budget)
        E = obstruct.choose_char_field(p, budget=budget)
        swept = obstruct.count_2planes(g.n, E.order)
        excluded, found = obstruct.brute_force_oracle(g, E, budget=budget)
        require(excluded, "an invariant plane lies in the variety")
        structured = {pl.basis for pl in obstruct.invariant_planes(g, E)}
        require({pl.basis for pl in found} == structured,
                "brute-force planes differ from the structured list")
        return {"swept": swept, "invariant": len(found),
                "matches_structured_list": True, "all_excluded": True}

    return _run(
        f"obstruction-brute-p{p}m{m}",
        f"Brute-force sweep of every 2-dimensional subspace of E^{2 * p**m} "
        f"(p = {p}, m = {m}) reproduces the structured invariant-plane "
        "list exactly, and none lies in the power-sum variety.",
        {"p": p, "m": m}, body)


def check_curve(q: int, budget: int | None = None,
                threads: int = 1) -> CheckResult:
    jsearch._require_vector_q(q)  # a code limit, not a false claim

    def body():
        census = ascurve.curve_census(q, budget=budget)
        if q > 2:
            require(census.good_points >= 1, "no good fiber point")
        # the second count route, in scalar K arithmetic: the surface's N
        # projective zeros of the cubic form give |S| = q + (q^2 - q) N, and
        # every zero off the F_{q^3}-line is a class of q^2 - q generators
        n = cubic._form_total(cubic.build_frame(q, budget))
        require(ascurve.counts_from_surface(q, q + (q * q - q) * n,
                                            (q * q - q) * (n - q - 1))
                == (census.n_affine, census.good_points, census.bad_points),
                "curve counts differ from the cubic form")
        checked = ascurve.trace_identity_check(q, budget=budget)
        return {"n_affine": census.n_affine, "n_smooth": census.n_smooth,
                "genus": census.genus,
                "weil_window": [census.weil_low, census.weil_high],
                "good_points": census.good_points,
                "bad_points": census.bad_points,
                "bound_inequality": ascurve.bound_inequality(q),
                "trace_identity_points": checked}

    return _run(
        f"curve-census-q{q}",
        f"The cover u^q - u = x^(2q+1) + x^(q+2) over F_q^6 (q = {q}) has "
        "affine count divisible by q inside the Weil interval for genus "
        "q(q-1), at most q^5 bad fiber points, and the trace identity "
        "Tr((x^q+x)^3) = Tr(x^(2q+1)+x^(q+2)) holds at every point.",
        {"q": q}, body)


def check_curve_bounds(budget: int | None = None,
                       threads: int = 1) -> CheckResult:
    params = {"qs": [2, 4, 8, 16]}

    def body():
        flags = {str(q): ascurve.bound_inequality(q) for q in params["qs"]}
        require(flags == {"2": False, "4": True, "8": True, "16": True},
                "bound inequality flags differ")
        lo, _ = ascurve.weil_window(2)
        require(lo == 1 + 2**5, "Weil lower bound at q = 2 is not 1 + 2^5")
        return {"inequality_holds": flags, "q2_margin": 0}

    return _run(
        "curve-bound-inequality",
        "q^6 + 1 - 2q(q-1)q^3 > 1 + q^5 fails with equality at q = 2 and "
        "holds for q = 4, 8, 16.",
        params, body)


def check_newton_identities(budget: int | None = None,
                            threads: int = 1) -> CheckResult:
    params = {"count": 10000}

    def between(y, ext):
        # the scalar route: sigma_profile, power_traces and FElt arithmetic
        prof = sigma_profile(y, ext)
        big = ext.big
        s1 = FElt(big, prof.sigma(1))
        s2 = FElt(big, prof.sigma(2))
        rhs = s1**3 - 3 * s1 * s2
        if ext.n >= 3:
            rhs = rhs + 3 * FElt(big, prof.sigma(3))
        tr3 = power_traces(y, ext, 3)[2]
        require(tr3 == rhs.val, "Tr(y^3) differs from s1^3 - 3 s1 s2 + 3 s3")
        return prof.sigmas, tr3

    def batched(ext, vals):
        # the array route: sigma_profiles and gathers in the trace table
        ops = TableOps(ext.big)
        y = np.asarray(vals, dtype=np.intp)
        sig = sigma_profiles(y, ext, ops)
        tr3 = np.asarray(ext.whole_table("trace"))[ops.mul(ops.mul(y, y), y)]
        s1, s2, three = sig[0], sig[1], 3 % ext.big.p
        rhs = ops.sub(ops.mul(ops.mul(s1, s1), s1),
                      ops.mul(three, ops.mul(s1, s2)))
        if ext.n >= 3:
            rhs = ops.add(rhs, ops.mul(three, sig[2]))
        require(np.array_equal(tr3, rhs),
                "Tr(y^3) differs from s1^3 - 3 s1 s2 + 3 s3")
        return sig, tr3

    def audit(ext, vals, picks):
        # both routes must give the same sigmas and Tr(y^3) at each pick
        sig, tr3 = batched(ext, vals)
        for j in picks:
            require(between(FElt(ext.big, vals[j]), ext)
                    == (tuple(sig[:, j].tolist()), tr3[j]),
                    "batched profile differs from the scalar one")

    def body():
        fulls = [make_ext(p, k, n, limit=budget)
                 for p, k, n in ((5, 1, 4), (7, 1, 2))]
        pools = [make_ext(p, k, n, limit=budget)
                 for p, k, n in ((2, 1, 12), (3, 1, 5), (5, 1, 6))]
        exhaustive = {}
        for ext in fulls:
            audit(ext, range(ext.big.order), range(ext.big.order))
            exhaustive[f"GF({ext.big.p}^{ext.big.m})"] = ext.big.order
        rng = random.Random(99991)
        drawn = [array("l") for _ in pools]  # packed, not one int per sample
        for i in range(params["count"]):
            k = i % len(pools)
            drawn[k].append(rng.randrange(pools[k].big.order))
        picks = random.Random(2014)
        for ext, vals in zip(pools, drawn):
            audit(ext, vals, picks.sample(range(len(vals)), 64))
        return {"exhaustive": exhaustive, "sampled": sum(map(len, drawn))}

    return _run(
        "newton-identities",
        "Tr(y^3) equals s1^3 - 3 s1 s2 + 3 s3 (the s3 term absent in "
        "degree 2) for every element of F_5^4 and F_7^2 and for 10000 "
        "seeded samples from three larger extensions.",
        params, body)


def check_trace_square(budget: int | None = None,
                       threads: int = 1) -> CheckResult:
    params = {"qs": [2, 4, 8]}

    def body():
        scans = {q: _ext_scan(2, q.bit_length() - 1, 6, budget)
                 for q in params["qs"]}
        ws = Workspace()

        def agree(scan, lo: int, hi: int) -> int:
            n = hi - lo
            z = ws.arange("z", lo, hi)
            sq, tr = ws.get("sq", n), ws.get("tr", n)
            lhs = scan.trace(scan.ops.square(z, out=sq), out=sq)
            rhs = scan.ops.square(scan.trace(z, out=tr), out=tr)
            require(np.array_equal(lhs, rhs), "Tr(z^2) differs from Tr(z)^2")
            return n

        checked = {}
        rng = random.Random(2014)
        for q, scan in scans.items():
            checked[str(q)] = sum(run_chunked(
                q**6, lambda lo, hi: agree(scan, lo, hi), threads=threads))
            # a vector trace off by the constant 1 still meets the identity,
            # as (a + 1)^2 = a^2 + 1, so the scalar trace is a second route
            vals = (range(q**6) if q < 8
                    else [rng.randrange(q**6) for _ in range(1024)])
            z = np.array(vals, dtype=np.uint32)
            require(scan.trace(z).tolist()
                    == [scan.ext.trace_val(v) for v in vals],
                    "vector trace differs from the scalar trace")
        return {"checked": checked}

    return _run(
        "trace-square-frobenius",
        "Tr(z^2) = Tr(z)^2 for every z in F_q^6, q in {2, 4, 8}: the "
        "relative trace commutes with squaring in characteristic 2.",
        params, body)


def check_charpoly_routes(budget: int | None = None,
                          threads: int = 1) -> CheckResult:
    def body():
        ext = make_ext(2, 1, 6, limit=budget)
        ys = [FElt(ext.big, v) for v in range(ext.big.order)]
        wrong = sum(char_poly(y, ext) != char_poly_det(y, ext) for y in ys)
        require(wrong == 0, "char_poly routes disagree")
        return {"elements": len(ys), "mismatches": wrong}

    return _run(
        "charpoly-two-routes",
        "For every element of F_2^6, the characteristic polynomial from "
        "the product of Frobenius conjugates equals the determinant of the "
        "multiplication matrix route; zero mismatches.",
        {"q": 2, "n": 6}, body)


# (check_* name, args) rows in run order; the names are looked up on this
# module when they run, so a replaced check_* runs in its place
REGISTRY = (
    ("check_shape_census", ()),
    ("check_named_polynomials", ()),
    *[("check_generator_search", (q,)) for q in (2, 4, 8, 16)],
    *[("check_surface", (q,)) for q in (2, 4, 8, 16)],
    *[("check_obstruction", pm) for pm in ((3, 1), (5, 1), (7, 1), (3, 2))],
    ("check_obstruction_brute", (3, 1)),
    *[("check_curve", (q,)) for q in (2, 4, 8)],
    *[(name, ()) for name in ("check_curve_bounds", "check_hermite_family",
                              "check_newton_identities", "check_trace_square",
                              "check_charpoly_routes")],
)


def verify_all_checks(budget: int | None = None, threads: int = 1,
                      rows=REGISTRY) -> list[CheckResult]:
    return [globals()[name](*args, budget, threads) for name, args in rows]
