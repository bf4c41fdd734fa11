"""Acceptance criteria for the whole engine.

Each criterion is one test: it performs the full computation, asserts the
required outcome at its stated tolerance, enforces the stated time limit,
and prints one PASS/FAIL line straight to the terminal.
"""

import os
import subprocess
import sys
import time

from joubert2 import checks
from joubert2.ascurve import (bound_inequality, curve_census,
                              trace_identity_check)
from joubert2.cli import main
from joubert2.cubic import surface_census
from joubert2.ffield import make_ext, make_field
from joubert2.fpoly import UPoly, compress_poly, format_poly, is_irreducible
from joubert2.jsearch import (count_joubert_generators,
                              enumerate_joubert_polys,
                              find_joubert_generator, hermite_search)
from joubert2.obstruct import (brute_force_oracle, build_group,
                               choose_char_field, count_2planes,
                               eigen_decomposition, eigenline_powersum,
                               invariant_planes, no_plane_in_x)
from joubert2.report import strip_timing
from joubert2.sigma import is_joubert, sigma_profile

REGISTRY_MANIFEST = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "perfbench", "registry_manifest.json")


def _criterion(capsys, name, limit_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {name}: FAIL")
        raise
    dt = time.perf_counter() - t0
    suffix = f" / limit {limit_s:.0f}s" if limit_s else ""
    with capsys.disabled():
        print(f"\ncriterion {name}: PASS ({dt:.2f}s{suffix})")
    if limit_s is not None:
        assert dt <= limit_s


def test_01_shape_census_gf2(capsys):
    def body():
        polys = enumerate_joubert_polys(2)
        assert [format_poly(f) for f in polys] == [
            "t^6+t+1", "t^6+t^4+t^2+t+1"]

    _criterion(capsys, "01 shape census over GF(2)", 1.0, body)


def test_02_named_polynomials(capsys):
    def body():
        f2 = make_field(2, 1)
        assert is_irreducible(UPoly(f2, (1, 1, 0, 0, 0, 0, 1)))
        f4 = make_field(2, 2)
        outside = [a for a in range(4) if a not in (0, 1)]
        assert len(outside) == 2
        for a in outside:
            assert is_irreducible(UPoly(f4, (a, 1, 1, 0, 0, 0, 1)))
        f8 = make_field(2, 3)
        betas = [b for b in range(2, 8)
                 if is_irreducible(UPoly(f8, (b, 1, 0, 0, 0, 0, 1)))]
        assert betas

    _criterion(capsys, "02 named irreducible sextics", 1.0, body)


def test_03_generator_search_all_q(capsys):
    def body():
        for q, k in ((2, 1), (4, 2), (8, 3), (16, 4)):
            rep = find_joubert_generator(q)
            assert rep.found is not None
            ext = make_ext(2, k, 6)
            assert is_joubert(rep.found, ext)
            prof = sigma_profile(rep.found, ext)
            assert prof.sigma(1) == 0 and prof.sigma(3) == 0
            assert is_irreducible(compress_poly(rep.found_min_poly, ext))

    _criterion(capsys, "03 generator search q in {2,4,8,16}", 30.0, body)


def test_04_surface_census_all_q(capsys):
    def body():
        for q in (2, 4, 8, 16):
            census = surface_census(q)
            assert census.on_line == q + 1
            assert census.total >= q * q - 7 * q + 1
            assert census.total - census.generator_points == q + 1
            count = count_joubert_generators(q).count
            classes = q * q - q
            assert count % classes == 0
            assert census.generator_points == count // classes
            assert census.total == count // classes + (q + 1)
            # second route: direct count of trace-zero y with Tr(y^3) = 0
            s = census.affine_zero_count
            assert (s - q) % classes == 0
            assert census.total == (s - q) // classes
            if q == 2:
                assert census.total == 9

    _criterion(capsys, "04 surface census q in {2,4,8,16}", 60.0, body)


def test_05_obstruction_structured(capsys):
    def body():
        for p, m in ((3, 1), (5, 1), (7, 1), (3, 2)):
            g = build_group(p, m)
            E = choose_char_field(p)
            lines = eigen_decomposition(g, E)  # asserts rank == n inside
            assert len(lines) == 2 * p**m
            assert all(eigenline_powersum(l, E, p) == 1 for l in lines)
            ok, wits, _ = no_plane_in_x(g, E)
            assert ok
            assert len(wits) == len(invariant_planes(g, E))

    _criterion(capsys, "05 invariant-plane obstruction", 60.0, body)


def test_06_obstruction_brute_force(capsys):
    def body():
        g = build_group(3, 1)
        E = choose_char_field(3)
        assert count_2planes(g.n, E.order) == 93093
        excluded, found = brute_force_oracle(g, E)
        assert excluded
        assert len(found) == 27
        assert ({pl.basis for pl in found}
                == {pl.basis for pl in invariant_planes(g, E)})

    _criterion(capsys, "06 brute-force plane sweep", 60.0, body)


def test_07_curve_census(capsys):
    def body():
        for q in (2, 4, 8):
            census = curve_census(q)
            assert census.n_affine % q == 0
            assert census.weil_low <= census.n_smooth <= census.weil_high
            assert census.bad_points <= q**5
            if q in (4, 8):
                assert census.good_points >= 1
            assert trace_identity_check(q) == q**6
        assert not bound_inequality(2)
        for q in (4, 8, 16):
            assert bound_inequality(q)

    _criterion(capsys, "07 curve census q in {2,4,8}", 60.0, body)


def test_08_hermite_degree_five(capsys):
    def body():
        for q, p, k in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1),
                        (8, 2, 3), (9, 3, 2)):
            rep = hermite_search(q)
            assert rep.found is not None
            assert is_joubert(rep.found, make_ext(p, k, 5))

    _criterion(capsys, "08 degree-5 analogue q in {2,3,4,5,8,9}", 10.0, body)


def test_09_identity_audits(capsys):
    def body():
        newton = checks.check_newton_identities()
        assert newton.outcome == "pass", newton.witness
        assert newton.witness["sampled"] == 10000
        assert newton.witness["exhaustive"] == {"GF(5^4)": 625,
                                                "GF(7^2)": 49}
        square = checks.check_trace_square()
        assert square.outcome == "pass", square.witness
        assert square.witness["checked"] == {"2": 64, "4": 4096,
                                             "8": 262144}
        routes = checks.check_charpoly_routes()
        assert routes.outcome == "pass", routes.witness
        assert routes.witness["mismatches"] == 0

    _criterion(capsys, "09 symmetric-function identity audits", None, body)


def test_10_verify_all_determinism(capsys, tmp_path):
    def body():
        # the manifest recorded for the benchmark pins the whole run
        with open(REGISTRY_MANIFEST, encoding="utf-8") as fh:
            recorded = fh.read()
        for t in ("1", "2"):
            path = tmp_path / f"manifest-t{t}.json"
            assert main(["verify-all", "--format", "json", "--threads", t,
                         "--out", str(path)]) == 0
            assert strip_timing(path.read_text(encoding="utf-8")) == recorded
        # the same two runs in one `python -O` process
        code = ("import sys\n"
                "from joubert2.cli import main\n"
                f"print([main(['verify-all', '--format', 'json', '--threads', "
                f"t, '--out', {str(tmp_path)!r} + '/manifest-O-t' + t + "
                f"'.json']) for t in '12'], sys.flags.optimize)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=300)
        assert proc.stdout.splitlines()[-1:] == ["[0, 0] 1"], proc.stderr
        for t in ("1", "2"):
            path = tmp_path / f"manifest-O-t{t}.json"
            assert strip_timing(path.read_text(encoding="utf-8")) == recorded

    _criterion(capsys, "10 verify-all thread determinism", None, body)
