"""Fiber census of the additive cover: counts, Weil interval, bound
inequality, and the links back to generator search and the surface scan."""

import math
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from joubert2 import ascurve, checks, fastscan
from joubert2.ascurve import (bound_inequality, curve_census, fiber_size,
                              genus_of, rhs_value, scalar_counts,
                              trace_identity_check, weil_window)
from joubert2.cubic import surface_census
from joubert2.errors import BudgetError, CheckFailed, DomainError
from joubert2.ffield import FElt, make_ext, make_field, rel_frobenius
from joubert2.jsearch import count_joubert_generators, enumerate_joubert_polys

TESTS = Path(__file__).resolve().parent

PINNED = {
    2: dict(n_affine=80, n_smooth=81, genus=2, weil_low=33, weil_high=97,
            good_points=48, bad_points=32),
    4: dict(n_affine=3328, n_smooth=3329, genus=12, weil_low=2561,
            weil_high=5633, good_points=2304, bad_points=1024),
    8: dict(n_affine=290816, n_smooth=290817, genus=56, weil_low=204801,
            weil_high=319489, good_points=258048, bad_points=32768),
    16: dict(n_affine=15794176, n_smooth=15794177, genus=240,
             weil_low=14811137, weil_high=18743297, good_points=14745600,
             bad_points=1048576),
}


class TestCensus:
    def test_pinned_counts(self):
        for q, want in PINNED.items():
            c = curve_census(q)
            for key, val in want.items():
                assert getattr(c, key) == val, (q, key)

    def test_structural_invariants(self):
        for q in (2, 4, 8):
            c = curve_census(q)
            assert c.n_affine % q == 0
            assert c.n_smooth == c.n_affine + 1
            assert c.weil_low <= c.n_smooth <= c.weil_high
            assert c.good_points + c.bad_points == c.n_affine
            assert c.bad_points <= q**5
            assert c.good_points >= 1

    def test_bad_points_fill_their_bound(self):
        # the y-preimage of the cubic subextension has full size q^4 here
        for q in (2, 4, 8):
            assert curve_census(q).bad_points == q**5

    def test_direct_double_loop_q2(self):
        ext = make_ext(2, 1, 6)
        f = ext.big
        count = 0
        for xv, uv in product(range(64), repeat=2):
            xq = f.pow_val(xv, 2)
            rhs = f.mul_val(f.mul_val(xv, xq), f.add_val(xq, xv))
            if f.add_val(f.pow_val(uv, 2), uv) == rhs:
                count += 1
        assert count == 80 == curve_census(2).n_affine

    def test_thread_count_never_changes_results(self):
        a = curve_census(8, threads=1)
        b = curve_census(8, threads=3)
        for key in ("n_affine", "n_smooth", "good_points", "bad_points"):
            assert getattr(a, key) == getattr(b, key)

    def test_budget_and_domain_guards(self):
        with pytest.raises(BudgetError) as exc:
            curve_census(16, budget=10**6)
        assert (exc.value.needed, exc.value.budget) == (16**6, 10**6)
        for q in (3, 6, 7):
            with pytest.raises(DomainError):
                curve_census(q)


class TestTowerCensus:
    def test_tower_path_runs_at_small_q(self, monkeypatch):
        calls = []
        real = fastscan.Tower.mul_hi

        def spy(self, *args, **kwargs):
            calls.append(self.h)
            return real(self, *args, **kwargs)

        for q, k in ((2, 1), (4, 2)):
            scan = ascurve._ext_scan(2, k, 6)
            scan.tower  # built and sample-checked
            monkeypatch.setattr(fastscan.Tower, "mul_hi", spy)
            calls.clear()
            c = curve_census(q)
            assert (c.n_affine, c.bad_points) == (PINNED[q]["n_affine"],
                                                  PINNED[q]["bad_points"])
            assert calls == [3 * k]  # one chunk, in K = GF(2^(3k))

    def test_dropped_cube_term_fails_the_trace_identity(self, monkeypatch):
        # (1 + c) y1^3 planted away from the w-half of y^3, after the tower
        # view's own sample check: the in-scan cross-check must see it
        tower = ascurve._ext_scan(2, 3, 6).tower.tower
        monkeypatch.setattr(tower, "c1_log", int(tower.log[0]))
        with pytest.raises(CheckFailed,
                           match="solvability differs from the trace"):
            curve_census(8)
        result = checks.check_curve(8)
        assert result.outcome == "fail"
        assert result.witness == {
            "error": "solvability differs from the trace identity"}

    @pytest.mark.parametrize("bit", [0, 17])
    def test_flipped_frobenius_bit_fails(self, monkeypatch, bit):
        # one bit of one composed tower-Frobenius image: the view's sample
        # check raises when the view is built, and the census fails when
        # the flip bypasses that check
        real = fastscan._in_tower
        hit = []

        def planted(tower, lm, tower_out=True):
            out = real(tower, lm, tower_out)
            if hit or not tower_out:  # x -> x^q, not the trace
                return out
            hit.append(lm)
            images = list(out.images)
            images[5] ^= 1 << bit
            return fastscan.LinearMap(images)

        monkeypatch.setattr(fastscan, "_in_tower", planted)
        scan = fastscan.ExtScan(make_ext(2, 3, 6))
        with pytest.raises(fastscan.TableError, match="tower view"):
            scan.tower
        assert hit == [scan._frob]
        monkeypatch.undo()
        tables = ascurve._census_tables(ascurve._ext_scan(2, 3, 6))
        images = list(tables.view.frob.images)
        images[5] ^= 1 << bit
        monkeypatch.setattr(tables, "frob", fastscan.ChunkMap(
            fastscan.LinearMap(images), 8**6))
        with pytest.raises(CheckFailed):
            curve_census(8)

    def test_scalar_route_matches_the_census(self):
        for q in (2, 4):
            c = curve_census(q)
            assert scalar_counts(q) == (c.n_affine, c.bad_points)

    def test_curve_check_fails_on_a_planted_fiber_size(self, monkeypatch):
        # the scalar route of check_curve shares no table with the census
        monkeypatch.setattr(ascurve, "fiber_size", lambda c, ext: ext.q)
        for q in (2, 4):
            result = checks.check_curve(q)
            assert result.outcome == "fail"
            assert result.witness == {
                "error": "scalar fiber count differs from the census"}


class TestFibers:
    def test_fiber_size_by_root_enumeration_q2(self):
        ext = make_ext(2, 1, 6)
        f = ext.big
        for cv in range(64):
            direct = sum(1 for uv in range(64)
                         if f.add_val(f.pow_val(uv, 2), uv) == cv)
            assert direct == fiber_size(FElt(f, cv), ext)

    def test_fiber_sizes_sum_to_field_size(self):
        for q, k in ((2, 1), (4, 2)):
            ext = make_ext(2, k, 6)
            total = sum(fiber_size(FElt(ext.big, cv), ext)
                        for cv in range(ext.big.order))
            assert total == q**6

    def test_fiber_size_values(self):
        ext = make_ext(2, 2, 6)
        sizes = {fiber_size(FElt(ext.big, cv), ext) for cv in range(200)}
        assert sizes == {0, 4}

    def test_wrong_field_rejected(self):
        ext = make_ext(2, 1, 6)
        with pytest.raises(DomainError):
            fiber_size(FElt(make_field(2, 2), 1), ext)

    def test_rhs_factored_vs_monomial(self):
        ext = make_ext(2, 1, 6)
        for xv in range(64):
            x = FElt(ext.big, xv)
            monomial = x**5 + x**4  # 2q+1 = 5, q+2 = 4 at q = 2
            assert rhs_value(x, ext) == monomial

    def test_rel_frobenius(self):
        ext = make_ext(2, 2, 6)
        x = FElt(ext.big, 7)
        assert rel_frobenius(x, ext) == x**4


class TestIdentityAndBounds:
    def test_trace_identity_exhaustive(self):
        for q in (2, 4, 8):
            assert trace_identity_check(q) == q**6

    def test_genus(self):
        assert [genus_of(q) for q in (2, 4, 8, 16)] == [2, 12, 56, 240]
        for q in (2, 4, 8, 16, 32):
            assert math.gcd(2 * q + 1, q) == 1
            assert genus_of(q) == q * (q - 1)

    def test_weil_window(self):
        assert weil_window(2) == (33, 97)
        for q in (2, 4, 8):
            lo, hi = weil_window(q)
            assert lo == q**6 + 1 - 2 * q * (q - 1) * q**3
            assert hi == q**6 + 1 + 2 * q * (q - 1) * q**3

    def test_bound_inequality_flips_at_four(self):
        assert not bound_inequality(2)
        assert bound_inequality(4)
        assert bound_inequality(8)
        assert bound_inequality(16)

    def test_q2_bound_is_exactly_tight(self):
        lo, _ = weil_window(2)
        assert lo == 1 + 2**5  # 33 on both sides: the inequality just fails

    def test_rejects_odd_characteristic(self):
        with pytest.raises(DomainError):
            bound_inequality(9)
        with pytest.raises(DomainError):
            genus_of(3)


class TestCrossModule:
    def test_good_points_count_generators(self):
        # y = x^q + x is q-to-1 onto the trace-zero hyperplane, and each
        # solvable x carries q fiber points
        for q in (2, 4):
            c = curve_census(q)
            assert c.good_points == q**2 * count_joubert_generators(q).count

    def test_good_points_count_polynomials(self):
        for q in (2, 4, 8):
            c = curve_census(q)
            polys = enumerate_joubert_polys(q)
            assert c.good_points == 6 * q**2 * len(polys)

    def test_affine_count_matches_surface_zero_count(self):
        for q in (2, 4):
            c = curve_census(q)
            s = surface_census(q)
            assert c.n_affine == q**2 * s.affine_zero_count


# Plants for the curve census: each takes a setattr (monkeypatch.setattr)
# and breaks one part of it for q = 2, 4 and 8.

def _flipped_exp_entry(patch):
    # exp[7] = 1 in the subfield exp table that Gf2Scan's products and the
    # tower view share, read as 0
    for k in (1, 2, 3):
        tower = ascurve._ext_scan(2, k, 6).tower.tower
        exp = tower.exp.copy()
        exp[7] ^= 1
        patch(tower, "exp", exp)


CURVE_PLANTS = {
    "tower-exp-entry": (_flipped_exp_entry,
                        "solvability differs from the trace identity"),
}


@pytest.mark.parametrize("name", CURVE_PLANTS)
def test_curve_checks_fail_on_a_plant(monkeypatch, name):
    plant, error = CURVE_PLANTS[name]
    plant(monkeypatch.setattr)
    for q in (2, 4, 8):
        result = checks.check_curve(q)
        assert result.outcome == "fail", q
        assert result.witness == {"error": error}


def test_curve_plants_fail_under_optimize():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "import pytest\n"
        "import test_ascurve as t\n"
        "from joubert2 import checks\n"
        "qs = (2, 4, 8)\n"
        "print(*(checks.check_curve(q).outcome for q in qs))\n"
        "for plant, _ in t.CURVE_PLANTS.values():\n"
        "    with pytest.MonkeyPatch.context() as mp:\n"
        "        plant(mp.setattr)\n"
        "        rs = [checks.check_curve(q) for q in qs]\n"
        "    print(*(f\"{r.outcome} {r.witness.get('error')}\" for r in rs),\n"
        "          sep='; ')\n"
        "print(sys.flags.optimize)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.splitlines() == (
        ["pass pass pass"]
        + ["; ".join([f"fail {error}"] * 3) for _, error in
           CURVE_PLANTS.values()]
        + ["1"]), proc.stderr
