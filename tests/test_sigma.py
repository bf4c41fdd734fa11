import itertools
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from joubert2 import (DomainError, ExtDesc, checks, iter_elements, jsearch,
                      make_ext, make_field, rel_trace, sigma)
from joubert2.errors import CheckFailed
from joubert2.ffield import TableOps
from joubert2.fpoly import conjugates, format_poly, min_poly
from joubert2.sigma import (
    is_generator,
    is_joubert,
    joubert_mask,
    power_traces,
    sigma_profile,
    sigma_profiles,
)

F64 = make_field(2, 6)
E64_2 = make_ext(2, 1, 6)
E64_4 = make_ext(2, 2, 3)


def _esym_subset_sums(y, ext):
    # independent oracle: elementary symmetric functions of the conjugate
    # multiset by explicit subset-sum expansion
    big = ext.big
    orbit = conjugates(y, ext)
    full = orbit * (ext.n // len(orbit))
    out = []
    for i in range(1, ext.n + 1):
        acc = 0
        for combo in itertools.combinations(range(ext.n), i):
            prod = 1
            for j in combo:
                prod = big.mul_val(prod, full[j])
            acc = big.add_val(acc, prod)
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("ext", [E64_2, E64_4])
def test_sigma_matches_subset_sum_oracle(ext):
    for y in iter_elements(F64):
        prof = sigma_profile(y, ext)
        assert prof.sigmas == _esym_subset_sums(y, ext)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_sigma_sign_convention_odd_p(p, n):
    ext = make_ext(p, 1, n)
    for y in iter_elements(ext.big):
        assert sigma_profile(y, ext).sigmas == _esym_subset_sums(y, ext)


def test_sigma_values_live_in_base_field():
    for y in iter_elements(F64):
        for s in sigma_profile(y, E64_4).sigmas:
            assert E64_4.frob_val(s) == s


def test_sigma_index_bounds():
    prof = sigma_profile(F64.gen, E64_4)
    assert prof.sigma(0) == 1
    with pytest.raises(DomainError):
        prof.sigma(4)
    with pytest.raises(DomainError):
        prof.sigma(-1)


def test_sigma_of_subfield_element_counts_multiplicity():
    # y in the base field: char poly is (t - y)^n, so s_1 = n*y, s_n = y^n
    big = E64_4.big
    for v in E64_4.subfield_vals(1):
        prof = sigma_profile(big.element(v), E64_4)
        total = 0
        for _ in range(E64_4.n):
            total = big.add_val(total, v)
        assert prof.sigma(1) == total
        assert prof.sigma(E64_4.n) == big.pow_val(v, E64_4.n)


# -- the batched route ------------------------------------------------------


@pytest.mark.parametrize("p,k,n", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_sigma_profiles_equal_the_scalar_profile(p, k, n):
    # every element, base degree 2 included; a subfield element's conjugates
    # repeat, so both routes must give min_poly^(n/d)
    ext = make_ext(p, k, n)
    sig = sigma_profiles(range(ext.big.order), ext, TableOps(ext.big))
    assert sig.shape == (n, ext.big.order)
    for y in iter_elements(ext.big):
        assert tuple(sig[:, y.val].tolist()) == sigma_profile(y, ext).sigmas


# Plants for the batched route of `newton-identities`: each takes a setattr
# (monkeypatch.setattr) and breaks that route.

def _corrupt_frobenius_entry(patch):
    # GF(2^12)'s Frobenius table, one entry off by 1, at the first value
    # that the check draws from that pool
    ext = make_ext(2, 1, 12)
    table = ext.whole_table("frob")[:]
    table[random.Random(99991).randrange(4096)] ^= 1
    patch(ext, "_frob", table.__getitem__)


def _dropped_conjugate(patch):
    real = sigma._poly_from_roots
    patch(sigma, "_poly_from_roots", lambda ops, roots: real(ops, roots[:-1]))


NEWTON_PLANTS = {"frobenius-table-entry": _corrupt_frobenius_entry,
                 "dropped-conjugate": _dropped_conjugate}


@pytest.mark.parametrize("name", NEWTON_PLANTS)
def test_newton_identities_fail_on_a_plant(monkeypatch, name):
    NEWTON_PLANTS[name](monkeypatch.setattr)
    result = checks.check_newton_identities()
    assert result.outcome == "fail"
    assert result.witness == {"error": "sigma left the base field"}


def test_newton_plants_fail_under_optimize():
    # every plant in the one `python -O` run of test_planted,
    # after an unplanted pass, with the same errors
    from test_planted import assert_plants_fail_under_optimize
    assert_plants_fail_under_optimize("check_newton_identities")


# -- Newton identities relating power traces to the profile -----------------


def test_newton_identity_deg4_char5():
    # Tr(y^3) = s1^3 - 3 s1 s2 + 3 s3 for n >= 3
    ext = make_ext(5, 1, 4)
    big = ext.big
    for y in iter_elements(big):
        prof = sigma_profile(y, ext)
        s1, s2, s3 = prof.sigma(1), prof.sigma(2), prof.sigma(3)
        rhs = big.sub_val(
            big.pow_val(s1, 3),
            big.mul_val(3, big.mul_val(s1, s2)))
        rhs = big.add_val(rhs, big.mul_val(3, s3))
        assert ext.trace_val(big.pow_val(y.val, 3)) == rhs


def test_newton_identity_deg2_char7():
    # n = 2 variant: Tr(y^3) = s1^3 - 3 s1 s2
    ext = make_ext(7, 1, 2)
    big = ext.big
    for y in iter_elements(big):
        prof = sigma_profile(y, ext)
        s1, s2 = prof.sigma(1), prof.sigma(2)
        rhs = big.sub_val(big.pow_val(s1, 3),
                          big.mul_val(3, big.mul_val(s1, s2)))
        assert ext.trace_val(big.pow_val(y.val, 3)) == rhs


def test_newton_degenerates_in_char3():
    # 3 = 0 kills the mixed terms: Tr(y^3) = Tr(y)^3
    ext = make_ext(3, 1, 6)
    big = ext.big
    for v in range(big.order):
        t1 = ext.trace_val(v)
        t3 = ext.trace_val(big.pow_val(v, 3))
        assert t3 == big.pow_val(t1, 3)


@pytest.mark.parametrize("ext", [E64_2, E64_4])
def test_char2_sigma_trace_dictionary(ext):
    # s1 = Tr(y); and s3 = Tr(y^3) + s1^3 + s1*s2 (Newton mod 2), so the
    # pair of trace conditions is equivalent to s1 = s3 = 0
    big = ext.big
    for y in iter_elements(F64):
        prof = sigma_profile(y, ext)
        t1 = ext.trace_val(y.val)
        t3 = ext.trace_val(big.pow_val(y.val, 3))
        assert prof.sigma(1) == t1
        expect_s3 = big.add_val(
            big.add_val(t3, big.pow_val(t1, 3)),
            big.mul_val(t1, prof.sigma(2)))
        assert prof.sigma(3) == expect_s3
        assert (t1 == 0 and t3 == 0) == (prof.sigma(1) == 0 and prof.sigma(3) == 0)


# -- generator and Joubert predicates ----------------------------------------


def test_generator_counts():
    # non-generators over GF(2) fill the proper subfields GF(8) and GF(4)
    assert sum(is_generator(y, E64_2) for y in iter_elements(F64)) == 54
    # over GF(4) the degree is prime, so only GF(4) itself fails
    assert sum(is_generator(y, E64_4) for y in iter_elements(F64)) == 60


def test_generator_iff_min_poly_degree():
    for y in iter_elements(F64):
        assert is_generator(y, E64_2) == (min_poly(y, E64_2).degree == 6)


def test_joubert_census_gf2():
    wits = [y for y in iter_elements(F64) if is_joubert(y, E64_2)]
    assert len(wits) == 12
    polys = sorted({format_poly(min_poly(y, E64_2)) for y in wits})
    assert polys == ["t^6+t+1", "t^6+t^4+t^2+t+1"]
    for y in wits:
        prof = sigma_profile(y, E64_2)
        assert prof.sigma(1) == 0 and prof.sigma(3) == 0
        mp = min_poly(y, E64_2)
        assert mp.coeff(5) == 0 and mp.coeff(3) == 0


def _profile_is_joubert(y, ext):
    # the definition by the full profile: a generator with s_1 = s_3 = 0
    if not is_generator(y, ext):
        return False
    prof = sigma_profile(y, ext)
    return prof.sigma(1) == 0 and prof.sigma(3) == 0


@pytest.mark.parametrize("p,k,n", [(2, 2, 6), (3, 1, 5)])
def test_is_joubert_reads_the_min_poly_alone(monkeypatch, p, k, n):
    # every element of GF(4^6) and GF(3^5): the same answers as the profile
    # definition, with no profile or characteristic polynomial taken
    ext = make_ext(p, k, n)
    elts = list(iter_elements(ext.big))
    want = [_profile_is_joubert(y, ext) for y in elts]

    def refuse(*args):
        raise AssertionError("is_joubert took a profile")

    monkeypatch.setattr(sigma, "sigma_profile", refuse)
    monkeypatch.setattr(sigma, "char_poly", refuse)
    assert [is_joubert(y, ext) for y in elts] == want
    assert any(want)


def test_joubert_rejects_non_generators():
    # 0 and 1 have s1 = s3 = 0 over GF(2)? 0 does; but neither generates
    assert not is_joubert(F64.zero, E64_2)
    assert not is_joubert(F64.one, E64_2)


def test_joubert_needs_degree_3():
    ext = make_ext(2, 1, 2)
    with pytest.raises(DomainError):
        is_joubert(ext.big.gen, ext)
    with pytest.raises(DomainError):
        joubert_mask([ext.big.gen.val], ext)


@pytest.mark.parametrize("k, count", [(1, 2**6), (2, 4**6), (3, 5000),
                                      (6, 1000)])
def test_joubert_mask_agrees_with_is_joubert(k, count):
    # all of GF(2^6) and GF(4^6), the first 5,000 values of GF(8^6), and
    # the first 1,000 of GF(64^6), m = 36, which hold its witness 326
    ext = make_ext(2, k, 6, limit=2**36)
    got = joubert_mask(np.arange(count), ext).tolist()
    assert got == [is_joubert(ext.big.element(v), ext) for v in range(count)]
    assert got.index(True) == {1: 2, 2: 6, 3: 258, 6: 326}[k]


def test_joubert_mask_agrees_on_the_q16_audit_sample(monkeypatch):
    real, calls = jsearch.joubert_mask, []

    def spy(vals, ext):
        calls.append((vals, ext))
        return real(vals, ext)

    monkeypatch.setattr(jsearch, "joubert_mask", spy)
    jsearch.count_joubert_generators(16)
    [(vals, ext)] = calls
    assert len(vals) >= 1024
    assert joubert_mask(vals, ext).tolist() == [
        is_joubert(ext.big.element(v), ext) for v in vals]


def test_joubert_mask_is_characteristic_2_only():
    with pytest.raises(DomainError):
        joubert_mask([1, 2], make_ext(3, 1, 6))


@given(v=st.integers(0, 63), k=st.integers(1, 8))
@settings(max_examples=60)
def test_power_traces_match_direct(v, k):
    y = F64.element(v)
    pts = power_traces(y, E64_4, k)
    assert len(pts) == k
    for i in range(1, k + 1):
        assert pts[i - 1] == rel_trace(y**i, E64_4).val


def test_profile_is_frobenius_invariant():
    from joubert2 import rel_frobenius
    for v in [3, 17, 44, 60]:
        y = F64.element(v)
        assert sigma_profile(y, E64_4) == sigma_profile(
            rel_frobenius(y, E64_4), E64_4)


# -- a faulty Frobenius ends the orbit walk ---------------------------------

_PLANTED_FROB = """
from joubert2 import ffield

real = ffield.ExtDesc.frob_val


def planted(self, v):  # off by one on value 100 of GF(5^4)
    w = real(self, v)
    if (self.big.p, self.big.m) == (5, 4) and v == 100:
        w = (w + 1) % self.big.order
    return w


ffield.ExtDesc.frob_val = planted
"""


def test_planted_frobenius_cannot_hang_is_generator(monkeypatch):
    real = ExtDesc.frob_val

    def planted(self, v):  # off by one on value 100
        w = real(self, v)
        return (w + 1) % self.big.order if v == 100 else w

    monkeypatch.setattr(ExtDesc, "frob_val", planted)
    ext = make_ext(5, 1, 4)
    with pytest.raises(CheckFailed):
        is_generator(ext.big.element(100), ext)


def test_planted_frobenius_fails_newton_identities():
    code = _PLANTED_FROB + (
        "from joubert2 import checks\n"
        "print(checks.check_newton_identities().outcome)\n")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["fail"], proc.stderr
    assert time.perf_counter() - t0 < 30
