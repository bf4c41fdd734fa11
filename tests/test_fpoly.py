import random

import pytest
from hypothesis import given, settings, strategies as st

from joubert2 import (DomainError, ExtDesc, checks, ffield, iter_elements,
                      jsearch, make_ext, make_field)
from joubert2.ffield import _pack, canonical_modulus
from joubert2.fpoly import (
    UPoly,
    char_poly,
    char_poly_det,
    compress_poly,
    conjugates,
    format_poly,
    is_irreducible,
    min_poly,
    parse_poly,
    poly_from_roots,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F64 = make_field(2, 6)
E64_2 = make_ext(2, 1, 6)
E64_4 = make_ext(2, 2, 3)


def _poly(field, max_deg=6):
    return st.lists(st.integers(0, field.order - 1), max_size=max_deg + 1).map(
        lambda cs: UPoly(field, cs))


# -- ring structure ---------------------------------------------------------


@given(a=_poly(F4), b=_poly(F4), c=_poly(F4))
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a - b) + b == a


@given(a=_poly(F4), b=_poly(F4))
def test_divmod_invariant(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(a=_poly(F64, 5), xv=st.integers(0, 63))
def test_evaluate_matches_term_sum(a, xv):
    x = F64.element(xv)
    total = F64.zero
    for k, c in enumerate(a.coeffs):
        total = total + F64.element(c) * x**k
    assert a.evaluate(x) == total
    assert a.eval_val(xv) == total.val


def test_poly_from_roots():
    p = poly_from_roots(F64, [1, 2, 3])
    assert p.degree == 3 and p.is_monic()
    for r in (1, 2, 3):
        assert p.eval_val(r) == 0


@pytest.mark.parametrize("field", [F64, F2, make_field(7, 1),
                                   make_field(3, 2), make_field(3, 10)])
@pytest.mark.parametrize("roots", [[], [5], [1, 1], [0, 3, 3, 1, 2, 0, 4]])
def test_poly_from_roots_is_product_of_linear_factors(field, roots):
    roots = [r % field.order for r in roots]
    expected = UPoly(field, [1])
    for r in roots:
        expected = expected * UPoly(field, [field.neg_val(r), 1])
    assert poly_from_roots(field, roots) == expected


@pytest.mark.parametrize("field", [F4, make_field(5, 1)])
def test_powers_match_repeated_products(field):
    rng = random.Random(field.order)
    a = UPoly(field, [rng.randrange(field.order) for _ in range(3)] + [1])
    acc = UPoly(field, [1])
    for e in range(12):
        assert a**e == acc
        acc = acc * a


# -- irreducibility ---------------------------------------------------------


def _mobius_irreducible_count(q, d):
    # (1/d) * sum over e | d of mu(e) * q^(d/e)
    def mobius(e):
        out, x = 1, e
        f = 2
        while f * f <= x:
            if x % f == 0:
                x //= f
                if x % f == 0:
                    return 0
                out = -out
            f += 1
        if x > 1:
            out = -out
        return out

    total = sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def test_irreducible_sextic_census_gf2():
    found = []
    for low in range(64):
        p = UPoly(F2, [(low >> i) & 1 for i in range(6)] + [1])
        if is_irreducible(p):
            found.append(format_poly(p))
    assert len(found) == _mobius_irreducible_count(2, 6) == 9
    assert "t^6+t+1" in found
    assert "t^6+t^4+t^2+t+1" in found


@pytest.mark.parametrize("q,d", [(2, 4), (3, 3), (4, 2), (8, 3), (9, 2)])
def test_irreducible_count_matches_mobius(q, d):
    field = make_field(*jsearch._split_prime_power(q))
    count = 0
    for packed in range(q**d):
        coeffs = []
        v = packed
        for _ in range(d):
            coeffs.append(v % q)
            v //= q
        if is_irreducible(UPoly(field, coeffs + [1])):
            count += 1
    assert count == _mobius_irreducible_count(q, d)


def _has_small_factor(f):
    # trial division: some monic g of degree 1..deg f // 2 divides f
    q = f.field.order
    for e in range(1, f.degree // 2 + 1):
        for packed in range(q**e):
            g = UPoly(f.field, [packed // q**i % q for i in range(e)] + [1])
            if (f % g).is_zero():
                return True
    return False


def test_canonical_moduli_pass_the_general_test():
    # the one irreducibility test against a trial-division oracle: each
    # canonical modulus is irreducible and every lesser monic candidate is
    # not, and the test agrees with the oracle on every small monic
    for p, m in [(2, 6), (2, 12), (3, 4), (5, 2), (7, 2)]:
        f = make_field(p, 1)
        modulus = canonical_modulus(p, m)
        assert not _has_small_factor(UPoly(f, modulus))
        for packed in range(_pack(modulus[:m], p)):
            digits = [packed // p**i % p for i in range(m)] + [1]
            assert _has_small_factor(UPoly(f, digits)), (p, digits)
    for p, top in [(2, 6), (3, 6), (5, 4), (7, 3)]:
        f = make_field(p, 1)
        for m in range(2, top + 1):
            for packed in range(p**m):
                digits = [packed // p**i % p for i in range(m)] + [1]
                assert (ffield.is_irreducible_over(f, digits)
                        != _has_small_factor(UPoly(f, digits))), (p, digits)


def test_irreducibility_over_subfield():
    # t^2+t+1 splits over GF(4) but is irreducible over GF(2)
    p = UPoly(F4, [1, 1, 1])
    assert not is_irreducible(p)
    assert is_irreducible(UPoly(F2, [1, 1, 1]))
    assert not is_irreducible(UPoly(F4, [1]))  # constants are not irreducible


# -- minimal and characteristic polynomials ---------------------------------


def test_min_poly_of_modulus_root():
    assert format_poly(min_poly(F64.gen, E64_2)) == "t^6+t+1"


@pytest.mark.parametrize("ext", [E64_2, E64_4])
def test_min_poly_properties_exhaustive(ext):
    for y in iter_elements(F64):
        mp = min_poly(y, ext)
        assert mp.is_monic()
        assert ext.n % mp.degree == 0
        assert mp.degree == len(conjugates(y, ext))
        assert mp.evaluate(y).val == 0
        assert all(ext.frob_val(c) == c for c in mp.coeffs)
        assert is_irreducible(compress_poly(mp, ext))


@pytest.mark.parametrize("ext", [E64_2, E64_4])
def test_char_poly_two_routes_agree_exhaustive(ext):
    for y in iter_elements(F64):
        cp = char_poly(y, ext)
        assert cp.degree == ext.n
        assert cp == char_poly_det(y, ext)


def test_char_poly_two_routes_agree_odd_p():
    ext = make_ext(3, 1, 2)
    for y in iter_elements(ext.big):
        assert char_poly(y, ext) == char_poly_det(y, ext)
    ext5 = make_ext(5, 1, 3)
    for v in range(0, 125, 7):
        y = ext5.big.element(v)
        assert char_poly(y, ext5) == char_poly_det(y, ext5)


@pytest.mark.parametrize("p,k,n", [(3, 1, 5), (5, 1, 4), (3, 2, 3), (2, 2, 3),
                                   (7, 1, 2), (2, 4, 6), (5, 1, 6), (2, 2, 6)])
def test_char_poly_det_matches_conjugates(p, k, n):
    ext = make_ext(p, k, n)
    rng = random.Random(f"{p},{k},{n}")
    for _ in range(40):
        y = ext.big.element(rng.randrange(ext.big.order))
        assert char_poly(y, ext) == char_poly_det(y, ext)
    # base-field elements are non-generators with char poly (t - y)^n
    for v in ext.subfield_vals(1):
        y = ext.big.element(v)
        expected = UPoly(ext.big, [ext.big.neg_val(v), 1]) ** n
        assert char_poly(y, ext) == char_poly_det(y, ext) == expected


@pytest.mark.parametrize("p,k,n,d", [(2, 1, 6, 2), (2, 1, 6, 3), (2, 2, 3, 1),
                                     (5, 1, 4, 2), (3, 1, 6, 3)])
def test_char_poly_of_non_generator_is_min_poly_power(p, k, n, d):
    ext = make_ext(p, k, n)
    for v in ext.subfield_vals(d)[:20]:
        y = ext.big.element(v)
        mp = min_poly(y, ext)
        assert mp.degree < n
        assert char_poly(y, ext) == mp ** (n // mp.degree)


def test_charpoly_check_fails_on_planted_coordinate(monkeypatch):
    real = ExtDesc.rel_coordinates

    def planted(self, v):
        coords = real(self, v)
        return (self.big.add_val(coords[0], 1),) + coords[1:]

    monkeypatch.setattr(ExtDesc, "rel_coordinates", planted)
    assert checks.check_charpoly_routes().outcome == "fail"


@pytest.mark.parametrize("p,k,n", [(2, 1, 6), (3, 1, 6), (5, 1, 4)])
def test_hessenberg_route_matches_conjugates_everywhere(p, k, n):
    ext = make_ext(p, k, n)
    for y in iter_elements(ext.big):
        assert char_poly_det(y, ext) == char_poly(y, ext)


def test_hessenberg_route_matches_conjugates_over_gf4():
    ext = make_ext(2, 2, 6)
    rng = random.Random(4096)
    for _ in range(4096):
        y = ext.big.element(rng.randrange(ext.big.order))
        assert char_poly_det(y, ext) == char_poly(y, ext)


@pytest.mark.parametrize("p,k,n", [(2, 1, 6), (2, 2, 6), (3, 1, 6),
                                   (5, 1, 4), (3, 2, 3)])
def test_hessenberg_route_on_subfield_elements(p, k, n):
    # 0, 1 and the members of F_{q^d}, d < n: their minimal polynomial has
    # degree below n, so some subdiagonal entry of the Hessenberg form is 0
    ext = make_ext(p, k, n)
    vals = {0, 1}
    for d in (1, 2, 3):
        if n % d == 0 and d < n:
            vals.update(ext.subfield_vals(d))
    for v in sorted(vals):
        y = ext.big.element(v)
        assert char_poly_det(y, ext) == char_poly(y, ext)


def _flipped_matrix_entry(setattr) -> None:
    """Adds 1 to coordinate 0 of the coordinates of 1, which is entry
    (0, j) of the multiplication matrix of y = g^(-j) and no other entry."""
    real = ExtDesc.rel_coordinates

    def planted(self, v):
        coords = real(self, v)
        if v != 1:
            return coords
        return (self.big.add_val(coords[0], 1),) + coords[1:]

    setattr(ExtDesc, "rel_coordinates", planted)


CHARPOLY_PLANTS = {"multiplication-matrix-entry": _flipped_matrix_entry}


@pytest.mark.parametrize("name", CHARPOLY_PLANTS)
def test_charpoly_check_fails_on_a_plant(monkeypatch, name):
    CHARPOLY_PLANTS[name](monkeypatch.setattr)
    result = checks.check_charpoly_routes()
    assert result.outcome == "fail"
    assert result.witness == {"error": "char_poly routes disagree"}


def test_charpoly_plants_fail_under_optimize():
    # every plant in the one `python -O` run of test_planted,
    # after an unplanted pass, with the same errors
    from test_planted import assert_plants_fail_under_optimize
    assert_plants_fail_under_optimize("check_charpoly_routes")


def test_generator_iff_full_degree():
    # y generates GF(64) over GF(4) exactly when its min poly has degree 3
    gens = sum(min_poly(y, E64_4).degree == E64_4.n for y in iter_elements(F64))
    assert gens == 64 - 4  # everything outside GF(4) generates (n is prime)


# -- text form --------------------------------------------------------------


def test_format_pinned_examples():
    assert format_poly(UPoly(F2, [])) == "0"
    assert format_poly(UPoly(F2, [1])) == "1"
    assert format_poly(UPoly(F2, [0, 1])) == "t"
    assert format_poly(UPoly(F2, [1, 1, 1, 0, 1, 0, 1])) == "t^6+t^4+t^2+t+1"
    assert format_poly(UPoly(F3, [2, 1, 2])) == "2*t^2+t+2"


def test_format_bracket_coefficients():
    kap = E64_4.kappa_val
    poly = UPoly(F64, [kap, 1, 1, 0, 0, 0, 1])
    assert format_poly(poly, E64_4) == "t^6+t^2+t+[0,1]"
    assert parse_poly("t^6+t^2+t+[0,1]", F64, E64_4) == poly
    # without an extension, digits are over the field's own generator
    assert format_poly(UPoly(F4, [2, 1]), None) == "t+[0,1]"


@given(p=_poly(F2, 8))
def test_format_parse_round_trip_gf2(p):
    assert parse_poly(format_poly(p), F2) == p


@given(p=_poly(F3, 8))
def test_format_parse_round_trip_gf3(p):
    assert parse_poly(format_poly(p), F3) == p


@given(coeffs=st.lists(st.integers(0, 3), max_size=7))
@settings(max_examples=50)
def test_format_parse_round_trip_bracketed(coeffs):
    # coefficients must lie in the base field GF(4) for bracket rendering
    k_vals = E64_4.k_elements()
    p = UPoly(F64, [k_vals[c] for c in coeffs])
    assert parse_poly(format_poly(p, E64_4), F64, E64_4) == p


def test_parse_whitespace_and_errors():
    assert parse_poly(" t^2 + t + 1 ", F2) == UPoly(F2, [1, 1, 1])
    assert parse_poly("2t", F3) == parse_poly("2*t", F3)  # the * is optional
    for bad in ["", "t^", "t^2++1", "5", "[3]*t"]:
        with pytest.raises((DomainError, ValueError)):
            parse_poly(bad, F3)
    for bad in ["[1,]", "[1,,1]*t"]:
        with pytest.raises(DomainError, match="empty digit in coefficient"):
            parse_poly(bad, F3)


def test_coefficient_range_checked():
    with pytest.raises(DomainError):
        UPoly(F4, [4])
