import random

import pytest

from prymsplit import (
    BiellipticQuartic,
    BinaryForm,
    InconsistentCountsError,
    InvalidParameterError,
    PrymError,
    QQ,
    RejectedInputError,
    ResourceLimitError,
    UniPoly,
    UnsupportedFieldError,
    WeilPolynomial,
    bruin_cover,
    build_extension,
    count_weighted,
    deform,
    good_primes,
    lpoly_from_counts,
    predicted_counts,
    random_validated_curve,
    reduce_curve,
    verify_bruin,
    verify_split,
    verify_split_rational,
)
from helpers import field_tripwire, lift

F5 = build_extension(5)
F7 = build_extension(7)

DEMO = dict(f=[0, 1, 0], g=[1, 1, 1], h=[1, 0, -1])


class TestWeilPolynomial:
    def test_supersingular_genus1(self):
        assert lpoly_from_counts(5, [6], 1).coeffs == (1, 0, 5)

    def test_supersingular_genus2(self):
        assert lpoly_from_counts(5, [6, 26], 2).coeffs == (1, 0, 0, 0, 25)

    def test_cubic_curve_count_four(self):
        # y^2 = x^3 + x over F_5 has 4 points (counted by enumeration)
        rec = count_weighted(UniPoly(F5, [0, 1, 0, 1]), 1, F5)
        assert rec.n == 4
        lp = lpoly_from_counts(5, [rec.n], 1)
        assert lp.coeffs == (1, -2, 5)

    def test_product_is_the_integer_polynomial_product(self):
        product = WeilPolynomial(5, 1, (1, -2, 5)) * WeilPolynomial(5, 2, (1, 0, 0, 0, 25))
        assert (product.q, product.genus) == (5, 3)
        assert product.coeffs == (1, -2, 5, 0, 25, -50, 125)
        assert all(type(c) is int for c in product.coeffs)

    def test_functional_equation_enforced(self):
        with pytest.raises(InconsistentCountsError):
            WeilPolynomial(5, 1, (1, 2, 7))

    def test_weil_bound_enforced(self):
        with pytest.raises(InconsistentCountsError):
            WeilPolynomial(5, 1, (1, 7, 5))

    def test_constant_term(self):
        with pytest.raises(InconsistentCountsError):
            WeilPolynomial(5, 1, (2, 0, 10))

    def test_inexact_newton_division_raises(self):
        # counts that cannot come from a genus-2 curve
        with pytest.raises(InconsistentCountsError):
            lpoly_from_counts(5, [6, 27], 2)

    def test_product_satisfies_functional_equation(self):
        rng = random.Random(0)
        for _ in range(30):
            curve = random_validated_curve(F5, rng)
            result = verify_split(curve)
            prod = result.l_genus1 * result.l_genus2
            assert prod.genus == 3
            WeilPolynomial(5, 3, prod.coeffs)  # constructor re-checks everything

    def test_mixed_base_sizes_rejected(self):
        a = lpoly_from_counts(5, [6], 1)
        b = lpoly_from_counts(7, [8], 1)
        with pytest.raises(InconsistentCountsError):
            a * b


class TestPredictedCounts:
    def test_round_trip_small(self):
        lp = lpoly_from_counts(5, [6], 1)
        assert predicted_counts(lp, 1) == 6

    def test_second_extension(self):
        lp = lpoly_from_counts(5, [4], 1)
        # s_2 = s_1 a_1-ish recurrence gives N_2 = 32; frozen from the
        # exhaustive count of y^2 = x^3 + x over F_25
        assert predicted_counts(lp, 2) == 32
        f25 = build_extension(5, 2)
        rec = count_weighted(UniPoly(F5, [0, 1, 0, 1]), 1, f25)
        assert rec.n == 32

    def test_m_zero_rejected(self):
        lp = lpoly_from_counts(5, [6], 1)
        with pytest.raises(InvalidParameterError):
            predicted_counts(lp, 0)
        assert issubclass(InvalidParameterError, PrymError)

    def test_round_trip_every_genus(self):
        rng = random.Random(1)
        for _ in range(10):
            curve = random_validated_curve(F5, rng)
            result = verify_split(curve)
            for lp, upto in ((result.l_curve, 3), (result.l_genus1, 1), (result.l_genus2, 2)):
                ns = [predicted_counts(lp, m) for m in range(1, upto + 1)]
                rebuilt = lpoly_from_counts(5, ns, lp.genus)
                assert rebuilt.coeffs == lp.coeffs


def _smooth_cover(field, rng):
    while True:
        curve = random_validated_curve(field, rng)
        cover = deform(curve, field.random_nonzero(rng))
        if cover.verifiable:
            return cover


def _forbid_field_builds(monkeypatch):
    """field_tripwire, plus a zeta.build_extension that fails on any call, even
    for a field that is already cached."""
    import prymsplit.zeta as zeta_module

    def must_not_build(*args):
        raise AssertionError("a field was requested")

    built = field_tripwire(monkeypatch)
    monkeypatch.setattr(zeta_module, "build_extension", must_not_build)
    return built


class TestVerifySplit:
    def test_demo_curve_passes(self):
        curve = BiellipticQuartic.from_ints(F7, **DEMO)
        result = verify_split(curve)
        assert result.passed
        assert result.l_curve.coeffs == (result.l_genus1 * result.l_genus2).coeffs
        assert len(result.counts) == 6

    def test_random_curves_pass(self):
        rng = random.Random(2)
        for p in (5, 7, 11, 13):
            field = build_extension(p)
            for _ in range(3):
                result = verify_split(random_validated_curve(field, rng))
                assert result.passed, result.failure

    def test_invalid_curve_rejected_before_counting(self, monkeypatch):
        import prymsplit.zeta as zeta_module

        def tripwire(*a, **k):
            raise AssertionError("counting must not run")

        monkeypatch.setattr(zeta_module, "count_plane_quartic", tripwire)
        monkeypatch.setattr(zeta_module, "count_weighted", tripwire)
        curve = BiellipticQuartic.from_ints(F7, f=[1, 0, 0], g=[0, 0, 1], h=[0, 1, 0])
        with pytest.raises(RejectedInputError):
            verify_split(curve)

    @staticmethod
    def _count_genus2_as(monkeypatch, corrupt):
        """Make verify_split count y^2 = corrupt(F) for its genus-2 factor."""
        import prymsplit.zeta as zeta_module

        def corrupted_count(poly, genus, field):
            if genus == 2:
                poly = corrupt(poly)
            return count_weighted(poly, genus, field)

        monkeypatch.setattr(zeta_module, "count_weighted", corrupted_count)

    def test_corrupted_sextic_fails(self, monkeypatch):
        curve = random_validated_curve(F7, random.Random(3))
        self._count_genus2_as(monkeypatch, lambda f: f + UniPoly(F7, [F7.one]))
        result = verify_split(curve)
        assert not result.passed
        assert result.failure == "L_C differs from L_D * L_X"

    def test_counts_no_genus2_curve_has_raise(self, monkeypatch):
        # y^2 = x^6 has 2*23 + 1 points over F_23: a_1 = 23 breaks the Weil bound
        F23 = build_extension(23)
        curve = random_validated_curve(F23, random.Random(23))
        self._count_genus2_as(monkeypatch, lambda f: UniPoly(F23, [0] * 6 + [1]))
        with pytest.raises(InconsistentCountsError):
            verify_split(curve)

    def test_rational_base_rejected(self):
        curve = BiellipticQuartic.from_ints(QQ, **DEMO)
        with pytest.raises(UnsupportedFieldError):
            verify_split(curve)

    @pytest.mark.parametrize("p", [3, 5])
    def test_corrupted_sextic_fails_over_an_extension_field(self, monkeypatch, p):
        field = build_extension(p, 2)
        curve = random_validated_curve(field, random.Random(p))
        self._count_genus2_as(monkeypatch, lambda f: f + UniPoly(field, [field.one]))
        result = verify_split(curve)
        assert not result.passed
        assert result.failure == "L_C differs from L_D * L_X"

    def test_cap_below_one_is_a_bad_parameter(self, monkeypatch):
        curve = random_validated_curve(build_extension(17), random.Random(17))
        built = _forbid_field_builds(monkeypatch)
        for cap in (0, -5):
            with pytest.raises(InvalidParameterError, match="axis cap"):
                verify_split(curve, axis_cap=cap)
        assert built == []

    def test_f49_refused_before_any_field_is_built(self, monkeypatch):
        # 49^3 = 117649 is above the default cap; 49^2 = 2401 is not
        curve = random_validated_curve(build_extension(7, 2), random.Random(49))
        built = field_tripwire(monkeypatch)
        with pytest.raises(ResourceLimitError, match="7\\^6"):
            verify_split(curve)
        assert built == []

    def test_cap_refuses_before_any_field_is_built(self, monkeypatch):
        # 181^3 is above the default cap; so is 181^2 = 32761
        curve = random_validated_curve(build_extension(181), random.Random(181))
        field_tripwire(monkeypatch)
        with pytest.raises(ResourceLimitError):
            verify_split(curve)

    def test_determinism(self):
        curve = BiellipticQuartic.from_ints(F7, **DEMO)
        r1 = verify_split(curve)
        r2 = verify_split(curve)
        assert r1.l_curve == r2.l_curve
        assert [c.n for c in r1.counts] == [c.n for c in r2.counts]


class TestVerifyBruin:
    def test_depth3_over_f5(self):
        rng = random.Random(4)
        cover = _smooth_cover(F5, rng)
        result = verify_bruin(cover, depth=3)
        assert result.passed and result.achieved_depth == 3
        assert result.predicted == result.actual
        assert not result.full_certificate

    def test_depth5_full_certificate_over_f3(self):
        rng = random.Random(5)
        cover = _smooth_cover(build_extension(3), rng)
        result = verify_bruin(cover, depth=5)
        assert result.passed and result.full_certificate

    def test_singular_fiber_rejected(self):
        rng = random.Random(6)
        curve = random_validated_curve(F5, rng)
        cover = deform(curve, F5.zero)
        with pytest.raises(RejectedInputError):
            verify_bruin(cover)

    def test_depth_bounds(self):
        rng = random.Random(7)
        cover = _smooth_cover(F5, rng)
        for depth in (6, 0, -1):
            with pytest.raises(InvalidParameterError):
                verify_bruin(cover, depth=depth)

    def test_resource_cap_gives_partial(self):
        rng = random.Random(8)
        cover = _smooth_cover(F5, rng)
        result = verify_bruin(cover, depth=5, axis_cap=130)
        # F_5^4 = 625 > 130, so depth stops at 3
        assert result.achieved_depth == 3
        assert result.passed
        assert not result.full_certificate
        assert "depth 3 of 5" in result.failure

    def test_cubic_field_above_cap_refused_before_any_field_is_built(self, monkeypatch):
        # 37^3 = 50653 is above the default cap, 37^2 = 1369 is not
        cover = _smooth_cover(build_extension(37), random.Random(37))
        built = field_tripwire(monkeypatch)
        with pytest.raises(ResourceLimitError):
            verify_bruin(cover, depth=3)
        assert built == []

    def test_cap_below_one_is_a_bad_parameter(self, monkeypatch):
        cover = _smooth_cover(build_extension(13), random.Random(13))
        built = _forbid_field_builds(monkeypatch)
        with pytest.raises(InvalidParameterError, match="axis cap"):
            verify_bruin(cover, axis_cap=-1)
        assert built == []

    def test_rational_base_rejected(self, monkeypatch):
        cover = deform(BiellipticQuartic.from_ints(QQ, **DEMO), QQ.from_int(3))
        built = field_tripwire(monkeypatch)
        with pytest.raises(UnsupportedFieldError):
            verify_bruin(cover)
        assert built == []

    def test_depth4_over_f9(self):
        cover = _smooth_cover(build_extension(3, 2), random.Random(9))
        result = verify_bruin(cover, depth=5)
        # 9^4 fits the default cap, 9^5 = 59049 does not
        assert result.passed and result.achieved_depth == 4
        assert result.l_base.q == result.l_hyper.q == 9 and result.p == 3

    def test_depth_stops_before_the_refused_field_is_built(self, monkeypatch):
        # 11^4 = 14641 fits the default cap, 11^5 = 161051 does not
        cover = _smooth_cover(build_extension(11), random.Random(11))
        built = field_tripwire(monkeypatch)
        result = verify_bruin(cover, depth=5)
        assert result.achieved_depth == 4 and result.passed
        assert not result.full_certificate
        assert 11**5 not in built


class TestRationalCurves:
    def test_reduce_demo_curve(self):
        curve = BiellipticQuartic.from_ints(QQ, **DEMO)
        red = reduce_curve(curve, 7)
        assert red.field.p == 7
        assert red.h.coeffs == (1, 0, 6)

    def test_denominator_prime_is_bad(self):
        curve = BiellipticQuartic.from_ints(QQ, **DEMO)
        half = BiellipticQuartic(
            QQ, curve.f, curve.g, curve.h.scale(QQ.div(QQ.one, QQ.from_int(5)))
        )
        assert 5 not in good_primes(half)

    def test_reduce_curve_rejects_a_prime_dividing_a_denominator(self):
        curve = BiellipticQuartic.from_ints(QQ, **DEMO)
        fifth = BiellipticQuartic(QQ, curve.f, curve.g, curve.h.scale(QQ.inv(QQ.from_int(5))))
        assert reduce_curve(fifth, 7).h.coeffs == tuple(c * 3 % 7 for c in (1, 0, 6))
        with pytest.raises(RejectedInputError, match="prime 5 divides a denominator"):
            reduce_curve(fifth, 5)

    def test_verify_at_three_good_primes(self):
        curve = BiellipticQuartic.from_ints(QQ, **DEMO)
        results = verify_split_rational(curve)
        assert len(results) == 3
        assert all(r.passed for r in results)


def _base_changed(lp):
    """Coefficients of L over q^2 from L over q: L_{q^2}(T^2) = L_q(T) L_q(-T),
    as the Frobenius roots of the base change are the squares."""
    a = lp.coeffs
    prod = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            prod[i + j] += ai * aj * (-1) ** j
    assert not any(prod[1::2])
    return prod[::2]


class TestBaseChange:
    """A curve over F_p read over F_{p^2} has the squared Frobenius roots."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_split_lpolys(self, p):
        small, big = build_extension(p), build_extension(p, 2)
        rng = random.Random(100 + p)
        for _ in range(3):
            curve = random_validated_curve(small, rng)
            # packed F_p values are their own images in F_{p^2}
            forms = (BinaryForm(big, 2, form.coeffs) for form in (curve.f, curve.g, curve.h))
            over_p, over_p2 = verify_split(curve), verify_split(BiellipticQuartic(big, *forms))
            assert over_p.passed and over_p2.passed and over_p2.p == p
            for name in ("l_curve", "l_genus1", "l_genus2"):
                lp, lp2 = getattr(over_p, name), getattr(over_p2, name)
                assert lp2.q == p * p
                assert list(lp2.coeffs) == _base_changed(lp)

    def test_bruin_lpolys(self):
        small, big = build_extension(3), build_extension(3, 2)
        cover = _smooth_cover(small, random.Random(103))
        cover2 = bruin_cover(*(lift(quad, small, big) for quad in cover.triple()))
        over_p, over_p2 = verify_bruin(cover, depth=3), verify_bruin(cover2, depth=3)
        assert over_p.passed and over_p2.passed
        for name in ("l_base", "l_hyper"):
            lp, lp2 = getattr(over_p, name), getattr(over_p2, name)
            assert lp2.q == 9
            assert list(lp2.coeffs) == _base_changed(lp)
