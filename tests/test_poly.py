import random
from fractions import Fraction

import pytest

from prymsplit import NEG_INF, BinaryForm, DegenerateInputError, QQ, UniPoly, build_extension, poly_gcd
from prymsplit.poly import divmod_list
from helpers import random_binary_form, random_unipoly

F7 = build_extension(7)


def test_degree_sentinel():
    zero = UniPoly(QQ, ())
    assert zero.degree == NEG_INF
    p = UniPoly(QQ, [Fraction(1), Fraction(2)])
    # deg(pq) = deg p + deg q holds formally for the zero polynomial
    assert (zero * p).degree == zero.degree + p.degree


def test_trailing_zeros_trimmed():
    p = UniPoly(QQ, [Fraction(n) for n in (1, 2, 0, 0)])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_arithmetic_and_eval():
    rng = random.Random(0)
    for field in (QQ, F7, build_extension(5, 2)):
        for _ in range(40):
            p = random_unipoly(field, rng, 4)
            q = random_unipoly(field, rng, 3)
            x = field.random_element(rng)
            lhs = (p * q).eval(x)
            rhs = field.mul(p.eval(x), q.eval(x))
            assert lhs == rhs
            assert (p + q).eval(x) == field.add(p.eval(x), q.eval(x))
            assert (p - q).eval(x) == field.sub(p.eval(x), q.eval(x))


def test_divmod_invariant():
    rng = random.Random(1)
    for field in (QQ, F7):
        for _ in range(40):
            p = random_unipoly(field, rng, 6)
            q = random_unipoly(field, rng, 3)
            if q.is_zero():
                continue
            quo, rem = (UniPoly(field, cs) for cs in divmod_list(p.coeffs, q.coeffs, field))
            assert quo * q + rem == p
            assert rem.degree < q.degree or rem.is_zero()


def test_gcd_of_multiples():
    rng = random.Random(2)
    for _ in range(30):
        g = random_unipoly(F7, rng, 2)
        if g.is_zero():
            continue
        a = g * random_unipoly(F7, rng, 2)
        b = g * random_unipoly(F7, rng, 3)
        if a.is_zero() or b.is_zero():
            continue
        d = poly_gcd(a, b)
        assert d.degree >= g.degree
        assert divmod_list(a.coeffs, d.coeffs, F7)[1] == []
        assert divmod_list(b.coeffs, d.coeffs, F7)[1] == []


def test_binary_form_length_checked():
    with pytest.raises(ValueError):
        BinaryForm.from_ints(QQ, 2, [1, 2])


def test_binary_form_mul_matches_eval():
    rng = random.Random(3)
    for field in (QQ, F7):
        for _ in range(30):
            a = random_binary_form(field, rng, 2)
            b = random_binary_form(field, rng, 2)
            x, z = field.random_element(rng), field.random_element(rng)
            assert (a * b).eval(x, z) == field.mul(a.eval(x, z), b.eval(x, z))


def test_dehomogenize_homogenize_round_trip():
    rng = random.Random(4)
    for _ in range(20):
        form = random_binary_form(F7, rng, 4)
        if form.is_zero():
            continue
        back = BinaryForm.homogenize(form.dehomogenize(), 4)
        assert back == form


def test_euler_identity_for_partials():
    # n * F = x * F_x + z * F_z
    rng = random.Random(5)
    for field in (QQ, build_extension(11)):
        for _ in range(20):
            form = random_binary_form(field, rng, 4)
            x, z = field.random_element(rng), field.random_element(rng)
            lhs = field.mul(field.from_int(4), form.eval(x, z))
            rhs = field.add(
                field.mul(x, form.partial(0).eval(x, z)),
                field.mul(z, form.partial(1).eval(x, z)),
            )
            assert lhs == rhs


class TestSquarefree:
    def test_double_roots_at_zero_and_infinity(self):
        assert not BinaryForm.from_ints(QQ, 4, [0, 0, 1, 0, 0]).is_squarefree()

    def test_visible_distinct_roots(self):
        # xz(x-z)(x+z) = x^3 z - x z^3
        assert BinaryForm.from_ints(QQ, 4, [0, 1, 0, -1, 0]).is_squarefree()

    def test_double_affine_root(self):
        # (x - z)^2 x z = x^3 z - 2 x^2 z^2 + x z^3
        assert not BinaryForm.from_ints(QQ, 4, [0, 1, -2, 1, 0]).is_squarefree()

    def test_char_five_quartic(self):
        field = build_extension(5)
        form = BinaryForm.from_ints(field, 4, [1, 0, 0, 1, 0])  # x^4 + x z^3
        # oracle: exhaustive multiplicity check over F_5 and F_25
        for ext in (field, build_extension(5, 2)):
            poly = [1 if i in (1, 4) else 0 for i in range(5)]  # x + x^4
            for r in range(ext.q):
                value = ext.zero
                deriv = ext.zero
                for i, c in enumerate(poly):
                    if c:
                        value = ext.add(value, ext.pow(r, i))
                for i, c in enumerate(poly):
                    if c and i >= 1:
                        deriv = ext.add(deriv, ext.mul(ext.from_int(i), ext.pow(r, i - 1)))
                assert not (value == ext.zero and deriv == ext.zero)
        assert form.is_squarefree()

    def test_pth_power_detected_in_char_p(self):
        field = build_extension(5)
        # x^5 + z^5 = (x + z)^5 over F_5
        form = BinaryForm.from_ints(field, 5, [1, 0, 0, 0, 0, 1])
        assert not form.is_squarefree()

    def test_simple_root_at_infinity_ok(self):
        # z * x * (x - z) * (x + z): c_0 = 0 only
        form = BinaryForm.from_ints(QQ, 4, [0, 1, 0, -1, 0])
        assert form.is_squarefree()

    def test_zero_form_rejected(self):
        with pytest.raises(DegenerateInputError):
            BinaryForm.from_ints(QQ, 3, [0, 0, 0, 0]).is_squarefree()


class TestListKernel:
    """The shared list kernel, through its consumers: evaluation and poly_gcd."""

    @pytest.mark.parametrize("field", [F7, build_extension(5, 2), QQ], ids=["F7", "F25", "QQ"])
    def test_eval_list_matches_term_by_term_sum(self, field):
        from prymsplit.poly import eval_list

        rng = random.Random(3)
        for n in range(7):  # n = 0 is the empty list, the zero polynomial
            cs = [field.random_element(rng) for _ in range(n)]
            for x in [field.zero, field.one] + [field.random_element(rng) for _ in range(5)]:
                expected = field.zero
                for i, c in enumerate(cs):
                    expected = field.add(expected, field.mul(c, field.pow(x, i)))
                assert eval_list(cs, x, field) == expected
                assert UniPoly(field, cs).eval(x) == expected

    def test_gcd_over_qq_with_denominators(self):
        x = UniPoly(QQ, (QQ.zero, QQ.one))

        def c(num, den):
            return UniPoly(QQ, (Fraction(num, den),))

        g = (x - c(1, 2)) * (x + c(2, 3))
        a = g * (x.scale(Fraction(3)) + c(1, 5))
        b = g * (x * x + c(7, 4)) * c(-5, 9)
        d = poly_gcd(a, b)
        assert d == g
        assert all(type(v) is Fraction for v in d.coeffs)
        zero = UniPoly(QQ, ())
        assert poly_gcd(a, zero) == a.scale(QQ.inv(a.coeffs[-1]))
        assert poly_gcd(zero, zero).is_zero()
