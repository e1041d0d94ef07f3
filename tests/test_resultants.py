import random
from fractions import Fraction

import pytest
import sympy

from prymsplit import resultants
from prymsplit import (
    BinaryForm,
    DegenerateInputError,
    QQ,
    QUARTIC_DISC_NORMALIZER,
    TernaryForm,
    UndefinedResultantError,
    binary_disc_scale,
    build_extension,
    disc_ternary_quartic,
    discriminant_binary,
    macaulay_resultant_cubics,
    resultant_forms,
)
from prymsplit.linalg import det_in_field
from helpers import random_binary_form, random_ternary_form

F5 = build_extension(5)
F7 = build_extension(7)


def _sympy_resultant(a, b, x):
    """sympy's resultant of the dehomogenizations of two binary forms whose
    leading coefficients are nonzero, in the orientation of resultant_forms.

    sympy normalizes to the higher-degree argument first, which costs the
    (-1)^(mn) orientation when the first argument has the smaller degree.
    """
    sa = sum(sympy.Rational(c) * x ** (a.n - i) for i, c in enumerate(a.coeffs))
    sb = sum(sympy.Rational(c) * x ** (b.n - i) for i, c in enumerate(b.coeffs))
    value = Fraction(str(sympy.resultant(sa, sb, x)))
    return -value if a.n < b.n and (a.n * b.n) % 2 else value


class TestSylvester:
    """resultant_forms at full degrees: the Sylvester conventions."""

    def test_linear_linear(self):
        p = BinaryForm.from_ints(QQ, 1, [1, -1])  # x - z
        q = BinaryForm.from_ints(QQ, 1, [1, -2])  # x - 2z
        assert resultant_forms(p, q) == -1

    def test_against_value_at_root(self):
        p = BinaryForm.from_ints(QQ, 2, [1, 0, 1])  # x^2 + z^2 at (0:1)
        assert resultant_forms(p, BinaryForm.from_ints(QQ, 1, [1, 0])) == 1

    def test_shared_roots(self):
        f = BinaryForm.from_ints(QQ, 2, [1, 3, 2])
        assert resultant_forms(f, f) == 0

    def test_both_zero_rejected(self):
        zero = BinaryForm.from_ints(QQ, 1, [0, 0])
        with pytest.raises(UndefinedResultantError):
            resultant_forms(zero, zero)

    def test_one_zero(self):
        zero = BinaryForm.from_ints(QQ, 1, [0, 0])
        assert resultant_forms(zero, BinaryForm.from_ints(QQ, 1, [1, 1])) == 0

    def test_swap_sign(self):
        rng = random.Random(0)
        for _ in range(50):
            p = random_binary_form(F7, rng, rng.randint(1, 4))
            q = random_binary_form(F7, rng, rng.randint(1, 4))
            if p.is_zero() or q.is_zero():
                continue
            sign = (-1) ** (p.n * q.n)
            lhs = resultant_forms(p, q)
            rhs = F7.mul(F7.from_int(sign), resultant_forms(q, p))
            assert lhs == rhs

    def test_multiplicative(self):
        rng = random.Random(1)
        for _ in range(50):
            p = random_binary_form(F7, rng, 3)
            q = random_binary_form(F7, rng, 2)
            r = random_binary_form(F7, rng, 2)
            if p.is_zero() or q.is_zero() or r.is_zero():
                continue
            assert resultant_forms(p, q * r) == F7.mul(resultant_forms(p, q),
                                                       resultant_forms(p, r))

    def test_matches_sympy(self):
        rng = random.Random(2)
        x = sympy.symbols("x")
        for _ in range(40):
            p = random_binary_form(QQ, rng, rng.randint(1, 4))
            q = random_binary_form(QQ, rng, rng.randint(1, 4))
            if p.coeffs[0] == 0 or q.coeffs[0] == 0:
                continue
            assert resultant_forms(p, q) == _sympy_resultant(p, q, x)


class TestResultantForms:
    def test_formal_degrees_see_roots_at_infinity(self):
        # z(x - z) and z(x + z) share the projective root (1:0), visible only
        # because the padded layout keeps the vanishing leading coefficients
        a = BinaryForm.from_ints(QQ, 2, [0, 1, -1])
        b = BinaryForm.from_ints(QQ, 2, [0, 1, 1])
        assert resultant_forms(a, b) == 0

    def test_coprime_split_forms(self):
        a = BinaryForm.from_ints(QQ, 2, [1, 0, 0])  # x^2
        b = BinaryForm.from_ints(QQ, 2, [0, 0, 1])  # z^2
        assert resultant_forms(a, b) == 1

    def test_matches_dehomogenized_resultant_when_degrees_full(self):
        # the resultant lies in Z[coefficients], so over F_7 it is the
        # integer resultant of the representatives reduced mod 7
        rng = random.Random(6)
        x = sympy.symbols("x")
        for _ in range(20):
            a = random_binary_form(F7, rng, 3)
            b = random_binary_form(F7, rng, 2)
            if a.coeffs[0] == 0 or b.coeffs[0] == 0:
                continue
            assert resultant_forms(a, b) == _sympy_resultant(a, b, x) % 7

    @pytest.mark.parametrize("field", [QQ, F7, build_extension(3, 2)], ids=["QQ", "F7", "F9"])
    def test_degree_zero_forms(self, field):
        # a constant c against a degree-n form: the Sylvester matrix is c
        # times the n x n identity, and two constants give the empty matrix
        rng = random.Random(9)
        zero = BinaryForm(field, 0, [field.zero])
        for _ in range(10):
            c, d = (_random_element(field, rng) for _ in range(2))
            if c == field.zero or d == field.zero:
                continue
            const_c, const_d = BinaryForm(field, 0, [c]), BinaryForm(field, 0, [d])
            assert resultant_forms(const_c, const_d) == field.one
            assert resultant_forms(zero, const_d) == field.one
            power = field.one
            for n in range(1, 4):
                power = field.mul(power, c)
                q = random_binary_form(field, rng, n)
                if q.is_zero():
                    continue
                assert resultant_forms(const_c, q) == power
                assert resultant_forms(q, const_c) == power
                assert resultant_forms(zero, q) == field.zero
                assert resultant_forms(q, zero) == field.zero


class TestBinaryDiscriminant:
    def test_repeated_roots_at_zero_and_infinity(self):
        assert discriminant_binary(BinaryForm.from_ints(QQ, 4, [0, 0, 1, 0, 0])) == 0

    def test_four_distinct_roots(self):
        form = BinaryForm.from_ints(QQ, 4, [1, 0, 0, 0, -1])  # x^4 - z^4
        value = discriminant_binary(form)
        assert value != 0
        # cross-check: convention constant times the classical discriminant
        x = sympy.symbols("x")
        classical = sympy.discriminant(x**4 - 1, x)
        assert value == binary_disc_scale(4) * Fraction(str(classical))

    def test_double_root(self):
        # (x - z)^2 x z
        assert discriminant_binary(BinaryForm.from_ints(QQ, 4, [0, 1, -2, 1, 0])) == 0

    def test_degree_too_small(self):
        with pytest.raises(DegenerateInputError):
            discriminant_binary(BinaryForm.from_ints(QQ, 1, [1, 1]))

    def test_scale_constant_documented(self):
        # the scale is exactly the value of discriminant_binary on x^n + c z^n
        # divided by the classical disc of x^n + c, for any nonzero c
        x = sympy.symbols("x")
        for n in (2, 3, 4, 5, 6):
            coeffs = [1] + [0] * (n - 1) + [3]
            form = BinaryForm.from_ints(QQ, n, coeffs)
            classical = Fraction(str(sympy.discriminant(x**n + 3, x)))
            assert discriminant_binary(form) == binary_disc_scale(n) * classical

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("degree", [4, 6])
    def test_zero_iff_not_squarefree(self, p, degree):
        field = build_extension(p)
        rng = random.Random(p * 100 + degree)
        for _ in range(260):
            form = random_binary_form(field, rng, degree)
            if form.is_zero():
                continue
            disc_zero = discriminant_binary(form) == field.zero
            assert disc_zero == (not form.is_squarefree())


class TestMacaulay:
    def test_diagonal_system_is_one(self):
        mono = lambda m: TernaryForm.from_ints(QQ, 3, {m: 1})
        assert macaulay_resultant_cubics(mono((3, 0, 0)), mono((0, 3, 0)), mono((0, 0, 3))) == 1

    def test_partials_of_golden_quartic(self):
        # the true resultant of (4x^3, -4y^3, 4z^3) is (4 * -4 * 4)^9 = -2^54
        p1 = TernaryForm.from_ints(QQ, 3, {(3, 0, 0): 4})
        p2 = TernaryForm.from_ints(QQ, 3, {(0, 3, 0): -4})
        p3 = TernaryForm.from_ints(QQ, 3, {(0, 0, 3): 4})
        assert macaulay_resultant_cubics(p1, p2, p3) == -(2**54)

    def test_common_root_gives_zero(self):
        a = TernaryForm.from_ints(QQ, 3, {(3, 0, 0): 1})
        b = TernaryForm.from_ints(QQ, 3, {(3, 0, 0): 1})
        c = TernaryForm.from_ints(QQ, 3, {(0, 3, 0): 1})
        assert macaulay_resultant_cubics(a, b, c) == 0

    def test_scaling_law(self):
        rng = random.Random(3)
        for field in (QQ, F7):
            for _ in range(8):
                f1 = random_ternary_form(field, rng, 3)
                f2 = random_ternary_form(field, rng, 3)
                f3 = random_ternary_form(field, rng, 3)
                lam = field.from_int(rng.randint(2, 6))
                base = macaulay_resultant_cubics(f1, f2, f3)
                scaled = macaulay_resultant_cubics(f1.scale(lam), f2, f3)
                assert scaled == field.mul(field.pow(lam, 9), base)

    def test_degree_checked(self):
        quad = TernaryForm.from_ints(QQ, 2, {(2, 0, 0): 1})
        cubic = TernaryForm.from_ints(QQ, 3, {(3, 0, 0): 1})
        with pytest.raises(DegenerateInputError):
            macaulay_resultant_cubics(quad, cubic, cubic)


def _random_element(field, rng):
    """A random element; over QQ a fraction with a denominator up to 9."""
    if field.kind == "rationals":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return field.random_element(rng)


def _random_form(field, rng, degree):
    return TernaryForm(field, degree, {
        (i, j, degree - i - j): _random_element(field, rng)
        for i in range(degree + 1) for j in range(degree + 1 - i)
    })


def _cubics_through_a_point(field, rng):
    """Three cubics l1*a + l2*b vanishing at (u:v:1), l1 = x - uz, l2 = y - vz."""
    u, v = _random_element(field, rng), _random_element(field, rng)
    x, y, z = (TernaryForm(field, 1, {mono: field.one})
               for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    l1 = x - z.scale(u)
    l2 = y - z.scale(v)
    return tuple(l1 * _random_form(field, rng, 2) + l2 * _random_form(field, rng, 2)
                 for _ in range(3))


def _monomial_cubic(mono):
    return TernaryForm.from_ints(QQ, 3, {mono: 1})


# the degree-7 monomials in descending lexicographic order, the textbook
# layout of the Macaulay matrix (Cox, Little, O'Shea, Ch. 3 Sec. 4)
_MONOMIALS_7 = sorted(((i, j, 7 - i - j) for i in range(8) for j in range(8 - i)), reverse=True)


def _slot(mono):
    """Which cubic covers a degree-7 monomial: the first x_s with exponent >= 3."""
    return next(s for s, e in enumerate(mono) if e >= 3)


def _reduced(mono):
    return sum(e >= 3 for e in mono) == 1


def _lexicographic_dets(cubics, field):
    """(det M, det M'), M built row by row in lexicographic order and M' its
    principal minor on the non-reduced monomials."""
    rows = []
    for mono in _MONOMIALS_7:
        s = _slot(mono)
        mult = tuple(e - 3 * (i == s) for i, e in enumerate(mono))
        product = {tuple(a + b for a, b in zip(mult, m)): c for m, c in cubics[s].coeffs.items()}
        rows.append([product.get(m, field.zero) for m in _MONOMIALS_7])
    minor = [i for i, m in enumerate(_MONOMIALS_7) if not _reduced(m)]
    return det_in_field(rows, field), det_in_field([[rows[i][j] for j in minor] for i in minor], field)


class TestMacaulayReference:
    """The one layout against M and M' built in plain lexicographic order."""

    def test_layout_facts(self):
        # row i of M covers column i, so the diagonal system's M is the identity
        monomials = resultants._MONOMIALS_7
        assert sorted(monomials) == sorted(_MONOMIALS_7)
        for c, (s, mult) in enumerate(resultants._MULTIPLES[:36]):
            assert tuple(e + 3 * (i == s) for i, e in enumerate(mult)) == monomials[c]
        diagonal = tuple(_monomial_cubic(m) for m in ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
        rows = resultants._macaulay_rows(diagonal, QQ.zero)
        assert rows[:36] == [[int(i == c) for c in range(36)] for i in range(36)]
        # the quotient's minor sits on exactly the non-reduced monomials
        assert resultants._NON_REDUCED == tuple(c for c, m in enumerate(monomials) if not _reduced(m))

    @pytest.mark.parametrize("field", [QQ, F7, build_extension(3, 2), build_extension(5, 2)],
                             ids=["QQ", "F7", "F9", "F25"])
    def test_quotient_equals_lexicographic_quotient(self, field):
        rng = random.Random(29)
        checked = [0, 0]  # sparse, full
        for trial in range(24):
            density = 1.0 if trial % 2 else 0.5
            cubics = tuple(TernaryForm(field, 3, {m: _random_element(field, rng)
                                                  for m in resultants._CUBIC_MONOMIALS
                                                  if rng.random() < density})
                           for _ in range(3))
            det_m, det_minor = _lexicographic_dets(cubics, field)
            if det_minor == field.zero:
                continue
            assert macaulay_resultant_cubics(*cubics) == field.div(det_m, det_minor)
            checked[trial % 2] += 1
        assert min(checked) >= 1 and sum(checked) >= 8


class TestMacaulayOrder:
    """The quotient comes first; the rank test runs only when det(M') = 0."""

    @pytest.mark.parametrize("field", [QQ, F7, build_extension(5, 2)],
                             ids=["QQ", "F7", "F25"])
    def test_zero_iff_shared_projective_zero(self, field):
        rng = random.Random(11)
        shared = 0
        for trial in range(24):
            if trial % 2:
                cubics = _cubics_through_a_point(field, rng)
            else:
                cubics = tuple(_random_form(field, rng, 3) for _ in range(3))
            if any(f.is_zero() for f in cubics):
                continue
            value = macaulay_resultant_cubics(*cubics)
            rows = resultants._macaulay_rows(cubics, field.zero)
            common = resultants._shares_projective_zero(rows, field)
            assert (value == field.zero) == common
            shared += common
        assert shared >= 12

    def test_rank_matrix_layout(self):
        """Each of the 45 multiples once, the 36 designated rows of M first
        (one per degree-7 monomial), the columns a permutation of the
        degree-7 monomials."""
        rows = resultants._MULTIPLES
        assert sorted(rows) == sorted((s, m) for s in range(3)
                                      for m in resultants._QUARTIC_MONOMIALS)
        covered = [tuple(e + 3 * (i == s) for i, e in enumerate(m)) for s, m in rows[:36]]
        assert sorted(covered) == sorted(_MONOMIALS_7)
        assert [_slot(mono) for mono in covered] == [s for s, _ in rows[:36]]
        index = resultants._COLUMN
        assert sorted(index) == sorted(_MONOMIALS_7)
        assert sorted(index.values()) == list(range(36))
        # the matrix holds x^mult * f_s, entry by entry, in those columns
        rng = random.Random(13)
        cubics = tuple(_random_form(F7, rng, 3) for _ in range(3))
        zero = F7.zero
        for (s, mult), row in zip(rows, resultants._macaulay_rows(cubics, zero)):
            expected = {tuple(a + b for a, b in zip(mult, mono)): c
                        for mono, c in cubics[s].coeffs.items()}
            assert row == [expected.get(mono, zero) for mono in sorted(index, key=index.get)]

    def test_generic_discriminant_needs_no_rank(self, monkeypatch):
        rng = random.Random(12)
        forms = [_random_form(QQ, rng, 4) for _ in range(4)]
        expected = [disc_ternary_quartic(form) for form in forms]

        def no_rank(rows, field):
            raise AssertionError("rank test run although det(M') is nonzero")

        monkeypatch.setattr(resultants, "rank_in_field", no_rank)
        assert [disc_ternary_quartic(form) for form in forms] == expected
        assert all(value != 0 for value in expected)
        golden = TernaryForm.from_ints(QQ, 4, {(4, 0, 0): 1, (0, 4, 0): -1, (0, 0, 4): 1})
        assert disc_ternary_quartic(golden) == -(2**40)

    def test_vanishing_minor_reaches_rank_test(self, monkeypatch):
        calls = []
        rank = resultants.rank_in_field

        def spy(rows, field):
            calls.append(len(rows))
            return rank(rows, field)

        monkeypatch.setattr(resultants, "rank_in_field", spy)
        x3, y3, z3 = (_monomial_cubic(m) for m in ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
        # (x^3, x^3, y^3) share (0:0:1); (y^3, z^3, x^3) share nothing but
        # both leave the designated minor singular
        for cubics, expected in (((x3, x3, y3), 0), ((y3, z3, x3), 1)):
            assert resultants._macaulay_quotient(resultants._macaulay_rows(cubics, QQ.zero), QQ) is None
            calls.clear()
            assert macaulay_resultant_cubics(*cubics) == expected
            assert calls == [45]


    @pytest.mark.parametrize("p", [3, 5, 7, 11, 2**61 - 1])
    def test_integer_lift_gives_the_retried_value(self, p, monkeypatch):
        # sparse quartics leave the designated minor singular; with no
        # retries every such value comes from the integer lift over Q
        field = build_extension(p)
        rng = random.Random(p % 1000)
        forms = []
        while len(forms) < 24:
            form = TernaryForm(field, 4, {m: field.random_element(rng)
                                          for m in resultants._QUARTIC_MONOMIALS
                                          if rng.random() < 0.4})
            if not form.is_zero():
                forms.append(form)
        expected = [disc_ternary_quartic(form) for form in forms]
        lifts = []
        quotient = resultants._macaulay_quotient

        def spy(rows, field):
            lifts.append(field is QQ)
            return quotient(rows, field)

        monkeypatch.setattr(resultants, "_macaulay_quotient", spy)
        monkeypatch.setattr(resultants, "_MACAULAY_RETRIES", 0)
        assert [disc_ternary_quartic(form) for form in forms] == expected
        assert any(lifts)


class TestQuarticDiscriminant:
    def test_golden_value(self):
        form = TernaryForm.from_ints(QQ, 4, {(4, 0, 0): 1, (0, 4, 0): -1, (0, 0, 4): 1})
        assert disc_ternary_quartic(form) == -(2**40)

    def test_normalizer_constant(self):
        assert QUARTIC_DISC_NORMALIZER == 4**7

    def test_doubled_conic_singular(self):
        form = TernaryForm.from_ints(QQ, 4, {(2, 2, 0): 1})
        assert disc_ternary_quartic(form) == 0

    def test_fermat_quartic_smooth(self):
        form = TernaryForm.from_ints(QQ, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
        value = disc_ternary_quartic(form)
        assert value == 2**40
        # oracle: no singular point over several small reductions
        for p in (5, 7, 11):
            field = build_extension(p)
            red = TernaryForm.from_ints(field, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
            parts = [red.partial(i) for i in range(3)]
            for x in range(field.q):
                for y in range(field.q):
                    for pt in ((x, y, 1), (x, 1, 0)):
                        if all(part.eval(*pt) == 0 for part in parts):
                            raise AssertionError(f"singular point {pt} mod {p}")
                if all(part.eval(1, 0, 0) == 0 for part in parts):
                    raise AssertionError(f"singular point (1:0:0) mod {p}")

    def test_zero_iff_singular_over_small_fields(self):
        rng = random.Random(4)
        checked = 0
        while checked < 15:
            field = F5
            form = random_ternary_form(field, rng, 4)
            if form.is_zero():
                continue
            disc = disc_ternary_quartic(form)
            parts = [form.partial(i) for i in range(3)]
            # singular over F_q or F_{q^2}? (not exhaustive over closure, so
            # only the forward implication is asserted when a point is found)
            found = False
            for ext in (field, build_extension(5, 2)):
                emb = list(range(5))
                pts = [(x, y, ext.one) for x in range(ext.q) for y in range(ext.q)]
                pts += [(x, ext.one, ext.zero) for x in range(ext.q)] + [(ext.one, ext.zero, ext.zero)]
                for pt in pts:
                    vals = []
                    for part in parts:
                        coerced = TernaryForm(ext, 3, {m: emb[c] for m, c in part.coeffs.items()})
                        vals.append(coerced.eval(*pt))
                    if all(v == ext.zero for v in vals):
                        found = True
                        break
                if found:
                    break
            if found:
                assert disc == field.zero
            checked += 1

    def test_matches_value_mod_p(self):
        # compute over QQ with integer coefficients, reduce, and compare with
        # the same computation done natively mod p
        rng = random.Random(5)
        for _ in range(6):
            ints = {}
            for i in range(5):
                for j in range(5 - i):
                    ints[(i, j, 4 - i - j)] = rng.randint(-6, 6)
            form_q = TernaryForm.from_ints(QQ, 4, ints)
            value = disc_ternary_quartic(form_q)
            for p in (7, 11):
                field = build_extension(p)
                form_p = TernaryForm.from_ints(field, 4, ints)
                expected = field.from_int(value.numerator) if value.denominator == 1 else None
                assert expected is not None
                assert disc_ternary_quartic(form_p) == expected
