import random
from fractions import Fraction

import pytest

from prymsplit import (
    BiellipticQuartic,
    BinaryForm,
    DegenerateInputError,
    QQ,
    RejectedInputError,
    SingularMatrixError,
    TernaryForm,
    UniPoly,
    bruin_cover,
    build_extension,
    deform,
    disc_ternary_quartic,
    pencil_sextic,
    quadric_coefficients,
    random_validated_curve,
    singular_model,
    split,
    validate,
)
from prymsplit.prym import _pencil_targets

F7 = build_extension(7)
F5 = build_extension(5)

# the running example: f = xz, g = x^2 + xz + z^2, h = x^2 - z^2
DEMO = dict(f=[0, 1, 0], g=[1, 1, 1], h=[1, 0, -1])


class TestValidate:
    def test_visible_double_roots_fail(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[1, 0, 0], g=[0, 0, 1], h=[0, 1, 0])
        report = validate(curve)
        assert not report.fg_squarefree
        assert not report.passed

    def test_demo_curve(self):
        curve = BiellipticQuartic.from_ints(QQ, **DEMO)
        report = validate(curve)
        assert report.det == -2
        assert report.passed
        assert report.disc_cross_check is True

    def test_dependent_rows_fail(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[0, 1, 0], g=[1, 1, 1], h=[0, 2, 0])
        report = validate(curve)
        assert not report.det_nonzero
        assert "singular" in " ".join(report.failures)

    @pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2)],
                             ids=["F3", "F5", "F7", "F9"])
    def test_cross_check_runs_and_agrees_on_small_fields(self, p, k):
        field = build_extension(p, k)
        assert validate(BiellipticQuartic.from_ints(field, **DEMO)).disc_cross_check is True
        rng = random.Random(p * k)
        verdicts = set()
        for _ in range(30):
            f, g, h = ([field.random_element(rng) for _ in range(3)] for _ in range(3))
            try:
                curve = BiellipticQuartic.from_ints(field, f=f, g=g, h=h)
            except DegenerateInputError:
                continue
            report = validate(curve)
            assert report.disc_cross_check is True, curve
            verdicts.add(report.passed)
        assert verdicts == {True, False}

    def test_cross_check_runs_above_13(self):
        field = build_extension(17)
        curve = BiellipticQuartic.from_ints(field, **DEMO)
        report = validate(curve)
        assert report.disc_cross_check is True

    def test_cross_check_agrees_on_random_curves(self):
        rng = random.Random(0)
        field = build_extension(17)
        seen_bad = 0
        for _ in range(40):
            f = [field.random_element(rng) for _ in range(3)]
            g = [field.random_element(rng) for _ in range(3)]
            h = [field.random_element(rng) for _ in range(3)]
            try:
                curve = BiellipticQuartic.from_ints(field, f=f, g=g, h=h)
            except DegenerateInputError:
                continue
            report = validate(curve)
            assert report.disc_cross_check is True
            seen_bad += not report.passed
        assert seen_bad  # the sample must include invalid curves too

    def test_zero_branch_quartic_fails(self):
        field = build_extension(3)
        # h = x^2 + z^2, f = g = x^2 ... then h^2 - 4fg = h^2 - fg mod 3; pick
        # f = g = h so that s = h^2 - 4 h^2 = -3 h^2 = 0 mod 3
        curve = BiellipticQuartic.from_ints(field, f=[1, 0, 1], g=[1, 0, 1], h=[1, 0, 1])
        report = validate(curve)
        assert not report.branch_squarefree
        assert not report.passed

    def test_characteristic_two_refused(self):
        with pytest.raises(Exception):
            BiellipticQuartic.from_ints(build_extension(2), **DEMO)

    @pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
    def test_rejecting_inputs_fail_their_named_check(self, field):
        from prymsplit.selftest import rejecting_inputs

        named = {
            "fg not squarefree": "f*g has a repeated root",
            "branch quartic not squarefree": "h^2 - 4*f*g has a repeated root",
            "singular coefficient matrix": "coefficient matrix is singular",
        }
        inputs = rejecting_inputs(field)
        assert set(inputs) == set(named)
        for name, curve in inputs.items():
            report = validate(curve)
            assert not report.passed
            assert named[name] in report.failures


class TestSplit:
    def test_identity_matrix_formulas(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[1, 0, 0], g=[0, 0, 1], h=[0, 1, 0])
        sr = split(curve, skip_validation=True)
        assert sr.a == UniPoly.from_ints(QQ, [1])
        assert sr.b == UniPoly.from_ints(QQ, [0, 2])
        assert sr.c == UniPoly.from_ints(QQ, [0, 0, 1])
        assert sr.sextic == UniPoly.from_ints(QQ, [0, 0, 0, 6])

    def test_rejected_without_skip(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[1, 0, 0], g=[0, 0, 1], h=[0, 1, 0])
        with pytest.raises(RejectedInputError) as info:
            split(curve)
        assert info.value.failures

    def test_duplicate_rows_singular(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[0, 1, 0], g=[1, 1, 1], h=[0, 1, 0])
        with pytest.raises(SingularMatrixError):
            split(curve, skip_validation=True)

    def test_demo_curve_over_f7(self):
        curve = BiellipticQuartic.from_ints(F7, **DEMO)
        sr = split(curve)
        assert sr.matrix.mat_mul(sr.inverse).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert sr.sextic.degree in (5, 6)
        # b(b^2 - ac) recomputed from scratch
        assert sr.sextic == sr.b * (sr.b * sr.b - sr.a * sr.c)


    @pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
    def test_validate_and_split_compute_a_fg_and_s_once(self, field, monkeypatch):
        """A, its determinant, fg and s are computed once per curve, however
        many of validate, split and plane_quartic read them."""
        products, dets = [], []
        real_mul, real_add = BinaryForm.__mul__, field.add
        monkeypatch.setattr(BinaryForm, "__mul__",
                            lambda a, b: products.append((a, b)) or real_mul(a, b))
        curve = BiellipticQuartic.from_ints(field, **DEMO)
        matrix = curve.coefficient_matrix()
        # Matrix3.det ends in one field.add; count the determinants by it
        monkeypatch.setattr(field, "add", lambda a, b: dets.append(1) or real_add(a, b))
        det = matrix.det()
        assert matrix.det() is det and len(dets) == 1
        monkeypatch.setattr(field, "add", real_add)
        report = validate(curve)
        sr = split(curve)
        curve.plane_quartic()
        assert products == [(curve.f, curve.g), (curve.h, curve.h)]  # fg, then h^2 in s
        assert curve.coefficient_matrix() is matrix is sr.matrix
        assert report.det == sr.det == det == matrix.det()
        assert curve.fg() is curve.fg() and curve.branch_quartic() is sr.genus_one
        # the memo lives outside the dataclass fields: equality and hashing ignore it
        fresh = BiellipticQuartic.from_ints(field, **DEMO)
        assert fresh == curve and hash(fresh) == hash(curve)

    def test_memoized_determinant_is_still_checked_by_the_inverse(self):
        """inverse() keeps its round-trip check: a wrong kept determinant is caught."""
        curve = BiellipticQuartic.from_ints(F7, **DEMO)
        matrix = curve.coefficient_matrix()
        matrix._det = F7.mul(matrix.det(), 2)
        with pytest.raises(ArithmeticError, match="round trip"):
            matrix.inverse()


class TestGenusOneModel:
    def test_h_zero_degenerates_to_minus_4fg(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[0, 1, 0], g=[1, 1, 1], h=[0, 0, 0])
        minus4fg = (curve.f * curve.g).scale(QQ.from_int(-4))
        assert curve.branch_quartic() == minus4fg

    def test_equal_factors_flagged_downstream(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[0, 1, 0], g=[0, 1, 0], h=[0, 0, 0])
        assert curve.branch_quartic() == BinaryForm.from_ints(QQ, 4, [0, 0, -4, 0, 0])
        assert not validate(curve).branch_squarefree

    def test_schoolbook_expansion(self):
        rng = random.Random(1)
        for _ in range(20):
            curve = random_validated_curve(F7, rng)
            s = split(curve).genus_one
            # independent schoolbook expansion of h^2 - 4fg
            expansion = {}
            for i, hi in enumerate(curve.h.coeffs):
                for j, hj in enumerate(curve.h.coeffs):
                    expansion[i + j] = F7.add(expansion.get(i + j, 0), F7.mul(hi, hj))
            for i, fi in enumerate(curve.f.coeffs):
                for j, gj in enumerate(curve.g.coeffs):
                    term = F7.mul(F7.from_int(4), F7.mul(fi, gj))
                    expansion[i + j] = F7.sub(expansion.get(i + j, 0), term)
            assert s.coeffs == tuple(expansion[i] for i in range(5))


class TestSingularModel:
    def test_identity_matrix_model(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[1, 0, 0], g=[0, 0, 1], h=[0, 1, 0])
        q1, q2, q3 = singular_model(curve)
        assert quadric_coefficients(q1) == (0, 0, 0, 1, 0, 0)  # x1 x2
        assert quadric_coefficients(q2) == (0, 1, 0, 0, 1, 0)  # x2^2 + x1 x3
        assert quadric_coefficients(q3) == (0, 0, 0, 0, 0, 1)  # x2 x3

    def test_defining_property(self):
        # A (q1, q2, q3)^T = (x1 x2, x2^2 + x1 x3, x2 x3)^T, checked by
        # evaluating both sides at random points
        rng = random.Random(2)
        for _ in range(15):
            curve = random_validated_curve(F7, rng)
            model = singular_model(curve)
            a = curve.coefficient_matrix()
            for _ in range(10):
                x, y, z = (F7.random_element(rng) for _ in range(3))
                qs = [q.eval(x, y, z) for q in model]
                lhs = tuple(F7.add(F7.add(F7.mul(r[0], qs[0]), F7.mul(r[1], qs[1])),
                                   F7.mul(r[2], qs[2])) for r in a.rows)
                rhs = (F7.mul(x, y), F7.add(F7.mul(y, y), F7.mul(x, z)), F7.mul(y, z))
                assert lhs == rhs

    def test_singular_matrix_propagates(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[0, 1, 0], g=[1, 1, 1], h=[0, 1, 0])
        with pytest.raises(SingularMatrixError):
            singular_model(curve)


class TestPencil:
    def test_identity_model_sextic(self):
        curve = BiellipticQuartic.from_ints(QQ, f=[1, 0, 0], g=[0, 0, 1], h=[0, 1, 0])
        model = singular_model(curve)
        # hand expansion of -det({0, a/2, b/2; a/2, b, c/2; b/2, c/2, 0}) with
        # a = 1, b = 2x, c = x^2 gives (3/2) x^3
        assert pencil_sextic(*model) == UniPoly(
            QQ, (Fraction(0), Fraction(0), Fraction(0), Fraction(3, 2))
        )

    def test_smooth_endpoint_sextic(self):
        cover = bruin_cover(*_pencil_targets(QQ))
        # diag(2x, 1 + x^2, 1 - x^2) gives -det = -2x(1 - x^4)
        assert cover.sextic == UniPoly.from_ints(QQ, [0, -2, 0, 0, 0, 2])
        assert cover.sextic_squarefree

    def test_zero_forms_give_zero_polynomial(self):
        z = TernaryForm.zero_form(QQ, 2)
        assert pencil_sextic(z, z, z).is_zero()

    def test_four_times_pencil_equals_split_polynomial(self):
        rng = random.Random(3)
        for field in (F5, F7, build_extension(11), build_extension(13), QQ):
            for _ in range(12):
                curve = random_validated_curve(field, rng)
                sr = split(curve, skip_validation=True)
                model = singular_model(curve)
                lhs = pencil_sextic(*model).scale(field.from_int(4))
                assert lhs == sr.sextic


class TestDeform:
    def test_eps_zero_is_the_singular_model(self):
        rng = random.Random(4)
        curve = random_validated_curve(F7, rng)
        cover = deform(curve, F7.zero)
        assert cover.triple() == singular_model(curve)
        assert not cover.base_smooth
        assert disc_ternary_quartic(cover.base_quartic) == F7.zero

    def test_eps_one_from_zero_base_is_the_golden_quartic(self):
        cover = bruin_cover(*_pencil_targets(QQ))
        assert cover.base_quartic.coeffs == {
            (4, 0, 0): Fraction(1),
            (0, 4, 0): Fraction(-1),
            (0, 0, 4): Fraction(1),
        }
        assert cover.base_smooth
        assert disc_ternary_quartic(cover.base_quartic) == -(2**40)

    def test_eps_one_forgets_the_curve(self):
        rng = random.Random(5)
        curve = random_validated_curve(F7, rng)
        cover = deform(curve, F7.one)
        assert cover.base_quartic.coeffs == {(4, 0, 0): 1, (0, 4, 0): 6, (0, 0, 4): 1}

    def test_random_eps_mostly_smooth(self):
        rng = random.Random(6)
        curve = random_validated_curve(F7, rng)
        smooth = sum(1 for eps in range(1, 7) if deform(curve, eps).base_smooth)
        assert smooth >= 4  # singular fibers form a degree-bounded exceptional set

    @pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)],
                             ids=["F3", "F5", "F7", "F9", "F25"])
    def test_base_smooth_is_the_discriminant_test(self, p, k):
        field = build_extension(p, k)
        rng = random.Random(100 * p + k)
        seen = set()
        for _ in range(4):
            curve = random_validated_curve(field, rng)
            for eps in [field.zero] + [field.random_element(rng) for _ in range(3)]:
                cover = deform(curve, eps)
                smooth = disc_ternary_quartic(cover.base_quartic) != field.zero
                assert cover.base_smooth == smooth, (curve, eps)
                seen.add(smooth)
        assert seen == {True, False}


class TestRandomCurves:
    def test_validated_curves_validate(self):
        rng = random.Random(7)
        for field in (F5, QQ):
            for _ in range(10):
                curve = random_validated_curve(field, rng)
                assert validate(curve).passed

    def test_split_degree_invariant(self):
        rng = random.Random(8)
        for _ in range(60):
            curve = random_validated_curve(F5, rng)
            assert split(curve, skip_validation=True).sextic.degree in (5, 6)
