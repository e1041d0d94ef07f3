import random

import pytest

from prymsplit import (
    QQ,
    UnsupportedFieldError,
    bruin_cover,
    build_extension,
    cover_quartic,
    quadric,
    quadric_coefficients,
)
from prymsplit.ternary import TernaryForm, gram
from helpers import random_quadratic

FIELDS = [build_extension(7), build_extension(3, 2), QQ]


@pytest.mark.parametrize("field", FIELDS, ids=["F7", "F9", "QQ"])
def test_quadric_coefficients_round_trip(field):
    rng = random.Random(31)
    for _ in range(20):
        cs = tuple(field.random_element(rng) for _ in range(6))
        assert quadric_coefficients(quadric(field, *cs)) == cs


@pytest.mark.parametrize("field", FIELDS, ids=["F7", "F9", "QQ"])
def test_gram_is_symmetric_and_evaluates_the_quadric(field):
    # v^T gram(q) v == q(v): the off-diagonal entries are the halved mixed terms
    rng = random.Random(32)
    add, mul = field.add, field.mul
    for _ in range(20):
        q = quadric(field, *(field.random_element(rng) for _ in range(6)))
        g = gram(q)
        assert all(g[i][j] == g[j][i] for i in range(3) for j in range(3))
        for _ in range(5):
            v = [field.random_element(rng) for _ in range(3)]
            value = field.zero
            for i in range(3):
                for j in range(3):
                    value = add(value, mul(v[i], mul(g[i][j], v[j])))
            assert value == q.eval(*v)


@pytest.mark.parametrize("field", FIELDS, ids=["F7", "F9", "QQ"])
def test_sums_and_differences_are_coefficientwise(field):
    rng = random.Random(34)
    monomials = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
    for _ in range(20):
        a, b = (TernaryForm(field, 3, {m: field.random_element(rng) for m in monomials})
                for _ in range(2))
        for form, op in ((a + b, field.add), (a - b, field.sub)):
            assert all(form.coeff(m) == op(a.coeff(m), b.coeff(m)) for m in monomials)
            for _ in range(5):
                v = [field.random_element(rng) for _ in range(3)]
                assert form.eval(*v) == op(a.eval(*v), b.eval(*v))
        assert (a - a).is_zero()

def test_forms_over_different_fields_are_refused():
    # F_3's packed values are F_9's too, so a mixed product would run F_3's
    # mul on F_9 elements and return a wrong form instead of failing
    rng = random.Random(33)
    F3, F9 = build_extension(3), build_extension(3, 2)
    q1 = quadric(F3, 1, 2, 1, 0, 1, 2)
    q2, q3 = (random_quadratic(F9, rng) for _ in range(2))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(UnsupportedFieldError):
            op(q1, q2)
    with pytest.raises(UnsupportedFieldError):
        cover_quartic(q1, q2, q3)
    with pytest.raises(UnsupportedFieldError):
        bruin_cover(q1, q2, q3)
