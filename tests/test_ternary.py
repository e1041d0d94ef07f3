import random

import pytest

from prymsplit import QQ, build_extension, quadric, quadric_coefficients
from prymsplit.ternary import gram

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
