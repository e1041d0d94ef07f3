import random
from fractions import Fraction

import pytest

from prymsplit import (
    QQ,
    InvalidFieldError,
    UniPoly,
    UnsupportedFieldError,
    build_extension,
)
from prymsplit.fields import (
    _EXP_BLOCK, ExtensionField, PrimeField, RationalField, embedding, is_irreducible, is_prime,
)
from prymsplit.poly import eval_list
from prymsplit.zeta import _PRIME_POOL
from helpers import PSI12, PSI13, digit_mul, digit_pow, sequential_exp


def test_prime_field_descriptor():
    field = build_extension(7, 1)
    assert (field.kind, field.p, field.k) == ("finite", 7, 1)
    assert field.modulus is None


def test_extension_modulus_found_by_scan():
    field = build_extension(5, 2)
    # the scan tries x^2, x^2+1, x^2+2, ... and the first two have roots
    assert field.modulus == (2, 0, 1)
    assert all((x * x + 2) % 5 != 0 for x in range(5))


def test_characteristic_two_rejected():
    with pytest.raises(InvalidFieldError):
        build_extension(2, 3)
    with pytest.raises(InvalidFieldError):
        build_extension(2)


def test_field_constructors_reject_characteristic_two():
    # the constructors are the one characteristic-2 gate
    with pytest.raises(InvalidFieldError):
        PrimeField(2)
    with pytest.raises(InvalidFieldError):
        ExtensionField(2, 2)


def test_composite_rejected():
    with pytest.raises(InvalidFieldError):
        build_extension(15)


def test_is_prime_agrees_with_sympy():
    import sympy

    assert [n for n in range(10**5) if is_prime(n)] == list(sympy.primerange(10**5))
    for n in (PSI12, PSI13, 2**61 - 1, sympy.prevprime(PSI13)):
        assert is_prime(n) == sympy.isprime(n), n


def test_strong_pseudoprimes_and_the_bound_rejected():
    import sympy

    for p in (PSI12, PSI13, sympy.nextprime(PSI13)):
        with pytest.raises(InvalidFieldError):
            PrimeField(p)
    assert build_extension(sympy.prevprime(PSI13)).p == sympy.prevprime(PSI13)


@pytest.mark.parametrize("p", [7, 2**61 - 1])
def test_from_fraction_matches_the_modular_inverse(p):
    field = PrimeField(p)
    rng = random.Random(p % 1000)
    for _ in range(300):
        num, den = rng.randrange(-10**30, 10**30), rng.randrange(1, 10**30)
        if den % p:
            assert field.from_fraction(Fraction(num, den)) == num * pow(den, -1, p) % p
    assert field.from_fraction(-9) == -9 % p
    for bad in (Fraction(1, p), Fraction(-3, 5 * p), Fraction(p + 1, p**2)):
        with pytest.raises(ZeroDivisionError):
            field.from_fraction(bad)


@pytest.mark.parametrize("p", [7, 2**61 - 1, "QQ"])
def test_prime_field_inverse_and_negative_powers(p):
    if p == "QQ":
        field = QQ
        elements = (Fraction(1), Fraction(2), Fraction(-3), Fraction(10**12, 7))
    else:
        field = PrimeField(p)
        elements = (1, 2, 3, p - 1, 10**12 % p)
    for a in elements:
        assert field.mul(a, field.inv(a)) == field.one
        assert field.pow(a, -3) == field.inv(field.pow(a, 3))
        assert field.div(field.one, a) == field.inv(a)
    for call in (lambda: field.inv(field.zero), lambda: field.pow(field.zero, -1)):
        with pytest.raises(ZeroDivisionError):
            call()


def test_rational_ring_operations():
    a, b = Fraction(1, 2), Fraction(-1, 3)
    values = (QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a), QQ.pow(b, 3), QQ.pow(b, -2))
    assert values == (Fraction(1, 6), Fraction(5, 6), Fraction(-1, 6), Fraction(-1, 2),
                      Fraction(-1, 27), Fraction(9))
    assert all(type(v) is Fraction for v in values)
    big = Fraction(10**30 + 1, 7)
    for x, y in ((big, a), (a, big), (big, big), (QQ.zero, b)):
        assert QQ.sub(x, y) == x - y and QQ.add(x, y) == x + y and QQ.mul(x, y) == x * y
        assert QQ.neg(x) == -x and QQ.add(x, QQ.neg(x)) == QQ.zero


def test_supplied_modulus_checked():
    from prymsplit.fields import ExtensionField

    with pytest.raises(InvalidFieldError):
        ExtensionField(5, 2, modulus=[4, 0, 1])  # x^2 + 4 = (x-1)(x+1)
    field = ExtensionField(5, 2, modulus=[2, 0, 1])
    assert field.q == 25


def test_irreducibility_gcd_test():
    assert is_irreducible([2, 0, 1], 5)
    assert not is_irreducible([4, 0, 1], 5)
    assert is_irreducible([1, 2, 0, 1], 3)  # x^3 - x + 1 has no roots mod 3
    assert not is_irreducible([1, 1, 0, 1], 3)  # 1 is a root
    assert not is_irreducible([0, 0, 0, 1], 3)


def test_monic_linear_polynomials_are_irreducible():
    for p in (3, 5):
        assert all(is_irreducible([c, 1], p) for c in range(p))


def test_quadratic_character_values():
    field = build_extension(7)
    assert field.chi(0) == 0
    assert field.chi(4) == 1
    # squares mod 7 are {1, 2, 4} by enumeration
    squares = {(t * t) % 7 for t in range(1, 7)}
    assert squares == {1, 2, 4}
    assert field.chi(3) == -1


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (5, 2), (3, 3), (7, 3)])
def test_square_count_exhaustive(p, k):
    field = build_extension(p, k)
    assert field.q <= 343
    plus = sum(1 for v in range(1, field.q) if field.chi(v) == 1)
    assert plus == (field.q - 1) // 2


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3), (7, 3)])
def test_inverse_exhaustive_small(p, k):
    field = build_extension(p, k)
    for a in range(1, field.q):
        assert field.mul(a, field.inv(a)) == field.one


def test_inverse_random_large():
    field = build_extension(13, 3)
    rng = random.Random(1)
    for _ in range(2000):
        a = field.random_nonzero(rng)
        assert field.mul(a, field.inv(a)) == field.one


def test_character_multiplicative_many():
    rng = random.Random(2)
    for p, k in ((7, 1), (5, 2), (11, 2), (13, 3)):
        field = build_extension(p, k)
        for _ in range(2600):
            a = field.random_nonzero(rng)
            b = field.random_nonzero(rng)
            assert field.chi(field.mul(a, b)) == field.chi(a) * field.chi(b)


def test_character_matches_euler_criterion():
    rng = random.Random(3)
    for p, k in ((7, 1), (5, 2), (3, 3)):
        field = build_extension(p, k)
        for a in range(field.q):
            assert field.chi(a) == field.euler_character(a)


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (3, 3), (13, 2)])
def test_field_axioms_random(p, k):
    field = build_extension(p, k)
    rng = random.Random(4)
    for _ in range(500):
        a, b, c = (field.random_element(rng) for _ in range(3))
        assert field.add(a, field.add(b, c)) == field.add(field.add(a, b), c)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        assert field.sub(a, b) == field.add(a, field.neg(b))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)], ids=["F9", "F25", "F27"])
def test_sub_is_add_of_negation_exhaustive(p, k):
    field = build_extension(p, k)
    for a in range(field.q):
        for b in range(field.q):
            assert field.sub(a, b) == field.add(a, field.neg(b))


def test_sub_is_add_of_negation_seeded():
    field = build_extension(23, 3)
    rng = random.Random(5)
    pairs = [(field.random_element(rng), field.random_element(rng)) for _ in range(10**4)]
    pairs += [(0, 0), (0, 1), (1, 0), (7, 7), (0, 12166), (12166, 0)]
    for a, b in pairs:
        assert field.sub(a, b) == field.add(a, field.neg(b))


LOG_TABLE_FIELDS = [(p, 1) for p in _PRIME_POOL] + [(3, 2), (5, 2), (3, 3), (7, 2)]


@pytest.mark.parametrize("p,k", LOG_TABLE_FIELDS, ids=[f"{p}^{k}" for p, k in LOG_TABLE_FIELDS])
def test_log_tables(p, k):
    field = build_extension(p, k)
    exp, log, zech = field.log_tables
    assert sorted(exp) == list(range(1, field.q))  # exp permutes F_q^*
    # each step is a product by g, in digit arithmetic that reads no table
    g = exp[1]
    assert exp[0] == 1 and digit_mul(field, exp[-1], g) == 1
    assert all(exp[i] == digit_mul(field, exp[i - 1], g) for i in range(1, field.q - 1))
    assert log[0] == -1 and all(log[v] == i for i, v in enumerate(exp))
    # adding one to a packed element bumps its low base-p digit; the q - 1
    # entries are written twice, so a Horner step indexes them unreduced
    qm1 = field.q - 1
    assert len(zech) == 2 * qm1
    assert zech[:qm1] == zech[qm1:] == [log[v - v % p + (v + 1) % p] for v in exp]
    half = (field.q - 1) // 2
    for a in range(1, field.q):  # the character the tables give is Euler's
        assert (-1) ** log[a] == (1 if digit_pow(field, a, half) == 1 else -1)


def test_prime_field_builds_log_tables_only_on_demand():
    field = PrimeField(23)  # as the modulus and generator searches build it
    assert field._exp is None
    exp, log, _ = field.log_tables
    assert field._exp is exp and exp[:4] == [1, 5, 2, 10]  # 5 is the least primitive root


def test_rational_field_elements_are_reduced_fractions():
    from fractions import Fraction

    x = QQ.div(QQ.from_int(6), QQ.from_int(-4))
    assert x == Fraction(-3, 2)
    assert x.denominator == 2  # positive denominator, reduced


def test_embedding_is_a_field_homomorphism():
    small = build_extension(3, 2)
    big = build_extension(3, 4)
    table = embedding(small, big)
    rng = random.Random(5)
    for _ in range(400):
        a, b = (small.random_element(rng) for _ in range(2))
        assert table[small.add(a, b)] == big.add(table[a], table[b])
        assert table[small.mul(a, b)] == big.mul(table[a], table[b])
    assert table[small.one] == big.one


@pytest.mark.parametrize("p, k, big_k, modulus", [
    (3, 2, 4, None), (3, 2, 6, None), (3, 2, 6, [2, 1, 1]), (5, 2, 4, None), (3, 3, 6, None),
])
def test_embedding_takes_the_smallest_root(p, k, big_k, modulus):
    # the root of the small modulus is the least packed one over all of
    # F_{p^K}, as a full scan finds it
    small = build_extension(p, k) if modulus is None else ExtensionField(p, k, modulus)
    big = build_extension(p, big_k)
    root = next(e for e in range(big.q)
                if eval_list(small.modulus, e, big) == 0)
    x = small.from_coeffs([0, 1])
    assert embedding(small, big)[x] == root


def test_embedding_degree_mismatch():
    with pytest.raises(UnsupportedFieldError):
        embedding(build_extension(3, 2), build_extension(3, 3))


def test_build_extension_deterministic_and_cached():
    f1 = build_extension(11, 2)
    f2 = build_extension(11, 2)
    assert f1 is f2
    assert f1.modulus == build_extension(11, 2, 0).modulus


@pytest.mark.parametrize("p, k", [(5, 1), (5, 2), (3, 3)])
def test_one_field_per_p_and_k(p, k):
    # the ignored third argument must not build the field a second time
    field = build_extension(p, k)
    assert build_extension(p, k, 0) is field
    assert build_extension(p, k=k) is field


def test_field_equality_is_type_p_and_modulus():
    assert QQ == RationalField()
    assert PrimeField(5) == build_extension(5)
    assert hash(PrimeField(5)) == hash(build_extension(5))
    assert PrimeField(5) != PrimeField(7)
    assert PrimeField(5) != ExtensionField(5, 2)
    # one (p, k), two moduli: x^2 + 1 and x^2 + x + 2
    assert build_extension(3, 2) != ExtensionField(3, 2, modulus=[2, 1, 1])
    assert QQ != build_extension(5)


def test_rationals_stay_exact_on_int_arguments():
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.div(1, 3) == Fraction(1, 3) and type(QQ.div(1, 3)) is Fraction
    p = UniPoly(QQ, [1, 0, 3])
    monic = p.scale(QQ.inv(p.coeffs[-1]))
    assert monic.coeffs == (Fraction(1, 3), 0, 1)
    assert all(type(c) is Fraction for c in monic.coeffs)


# (p, k, modulus, first exp-table entries): the modulus is part of every report
# over an extension field, and both it and the generator come out of
# deterministic searches that must not drift.
FIELD_PINS = [
    (3, 2, [1, 0, 1], [1, 4, 6, 7, 2, 8]),
    (3, 3, [1, 2, 0, 1], [1, 3, 9, 5, 15, 23]),
    (3, 4, [2, 1, 0, 0, 1], [1, 3, 9, 27, 7, 21]),
    (3, 5, [1, 2, 0, 0, 0, 1], [1, 3, 9, 27, 81, 5]),
    (3, 6, [2, 1, 0, 0, 0, 0, 1], [1, 3, 9, 27, 81, 243]),
    (3, 7, [2, 0, 1, 0, 0, 0, 0, 1], [1, 5, 13, 29, 142, 377]),
    (3, 8, [2, 0, 1, 0, 0, 0, 0, 0, 1], [1, 38, 1333, 788, 1307, 526]),
    (3, 9, [1, 0, 1, 2, 0, 0, 0, 0, 0, 1], [1, 3, 9, 27, 81, 243]),
    (5, 2, [2, 0, 1], [1, 6, 14, 5, 8, 21]),
    (5, 3, [1, 1, 0, 1], [1, 9, 41, 63, 20, 105]),
    (5, 4, [2, 0, 0, 0, 1], [1, 6, 36, 216, 549, 16]),
    (5, 5, [1, 4, 0, 0, 0, 1], [1, 10, 100, 375, 625, 13]),
    (7, 2, [1, 0, 1], [1, 9, 31, 30, 21, 46]),
    (7, 3, [2, 0, 0, 1], [1, 22, 141, 311, 275, 168]),
    (7, 4, [1, 1, 0, 0, 1], [1, 12, 74, 433, 2220, 1903]),
    (7, 5, [3, 1, 0, 0, 0, 1], [1, 9, 81, 673, 2921, 9080]),
    (23, 2, [1, 0, 1], [1, 25, 95, 255, 39, 422]),
    (23, 3, [3, 1, 0, 1], [1, 23, 529, 526, 12098, 10606]),
    (31, 2, [1, 0, 1], [1, 35, 263, 517, 719, 156]),
    (31, 3, [3, 0, 0, 1], [1, 34, 1156, 9510, 22489, 18852]),
]


@pytest.mark.parametrize("p, k, modulus, exp_head", FIELD_PINS,
                         ids=[f"{p}^{k}" for p, k, _, _ in FIELD_PINS])
def test_modulus_and_generator_are_pinned(p, k, modulus, exp_head):
    field = build_extension(p, k)
    assert list(field.modulus) == modulus
    assert field._exp[:len(exp_head)] == exp_head


# every pinned field; F_{3^10} (q - 1 = 59048), whose last block is partial
EXP_WALK_FIELDS = [(p, k) for p, k, _, _ in FIELD_PINS] + [(3, 10)]


@pytest.mark.parametrize("p, k", EXP_WALK_FIELDS, ids=[f"{p}^{k}" for p, k in EXP_WALK_FIELDS])
def test_exp_table_matches_the_sequential_walk(p, k):
    field = build_extension(p, k)
    if (p, k) == (3, 10):
        assert field.q - 1 > _EXP_BLOCK and (field.q - 1) % _EXP_BLOCK
    assert field.log_tables[0] == sequential_exp(field)
