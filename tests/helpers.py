"""Shared generators and brute-force oracles for the test suite.

The oracles here enumerate naively (all points, all tuples) and never share
code with the implementations they check.
"""

from prymsplit import BinaryForm, TernaryForm, TernaryQuadratic, UniPoly


def random_unipoly(field, rng, max_degree):
    return UniPoly(field, [field.random_element(rng) for _ in range(max_degree + 1)])


def random_binary_form(field, rng, degree):
    return BinaryForm(field, degree, [field.random_element(rng) for _ in range(degree + 1)])


def random_ternary_form(field, rng, degree):
    coeffs = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            coeffs[(i, j, degree - i - j)] = field.random_element(rng)
    return TernaryForm(field, degree, coeffs)


def random_even_quartic(field, rng):
    """A random quartic with no odd powers of the second variable."""
    coeffs = {}
    for j in (0, 2, 4):
        for i in range(5 - j):
            coeffs[(i, j, 4 - i - j)] = field.random_element(rng)
    return TernaryForm(field, 4, coeffs)


def random_quadratic(field, rng):
    return TernaryQuadratic.from_coefficients(
        field, *(field.random_element(rng) for _ in range(6))
    )


def brute_plane_points(form, field):
    """All P^2 points of a plane curve, chart by chart."""
    n = 0
    for x in range(field.q):
        for y in range(field.q):
            if form.eval(x, y, field.one) == field.zero:
                n += 1
    for x in range(field.q):
        if form.eval(x, field.one, field.zero) == field.zero:
            n += 1
    if form.eval(field.one, field.zero, field.zero) == field.zero:
        n += 1
    return n


def brute_weighted_points(poly, genus, field):
    """Points of y^2 = F~ in P(1, g+1, 1) by orbit counting on (x, z) != 0."""
    d = 2 * genus + 2
    total = 0
    for x in range(field.q):
        for z in range(field.q):
            if x == 0 and z == 0:
                continue
            acc = field.zero
            for i, c in enumerate(poly.coeffs):
                term = field.mul(c, field.mul(field.pow(x, i), field.pow(z, d - i)))
                acc = field.add(acc, term)
            for y in range(field.q):
                if field.mul(y, y) == acc:
                    total += 1
    assert total % (field.q - 1) == 0
    return total // (field.q - 1)


def brute_cover_points(q1, q2, q3, field):
    """All P^4 points on q1 = u^2, q2 = uv, q3 = v^2 by direct enumeration."""

    def tuples(k):
        if k == 0:
            yield ()
            return
        for t in tuples(k - 1):
            for a in range(field.q):
                yield t + (a,)

    n = 0
    for lead in range(5):
        for rest in tuples(4 - lead):
            pt = [field.zero] * lead + [field.one] + list(rest)
            x, y, z, u, v = pt
            if (
                q1.eval(x, y, z) == field.mul(u, u)
                and q2.eval(x, y, z) == field.mul(u, v)
                and q3.eval(x, y, z) == field.mul(v, v)
            ):
                n += 1
    return n
