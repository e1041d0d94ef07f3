"""Shared generators, brute-force oracles and a field-size tripwire for the
test suite.

The oracles here enumerate naively (all points, all tuples) and never share
code with the implementations they check.
"""

from collections import Counter

from prymsplit import (
    BiellipticQuartic,
    BinaryForm,
    TernaryForm,
    UniPoly,
    quadric,
    quadric_coefficients,
)
from prymsplit.fields import ExtensionField, embedding
from prymsplit.zeta import DEFAULT_AXIS_CAP

# the least strong pseudoprimes to the first 12 and the first 13 prime bases
PSI12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI13 = 3317044064679887385961981


def field_tripwire(monkeypatch, limit=DEFAULT_AXIS_CAP):
    """Record the size q of every extension field whose tables get built, and
    raise AssertionError, before its tables are allocated, on a q above limit."""
    sizes = []
    real = ExtensionField._build_log_tables

    def tripwire(self):
        sizes.append(self.q)
        if self.q > limit:
            raise AssertionError(f"a field of size {self.q} above {limit} was built")
        return real(self)

    monkeypatch.setattr(ExtensionField, "_build_log_tables", tripwire)
    return sizes


def digit_mul(field, a, b):
    """a * b in a finite field by schoolbook digit arithmetic mod its monic
    modulus, reading none of the field's tables."""
    k, mod = field.k, field.modulus
    if k == 1:
        return a * b % field.p
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(field.coeffs(a)):
        for j, y in enumerate(field.coeffs(b)):
            prod[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):  # x^k = -(mod[0] + ... + mod[k-1] x^(k-1))
        for j in range(k):
            prod[d - k + j] -= prod[d] * mod[j]
    return field.from_coeffs(prod[:k])  # reduces each digit mod p


def digit_pow(field, a, e):
    """a^e, e >= 0, by square-and-multiply on digit_mul."""
    acc = field.one
    while e:
        if e & 1:
            acc = digit_mul(field, acc, a)
        a = digit_mul(field, a, a)
        e >>= 1
    return acc


def sequential_exp(field):
    """The exp table of an extension field by the per-element walk: g^i for
    i < q - 1, one digit product per step, g from the field's own generator
    search."""
    g = field.from_coeffs(field._find_generator(list(field.modulus)))
    exp = [field.one]
    for _ in range(field.q - 1):
        exp.append(digit_mul(field, exp[-1], g))
    assert exp.pop() == field.one, "g^(q-1) != 1"
    return exp


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


def bielliptic(field, f, g, h):
    """y^4 - h y^2 + f g from coefficient triples ordered (x^2, xz, z^2)."""
    return BiellipticQuartic(field, *(BinaryForm(field, 2, c) for c in (f, g, h)))


def random_quadratic(field, rng):
    return quadric(field, *(field.random_element(rng) for _ in range(6)))


def random_linear(field, rng):
    return tuple(field.random_element(rng) for _ in range(3))


def quadratic(field, *terms):
    """sum of s * L * M over (s, L, M), L and M linear forms (x, y, z)-coefficients."""
    cs = [field.zero] * 6  # (x^2, y^2, z^2, xy, xz, yz)
    add, mul = field.add, field.mul
    for s, lin, mon in terms:
        (l0, l1, l2), (m0, m1, m2) = lin, mon
        for i, v in enumerate((mul(l0, m0), mul(l1, m1), mul(l2, m2),
                               add(mul(l0, m1), mul(l1, m0)), add(mul(l0, m2), mul(l2, m0)),
                               add(mul(l1, m2), mul(l2, m1)))):
            cs[i] = add(cs[i], mul(s, v))
    return quadric(field, *cs)


def line_inside_the_base(field, rng, c, s):
    """A quadric triple whose base quartic contains the line x = c z, so that
    R_c = v2^2 - v1 v3 vanishes identically on the row x = c: on that line the
    triple is s (A^2, AB, B^2) for two linear forms A, B in (y, z)."""
    one, zero = field.one, field.zero
    line = (one, zero, field.neg(c))  # x - c z
    a, b = (zero, one, field.random_element(rng)), (zero, one, field.random_element(rng))
    return [quadratic(field, (s, u, v), (one, line, random_linear(field, rng)))
            for u, v in ((a, a), (a, b), (b, b))]


def lift(form, small, big):
    """The same form with its coefficients embedded in the larger field."""
    table = embedding(small, big)
    return TernaryForm(big, form.degree, {m: table[c] for m, c in form.coeffs.items()})


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


def brute_curve_points(curve, field):
    """All P^2 points of a bielliptic quartic over field, a field its own
    field embeds in, by brute_plane_points on its plane quartic."""
    form = curve.plane_quartic()
    if curve.field != field:
        form = lift(form, curve.field, field)
    return brute_plane_points(form, field)


def brute_weighted_points(poly, genus, field):
    """Points of y^2 = F~ in P(1, g+1, 1) by orbit counting on (x, z) != 0."""
    d = 2 * genus + 2
    squares = Counter(field.mul(y, y) for y in range(field.q))  # value -> #y with y^2 = value
    total = 0
    for x in range(field.q):
        for z in range(field.q):
            if x == 0 and z == 0:
                continue
            acc = field.zero
            for i, c in enumerate(poly.coeffs):
                term = field.mul(c, field.mul(field.pow(x, i), field.pow(z, d - i)))
                acc = field.add(acc, term)
            total += squares[acc]
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


def scan_cover_counts(q1, q2, q3, field):
    """(base, cover) counts for q2^2 = q1 q3 and its double cover, by scanning
    every point of P^2 row by row: a point with q2^2 = q1 q3 carries
    1 + chi(q1), or 1 + chi(q3) where q1 = 0, or 1 where all three vanish.

    The forms may live in a subfield of `field`; their coefficients are
    embedded first.
    """
    quads = []
    for quad in (q1, q2, q3):
        coeffs = quadric_coefficients(quad)
        if quad.field != field:
            table = embedding(quad.field, field)
            coeffs = [table[c] for c in coeffs]
        quads.append(quadric(field, *coeffs))
    zero, one = field.zero, field.one
    points = [(x, y, one) for x in range(field.q) for y in range(field.q)]
    points += [(x, one, zero) for x in range(field.q)] + [(one, zero, zero)]
    base = cover = 0
    for pt in points:
        v1, v2, v3 = (quad.eval(*pt) for quad in quads)
        if field.mul(v2, v2) != field.mul(v1, v3):
            continue
        base += 1
        if v1 != zero:
            cover += 1 + field.euler_character(v1)
        elif v3 != zero:
            cover += 1 + field.euler_character(v3)
        else:
            cover += 1
    return base, cover
