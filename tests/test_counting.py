import random

import pytest

from prymsplit import (
    DegenerateInputError,
    ModelError,
    QQ,
    TernaryForm,
    UniPoly,
    UnsupportedFieldError,
    build_extension,
    count_bruin_cover,
    count_plane_quartic,
    count_weighted,
    random_validated_curve,
    quadric,
    quadric_coefficients,
    singular_model,
)
from prymsplit.counting import CountRecord, _frobenius_orbits, _low_degree_roots
from prymsplit.fields import embedding
from helpers import (
    brute_cover_points,
    brute_plane_points,
    brute_weighted_points,
    lift,
    random_even_quartic,
    random_quadratic,
    random_ternary_form,
    scan_cover_counts,
)

F3 = build_extension(3)
F5 = build_extension(5)
F7 = build_extension(7)
F9 = build_extension(3, 2)


def fermat(field):
    return TernaryForm.from_ints(field, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})


def quartic(field, coeffs):
    """The quartic sum c x^i y^j z^k over {(i, j): c}, k = 4 - i - j."""
    return TernaryForm.from_ints(field, 4, {(i, j, 4 - i - j): c for (i, j), c in coeffs.items()})


# Quartics whose rows in y degenerate, keyed by what the degeneracy is.  The
# rows of the chart z = 1 are the coefficients of y^0..y^4 as polynomials in x.
DEGENERATE_SHAPES = {
    # odd powers of y present (the gcd path)
    "no-y4": lambda F: quartic(F, {(0, 3): 1, (1, 2): 2, (2, 1): 1, (3, 0): 1, (0, 0): 3}),
    "no-y3-row": lambda F: quartic(F, {(0, 4): 2, (2, 1): 1, (1, 1): 1, (4, 0): 1, (0, 0): 1}),
    # x (y^3 + x y z + y z^2 + z^3): every row vanishes at x = 0
    "row-vanishes": lambda F: quartic(F, {(1, 3): 1, (2, 1): 1, (1, 1): 1, (1, 0): 1}),
    # even in y (the character path): a w^2 + b w + c with w = y^2
    "even-quadratic-in-w": lambda F: quartic(F, {(0, 4): 3, (2, 2): 1, (0, 2): 1,
                                                 (4, 0): 1, (0, 0): 2}),
    "even-linear-in-w": lambda F: quartic(F, {(2, 2): 1, (1, 2): 1, (4, 0): 1, (0, 0): 1}),
    # (x^2 - 1) y^2 + (x^4 - 1): b and c share the roots x = 1 and x = -1
    "even-linear-in-w-vanishing-row": lambda F: quartic(F, {(2, 2): 1, (0, 2): -1,
                                                            (4, 0): 1, (0, 0): -1}),
}


class TestPlaneQuartic:
    def test_fermat_f5_empty(self):
        # fourth powers mod 5 lie in {0, 1}; no nonzero triple sums to 0
        assert count_plane_quartic(fermat(F5), F5).n == 0

    def test_fermat_f7_brute_force(self):
        rec = count_plane_quartic(fermat(F7), F7)
        assert rec.n == brute_plane_points(fermat(F7), F7)

    def test_even_characteristic_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            count_plane_quartic(fermat(F5), QQ)

    def test_cube_of_p29_within_default_caps(self):
        # 29^3 = 24389, the largest counting field, fits the default axis cap
        from prymsplit import verify_split

        curve = random_validated_curve(build_extension(29), random.Random(29))
        result = verify_split(curve)
        assert result.passed
        assert [r.field_size for r in result.counts[:3]] == [29, 29**2, 29**3]

    @pytest.mark.parametrize("trial", range(12))
    def test_algorithms_agree_with_brute_force(self, trial):
        rng = random.Random(trial)
        field = rng.choice([F3, F5, F7, F9])
        form = random_ternary_form(field, rng, 4)
        if form.is_zero():
            return
        assert count_plane_quartic(form, field).n == brute_plane_points(form, field)

    @pytest.mark.parametrize("trial", range(12))
    def test_even_kernel_agrees(self, trial):
        rng = random.Random(100 + trial)
        field = rng.choice([F5, F7, F9])
        form = random_even_quartic(field, rng)
        if form.is_zero():
            return
        assert count_plane_quartic(form, field).n == brute_plane_points(form, field)

    @pytest.mark.parametrize("field", [F5, F7, F9], ids=["F5", "F7", "F9"])
    @pytest.mark.parametrize("shape", sorted(DEGENERATE_SHAPES))
    def test_degenerate_rows_agree_with_brute_force(self, field, shape):
        form = DEGENERATE_SHAPES[shape](field)
        assert count_plane_quartic(form, field).n == brute_plane_points(form, field)

    def test_chart_consistency_under_permutation(self):
        rng = random.Random(9)
        for _ in range(8):
            form = random_ternary_form(F7, rng, 4)
            if form.is_zero():
                continue
            rotated = TernaryForm(F7, 4, {(j, k, i): c for (i, j, k), c in form.coeffs.items()})
            swapped = TernaryForm(F7, 4, {(k, j, i): c for (i, j, k), c in form.coeffs.items()})
            n = count_plane_quartic(form, F7).n
            assert count_plane_quartic(rotated, F7).n == n
            assert count_plane_quartic(swapped, F7).n == n

    def test_extension_count_of_prime_field_curve(self):
        rng = random.Random(10)
        curve = random_validated_curve(F5, rng)
        form = curve.plane_quartic()
        f25 = build_extension(5, 2)
        rec = count_plane_quartic(form, f25)
        assert rec.q == 5 and rec.m == 2
        assert rec.n == brute_plane_points(
            TernaryForm(f25, 4, dict(form.coeffs)), f25
        )

    def test_determinism(self):
        rec1 = count_plane_quartic(fermat(F7), F7)
        rec2 = count_plane_quartic(fermat(F7), F7)
        assert rec1 == rec2  # seconds excluded from equality


class TestWeighted:
    def test_genus1_cubic_f5(self):
        # y^2 = x^3 + x over F_5: affine (0,0), (2,0), (3,0) plus infinity
        rec = count_weighted(UniPoly.from_ints(F5, [0, 1, 0, 1]), 1, F5)
        assert rec.n == 4

    def test_constant_formula_only(self):
        rec = count_weighted(UniPoly.from_ints(F5, [1]), 1, F5)
        # every x gives 1 + chi(1) = 2; top coefficient 0 adds one point
        assert rec.n == 2 * 5 + 1

    def test_genus2_weil_bound(self):
        rng = random.Random(11)
        for _ in range(10):
            curve = random_validated_curve(F7, rng)
            from prymsplit import split

            sextic = split(curve, skip_validation=True).sextic
            rec = count_weighted(sextic, 2, F7)
            assert rec.weil_ok(2)

    @pytest.mark.parametrize("genus", [1, 2])
    def test_matches_weighted_projective_enumeration(self, genus):
        rng = random.Random(12 + genus)
        for _ in range(8):
            field = rng.choice([F5, F7])
            coeffs = [field.random_element(rng) for _ in range(2 * genus + 3)]
            poly = UniPoly(field, coeffs)
            if poly.is_zero():
                continue
            assert count_weighted(poly, genus, field).n == brute_weighted_points(
                poly, genus, field
            )

    def test_degree_cap(self):
        from prymsplit.errors import ModelError

        with pytest.raises(ModelError):
            count_weighted(UniPoly.from_ints(F5, [0, 1, 0, 0, 0, 1]), 1, F5)

    def test_genus1_weil_bound_on_validated_branch_quartics(self):
        rng = random.Random(13)
        for field in (F5, F7):
            for _ in range(10):
                curve = random_validated_curve(field, rng)
                s = curve.branch_quartic().dehomogenize()
                rec = count_weighted(s, 1, field)
                assert rec.weil_ok(1)


class TestBruinCover:
    def test_all_zero_rejected(self):
        z = TernaryForm.zero_form(F5, 2)
        with pytest.raises(DegenerateInputError):
            count_bruin_cover(z, z, z, F5)

    def test_non_quadric_rejected(self):
        q = random_quadratic(F5, random.Random(15))
        quartic = q * q
        with pytest.raises(ModelError):
            count_bruin_cover(q, quartic, q, F5)

    @pytest.mark.parametrize("field", [F3, F5, F9], ids=["F3", "F5", "F9"])
    def test_fiber_table_against_p4_enumeration(self, field):
        rng = random.Random(field.q)
        for _ in range(5):
            quads = [random_quadratic(field, rng) for _ in range(3)]
            if all(q.is_zero() for q in quads):
                continue
            rec_z, rec_y = count_bruin_cover(*quads, field)
            assert rec_y.n == brute_cover_points(*quads, field)

    def test_base_count_matches_plane_quartic(self):
        from prymsplit import cover_quartic

        rng = random.Random(14)
        for _ in range(6):
            quads = [random_quadratic(F5, rng) for _ in range(3)]
            quartic = cover_quartic(*quads)
            if quartic.is_zero():
                continue
            rec_z, _ = count_bruin_cover(*quads, F5)
            assert rec_z.n == count_plane_quartic(quartic, F5).n

    def test_singular_model_bookkeeping(self):
        # cover points = plane-model points minus rational roots of f*g plus
        # the two nodes
        rng = random.Random(15)
        for field in (F5, F7):
            for _ in range(8):
                curve = random_validated_curve(field, rng)
                model = singular_model(curve)
                _, rec_y = count_bruin_cover(*model, field)
                n_plane = count_plane_quartic(curve.plane_quartic(), field).n
                fg = curve.fg()
                roots = sum(1 for x in field.elements() if fg.eval(x, field.one) == 0)
                roots += 1 if fg.coeffs[0] == field.zero else 0  # the point (1:0)
                assert rec_y.n == n_plane - roots + 2

    def test_fiber_size_one_exactly_at_nodes(self):
        # for the singular model the quadric triple vanishes exactly at the
        # two nodes (0:0:1) and (1:0:0)
        rng = random.Random(16)
        curve = random_validated_curve(F7, rng)
        model = singular_model(curve)
        common = []
        pts = [(x, y, 1) for x in range(7) for y in range(7)]
        pts += [(x, 1, 0) for x in range(7)] + [(1, 0, 0)]
        for pt in pts:
            if all(q.eval(*pt) == 0 for q in model):
                common.append(pt)
        assert sorted(common) == [(0, 0, 1), (1, 0, 0)]

    def test_smooth_fiber_has_no_size_one_fibers(self):
        from prymsplit import deform

        rng = random.Random(17)
        while True:
            curve = random_validated_curve(F5, rng)
            cover = deform(curve, F5.random_nonzero(rng))
            if cover.verifiable:
                break
        pts = [(x, y, 1) for x in range(5) for y in range(5)]
        pts += [(x, 1, 0) for x in range(5)] + [(1, 0, 0)]
        for pt in pts:
            values = [q.eval(*pt) for q in cover.triple()]
            on_z = F5.sub(F5.mul(values[1], values[1]), F5.mul(values[0], values[2])) == 0
            if on_z:
                assert any(v != 0 for v in values)

    def test_genus5_weil_bound_on_smooth_fiber(self):
        from prymsplit import deform

        rng = random.Random(18)
        while True:
            curve = random_validated_curve(F5, rng)
            cover = deform(curve, F5.random_nonzero(rng))
            if cover.verifiable:
                break
        _, rec_y = count_bruin_cover(*cover.triple(), F5)
        assert rec_y.weil_ok(5)


class TestFrobeniusOrbits:
    """Curves over a subfield, counted one row per orbit of x -> x^r."""

    PAIRS = [(3, 1, 2), (5, 1, 2), (3, 1, 3), (5, 1, 3), (3, 2, 4)]  # (p, k, K)

    @pytest.mark.parametrize("p, k, big_k", PAIRS, ids=lambda v: str(v))
    def test_orbits_partition_the_field(self, p, k, big_k):
        small, big = build_extension(p, k), build_extension(p, big_k)
        exp, r, qm1 = big.log_tables[0], small.q, big.q - 1
        orbits = _frobenius_orbits(small, big)
        assert orbits[0] == (-1, 1)  # zero is its own orbit, first
        assert sum(size for _, size in orbits) == big.q
        # the element orbits, rebuilt through field powers x -> x^r
        expected = set()
        for x in range(big.q):
            orbit, y = {x}, big.pow(x, r)
            while y != x:
                orbit.add(y)
                y = big.pow(y, r)
            expected.add(frozenset(orbit))
        # each log orbit {exp[j r^i]} is a whole element orbit of its stated size
        walked = [frozenset(exp[j * r**i % qm1] for i in range(big.k // small.k))
                  if j >= 0 else frozenset({0}) for j, _ in orbits]
        assert [len(orbit) for orbit in walked] == [size for _, size in orbits]
        assert len(set(walked)) == len(walked)  # no two representatives are conjugate
        assert set(walked) == expected
        assert _frobenius_orbits(small, big) is orbits  # cached per (field, r)

    def test_identity_walk_over_own_field(self):
        orbits = _frobenius_orbits(F7, F7)
        assert orbits == ((-1, 1),) + tuple((j, 1) for j in range(6))
        exp = F7.log_tables[0]
        assert {exp[j] if j >= 0 else 0 for j, _ in orbits} == set(range(7))
        assert _frobenius_orbits(F7, F7) is orbits

    @pytest.mark.parametrize("p, k, big_k", PAIRS, ids=lambda v: str(v))
    def test_plane_algorithms_agree_with_brute_force(self, p, k, big_k):
        small, big = build_extension(p, k), build_extension(p, big_k)
        rng = random.Random(p * 100 + big_k)
        form = random_ternary_form(small, rng, 4)
        even = random_even_quartic(small, rng)
        expected = brute_plane_points(lift(form, small, big), big)
        expected_even = brute_plane_points(lift(even, small, big), big)
        assert count_plane_quartic(form, big).n == expected
        rec = count_plane_quartic(even, big)
        assert rec.n == expected_even
        assert rec.rows == len(_frobenius_orbits(small, big)) < big.q

    @pytest.mark.parametrize("p, k, big_k", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (3, 2, 4)],
                             ids=lambda v: str(v))
    def test_weighted_agrees_with_brute_force(self, p, k, big_k):
        small, big = build_extension(p, k), build_extension(p, big_k)
        table = embedding(small, big)
        rng = random.Random(p * 10 + big_k)
        for genus in (1, 2):
            poly = UniPoly(small, [small.random_element(rng) for _ in range(2 * genus + 3)])
            lifted = UniPoly(big, [table[c] for c in poly.coeffs])
            assert count_weighted(poly, genus, big).n == brute_weighted_points(
                lifted, genus, big
            )

    @pytest.mark.parametrize("p, trials", [(3, 4), (5, 1)], ids=["F9", "F25"])
    def test_cover_agrees_with_brute_force(self, p, trials):
        small, big = build_extension(p), build_extension(p, 2)
        rng = random.Random(p)
        for _ in range(trials):
            quads = [random_quadratic(small, rng) for _ in range(3)]
            lifted = [quadric(big, *quadric_coefficients(q)) for q in quads]
            rec_z, rec_y = count_bruin_cover(*quads, big)
            assert rec_y.n == brute_cover_points(*lifted, big)
            assert rec_z.n == count_bruin_cover(*lifted, big)[0].n
            assert rec_y.rows == len(_frobenius_orbits(small, big))


def even_quartic(field, a4, b_row, c_row):
    """a4 y^4 + b(x, z) y^2 + c(x, z): in the chart z = 1 every row is
    a4 w^2 + b(x) w + c(x) with w = y^2, b = sum b_i x^i, c = sum c_i x^i."""
    coeffs = {(0, 4, 0): a4}
    coeffs.update({(i, 2, 2 - i): v for i, v in enumerate(b_row)})
    coeffs.update({(i, 0, 4 - i): v for i, v in enumerate(c_row)})
    return TernaryForm(field, 4, coeffs)


def _random_row(field, rng, length):
    return [field.random_element(rng) for _ in range(length)]


def _discriminant_vanishing_at(field, rng, roots):
    """Rows with b^2 - 4 a4 c = s * prod (x - u) over u in roots."""
    a4, s = field.random_nonzero(rng), field.random_nonzero(rng)
    b = _random_row(field, rng, 3)
    d = [s]
    for u in roots:  # d <- d * (x - u)
        d = [field.sub(lo, field.mul(u, hi)) for lo, hi in zip(d + [0], [0] + d)]
    b_sq = [field.zero] * 5
    for i, bi in enumerate(b):
        for j, bj in enumerate(b):
            b_sq[i + j] = field.add(b_sq[i + j], field.mul(bi, bj))
    four_a = field.mul(field.from_int(4), a4)
    c = [field.div(field.sub(v, d[i] if i < len(d) else 0), four_a) for i, v in enumerate(b_sq)]
    return even_quartic(field, a4, b, c)


# Even quartics whose rows hit every branch of the log-domain row solver.
EVEN_SHAPES = {
    "random": lambda F, rng: even_quartic(F, F.random_element(rng), _random_row(F, rng, 3),
                                          _random_row(F, rng, 5)),
    "a4-zero": lambda F, rng: even_quartic(F, 0, _random_row(F, rng, 3), _random_row(F, rng, 5)),
    "b2-zero": lambda F, rng: even_quartic(F, F.random_nonzero(rng), [0, 0, 0],
                                           _random_row(F, rng, 5)),
    # a4 (w - r(x))^2: a double root w = r(x) on every row
    "disc-zero-everywhere": lambda F, rng: _discriminant_vanishing_at(F, rng, []),
    "disc-zero-on-two-rows": lambda F, rng: _discriminant_vanishing_at(
        F, rng, [F.random_nonzero(rng), F.random_element(rng)]),
    "c0-zero-at-origin": lambda F, rng: even_quartic(F, F.random_nonzero(rng),
                                                     _random_row(F, rng, 3),
                                                     [0] + _random_row(F, rng, 4)),
    "a4-nonsquare": lambda F, rng: even_quartic(
        F, next(a for a in range(1, F.q) if F.chi(F.mul(2 % F.p, a)) < 0),
        _random_row(F, rng, 3), _random_row(F, rng, 5)),
}


class TestLogDomainKernels:
    """The even plane rows and count_weighted, computed on discrete logs,
    against brute-force enumeration over prime and extension fields."""

    FIELDS = [(23, 1), (5, 2), (3, 3), (7, 2)]

    @pytest.mark.parametrize("p, k", FIELDS, ids=lambda v: str(v))
    @pytest.mark.parametrize("shape", sorted(EVEN_SHAPES))
    def test_even_rows_agree_with_brute_force(self, p, k, shape):
        field = build_extension(p, k)
        rng = random.Random(f"{shape}-{p}-{k}")
        for _ in range(2):
            form = EVEN_SHAPES[shape](field, rng)
            assert count_plane_quartic(form, field).n == brute_plane_points(form, field)

    @pytest.mark.parametrize("shape", ["random", "disc-zero-on-two-rows"])
    def test_even_rows_over_f243(self, shape):
        field = build_extension(3, 5)
        form = EVEN_SHAPES[shape](field, random.Random(shape))
        assert count_plane_quartic(form, field).n == brute_plane_points(form, field)

    @pytest.mark.parametrize("shape", sorted(EVEN_SHAPES))
    def test_prime_field_curve_over_cubic_extension(self, shape):
        small, big = F3, build_extension(3, 3)
        rng = random.Random(shape)
        for _ in range(3):
            form = EVEN_SHAPES[shape](small, rng)
            expected = brute_plane_points(lift(form, small, big), big)
            assert count_plane_quartic(form, big).n == expected

    @pytest.mark.parametrize("p, k", FIELDS + [(3, 5)], ids=lambda v: str(v))
    def test_weighted_agrees_with_brute_force(self, p, k):
        field = build_extension(p, k)
        rng = random.Random(p ** k)
        ns = next(a for a in range(1, field.q) if field.chi(a) < 0)
        for genus in (1, 2) if field.q < 100 else (2,):
            d = 2 * genus + 2
            coeffs = _random_row(field, rng, d + 1)
            polys = [
                coeffs,
                [0] + coeffs[1:],  # F(0) = 0
                coeffs[:d],  # degree below 2g + 2: the top coefficient is zero
                coeffs[:d] + [ns],  # nonsquare top coefficient
            ]
            for cs in polys:
                poly = UniPoly(field, cs)
                assert count_weighted(poly, genus, field).n == brute_weighted_points(
                    poly, genus, field
                )

    @pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (5, 2)], ids=lambda v: str(v))
    def test_low_degree_roots_exhaustive(self, p, k):
        field = build_extension(p, k)
        for a in range(field.q):
            for b in range(field.q):
                for c in range(field.q):
                    f = [c, b, a]
                    while f and f[-1] == 0:
                        f.pop()
                    if not f:
                        continue
                    expected = {w for w in range(field.q)
                                if field.add(field.mul(field.add(field.mul(a, w), b), w), c) == 0}
                    roots = _low_degree_roots(f, field)
                    assert len(roots) == len(expected) and set(roots) == expected


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


def random_linear(field, rng):
    return tuple(field.random_element(rng) for _ in range(3))


def nonsquare(field):
    return next(a for a in range(1, field.q) if field.chi(a) < 0)


class TestCoverRootFinding:
    """count_bruin_cover (roots of R_x per row) against the whole-plane scan."""

    FIELDS = [(3, 3, 3), (7, 2, 2), (3, 4, 2), (5, 3, 1), (3, 5, 1)]  # (p, k, triples)

    def check(self, quads, field):
        rec_z, rec_y = count_bruin_cover(*quads, field)
        assert (rec_z.n, rec_y.n) == scan_cover_counts(*quads, field)

    @pytest.mark.parametrize("p, k, trials", FIELDS, ids=lambda v: str(v))
    def test_extension_field_triples(self, p, k, trials):
        field = build_extension(p, k)
        rng = random.Random(100 * p + k)
        for _ in range(trials):
            self.check([random_quadratic(field, rng) for _ in range(3)], field)

    @pytest.mark.parametrize("p, k, trials", FIELDS, ids=lambda v: str(v))
    def test_prime_field_triples_over_extensions(self, p, k, trials):
        small, field = build_extension(p), build_extension(p, k)
        rng = random.Random(200 * p + k)
        for _ in range(trials):
            self.check([random_quadratic(small, rng) for _ in range(3)], field)

    def test_subfield_triple_over_f81(self):
        small, field = build_extension(3, 2), build_extension(3, 4)
        rng = random.Random(81)
        for _ in range(2):
            self.check([random_quadratic(small, rng) for _ in range(3)], field)

    @pytest.mark.parametrize("p, k", [(7, 1), (5, 2), (3, 3)], ids=["F7", "F25", "F27"])
    def test_line_inside_the_base(self, p, k):
        # on x = c z the triple is s (A^2, AB, B^2), so R_c vanishes identically
        field = build_extension(p, k)
        rng = random.Random(300 + field.q)
        one, zero = field.one, field.zero
        for s in (one, nonsquare(field)):
            c = field.random_element(rng)
            line = (one, zero, field.neg(c))  # x - c z
            a, b = (zero, one, field.random_element(rng)), (zero, one, field.random_element(rng))
            quads = [quadratic(field, (s, a, a), (one, line, random_linear(field, rng))),
                     quadratic(field, (s, a, b), (one, line, random_linear(field, rng))),
                     quadratic(field, (s, b, b), (one, line, random_linear(field, rng)))]
            self.check(quads, field)

    @pytest.mark.parametrize("p, k", [(7, 1), (5, 2), (3, 3)], ids=["F7", "F25", "F27"])
    def test_rows_below_degree_four(self, p, k):
        # y^2-coefficients with b2^2 = b1 b3 (R_x of degree <= 3), or none at
        # all (degree <= 2, the quadratic formula on every row)
        field = build_extension(p, k)
        rng = random.Random(400 + field.q)
        for scale in (field.random_nonzero(rng), field.zero):
            t = field.random_element(rng)
            quads = []
            for b in (scale, field.mul(scale, t), field.mul(scale, field.mul(t, t))):
                cs = [field.random_element(rng) for _ in range(6)]
                cs[1] = b
                quads.append(quadric(field, *cs))
            self.check(quads, field)

    @pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (5, 2), (3, 3)],
                             ids=["F7", "F9", "F25", "F27"])
    def test_row_with_four_roots(self, p, k):
        # on x = 0: v1 = s and v2^2 - s v3 = (y - r1)(y - r2)(y - r3)(y - r4)
        field = build_extension(p, k)
        add, sub, mul, neg = field.add, field.sub, field.mul, field.neg
        rng = random.Random(500 + field.q)
        roots = rng.sample(range(field.q), 4)
        quartic = [field.one]  # constant first
        for r in roots:
            quartic = [add(lo, mul(neg(r), hi)) for lo, hi in zip([field.zero] + quartic,
                                                                  quartic + [field.zero])]
        e0, e1, e2, e3 = quartic[:4]
        alpha = field.div(e3, field.from_int(2))
        beta = field.random_element(rng)
        v2 = (beta, alpha, field.one)  # constant first in y
        v2sq = (mul(beta, beta), mul(field.from_int(2), mul(alpha, beta)),
                add(mul(alpha, alpha), mul(field.from_int(2), beta)))
        for s in (field.one, nonsquare(field)):
            v3 = [field.div(sub(u, e), s) for u, e in zip(v2sq, (e0, e1, e2))]
            x_terms = [random_linear(field, rng) for _ in range(3)]
            x = (field.one, field.zero, field.zero)
            quads = [
                quadratic(field, (s, (0, 0, 1), (0, 0, 1)), (field.one, x, x_terms[0])),
                quadratic(field, (field.one, (0, 1, 0), (0, 1, alpha)),
                          (beta, (0, 0, 1), (0, 0, 1)), (field.one, x, x_terms[1])),
                quadric(
                    field, *(add(a, b) for a, b in zip(
                        (field.zero, v3[2], v3[0], field.zero, field.zero, v3[1]),
                        quadric_coefficients(quadratic(field, (field.one, x, x_terms[2])))))),
            ]
            self.check(quads, field)

    @pytest.mark.parametrize("p, k", [(7, 1), (5, 2), (3, 3)], ids=["F7", "F25", "F27"])
    def test_roots_where_q1_vanishes(self, p, k):
        # q1 and q2 are multiples of y: every row has the root y = 0 with
        # v1 = v2 = 0, and its fiber is read off v3
        field = build_extension(p, k)
        rng = random.Random(600 + field.q)
        y = (field.zero, field.one, field.zero)
        for _ in range(3):
            quads = [quadratic(field, (field.one, y, random_linear(field, rng))),
                     quadratic(field, (field.one, y, random_linear(field, rng))),
                     random_quadratic(field, rng)]
            self.check(quads, field)

    @pytest.mark.parametrize("p, k", [(7, 1), (5, 2), (3, 3)], ids=["F7", "F25", "F27"])
    def test_roots_where_all_three_vanish(self, p, k):
        # no z^2 terms: all three forms vanish at (0:0:1), a fiber of size 1;
        # with a common factor y they also vanish along the line y = 0
        field = build_extension(p, k)
        rng = random.Random(700 + field.q)
        y = (field.zero, field.one, field.zero)
        quads = []
        for _ in range(3):
            cs = [field.random_element(rng) for _ in range(6)]
            cs[2] = field.zero
            quads.append(quadric(field, *cs))
        self.check(quads, field)
        self.check([quadratic(field, (field.one, y, random_linear(field, rng)))
                    for _ in range(3)], field)


def test_count_record_weil_is_exact_integer_arithmetic():
    rec = CountRecord("plane-quartic", 7, 1, 8, 0.0)
    assert rec.weil_ok(3)
    rec_bad = CountRecord("plane-quartic", 7, 1, 100, 0.0)
    assert not rec_bad.weil_ok(3)

