import itertools
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
from prymsplit.counting import (
    CountRecord,
    _LogPolys,
    _coerce_scalars,
    _frobenius_orbits,
    _log_sum,
    _log_values,
    _one_plus_chi,
    _orbit_row,
    _plane_rows,
    _row_count,
    _row_halves,
    _row_table,
)
from prymsplit.fields import embedding
from prymsplit.poly import divmod_list, eval_list, powmod_list
from helpers import (
    bielliptic,
    brute_cover_points,
    brute_curve_points,
    brute_plane_points,
    brute_weighted_points,
    line_inside_the_base,
    quadratic,
    random_linear,
    random_quadratic,
    scan_cover_counts,
)

F3 = build_extension(3)
F5 = build_extension(5)
F7 = build_extension(7)
F9 = build_extension(3, 2)


def fermat(field):
    """x^4 + y^4 + z^4 as y^4 - 0 y^2 + fg, with fg = x^4 + z^4 split over F_5 and F_7."""
    f, g = {5: ([1, 0, 2], [1, 0, 3]), 7: ([1, 3, 1], [1, 4, 1])}[field.q]
    return bielliptic(field, f, g, [0, 0, 0])


def _triple(field, rng):
    return [field.random_element(rng) for _ in range(3)]


def _value(t, u, field):
    """The binary quadratic with coefficients t = (x^2, xz, z^2) at (u : 1)."""
    return field.add(field.mul(field.add(field.mul(t[0], u), t[1]), u), t[2])


def _square_discriminant(field, rng):
    """f = s r, g = r / s, h = 2 r: every row is (w - r(x))^2, a double root."""
    r, s = _triple(field, rng), field.random_nonzero(rng)
    two = field.from_int(2)
    return ([field.mul(s, c) for c in r], [field.div(c, s) for c in r],
            [field.mul(two, c) for c in r])


def _discriminant_vanishing_on_two_rows(field, rng):
    """h^2 = 4 f g at x = u1 and x = u2: g interpolates h^2 / 4f there."""
    u1, u2 = rng.sample(range(field.q), 2)
    f = _triple(field, rng)
    while field.zero in (_value(f, u1, field), _value(f, u2, field)):
        f = _triple(field, rng)
    h, t, four = _triple(field, rng), field.random_element(rng), field.from_int(4)
    a1, a2 = (field.div(field.mul(_value(h, u, field), _value(h, u, field)),
                        field.mul(four, _value(f, u, field))) for u in (u1, u2))
    # g = a1 (x - u2)/(u1 - u2) + a2 (x - u1)/(u2 - u1) + t (x - u1)(x - u2)
    slope = field.div(field.sub(a1, a2), field.sub(u1, u2))
    g = [t, field.sub(slope, field.mul(t, field.add(u1, u2))),
         field.add(field.sub(a1, field.mul(slope, u1)), field.mul(t, field.mul(u1, u2)))]
    return f, g, h


def _discriminant_vanishing_at_both_ends(field, rng):
    """h^2 = 4 f g at x = 0 (the constant terms) and x = infinity (the top ones)."""
    f = _triple(field, rng)
    while field.zero in (f[0], f[2]):
        f = _triple(field, rng)
    h, g, four = _triple(field, rng), _triple(field, rng), field.from_int(4)
    g[0], g[2] = (field.div(field.mul(h[i], h[i]), field.mul(four, f[i])) for i in (0, 2))
    return f, g, h


# Bielliptic quartics y^4 - h y^2 + fg, keyed by how their rows degenerate.  A
# row over [x:z] is w^2 - h w + fg in w = y^2: x = 0 reads the constant terms
# of h and fg, and x = infinity their top terms, w^2 - h0 w + f0 g0.
SHAPES = {
    "random": lambda F, rng: (_triple(F, rng), _triple(F, rng), _triple(F, rng)),
    "h-zero": lambda F, rng: (_triple(F, rng), _triple(F, rng), [0, 0, 0]),
    "h0-zero": lambda F, rng: (_triple(F, rng), _triple(F, rng), [0] + _triple(F, rng)[1:]),
    # f0 g0 = 0: the row at infinity has the root w = 0
    "f0-zero": lambda F, rng: ([0] + _triple(F, rng)[1:], _triple(F, rng), _triple(F, rng)),
    # fg(0) = 0: the row x = 0 has the root w = 0
    "fg-zero-at-origin": lambda F, rng: (_triple(F, rng)[:2] + [0], _triple(F, rng),
                                         _triple(F, rng)),
    "f-is-xz": lambda F, rng: ([0, 1, 0], _triple(F, rng), _triple(F, rng)),
    "disc-zero-everywhere": _square_discriminant,
    "disc-zero-on-two-rows": _discriminant_vanishing_on_two_rows,
    "disc-zero-at-both-ends": _discriminant_vanishing_at_both_ends,
}
DEGENERATE_SHAPES = sorted(set(SHAPES) - {"random"})


def shaped_curve(shape, field, rng):
    """A bielliptic quartic of the given shape; draws again while f or g is zero."""
    while True:
        try:
            return bielliptic(field, *SHAPES[shape](field, rng))
        except DegenerateInputError:
            continue


class TestPlaneQuartic:
    def test_fermat_is_the_fermat_quartic(self):
        for field in (F5, F7):
            assert fermat(field).plane_quartic() == TernaryForm.from_ints(
                field, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})

    def test_fermat_f5_empty(self):
        # fourth powers mod 5 lie in {0, 1}; no nonzero triple sums to 0
        assert count_plane_quartic(fermat(F5), F5).n == 0

    def test_fermat_f7_brute_force(self):
        rec = count_plane_quartic(fermat(F7), F7)
        assert rec.n == brute_curve_points(fermat(F7), F7)

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
    def test_random_shapes_agree_with_brute_force(self, trial):
        rng = random.Random(trial)
        field = rng.choice([F3, F5, F7, F9])
        curve = shaped_curve(rng.choice(sorted(SHAPES)), field, rng)
        assert count_plane_quartic(curve, field).n == brute_curve_points(curve, field)

    @pytest.mark.parametrize("trial", range(12))
    def test_even_kernel_agrees(self, trial):
        rng = random.Random(100 + trial)
        field = rng.choice([F5, F7, F9])
        curve = shaped_curve("random", field, rng)
        assert count_plane_quartic(curve, field).n == brute_curve_points(curve, field)

    @pytest.mark.parametrize("field", [F5, F7, F9], ids=["F5", "F7", "F9"])
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    def test_degenerate_rows_agree_with_brute_force(self, field, shape):
        curve = shaped_curve(shape, field, random.Random(f"{shape}-{field.q}"))
        assert count_plane_quartic(curve, field).n == brute_curve_points(curve, field)

    @pytest.mark.parametrize("p, k, big_k", [(7, 1, 1), (3, 2, 2), (3, 1, 3)],
                             ids=["F7", "F9", "F3-over-F27"])
    def test_swapping_x_and_z_keeps_the_count(self, p, k, big_k):
        # (x:y:z) -> (z:y:x) maps C onto the curve with f, g and h reversed, so
        # the row at infinity of the one is the row x = 0 of the other
        small, big = build_extension(p, k), build_extension(p, big_k)
        rng = random.Random(9)
        for shape in sorted(SHAPES):
            curve = shaped_curve(shape, small, rng)
            swapped = bielliptic(small, *(form.coeffs[::-1]
                                          for form in (curve.f, curve.g, curve.h)))
            assert count_plane_quartic(swapped, big).n == count_plane_quartic(curve, big).n

    def test_extension_count_of_prime_field_curve(self):
        rng = random.Random(10)
        curve = random_validated_curve(F5, rng)
        f25 = build_extension(5, 2)
        rec = count_plane_quartic(curve, f25)
        assert rec.q == 5 and rec.m == 2
        assert rec.n == brute_plane_points(
            TernaryForm(f25, 4, dict(curve.plane_quartic().coeffs)), f25
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

    def test_vanishing_base_rejected_before_any_row(self, monkeypatch):
        # q2^2 = q1 q3 identically: every row would be scanned over all its
        # y, so the count is refused before the orbits are walked
        import prymsplit.counting as counting_module

        def tripwire(*args):
            raise AssertionError("a count ran")

        monkeypatch.setattr(counting_module, "_frobenius_orbits", tripwire)
        rng = random.Random(17)
        for field in (F5, F9):
            q = random_quadratic(field, rng)
            two = field.from_int(2)
            for triple in ((q, q, q), (q, q.scale(two), q.scale(field.mul(two, two)))):
                with pytest.raises(DegenerateInputError):
                    count_bruin_cover(*triple, field)

    def test_non_quadric_rejected(self):
        q = random_quadratic(F5, random.Random(15))
        quartic = q * q
        with pytest.raises(ModelError):
            count_bruin_cover(q, quartic, q, F5)

    def test_mixed_fields_rejected(self, monkeypatch):
        # the forms must share the field the curve is Frobenius-stable over,
        # and the refusal comes before any row is counted
        import prymsplit.counting as counting_module

        def tripwire(*args):
            raise AssertionError("a count ran")

        monkeypatch.setattr(counting_module, "_frobenius_orbits", tripwire)
        rng = random.Random(16)
        q1 = random_quadratic(F3, rng)
        q2, q3 = (random_quadratic(F9, rng) for _ in range(2))
        with pytest.raises(UnsupportedFieldError):
            count_bruin_cover(q1, q2, q3, F9)

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
            assert rec_z.n == brute_plane_points(quartic, F5)

    def test_singular_model_bookkeeping(self):
        # cover points = plane-model points minus rational roots of f*g plus
        # the two nodes
        rng = random.Random(15)
        for field in (F5, F7):
            for _ in range(8):
                curve = random_validated_curve(field, rng)
                model = singular_model(curve)
                _, rec_y = count_bruin_cover(*model, field)
                n_plane = count_plane_quartic(curve, field).n
                fg = curve.fg()
                roots = sum(1 for x in range(field.q) if fg.eval(x, field.one) == 0)
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

    # (p, k, K); over F_{3^4} the orbits of F_3 have sizes 1, 2 and 4
    PAIRS = [(3, 1, 2), (5, 1, 2), (3, 1, 3), (5, 1, 3), (3, 2, 4), (3, 1, 4)]

    @pytest.mark.parametrize("p, k, big_k", PAIRS, ids=lambda v: str(v))
    def test_orbits_partition_the_field(self, p, k, big_k):
        small, big = build_extension(p, k), build_extension(p, big_k)
        exp, r, qm1 = big.log_tables[0], small.q, big.q - 1
        orbits = _frobenius_orbits(small, big)
        reps, sizes = orbits
        assert (reps[0], sizes[0]) == (-1, 1)  # zero is its own orbit, first
        assert len(reps) == len(sizes)
        # shortest first, by least log within a size, ending in the full size m
        assert list(zip(sizes, reps)) == sorted(zip(sizes, reps))
        assert sizes[-1] == big.k // small.k
        assert sum(sizes) == big.q
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
                  if j >= 0 else frozenset({0}) for j in reps]
        assert [len(orbit) for orbit in walked] == sizes
        assert len(set(walked)) == len(walked)  # no two representatives are conjugate
        assert set(walked) == expected
        assert _frobenius_orbits(small, big) is orbits  # cached per (field, r)

    def test_identity_walk_over_own_field(self):
        orbits = _frobenius_orbits(F7, F7)
        assert orbits == ([-1, *range(6)], [1] * 7)
        exp = F7.log_tables[0]
        assert {exp[j] if j >= 0 else 0 for j in orbits[0]} == set(range(7))
        assert _frobenius_orbits(F7, F7) is orbits

    @pytest.mark.parametrize("p, k, big_k", PAIRS, ids=lambda v: str(v))
    def test_plane_quartic_agrees_with_brute_force(self, p, k, big_k):
        small, big = build_extension(p, k), build_extension(p, big_k)
        rng = random.Random(p * 100 + big_k)
        for shape in ("random", "disc-zero-on-two-rows"):
            curve = shaped_curve(shape, small, rng)
            rec = count_plane_quartic(curve, big)
            assert rec.n == brute_curve_points(curve, big)
            assert rec.rows == len(_frobenius_orbits(small, big)[0]) < big.q

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
            assert rec_y.rows == len(_frobenius_orbits(small, big)[0])


def _random_row(field, rng, length):
    return [field.random_element(rng) for _ in range(length)]


class TestLogDomainKernels:
    """The plane-quartic rows and count_weighted, computed on discrete logs,
    against brute-force enumeration over prime and extension fields."""

    FIELDS = [(23, 1), (5, 2), (3, 3), (7, 2)]

    @pytest.mark.parametrize("p, k", FIELDS, ids=lambda v: str(v))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_even_rows_agree_with_brute_force(self, p, k, shape):
        field = build_extension(p, k)
        rng = random.Random(f"{shape}-{p}-{k}")
        for _ in range(2):
            curve = shaped_curve(shape, field, rng)
            assert count_plane_quartic(curve, field).n == brute_curve_points(curve, field)

    @pytest.mark.parametrize("shape", ["random", "disc-zero-on-two-rows"])
    def test_even_rows_over_f243(self, shape):
        field = build_extension(3, 5)
        curve = shaped_curve(shape, field, random.Random(shape))
        assert count_plane_quartic(curve, field).n == brute_curve_points(curve, field)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_prime_field_curve_over_cubic_extension(self, shape):
        small, big = F3, build_extension(3, 3)
        rng = random.Random(shape)
        for _ in range(3):
            curve = shaped_curve(shape, small, rng)
            assert count_plane_quartic(curve, big).n == brute_curve_points(curve, big)

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


class TestRowCounts:
    """The bielliptic kernel's row count #{y : y^4 - h y^2 + c = 0}: the
    lookup in the table halves rotated for the bases where h c != 0, and
    _row_count's quadratic formula for every row, h or c zero included, with
    h and c given as _log_values gives them, a base and logs relative to it."""

    @pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)],
                             ids=["F3", "F5", "F7", "F9", "F25", "F27"])
    def test_every_row_matches_enumeration(self, p, k):
        field = build_extension(p, k)
        log = field.log_tables[1]
        qm1 = field.q - 1
        squares = [field.mul(y, y) for y in range(field.q)]
        pairs = [(h, c) for h in range(field.q) for c in range(field.q)]
        expected = [sum(field.sub(field.add(field.mul(w, w), c), field.mul(h, w)) == field.zero
                        for w in squares)
                    for h, c in pairs]
        rows = _row_table(field)
        ops = _LogPolys(field)
        assert len(rows) == 2 * (field.q - 1)
        lhs, lcs = [log[h] for h, _ in pairs], [log[c] for _, c in pairs]

        def relative(ls, t):
            return [l if l < 0 else (l - t) % qm1 for l in ls]

        # every (h, c) pair under each pair of bases: both even, each one odd,
        # and the top base q - 2 on both sides; the rotation k = tc - 2 th
        # mod q - 1 is 0 for an even and for an odd th, and q - 2, its top
        bases = {(0, 0), (1, 0), (0, 1), (1, 1), (qm1 - 1, qm1 - 1), (qm1 // 2, 1),
                 (1, 2 % qm1), (0, qm1 - 1), (qm1 - 1, qm1 - 2)}
        assert {(tc - 2 * th) % qm1 for th, tc in bases} >= {0, qm1 - 1}
        assert {th & 1 for th, tc in bases if (tc - 2 * th) % qm1 == 0} == {0, 1}
        nonzero = [i for i, (h, c) in enumerate(pairs) if h and c]
        for th, tc in sorted(bases):
            # relative logs reduced, and one period up as an identity Horner
            # step leaves them, on halves written out four times
            tabs = _row_halves(rows, (tc - 2 * th) % qm1, th, 4)
            for shift in (0, qm1):
                rh = [lh + shift for lh in relative(lhs, th)]
                rc = [lc + shift for lc in relative(lcs, tc)]
                assert [tabs[rh[i] & 1][rc[i] - 2 * rh[i]] for i in nonzero] == [
                    expected[i] for i in nonzero], (th, tc, shift)
        assert _row_table(field) is rows  # cached on the field
        # one row from absolute logs, reduced and not, as x = infinity and
        # the recounted rows read it
        for shift in (0, qm1):
            assert [_row_count(lh if lh < 0 else lh + shift, lc if lc < 0 else lc + shift,
                               ops) for lh, lc in zip(lhs, lcs)] == expected


class TestLogValues:
    """_log_values, Horner's rule on logs over a whole orbit list: it returns
    a base t and logs r relative to it, and (t + r) mod (q - 1) must be the
    log of eval_list at every representative, x = 0 included, with r = -1
    exactly where the value is zero."""

    # (field of the coefficients, counting field): prime fields, extension
    # fields, and subfields whose orbits have more than one element
    PAIRS = [((3, 1), (3, 1)), ((7, 1), (7, 1)), ((23, 1), (23, 1)), ((3, 2), (3, 2)),
             ((5, 2), (5, 2)), ((3, 3), (3, 3)), ((3, 1), (3, 4)), ((5, 1), (5, 3))]

    @staticmethod
    def check(cs, reps, field):
        """cs, top first, against eval_list at every x of reps."""
        exp, log, zech = field.log_tables
        qm1 = field.q - 1
        t, rs = _log_values([log[c] for c in cs], reps, qm1, zech)
        assert 0 <= t < qm1 and len(rs) == len(reps)
        assert all(-1 <= r < qm1 for r in rs)
        low_first = cs[::-1]
        assert [r if r < 0 else (t + r) % qm1 for r in rs] == [
            log[eval_list(low_first, field.zero if j < 0 else exp[j], field)] for j in reps]

    @pytest.mark.parametrize("small, big", PAIRS, ids=lambda v: "F%d^%d" % v)
    def test_matches_eval_list(self, small, big):
        small, big = build_extension(*small), build_extension(*big)
        table = embedding(small, big)
        reps, _ = _frobenius_orbits(small, big)
        rng = random.Random(big.q)
        for degree in range(6):
            for zero_at in (None, 0, degree // 2, degree):  # leading, middle, constant
                cs = [table[small.random_element(rng)] for _ in range(degree + 1)]
                if zero_at is not None:
                    cs[zero_at] = big.zero
                self.check(cs, reps, big)
            # equal consecutive logs: every step has d = -(q - 1), the low
            # edge of the doubled Zech table
            a = table[small.random_nonzero(rng)]
            self.check([a] * (degree + 1), reps, big)
            # the zero polynomial, and leading zeros before the first base
            self.check([big.zero] * (degree + 1), reps, big)
            self.check([big.zero] * 2 + [a] * degree, reps, big)
        qm1, zech = big.q - 1, big.log_tables[2]
        assert _log_values([], reps, qm1, zech) == (0, [-1] * len(reps))

    def test_every_cubic_over_f3(self):
        """q - 1 = 2, the shortest Zech table: all 81 c of degree <= 3."""
        reps, _ = _frobenius_orbits(F3, F3)
        for n in range(3 ** 4):
            self.check([n // 3 ** i % 3 for i in range(4)], reps, F3)

    @pytest.mark.parametrize("p, k", [(3, 1), (7, 1), (3, 2), (5, 2), (23, 1)],
                             ids=["F3", "F7", "F9", "F25", "F23"])
    def test_rows_of_h_and_fg_with_zero_leading_coefficients(self, p, k):
        """The bielliptic rows through _plane_rows: h and fg = f g whose top
        coefficients vanish, so each Horner step starts from a zeroed prefix
        or keeps its base, h = 0 and fg = 0 among them, against the rows
        counted by enumeration."""
        field = build_extension(p, k)
        exp, log = field.log_tables[:2]
        reps, _ = _frobenius_orbits(field, field)
        squares = [field.mul(y, y) for y in range(field.q)]
        rng = random.Random(f"lead-{p}-{k}")
        for _ in range(4):
            h = [0] + _triple(field, rng)[1:]
            # f and g linear, so fg = [0, 0, *], and fg = 0
            f, g = [0] + _random_row(field, rng, 2), [0] + _random_row(field, rng, 2)
            for hs, (fs, gs) in ((h, (f, g)), (h[:2] + [0], (f, g)), ([0, 0, 0], (f, g)),
                                 (h, ([0, 0, 0], g))):
                counts = _plane_rows(*([log[v] for v in cs] for cs in (fs, gs, hs)),
                                     field, field, _LogPolys(field))
                expected = []
                for j in reps:
                    x = field.zero if j < 0 else exp[j]
                    hx = eval_list(hs[::-1], x, field)
                    cx = field.mul(eval_list(fs[::-1], x, field), eval_list(gs[::-1], x, field))
                    expected.append(sum(field.add(field.sub(field.mul(w, w), field.mul(hx, w)),
                                                  cx) == field.zero for w in squares))
                assert counts == expected


def _orbit_polynomial(small, big, j):
    """The product of X - x over the orbit of x = g^j under x -> x^r, r = |small|,
    as constant-first coefficients in small: the minimal polynomial of x."""
    exp = big.log_tables[0]
    back = {v: s for s, v in enumerate(embedding(small, big))}
    x, poly = exp[j], [big.one]
    while True:
        poly = [big.sub(a, big.mul(x, b)) for a, b in zip([big.zero] + poly, poly + [big.zero])]
        x = big.pow(x, small.q)
        if x == exp[j]:
            return [back[c] for c in poly]


class TestZeroRows:
    """Rows where h or fg vanishes.  The row pass reads them from an entry
    that means nothing there, and _plane_rows recounts them; count_weighted
    reads F(x) = 0 from the final entry of its table.  Each case is checked
    at x = 0, at the last orbit representative and on an orbit of size > 1,
    against enumeration."""

    # (p, k, K): a curve over F_{p^k} counted over F_{p^K}, where the last
    # orbit has one or two elements, so that a quadratic form vanishes on it
    PAIRS = [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 2, 4), (7, 1, 1), (5, 2, 2)]

    @pytest.mark.parametrize("p, k, big_k", PAIRS, ids=lambda v: str(v))
    def test_plane_quartic_rows_where_h_or_fg_vanishes(self, p, k, big_k):
        small, big = build_extension(p, k), build_extension(p, big_k)
        reps, sizes = _frobenius_orbits(small, big)
        # the minimal polynomial of the last representative, as (x^2, xz, z^2)
        top = _orbit_polynomial(small, big, reps[-1])[::-1]
        if len(top) == 2:
            top.append(0)
        xz, rng = [0, 1, 0], random.Random(f"zero-rows-{p}-{k}-{big_k}")
        other = [small.random_nonzero(rng) for _ in range(3)]
        cases = [(xz, top, top), (top, xz, other), (xz, top, xz), (top, top, other),
                 (top, [1, 0, 0], xz)]  # (f, g, h)
        exp, log, zech = big.log_tables
        seen = set()
        for f, g, h in cases:
            curve = bielliptic(small, f, g, h)
            lh, lc = (_log_values(_coerce_scalars(form.coeffs, small, big), reps, big.q - 1,
                                  zech)[1] for form in (curve.h, curve.fg()))
            seen.update((name, i) for name, ls in (("h", lh), ("fg", lc))
                        for i in (0, len(reps) - 1) if ls[i] < 0)
            assert count_plane_quartic(curve, big).n == brute_curve_points(curve, big), (f, g, h)
        assert seen == {("h", 0), ("fg", 0), ("h", len(reps) - 1), ("fg", len(reps) - 1)}
        assert sizes[-1] == big_k // k

    @pytest.mark.parametrize("p, k, big_k", [(3, 1, 1), (7, 1, 1), (3, 2, 2), (3, 1, 3),
                                             (5, 1, 3)], ids=lambda v: str(v))
    def test_weighted_rows_where_f_vanishes_under_both_parities(self, p, k, big_k):
        """The table's halves swap with the parity of the base t, and F(x) = 0
        reads its final 1; an odd degree [F_q : F_r] lets a nonsquare of the
        curve's field stay a nonsquare, so t takes both parities."""
        small, big = build_extension(p, k), build_extension(p, big_k)
        reps, _ = _frobenius_orbits(small, big)
        table = embedding(small, big)
        log, zech = big.log_tables[1:]
        ns = next(a for a in range(1, small.q) if small.chi(a) < 0)
        rng = random.Random(f"weighted-zeros-{p}-{k}-{big_k}")
        last = _orbit_polynomial(small, big, reps[-1])
        vanishing = UniPoly(small, [0, 1]) * UniPoly(small, last)  # x = 0 and the last orbit
        parities = set()
        for genus in (1, 2):
            for scale in (small.one, ns) * 2:
                # degree 2g + 2 in all: x, the last orbit's polynomial, the rest random
                filler = [small.random_nonzero(rng) for _ in range(2 * genus + 3 - len(last))]
                poly = (vanishing * UniPoly(small, filler)).scale(scale)
                assert poly.degree == 2 * genus + 2
                lcs = _coerce_scalars(poly.coeffs, small, big)
                t, rs = _log_values(lcs[::-1], reps, big.q - 1, zech)
                assert rs[0] < 0 and rs[-1] < 0
                parities.add(t & 1)
                lifted = UniPoly(big, [table[c] for c in poly.coeffs])
                assert count_weighted(poly, genus, big).n == brute_weighted_points(
                    lifted, genus, big)
        assert parities == {0, 1}


class TestPlaneRows:
    """_plane_rows' one row path: the lookup is right except at x = 0 and
    where a Horner prefix (a x + b, or f, g or h) vanishes, and exactly those
    rows are found by the linear and quadratic formulas and recounted."""

    MASKS = list(itertools.product((0, 1), repeat=3))  # nonzero coefficients of one quadratic

    # (p, k, K, every combination): a curve over F_{p^k} counted over F_{p^K};
    # on the larger fields each quadratic runs through its patterns in turn
    # while the other two stay full
    PATTERN_FIELDS = [(3, 1, 1, True), (3, 1, 2, True), (3, 1, 3, True), (5, 1, 1, True),
                      (5, 1, 2, True), (5, 1, 3, False), (3, 2, 2, True), (3, 2, 4, False)]

    @pytest.mark.parametrize("p, k, big_k, every", PATTERN_FIELDS, ids=lambda v: str(v))
    def test_every_zero_pattern_against_enumeration(self, p, k, big_k, every):
        """Each coefficient of f, g and h zero or not, f and g never zero: the
        identity and zeroed steps of _horner_steps, against brute_curve_points."""
        small, big = build_extension(p, k), build_extension(p, big_k)
        rng = random.Random(f"patterns-{p}-{k}-{big_k}")
        nonzero, full = self.MASKS[1:], self.MASKS[-1]
        if every:
            patterns = list(itertools.product(nonzero, nonzero, self.MASKS))
        else:
            patterns = ([(m, full, full) for m in nonzero] + [(full, m, full) for m in nonzero]
                        + [(full, full, m) for m in self.MASKS])
        for masks in patterns:
            f, g, h = ([small.random_nonzero(rng) if bit else 0 for bit in mask]
                       for mask in masks)
            curve = bielliptic(small, f, g, h)
            assert count_plane_quartic(curve, big).n == brute_curve_points(curve, big), masks

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_roots_on_orbits_of_size_one_and_two(self, p):
        """f, g or h split over F_p, so that it vanishes on orbits of size 1,
        or irreducible, so that it vanishes on an orbit of size 2 of every
        even degree; a x + b with a, b != 0 vanishes at -b/a in F_p."""
        small = build_extension(p)
        rng = random.Random(f"orbit-roots-{p}")
        ns = nonsquare(small)
        a, b = rng.sample(range(1, p), 2)
        split = [1, small.neg(small.add(a, b)), small.mul(a, b)]  # (x - a)(x - b)
        irreducible = [1, 0, small.neg(ns)]  # x^2 - ns
        sizes_seen = set()
        for big_k in (1, 2, 4) if p == 3 else (1, 2):
            big = build_extension(p, big_k)
            reps, sizes = _frobenius_orbits(small, big)
            ops = _LogPolys(big)
            for _ in range(2):
                other = [small.random_nonzero(rng) for _ in range(3)]
                for f, g, h in ((split, irreducible, other), (irreducible, other, split),
                                (other, split, irreducible), (irreducible, irreducible, split),
                                (other, other, [0, 0, 0])):
                    curve = bielliptic(small, f, g, h)
                    for form in (f, g, h):
                        logs = _coerce_scalars(form[::-1], small, big)
                        if any(v >= 0 for v in logs):
                            sizes_seen.update(sizes[_orbit_row(j, p, big.q - 1, reps, sizes)]
                                              for j in ops.low_roots(ops.monic(logs)))
                    assert count_plane_quartic(curve, big).n == brute_curve_points(curve, big), (
                        big_k, f, g, h)
        assert sizes_seen == {1, 2}

    @pytest.mark.parametrize("small, big", [((3, 1), (3, 4)), ((5, 1), (5, 3)), ((3, 2), (3, 4)),
                                            ((7, 1), (7, 2)), ((3, 1), (3, 1))],
                             ids=lambda v: "F%d^%d" % v)
    def test_orbit_row_finds_every_log(self, small, big):
        small, big = build_extension(*small), build_extension(*big)
        reps, sizes = _frobenius_orbits(small, big)
        qm1, r = big.q - 1, small.q
        assert reps[0] == -1 and sizes[0] == 1  # x = 0, the row that _plane_rows always recounts
        for j in range(qm1):
            orbit, i = {j}, j * r % qm1
            while i != j:
                orbit.add(i)
                i = i * r % qm1
            row = _orbit_row(j, r, qm1, reps, sizes)
            assert (reps[row], sizes[row]) == (min(orbit), len(orbit))


# every field the row solver is run over: (p, k)
ROW_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4), (3, 5)]
ROW_IDS = ["F3", "F5", "F7", "F9", "F25", "F27", "F81", "F243"]


def to_logs(field, cs):
    """Constant-first field elements as the row solver's logs, trimmed."""
    log = field.log_tables[1]
    ls = [log[c] for c in cs]
    while ls and ls[-1] < 0:
        ls.pop()
    return ls


def from_logs(field, ls):
    exp = field.log_tables[0]
    return [field.zero if lv < 0 else exp[lv] for lv in ls]


def product_of_linears(field, roots, lead=1):
    """lead * prod (y - r), constant first."""
    poly = UniPoly.constant(field, lead)
    for r in roots:
        poly = poly * (UniPoly.x(field) - UniPoly.constant(field, r))
    return list(poly.coeffs)


class TestRowSolver:
    """The cover kernel's row solver on logs (_LogPolys) against enumeration
    of y over the field and the list kernel's square-and-multiply."""

    @staticmethod
    def _inputs(field):
        """Constant-first coefficient lists of each row shape, of degree at
        most 4 as the rows R_x are; the gcd with y^q - y has degree 3 or 4 on
        the shapes that take the Cantor-Zassenhaus split (3 over F_3)."""
        rng = random.Random(field.q)
        r, s, t = rng.sample(range(field.q), 3)
        u = rng.choice([v for v in range(field.q) if v not in (r, s, t)] or [r])
        lead = field.random_nonzero(rng)
        nonsquare = next(v for v in range(field.q) if field.chi(v) < 0)
        no_roots = [field.neg(nonsquare), 0, 1]  # y^2 - nonsquare
        non_monic = (UniPoly(field, product_of_linears(field, (s, r)))
                     * UniPoly(field, no_roots) + UniPoly.constant(field, lead)).scale(lead)
        return {
            "zero": [field.zero] * 5,
            "constant": [lead],
            "linear": [field.random_element(rng), lead],
            "repeated-root": product_of_linears(field, (r, r, r, s)),
            "non-monic": list(non_monic.coeffs) + [field.zero] * 2,  # untrimmed, as rows are
            # b2^2 = b1 b3: R has degree 3
            "cubic-one-root": list((UniPoly(field, product_of_linears(field, (r,), lead))
                                    * UniPoly(field, no_roots)).coeffs),
            "cubic-three-roots": product_of_linears(field, (r, s, t), lead),
            "three-roots": product_of_linears(field, (r, r, s, t), lead),
            "four-roots": product_of_linears(field, (r, s, t, u), lead),
        }

    SHAPES = ["zero", "constant", "linear", "repeated-root", "non-monic", "cubic-one-root",
              "cubic-three-roots", "three-roots", "four-roots"]

    @pytest.mark.parametrize("p, k", ROW_FIELDS, ids=ROW_IDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_distinct_root_count_matches_enumeration(self, p, k, shape):
        # a cover row R_x takes the path of its degree: every y when R_x = 0,
        # the quadratic formula up to degree 2, and gcd(R_x, y^q - y) above,
        # split by Cantor-Zassenhaus from degree 3
        field = build_extension(p, k)
        coeffs = self._inputs(field)[shape]
        poly = UniPoly(field, coeffs)
        expected = sorted(y for y in range(field.q) if poly.eval(y) == field.zero)
        if shape in ("cubic-three-roots", "three-roots", "four-roots"):
            assert len(expected) == min(field.q, 3 if shape != "four-roots" else 4)
        f = to_logs(field, coeffs)
        if not f:
            assert len(expected) == field.q
            return
        ops = _LogPolys(field)
        assert sorted(from_logs(field, ops.roots(ops.monic(f)))) == expected

    @pytest.mark.parametrize("p, k", ROW_FIELDS[:6], ids=ROW_IDS[:6])
    def test_low_degree_roots_exhaustive(self, p, k):
        field = build_extension(p, k)
        ops = _LogPolys(field)
        for a in range(field.q):
            for b in range(field.q):
                # the w with a w^2 + b w = v, for every v
                by_value = {}
                for w in range(field.q):
                    v = field.mul(field.add(field.mul(a, w), b), w)
                    by_value.setdefault(v, []).append(w)
                for c in range(field.q):
                    f = to_logs(field, [c, b, a])
                    if not f:
                        continue
                    roots = from_logs(field, ops.low_roots(ops.monic(f)))
                    assert sorted(roots) == by_value.get(field.neg(c), [])

    @pytest.mark.parametrize("p, k", ROW_FIELDS, ids=ROW_IDS)
    def test_monic_quadratic_roots_by_construction(self, p, k):
        # every monic quadratic: (y - r)(y - s) has the roots {r, s}, and one
        # that is no such product has none
        field = build_extension(p, k)
        ops = _LogPolys(field)
        expected = {}
        for r in range(field.q):
            for s in range(r, field.q):
                c0, c1, _ = product_of_linears(field, (r, s))
                expected[c0, c1] = sorted({r, s})
        for c0 in range(field.q):
            for c1 in range(field.q):
                roots = ops.low_roots(to_logs(field, [c0, c1, 1]))
                assert sorted(from_logs(field, roots)) == expected.get((c0, c1), [])

    @pytest.mark.parametrize("p, k", ROW_FIELDS + [(7, 2)], ids=ROW_IDS + ["F49"])
    def test_frobenius_x_power_matches_square_and_multiply(self, p, k):
        field = build_extension(p, k)
        ops = _LogPolys(field)
        rng = random.Random(field.q + 1)
        for degree in (1, 2, 3, 4, 6):
            for constant in (None, field.zero):  # y divides f when the constant is 0
                f = [field.random_element(rng) for _ in range(degree)] + [field.one]
                if constant is not None:
                    f[0] = constant
                expected = powmod_list([field.zero, field.one], field.q, f, field)
                assert ops.xq(to_logs(field, f)) == to_logs(field, expected)
        # y^q = y mod every product of distinct linear factors
        for n in range(2, min(field.q, 4) + 1):
            f = product_of_linears(field, rng.sample(range(field.q), n))
            assert from_logs(field, ops.xq(to_logs(field, f))) == [field.zero, field.one]

    @pytest.mark.parametrize("p, k", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3)],
                             ids=["F3", "F7", "F9", "F25", "F27"])
    def test_pow_linear_matches_square_and_multiply(self, p, k):
        # (y + g^ld)^e mod f, the y^p of xq and the (y + d)^((q-1)/2) of split,
        # against the list kernel over the field, for monic f of degree 1-4:
        # random, divisible by y, and with repeated roots, y^n among them
        field = build_extension(p, k)
        ops = _LogPolys(field)
        exp = field.log_tables[0]
        rng = random.Random(f"pow-linear-{p}-{k}")
        r, s = rng.sample(range(field.q), 2)
        moduli = []
        for degree in range(1, 5):
            f = [field.random_element(rng) for _ in range(degree)] + [field.one]
            moduli += [f, [field.zero] + f[1:], [field.zero] * degree + [field.one],
                       product_of_linears(field, [r] * (degree - 1) + [s])]
        lds = [-1] + rng.sample(range(field.q - 1), min(3, field.q - 1))
        exponents = sorted({1, 2, p, (field.q - 1) // 2, field.q})
        zeros = 0
        for f in moduli:
            for ld in lds:
                linear = [field.zero if ld < 0 else exp[ld], field.one]
                a = divmod_list(linear, f, field)[1]
                for e in exponents:
                    expected = to_logs(field, powmod_list(a, e, f, field))
                    assert ops.pow_linear(ld, e, to_logs(field, f)) == expected, (f, ld, e)
                    zeros += not expected
        assert zeros  # y^e mod y^n for e >= n
        assert ops.pow_linear(-1, 5, to_logs(field, [field.zero, field.zero, field.one])) == []


@pytest.mark.parametrize("p, k", [(3, 1), (7, 1), (3, 2), (5, 2)], ids=["F3", "F7", "F9", "F25"])
def test_unreduced_logs_read_as_reduced(p, k):
    # a cover row's logs are a column base plus a relative log, as large as
    # 2 (q - 1): log j and j + (q - 1) must give the same element
    field = build_extension(p, k)
    qm1 = field.q - 1
    zech = field.log_tables[2]
    ops = _LogPolys(field)
    logs = range(-1, qm1)

    def lift(j):
        return j if j < 0 else j + qm1

    def reduce(j):
        return j if j < 0 else j % qm1

    for v in logs:
        assert _one_plus_chi(lift(v)) == _one_plus_chi(v)
        for u in logs:
            expected = _log_sum(u, v, qm1, zech)
            for a, b in ((u, lift(v)), (lift(u), v), (lift(u), lift(v))):
                assert reduce(_log_sum(a, b, qm1, zech)) == expected
            if v >= 0:  # u + g^v y
                expected = ops.monic([u, v])
                for f in ([u, lift(v)], [lift(u), v], [lift(u), lift(v)]):
                    assert ops.monic(f) == expected


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
        for s in (field.one, nonsquare(field)):
            self.check(line_inside_the_base(field, rng, field.random_element(rng), s), field)

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

