"""Property tests: counts on generated inputs against brute-force enumeration,
and the CLI's exit codes on generated documents.

derandomize=True fixes the examples for a given hypothesis version, so a run
of the suite is deterministic, and database=None keeps it from writing
replay files.  The brute-force properties over F_81 and F_243 run without
the shrink phase: a failing example there is replayed through an oracle that
takes about a second a call, and shrinking it held a broken kernel's run for
minutes.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from prymsplit import (
    BiellipticQuartic,
    UniPoly,
    WeilPolynomial,
    build_extension,
    cli,
    count_bruin_cover,
    count_plane_quartic,
    count_weighted,
    lpoly_from_counts,
    quadric,
    random_validated_curve,
)
from prymsplit.fields import embedding
from prymsplit.zeta import predicted_counts
from helpers import (
    bielliptic,
    brute_curve_points,
    brute_weighted_points,
    line_inside_the_base,
    scan_cover_counts,
)

# every odd field up to F_27: (p, k)
ODD_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
              (23, 1), (5, 2), (3, 3)]

# coefficients that empty the row at x = infinity (f0 g0, h0), the row x = 0
# (fg(0)) or every row's linear term (h)
ZEROS = {"f0": ((0, 0),), "g2": ((1, 2),), "h0": ((2, 0),), "h": ((2, 0), (2, 1), (2, 2))}


@st.composite
def bielliptic_curves(draw, pairs):
    """(subfield, counting field, y^4 - h y^2 + fg over the subfield) from a
    drawn pair; some examples have f0 g0 = 0, fg(0) = 0, h0 = 0 or h = 0."""
    small, big = (build_extension(*f) for f in draw(st.sampled_from(pairs)))
    fgh = [[draw(st.integers(0, small.q - 1)) for _ in range(3)] for _ in range(3)]
    for name in sorted(ZEROS):
        if draw(st.integers(0, 3)) == 0:  # about one example in four
            for i, j in ZEROS[name]:
                fgh[i][j] = 0
    for form in fgh[:2]:  # f and g are nonzero
        if not any(form):
            form[1] = 1
    return small, big, bielliptic(small, *fgh)


def assert_count(case):
    small, big, curve = case
    assert count_plane_quartic(curve, big).n == brute_curve_points(curve, big)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(bielliptic_curves([(f, f) for f in ODD_FIELDS]))
def test_bielliptic_count_matches_brute_force(case):
    assert_count(case)


# --- curves over a subfield F_r of the counting field, r < q ------------------
# Here x -> x^r has orbits of more than one element, so each kernel evaluates
# one row per orbit and weights it by the orbit size.

# no shrinking where the oracle runs over F_81 or F_243, see the module docstring
NO_SHRINK = [Phase.explicit, Phase.generate]


@settings(derandomize=True, database=None, max_examples=60, deadline=None, phases=NO_SHRINK)
@given(bielliptic_curves([((3, 1), (3, 3)), ((5, 1), (5, 2)), ((3, 2), (3, 4))]))
def test_bielliptic_over_a_subfield_matches_brute_force(case):
    assert_count(case)


# brute force over F_243 takes about 0.6 s per quartic
@settings(derandomize=True, database=None, max_examples=5, deadline=None, phases=NO_SHRINK)
@given(bielliptic_curves([((3, 1), (3, 5))]))
def test_bielliptic_over_f3_counted_over_f243(case):
    assert_count(case)


# (field of the quadrics' coefficients, counting field): prime fields,
# extension fields, and subfields of the counting field
COVER_PAIRS = [((3, 1), (3, 1)), ((5, 1), (5, 1)), ((7, 1), (7, 1)), ((11, 1), (11, 1)),
               ((3, 2), (3, 2)), ((5, 2), (5, 2)), ((3, 1), (3, 2)), ((3, 1), (3, 3)),
               ((5, 1), (5, 2)), ((3, 2), (3, 4))]


@st.composite
def quadric_triples(draw, pairs=COVER_PAIRS):
    """(counting field, three quadrics over a subfield of it).  In some
    examples the base quartic contains a line x = c z, whose row R_c vanishes;
    in some the y^2 coefficients b_i have b2^2 = b1 b3, so that every row R_x
    has degree at most 3; in some b2^2 != b1 b3, so that every row R_x is a
    quartic, which random draws, rich in zeros, often miss."""
    small, big = (build_extension(*f) for f in draw(st.sampled_from(pairs)))
    element = st.integers(0, small.q - 1)
    shape = draw(st.sampled_from(["random", "quartic", "line", "short"]))
    if shape == "line":
        c, s = draw(element), draw(st.integers(1, small.q - 1))
        rng = draw(st.randoms(use_true_random=False))
        return big, line_inside_the_base(small, rng, c, s)
    coeffs = [[draw(element) for _ in range(6)] for _ in range(3)]
    mul = small.mul
    if shape == "short":  # (b1, b2, b3) = s (u^2, u v, v^2)
        s, u, v = (draw(element) for _ in range(3))
        for cs, b in zip(coeffs, (mul(u, u), mul(u, v), mul(v, v))):
            cs[1] = mul(s, b)
    elif shape == "quartic":  # b1 != 0 and b3 != b2^2 / b1
        b1, b2 = draw(st.integers(1, small.q - 1)), draw(element)
        b3 = draw(st.sampled_from([v for v in range(small.q) if mul(b1, v) != mul(b2, b2)]))
        for cs, b in zip(coeffs, (b1, b2, b3)):
            cs[1] = b
    quads = [quadric(small, *cs) for cs in coeffs]
    if all(quad.is_zero() for quad in quads):
        quads[1] = quadric(small, 0, 1, 0, 0, 0, 0)
    return big, quads


def assert_cover_count(case):
    big, quads = case
    rec_z, rec_y = count_bruin_cover(*quads, big)
    assert (rec_z.n, rec_y.n) == scan_cover_counts(*quads, big)


@settings(derandomize=True, database=None, max_examples=60, deadline=None, phases=NO_SHRINK)
@given(quadric_triples())
def test_cover_count_matches_plane_scan(case):
    assert_cover_count(case)


# the scan over F_243 takes about a second per triple
@settings(derandomize=True, database=None, max_examples=5, deadline=None, phases=NO_SHRINK)
@given(quadric_triples([((3, 1), (3, 5))]))
def test_cover_over_f3_counted_over_f243(case):
    assert_cover_count(case)


# (field of F's coefficients, counting field): prime fields, extension fields,
# and subfields of the counting field
WEIGHTED_PAIRS = [((3, 1), (3, 1)), ((7, 1), (7, 1)), ((11, 1), (11, 1)), ((3, 2), (3, 2)),
                  ((5, 2), (5, 2)), ((3, 1), (3, 2)), ((3, 1), (3, 3)), ((5, 1), (5, 2))]


@st.composite
def weighted_curves(draw):
    """(genus, counting field, F over the subfield, F lifted) with deg F
    anywhere in -inf..2g+2, and a zero constant term half the time."""
    small, big = (build_extension(*f) for f in draw(st.sampled_from(WEIGHTED_PAIRS)))
    genus = draw(st.integers(1, 2))
    coeffs = draw(st.lists(st.integers(0, small.q - 1), max_size=2 * genus + 3))
    if coeffs and draw(st.booleans()):
        coeffs[0] = 0
    table = embedding(small, big)
    return genus, big, UniPoly(small, coeffs), UniPoly(big, [table[c] for c in coeffs])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(weighted_curves())
def test_weighted_count_matches_brute_force(case):
    genus, big, poly, lifted = case
    assert count_weighted(poly, genus, big).n == brute_weighted_points(lifted, genus, big)


# --- quadratic twists: an exact oracle where brute force cannot go ------------
# For a nonsquare d of F_q, C^d = (f, g, h)/d is C's quadratic twist over the
# same D: w = d y^2 takes y^4 - (h/d) y^2 + fg/d^2 to w^2 - h w + fg, and D is
# Y^2 = s, Y = 2w - h.  A point (x, w) of D lifts to 1 + chi(w) points of C and
# 1 + chi(d w) of C^d, so over F_{q^m} with m odd (d a nonsquare there)
# N_m(C) + N_m(C^d) = 2 N_m(D), and with m even (d a square) N_m(C^d) = N_m(C).
# On L-polynomials the twist fixes L_D and sends the Prym's L_X = L_C / L_D to
# L_X(-T).  Only count_plane_quartic's counts enter L_C, so this checks it up to
# F_{23^3} and F_{25^3}.  Every identity is symmetric in C and C^d, so it cannot
# see a kernel that flips chi everywhere and so counts C^d for C;
# verify_split's L_C = L_D * L_X, with L_X counted on the sextic, catches that.

TWIST_FIELDS = [(5, 1), (7, 1), (11, 1), (23, 1), (3, 2), (5, 2)]


def prym_lpoly(l_c, l_d) -> WeilPolynomial:
    """L_C / L_D as a power series, which must stop at degree 4."""
    quotient = []
    for i, c in enumerate(l_c.coeffs):
        quotient.append(c - sum(l_d.coeffs[j] * quotient[i - j] for j in (1, 2) if j <= i))
    assert quotient[5:] == [0, 0], (l_c, l_d)
    return WeilPolynomial(l_c.q, 2, tuple(quotient[:5]))


@pytest.mark.parametrize("p, k", TWIST_FIELDS, ids=[f"{p}^{k}" for p, k in TWIST_FIELDS])
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_quadratic_twist_identities(p, k, seed):
    field, rng = build_extension(p, k), random.Random(seed)
    curve = random_validated_curve(field, rng)
    d = rng.choice([v for v in range(1, field.q) if field.chi(v) < 0])
    twist = BiellipticQuartic(field, *(form.scale(field.inv(d))
                                       for form in (curve.f, curve.g, curve.h)))
    n_c, n_t = ([count_plane_quartic(c, build_extension(p, k * m)).n for m in (1, 2, 3)]
                for c in (curve, twist))
    l_d, l_dt = (lpoly_from_counts(field.q, [count_weighted(
        c.branch_quartic.dehomogenize(), 1, field).n], 1) for c in (curve, twist))
    for m in (1, 3):
        assert n_c[m - 1] + n_t[m - 1] == 2 * predicted_counts(l_d, m), m
    assert n_t[1] == n_c[1]
    assert l_dt == l_d
    l_x, l_xt = (prym_lpoly(lpoly_from_counts(field.q, n, 3), l_d) for n in (n_c, n_t))
    assert l_xt.coeffs == tuple((-1) ** i * a for i, a in enumerate(l_x.coeffs))


# --- fuzzing the document parser and the CLI ---------------------------------
# Documents are mostly well formed, so that the examples get past the key
# checks; each part is malformed, missing or extra with a small probability.
# Hypothesis favours small integers, so "rare" is a draw near the top of 0..99.

# composites, units, 2, negatives, small odd primes, and 181 (181^2 is above the cap)
P_VALUES = [-7, -1, 0, 1, 2, 3, 5, 7, 9, 15, 181, 10**6]

JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.lists(st.integers(0, 2), max_size=2), min_size=1, max_size=2),
    st.lists(st.integers(-4, 4), max_size=5),
    st.sampled_from(["1/2", "-3/7", "1/0", "x", "2/", "", "1.5", "nan", "1/2/3"]),
    st.none(),
    st.booleans(),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 2), max_size=1),
)


def rare(percent: int):
    return st.integers(0, 99).map(lambda i: i >= 100 - percent)


def sometimes_junk(good, percent: int):
    """good, or JUNK in about `percent` of the draws."""
    return rare(percent).flatmap(lambda junk: JUNK if junk else good)


def entries(doc):
    """Well-formed coefficients for the document's field, or JUNK now and then."""
    good = st.integers(-9, 9)
    if "p" not in doc:
        good = st.one_of(good, st.sampled_from(["1/2", "-3/7", "5", "0/4"]))
    elif doc.get("k", 1) > 1:
        good = st.one_of(good, st.lists(st.integers(-4, 4), min_size=1, max_size=doc["k"]))
    return sometimes_junk(good, 5)


MONOMIAL = st.integers(0, 4).flatmap(
    lambda i: st.integers(0, 4 - i).map(lambda j: [i, j, 4 - i - j]))


@st.composite
def documents(draw, kind):
    """A curve or quartic document over Q or a drawn field, with the field
    keys, coefficients and key set each malformed now and then."""
    doc = {}
    if not draw(rare(25)):
        doc["p"] = draw(st.one_of(st.sampled_from([3, 5, 7]), st.sampled_from(P_VALUES)))
        k = draw(st.integers(1, 2)) if not draw(rare(20)) else draw(st.integers(-1, 4))
        if k != 1 or draw(st.booleans()):
            doc["k"] = k
        if draw(rare(30)):
            coeff = sometimes_junk(st.integers(-3, 3), 10)
            doc["modulus"] = draw(sometimes_junk(st.lists(coeff, min_size=k + 1,
                                                          max_size=k + 1), 20))
    elif draw(rare(10)):
        doc[draw(st.sampled_from(["k", "modulus"]))] = 2
    entry = entries(doc)
    if kind == "curve":
        triple = sometimes_junk(st.lists(entry, min_size=3, max_size=3), 5)
        for key in ("f", "g", "h"):
            doc[key] = draw(triple)
    else:
        term = sometimes_junk(st.tuples(MONOMIAL, entry).map(lambda mc: mc[0] + [mc[1]]), 5)
        doc["quartic"] = draw(sometimes_junk(st.lists(term, min_size=1, max_size=8), 5))
    if draw(rare(5)):
        del doc[draw(st.sampled_from(sorted(doc)))]
    if draw(rare(5)):
        doc[draw(st.sampled_from(["q", "F", "seed"]))] = 1
    return doc


def exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv)


FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@FUZZ
@given(documents("curve"))
def test_curve_documents_never_exit_1(doc):
    text = json.dumps(doc)
    for command in ("validate", "split"):
        assert exit_code([command, "--input", text]) in (0, 2, 3, 4), (command, doc)


@FUZZ
@given(documents("quartic"))
def test_quartic_documents_never_exit_1(doc):
    assert exit_code(["disc-check", "--input", json.dumps(doc)]) in (0, 2, 3, 4), doc
