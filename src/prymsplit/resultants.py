"""Resultants and discriminants: Sylvester for one variable, Macaulay for three.

Conventions fixed here and relied on everywhere else:

* resultant_forms(p, q) is the determinant of the Sylvester matrix with the
  p-rows above the q-rows and coefficients leading-first, sized by the formal
  degrees of the binary forms.  With that layout Res(x - z, x - 2z) = -1.
* discriminant_binary(F) for a degree-n binary form is the resultant of the
  two partial derivatives taken at formal degree n - 1 (leading zeros kept).
  It differs from the classical discriminant of the dehomogenization by the
  constant (-1)^(n(n-1)/2) * n^(n-2).
* The Macaulay resultant of three ternary cubics is normalized so that
  Res(x1^3, x2^3, x3^3) = 1; the quotient det(M)/det(M') at critical degree 7
  realizes that normalization exactly.  Macaulay's identity
  Res * det(M') = det(M) holds over Z[coefficients], hence in every field, so
  a nonzero minor det(M') makes the quotient the resultant, zero included.
  The exact rank test for a common zero runs only when det(M') vanishes.
  Value and rank read one matrix: _macaulay_rows lays out the 45 degree-7
  multiples once per triple of cubics, and again only after a coordinate
  change; its first 36 rows are M, and M' is a principal minor of M.
  When the minor also vanishes under every retried coordinate change, a
  prime field takes the exact value of an integer lift of the cubics and
  reduces it mod p, which is valid because Res lies in Z[coefficients].
* disc_ternary_quartic divides the Macaulay resultant of the partials by
  4^7 = 2^14 (the degree-4 normalizer), giving the discriminant whose value
  on GOLDEN_QUARTIC = x1^4 - x2^4 + x3^4 is exactly GOLDEN_QUARTIC_DISC = -2^40.
* Decisions are by rank, values by Macaulay.  Every "is this quartic
  singular?" in the package is quartic_disc_nonzero(F), which equals
  disc_ternary_quartic(F) != 0 but decides it by the rank of the 45 degree-7
  multiples of the partials: rank 36 exactly when they share no projective
  zero.  Over a finite field the rank is taken in that field.  Over the
  rationals it is first taken modulo l = 2^30 - 35, and rank 36 mod l is a
  certificate (a 36x36 minor nonzero mod l is nonzero), whatever the size
  of l; below 2^30 every residue is one CPython digit.  A lower rank, or l
  dividing a denominator, leaves the answer to the exact rank over Q.
  BinaryForm.is_squarefree over Q is decided the same way: a reduction mod l
  that is squarefree at the same formal degree proves it (squarefree_mod_cert),
  and anything else runs the exact gcd over Q.  The value itself is computed
  only where it is printed: disc-check and the self-test's golden criterion.
"""

from __future__ import annotations

import random

from .errors import (
    DegenerateInputError,
    ResultantIndeterminateError,
    UndefinedResultantError,
)
from .fields import QQ, PrimeField
from .linalg import Matrix3, det_in_field, rank_in_field
from .poly import BinaryForm
from .ternary import TernaryForm

QUARTIC_DISC_NORMALIZER = 4**7
GOLDEN_QUARTIC = TernaryForm.from_ints(QQ, 4, {(4, 0, 0): 1, (0, 4, 0): -1, (0, 0, 4): 1})
GOLDEN_QUARTIC_DISC = -(2**40)  # disc_ternary_quartic(GOLDEN_QUARTIC)
_MACAULAY_RETRIES = 24
# F_l, l = 2^30 - 35, where quartic_disc_nonzero takes its rank over Q: the
# largest prime below 2^30, so every residue is a one-digit CPython int and a
# product one two-digit int.  Any prime would keep the certificate exact; a
# large one makes the fallback to Q rare.  Built directly rather than through
# build_extension, which caches and traces every field it builds; only ring
# operations touch it, so its log tables (2^30 entries) are never built.
_CERT_FIELD = PrimeField(2**30 - 35)


def _sylvester_rows(p_desc, q_desc, field):
    """Sylvester matrix rows from leading-first coefficient vectors."""
    m = len(p_desc) - 1
    n = len(q_desc) - 1
    size = m + n
    zero = field.zero
    rows = []
    for i in range(n):
        rows.append([zero] * i + list(p_desc) + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + list(q_desc) + [zero] * (size - n - 1 - i))
    return rows


def resultant_forms(p: BinaryForm, q: BinaryForm):
    """Homogeneous resultant at formal degrees; leading zeros participate.

    Constants need no case of their own: c against a degree-n form gives
    the n x n Sylvester matrix c I, so c^n, and two constants the empty
    matrix, whose determinant is 1."""
    F = p.field
    if p.is_zero() and q.is_zero():
        raise UndefinedResultantError("resultant of two zero forms")
    return det_in_field(_sylvester_rows(p.coeffs, q.coeffs, F), F)


def discriminant_binary(F: BinaryForm):
    """Resultant of the two partials of a degree >= 2 binary form."""
    if F.n < 2:
        raise DegenerateInputError("discriminant needs degree >= 2")
    return resultant_forms(F.partial(0), F.partial(1))


def binary_disc_scale(n: int) -> int:
    """discriminant_binary(F) = binary_disc_scale(n) * Disc(F(x,1)) for a
    degree-n form whose leading coefficient is nonzero, where Disc is the
    classical univariate discriminant (-1)^(n(n-1)/2) Res(f, f')/lc(f)."""
    return (-1) ** (n * (n - 1) // 2) * n ** (n - 2)


# --- Macaulay resultant of three ternary cubics -------------------------

_CUBIC_MONOMIALS = tuple((i, j, 3 - i - j) for i in range(4) for j in range(4 - i))
_QUARTIC_MONOMIALS = tuple((i, j, 4 - i - j) for i in range(5) for j in range(5 - i))


def _reach(mono):
    """How many products x^mult * (cubic monomial) land on a degree-7 monomial."""
    a, b, c = mono
    return sum(u <= a and v <= b and w <= c for u, v, w in _CUBIC_MONOMIALS)


def _covering_multiple(mono):
    """(s, mult): x^mult * f_s covers mono, x_s its first variable of exponent >= 3."""
    s = next(i for i, e in enumerate(mono) if e >= 3)
    return s, tuple(e - 3 * (i == s) for i, e in enumerate(mono))


# The one layout of the degree-7 Macaulay matrix, the 45 multiples
# x^mult * f_s over the 36 degree-7 monomials, for linalg._eliminate, which
# inserts it row by row.  Columns: the monomials, the least reached first
# (ties in descending lexicographic order), so that early pivots sit in
# sparse columns.  Rows: the 36 rows of M, row i the multiple that covers
# column i, so that nearly every one adds a pivot at once; then the other 9
# multiples.  M' is the principal minor on the non-reduced monomials, those
# with no exponent or at least two exponents >= 3.  Against the textbook's
# lexicographic layout, the rows and columns of M and M' are permuted alike,
# which keeps both determinants.
_MONOMIALS_7 = tuple(sorted(
    sorted(((i, j, 7 - i - j) for i in range(8) for j in range(8 - i)), reverse=True),
    key=_reach))
_MULTIPLES = tuple(map(_covering_multiple, _MONOMIALS_7))
_MULTIPLES += tuple((s, m) for s in range(3) for m in _QUARTIC_MONOMIALS
                    if (s, m) not in _MULTIPLES)
_NON_REDUCED = tuple(c for c, m in enumerate(_MONOMIALS_7) if sum(e >= 3 for e in m) != 1)
_COLUMN = {m: c for c, m in enumerate(_MONOMIALS_7)}
# per row, s and the column that each cubic monomial of f_s lands on
_ROW_TABLES = tuple(
    (s, {(i, j, k): _COLUMN[a + i, b + j, c + k] for i, j, k in _CUBIC_MONOMIALS})
    for s, (a, b, c) in _MULTIPLES)


def _macaulay_rows(cubics, zero):
    """The 45 rows in this layout, the first 36 being M.  Distinct monomials
    of f_s land on distinct columns, so each entry is assigned once."""
    rows = []
    for s, columns in _ROW_TABLES:
        row = [zero] * len(_MONOMIALS_7)
        for mono, coeff in cubics[s].coeffs.items():
            row[columns[mono]] = coeff
        rows.append(row)
    return rows


def _macaulay_quotient(rows, field):
    """det(M)/det(M') from _macaulay_rows, or None when the minor vanishes."""
    det_minor = det_in_field([[rows[i][j] for j in _NON_REDUCED] for i in _NON_REDUCED], field)
    if det_minor == field.zero:
        return None
    return field.div(det_in_field(rows[:len(_MONOMIALS_7)], field), det_minor)


def _shares_projective_zero(rows, field) -> bool:
    """Common zero over the algebraic closure, decided by an exact rank.

    The three cubics have no common projective zero exactly when their 45
    degree-7 multiples span all 36 degree-7 monomials; rank is unchanged by
    field extension, so computing it over the ground field is conclusive.
    """
    return rank_in_field(rows, field) < len(_MONOMIALS_7)


def _random_gl3(field, rng):
    for _ in range(64):
        if field.kind == "rationals":
            rows = [[field.from_int(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        else:
            rows = [[field.random_element(rng) for _ in range(3)] for _ in range(3)]
        m = Matrix3(field, rows)
        if m.det != field.zero:
            return m
    raise ResultantIndeterminateError("could not sample an invertible change of variables")


def macaulay_resultant_cubics(f1: TernaryForm, f2: TernaryForm, f3: TernaryForm):
    """Macaulay resultant of three ternary cubics at critical degree 7.

    Whenever the designated minor det(M') is nonzero, the quotient
    det(M)/det(M') is the resultant exactly, zero included, because
    Res * det(M') = det(M) is an identity over Z[coefficients] (Cox, Little,
    O'Shea, Using Algebraic Geometry, Ch. 3 Sec. 4).  Only when det(M')
    vanishes does a rank test on the span of the degree-7 multiples settle
    the resultant-is-zero case; otherwise retries run under a random
    invertible substitution T in the same field, undoing
    Res(f o T) = det(T)^27 Res(f).  Every successful retry returns the
    resultant itself, so the fixed draw sequence decides only whether a retry
    succeeds, never the value.  Over a prime field whose retries all fail,
    the value is that of an integer lift of the cubics, reduced mod p.
    """
    for f in (f1, f2, f3):
        if f.degree != 3:
            raise DegenerateInputError("inputs must be ternary cubics")
    field = f1.field
    cubics = (f1, f2, f3)
    rows = _macaulay_rows(cubics, field.zero)
    value = _macaulay_quotient(rows, field)
    if value is not None:
        return value
    if _shares_projective_zero(rows, field):
        return field.zero
    rng = random.Random(0xAC)
    for _ in range(_MACAULAY_RETRIES):
        t = _random_gl3(field, rng)
        moved = tuple(f.compose_linear(t.rows) for f in cubics)
        value = _macaulay_quotient(_macaulay_rows(moved, field.zero), field)
        if value is not None:
            return field.div(value, field.pow(t.det, 27))
    if field.kind == "finite" and field.k == 1:
        # every integer lift reduces to the same Res mod p; a random one keeps
        # the rational minor clear of the structural zeros of sparse cubics
        lifted = (TernaryForm.from_ints(QQ, 3, {
            m: f.coeffs.get(m, 0) + field.p * rng.randrange(1, 2**16) for m in _CUBIC_MONOMIALS
        }) for f in cubics)
        return field.from_int(macaulay_resultant_cubics(*lifted).numerator)
    raise ResultantIndeterminateError(
        "Macaulay minor vanished for every tried coordinate change"
    )


def disc_ternary_quartic(F: TernaryForm):
    """Discriminant of a ternary quartic; zero iff the plane curve is singular.

    Computed as the Macaulay resultant of the three partials divided by the
    normalizer 4^7, so the value matches the classical degree-27 discriminant
    (x1^4 - x2^4 + x3^4 |-> -2^40) exactly over every coefficient field here.
    """
    if F.degree != 4:
        raise DegenerateInputError("input must be a ternary quartic")
    field = F.field
    res = macaulay_resultant_cubics(F.partial(0), F.partial(1), F.partial(2))
    return field.div(res, field.from_int(QUARTIC_DISC_NORMALIZER))


def _cert_image(values):
    """Rationals mapped into _CERT_FIELD, or None when l divides a
    denominator: the one reduction behind both certificates mod l."""
    try:
        return [_CERT_FIELD.from_fraction(c) for c in values]
    except ZeroDivisionError:
        return None


def _reduce_mod_cert(F: TernaryForm):
    """A rational form with its coefficients mapped into _CERT_FIELD, or None
    when l divides a denominator."""
    image = _cert_image(F.coeffs.values())
    return None if image is None else TernaryForm(_CERT_FIELD, F.degree, zip(F.coeffs, image))


def squarefree_mod_cert(F: BinaryForm) -> bool:
    """Whether a rational binary form reduces mod l to a squarefree form of
    the same formal degree, which proves F squarefree over Q: a repeated
    root L^2 | F survives the reduction, L made primitive.  False says
    nothing: l may divide a denominator, the reduction may vanish, or l may
    merge two roots."""
    image = _cert_image(F.coeffs)
    return image is not None and any(image) and BinaryForm(_CERT_FIELD, F.n, image).is_squarefree()


def _has_singular_point(F: TernaryForm) -> bool:
    """Whether the partials of F share a projective zero, by an exact rank."""
    partials = tuple(F.partial(i) for i in range(3))
    return _shares_projective_zero(_macaulay_rows(partials, F.field.zero), F.field)


def quartic_disc_nonzero(F: TernaryForm) -> bool:
    """disc_ternary_quartic(F) != 0, decided by one exact rank.

    The discriminant vanishes exactly when the three partials share a
    projective zero, which _shares_projective_zero decides by a rank in F's
    own field.  Over the rationals that rank is first taken in F_l,
    l = 2^30 - 35: rank 36 there lifts to rank 36 over Q, which proves
    disc != 0 with no Fraction arithmetic.  A lower rank mod l may be
    an accident of l, so it, and l dividing a denominator, leave the answer
    to the rank over Q.
    """
    if F.degree != 4:
        raise DegenerateInputError("input must be a ternary quartic")
    if F.field.kind == "rationals":
        reduced = _reduce_mod_cert(F)
        if reduced is not None and not _has_singular_point(reduced):
            return True
    return not _has_singular_point(F)
