"""The constructions on a bielliptic plane quartic y^4 - h y^2 + f g = 0.

Everything here is driven by the 3x3 coefficient matrix A whose rows are the
coefficient triples of f, h, g.  Its inverse, read column-wise as three
quadratics a, b, c (with doubled middle coefficients), produces:

* the genus-2 curve  y^2 = b (b^2 - a c)  in P(1,3,1),
* the genus-1 curve  Y^2 = h^2 - 4 f g    in P(1,2,1),
* the singular plane model cut out by the quadric triple
  (q1, q2, q3)^T = A^-1 (x1 x2, x2^2 + x1 x3, x2 x3)^T, and
* a pencil of quadric triples joining it to the fixed smooth triple
  (x2^2 + x3^2, x1^2, x2^2 - x3^2).

Each model is a bare polynomial, not a wrapper object: split gives the
sextic b (b^2 - a c) and the binary quartic h^2 - 4 f g, and singular_model
gives the tuple (q1, q2, q3) of degree-2 TernaryForms.  The pencil
determinant over their Gram matrices G_i = gram(q_i) ties the pieces
together: 4 * (-det(G1 + 2x G2 + x^2 G3)) equals b (b^2 - a c) identically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateInputError, RejectedInputError
from .linalg import Matrix3
from .poly import OPERATORS, BinaryForm, UniPoly
from .resultants import quartic_disc_nonzero
from .ternary import TernaryForm, cover_quartic, gram, quadric

log = logging.getLogger(__name__)

RANDOM_CURVE_TRIES = 2000


@dataclass(frozen=True)
class BiellipticQuartic:
    """Smooth-candidate plane quartic y^4 - h(x,z) y^2 + f(x,z) g(x,z)."""

    field: object
    f: BinaryForm
    g: BinaryForm
    h: BinaryForm

    def __post_init__(self):
        for name in ("f", "g", "h"):
            form = getattr(self, name)
            if form.n != 2:
                raise DegenerateInputError(f"{name} must be a degree-2 form")
        if self.f.is_zero() or self.g.is_zero():
            raise DegenerateInputError("f and g must be nonzero")

    @classmethod
    def from_ints(cls, field, f, g, h):
        """Coefficient triples ordered (x^2, xz, z^2)."""
        return cls(
            field,
            BinaryForm.from_ints(field, 2, f),
            BinaryForm.from_ints(field, 2, g),
            BinaryForm.from_ints(field, 2, h),
        )

    # A, fg and s are computed once per curve, since validate, split and the
    # counts each read them; cached_property stores each in the instance
    # dict, which a frozen dataclass does not guard.
    @cached_property
    def coefficient_matrix(self) -> Matrix3:
        """Rows are the coefficient triples of f, h, g in that order."""
        return Matrix3(self.field, (self.f.coeffs, self.h.coeffs, self.g.coeffs))

    @cached_property
    def fg(self) -> BinaryForm:
        return self.f * self.g

    @cached_property
    def branch_quartic(self) -> BinaryForm:
        """s = h^2 - 4 f g, the quartic under the genus-1 model Y^2 = s."""
        F = self.field
        four = F.from_int(4)
        return (self.h * self.h) - self.fg.scale(four)

    def plane_quartic(self) -> TernaryForm:
        """The defining ternary quartic, variables ordered (x, y, z)."""
        F = self.field
        coeffs = {(0, 4, 0): F.one}
        for i, c in enumerate(self.h.coeffs):  # -h(x,z) y^2
            coeffs[(2 - i, 2, i)] = F.neg(c)
        r = self.fg
        for i, c in enumerate(r.coeffs):
            mono = (4 - i, 0, i)
            coeffs[mono] = F.add(coeffs.get(mono, F.zero), c)
        return TernaryForm(F, 4, coeffs)


@dataclass(frozen=True)
class ValidationReport:
    det: object
    det_nonzero: bool
    fg_squarefree: bool
    branch_squarefree: bool
    disc_cross_check: bool

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list:
        out = []
        if not self.det_nonzero:
            out.append("coefficient matrix is singular")
        if not self.fg_squarefree:
            out.append("f*g has a repeated root")
        if not self.branch_squarefree:
            out.append("h^2 - 4*f*g has a repeated root")
        if not self.disc_cross_check:
            out.append("quartic discriminant disagrees with the squarefree checks")
        return out


def validate(curve: BiellipticQuartic) -> ValidationReport:
    """The smoothness + invertibility gate for the construction.

    Checks det A != 0, f*g squarefree and h^2 - 4fg squarefree; a singular
    point with y = 0 forces a repeated root of f*g, one with y != 0 forces a
    repeated root of h^2 - 4fg, so the two squarefree checks are equivalent
    to smoothness.  In every field this is cross-checked against whether the
    ternary-quartic discriminant vanishes, as resultants.quartic_disc_nonzero
    decides it: by one exact rank over the field, or over Q by a rank modulo
    the prime 2^30 - 35 that certifies disc != 0.  Only a quartic that fails
    that certificate pays for the rank over Q, whose cost grows with the
    coefficient height.  A cross-check that disagrees fails the gate.
    """
    F = curve.field
    det = curve.coefficient_matrix.det
    fg_sf = curve.fg.is_squarefree()
    s = curve.branch_quartic
    s_sf = False if s.is_zero() else s.is_squarefree()
    cross = quartic_disc_nonzero(curve.plane_quartic()) == (fg_sf and s_sf)
    return ValidationReport(det, det != F.zero, fg_sf, s_sf, cross)


def require_valid(curve: BiellipticQuartic) -> None:
    """Raise RejectedInputError, naming every failed check, unless the curve
    passes validate."""
    report = validate(curve)
    if not report.passed:
        raise RejectedInputError(
            "curve fails validation: " + "; ".join(report.failures),
            failures=report.failures,
        )


@dataclass(frozen=True)
class SplitResult:
    """The full output of the genus-1 x genus-2 decomposition: the matrix A,
    its inverse and determinant, the column quadratics a, b, c, and the two
    factors, sextic (genus 2, derived from a, b, c) and genus_one (the
    binary quartic s)."""

    curve: BiellipticQuartic
    matrix: Matrix3
    inverse: Matrix3
    det: object
    a: UniPoly
    b: UniPoly
    c: UniPoly
    # s = h^2 - 4fg; the genus-1 curve is Y^2 = s in P(1,2,1), with Y = 2y - h
    # relating it to the quotient model y^2 - h y + f g = 0 (char is never 2)
    genus_one: BinaryForm

    @cached_property
    def sextic(self) -> UniPoly:
        """b(b^2 - ac); the genus-2 curve is y^2 = sextic in P(1,3,1)."""
        return self.b * (self.b * self.b - self.a * self.c)


def _inverse_column_quadratic(inverse: Matrix3, j: int) -> UniPoly:
    """Column j of A^-1 as the quadratic v1 + 2 v2 x + v3 x^2."""
    F = inverse.field
    v1, v2, v3 = inverse.column(j)
    return UniPoly(F, (v1, F.add(v2, v2), v3))


def split(curve: BiellipticQuartic, skip_validation: bool = False) -> SplitResult:
    """Decompose: y^2 = b(b^2 - ac) is the genus-2 factor, Y^2 = h^2 - 4fg the
    genus-1 factor.  Rejects invalid curves unless skip_validation is set
    (formula-only mode for degenerate inputs)."""
    if not skip_validation:
        require_valid(curve)
    matrix = curve.coefficient_matrix
    inverse = matrix.inverse()
    sr = SplitResult(curve, matrix, inverse, matrix.det,
                     *(_inverse_column_quadratic(inverse, j) for j in range(3)),
                     genus_one=curve.branch_quartic)
    degree = sr.sextic.degree
    if not skip_validation and degree not in (5, 6):
        raise DegenerateInputError(
            f"validated curve produced a degree-{degree} genus-2 polynomial"
        )
    if degree == 5:
        log.info("genus-2 polynomial dropped to degree 5 (b quadratic term vanished)")
    return sr


def singular_model(curve: BiellipticQuartic) -> tuple:
    """The quadric triple (q1, q2, q3)^T = A^-1 (x1 x2, x2^2 + x1 x3, x2 x3)^T.

    Row i of A^-1 gives q_i = a_i x1 x2 + b_i (x2^2 + x1 x3) + c_i x2 x3, and
    q2^2 = q1 q3 cuts out the singular plane model."""
    F = curve.field
    inverse = curve.coefficient_matrix.inverse()
    quads = []
    for i in range(3):
        ai, bi, ci = inverse.rows[i]
        quads.append(quadric(F, F.zero, bi, F.zero, ai, bi, ci))
    return tuple(quads)


def pencil_sextic(q1: TernaryForm, q2: TernaryForm, q3: TernaryForm) -> UniPoly:
    """-det(G1 + 2x G2 + x^2 G3) with G_i = gram(q_i), a polynomial of degree <= 6.

    The determinant is Matrix3.det, the package's one cofactor expansion,
    run over UniPoly entries with poly.OPERATORS, which calls UniPoly's own
    +, - and *."""
    F = q1.field
    two = F.from_int(2)
    g1, g2, g3 = gram(q1), gram(q2), gram(q3)
    m = [[UniPoly(F, (g1[i][j], F.mul(two, g2[i][j]), g3[i][j])) for j in range(3)]
         for i in range(3)]
    return -Matrix3(OPERATORS, m).det


# the smooth endpoint of the deformation pencil: quartic x1^4 - x2^4 + x3^4
def _pencil_targets(F):
    zero, one = F.zero, F.one
    t1 = quadric(F, zero, one, one, zero, zero, zero)
    t2 = quadric(F, one, zero, zero, zero, zero, zero)
    t3 = quadric(F, zero, one, F.neg(one), zero, zero, zero)
    return t1, t2, t3


@dataclass(frozen=True)
class BruinCover:
    """A quadric triple, its plane quartic base q2^2 = q1 q3, the double cover
    q1 = u^2, q2 = uv, q3 = v^2 over it, and the pencil hyperelliptic model.

    base_smooth is whether the base quartic is smooth, decided by
    resultants.quartic_disc_nonzero; the discriminant's value is not kept."""

    q1: TernaryForm
    q2: TernaryForm
    q3: TernaryForm
    base_quartic: TernaryForm
    sextic: UniPoly
    base_smooth: bool
    sextic_squarefree: bool

    @property
    def field(self):
        return self.q1.field

    @property
    def verifiable(self) -> bool:
        return self.base_smooth and self.sextic_squarefree

    def triple(self):
        return (self.q1, self.q2, self.q3)


def bruin_cover(q1: TernaryForm, q2: TernaryForm, q3: TernaryForm) -> BruinCover:
    """Assemble the cover data and report (never assume) smoothness."""
    base = cover_quartic(q1, q2, q3)
    sextic = pencil_sextic(q1, q2, q3)
    if sextic.is_zero():
        sf = False
    else:
        sf = BinaryForm.homogenize(sextic, 6).is_squarefree()
    return BruinCover(q1, q2, q3, base, sextic, quartic_disc_nonzero(base), sf)


def deform(curve: BiellipticQuartic, eps) -> BruinCover:
    """Fiber of the deformation pencil at a concrete parameter value.

    Directions are (target_i - q_i) for the fixed smooth targets, so eps = 0
    reproduces the singular model exactly and eps = 1 lands on the triple
    whose quartic is x1^4 - x2^4 + x3^4, smooth in every odd characteristic.
    """
    targets = _pencil_targets(curve.field)
    fibers = []
    for q, t in zip(singular_model(curve), targets):
        fibers.append(q + (t - q).scale(eps))
    return bruin_cover(*fibers)


def random_curve(field, rng) -> BiellipticQuartic:
    """Uniform coefficient triples; may fail validation."""
    while True:
        f = [field.random_element(rng) for _ in range(3)]
        g = [field.random_element(rng) for _ in range(3)]
        h = [field.random_element(rng) for _ in range(3)]
        try:
            return BiellipticQuartic(
                field,
                BinaryForm(field, 2, f),
                BinaryForm(field, 2, g),
                BinaryForm(field, 2, h),
            )
        except DegenerateInputError:
            continue


def random_validated_curve(field, rng) -> BiellipticQuartic:
    """Rejection-sample until validation passes."""
    for _ in range(RANDOM_CURVE_TRIES):
        curve = random_curve(field, rng)
        if validate(curve).passed:
            return curve
    raise RejectedInputError(
        f"no validated curve found in {RANDOM_CURVE_TRIES} tries over {field}"
    )
