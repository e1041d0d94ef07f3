"""Weil L-polynomials from point counts and the isogeny verifications.

lpoly_from_counts turns counts N_1..N_g over F_q..F_{q^g} into the degree-2g
numerator of the zeta function: power sums s_i = q^i + 1 - N_i feed the
Newton recurrence (every division must be exact, anything else means the
counts do not come from a smooth genus-g curve), and the functional equation
a_{2g-i} = q^{g-i} a_i fills the upper half.

verify_split checks L_C = L_D * L_X for a validated curve: the genus-3 count
of the quartic against the product of the genus-1 count of Y^2 = h^2 - 4fg
and the genus-2 count of y^2 = b(b^2 - ac).  verify_bruin checks the double
cover q1 = u^2, q2 = uv, q3 = v^2: counts of the genus-5 cover against the
prediction of L_Z * L_H up to a configurable depth (depth 5 pins the full
degree-10 polynomial).

Both run over any odd finite field F_q, q = p^k, with F_p the case k = 1: a
curve over F_q is counted over F_{q^m} = build_extension(p, k m), and every
L-polynomial is taken over q.  A curve over the rationals is refused; reduce
it at good primes first (verify_split_rational).  The verifiers are the one
place that picks the fields a count runs over and enforces the axis cap:
check_axis_cap refuses F_{p^(k m)} before build_extension(p, k m) is called,
so they never build a field above the cap.  The counting kernels take only
the curve and the field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import count_bruin_cover, count_plane_quartic, count_weighted
from .errors import (
    DegenerateInputError,
    InconsistentCountsError,
    InvalidParameterError,
    RejectedInputError,
    ResourceLimitError,
    UnsupportedFieldError,
)
from .fields import build_extension
from .poly import OPERATORS, BinaryForm, mul_list
from .prym import BiellipticQuartic, BruinCover, SplitResult, split, validate

DEFAULT_AXIS_CAP = 30_000
DEFAULT_GOOD_PRIME_COUNT = 3
_PRIME_POOL = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


@dataclass(frozen=True)
class WeilPolynomial:
    """1 + a_1 T + ... + a_2g T^2g with the genus-g functional equation."""

    q: int
    genus: int
    coeffs: tuple

    def __post_init__(self):
        g, q = self.genus, self.q
        a = self.coeffs
        if len(a) != 2 * g + 1:
            raise InconsistentCountsError(f"need {2 * g + 1} coefficients, got {len(a)}")
        if a[0] != 1:
            raise InconsistentCountsError("constant term must be 1")
        if any(not isinstance(c, int) for c in a):
            raise InconsistentCountsError("coefficients must be integers")
        for i in range(g + 1):
            if a[2 * g - i] != q ** (g - i) * a[i]:
                raise InconsistentCountsError(
                    f"functional equation fails at coefficient {2 * g - i}"
                )
        if g >= 1 and a[1] ** 2 > 4 * g * g * q:
            raise InconsistentCountsError("a_1 violates the Weil bound")

    def __mul__(self, other: "WeilPolynomial") -> "WeilPolynomial":
        if self.q != other.q:
            raise InconsistentCountsError("L-polynomial base sizes differ")
        out = mul_list(self.coeffs, other.coeffs, OPERATORS)
        return WeilPolynomial(self.q, self.genus + other.genus, tuple(out))

    def power_sums(self, upto: int) -> list:
        """Frobenius power sums s_1..s_upto from the coefficients."""
        a = self.coeffs
        s = []
        for m in range(1, upto + 1):
            acc = -m * (a[m] if m < len(a) else 0)
            for i in range(1, m):
                acc -= s[i - 1] * (a[m - i] if m - i < len(a) else 0)
            s.append(acc)
        return s


def lpoly_from_counts(q: int, counts, genus: int) -> WeilPolynomial:
    """Reconstruct the L-polynomial from counts over F_q, ..., F_{q^genus}."""
    counts = list(counts)
    if len(counts) != genus:
        raise InconsistentCountsError(f"need {genus} counts, got {len(counts)}")
    s = [q**i + 1 - counts[i - 1] for i in range(1, genus + 1)]
    a = [1]
    for m in range(1, genus + 1):
        acc = s[m - 1]
        for i in range(1, m):
            acc += s[i - 1] * a[m - i]
        if acc % m != 0:
            raise InconsistentCountsError(
                f"Newton division by {m} is not exact; counts are inconsistent"
            )
        a.append(-acc // m)
    for i in range(genus - 1, -1, -1):
        a.append(q ** (genus - i) * a[i])
    return WeilPolynomial(q, genus, tuple(a))


def predicted_counts(lpoly: WeilPolynomial, m: int) -> int:
    """N_m = q^m + 1 - s_m implied by an L-polynomial."""
    if m < 1:
        raise InvalidParameterError("extension degree must be >= 1")
    return lpoly.q**m + 1 - lpoly.power_sums(m)[-1]


def check_axis_cap(p: int, k: int, axis_cap: int = DEFAULT_AXIS_CAP) -> None:
    """Raise ResourceLimitError when F_{p^k} has more than axis_cap elements,
    and InvalidParameterError for a cap below 1, which no field fits.

    Runs before the field is built.  p >= 2, so p^k > axis_cap once k
    exceeds the bit length of axis_cap; clipping k there keeps the power
    small whatever k a document asks for.
    """
    if axis_cap < 1:
        raise InvalidParameterError(f"axis cap must be at least 1, got {axis_cap}")
    if p ** min(k, axis_cap.bit_length() + 1) > axis_cap:
        raise ResourceLimitError(f"field size {p}^{k} exceeds the axis cap {axis_cap}")


def _finite_base(field):
    """(p, k) of the curve's field F_{p^k}; a curve over Q is refused."""
    if field.kind != "finite":
        raise UnsupportedFieldError(
            "zeta verification needs a finite field "
            "(reduce rational curves at a good prime first)"
        )
    return field.p, field.k


def _lpoly(records, genus: int) -> WeilPolynomial:
    """L-polynomial over the curve's own F_q from the records of its counts
    over F_q..F_{q^genus}.  Each count must lie within its Weil bound, and
    the reconstruction must give every count back."""
    if not all(rec.weil_ok(genus) for rec in records):
        raise InconsistentCountsError("a count violates its Weil bound")
    counts = [rec.n for rec in records]
    lp = lpoly_from_counts(records[0].q, counts, genus)
    if [predicted_counts(lp, m) for m in range(1, genus + 1)] != counts:
        raise InconsistentCountsError("round trip through Newton failed")
    return lp


@dataclass(frozen=True)
class SplitVerification:
    """p is the characteristic; each L-polynomial carries the size q = p^k of
    the curve's field."""

    passed: bool
    p: int
    l_curve: WeilPolynomial
    l_genus1: WeilPolynomial
    l_genus2: WeilPolynomial
    l_product: WeilPolynomial
    counts: tuple
    split_result: SplitResult
    failure: str | None = None


def verify_split(curve: BiellipticQuartic, *,
                 axis_cap: int = DEFAULT_AXIS_CAP) -> SplitVerification:
    """End-to-end check that the curve's L-polynomial splits as L_D * L_X.

    For a curve over F_q, q = p^k, counts the plane quartic over
    F_q..F_{q^3}, the genus-1 model over F_q and the genus-2 model over
    F_q..F_{q^2}, reconstructs the three L-polynomials over q and compares
    exactly.  A curve over Q raises UnsupportedFieldError and a validation
    failure RejectedInputError, both before any counting happens; an
    F_{q^3} above axis_cap raises ResourceLimitError before any field is
    built.  A mismatch is reported, not raised.
    """
    p, k = _finite_base(curve.field)
    sr = split(curve)
    check_axis_cap(p, 3 * k, axis_cap)
    recs_c = [count_plane_quartic(curve, build_extension(p, k * m)) for m in (1, 2, 3)]
    recs_d = [count_weighted(sr.genus_one.dehomogenize(), 1, build_extension(p, k))]
    recs_x = [count_weighted(sr.sextic, 2, build_extension(p, k * m)) for m in (1, 2)]
    l_c, l_d, l_x = _lpoly(recs_c, 3), _lpoly(recs_d, 1), _lpoly(recs_x, 2)
    product = l_d * l_x
    passed = product.coeffs == l_c.coeffs
    failure = None if passed else "L_C differs from L_D * L_X"
    return SplitVerification(passed, p, l_c, l_d, l_x, product,
                             tuple(recs_c + recs_d + recs_x), sr, failure=failure)


@dataclass(frozen=True)
class BruinVerification:
    """p is the characteristic; each L-polynomial carries the size q = p^k of
    the cover's field."""

    passed: bool
    p: int
    depth: int
    achieved_depth: int
    full_certificate: bool
    l_base: WeilPolynomial
    l_hyper: WeilPolynomial
    predicted: tuple
    actual: tuple
    counts: tuple
    failure: str | None = None


def check_bruin_depth(depth: int) -> None:
    """Reject a cover-count depth outside 1..5 before any work is done."""
    if not 1 <= depth <= 5:
        raise InvalidParameterError(f"depth must be between 1 and 5, got {depth}")


def verify_bruin(cover: BruinCover, depth: int = 3, *,
                 axis_cap: int = DEFAULT_AXIS_CAP) -> BruinVerification:
    """Check the Prym identity for a smooth double cover of a plane quartic.

    For a cover over F_q, q = p^k, counts the base Z over F_q..F_{q^3}
    (giving L_Z), the hyperelliptic model y^2 = -det(pencil) over
    F_q..F_{q^2} (giving L_H), then compares the cover counts N_m(Y) with
    the prediction of L_Z * L_H for m = 1..depth.  depth = 5 makes the
    comparison a full degree-10 certificate; smaller depths are partial and
    labeled as such.  An F_{q^3} above axis_cap raises ResourceLimitError
    before any field is built.  Only depths 4 and 5 can stop early: the loop
    stops at the first m with q^m above axis_cap, before F_{q^m} is built,
    and yields a partial result at the achieved depth rather than an error.
    count_bruin_cover gives a base and a cover record per m, kept in one
    list; the cover counts are its odd entries up to the depth, and the
    achieved depth is their number.
    """
    check_bruin_depth(depth)
    p, k = _finite_base(cover.field)
    if not cover.base_smooth:
        raise RejectedInputError(
            "cover base quartic is singular (discriminant 0)",
            failures=["base quartic singular"],
        )
    if not cover.sextic_squarefree:
        raise RejectedInputError(
            "pencil polynomial has a repeated root",
            failures=["pencil sextic not squarefree"],
        )
    check_axis_cap(p, 3 * k, axis_cap)
    records = []
    for m in range(1, max(3, depth) + 1):
        if p ** (k * m) > axis_cap:
            break
        records.extend(count_bruin_cover(*cover.triple(), build_extension(p, k * m)))
    actual = tuple(rec.n for rec in records[1:2 * depth:2])
    achieved = len(actual)
    recs_h = [count_weighted(cover.sextic, 2, build_extension(p, k * m)) for m in (1, 2)]
    records.extend(recs_h)
    l_z = _lpoly(records[0:6:2], 3)  # the base's counts over F_q..F_{q^3}
    l_h = _lpoly(recs_h, 2)
    product = l_z * l_h
    predicted = tuple(predicted_counts(product, m) for m in range(1, achieved + 1))
    passed = predicted == actual
    failure = None
    if not passed:
        failure = "cover counts differ from the L_Z * L_H prediction"
    elif achieved < depth:
        failure = f"only depth {achieved} of {depth} reached (resource cap)"
    return BruinVerification(passed, p, depth, achieved,
                             achieved >= 5 and passed, l_z, l_h,
                             predicted, actual, tuple(records), failure=failure)


# --- rational curves: verify reductions at several good primes -----------

def reduce_curve(curve: BiellipticQuartic, p: int) -> BiellipticQuartic:
    """Reduction mod p of a curve over the rationals."""
    if curve.field.kind != "rationals":
        raise UnsupportedFieldError("reduction applies to rational curves")
    field = build_extension(p)
    try:
        forms = [BinaryForm(field, 2, [field.from_fraction(c) for c in form.coeffs])
                 for form in (curve.f, curve.g, curve.h)]
    except ZeroDivisionError:
        raise RejectedInputError(f"prime {p} divides a denominator") from None
    return BiellipticQuartic(field, *forms)


def good_primes(curve: BiellipticQuartic) -> list:
    """First DEFAULT_GOOD_PRIME_COUNT odd primes where the reduction is
    defined and validates."""
    out = []
    for p in _PRIME_POOL:
        try:
            reduced = reduce_curve(curve, p)
        except (RejectedInputError, DegenerateInputError):
            continue
        if validate(reduced).passed:
            out.append(p)
        if len(out) == DEFAULT_GOOD_PRIME_COUNT:
            return out
    raise RejectedInputError(
        f"found only {len(out)} good primes among {_PRIME_POOL}", failures=["no good primes"]
    )


def verify_split_rational(curve: BiellipticQuartic, *,
                          axis_cap: int = DEFAULT_AXIS_CAP) -> list:
    """verify_split on the reductions at the first DEFAULT_GOOD_PRIME_COUNT
    good primes."""
    return [verify_split(reduce_curve(curve, p), axis_cap=axis_cap)
            for p in good_primes(curve)]
