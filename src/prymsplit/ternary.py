"""Homogeneous forms in three variables.

TernaryForm keeps a sparse exponent->coefficient map with zero entries
dropped; arithmetic is exact over the owning field, and forms over different
fields are refused (UnsupportedFieldError).  A quadric is a degree-2
TernaryForm: quadric builds one from its six monomial coefficients,
quadric_coefficients reads them back, and gram gives its symmetric Gram
matrix, whose off-diagonal entries are half the mixed coefficients
(characteristic 2 is excluded by the field constructors).
"""

from __future__ import annotations

from .errors import DegenerateInputError, UnsupportedFieldError


class TernaryForm:
    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, degree: int, coeffs):
        zero = field.zero
        cleaned = {}
        for mono, c in dict(coeffs).items():
            i, j, k = mono
            if i + j + k != degree or i < 0 or j < 0 or k < 0:
                raise ValueError(f"monomial {mono} not of degree {degree}")
            if c != zero:
                cleaned[(i, j, k)] = c
        self.field = field
        self.degree = degree
        self.coeffs = cleaned

    @classmethod
    def from_ints(cls, field, degree, coeffs):
        return cls(
            field, degree, {m: field.from_int(v) for m, v in dict(coeffs).items()}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, mono):
        return self.coeffs.get(tuple(mono), self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, TernaryForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def _combine(self, other, op):
        """Coefficientwise op, the field's add or sub, of two forms of one
        degree over one field."""
        if self.degree != other.degree:
            raise ValueError("form degrees differ")
        self._check_field(other)
        zero = self.field.zero
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = op(out.get(m, zero), c)
        return TernaryForm(self.field, self.degree, out)

    def __add__(self, other):
        return self._combine(other, self.field.add)

    def __sub__(self, other):
        return self._combine(other, self.field.sub)

    def _check_field(self, other):
        if self.field != other.field:
            raise UnsupportedFieldError("forms over different fields")

    def __mul__(self, other):
        self._check_field(other)
        F = self.field
        out = {}
        for (i1, j1, k1), a in self.coeffs.items():
            for (i2, j2, k2), b in other.coeffs.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                prod = F.mul(a, b)
                if m in out:
                    out[m] = F.add(out[m], prod)
                else:
                    out[m] = prod
        return TernaryForm(F, self.degree + other.degree, out)

    def scale(self, c):
        F = self.field
        return TernaryForm(F, self.degree, {m: F.mul(c, v) for m, v in self.coeffs.items()})

    def partial(self, axis: int) -> TernaryForm:
        F = self.field
        out = {}
        for mono, c in self.coeffs.items():
            e = mono[axis]
            if e == 0:
                continue
            m = list(mono)
            m[axis] = e - 1
            out[tuple(m)] = F.mul(F.from_int(e), c)
        return TernaryForm(F, self.degree - 1, out)

    def eval(self, x, y, z):
        F = self.field
        d = self.degree
        px = _powers(F, x, d)
        py = _powers(F, y, d)
        pz = _powers(F, z, d)
        acc = F.zero
        for (i, j, k), c in self.coeffs.items():
            acc = F.add(acc, F.mul(c, F.mul(px[i], F.mul(py[j], pz[k]))))
        return acc

    def compose_linear(self, rows) -> TernaryForm:
        """Substitute x_i <- sum_j rows[i][j] x_j (the form pulled back by T)."""
        F = self.field
        lin = [
            TernaryForm(
                F, 1, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]}
            )
            for r in rows
        ]
        # cache powers of the three substituted lines up to the degree
        pows = []
        for L in lin:
            cur = [TernaryForm(F, 0, {(0, 0, 0): F.one})]
            for _ in range(self.degree):
                cur.append(cur[-1] * L)
            pows.append(cur)
        acc = TernaryForm(F, self.degree, {})
        for (i, j, k), c in self.coeffs.items():
            term = pows[0][i] * pows[1][j] * pows[2][k]
            acc = acc + term.scale(c)
        return acc

    def __repr__(self):
        items = sorted(self.coeffs.items(), reverse=True)
        return "TernaryForm(" + ", ".join(f"{m}: {c}" for m, c in items) + ")"


def _powers(field, v, n):
    out = [field.one]
    for _ in range(n):
        out.append(field.mul(out[-1], v))
    return out


QUADRIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def quadric(field, c200, c020, c002, c110, c101, c011) -> TernaryForm:
    """The quadric with monomial coefficients (x1^2, x2^2, x3^2, x1x2, x1x3, x2x3)."""
    return TernaryForm(
        field, 2, dict(zip(QUADRIC_MONOMIALS, (c200, c020, c002, c110, c101, c011)))
    )


def quadric_coefficients(q: TernaryForm) -> tuple:
    """The six monomial coefficients of a quadric, in the order quadric takes."""
    return tuple(q.coeff(m) for m in QUADRIC_MONOMIALS)


def gram(q: TernaryForm) -> tuple:
    """The symmetric Gram matrix M with q(v) = v^T M v: the off-diagonal
    entries are half the mixed coefficients (characteristic 2 is excluded)."""
    F = q.field
    half = F.inv(F.from_int(2))
    c200, c020, c002, c110, c101, c011 = quadric_coefficients(q)
    h110, h101, h011 = (F.mul(half, c) for c in (c110, c101, c011))
    return ((c200, h110, h101), (h110, c020, h011), (h101, h011, c002))


def cover_quartic(q1: TernaryForm, q2: TernaryForm, q3: TernaryForm) -> TernaryForm:
    """The plane quartic q2^2 - q1*q3 cut out by a quadric triple, which must
    share one field (UnsupportedFieldError otherwise)."""
    if q1.is_zero() and q2.is_zero() and q3.is_zero():
        raise DegenerateInputError("all three quadratic forms are zero")
    return q2 * q2 - q1 * q3
