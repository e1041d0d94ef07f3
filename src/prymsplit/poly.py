"""Dense univariate polynomials and homogeneous binary forms over a field object.

UniPoly stores coefficients constant-first with no trailing zeros; the zero
polynomial has degree NEG_INF so that deg(pq) = deg(p) + deg(q) holds
formally.  BinaryForm stores a degree-n form as c_0..c_n meaning
sum c_i x^(n-i) z^i (leading x-coefficient first); leading zeros are kept,
they encode roots at infinity.

Evaluation, product, division, modular product, modular power and gcd of
dense polynomials live once, in the list kernel below.  It works on bare
constant-first coefficient lists without trailing zeros ([] is the zero
polynomial) over any field object, so UniPoly and the modulus, generator and
subfield-root searches of the extension fields share it.  OPERATORS is
Python's own arithmetic as such an object: zeta multiplies its integer
L-polynomials with mul_list over it, and prym takes a determinant over
UniPoly entries with it.  The counting kernels do not use the list kernel:
their rows run on discrete logs (counting._LogPolys, which also takes y^q
modulo a row).  They share only trim, with the log -1 as the zero to drop.
"""

from __future__ import annotations

import operator
from types import SimpleNamespace

from .errors import DegenerateInputError

NEG_INF = float("-inf")
# Python's +, - and * as a field object, for ints and for UniPoly entries
OPERATORS = SimpleNamespace(zero=0, add=operator.add, sub=operator.sub, mul=operator.mul)


# --- list kernel -------------------------------------------------------------

def trim(cs: list, zero) -> list:
    """Drop trailing zeros in place; returns cs.  zero is the field's zero,
    or -1 for the counting kernels' lists of discrete logs."""
    while cs and cs[-1] == zero:
        cs.pop()
    return cs


def eval_list(cs, x, F):
    """The polynomial cs at x, by Horner's rule; F.zero for []."""
    add, mul, acc = F.add, F.mul, F.zero
    for c in reversed(cs):
        acc = add(mul(acc, x), c)
    return acc


def divmod_list(a, b, F):
    """(quotient, remainder) of a by a nonzero b, both trimmed lists."""
    zero, mul, sub = F.zero, F.mul, F.sub
    rem = list(a)
    d = len(b) - 1
    if len(rem) <= d:
        return [], trim(rem, zero)
    lead_inv = F.inv(b[-1])
    quo = [zero] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c != zero:
            t = mul(c, lead_inv)
            quo[i - d] = t
            off = i - d
            for j in range(d):  # rem[i] itself cancels exactly
                rem[off + j] = sub(rem[off + j], mul(t, b[j]))
    del rem[d:]
    return quo, trim(rem, zero)


def mul_list(a, b, F):
    """Schoolbook product of two coefficient lists; trims nothing."""
    if not a or not b:
        return []
    zero, add, mul = F.zero, F.add, F.mul
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != zero:
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def mulmod_list(a, b, f, F):
    """a * b mod a nonzero f, all trimmed lists."""
    return divmod_list(mul_list(a, b, F), f, F)[1]


def powmod_list(a, e: int, f, F):
    """a^e mod f by square-and-multiply, for a reduced mod f, deg f >= 1, e >= 0."""
    result = [F.one]
    while e:
        if e & 1:
            result = mulmod_list(result, a, f, F)
        e >>= 1
        if e:
            a = mulmod_list(a, a, f, F)
    return result


def gcd_list(a, b, F):
    """Monic gcd of two trimmed lists by the Euclidean algorithm; [] for 0, 0."""
    while b:
        a, b = b, divmod_list(a, b, F)[1]
    if not a:
        return []
    inv = F.inv(a[-1])
    return [F.mul(inv, c) for c in a]


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(trim(list(coeffs), field.zero))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def _combine(self, other, op):
        """Coefficientwise op, the field's add or sub, padding the shorter."""
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [op(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __add__(self, other):
        return self._combine(other, self.field.add)

    def __sub__(self, other):
        return self._combine(other, self.field.sub)

    def __neg__(self):
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        return UniPoly(self.field, mul_list(self.coeffs, other.coeffs, self.field))

    def scale(self, c):
        F = self.field
        return UniPoly(F, [F.mul(c, a) for a in self.coeffs])

    def eval(self, x):
        return eval_list(self.coeffs, x, self.field)

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    return UniPoly(a.field, gcd_list(a.coeffs, b.coeffs, a.field))


class BinaryForm:
    """Homogeneous form of fixed degree n in (x, z); length is always n + 1."""

    __slots__ = ("field", "n", "coeffs")

    def __init__(self, field, n: int, coeffs):
        cs = tuple(coeffs)
        if len(cs) != n + 1:
            raise ValueError(f"degree-{n} form needs {n + 1} coefficients")
        self.field = field
        self.n = n
        self.coeffs = cs

    @classmethod
    def from_ints(cls, field, n, ints):
        return cls(field, n, [field.from_int(v) for v in ints])

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(c == zero for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.field == other.field
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.n, self.coeffs))

    def _combine(self, other, op):
        """Coefficientwise op, the field's add or sub, of two degree-n forms."""
        if self.n != other.n:
            raise ValueError("form degrees differ")
        return BinaryForm(self.field, self.n,
                          [op(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __add__(self, other):
        return self._combine(other, self.field.add)

    def __sub__(self, other):
        return self._combine(other, self.field.sub)

    def __mul__(self, other):
        F = self.field
        return BinaryForm(F, self.n + other.n, mul_list(self.coeffs, other.coeffs, F))

    def scale(self, c):
        F = self.field
        return BinaryForm(F, self.n, [F.mul(c, a) for a in self.coeffs])

    def eval(self, x, z):
        F = self.field
        acc = F.zero
        zpow = F.one
        xpow = [F.one]
        for _ in range(self.n):
            xpow.append(F.mul(xpow[-1], x))
        for i, c in enumerate(self.coeffs):  # c_i x^(n-i) z^i
            if c != F.zero:
                acc = F.add(acc, F.mul(c, F.mul(xpow[self.n - i], zpow)))
            zpow = F.mul(zpow, z)
        return acc

    def partial(self, axis: int) -> BinaryForm:
        """Partial derivative in x (axis 0) or z (axis 1), a form of degree n - 1."""
        F = self.field
        exps = [(self.n - i, i)[axis] for i in range(self.n + 1)]  # in c_i x^(n-i) z^i
        return BinaryForm(F, self.n - 1, [F.mul(F.from_int(e), c)
                                          for e, c in zip(exps, self.coeffs) if e])

    def dehomogenize(self) -> UniPoly:
        """Set z = 1; constant-first coefficients are this form's reversed."""
        return UniPoly(self.field, tuple(reversed(self.coeffs)))

    @classmethod
    def homogenize(cls, poly: UniPoly, n: int):
        F = poly.field
        if poly.coeffs and len(poly.coeffs) - 1 > n:
            raise ValueError("polynomial degree exceeds form degree")
        cs = list(poly.coeffs) + [F.zero] * (n + 1 - len(poly.coeffs))
        return cls(F, n, tuple(reversed(cs)))

    def is_squarefree(self) -> bool:
        """No repeated projective root: gcd(F(x,1), F_x(x,1)) constant and at
        most a simple root at infinity; F_x(x,1) = partial(0) at z = 1 is the
        derivative of F(x,1).  Valid in every odd characteristic,
        including when the characteristic divides the degree.  Over Q a
        squarefree reduction mod the prime 2^30 - 35 answers first
        (resultants.squarefree_mod_cert), so the gcd over Fractions runs only
        when that certificate fails."""
        if self.is_zero():
            raise DegenerateInputError("squarefreeness of the zero form")
        if self.field.kind == "rationals":
            from .resultants import squarefree_mod_cert  # resultants imports this module
            if squarefree_mod_cert(self):
                return True
        zero = self.field.zero
        if self.coeffs[0] == zero and self.coeffs[1] == zero:
            return False
        g = poly_gcd(self.dehomogenize(), self.partial(0).dehomogenize())
        return g.degree <= 0

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            xs = f"x^{self.n - i}" if self.n - i > 1 else ("x" if self.n - i == 1 else "")
            zs = f"z^{i}" if i > 1 else ("z" if i == 1 else "")
            terms.append(f"{c}{('*' + xs) if xs else ''}{('*' + zs) if zs else ''}")
        return "BinaryForm(" + (" + ".join(terms) or "0") + ")"
