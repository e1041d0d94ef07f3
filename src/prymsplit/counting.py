"""Exact point counts for every curve model used by the verification layer.

Three counters, all exact:

* the bielliptic quartic y^4 - h y^2 + fg in P^2: (0:1:0) is never on it, so
  its points lie over the points [x:z] of P^1, and each such row is the
  quadratic w^2 - h w + fg in w = y^2.  One loop takes each affine row from
  log x to h(x) and fg(x) by Horner's rule in discrete-log form (below),
  reads the row x = infinity off the top coefficients, and solves the
  quadratic in w inline, with no function call per row.
* hyperelliptic-type models y^2 = F(x) in P(1, g+1, 1): character sums over
  the x-line, F evaluated by Horner's rule in log form, plus the points above
  x = infinity read off the degree-(2g+2) homogenization.
* the double cover q1 = u^2, q2 = uv, q3 = v^2 of the plane quartic
  q2^2 = q1 q3: on a row the three forms are quadratics v_i(y), and the base
  points are the roots of R(y) = v2^2 - v1 v3 in the field, found as
  gcd(R, y^q - y) and split by Cantor-Zassenhaus.  The fiber over a base
  point has 1 + chi(q1) points (or 1 + chi(q3) when q1 vanishes), and 1
  exactly where all three quadrics vanish, so the genus-5 curve is never
  enumerated in P^4.

Every kernel walks the x-axis one Frobenius orbit at a time.  The curve's
coefficients live in a subfield F_r of the counting field, so x -> x^r fixes
the curve: it maps the points over x one-to-one onto the points over x^r and
preserves the quadratic character.  One representative row per orbit is
evaluated and weighted by the orbit size, about q/m rows for a curve over F_p
counted over F_{p^m}.  The orbits are walked on exponents: x = g^j has
x^r = g^(j r mod q - 1), so each orbit is handed to a kernel as the log of its
representative, and zero as -1.  The log-form kernels start from that log;
the others take x = g^j from the exp table.

A kernel takes the curve and the counting field and nothing else: the
verifiers in zeta pick each field and check the axis cap before they build
it.  The record's base is the curve's field F_r, and its degree is the
counting field's degree over F_r.  Each kernel does O(log q) field
operations per row; only a cover row whose R vanishes identically (a line
x = c inside the base quartic) is scanned over its q values of y.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from itertools import chain

from .errors import DegenerateInputError, ModelError, UnsupportedFieldError
from .fields import embedding
from .poly import (
    UniPoly,
    divmod_list,
    gcd_list,
    mul_list,
    powmod_list,
    trim,
    xq_mod_list,
)
from .ternary import TernaryForm, quadric_coefficients

@dataclass(frozen=True)
class CountRecord:
    model: str
    q: int  # base field size
    m: int  # extension degree counted over
    n: int  # number of points
    seconds: float = dc_field(compare=False, default=0.0)
    rows: int = dc_field(compare=False, default=0)  # x-rows evaluated, one per orbit

    @property
    def field_size(self) -> int:
        return self.q**self.m

    def weil_ok(self, genus: int) -> bool:
        qm = self.field_size
        return (self.n - qm - 1) ** 2 <= 4 * genus * genus * qm


def _require_odd_finite(field):
    if field.kind != "finite":
        raise UnsupportedFieldError("point counting needs a finite field")
    if field.p == 2:
        raise UnsupportedFieldError("even characteristic is excluded")


def _coerce_scalars(values, data_field, count_field):
    """Map coefficients living in data_field into count_field."""
    if data_field == count_field:
        return list(values)
    if data_field.kind != "finite":
        raise UnsupportedFieldError("cannot count a curve with rational coefficients")
    if data_field.p != count_field.p:
        raise UnsupportedFieldError("characteristic mismatch between curve and field")
    if data_field.k == 1:
        return list(values)  # packed prime-field values embed as themselves
    table = embedding(data_field, count_field)
    return [table[v] for v in values]


def _frobenius_orbits(data_field, field):
    """(log of representative, size) of each orbit of x -> x^r on the counting field.

    r is the size of data_field, where the curve's coefficients live.  The walk
    runs on exponents: x = g^j has x^r = g^(j r mod q - 1), so the orbits of
    F_q^* are the cosets j -> j r of Z/(q - 1), and no field power is taken.
    Zero is its own orbit and comes first as (-1, 1), -1 being the log of zero.
    Built on first use and cached on the counting field per r; for r = q every
    orbit is a single element.
    """
    r = data_field.q
    orbits = field._orbits.get(r)
    if orbits is None:
        qm1 = field.q - 1
        seen = bytearray(qm1)
        orbits = [(-1, 1)]
        for j in range(qm1):
            if not seen[j]:  # j is the least log in its orbit; mark the rest
                size, i = 1, j * r % qm1
                while i != j:
                    seen[i] = 1
                    size += 1
                    i = i * r % qm1
                orbits.append((j, size))
        orbits = field._orbits[r] = tuple(orbits)
    return orbits


# --- per-row root counting over y ----------------------------------------

def _rational_part(f, field):
    """Monic gcd(f, x^q - x), the product of f's distinct linear factors; deg f >= 2."""
    zero, one = field.zero, field.one
    g = xq_mod_list(f, field)
    g += [zero] * (2 - len(g))
    g[1] = field.sub(g[1], one)
    return gcd_list(f, trim(g, zero), field)


# --- discrete-log form: v = g^j is kept as j in [0, q - 1) and zero as -1 ---
# (fields._FiniteField.log_tables).  A product adds logs mod q - 1, a sum is
# one Zech lookup, -v adds (q - 1)/2, chi(v) = (-1)^j, and for even j g^(j/2)
# is a square root of v.

def _log_horner(lcs, lx, qm1, zech):
    """log of c(x) by Horner's rule, from lcs = the logs of c's coefficients,
    top first, and lx = log x; x != 0.

    Each step is acc x + c_i: times x adds lx, and plus c_i is one Zech
    lookup.  count_plane_quartic runs the same step inline.
    """
    acc = -1
    for t in lcs:
        if acc < 0:
            acc = t
        elif t < 0:
            acc = (acc + lx) % qm1
        else:
            z = zech[(t - acc - lx) % qm1]
            acc = -1 if z < 0 else (acc + lx + z) % qm1
    return acc


def _one_plus_chi(lv):
    """1 + chi(v) from the log of v: the number of y with y^2 = v."""
    return 1 if lv < 0 else 2 - 2 * (lv & 1)


def _low_degree_roots(f, field):
    """Distinct roots of a nonzero trimmed f of degree at most 2."""
    if len(f) == 1:
        return []
    if len(f) == 2:
        return [field.neg(field.div(f[0], f[1]))]
    c, b, a = f
    exp, log, _ = field.log_tables
    nh = field.neg(field.div(b, field.mul(field.from_int(2), a)))  # roots -h +- s
    ld = log[field.sub(field.mul(nh, nh), field.div(c, a))]  # s^2 = h^2 - c/a
    if ld < 0:
        return [nh]
    if ld & 1:
        return []
    s = exp[ld // 2]
    return [field.add(nh, s), field.sub(nh, s)]


def _split_roots(h, field):
    """Roots of a monic h that is a product of distinct linear factors.

    Above degree 2, h splits into gcd(h, (x + d)^((q-1)/2) - 1) and its
    cofactor for the first d = 0, 1, 2, ... that separates two roots
    (equal-degree splitting, Cantor & Zassenhaus, Math. Comp. 36, 1981), and
    both parts recurse.
    """
    if len(h) <= 3:
        return _low_degree_roots(h, field)
    zero, one = field.zero, field.one
    half = (field.q - 1) // 2
    for d in range(field.q):
        g = powmod_list([d, one], half, h, field) or [zero]
        g[0] = field.sub(g[0], one)
        g = gcd_list(h, trim(g, zero), field)
        if 1 < len(g) < len(h):
            return _split_roots(g, field) + _split_roots(divmod_list(h, g, field)[0], field)
    raise ArithmeticError("no splitting shift: h is not a product of distinct linear factors")


def count_plane_quartic(curve, field) -> CountRecord:
    """Exact number of projective points of the bielliptic quartic
    C: y^4 - h(x, z) y^2 + f(x, z) g(x, z) = 0.

    (0:1:0) is never on C, so C's points lie over the points [x:z] of P^1,
    one row each: the y with w^2 - h w + fg = 0, w = y^2.  The affine rows
    z = 1 come one per Frobenius orbit, x = infinity after them; x = 0 reads
    the constant coefficients of h and fg and x = infinity the top ones.
    """
    _require_odd_finite(field)
    q = field.q
    start = time.perf_counter()
    _, log, zech = field.log_tables
    qm1, half, l2 = q - 1, (q - 1) // 2, log[field.from_int(2)]
    # logs of the coefficients of h(x, 1) and fg(x, 1), top first
    lhs = [log[c] for c in _coerce_scalars(curve.h.coeffs, curve.field, field)]
    lcs = [log[c] for c in _coerce_scalars(curve.fg().coeffs, curve.field, field)]
    # x = 0 (log -1) reads the constant terms, and x = infinity, the sentinel
    # orbit (-2, 1) after the last one, reads the top terms
    ends = {-1: (lhs[-1], lcs[-1]), -2: (lhs[0], lcs[0])}
    orbits = _frobenius_orbits(curve.field, field)
    n = 0
    for lx, size in chain(orbits, ((-2, 1),)):
        if lx < 0:
            lh, lc = ends[lx]
        else:
            # Horner's rule on logs, the step of _log_horner inlined: two
            # calls per row cost about a tenth of a count over F_{23^3}
            lh = -1
            for t in lhs:
                if lh < 0:
                    lh = t
                elif t < 0:
                    lh = (lh + lx) % qm1
                else:
                    z = zech[(t - lh - lx) % qm1]
                    lh = -1 if z < 0 else (lh + lx + z) % qm1
            lc = -1
            for t in lcs:
                if lc < 0:
                    lc = t
                elif t < 0:
                    lc = (lc + lx) % qm1
                else:
                    z = zech[(t - lc - lx) % qm1]
                    lc = -1 if z < 0 else (lc + lx + z) % qm1
        # each root w of w^2 - h w + c gives 1 + chi(w) points y, chi(g^j) = (-1)^j
        if lc < 0:  # w (w - h)
            pts = 1 if lh < 0 else 3 - 2 * (lh & 1)
        else:
            lk = (lc + half) % qm1  # -c
            if lh < 0:  # w = +-s with s^2 = -c, log s = ls and log(-s) = ls + half
                ls = lk >> 1
                pts = 0 if lk & 1 else 4 - 2 * (ls & 1) - 2 * ((ls + half) & 1)
            else:
                # w = t +- s with t = h/2 and s^2 = t^2 - c = t^2 (1 + (-c)/t^2)
                lt = (lh - l2) % qm1
                z = zech[lk - 2 * lt % qm1]
                if z < 0:
                    pts = 2 - 2 * (lt & 1)
                else:
                    ld = (2 * lt + z) % qm1
                    if ld & 1:
                        pts = 0
                    else:
                        z1, z2 = zech[ld // 2 - lt], zech[ld // 2 + half - lt]
                        pts = ((1 if z1 < 0 else 2 - 2 * ((lt + z1) & 1))
                               + (1 if z2 < 0 else 2 - 2 * ((lt + z2) & 1)))
        n += size * pts
    return CountRecord("plane-quartic", curve.field.q, field.k // curve.field.k, n,
                       time.perf_counter() - start, len(orbits))


def count_weighted(poly: UniPoly, genus: int, field) -> CountRecord:
    """Points of y^2 = F(x) completed in P(1, g+1, 1).

    Homogenize F to degree 2g+2: the affine chart contributes
    sum_x (1 + chi(F(x))) and x = infinity contributes 1 + chi(top
    coefficient), the top coefficient being zero whenever deg F < 2g + 2.
    """
    _require_odd_finite(field)
    if poly.degree != float("-inf") and poly.degree > 2 * genus + 2:
        raise ModelError(f"degree {poly.degree} exceeds 2g+2 = {2 * genus + 2}")
    q = field.q
    start = time.perf_counter()
    zero = field.zero
    coeffs = _coerce_scalars(poly.coeffs, poly.field, field)
    _, log, zech = field.log_tables
    lcs = [log[c] for c in reversed(coeffs)]
    orbits = _frobenius_orbits(poly.field, field)
    n = _one_plus_chi(lcs[-1] if lcs else -1)  # x = 0, the first orbit
    for lx, size in orbits[1:]:
        n += size * _one_plus_chi(_log_horner(lcs, lx, q - 1, zech))
    top = coeffs[2 * genus + 2] if len(coeffs) > 2 * genus + 2 else zero
    n += _one_plus_chi(log[top])
    return CountRecord("weighted-hyperelliptic", poly.field.q, field.k // poly.field.k, n,
                       time.perf_counter() - start, len(orbits))


def count_bruin_cover(q1: TernaryForm, q2: TernaryForm, q3: TernaryForm, field):
    """(base count, cover count) for q2^2 = q1 q3 and its double cover, the
    q_i being quadrics (degree-2 TernaryForms).

    Fiber over a base point: 2 points when the first nonvanishing of (q1, q3)
    is a nonzero square, 0 when it is a nonsquare, 1 when q1 = q2 = q3 = 0.
    On each orbit row x the base points are the roots of the quartic
    R_x(y) = v2^2 - v1 v3 in the field, v_i(y) = q_i(x, y, 1), and the fiber
    is read off at each root; a row with R_x = 0 is scanned over y.  The
    cover itself is never enumerated in P^4.
    """
    _require_odd_finite(field)
    if any(quad.degree != 2 for quad in (q1, q2, q3)):
        raise ModelError("cover counting needs three degree-2 forms")
    if q1.is_zero() and q2.is_zero() and q3.is_zero():
        raise DegenerateInputError("all three quadratic forms are zero")
    q = field.q
    start = time.perf_counter()
    zero = field.zero
    add, mul, sub = field.add, field.mul, field.sub
    exp, log, _ = field.log_tables
    packs = []
    for quad in (q1, q2, q3):
        cs = _coerce_scalars(quadric_coefficients(quad), quad.field, field)
        packs.append(cs)  # (x^2, y^2, z^2, xy, xz, yz)
    # a curve is Frobenius-stable over the field its three forms share
    data_field = q1.field if q1.field == q2.field == q3.field else field
    orbits = _frobenius_orbits(data_field, field)

    def fiber(v1, v3):
        # 1 where v1 = v3 = 0, since v2^2 = v1 v3 forces v2 = 0 too
        return _one_plus_chi(log[v1 or v3])

    def value(v, y):
        return add(mul(add(mul(v[2], y), v[1]), y), v[0])

    nz = 0
    ny = 0
    for lx, size in orbits:
        x = exp[lx] if lx >= 0 else zero
        x2 = mul(x, x)
        # v_i(y) = b y^2 + (d x + f) y + (a x^2 + e x + c), constant first
        v1, v2, v3 = ([add(add(mul(a, x2), mul(e, x)), c), add(mul(d, x), f), b]
                      for (a, b, c, d, e, f) in packs)
        r = trim([sub(s, t) for s, t in zip(mul_list(v2, v2, field),
                                            mul_list(v1, v3, field))], zero)
        if not r:
            ys = range(q)  # the line x = const lies inside the base quartic
        elif len(r) <= 3:
            ys = _low_degree_roots(r, field)
        else:
            ys = _split_roots(_rational_part(r, field), field)
        row_z = len(ys)
        row_y = sum(fiber(value(v1, y), value(v3, y)) for y in ys)
        # line z = 0, y = 1: q_i(x, 1, 0) = a x^2 + d x + b
        v1, v2, v3 = (add(add(mul(a, x2), mul(d, x)), b) for (a, b, c, d, e, f) in packs)
        if sub(mul(v2, v2), mul(v1, v3)) == zero:
            row_z += 1
            row_y += fiber(v1, v3)
        nz += size * row_z
        ny += size * row_y
    # the point (1:0:0): q_i = a_i
    v1, v2, v3 = packs[0][0], packs[1][0], packs[2][0]
    if sub(mul(v2, v2), mul(v1, v3)) == zero:
        nz += 1
        ny += fiber(v1, v3)
    seconds = time.perf_counter() - start
    r, m = data_field.q, field.k // data_field.k
    return (
        CountRecord("plane-quartic", r, m, nz, seconds, len(orbits)),
        CountRecord("bruin-cover", r, m, ny, seconds, len(orbits)),
    )
