"""Exact point counts for every curve model used by the verification layer.

Three counters, all exact:

* the bielliptic quartic y^4 - h y^2 + fg in P^2: (0:1:0) is never on it, so
  its points lie over the points [x:z] of P^1, and each such row is the
  quadratic w^2 - h w + fg in w = y^2.  One comprehension runs every row: two
  Horner steps on logs for each of f, g and h, and #{y} read from a table
  indexed by log(fg / h^2) and the parity of log h (_plane_rows).  The rows
  where that read is wrong, and x = infinity, solve the quadratic in w by
  the cover rows' quadratic formula (_LogPolys.low_roots).
* hyperelliptic-type models y^2 = F(x) in P(1, g+1, 1): character sums over
  the x-line, F evaluated column-wise by _log_values and 1 + chi
  read at the relative log from a per-count table whose halves follow the
  parity of the base, plus the points above x = infinity read off the
  degree-(2g+2) homogenization.
* the double cover q1 = u^2, q2 = uv, q3 = v^2 of the plane quartic
  base = q2^2 - q1 q3 (ternary.cover_quartic): on a row the three forms are
  quadratics v_i(y), and the base points are the roots of
  R(y) = base(x, y, 1) = v2^2 - v1 v3 in the field.  R's five coefficients
  and the x-parts of v1 and v3 come from the same column-wise Horner's rule;
  a row solves R by the quadratic formula up to degree 2, and above it
  splits gcd(R, y^q - y) by Cantor-Zassenhaus, all on logs (_LogPolys), and
  evaluates v1 and v3 at each root by Zech lookups.  The fiber over a base
  point has 1 + chi(q1) points (or 1 + chi(q3) when q1 vanishes), and 1
  exactly where all three quadrics vanish, so the genus-5 curve is never
  enumerated in P^4.

Every kernel walks the x-axis one Frobenius orbit at a time.  The curve's
coefficients live in a subfield F_r of the counting field, so x -> x^r fixes
the curve: it maps the points over x one-to-one onto the points over x^r and
preserves the quadratic character.  One representative row per orbit is
evaluated and weighted by the orbit size, about q/m rows for a curve over F_p
counted over F_{p^m}.  The orbits are walked on exponents: x = g^j has
x^r = g^(j r mod q - 1), so the orbits are handed to a kernel as two lists,
the logs of their representatives (zero as -1) and their sizes.

A kernel takes the curve and the counting field and nothing else: the
verifiers in zeta pick each field and check the axis cap before they build
it.  The record's base is the curve's field F_r, and its degree is the
counting field's degree over F_r.  Each kernel does O(log q) log-table
lookups per row; only a cover row whose R vanishes identically (a line
x = c inside the base quartic) is scanned over its q values of y.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field

from .errors import DegenerateInputError, ModelError, UnsupportedFieldError
from .fields import embedding
from .poly import UniPoly, trim
from .ternary import TernaryForm, cover_quartic, quadric_coefficients

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


def _require_finite(field):
    """Point counting needs a finite field; every finite field is odd, since
    the field constructors refuse characteristic 2."""
    if field.kind != "finite":
        raise UnsupportedFieldError("point counting needs a finite field")


def _coerce_scalars(values, curve_field, count_field):
    """The logs in count_field (zero as -1) of coefficients living in
    curve_field."""
    if curve_field != count_field:
        if curve_field.kind != "finite":
            raise UnsupportedFieldError("cannot count a curve with rational coefficients")
        if curve_field.p != count_field.p:
            raise UnsupportedFieldError("characteristic mismatch between curve and field")
        if curve_field.k > 1:  # packed prime-field values embed as themselves
            table = embedding(curve_field, count_field)
            values = [table[v] for v in values]
    log = count_field.log_tables[1]
    return [log[v] for v in values]


def _frobenius_orbits(curve_field, field):
    """(reps, sizes): the log of each orbit's representative and the orbit's
    size, for the orbits of x -> x^r on the counting field.

    r is the size of curve_field, where the curve's coefficients live.  The walk
    runs on exponents: x = g^j has x^r = g^(j r mod q - 1), so the orbits of
    F_q^* are the cosets j -> j r of Z/(q - 1), and no field power is taken.
    Zero is its own orbit and comes first as log -1, size 1, and the orbits
    come shortest first (by size, then by least log), so that all but the few
    in proper subfields form one final block of size m = [F_q : F_r]
    (_weighted_total).  Built on first use and cached on the counting field
    per r as two flat lists, so the cache holds no per-orbit objects; for
    r = q every orbit is a single element.
    """
    r = curve_field.q
    orbits = field._orbits.get(r)
    if orbits is None:
        qm1 = field.q - 1
        seen = bytearray(qm1)
        by_size = {1: [-1]}
        for j in range(qm1):
            if not seen[j]:  # j is the least log in its orbit; mark the rest
                size, i = 1, j * r % qm1
                while i != j:
                    seen[i] = 1
                    size += 1
                    i = i * r % qm1
                by_size.setdefault(size, []).append(j)
        reps, sizes = [], []
        for size in sorted(by_size):
            reps += by_size[size]
            sizes += [size] * len(by_size[size])
        orbits = field._orbits[r] = (reps, sizes)
    return orbits


# --- discrete-log form: v = g^j is kept as j in [0, q - 1) and zero as -1 ---
# (fields._FiniteField.log_tables).  A product adds logs mod q - 1, a sum is
# one Zech lookup, -v adds (q - 1)/2, chi(v) = (-1)^j, and for even j g^(j/2)
# is a square root of v.  The column-wise passes of _log_values keep a list of
# values as one base t and logs r relative to it, v = g^(t + r): q - 1 is
# even, so chi(v) is the parity of t + r, and the Zech table is twice q - 1
# long so that a relative step indexes it without a %.

def _log_values(lcs, reps, qm1, zech):
    """(t, rs): c(x) = g^(t + rs[i]) at the i-th x of reps, and rs[i] = -1
    where c(x) = 0, by Horner's rule column-wise.

    lcs are the logs of c's coefficients, top first, reps the logs of the x,
    reps[0] being -1 (x = 0) as _frobenius_orbits gives them, and zech the
    field's Zech table, 2 (q - 1) long.  Each coefficient is one pass over
    the whole list, acc x + c_i with times x adding lx and plus c_i one Zech
    lookup, so there is no function call or inner loop per x.  It is the
    exact Horner on logs (zero as -1), used by count_weighted, the cover
    kernel's columns and the plane rows that _plane_rows recounts; the other
    plane rows read _horner_steps' step tables.  The base t is the log of
    the last nonzero coefficient passed (0 before the first): with v = g^(t + r),
    v x + g^t' = g^t' (1 + g^(r + lx + t - t')), so the step to a nonzero
    t' is r' = zech[r + lx + d] for the one d = ((t - t') mod (q - 1)) - (q - 1)
    of the pass.  r + lx + d lies in [-q, 2 (q - 1) - 3], inside the doubled
    table, so the step takes no % and each r' is an entry of zech, not a new
    int.  A zero value restarts at r' = 0, and a zero t' adds lx and keeps
    the base.  Entry 0 is the constant term.
    """
    if not lcs:
        return 0, [-1] * len(reps)
    t = max(lcs[0], 0)
    rs = [-1 if lcs[0] < 0 else 0] * len(reps)
    for t1 in lcs[1:]:
        if t1 < 0:
            rs = [-1 if r < 0 else (r + lx) % qm1 for r, lx in zip(rs, reps)]
        else:
            d = (t - t1) % qm1 - qm1
            rs = [0 if r < 0 else zech[r + lx + d] for r, lx in zip(rs, reps)]
            t = t1
    rs[0] = -1 if lcs[-1] < 0 else 0  # x = 0, where the passes above ran on the log -1
    return t, rs


def _weighted_total(sizes, counts, m):
    """sum(size * count) over the orbits: every orbit from sizes.index(m) on
    has size m, so a count is summed once, and only the short orbits before
    that, the ones in proper subfields, are weighted row by row."""
    short = sizes[:sizes.index(m)]
    return m * sum(counts) - sum((m - size) * n for size, n in zip(short, counts))


def _log_sum(u, v, qm1, zech):
    """log(a + b) from u = log a and v = log b."""
    if u < 0:
        return v
    if v < 0:
        return u
    z = zech[(v - u) % qm1]
    return -1 if z < 0 else (u + z) % qm1


def _one_plus_chi(lv):
    """1 + chi(v) from the log of v: the number of y with y^2 = v."""
    return 1 if lv < 0 else 2 - 2 * (lv & 1)


def _row_table(field):
    """#{y : y^4 - h y^2 + c = 0} for h, c != 0, indexed by
    log(c / h^2) + (q - 1) (log h & 1); built on first use and cached on the
    field as 2 (q - 1) bytes.  A count reads it through a copy rotated for
    its bases (_row_halves); a row where h or c vanishes is solved by
    _row_count instead.

    Put w = h om: then w^2 - h w + c = 0 is om (1 - om) = c / h^2, whose roots
    om and 1 - om are nonzero and not 1, and a root w gives
    1 + chi(w) = 1 + chi(h) chi(om) points y.  So one walk over
    om = g^j in F_q^* minus {1}, one Zech lookup each, adds 2 at the entry of
    om (1 - om) for the parity of log h that makes chi(h) chi(om) = 1.
    """
    rows = field._rows
    if rows is None:
        zech = field.log_tables[2]
        qm1 = field.q - 1
        half = qm1 // 2
        table = bytearray(2 * qm1)
        for j in range(1, qm1):  # log(1 - om) = zech[log(-om)]
            table[(j + zech[(j + half) % qm1]) % qm1 + (j & 1) * qm1] += 2
        rows = field._rows = bytes(table)
    return rows


def _row_halves(rows, k, th, n):
    """rows = _row_table(field) as tabs[lh & 1][i] for log(c / h^2) = k + i and
    log h = th + lh: each half rotated by k, swapped for an odd th, n times over."""
    qm1 = len(rows) // 2
    even, odd = ((rows[o + k:o + qm1] + rows[o:o + k]) * n for o in (0, qm1))
    return (odd, even) if th & 1 else (even, odd)


def _row_count(lh, lc, ops):
    """#{y : y^4 - h y^2 + c = 0} for one row, from lh = log h and lc = log c
    (zero as -1, any other log unreduced), ops being the field's _LogPolys:
    each distinct root w of w^2 - h w + c, by the quadratic formula, gives
    1 + chi(w) values of y = sqrt(w)."""
    return sum(_one_plus_chi(w) for w in ops.low_roots([lc, lh if lh < 0 else lh + ops.half, 0]))


class _LogPolys:
    """Polynomials over F_q on discrete logs, for the rows of the cover kernel.

    A polynomial is a constant-first list of coefficient logs with no trailing
    -1 ([] is zero), and every modulus is monic (top log 0).  Multiplying two
    coefficients adds their logs mod q - 1, adding them is one Zech lookup,
    and -c adds (q - 1)/2 to log c; c^p is p log c, so the Frobenius map costs
    no field power.
    """

    __slots__ = ("p", "k", "qm1", "half", "l2", "zech")

    def __init__(self, field):
        _, log, self.zech = field.log_tables
        self.p, self.k = field.p, field.k
        self.qm1 = field.q - 1
        self.half = self.qm1 // 2
        self.l2 = log[field.from_int(2)]

    def monic(self, f):
        lead, qm1 = f[-1], self.qm1
        return [c if c < 0 else (c - lead) % qm1 for c in f]

    def add_scaled(self, acc, off, c, row):
        """acc[off + j] += g^c row[j] for every j, in place: one Zech add each."""
        qm1, zech = self.qm1, self.zech
        for j, t in enumerate(row, off):
            if t >= 0:
                t += c
                s = acc[j]
                if s < 0:
                    acc[j] = t % qm1
                else:
                    z = zech[(t - s) % qm1]
                    acc[j] = -1 if z < 0 else (s + z) % qm1

    def divmod(self, a, f):
        """(quotient, remainder) of a by the monic f."""
        n = len(f) - 1
        rem = list(a)
        quo = [-1] * (len(rem) - n)
        low = f[:-1]
        for i in range(len(rem) - 1, n - 1, -1):
            c = rem[i]
            if c >= 0:  # subtract c y^(i - n) f; rem[i] itself cancels
                quo[i - n] = c
                self.add_scaled(rem, i - n, c + self.half, low)
        del rem[n:]
        return quo, trim(rem, -1)

    def mulmod(self, a, b, f):
        """a b mod the monic f."""
        if not a or not b:
            return []
        prod = [-1] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u >= 0:
                self.add_scaled(prod, i, u, b)
        return prod if len(prod) < len(f) else self.divmod(prod, f)[1]

    def pow_linear(self, ld, e, f):
        """(y + g^ld)^e mod the monic f of degree n >= 1, for e >= 1 (ld = -1
        for y^e), by square-and-multiply from the top bit of e.

        It starts from y + g^ld itself, so the top bit costs no squaring, and
        a multiplication by y + g^ld is a shift plus one add_scaled; a zero
        power stays zero.
        """
        n = len(f) - 1
        a = [ld, 0] if n > 1 else self.divmod([ld, 0], f)[1]
        for bit in bin(e)[3:]:
            a = self.mulmod(a, a, f)
            if bit == "1" and a:
                shifted = [-1] + a
                if ld >= 0:
                    self.add_scaled(shifted, 0, ld, a)
                a = shifted if len(shifted) <= n else self.divmod(shifted, f)[1]
        return a

    def gcd(self, a, b):
        """Monic gcd of a nonzero a and b, by the Euclidean algorithm."""
        while b:
            if len(b) == 1:
                return [0]
            b = self.monic(b)
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def xq(self, f):
        """y^q mod the monic f of degree n >= 1.

        y^p is pow_linear(-1, p, f).  Then g^p = sum g_i^p y^(ip) in
        characteristic p, so with the rows y^(ip) mod f (i < n) each of the
        k - 1 steps from y^p to y^q is a Frobenius on the coefficient logs and
        an n-by-n product.
        """
        qm1, p = self.qm1, self.p
        n = len(f) - 1
        yp = self.pow_linear(-1, p, f)
        if self.k == 1:
            return yp
        rows = [[0], yp]
        for _ in range(n - 2):
            rows.append(self.mulmod(rows[-1], yp, f))
        g = yp
        for _ in range(self.k - 1):
            acc = [-1] * n
            for c, row in zip(g, rows):
                if c >= 0:
                    self.add_scaled(acc, 0, c * p % qm1, row)
            g = trim(acc, -1)
        return g

    def low_roots(self, f):
        """Distinct roots, as logs, of a monic f of degree at most 2."""
        qm1, half, zech = self.qm1, self.half, self.zech
        if len(f) == 1:
            return []
        if len(f) == 2:
            return [-1 if f[0] < 0 else (f[0] + half) % qm1]
        # y^2 + b y + c has the roots t +- s, t = -b/2 and s^2 = t^2 - c
        lc, lb = f[0], f[1]
        lt = -1 if lb < 0 else (lb + half - self.l2) % qm1
        ld = _log_sum(-1 if lt < 0 else 2 * lt % qm1, -1 if lc < 0 else (lc + half) % qm1,
                      qm1, zech)
        if ld < 0:
            return [lt]
        if ld & 1:
            return []
        ls = ld >> 1
        return [_log_sum(lt, ls, qm1, zech), _log_sum(lt, (ls + half) % qm1, qm1, zech)]

    def split(self, h):
        """Roots of a monic h that is a product of distinct linear factors.

        Above degree 2, h splits into gcd(h, (y + d)^((q-1)/2) - 1) and its
        cofactor for the first d = 0, 1, g, g^2, ... that separates two roots
        (equal-degree splitting, Cantor & Zassenhaus, Math. Comp. 36, 1981),
        and both parts recurse; (y + d)^((q-1)/2) mod h is pow_linear.
        """
        if len(h) <= 3:
            return self.low_roots(h)
        qm1, half = self.qm1, self.half
        for ld in range(-1, qm1):
            g = self.pow_linear(ld, half, h)  # nonzero: h has no repeated root
            g[0] = _log_sum(g[0], half, qm1, self.zech)  # minus 1
            g = self.gcd(h, trim(g, -1))
            if 1 < len(g) < len(h):
                return self.split(g) + self.split(self.divmod(h, g)[0])
        raise ArithmeticError("no splitting shift: h is not a product of distinct linear factors")

    def roots(self, f):
        """Distinct roots in F_q, as logs, of a monic f: the quadratic formula
        up to degree 2, and the split of gcd(f, y^q - y) above it."""
        if len(f) <= 3:
            return self.low_roots(f)
        g = self.xq(f)
        g += [-1] * (2 - len(g))
        g[1] = _log_sum(g[1], self.half, self.qm1, self.zech)  # minus y
        return self.split(self.gcd(f, trim(g, -1)))


def _horner_steps(lcs, qm1, zech):
    """(t, T1, d1, T2, d2, hi): the quadratic with coefficient logs lcs, top first,
    is g^(t + r) at x = g^lx, r = T2[T1[lx + d1] + lx + d2], unless x = 0 or a x + b
    or the value vanishes; -2 <= r <= hi at every lx.  A step is a Zech lookup as
    in _log_values, an identity range (r + lx) to a zero coefficient, and a
    zeroed bytes (r = 0) while the prefix is zero, so no index leaves its table."""
    t, steps, hi = (lcs[0] if lcs[0] >= 0 else None), [], 0
    for lc in lcs[1:]:
        if t is None:
            steps += (bytes(qm1), 0)
            t = lc if lc >= 0 else None
        elif lc < 0:
            steps += (range(-2, 2 * qm1), 2)  # r + lx, for r + lx >= -2
            hi += qm1 - 1
        else:
            steps += (zech, (t - lc) % qm1 - qm1)
            t, hi = lc, qm1 - 1
    return (t or 0, *steps, hi)


def _orbit_row(j, r, qm1, reps, sizes):
    """The row of (reps, sizes), sorted by size, then log, that holds x = g^j, j >= 0."""
    rep, size, i = j, 1, j * r % qm1
    while i != j:
        rep, size, i = min(rep, i), size + 1, i * r % qm1
    lo = bisect_left(sizes, size)
    return bisect_left(reps, rep, lo, bisect_right(sizes, size, lo))


def _plane_rows(lfs, lgs, lhs, curve_field, field, ops):
    """#{y : y^4 - h y^2 + fg = 0} on each row of _frobenius_orbits, from the logs
    in field, top first, of f, g and h (ops: the field's _LogPolys).  With
    log f = tf + lf (_horner_steps) and so on, a row reads _row_halves for
    k = tf + tg - 2 th at lf + lg - 2 lh.  That is wrong only at x = 0 and where a
    prefix, a x + b or f, g or h, vanishes: those roots' rows (_orbit_row) are
    recounted by _row_count, and every row is when f, g or h is zero."""
    qm1, zech = ops.qm1, ops.zech
    reps, sizes = _frobenius_orbits(curve_field, field)
    (tf, F1, f1, F2, f2, fhi), (tg, G1, g1, G2, g2, ghi), (th, H1, h1, H2, h2, hhi) = (
        _horner_steps(ls, qm1, zech) for ls in (lfs, lgs, lhs))
    n = -(-max(fhi + ghi + 5, 2 * hhi + 4) // qm1)  # halves long enough for every index
    tabs = _row_halves(_row_table(field), (tf + tg - 2 * th) % qm1, th, n)
    counts = [tabs[(lh := H2[H1[lx + h1] + lx + h2]) & 1][
        F2[F1[lx + f1] + lx + f2] + G2[G1[lx + g1] + lx + g2] - lh - lh] for lx in reps]
    bad = range(len(reps))  # every row when f, g or h is zero
    if min(map(max, (lfs, lgs, lhs))) >= 0:
        # the roots of a x + b and of a x^2 + b x + c, for each of f, g and h
        prefixes = [trim(p, -1) for a, b, c in (lfs, lgs, lhs) for p in ([b, a], [c, b, a])]
        roots = {j for p in prefixes if p for j in ops.low_roots(ops.monic(p)) if j >= 0}
        bad = sorted({0} | {_orbit_row(j, curve_field.q, qm1, reps, sizes) for j in roots})
    xs = [reps[i] for i in bad]  # x = 0 first, as _log_values takes it
    (tf, fs), (tg, gs), (th, hs) = (_log_values(ls, xs, qm1, zech) for ls in (lfs, lgs, lhs))
    for i, lf, lg, lh in zip(bad, fs, gs, hs):
        lc = -1 if lf < 0 or lg < 0 else lf + lg + tf + tg
        counts[i] = _row_count(lh if lh < 0 else lh + th, lc, ops)
    return counts


def count_plane_quartic(curve, field) -> CountRecord:
    """Exact number of projective points of the bielliptic quartic
    C: y^4 - h(x, z) y^2 + f(x, z) g(x, z) = 0.

    (0:1:0) is never on C, so C's points lie over the points [x:z] of P^1,
    one row each: the y with w^2 - h w + fg = 0, w = y^2.  The affine rows
    z = 1 come one per Frobenius orbit (_plane_rows), x = infinity after
    them, reading the top coefficients of h and fg.
    """
    _require_finite(field)
    start = time.perf_counter()
    ops = _LogPolys(field)
    lfs, lgs, lhs = (_coerce_scalars(form.coeffs, curve.field, field)
                     for form in (curve.f, curve.g, curve.h))
    counts = _plane_rows(lfs, lgs, lhs, curve.field, field, ops)
    m = field.k // curve.field.k
    n = _weighted_total(_frobenius_orbits(curve.field, field)[1], counts, m)
    n += _row_count(lhs[0], -1 if lfs[0] < 0 or lgs[0] < 0 else lfs[0] + lgs[0], ops)
    return CountRecord("plane-quartic", curve.field.q, m, n, time.perf_counter() - start,
                       len(counts))


def count_weighted(poly: UniPoly, genus: int, field) -> CountRecord:
    """Points of y^2 = F(x) completed in P(1, g+1, 1).

    Homogenize F to degree 2g+2: the affine chart contributes
    sum_x (1 + chi(F(x))) and x = infinity contributes 1 + chi(top
    coefficient), the top coefficient being zero whenever deg F < 2g + 2.
    F(x) = g^(t + r) comes from _log_values, and 1 + chi is read at r from a
    table built per count, q bytes: 2, 0, 2, 0, ... for an even t and
    0, 2, 0, 2, ... for an odd one, q - 1 being even, and a final 1 that
    r = -1 (F(x) = 0) reads.
    """
    _require_finite(field)
    if poly.degree > 2 * genus + 2:
        raise ModelError(f"degree {poly.degree} exceeds 2g+2 = {2 * genus + 2}")
    start = time.perf_counter()
    lcs = _coerce_scalars(poly.coeffs, poly.field, field)
    reps, sizes = _frobenius_orbits(poly.field, field)
    m = field.k // poly.field.k
    t, rs = _log_values(lcs[::-1], reps, field.q - 1, field.log_tables[2])
    # 1 + chi(F(x)) at index r = log F(x) - t: the halves swap with the parity
    # of t, and r = -1 (F(x) = 0) reads the final 1
    table = (b"\x00\x02" if t & 1 else b"\x02\x00") * ((field.q - 1) // 2) + b"\x01"
    n = _weighted_total(sizes, [table[r] for r in rs], m)
    n += _one_plus_chi(lcs[2 * genus + 2] if len(lcs) > 2 * genus + 2 else -1)
    return CountRecord("weighted-hyperelliptic", poly.field.q, m, n, time.perf_counter() - start,
                       len(reps))


def _fiber(v1, v3, ly, qm1, zech):
    """The cover points over the base point y = g^ly of a row, from the logs
    of the coefficients, top first, of the row's quadratics v1 and v3:
    1 + chi(v1(y)), or 1 + chi(v3(y)) where v1(y) = 0, and 1 where both
    vanish, since v2^2 = v1 v3 forces v2 = 0 too.  Each a y^2 + b y + c is
    two _log_sums, which reduce their arguments, so the logs may come
    unreduced."""
    for la, lb, lc in (v1, v3):
        if ly >= 0:
            lc = _log_sum(_log_sum(la if la < 0 else la + 2 * ly, lb if lb < 0 else lb + ly,
                                   qm1, zech), lc, qm1, zech)
        if lc >= 0:
            return _one_plus_chi(lc)
    return 1


def count_bruin_cover(q1: TernaryForm, q2: TernaryForm, q3: TernaryForm, field):
    """(base count, cover count) for q2^2 = q1 q3 and its double cover, the
    q_i being quadrics (degree-2 TernaryForms) over one field F_r, a subfield
    of the counting field; forms over different fields are refused.

    Fiber over a base point: 2 points when the first nonvanishing of (q1, q3)
    is a nonzero square, 0 when it is a nonsquare, 1 when q1 = q2 = q3 = 0.
    On each orbit row x the base points are the roots of the quartic
    R_x(y) = base(x, y, 1) in the field, base = cover_quartic(q1, q2, q3), and
    the fiber is read off at each root from v_i(y) = q_i(x, y, 1); a row with
    R_x = 0 is scanned over y, and a base that vanishes identically refused.
    All of it runs on logs, and the cover itself is never enumerated in P^4.
    """
    _require_finite(field)
    if any(quad.degree != 2 for quad in (q1, q2, q3)):
        raise ModelError("cover counting needs three degree-2 forms")
    curve_field = q1.field
    start = time.perf_counter()
    base = cover_quartic(q1, q2, q3)  # raises on forms over different fields
    if base.is_zero():  # else every row is scanned over all q values of y
        raise DegenerateInputError("q2^2 - q1 q3 vanishes identically")
    ops = _LogPolys(field)
    zech, qm1 = ops.zech, ops.qm1
    reps, sizes = _frobenius_orbits(curve_field, field)
    # logs, top first, of each r_j in R_x(y) = sum_j r_j(x) y^j, and of the
    # line base(x, 1, 0), whose x^i coefficient is that of x^i y^(4-i)
    lrs = [_coerce_scalars([base.coeff((i, j, 4 - i - j)) for i in range(4 - j, -1, -1)],
                           curve_field, field) for j in range(5)]
    lline = _coerce_scalars([base.coeff((i, 4 - i, 0)) for i in range(4, -1, -1)],
                            curve_field, field)
    # for q1 and q3: v_i(y) = b y^2 + D y + C with D = d x + f and
    # C = a x^2 + e x + c, and q_i(x, 1, 0) = a x^2 + d x + b
    (a1, b1, c1, d1, e1, f1), (a3, b3, c3, d3, e3, f3) = (
        _coerce_scalars(quadric_coefficients(quad), curve_field, field) for quad in (q1, q3))
    # each column stays as _log_values gives it, a base and logs relative to
    # it, so that it holds Zech entries and no new ints; a row adds the base
    columns = [_log_values(lcs, reps, qm1, zech)
               for lcs in (*lrs, lline, [d1, f1], [a1, e1, c1], [d3, f3], [a3, e3, c3])]
    bases = [t for t, _ in columns]
    base_rows, cover_rows = [], []
    for lx, *row in zip(reps, *(rs for _, rs in columns)):
        *r, lz, ld1, lc1, ld3, lc3 = [u if u < 0 else t + u for t, u in zip(bases, row)]
        trim(r, -1)
        # every y when the line x = const lies inside the base quartic
        ys = ops.roots(ops.monic(r)) if r else range(-1, qm1)
        row_z = len(ys)
        row_y = sum(_fiber((b1, ld1, lc1), (b3, ld3, lc3), ly, qm1, zech) for ly in ys)
        if lz < 0:  # the point (x:1:0)
            row_z += 1
            row_y += _fiber((a1, d1, b1), (a3, d3, b3), lx, qm1, zech)
        base_rows.append(row_z)
        cover_rows.append(row_y)
    r, m = curve_field.q, field.k // curve_field.k
    nz, ny = _weighted_total(sizes, base_rows, m), _weighted_total(sizes, cover_rows, m)
    if lline[0] < 0:  # the point (1:0:0), where q_i = a_i
        nz += 1
        ny += _one_plus_chi(a1 if a1 >= 0 else a3)
    seconds = time.perf_counter() - start
    return (
        CountRecord("plane-quartic", r, m, nz, seconds, len(reps)),
        CountRecord("bruin-cover", r, m, ny, seconds, len(reps)),
    )
