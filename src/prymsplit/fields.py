"""Exact coefficient fields: the rationals, prime fields, and small extensions.

Elements are plain Python values, not wrapper objects: Fraction for the
rationals, and ints in [0, q) for finite fields.  An extension-field element
packs its coefficient vector over F_p in base p (value = sum c_i * p**i), so
the embedding F_p -> F_{p^k} is the identity on representatives.  All
operations go through the owning field object; none of this ever touches
floating point.

Every finite field has exp/log tables for a fixed generator of F_q^* plus a
Zech logarithm table.  Extension fields ride them for every operation, O(1)
lookups each; prime fields keep int arithmetic and build them on first use.
An extension field's exp table is built a block of powers at a time:
multiplication by a fixed element is F_p-linear on digit vectors, so one
k x k matrix carries a whole block of digit columns to the next.
The counting kernels keep a row's values as logs, so a product is an addition
and a sum one Zech lookup: that keeps them fast enough in pure Python.  The
quadratic character is read from the same log table: g^j is a square exactly
when j is even.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InvalidFieldError, UnsupportedFieldError
from .poly import eval_list, gcd_list, mulmod_list, powmod_list, trim

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base above
_PRIME_BOUND = 3317044064679887385961981
RANDOM_RATIONAL_SPAN = 10  # random rationals are the integers in [-10, 10]


def is_prime(n: int) -> bool:
    """Whether n is a prime below _PRIME_BOUND (about 3.3e24), by Miller-Rabin
    to the bases _MR_BASES, which is exact below that bound."""
    if n < 2 or n >= _PRIME_BOUND:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The rationals; elements are reduced Fractions with positive denominator."""

    kind = "rationals"
    p = None
    k = 1
    q = None
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sub_scaled(self, row, f, src, cols):
        """row[j] -= f src[j] for j in cols, in place (linalg._eliminate)."""
        sub, mul = self.sub, self.mul
        for j in cols:
            row[j] = sub(row[j], mul(f, src[j]))

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.one / a

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def pow(self, a, e):
        if e < 0:
            return self.inv(a) ** (-e)
        return a**e

    def random_element(self, rng):
        return Fraction(rng.randint(-RANDOM_RATIONAL_SPAN, RANDOM_RATIONAL_SPAN))

    def describe(self) -> dict:
        return {"kind": self.kind}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class _FiniteField:
    """Shared behaviour for prime and extension fields.

    The constructor checks p once; subclasses set k, q and modulus and
    provide the four ring operations and _build_log_tables.  The exp/log/Zech
    tables serve the counting kernels and chi(); the Zech table is 2 (q - 1)
    long, its q - 1 entries written twice (see _set_log_tables).  The
    square-root and quadratic-character tables, built lazily from mul, are
    read by no code in this package, only by perfbench's warm-up and tracer.
    All are cached on the field object (fields themselves are cached, see
    build_extension),
    as are the Frobenius orbits the counting kernels walk and the bielliptic
    kernel's row table (_rows, 2 (q - 1) bytes).  x -> x^r acts on the log j
    of x = g^j as j -> j r mod q - 1, so the orbits are kept as two flat
    lists: the logs of their representatives and their sizes.
    """

    kind = "finite"
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p == 2:
            raise InvalidFieldError("characteristic 2 is excluded")
        if p >= _PRIME_BOUND:
            raise InvalidFieldError(f"p must be below {_PRIME_BOUND}, where primality is exact")
        if not is_prime(p):
            raise InvalidFieldError(f"{p} is not prime")
        self.p = p
        self._sqrt_table = None
        self._chi_table = None
        self._exp = None
        self._orbits = {}  # r -> (reps, sizes), see counting._frobenius_orbits
        self._rows = None  # the bielliptic row counts, see counting._row_table

    def _set_log_tables(self, exp):
        """log and Zech tables from exp[i] = g^i, g a generator of F_q^*.

        zech[d] = log(1 + g^d), and -1 stands for zero: log[0] = -1, and
        zech[d] = -1 where 1 + g^d = 0.  Adding one to a packed value only
        touches its low base-p digit.  zech holds its q - 1 entries twice, so
        any d in [-2 (q - 1), 2 (q - 1)) indexes it unreduced (a negative d
        from the end): the Horner passes of counting._log_values take no %.
        """
        q, pm1 = self.q, self.p - 1
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        zech = [log[v + 1 if v % self.p != pm1 else v - pm1] for v in exp]
        self._zech = zech + zech
        self._exp, self._log, self._qm1, self._half = exp, log, q - 1, (q - 1) // 2

    @property
    def log_tables(self):
        """(exp, log, zech), see _set_log_tables; built on first use."""
        if self._exp is None:
            self._build_log_tables()
        return self._exp, self._log, self._zech

    @property
    def char(self):
        return self.p

    def from_int(self, n):
        return n % self.p

    def random_element(self, rng):
        return rng.randrange(self.q)

    def random_nonzero(self, rng):
        return rng.randrange(1, self.q)

    sub_scaled = RationalField.sub_scaled  # by sub and mul; PrimeField's is inline

    def _build_square_tables(self):
        sqrt = [-1] * self.q
        mul = self.mul
        for t in range(self.q):
            s = mul(t, t)
            if sqrt[s] < 0:
                sqrt[s] = t
        chi = [1 if sqrt[v] >= 0 else -1 for v in range(self.q)]
        chi[0] = 0
        self._sqrt_table = sqrt
        self._chi_table = chi

    @property
    def sqrt_table(self):
        if self._sqrt_table is None:
            self._build_square_tables()
        return self._sqrt_table

    @property
    def chi_table(self):
        if self._chi_table is None:
            self._build_square_tables()
        return self._chi_table

    def chi(self, a) -> int:
        """Quadratic character: 0 on zero, +1 on nonzero squares, -1 otherwise.

        g^j is a square exactly when j is even, g a generator of F_q^*."""
        if a == 0:
            return 0
        return 1 - 2 * (self.log_tables[1][a] & 1)

    def euler_character(self, a) -> int:
        """chi computed as a^((q-1)/2), the definition chi() must match."""
        if a == 0:
            return 0
        v = self.pow(a, (self.q - 1) // 2)
        return 1 if v == self.one else -1


class PrimeField(_FiniteField):
    """F_p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        super().__init__(p)
        self.k = 1
        self.q = p
        self.modulus = None

    def from_fraction(self, r):
        """The rational r (a Fraction or an int) mod p; ZeroDivisionError when
        p divides its denominator."""
        if r.denominator % self.p == 0:
            raise ZeroDivisionError("p divides the denominator")
        return r.numerator * pow(r.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def sub_scaled(self, row, f, src, cols):
        p = self.p
        for j in cols:
            row[j] = (row[j] - f * src[j]) % p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pow(self, a, e):
        if e < 0 and a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, e, self.p)

    def coeffs(self, a):
        return (a,)

    def _build_log_tables(self):
        p = self.p
        cofactors = [(p - 1) // f for f in _factor_small(p - 1)]
        g = next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))
        self._set_log_tables([pow(g, i, p) for i in range(p - 1)])

    def describe(self) -> dict:
        return {"kind": "prime-field", "p": self.p, "k": 1}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _packed_digits(v: int, p: int, k: int) -> list:
    out = []
    for _ in range(k):
        v, r = divmod(v, p)
        out.append(r)
    return out


def _pack(digits, p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


# entries per block of the exp-table build, a power of two as doubling builds
# the first block; blocks up to q / 2 were slower and hold k q / 2 digits
_EXP_BLOCK = 2048


def _mul_matrix(h, modulus, F):
    """Rows of the k x k matrix of x -> h x on digit vectors: column j holds
    the digits of h x^j mod the modulus, by poly.mulmod_list over the prime
    field F, padded to k.  h and the modulus are trimmed digit lists."""
    k = len(modulus) - 1
    cols = (mulmod_list(h, [0] * j + [1], modulus, F) for j in range(k))
    return list(zip(*(c + [0] * (k - len(c)) for c in cols)))


def _times(rows, cols, p):
    """The digit columns of h x for every x in a block, from the rows of h's
    matrix (_mul_matrix) and the block's digit columns: one list pass per
    matrix entry, and one % p per output digit."""
    out = []
    for row in rows:
        acc = [row[0] * c for c in cols[0]]
        for m, col in zip(row[1:-1], cols[1:-1]):
            acc = [a + m * c for a, c in zip(acc, col)]
        m = row[-1]
        out.append([(a + m * c) % p for a, c in zip(acc, cols[-1])])
    return out


def is_irreducible(coeffs, p: int) -> bool:
    """Monic polynomial over F_p irreducible?  gcd with x^(p^i) - x, i <= k/2.

    A reducible degree-k polynomial has an irreducible factor of degree
    d <= k/2, which divides x^(p^d) - x; so a trivial gcd for every i up to
    k/2 certifies irreducibility.
    """
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] != 1:
        return False
    if k == 1:
        return True
    F = PrimeField(p)
    xp = [0, 1]
    for _ in range(1, k // 2 + 1):
        # x^(p^i) = (x^(p^(i-1)))^p, one p-th power per step
        xp = powmod_list(xp, p, coeffs, F)
        diff = xp + [0] * (2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(gcd_list(coeffs, trim(diff, 0), F)) > 1:
            return False
    return True


def _factor_small(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class ExtensionField(_FiniteField):
    """F_{p^k}, k >= 2, with log/Zech tables over a fixed generator.

    Table construction enumerates the cyclic group once, a block of digit
    columns at a time (_build_log_tables), and then never touches digits
    again: mul/inv ride the log table, add/sub ride the Zech table.  The
    tables are lists of q entries each; F_{101^3} (q about 10^6) builds in
    0.6-0.7 s, with a process peak RSS of about 120 MiB, on a 2-CPU Xeon host
    with Python 3.11.
    """

    def __init__(self, p: int, k: int, modulus=None):
        super().__init__(p)
        if k < 2:
            raise InvalidFieldError("extension degree must be >= 2")
        self.k = k
        self.q = p**k
        if modulus is None:
            modulus = _find_irreducible(p, k)
        else:
            modulus = list(modulus)
            if len(modulus) != k + 1 or modulus[-1] % p != 1:
                raise InvalidFieldError("modulus must be monic of degree k")
            modulus = [c % p for c in modulus]
            if not is_irreducible(modulus, p):
                raise InvalidFieldError("modulus is reducible")
        self.modulus = tuple(modulus)
        self._build_log_tables()

    def _build_log_tables(self):
        """exp[i] = g^i, _EXP_BLOCK entries at a time.

        A block is held as k digit columns.  Doubling builds the first one,
        g^0 .. g^(n-1): the block times g^n, by the matrix of multiplication
        by g^n, is the next n powers.  Every later block is the one before
        times g^n, cut to the entries exp still lacks, and exp takes each
        block packed until it has q entries; the last, g^(q-1), must be 1.
        """
        p, k, q = self.p, self.k, self.q
        F = PrimeField(p)
        mod = list(self.modulus)
        h = self._find_generator(mod)  # g^n, n the length of the block
        block = [[1]] + [[0] for _ in range(k - 1)]
        while len(block[0]) < min(_EXP_BLOCK, q):
            block = [c + d for c, d in zip(block, _times(_mul_matrix(h, mod, F), block, p))]
            h = mulmod_list(h, h, mod, F)
        step = _mul_matrix(h, mod, F)
        exp = []
        while True:
            packed = block[-1]
            for col in reversed(block[:-1]):
                packed = [v * p + d for v, d in zip(packed, col)]
            exp += packed
            if len(exp) >= q:
                break
            block = _times(step, [col[:q - len(exp)] for col in block], p)
        if exp[q - 1] != 1:
            raise InvalidFieldError("generator order mismatch (bad modulus?)")
        del exp[q - 1:]
        self._set_log_tables(exp)

    def _find_generator(self, mod):
        p, k, q = self.p, self.k, self.q
        F = PrimeField(p)
        cofactors = [(q - 1) // f for f in _factor_small(q - 1)]
        for v in range(p, q):  # prime-field elements never generate, skip them
            cand = trim(_packed_digits(v, p, k), 0)
            if all(powmod_list(cand, c, mod, F) != [1] for c in cofactors):
                return cand
        raise InvalidFieldError("no generator found (modulus reducible?)")

    def coeffs(self, a):
        return tuple(_packed_digits(a, self.p, self.k))

    def from_coeffs(self, cs):
        if len(cs) > self.k:
            raise ValueError("too many coefficients")
        return _pack([c % self.p for c in cs] + [0] * (self.k - len(cs)), self.p)

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        la = log[a]
        z = self._zech[(log[b] - la) % self._qm1]
        return 0 if z < 0 else self._exp[(la + z) % self._qm1]

    def neg(self, a):
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self._half) % self._qm1]

    def sub(self, a, b):
        if b == 0:
            return a
        lb = self._log[b] + self._half  # log(-b)
        if a == 0:
            return self._exp[lb % self._qm1]
        la = self._log[a]
        z = self._zech[(lb - la) % self._qm1]
        return 0 if z < 0 else self._exp[(la + z) % self._qm1]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._qm1]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % self._qm1]

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % self._qm1]

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self._exp[(self._log[a] * e) % self._qm1]

    def describe(self) -> dict:
        return {
            "kind": "extension-field",
            "p": self.p,
            "k": self.k,
            "modulus": list(self.modulus),
        }

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.p, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def _find_irreducible(p: int, k: int):
    """First irreducible monic x^k + c_{k-1}x^{k-1} + ... + c_0 in the fixed
    scan order: the c-vector counts upward in base p, low coefficient fastest
    (so x^k + c is tried before any x^k + bx + c)."""
    for n in range(p**k):
        cand = _packed_digits(n, p, k) + [1]
        if is_irreducible(cand, p):
            return cand
    raise InvalidFieldError(f"no irreducible modulus of degree {k} over F_{p}")


def build_extension(p: int, k: int = 1, _seed=None):
    """Field descriptor for F_{p^k}, p an odd prime.

    Deterministic: the modulus search order is fixed, so repeated runs build
    identical fields.  There is one field per (p, k) in a process, so its
    tables are built once.  The third argument is ignored; it is accepted
    only because perfbench's warm() still calls build_extension(p, k, 0).
    """
    return _field(p, k)


@lru_cache(maxsize=None)
def _field(p: int, k: int):
    if k < 1:
        raise InvalidFieldError("extension degree must be >= 1")
    if k == 1:
        return PrimeField(p)
    return ExtensionField(p, k)


def embedding(small, big):
    """Embedding table F_{p^k} -> F_{p^K} (k | K), as a list indexed by packed value.

    Maps the small field's generator-basis coefficients through a root of the
    small modulus found in the big field; the root choice (smallest packed
    value) is deterministic.  Every root lies in the copy of F_{p^k} inside
    F_{p^K}, the powers of g^((p^K - 1)/(p^k - 1)) and zero, and zero is no
    root, so only those p^k - 1 powers are scanned.
    """
    if not isinstance(small, _FiniteField) or not isinstance(big, _FiniteField):
        raise UnsupportedFieldError("embedding needs finite fields")
    if small.p != big.p:
        raise UnsupportedFieldError("characteristic mismatch")
    if big.k % small.k != 0:
        raise UnsupportedFieldError(f"F_{small.q} does not embed in F_{big.q}")
    if small.k == 1:
        return list(range(small.p))
    # the modulus has digits in [0, p), which F_{p^K} packs as themselves
    subfield = big.log_tables[0][::(big.q - 1) // (small.q - 1)]
    root = min((e for e in subfield if eval_list(small.modulus, e, big) == 0), default=None)
    if root is None:
        raise UnsupportedFieldError("no root of the subfield modulus found")
    powers = [1]
    for _ in range(small.k - 1):
        powers.append(big.mul(powers[-1], root))
    table = []
    for a in range(small.q):
        digits = _packed_digits(a, small.p, small.k)
        acc = 0
        for d, w in zip(digits, powers):
            acc = big.add(acc, big.mul(d % big.p, w))
        table.append(acc)
    return table
