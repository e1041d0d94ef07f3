import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import GF as SympyGF, QQ as SympyQQ, Poly, symbols
from sympy.polys.agca.extensions import FiniteExtension
from sympy.polys.matrices import DomainMatrix

from prymsplit import Matrix3, QQ, SingularMatrixError, build_extension, cli
from prymsplit.linalg import det_in_field, rank_in_field

F7 = build_extension(7)
F9 = build_extension(3, 2)


def test_identity_inverse():
    ident = Matrix3.identity(QQ)
    assert ident.inverse() == ident


def _cofactor_inverse(rows):
    """Independent adjugate-over-determinant oracle on rational 3x3 input."""
    a = [[Fraction(v) for v in r] for r in rows]

    def minor(i, j):
        sub = [
            [a[r][c] for c in range(3) if c != j]
            for r in range(3)
            if r != i
        ]
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]

    det = sum((-1) ** j * a[0][j] * minor(0, j) for j in range(3))
    return det, [
        [(-1) ** (i + j) * minor(j, i) / det for j in range(3)] for i in range(3)
    ]


def test_inverse_matches_cofactor_expansion():
    rows = [(0, 1, 0), (1, 0, -1), (1, 1, 1)]
    m = Matrix3.from_ints(QQ, rows)
    det, inv_oracle = _cofactor_inverse(rows)
    assert m.det == det == -2
    inv = m.inverse()
    assert [list(r) for r in inv.rows] == inv_oracle


def test_singular_matrix_is_refused():
    m = Matrix3.from_ints(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(SingularMatrixError):
        m.inverse()


def test_inverse_round_trip_random():
    rng = random.Random(0)
    done = 0
    while done < 1000:
        field = F7 if done % 2 else QQ
        rows = [[field.from_int(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
        m = Matrix3(field, rows)
        if m.det == field.zero:
            continue
        inv = m.inverse()
        assert m.mat_mul(inv) == Matrix3.identity(field)
        assert inv.mat_mul(m) == Matrix3.identity(field)
        done += 1


def _fraction_gauss_det(rows):
    """Oracle: plain Gaussian elimination over Fraction."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def test_det_rational_matches_fraction_gauss():
    rng = random.Random(3)
    for n in (1, 2, 3, 5, 9):
        for trial in range(12):
            rows = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
                    for _ in range(n)]
            if trial % 4 == 1:
                rows[rng.randrange(n)] = [Fraction(0)] * n
            elif trial % 4 == 2 and n > 1:
                rows[0] = [-2 * v for v in rows[-1]]
            value = det_in_field(rows, QQ)
            assert isinstance(value, Fraction)
            assert value == _fraction_gauss_det(rows)


def test_det_finite_field_matches_rational_reduction():
    rng = random.Random(2)
    for _ in range(20):
        rows = [[rng.randint(0, 6) for _ in range(4)] for _ in range(4)]
        d_int = det_in_field([[Fraction(v) for v in r] for r in rows], QQ)
        assert d_int.denominator == 1
        d_f7 = det_in_field([[v % 7 for v in r] for r in rows], F7)
        assert d_f7 == d_int.numerator % 7


def test_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_in_field([[Fraction(v) for v in r] for r in rows], QQ) == 2
    assert rank_in_field([[v % 7 for v in r] for r in rows], F7) == 2
    assert rank_in_field([[0, 0], [0, 0]], F7) == 0


def _random_matrices(field, rng):
    """Seeded square, rectangular, rank-deficient and singular matrices."""
    for nrows, ncols in ((1, 1), (2, 2), (3, 3), (5, 5), (8, 8), (12, 12),
                         (3, 5), (5, 3), (1, 4), (6, 2), (7, 9)):
        for kind in ("random", "repeated", "summed", "zero column"):
            rows = [[field.from_int(rng.randint(-9, 9)) for _ in range(ncols)]
                    for _ in range(nrows)]
            if kind == "repeated" and nrows > 1:
                rows[rng.randrange(1, nrows)] = list(rows[0])
            elif kind == "summed" and nrows > 2:
                rows[-1] = [field.add(a, b) for a, b in zip(rows[0], rows[1])]
            elif kind == "zero column":
                c = rng.randrange(ncols)
                for r in rows:
                    r[c] = field.zero
            yield rows
    if field == QQ:  # num/den entries of height 10^20
        h = 10**20
        yield [[Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(6)]
               for _ in range(6)]


@pytest.mark.parametrize("p", [7, 23, None])
def test_rank_and_det_match_sympy(p):
    field = QQ if p is None else build_extension(p)
    dom = SympyQQ if p is None else SympyGF(p)
    rng = random.Random(5 if p is None else p)
    ranks = set()
    for rows in _random_matrices(field, rng):
        nrows, ncols = len(rows), len(rows[0])
        if p is None:
            entries = [[dom(v.numerator, v.denominator) for v in r] for r in rows]
        else:
            entries = [[dom(v) for v in r] for r in rows]
        oracle = DomainMatrix(entries, (nrows, ncols), dom)
        rank = rank_in_field(rows, field)
        assert rank == oracle.rank()
        ranks.add((nrows, ncols, rank))
        if nrows == ncols:
            det = oracle.det()
            det = Fraction(det.numerator, det.denominator) if p is None else int(det) % p
            assert det_in_field(rows, field) == det
            assert (det == 0) == (rank < nrows)
    # the corpus reaches full rank, deficient rank and singular squares
    assert any(r == min(n, m) for n, m, r in ranks)
    assert any(n == m and r < n for n, m, r in ranks)
    assert any(n != m and r < min(n, m) for n, m, r in ranks)


def _sympy_image(field):
    """The sympy domain matching a field, and the map of its elements into it."""
    if field == QQ:
        return SympyQQ, lambda v: SympyQQ(v.numerator, v.denominator)
    if field.k == 1:
        dom = SympyGF(field.p)
        return dom, dom
    t = symbols("t")
    dom = FiniteExtension(Poly(list(reversed(field.modulus)), t, domain=SympyGF(field.p)))
    return dom, lambda v: dom.convert(sum(c * t**i for i, c in enumerate(field.coeffs(v))))


def _sympy_rank_det(matrix):
    """sympy's rank, by its Gauss-Jordan pivots, and determinant (None unless
    square), by its LU factorization: its own rank() and det() go through
    exact division in the polynomial ring behind GF(3)[t]/(t^2 + 1) and fail
    there."""
    rank = len(matrix.rref(method="GJ")[1])
    nrows, ncols = matrix.shape
    if nrows != ncols:
        return rank, None
    _, upper, swaps = matrix.lu()
    det = matrix.domain.one if len(swaps) % 2 == 0 else -matrix.domain.one
    for i in range(nrows):
        det *= upper[i, i].element
    return rank, det


def _parity(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2


def _shaped_matrices(field, rng):
    """(label, rows) over the shapes row insertion treats apart."""
    def entry(nonzero=False):
        while True:
            v = field.from_int(rng.randint(-9, 9)) if field == QQ else field.random_element(rng)
            if v or not nonzero:
                return v

    def dense(nrows, ncols):
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]

    def combination(rows, width):
        out = [field.zero] * width
        for r in rows:
            c = entry()
            out = [field.add(a, field.mul(c, b)) for a, b in zip(out, r)]
        return out

    def upper(n):  # invertible, row i pivots in column i
        return [[entry(True) if j == i else entry() if j > i else field.zero
                 for j in range(n)] for i in range(n)]

    def invertible(n):  # each row of upper(n) plus a combination of the rows above it
        rows = upper(n)
        return [[field.add(a, b) for a, b in zip(rows[i], combination(rows[:i], n))]
                for i in range(n)]

    for n in (2, 3, 4, 5, 6):
        for _ in range(6):
            # rows of an upper triangular matrix, permuted: row i pivots in perm[i]
            perm = rng.sample(range(n), n)
            rows = upper(n)
            yield ("odd" if _parity(perm) else "even"), [rows[perm[i]] for i in range(n)]
        rows = dense(n, n)
        rows[rng.randrange(n)] = [field.zero] * n
        yield "zero row", rows
        rows = dense(n, n)
        i, j = rng.sample(range(n), 2)
        rows[j] = list(rows[i])
        yield "repeated row", rows
        yield "square", dense(n, n)
        m = n - 1
        head = invertible(m)
        yield "tall, dependent tail", head + [combination(head, m) for _ in range(2)]
        k = rng.randrange(m)
        needed, head[k] = head[k], combination(head[:k] + head[k + 1:], m)
        yield "tall, tail needed", head + [combination(head, m), needed]
        yield "wide", dense(m, n + 1)
        rows = dense(m, n + 1)
        rows[-1] = [field.zero] * m + rows[-1][m:]  # full row rank, singular leading block
        yield "wide, singular lead", rows


@pytest.mark.parametrize("field", [QQ, F7, F9], ids=["QQ", "F7", "F9"])
def test_elimination_matches_sympy_on_every_shape(field):
    dom, image = _sympy_image(field)
    rng = random.Random(field.q or 0)
    seen = {}
    for label, rows in _shaped_matrices(field, rng):
        nrows, ncols = len(rows), len(rows[0])
        oracle = DomainMatrix([[image(v) for v in r] for r in rows], (nrows, ncols), dom)
        rank, det = rank_in_field(rows, field), det_in_field(rows, field)
        assert rank == _sympy_rank_det(oracle)[0], (label, rows)
        if nrows <= ncols:  # a square matrix, or the leading square block of a wide one
            lead = oracle.extract(range(nrows), range(nrows))
            assert image(det) == _sympy_rank_det(lead)[1], (label, rows)
        else:
            assert det == field.zero, (label, rows)
        seen.setdefault(label, set()).add(rank == min(nrows, ncols))
    assert seen["even"] == seen["odd"] == {True}
    assert seen["zero row"] == seen["repeated row"] == {False}
    assert seen["tall, dependent tail"] == seen["tall, tail needed"] == {True}
    assert True in seen["wide, singular lead"]


@pytest.mark.parametrize("field", [QQ, F7, F9], ids=["QQ", "F7", "F9"])
def test_empty_matrix(field):
    dom, image = _sympy_image(field)
    oracle = DomainMatrix([], (0, 0), dom)
    assert image(det_in_field([], field)) == oracle.det() == dom.one
    assert rank_in_field([], field) == oracle.rank() == 0


def test_inverse_round_trip_is_checked_under_python_O():
    # a wrong adjugate passes the type checks; only the round trip catches it,
    # and an assert would be stripped by -O
    code = """if True:
        import sys
        from prymsplit import cli, linalg
        right = linalg.Matrix3.adjugate
        def wrong(self):
            rows = right(self).rows
            return linalg.Matrix3(self.field, (rows[1], rows[0], rows[2]))
        linalg.Matrix3.adjugate = wrong
        sys.exit(cli.main(sys.argv[1:]))
    """
    doc = {"f": [0, 1, 0], "g": [1, 1, 1], "h": [1, 0, -1]}
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code, "split", "--input", json.dumps(doc)],
                          timeout=20, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1, proc.stderr
    assert "internal error: ArithmeticError" in proc.stderr
    assert "round trip" in proc.stderr
