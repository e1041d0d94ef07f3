import random
from fractions import Fraction

import pytest
from sympy import GF as SympyGF, QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

from prymsplit import Matrix3, QQ, SingularMatrixError, build_extension
from prymsplit.linalg import det_in_field, rank_in_field

F7 = build_extension(7)


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
    assert m.det() == det == -2
    inv = m.inverse()
    assert [list(r) for r in inv.rows] == inv_oracle


def test_singular_matrix_error_carries_det():
    m = Matrix3.from_ints(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(SingularMatrixError) as info:
        m.inverse()
    assert info.value.det == 0


def test_inverse_round_trip_random():
    rng = random.Random(0)
    done = 0
    while done < 1000:
        field = F7 if done % 2 else QQ
        rows = [[field.from_int(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
        m = Matrix3(field, rows)
        if m.det() == field.zero:
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
