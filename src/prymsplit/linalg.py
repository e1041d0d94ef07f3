"""Exact linear algebra: the 3x3 coefficient matrix and dense determinants.

Every rank, and the determinant of every matrix larger than 3x3, over the
rationals as over a finite field, comes from one Gaussian elimination over
the field object (_eliminate), which inserts the rows one at a time into an
echelon basis and so reads a sparse row only as far as its first new pivot.
It is exact, which every caller here depends on.  The one 3x3 determinant
is a cofactor expansion, Matrix3.det, which also serves prym.pencil_sextic
over UniPoly entries.
"""

from __future__ import annotations

from functools import cached_property

from .errors import SingularMatrixError


class Matrix3:
    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need 3x3 entries")
        self.field = field
        self.rows = rows

    @classmethod
    def identity(cls, field):
        o, z = field.one, field.zero
        return cls(field, ((o, z, z), (z, o, z), (z, z, o)))

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(v) for v in r] for r in rows])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix3)
            and self.field == other.field
            and self.rows == other.rows
        )

    @cached_property
    def det(self):
        """The cofactor expansion, computed on the first read and kept, since
        the rows never change; inverse() still checks it by a round trip.
        It needs only the field object's add, sub and mul, so it is also
        prym.pencil_sextic's determinant over UniPoly entries."""
        F = self.field
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        t1 = F.mul(a, F.sub(F.mul(e, i), F.mul(f, h)))
        t2 = F.mul(b, F.sub(F.mul(d, i), F.mul(f, g)))
        t3 = F.mul(c, F.sub(F.mul(d, h), F.mul(e, g)))
        return F.add(F.sub(t1, t2), t3)

    def adjugate(self):
        F = self.field
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        m = F.mul
        s = F.sub
        return Matrix3(
            F,
            (
                (s(m(e, i), m(f, h)), s(m(c, h), m(b, i)), s(m(b, f), m(c, e))),
                (s(m(f, g), m(d, i)), s(m(a, i), m(c, g)), s(m(c, d), m(a, f))),
                (s(m(d, h), m(e, g)), s(m(b, g), m(a, h)), s(m(a, e), m(b, d))),
            ),
        )

    def inverse(self):
        """Adjugate-over-determinant, checked by the round trip A * A^-1 = I
        (ArithmeticError when it fails, under python -O as without)."""
        F = self.field
        d = self.det
        if d == F.zero:
            raise SingularMatrixError("matrix is singular")
        inv_d = F.inv(d)
        adj = self.adjugate()
        inv = Matrix3(
            F, [[F.mul(inv_d, adj.rows[i][j]) for j in range(3)] for i in range(3)]
        )
        if self.mat_mul(inv) != Matrix3.identity(F):
            raise ArithmeticError("the inverse failed its round trip A * A^-1 = I")
        return inv

    def mat_mul(self, other):
        F = self.field
        return Matrix3(
            F,
            [
                [
                    F.add(
                        F.add(
                            F.mul(self.rows[i][0], other.rows[0][j]),
                            F.mul(self.rows[i][1], other.rows[1][j]),
                        ),
                        F.mul(self.rows[i][2], other.rows[2][j]),
                    )
                    for j in range(3)
                ]
                for i in range(3)
            ],
        )

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(3))

    def __repr__(self):
        return f"Matrix3({self.rows})"


def _eliminate(rows, field):
    """(rank, det) by inserting the rows one at a time into an echelon basis.

    Each row is reduced left to right by the pivots found so far: at a column
    that has one, field.sub_scaled takes the pivot row's multiple away on the
    columns right of it where that row is nonzero, so nothing left of the
    column is read again.  A row that survives adds a pivot at its first
    nonzero column, and the pass stops once every column has one.  The row
    operations keep the determinant, so det is the product of the pivots
    times the sign of the permutation carrying each row to its pivot column:
    the determinant of a square matrix, and of the leading square block of a
    wide one; zero once a row reduces to zero or rows outnumber columns.
    """
    ncols = len(rows[0]) if rows else 0
    mul = field.mul
    pivots = [None] * ncols  # (pivot row, inverse pivot, its nonzero columns right of it)
    order = []  # the pivot column of each row that kept one, in row order
    det = field.one
    for row in rows:
        if len(order) == ncols:
            break
        v = list(row)
        for c, a in enumerate(v):  # sees the updates sub_scaled makes right of c
            if not a:
                continue
            hit = pivots[c]
            if hit is None:
                det = mul(det, a)
                pivots[c] = (v, field.inv(a), [j for j in range(c + 1, ncols) if v[j]])
                order.append(c)
                break
            src, pinv, cols = hit
            field.sub_scaled(v, mul(a, pinv), src, cols)
    rank = len(order)
    if rank < len(rows) or max(order, default=-1) >= rank:
        return rank, field.zero
    for i in range(rank):  # sort the pivot columns by swaps, each flipping the sign
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], j
            det = field.neg(det)
    return rank, det


def det_in_field(rows, field):
    """Exact determinant by Gaussian elimination over the field object, the
    rationals included; 1 for the empty matrix."""
    return _eliminate(rows, field)[1]


def rank_in_field(rows, field) -> int:
    """Exact rank by Gaussian elimination (any number of rows/columns)."""
    return _eliminate(rows, field)[0]
