"""Exact linear algebra: the 3x3 coefficient matrix and dense determinants.

Every determinant and every rank, over the rationals as over a finite field,
comes from one Gaussian elimination over the field object (_eliminate).  It
is exact, which every caller here depends on.
"""

from __future__ import annotations

from .errors import SingularMatrixError


class Matrix3:
    __slots__ = ("field", "rows", "_det")

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

    def det(self):
        """Computed on the first call and kept: the rows never change."""
        try:
            return self._det
        except AttributeError:
            pass
        F = self.field
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        t1 = F.mul(a, F.sub(F.mul(e, i), F.mul(f, h)))
        t2 = F.mul(b, F.sub(F.mul(d, i), F.mul(f, g)))
        t3 = F.mul(c, F.sub(F.mul(d, h), F.mul(e, g)))
        self._det = F.add(F.sub(t1, t2), t3)
        return self._det

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
        """Adjugate-over-determinant; asserts the round trip A * A^-1 = I."""
        F = self.field
        d = self.det()
        if d == F.zero:
            raise SingularMatrixError("matrix is singular", det=d)
        inv_d = F.inv(d)
        adj = self.adjugate()
        inv = Matrix3(
            F, [[F.mul(inv_d, adj.rows[i][j]) for j in range(3)] for i in range(3)]
        )
        assert self.mat_mul(inv) == Matrix3.identity(F)
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

    def vec_mul(self, v):
        """Matrix times column vector."""
        F = self.field
        return tuple(
            F.add(
                F.add(F.mul(r[0], v[0]), F.mul(r[1], v[1])),
                F.mul(r[2], v[2]),
            )
            for r in self.rows
        )

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(3))

    def __repr__(self):
        return f"Matrix3({self.rows})"


def _eliminate(rows, field):
    """(rank, det) by Gaussian elimination over a field object.

    Works on any number of rows and columns; det is the determinant when the
    matrix is square (zero once a column has no pivot).  Each pivot is
    inverted once, and a row update (field.sub_scaled) touches only the
    columns right of the pivot where the pivot row is nonzero; column c below
    the pivot is never read again, so it is left as it is.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    mul = field.mul
    zero = field.zero
    det = field.one
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][c] != zero:
                piv = r
                break
        if piv is None:
            det = zero
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = field.neg(det)
        pivot_row = m[rank]
        pivot = pivot_row[c]
        det = mul(det, pivot)
        inv = field.inv(pivot)
        cols = [j for j in range(c + 1, ncols) if pivot_row[j] != zero]
        for r in range(rank + 1, nrows):
            mr = m[r]
            lead = mr[c]
            if lead == zero:
                continue
            field.sub_scaled(mr, mul(lead, inv), pivot_row, cols)
        rank += 1
        if rank == nrows:
            break
    return rank, det


def det_in_field(rows, field):
    """Exact determinant by Gaussian elimination over the field object, the
    rationals included; 1 for the empty matrix."""
    return _eliminate(rows, field)[1]


def rank_in_field(rows, field) -> int:
    """Exact rank by Gaussian elimination (any number of rows/columns)."""
    return _eliminate(rows, field)[0]
