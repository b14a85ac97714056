"""Exact rational linear algebra: vectors, matrices, rank, kernel bases.

Scalars are `fractions.Fraction` (canonical: positive denominator, reduced).
Rank and echelon forms use fraction-free Bareiss elimination on primitive
integer rows so intermediate entries stay bounded; no floating point appears
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Rational = Fraction


@dataclass(frozen=True)
class RatVector:
    """Immutable vector of rationals."""

    entries: tuple[Fraction, ...]

    @classmethod
    def of(cls, values) -> "RatVector":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def dot(self, other: "RatVector") -> Fraction:
        if len(self.entries) != len(other.entries):
            raise ValueError("dimension mismatch")
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def scale(self, c) -> "RatVector":
        c = Fraction(c)
        return RatVector(tuple(c * a for a in self.entries))

    def __add__(self, other: "RatVector") -> "RatVector":
        return RatVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "RatVector":
        return RatVector(tuple(-a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def one_norm(self) -> Fraction:
        return sum((abs(a) for a in self.entries), Fraction(0))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


@dataclass(frozen=True)
class RatMatrix:
    """Immutable matrix stored as a tuple of equal-length RatVector rows."""

    rows: tuple[RatVector, ...]
    ncols: int

    @classmethod
    def of(cls, rows, ncols=None) -> "RatMatrix":
        rs = tuple(r if isinstance(r, RatVector) else RatVector.of(r) for r in rows)
        if ncols is None:
            if not rs:
                raise ValueError("ncols required for an empty matrix")
            ncols = rs[0].dim
        for r in rs:
            if r.dim != ncols:
                raise ValueError("ragged rows")
        return cls(rs, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def primitive_int_vector(values) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to primitive integers.

    Returns the zero tuple unchanged.  The scaling is positive, so signs and
    the solution set of `v . x > 0` are preserved.  Integer entries need
    only the division by their gcd.
    """
    ints = list(values)
    if not all(type(v) is int for v in ints):
        fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in ints]
        den = lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (den // f.denominator) for f in fracs]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g else tuple(ints)


def canonical_int_vector(values) -> tuple[int, ...]:
    """Primitive integers with the first nonzero entry positive."""
    ints = primitive_int_vector(values)
    for a in ints:
        if a > 0:
            return ints
        if a < 0:
            return tuple(-x for x in ints)
    return ints


def _int_rows(M: RatMatrix) -> list[list[int]]:
    return [list(primitive_int_vector(r.entries)) for r in M.rows]


def _bareiss_echelon(a: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form; returns (matrix, pivot columns).

    Entries stay integral: each update is divided exactly by the previous
    pivot (Bareiss), which bounds intermediate growth to minors of the input.
    """
    nrows = len(a)
    piv_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        p = a[r][c]
        for i in range(r + 1, nrows):
            f = a[i][c]
            for j in range(c, ncols):
                a[i][j] = (a[i][j] * p - f * a[r][j]) // prev
        prev = p
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return a, piv_cols


def int_rank(rows, ncols: int) -> int:
    """Rank of integer rows over the rationals, by fraction-free elimination.

    The rows are copied, never modified.
    """
    _, piv = _bareiss_echelon([list(r) for r in rows], ncols)
    return len(piv)


def rank(M: RatMatrix) -> int:
    """Rank over the rationals: `int_rank` of the primitive integer rows."""
    return int_rank((primitive_int_vector(r.entries) for r in M.rows), M.ncols)


def int_kernel_basis(rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of integer rows, one row per free column.

    Rows are canonical: integer entries with gcd 1 and first nonzero entry
    positive, ordered by free column.  The input rows are not modified.
    """
    ech, piv_cols = _bareiss_echelon([list(r) for r in rows], ncols)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for f in free_cols:
        v = [0] * ncols
        v[f] = 1
        # back-substitute pivot variables bottom-up, fraction-free: scale v
        # by p / g so that pivot p divides the row sum exactly
        for r in range(len(piv_cols) - 1, -1, -1):
            c = piv_cols[r]
            row = ech[r]
            s = sum(row[j] * v[j] for j in range(c + 1, ncols))
            if s:
                g = gcd(s, row[c])
                m = row[c] // g
                v = [x * m for x in v]
                v[c] = -(s // g)
        basis.append(canonical_int_vector(v))
    return basis


def kernel_basis(M: RatMatrix) -> RatMatrix:
    """Basis of the right kernel {x : Mx = 0}: `int_kernel_basis` of the
    primitive integer rows, as rationals.  Row count is ncols - rank(M)."""
    basis = int_kernel_basis(_int_rows(M), M.ncols)
    return RatMatrix.of([[Fraction(a) for a in row] for row in basis], M.ncols)


def express_in_rowspace(M: RatMatrix, v: RatVector) -> RatVector | None:
    """Coefficients c with c @ M.rows == v, or None if v is not in the span."""
    m = M.nrows
    ncols = M.ncols
    # Gaussian elimination on the transposed system (ncols equations, m unknowns).
    aug = [[M.rows[i][j] for i in range(m)] + [v[j]] for j in range(ncols)]
    r = 0
    piv = []
    for c in range(m):
        pr = next((i for i in range(r, ncols) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        p = aug[r][c]
        aug[r] = [x / p for x in aug[r]]
        for i in range(ncols):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    for i in range(r, ncols):
        if aug[i][m] != 0:
            return None
    coeffs = [Fraction(0)] * m
    for i, c in enumerate(piv):
        coeffs[c] = aug[i][m]
    return RatVector(tuple(coeffs))


def invert(M: RatMatrix) -> RatMatrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    n = M.ncols
    if M.nrows != n:
        raise ValueError("inverse of a non-square matrix")
    a = [[Fraction(M.rows[i][j]) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            raise ValueError("singular matrix")
        a[c], a[pr] = a[pr], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return RatMatrix.of([row[n:] for row in a], n)
