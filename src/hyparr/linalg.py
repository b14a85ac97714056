"""Exact linear algebra: rational vectors, and rank, kernel bases,
determinants and products of integer rows.

Scalars are `fractions.Fraction` (canonical: positive denominator, reduced).
There is no matrix type: a rational row is scaled to primitive integers
(`primitive_int_vector`), which changes neither its sign nor its kernel, and
`rank`, `kernel_basis` and `determinant` eliminate integer rows by
fraction-free Bareiss elimination, so intermediate entries stay bounded.

`products(rows)` is the map v -> [r . v for r in rows].  It packs each
column of the rows into one integer, 64 bits per row, so that all the
products at v are one integer combination of the packed columns, with a
bias of 2^63 in each field so that no field borrows from the next; the
fields are read back as signed 64-bit integers, and the packed columns are
built from each column's signed 64-bit bytes.  This is exact while every
product lies strictly between -2^63 and 2^63, which max ||r||_1 * max |v_j|
< 2^63 guarantees; past that bound, or when an entry of the rows does not
fit in 64 bits, the map takes plain dot products.  Both
paths are integer arithmetic: no floating point appears anywhere.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InternalError


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


def _direction(v) -> tuple[int, ...]:
    """A nonzero integer vector over the gcd of its entries, signed so that
    its first nonzero entry is positive: `canonical_int_vector` for integer
    entries, with no rational type scan.  Raises InternalError on a zero
    vector, which has no direction."""
    first = next(filter(None, v), 0)
    if not first:
        raise InternalError(f"the zero vector {tuple(v)} has no direction")
    g = gcd(*v)
    if first < 0:
        g = -g
    return tuple(v) if g == 1 else tuple(a // g for a in v)


def cut_kernel(K, u, p) -> tuple[tuple[int, ...], ...]:
    """The kernel rows that a form cuts from the subspace spanned by the
    canonical rows K, the `kernel_basis` of some forms, given u, its values
    at those rows (any nonzero multiple will do), and p, the first t where
    u[t] != 0: the rows `_direction(u[p]*K[t] - u[t]*K[p])` for t != p.
    The caller finds p, and so decides what a zero u means.

    They are the `kernel_basis` of those forms and the new one.  Row t of a
    kernel basis belongs to free column f_t, ascending: it is 0 at every
    other free column and right of f_t, and nonzero at f_t.  The free
    columns of a kernel are the last nonzero entries of its vectors.  Row t
    of the cut, t != p, has its last nonzero entry at f_t (for t < p, u[t]
    = 0 and the row is K[t]), so the cut, one dimension smaller, has the
    free columns f_t for t != p: the new form's reduced row has its pivot
    at f_p, the first free column where u != 0.  Row t is 0 at each of those
    free columns but its own, and a kernel vector is fixed by its values at
    the free columns, so row t is the kernel basis row of f_t up to a
    factor, which `_direction` takes off.  Dependent rows K give a zero row,
    on which `_direction` raises InternalError.
    """
    kp, up = K[p], u[p]
    rows = []
    for t, ut in enumerate(u):
        if t != p:
            kt = K[t]
            rows.append(_direction([up * x - ut * y for x, y in zip(kt, kp)]) if ut else kt)
    return tuple(rows)


def products(rows):
    """The exact map v -> [r . v for r in rows] for integer rows of one length.

    Row i fills the i-th 64-bit field, in native byte order, of each packed
    column (bits 64i to 64i + 63 on a little-endian machine), and the bias
    puts 2^63 in every field, so the combination sum_j v_j * column_j + bias
    holds r_i . v + 2^63 in field i, in [0, 2^64) and with no borrow, as long
    as |r_i . v| < 2^63; flipping each field's top bit leaves r_i . v in two's
    complement, read back as native signed 64-bit integers.  Whenever
    max ||r||_1 * max |v_j| >= 2^63 the map takes plain dot products instead,
    and it always does when an entry of the rows lies outside int64.
    """
    rows = [tuple(r) for r in rows]
    n = len(rows)
    norm = max((sum(map(abs, r)) for r in rows), default=0)
    bias = ((1 << 64 * n) - 1) // ((1 << 64) - 1) << 63  # 2^63 in each of n fields

    def plain(v) -> list[int]:
        return [sum(map(mul, r, v)) for r in rows]

    # a column's entries as native signed 64-bit fields read as one unsigned
    # integer in native byte order, so that to_bytes and cast("q") below give
    # the fields back in row order on either byte order; flipping each
    # field's top bit and taking the bias off adds each negative entry's
    # borrow back in
    pack = struct.Struct(f"{n}q").pack
    try:
        columns = [(int.from_bytes(pack(*column), sys.byteorder) ^ bias) - bias
                   for column in zip(*rows)]
    except struct.error:  # an entry outside int64, so norm >= 2^63
        return plain

    def values(v) -> list[int]:
        if norm * max(map(abs, v), default=0) >= 1 << 63:
            return plain(v)
        packed = sum(map(mul, v, columns), bias) ^ bias
        return memoryview(packed.to_bytes(8 * n, sys.byteorder)).cast("q").tolist()

    return values


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


def determinant(rows) -> int:
    """Determinant of a square integer matrix, by fraction-free Bareiss
    elimination: the last pivot, negated for each row swap.

    The rows are copied, never modified.
    """
    a = [list(r) for r in rows]
    n = len(a)
    sign = prev = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        top = a[c]
        p = top[c]
        for i in range(c + 1, n):
            f = a[i][c]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    return sign * prev


def rank(rows, ncols: int) -> int:
    """Rank of integer rows over the rationals, by fraction-free elimination.

    The rows are copied, never modified.
    """
    _, piv = _bareiss_echelon([list(r) for r in rows], ncols)
    return len(piv)


def kernel_basis(rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of integer rows, one row per free column.

    Rows are canonical (`_direction`): integer entries with gcd 1 and first
    nonzero entry positive, ordered by free column.  The input rows are not
    modified.
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
            # row is 0 left of its pivot c, and v is still 0 at c
            s = sum(map(mul, row, v))
            if s:
                g = gcd(s, row[c])
                m = row[c] // g
                v = [x * m for x in v]
                v[c] = -(s // g)
        basis.append(_direction(v))
    return basis


def coordinates(rows, v) -> RatVector | None:
    """Coefficients c with sum_t c[t] * rows[t] == v, for independent
    rational rows; None when v is outside their span.

    The coefficients and a multiplier of v span the kernel of one equation
    per coordinate, each scaled to primitive integers.  Raises ValueError
    when the rows are dependent.
    """
    m = len(rows)
    eqs = [primitive_int_vector([r[j] for r in rows] + [-v[j]]) for j in range(len(v))]
    K = kernel_basis(eqs, m + 1)
    if len(K) > 1 or (K and not K[0][m]):
        raise ValueError("coordinates in dependent rows")
    if not K:
        return None
    k = K[0]
    return RatVector(tuple(Fraction(a, k[m]) for a in k[:m]))
