"""Exact dense simplex for the small linear programs of the deep point.

`maximize(A, b, c)` solves max c . z subject to A z <= b, z >= 0 with
integer A, b and c.  The tableau is fraction-free (Edmonds' integer
pivoting, the simplex form of Bareiss elimination): every entry is an
integer over one common positive denominator, the last pivot, so a pivot
costs one exact integer division per entry.  Bland's rule, the lowest
entering column and ties in the ratio test broken by the lowest basic
variable, rules out cycling.  When some b_i < 0, a first phase maximizes
-z0 for one auxiliary column z0 with coefficient -1 in every row (Chvatal).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError


def _pivot(T, basis, r, e, d):
    """Pivot row r on column e; returns the new common denominator.

    With d the old denominator and p the pivot, every other row becomes
    (row * p - row[e] * T[r]) / d, an exact division.  A negative pivot
    negates the whole tableau, which keeps the denominator positive.
    """
    p = T[r][e]
    pr = T[r]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[e]
        if f:
            T[i] = [(v * p - f * w) // d for v, w in zip(row, pr)]
        elif p != d:
            T[i] = [v * p // d for v in row]
    basis[r] = e
    if p < 0:
        for i, row in enumerate(T):
            T[i] = [-v for v in row]
        p = -p
    return p


def _optimize(T, basis, z, ncols, d):
    """Bland's-rule pivots until objective row z has no negative entry."""
    m = len(basis)
    zrow = T[z]
    while True:
        e = next((j for j in range(ncols) if zrow[j] < 0), None)
        if e is None:
            return d
        best = None
        for i in range(m):
            a = T[i][e]
            if a <= 0:
                continue
            if best is None:
                best = i
                continue
            # compare the ratios T[i][-1] / a and T[best][-1] / T[best][e]
            lhs = T[i][-1] * T[best][e]
            rhs = T[best][-1] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        if best is None:
            raise InternalError("the linear program is unbounded")
        d = _pivot(T, basis, best, e, d)
        zrow = T[z]


def maximize(A, b, c):
    """max c . z over {z >= 0 : A z <= b}, for integer A (m x n), b and c.

    Returns (value, z, y) in exact rationals: the optimum, an optimal vertex,
    and the dual y >= 0 of the m rows, with y A >= c and y . b == value.
    Raises InternalError when the program is infeasible or unbounded.
    """
    m, n = len(A), len(c)
    width = n + m  # structural columns, then one slack per row
    aux = m > 0 and min(b) < 0
    T = [list(row) + [int(i == k) for k in range(m)] + [-1] * aux + [bi]
         for i, (row, bi) in enumerate(zip(A, b))]
    T.append([-v for v in c] + [0] * (m + aux) + [0])
    basis = list(range(n, width))
    d = 1
    if aux:
        T.append([0] * width + [1, 0])  # the objective -z0
        d = _pivot(T, basis, min(range(m), key=lambda i: b[i]), width, d)
        d = _optimize(T, basis, m + 1, width + 1, d)
        if T[m + 1][-1] != 0:
            raise InternalError("the linear program is infeasible")
        if width in basis:  # z0 is basic at zero: pivot it out
            r = basis.index(width)
            d = _pivot(T, basis, r, next(j for j in range(width) if T[r][j]), d)
        T.pop()
        for row in T:
            del row[width]
    d = _optimize(T, basis, m, width, d)
    z = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            z[j] = Fraction(T[i][-1], d)
    y = tuple(Fraction(T[m][n + i], d) for i in range(m))
    return Fraction(T[m][-1], d), tuple(z), y
