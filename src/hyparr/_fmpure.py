"""Pure-Python Fourier-Motzkin elimination over integer rows, and the deep
point of a strict system.

- `solve` decides a strict homogeneous system {r . x > 0} in exact
  integers, so coefficients of any size are decided.  `witness_from_stages`
  back-substitutes a point from the elimination stages of a feasible
  system.
- `maximin_on_cross_polytope` computes the deep point of such a system:
  the best minimum slack on |x|_1 <= 1 and a point that attains it, from
  2 * dim + 1 small exact linear programs (`_simplex`).

The loop processes rows in input order and always eliminates the last
column; pairs combine in (positive-list x negative-list) order, each new row
is reduced jointly with its provenance by their gcd, and a derived row with
a variable left whose provenance touches more than (eliminated + 1) original
rows is dropped (Chernikov/Imbert bound).  No row is merged with another of
the same direction: a duplicate can carry a smaller provenance support than
the copy that would be kept, and the bound could then prune the kept copy
and with it the only route to 0 > 0, so an infeasible system would read
feasible.

Every derived row carries a provenance vector: nonnegative integers p with
sum_i p_i * row_i equal to the derived row.  A derived row with no variable
left states 0 > 0, so its provenance is a dual certificate of infeasibility.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _simplex
from .errors import InternalError


def solve(rows, dim):
    """Decide {r . x > 0 for r in rows} with rows of primitive integers.

    Returns ("dual", coeffs) when infeasible, where coeffs is a primitive
    nonnegative integer vector with sum coeffs[i] * rows[i] == 0, or
    ("stages", snapshots) when feasible; snapshots[k] lists the row tuples
    over dim-k coordinates seen before eliminating coordinate dim-1-k.
    """
    n = len(rows)
    items = [(tuple(r), tuple(int(j == i) for j in range(n))) for i, r in enumerate(rows)]
    stages = []
    for elim in range(1, dim + 1):
        stages.append([row for row, _ in items])
        bound = elim + 1
        pos = [it for it in items if it[0][-1] > 0]
        neg = [it for it in items if it[0][-1] < 0]
        zer = [(row[:-1], prov) for row, prov in items if row[-1] == 0]
        new_items = []

        def push(row, prov):
            if not any(row):
                g = gcd(*prov)
                return tuple(p // g for p in prov)
            g = gcd(*row, *prov)
            if g > 1:
                row = tuple(v // g for v in row)
                prov = tuple(p // g for p in prov)
            new_items.append((row, prov))
            return None

        for row, prov in zer:
            dual = push(row, prov)
            if dual is not None:
                return "dual", dual
        for arow, aprov in pos:
            ma = arow[-1]
            ahead = arow[:-1]
            for brow, bprov in neg:
                mb = -brow[-1]
                row = tuple(mb * a + ma * b for a, b in zip(ahead, brow))
                prov = tuple(mb * a + ma * b for a, b in zip(aprov, bprov))
                if any(row) and n - prov.count(0) > bound:
                    continue
                dual = push(row, prov)
                if dual is not None:
                    return "dual", dual
        items = new_items
    return "stages", stages


def witness_from_stages(stages, dim):
    """Back-substitute a rational interior point from elimination snapshots.

    Each stage, taken last to first, bounds its own last column given the
    values already chosen.  Deterministic: midpoint of the (strictly
    separated) bound interval, or bound +/- 1 when one side is open, or 0
    when unconstrained.
    """
    vals = []
    for rows in reversed(stages):
        lo = None
        hi = None
        for row in rows:
            c = row[-1]
            if c == 0:
                continue
            b = -sum((row[j] * v for j, v in enumerate(vals)), Fraction(0)) / c
            if c > 0:
                lo = b if lo is None or b > lo else lo
            else:
                hi = b if hi is None or b < hi else hi
        if lo is not None and hi is not None:
            val = (lo + hi) / 2
        elif lo is not None:
            val = lo + 1
        elif hi is not None:
            val = hi - 1
        else:
            val = Fraction(0)
        vals.append(val)
    return tuple(vals)


def maximin_on_cross_polytope(rows, dim):
    """Maximize min_i rows_i(x) over the unit cross-polytope |x|_1 <= 1.

    rows are primitive integer forms.  Returns (t_star, point) with exact
    rationals; t_star > 0 iff the open cone {rows . x > 0} is nonempty.
    Every program writes x = p - q with p, q >= 0 and sum(p + q) <= 1.
    The first maximizes t subject to rows . x >= t; its dual must certify
    t_star, or InternalError is raised.  Then, for k = 1..dim in turn, with
    t = t_star and x_1..x_(k-1) fixed, x_k is the midpoint of its least and
    greatest value.
    """
    m = len(rows)
    A = [[-v for v in r] + list(r) + [1] for r in rows] + [[1] * (2 * dim) + [0]]
    t_star, _, dual = _simplex.maximize(A, [0] * m + [1], [0] * (2 * dim) + [1])
    y = dual[:m]
    # weak duality: min_i r_i . x <= sum_i y_i r_i . x <= max_j |sum_i y_i r_ij|
    if (any(v < 0 for v in y) or sum(y) != 1
            or any(abs(sum(v * r[j] for v, r in zip(y, rows))) > t_star
                   for j in range(dim))):
        raise InternalError("the dual does not certify t* as the best minimum slack")
    point = []
    for k in range(dim):
        tail = range(k, dim)
        A = ([[-r[j] for j in tail] + [r[j] for j in tail] for r in rows]
             + [[1] * (2 * len(tail))])
        b = [sum((r[j] * v for j, v in enumerate(point)), -t_star) for r in rows]
        b.append(1 - sum((abs(v) for v in point), Fraction(0)))
        den = lcm(*(v.denominator for v in b))
        b = [int(v * den) for v in b]
        c = [1] + [0] * (len(tail) - 1) + [-1] + [0] * (len(tail) - 1)
        hi = _simplex.maximize(A, b, c)[0]
        lo = -_simplex.maximize(A, b, [-v for v in c])[0]
        point.append((lo + hi) / (2 * den))
    return t_star, tuple(point)
