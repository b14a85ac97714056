"""Pure-Python Fourier-Motzkin elimination over integer rows.

One elimination loop, `_eliminate`, and one back-substitution,
`_back_substitute`, serve both jobs of the kernel:

- `solve` decides a strict homogeneous system {r . x > 0}.  It is the hot
  path; the compiled twin (_fmcore) implements the identical loop with
  int64 arithmetic and falls back here on overflow, and the two must give
  identical output.
- `maximin_on_cross_polytope` computes the deep point of such a system: the
  non-strict affine system in (t, x) of r . x >= t on |x|_1 <= 1,
  eliminated down to t.

The loop processes rows in input order and always eliminates the last
column; pairs combine in (positive-list x negative-list) order, each new row
is reduced jointly with its provenance by their gcd, duplicates keep the
first occurrence, and a derived row with a variable left whose provenance
touches more than (eliminated + 1) original rows is dropped
(Chernikov/Imbert bound).

Every derived row carries a provenance vector: nonnegative integers p with
sum_i p_i * row_i equal to the derived row.  A derived row with no variable
left states const >= 0 (or const > 0 when the system is strict); when that
is false, its provenance is a dual certificate of infeasibility.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from .errors import InternalError


def _direction_key(row) -> tuple[int, ...]:
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else tuple(row)


def _eliminate(rows, nelim, lead, strict):
    """Eliminate the last column of the integer rows nelim times.

    Each row states const + row[lead:] . vars >= 0, or > 0 when strict; lead
    is 1 when column 0 holds const, and 0 for a homogeneous system, whose
    const is 0.  Returns (dual, stages, rest): dual is the primitive
    provenance of the first contradiction found, or None; stages[k] lists
    the rows seen before the k-th elimination, and rest the rows left after
    the last one.
    """
    n = len(rows)
    items = []
    seen = set()
    for i, r in enumerate(rows):
        key = _direction_key(r)
        if key not in seen:
            seen.add(key)
            items.append((tuple(r), tuple(int(j == i) for j in range(n))))
    stages = []
    for elim in range(1, nelim + 1):
        stages.append([row for row, _ in items])
        bound = elim + 1
        pos = [it for it in items if it[0][-1] > 0]
        neg = [it for it in items if it[0][-1] < 0]
        zer = [(row[:-1], prov) for row, prov in items if row[-1] == 0]
        new_items = []
        seen = set()

        def push(row, prov):
            if not any(row[lead:]):
                const = row[0] if lead else 0
                if const < 0 or (strict and const == 0):
                    g = gcd(*prov)
                    return tuple(p // g for p in prov)
                return None
            g = gcd(*row, *prov)
            if g > 1:
                row = tuple(v // g for v in row)
                prov = tuple(p // g for p in prov)
            key = _direction_key(row)
            if key not in seen:
                seen.add(key)
                new_items.append((row, prov))
            return None

        for row, prov in zer:
            dual = push(row, prov)
            if dual is not None:
                return dual, stages, None
        for arow, aprov in pos:
            ma = arow[-1]
            ahead = arow[:-1]
            for brow, bprov in neg:
                mb = -brow[-1]
                row = tuple(mb * a + ma * b for a, b in zip(ahead, brow))
                prov = tuple(mb * a + ma * b for a, b in zip(aprov, bprov))
                if any(row[lead:]) and n - prov.count(0) > bound:
                    continue
                dual = push(row, prov)
                if dual is not None:
                    return dual, stages, None
        items = new_items
    return None, stages, [row for row, _ in items]


def _back_substitute(stages, fixed, lead, strict):
    """Values for the columns that `_eliminate` removed, first one first.

    The leading columns are lead constants and the values in fixed; each
    stage, taken last to first, bounds its own last column.  A value lies at
    the midpoint of its bounds; with one side open it lies at the bound
    +/- 1 when strict and at the bound itself when not, and with no bound
    at 0.  Returns only the new values.
    """
    vals = [Fraction(v) for v in fixed]
    for rows in reversed(stages):
        lo = None
        hi = None
        for row in rows:
            c = row[-1]
            if c == 0:
                continue
            rest = sum((row[lead + j] * v for j, v in enumerate(vals)), Fraction(0))
            if lead:
                rest += row[0]
            b = -rest / c
            if c > 0:
                lo = b if lo is None or b > lo else lo
            else:
                hi = b if hi is None or b < hi else hi
        if lo is not None and hi is not None:
            val = (lo + hi) / 2
        elif lo is not None:
            val = lo + 1 if strict else lo
        elif hi is not None:
            val = hi - 1 if strict else hi
        else:
            val = Fraction(0)
        vals.append(val)
    return tuple(vals[len(fixed):])


def solve(rows, dim):
    """Decide {r . x > 0 for r in rows} with rows of primitive integers.

    Returns ("dual", coeffs) when infeasible, where coeffs is a primitive
    nonnegative integer vector with sum coeffs[i] * rows[i] == 0, or
    ("stages", snapshots) when feasible; snapshots[k] lists the row tuples
    over dim-k coordinates seen before eliminating coordinate dim-1-k.
    """
    dual, stages, _ = _eliminate(rows, dim, 0, True)
    return ("dual", dual) if dual is not None else ("stages", stages)


def witness_from_stages(stages, dim):
    """Back-substitute a rational interior point from elimination snapshots.

    Deterministic: midpoint of the (strictly separated) bound interval, or
    bound +/- 1 when one side is open, or 0 when unconstrained.
    """
    return _back_substitute(stages, (), 0, True)


def maximin_on_cross_polytope(rows, dim):
    """Maximize min_i rows_i(x) over the unit cross-polytope |x|_1 <= 1.

    rows are primitive integer forms.  Returns (t_star, point) with exact
    rationals; t_star > 0 iff the open cone {rows . x > 0} is nonempty.
    Columns are laid out (const, t, x_1..x_dim); the x columns are
    eliminated last-first and t is kept.
    """
    base = [(0, -1) + tuple(r) for r in rows]
    base += [(1, 0) + tuple(-s for s in sigma) for sigma in product((1, -1), repeat=dim)]
    dual, stages, rest = _eliminate(base, dim, 1, False)
    if dual is not None:
        raise InternalError("the cross-polytope system came out empty")
    # the rows left read const + c * t >= 0, and c < 0 bounds t above
    t_star = min((Fraction(row[0], -row[1]) for row in rest if row[1] < 0), default=None)
    if t_star is None:
        raise InternalError("t came out unbounded on the cross-polytope")
    return t_star, _back_substitute(stages, (t_star,), 1, False)
