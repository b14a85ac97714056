"""Independent oracles for cross-checking, sharing no code with the package.

- strict feasibility decided from the opposite side of the alternative: a
  phase-1 simplex (Bland's rule, exact Fractions) searches for a nonzero
  nonnegative combination of the rows summing to zero;
- one-sided confirmation by exhaustive grid search on the cross-polytope
  boundary;
- rank/kernel by plain Gauss-Jordan over Fractions (no Bareiss);
- flats by brute-force closure over all index subsets;
- general position of two families by the rank of every pair of their
  flats;
- walls and flows rebuilt on top of the simplex oracle only.

Their own checks raise AssertionError explicitly, so they stay on under
`python -O`.
"""

from fractions import Fraction
from itertools import combinations, product


def phase1_feasible(eqs, rhs):
    """Is {y >= 0 : eqs . y = rhs} nonempty?  Exact two-phase-free simplex."""
    m = len(eqs)
    n = len(eqs[0]) if m else 0
    T = []
    for r in range(m):
        row = [Fraction(x) for x in eqs[r]]
        b = Fraction(rhs[r])
        if b < 0:
            row = [-x for x in row]
            b = -b
        T.append(row + [Fraction(0)] * m + [b])
    for r in range(m):
        T[r][n + r] = Fraction(1)
    basis = list(range(n, n + m))
    ncols = n + m
    obj = [sum(T[r][j] for r in range(m)) for j in range(ncols + 1)]
    while True:
        e = next((j for j in range(n) if obj[j] > 0), None)  # Bland
        if e is None:
            break
        best = None
        for r in range(m):
            if T[r][e] > 0:
                ratio = T[r][ncols] / T[r][e]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[r] < best[2]):
                    best = (ratio, r, basis[r])
        if best is None:
            raise AssertionError("the phase-1 objective must be bounded")
        r = best[1]
        piv = T[r][e]
        T[r] = [x / piv for x in T[r]]
        for rr in range(m):
            if rr != r and T[rr][e] != 0:
                f = T[rr][e]
                T[rr] = [x - f * y for x, y in zip(T[rr], T[r])]
        if obj[e] != 0:
            f = obj[e]
            obj = [x - f * y for x, y in zip(obj, T[r])]
        basis[r] = e
    return obj[ncols] == 0


def simplex_feasible(rows, dim):
    """Strict feasibility of {r . x > 0} via the nonexistence of a dual ray."""
    m = len(rows)
    if m == 0:
        return True
    eqs = [[rows[i][j] for i in range(m)] for j in range(dim)]
    rhs = [0] * dim
    eqs.append([1] * m)
    rhs.append(1)
    return not phase1_feasible(eqs, rhs)


def grid_witness(rows, dim, fineness=6):
    """Search the cross-polytope boundary grid for a strict witness.

    Returns a witness tuple or None.  One-sided: None proves nothing.
    """
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for comp in compositions(fineness, dim):
        support = [i for i, c in enumerate(comp) if c]
        for signs in product((1, -1), repeat=len(support)):
            x = [Fraction(c, fineness) for c in comp]
            for s, i in zip(signs, support):
                x[i] *= s
            if all(sum(Fraction(r[j]) * x[j] for j in range(dim)) > 0 for r in rows):
                return tuple(x)
    return None


def rref_rank(rows, dim):
    """Rank by plain Gauss-Jordan over Fractions."""
    a = [[Fraction(v) for v in r] for r in rows]
    r = 0
    for c in range(dim):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def rref_kernel(rows, dim):
    """Kernel basis rows by Gauss-Jordan back-substitution."""
    a = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(dim):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -a[i][f]
        basis.append(tuple(v))
    return basis


def brute_force_flats(forms, dim):
    """Closed index sets of every subset, with codim, via rref only."""
    n = len(forms)
    found = {}
    for size in range(n + 1):
        for S in combinations(range(n), size):
            sub = [forms[i] for i in S]
            k = rref_kernel(sub, dim)
            closed = frozenset(
                j for j in range(n)
                if all(sum(Fraction(forms[j][t]) * v[t] for t in range(dim)) == 0
                       for v in k))
            found[closed] = dim - len(k)
    return found


def general_position(a_forms, b_forms, dim):
    """Whether every flat S of A and T of B together span rank
    min(rank S + rank T, dim): flats by brute force, each pair by rref."""
    a_flats, b_flats = brute_force_flats(a_forms, dim), brute_force_flats(b_forms, dim)
    return all(rref_rank([a_forms[i] for i in S] + [b_forms[j] for j in T], dim)
               == min(ra + rb, dim)
               for S, ra in a_flats.items() for T, rb in b_flats.items())


def oracle_walls(forms, dim, signs):
    """Wall set of a chamber, using rref kernels and the simplex oracle."""
    n = len(forms)
    out = set()
    for i in range(n):
        K = rref_kernel([forms[i]], dim)
        reduced = []
        for j in range(n):
            if j == i:
                continue
            reduced.append(tuple(
                signs[j] * sum(Fraction(forms[j][t]) * b[t] for t in range(dim))
                for b in K))
        if simplex_feasible(reduced, len(K)):
            out.add(i)
    return out


def oracle_flow(forms, dim, eps, start_signs):
    """Lowest-disagreeing-wall walk until every wall agrees with eps."""
    cur = tuple(start_signs)
    path = [cur]
    crossed = []
    while True:
        w = oracle_walls(forms, dim, cur)
        bad = sorted(i for i in w if cur[i] != eps[i])
        if not bad:
            return path, crossed
        i = bad[0]
        cur = cur[:i] + (-cur[i],) + cur[i + 1:]
        if not simplex_feasible(
                [tuple(cur[j] * Fraction(v) for v in forms[j]) for j in range(len(forms))],
                dim):
            raise AssertionError("crossing a wall must land in a chamber")
        path.append(cur)
        crossed.append(i)
        if len(crossed) > len(forms):
            raise AssertionError("the flow crossed more walls than there are hyperplanes")
