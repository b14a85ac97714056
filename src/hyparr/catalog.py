"""Catalog of named arrangements and seeded generic constructions.

Randomized constructors are deterministic for a fixed seed and verify their
defining combinatorics before returning: genericity is decided exactly by
one walk over the dim-subsets of the forms (`_all_small_subsets_independent`),
never assumed, and the fixed six-line realization is checked against its
intended incidence data (two triple points, all other crossings double,
three parallel classes).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from operator import mul

from .arrangement import (AffineArrangement, Arrangement, SignVector, cone,
                          essentialize, validate)
from .consistency import first_failing_flat
from .errors import (GenericityFailed, HyparrError, RealizationInvalid,
                     WitnessNotFound)
from .lattice import Lattice, build_lattice
from .linalg import (RatVector, coordinates, cut_kernel, primitive_int_vector, products,
                     rank)

RETRY_BUDGET = 64
COEFFICIENT_BOUND = 9


def boolean(dim: int) -> Arrangement:
    """The coordinate hyperplanes x_1, ..., x_dim."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    forms = [[1 if j == i else 0 for j in range(dim)] for i in range(dim)]
    labels = [f"x{i + 1}" for i in range(dim)]
    return validate(Arrangement.from_forms(dim, forms, labels))


def generic4() -> Arrangement:
    """x = 0, y = 0, z = 0 and x + y + z = 0 in R^3."""
    return validate(Arrangement.from_forms(
        3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        ["x", "y", "z", "x+y+z"]))


def generic(n: int, dim: int, seed: int) -> Arrangement:
    """n random integer forms in R^dim, redrawn until every subset of size
    <= dim is independent, which one walk over the prefixes of the
    dim-subsets decides exactly.  Deterministic per seed."""
    if not n >= dim >= 1:
        raise ValueError("need n >= dim >= 1")
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        forms = []
        for _ in range(n):
            row = [rng.randint(-COEFFICIENT_BOUND, COEFFICIENT_BOUND) for _ in range(dim)]
            forms.append(row)
        if any(all(v == 0 for v in row) for row in forms):
            continue
        if _all_small_subsets_independent(forms, dim):
            return validate(Arrangement.from_forms(dim, forms))
    raise GenericityFailed(f"no generic draw in {RETRY_BUDGET} tries (seed {seed})")


def moment(n: int, dim: int) -> Arrangement:
    """The forms (1, t, t^2, ..., t^(dim-1)) for t = 1..n: points of the
    moment curve, so every dim of them are independent (Vandermonde) and the
    arrangement is generic with no draw."""
    if not n >= dim >= 1:
        raise ValueError("need n >= dim >= 1")
    return validate(Arrangement.from_forms(dim, [[t ** j for j in range(dim)]
                                                 for t in range(1, n + 1)]))


def _all_small_subsets_independent(forms, dim) -> bool:
    """Whether every dim of the n >= dim integer forms are independent, so
    that every smaller subset is too.

    One depth-first walk over the prefixes of the dim-subsets in lex order.
    A node holds the `kernel_basis` of its prefix, and one `products` map
    gives every form's values at a row.  A form extends the prefix to an
    independent set iff its restriction u, its values at the rows, is
    nonzero; the child's rows are then `linalg.cut_kernel(rows, u, p)`, the
    cut that the lattice's level loop makes: u_p * k_t - u_t * k_p for the
    first p with u_p != 0, made canonical by `_direction`, which raises
    InternalError on a zero row, and so the kernel basis of the child's
    prefix.  A node with two rows k1, k2 has the columns c1, c2 and decides
    each child j, with restriction (a, b), with no further kernel: the
    values at the line's row a * k2 - b * k1 are the n minors a * c2[l] -
    b * c1[l], and they must hold exactly dim - 1 zeros (the prefix and j),
    as the lattice's line check asks.  A zero at any other l is a dependent
    dim-subset.  Every dim-subset is a leaf of the walk, reached through an
    independent prefix or rejected on the way, so the walk decides the same
    predicate as a rank check of every dim-subset."""
    n = len(forms)
    at = products(forms)

    def walk(rows, cols, start) -> bool:
        m = len(rows)
        if m == 1:  # dim 1: the root's row spans the line
            return cols[0].count(0) == dim - 1
        if m == 2:
            c1, c2 = cols
            return all([a * y == b * x for x, y in zip(c1, c2)].count(True) == dim - 1
                       for a, b in zip(c1[start:n - 1], c2[start:n - 1]))
        for j in range(start, n - m + 1):  # m - 1 forms must follow j
            u = [c[j] for c in cols]
            p = next((t for t, x in enumerate(u) if x), None)
            if p is None:
                return False
            child = cut_kernel(rows, u, p)
            if not walk(child, list(map(at, child)), j + 1):
                return False
        return True

    # the values at the unit rows are the forms' coordinates
    unit = [tuple(int(s == t) for s in range(dim)) for t in range(dim)]
    return walk(unit, list(zip(*forms)), 0)


# Fixed realization of the six-line figure with two triple points:
#   H1: x+2y=10  H2: x+2y=8  H3: x=6  H4: x=4  H5: x-2y=2  H6: x-2y=0
_X2_LINES = [
    ((1, 2), 10), ((1, 2), 8), ((1, 0), 6), ((1, 0), 4), ((1, -2), 2), ((1, -2), 0),
]


def x2_affine() -> AffineArrangement:
    """Six affine lines with triple points exactly at {1,3,5} and {2,4,6}."""
    forms = [a for a, _ in _X2_LINES]
    constants = [-b for _, b in _X2_LINES]
    arr = AffineArrangement.of(2, forms, constants)
    _verify_x2(arr)
    return arr


def _verify_x2(arr: AffineArrangement) -> None:
    parallel = []
    points: dict[tuple[Fraction, Fraction], set[int]] = {}
    for i, j in combinations(range(arr.n), 2):
        a, b = arr.forms[i], arr.forms[j]
        d = a[0] * b[1] - a[1] * b[0]
        if d == 0:
            parallel.append({i, j})
            continue
        ci, cj = arr.constants[i], arr.constants[j]
        x = (-ci * b[1] + cj * a[1]) / d
        y = (-a[0] * cj + b[0] * ci) / d
        points.setdefault((x, y), set()).update((i, j))
    triples = sorted(tuple(sorted(k + 1 for k in v))
                     for v in points.values() if len(v) > 2)
    if triples != [(1, 3, 5), (2, 4, 6)]:
        raise RealizationInvalid(f"triple points {triples} != [(1,3,5), (2,4,6)]")
    if any(len(v) > 3 for v in points.values()):
        raise RealizationInvalid("an intersection point of multiplicity > 3")
    if sorted(tuple(sorted(k + 1 for k in p)) for p in parallel) != \
            [(1, 2), (3, 4), (5, 6)]:
        raise RealizationInvalid("parallel classes are not {1,2}, {3,4}, {5,6}")
    expected = {(Fraction(6), Fraction(2)), (Fraction(4), Fraction(2))}
    got = {pt for pt, v in points.items() if len(v) > 2}
    if got != expected:
        raise RealizationInvalid(f"triple points at {sorted(got)}")


def x2_coned() -> Arrangement:
    """The coning of the six-line figure: 7 planes in R^3, z = 0 last."""
    return cone(x2_affine())


def braid(m: int) -> Arrangement:
    """Forms x_i - x_j (i < j) in R^m, restricted to essential coordinates."""
    if m < 2:
        raise ValueError("m must be >= 2")
    forms = []
    labels = []
    for i, j in combinations(range(m), 2):
        row = [0] * m
        row[i] = 1
        row[j] = -1
        forms.append(row)
        labels.append(f"x{i + 1}-x{j + 1}")
    return validate(essentialize(
        [RatVector.of(r) for r in forms], m, labels))


def generic_union(A: Arrangement, B: Arrangement,
                  seed: int) -> tuple[Arrangement, SignVector]:
    """A union A and g(B) for a seeded random g, with a verified witness.

    B is checked before the first draw: its forms must have A's dimension,
    be nonzero and be pairwise non-proportional.  g is redrawn until it has
    rank dim and A and g(B) are in general position, read from the union's
    lattice (`_in_general_position`); the returned sign vector takes the
    first chamber of A that g(B)'s first hyperplane does not cut, the side
    of that hyperplane away from it, and the first chamber of g(B) on that
    side.  Both chamber sets are the lattices' topes, read from the lines
    with no enumeration limit, and no solver runs.  The sign vector is
    verified locally consistent and globally inconsistent before returning.
    """
    if B.n == 0:
        raise ValueError("B must be nonempty")
    if A.dim != B.dim:
        raise ValueError("A and B must live in the same dimension")
    validate(A)
    dim = A.dim
    for i, f in enumerate(B.forms):
        if f.dim != dim:
            raise ValueError(f"form {i + 1} of B has dimension {f.dim}, expected {dim}")
    # g(B) has B's chambers for every g; a one-plane B is not essential
    gB = essentialize(B.forms, dim)
    gb_topes = build_lattice(gB).topes()
    rng = random.Random(seed)
    failed_witness = False
    for _ in range(RETRY_BUDGET):
        g = [[rng.randint(-COEFFICIENT_BOUND, COEFFICIENT_BOUND) for _ in range(dim)]
             for _ in range(dim)]
        if rank(g, dim) < dim:
            continue
        # the forms of g(B) are f . g^-1: the coordinates of f in g's rows
        gb_forms = [coordinates(g, f) for f in B.forms]
        try:
            union = validate(Arrangement.from_forms(
                dim, list(A.forms) + gb_forms,
                list(A.labels) + [f"g.{l}" for l in B.labels]))
        except HyparrError:
            continue
        if not _in_general_position(build_lattice(union), A.n):
            continue
        eps = _union_witness(A, gb_forms[0], gb_topes)
        if eps is None:
            continue
        failure = first_failing_flat(union, eps)
        if failure is not None and failure.flat.codim == dim:  # fails first at the top
            return union, eps
        failed_witness = True
    if failed_witness:
        raise WitnessNotFound(f"no verified witness in {RETRY_BUDGET} tries (seed {seed})")
    raise GenericityFailed(f"no generic g in {RETRY_BUDGET} tries (seed {seed})")


def _in_general_position(lat: Lattice, na: int) -> bool:
    """Whether the first na forms of the union (A) and the rest (g(B)) are
    in general position: every flat S of A and T of g(B) span rank
    min(rank S + rank T, dim).  That holds iff every flat U of the union
    but the top splits into the flats U & A and U - A, with codims adding up
    to codim U.  If it holds, take U, the closure of S and T: below the top,
    rank U <= rank S + rank T <= codim(U & A) + codim(U - A) = rank U.
    Conversely, a flat of A below the top takes no form of g(B) into its
    closure, which would break general position with that one form, so
    U & A and U - A are flats of the union, and their pair gives the sum."""
    a = frozenset(range(na))
    for U in lat.flats[:-1]:
        S, T = lat.by_contains.get(U.contains & a), lat.by_contains.get(U.contains - a)
        if S is None or T is None or S.codim + T.codim != U.codim:
            return False
    return True


def _union_witness(A: Arrangement, first_form, gb_topes):
    """The witness of the union.  A closed chamber of A is the cone of its
    conforming lines, which the tope search keeps for it, so g(B)'s first
    form cuts it iff it takes both strict signs on them; otherwise it lies
    on the side of their nonzero values."""
    lat = build_lattice(A)
    first = primitive_int_vector(first_form)
    for c0 in lat.topes():
        lines = lat.lines(lat.top, lat.conforming(lat.top, c0.signs))
        sides = {dot > 0 for v in lines if (dot := sum(map(mul, first, v)))}
        if len(sides) == 1:
            away = -1 if sides.pop() else 1
            return next(SignVector(c0.signs + t.signs) for t in gb_topes if t[0] == away)
    return None
