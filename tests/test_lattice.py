import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

import pytest

import hyparr.lattice
from hyparr import catalog
from hyparr.arrangement import Arrangement, arrangement_to_obj, primitive_rows, validate
from hyparr.cli import main
from hyparr.errors import DuplicateHyperplane, InternalError, NotEssential, ZeroForm
from hyparr.lattice import Flat, build_lattice, chamber_count_oracle, characteristic_polynomial
from hyparr.linalg import (RatVector, canonical_int_vector, cut_kernel, kernel_basis,
                           primitive_int_vector, products)

from conftest import random_arrangement
from oracles import brute_force_flats, rref_rank


def _forms_int(A):
    return [tuple(int(x) for x in h.form) for h in A.hyperplanes]


def test_boolean_r2_four_flats():
    L = build_lattice(catalog.boolean(2))
    assert len(L.flats) == 4
    assert [len(L.flats_of_codim(c)) for c in range(3)] == [1, 2, 1]


def test_generic4_flats_match_brute_force(generic4):
    L = build_lattice(generic4)
    brute = brute_force_flats(_forms_int(generic4), 3)
    assert {f.contains for f in L.flats} == set(brute)
    for f in L.flats:
        assert f.codim == brute[f.contains]
    assert Counter(f.codim for f in L.flats) == Counter({0: 1, 1: 4, 2: 6, 3: 1})


def test_cx2_flats_match_brute_force(cx2):
    L = build_lattice(cx2)
    brute = brute_force_flats(_forms_int(cx2), 3)
    assert {f.contains for f in L.flats} == set(brute)
    assert Counter(f.codim for f in L.flats) == Counter({0: 1, 1: 7, 2: 11, 3: 1})
    # triple points {1,3,5} and {2,4,6} and the three infinity flats contain 3 planes
    big = sorted(tuple(sorted(i + 1 for i in f.contains))
                 for f in L.flats if f.codim == 2 and len(f.contains) == 3)
    assert big == [(1, 2, 7), (1, 3, 5), (2, 4, 6), (3, 4, 7), (5, 6, 7)]


def test_chamber_counts():
    assert chamber_count_oracle(build_lattice(catalog.boolean(2))) == 4
    assert chamber_count_oracle(build_lattice(catalog.generic4())) == 14
    assert chamber_count_oracle(build_lattice(catalog.x2_coned())) == 34


def test_generic4_moebius_values(generic4):
    L = build_lattice(generic4)
    assert L.mu(L.bottom) == 1
    for X in L.flats_of_codim(1):
        assert L.mu(X) == -1
    for X in L.flats_of_codim(2):
        assert L.mu(X) == 1
    assert L.mu(L.top) == -3


def test_cx2_moebius_values(cx2):
    L = build_lattice(cx2)
    for X in L.flats_of_codim(2):
        assert L.mu(X) == (2 if len(X.contains) == 3 else 1)
    assert L.mu(L.top) == -10


def test_moebius_sum_invariant_random():
    rng = random.Random(19)
    for _ in range(15):
        A = random_arrangement(rng, dim=rng.randint(2, 3), n=rng.randint(3, 6))
        L = build_lattice(A)
        for X in L.flats:
            if X is L.bottom:
                continue
            assert sum(L.mu(Y) for Y in L.flats if Y.contains <= X.contains) == 0


def test_codim_equals_rank_and_distinct_contains():
    rng = random.Random(23)
    for _ in range(10):
        A = random_arrangement(rng)
        L = build_lattice(A)
        seen = set()
        for X in L.flats:
            assert X.contains not in seen
            seen.add(X.contains)
            if X.contains:
                sub = [A.hyperplanes[i].form for i in sorted(X.contains)]
                assert rref_rank(sub, A.dim) == X.codim
            else:
                assert X.codim == 0
        assert len(L.flats_of_codim(1)) == A.n
        assert len(L.flats_of_codim(0)) == 1
        assert len(L.flats_of_codim(A.dim)) == 1


def test_top_is_the_last_flat_and_a_lattice_needs_an_origin(generic4):
    L = build_lattice(generic4)
    assert L.top is L.flats[-1] and L.top.codim == 3 and L.top.contains == {0, 1, 2, 3}
    # two planes in R^3 meet in a line, so no flat is the origin
    with pytest.raises(NotEssential):
        build_lattice(Arrangement.from_forms(3, [[1, 0, 0], [0, 1, 0]]))


def test_characteristic_polynomial_generic4(generic4):
    # chi(t) = t^3 - 4t^2 + 6t - 3; coefficients are listed c[0]..c[dim]
    assert characteristic_polynomial(build_lattice(generic4)) == (-3, 6, -4, 1)


# Entries of the non-generic draws: mostly -1, 0, 1, so that many planes meet
# in one flat, and a few fractions, so that rows are not already primitive.
ENTRIES = (-1, -1, 0, 0, 0, 1, 1, Fraction(1, 2), Fraction(-2, 3), -2)


def _nongeneric_arrangements(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(3, 4)
        forms = [[rng.choice(ENTRIES) for _ in range(dim)] for _ in range(rng.randint(dim, 8))]
        try:
            out.append(validate(Arrangement.from_forms(dim, forms)))
        except (ZeroForm, DuplicateHyperplane, NotEssential):
            continue
    return out


def _moebius_by_definition(flats):
    """mu(bottom) = 1 and mu(X) = -sum of mu(Y) over the Y with Y.contains < X.contains."""
    mu = {}
    for X in sorted(flats, key=lambda f: f.codim):
        mu[X.contains] = -sum(mu[Y.contains] for Y in flats
                              if Y.contains < X.contains) if X.codim else 1
    return mu


def _assert_covers_by_definition(L):
    """Y covers X iff X.contains < Y.contains and codim Y = codim X + 1; the
    strict down-set of Y is every X with X.contains < Y.contains."""
    for t, Y in enumerate(L.flats):
        lower = tuple(s for s, X in enumerate(L.flats)
                      if X.contains < Y.contains and X.codim == Y.codim - 1)
        upper = tuple(s for s, Z in enumerate(L.flats)
                      if Y.contains < Z.contains and Z.codim == Y.codim + 1)
        assert L.lower[t] == lower and L.upper[t] == upper
        assert L.lower_covers(Y) == tuple(L.flats[s] for s in lower)
        assert L.below(Y) == tuple(X for X in L.flats if X.contains < Y.contains)


@pytest.mark.parametrize("name", ["generic(12,4)", "generic(9,5)", "braid(6)", "braid(7)", "cx2"])
def test_weisner_moebius_values_and_first_use_down_sets_match_the_definition(name):
    # mu from the lower covers by Weisner's theorem, and the down-sets that
    # `below` builds on its first call, whichever flat that call is at
    A = {"generic(12,4)": lambda: catalog.generic(12, 4, 2024),
         "generic(9,5)": lambda: catalog.generic(9, 5, 2024),
         "braid(6)": lambda: catalog.braid(6), "braid(7)": lambda: catalog.braid(7),
         "cx2": catalog.x2_coned}[name]()
    L = build_lattice.__wrapped__(A)
    assert L._down is None
    sets = [X.contains for X in L.flats]
    below = {Y: tuple(X for X in L.flats if X.contains < Y) for Y in sets}
    assert L.below(L.top) == below[L.top.contains] == L.flats[:-1]
    for Y in L.flats:
        assert L.below(Y) == below[Y.contains]
    assert L.moebius == _moebius_by_definition(L.flats)


def test_covers_match_definition(generic4, cx2):
    for A in (generic4, cx2, catalog.braid(5)):
        _assert_covers_by_definition(build_lattice(A))


def test_flats_are_ordered_by_codim_then_key(generic4, cx2):
    # the CLI, the gap witnesses and the sampled search read this order unsorted
    for A in (generic4, cx2, catalog.braid(5), *_nongeneric_arrangements(31, 25)):
        order = [(X.codim, X.key()) for X in build_lattice(A).flats]
        assert order == sorted(order)


# Forms whose lines and most planes have kernel rows past the bound of the
# packed `products` (max ||r||_1 * max |v| >= 2^63), while the bottom's and
# the plane of (1, 1, 1)'s rows stay below it: one lattice takes both paths.
PAST_THE_BOUND = ((10 ** 12, 1, 0), (0, 10 ** 12 + 1, 1), (1, 0, 10 ** 12 + 3),
                  (3 ** 30, 5 ** 20, 7 ** 15), (1, 1, 1))


def test_nongeneric_lattice_matches_brute_force():
    multiple_points = 0
    for A in [*_nongeneric_arrangements(31, 25), Arrangement.from_forms(3, PAST_THE_BOUND)]:
        L = build_lattice(A)
        forms = [tuple(h.form) for h in A.hyperplanes]
        brute = brute_force_flats(forms, A.dim)
        assert {X.contains: X.codim for X in L.flats} == brute
        _assert_covers_by_definition(L)
        mu = _moebius_by_definition(L.flats)
        rows = primitive_rows(A)
        for X in L.flats:
            assert L.mu(X) == mu[X.contains]
            assert len(X.kernel) == A.dim - X.codim
            assert X.kernel == tuple(kernel_basis([rows[i] for i in X.key()], A.dim))
            for k in X.kernel:
                assert type(k) is tuple and all(type(a) is int for a in k)
                assert gcd(*k) == 1 and next(a for a in k if a) > 0
            for i, f in enumerate(A.forms):
                vanishes = all(f.dot(RatVector.of(k)) == 0 for k in X.kernel)
                assert vanishes == (i in X.contains)
            multiple_points += X.codim == 2 and len(X.contains) > 2
    assert multiple_points >= 10  # the draws are far from generic


@pytest.mark.parametrize("name", ["generic(12,4)", "braid(6)", "cx2", "past the bound",
                                  "generic(9,5)", "moment(20,5)", "generic(9,6)"])
def test_every_kernel_is_the_kernel_basis_of_its_forms(name):
    # every flat but the bottom cuts its rows from its first lower cover's:
    # they must be the kernel basis of the flat's forms; in dims 5 and 6,
    # flats with 2 or more rows are cut from flats with 3 or more
    A = {"generic(12,4)": lambda: catalog.generic(12, 4, 2024),
         "braid(6)": lambda: catalog.braid(6), "cx2": catalog.x2_coned,
         "past the bound": lambda: Arrangement.from_forms(3, PAST_THE_BOUND),
         "generic(9,5)": lambda: catalog.generic(9, 5, 2024),
         "moment(20,5)": lambda: catalog.moment(20, 5),
         "generic(9,6)": lambda: catalog.generic(9, 6, 2024)}[name]()
    rows = primitive_rows(A)
    L = build_lattice(A)
    lines = L.flats_of_codim(A.dim - 1)
    assert lines and all(len(X.kernel) == 1 for X in lines)
    for X in L.flats:
        assert X.kernel == tuple(kernel_basis([rows[i] for i in X.key()], A.dim))
        zeros = {i for i, r in enumerate(rows)
                 if all(sum(map(mul, r, k)) == 0 for k in X.kernel)}
        assert zeros == X.contains
    assert L.lower[-1] == tuple(range(len(L.flats) - 1 - len(lines), len(L.flats) - 1))
    norm = max(sum(map(abs, r)) for r in rows)
    packed = {norm * max(map(abs, k)) < 1 << 63 for X in L.flats for k in X.kernel}
    assert packed == ({True, False} if name == "past the bound" else {True})


def _sparse_arrangements(seed, count):
    """Draws in R^5 and R^6 of dim + 1 to 9 forms with 1 to 3 nonzero
    entries each, some fractions: in these dims, dense rows of small entries
    are nearly generic, and sparse ones are not."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(5, 6)
        forms = []
        for _ in range(rng.randint(dim + 1, 9)):
            row = [0] * dim
            for j in rng.sample(range(dim), rng.randint(1, 3)):
                row[j] = rng.choice((-1, 1, 1, 2, Fraction(1, 2), Fraction(-2, 3)))
            forms.append(row)
        try:
            out.append(validate(Arrangement.from_forms(dim, forms)))
        except (ZeroForm, DuplicateHyperplane, NotEssential):
            continue
    return out


def test_degenerate_kernels_in_dims_5_and_6_are_kernel_bases():
    # each flat's cut rows are the kernel basis of its forms, and the flats
    # are the closures of every subset
    draws = _sparse_arrangements(43, 10)
    assert {A.dim for A in draws} == {5, 6}
    multiple = 0  # flats with 2 or more rows and more forms than their codim
    for A in draws:
        L = build_lattice(A)
        rows = primitive_rows(A)
        assert {X.contains: X.codim for X in L.flats} == brute_force_flats(
            [tuple(h.form) for h in A.hyperplanes], A.dim)
        for X in L.flats:
            assert X.kernel == tuple(kernel_basis([rows[i] for i in X.key()], A.dim))
            multiple += len(X.kernel) >= 2 and len(X.contains) > X.codim
    assert multiple >= 30  # the draws are far from generic


@pytest.mark.parametrize("name", ["braid4", "braid5", "cx2", "fault8"])
def test_beta_is_nonzero_exactly_at_the_connected_flats(name):
    # Crapo: beta(X) != 0 iff the forms of X cannot be split into two
    # nonempty parts whose ranks add up to codim X
    from conftest import FAULT8_FORMS

    A = {"braid4": lambda: catalog.braid(4), "braid5": lambda: catalog.braid(5),
         "cx2": catalog.x2_coned,
         "fault8": lambda: Arrangement.from_forms(4, FAULT8_FORMS)}[name]()
    rows = primitive_rows(A)
    L = build_lattice(A)

    def splits(X):
        first, *rest = X.key()
        for r in range(len(rest)):
            for T in combinations(rest, r):
                other = [i for i in rest if i not in T]
                if (rref_rank([rows[i] for i in (first, *T)], A.dim)
                        + rref_rank([rows[i] for i in other], A.dim)) == X.codim:
                    return True
        return False

    for X in L.flats[1:]:
        assert L.beta(X) >= 0
        assert (L.beta(X) != 0) == (not splits(X)), sorted(X.contains)
    assert {L.beta(X) == 0 for X in L.flats[1:]} == {True, False}


def test_closed_sets_of_non_essential_family():
    # forms u . M for u in {-1, 0, 1}^3 and M of rank 3: a rank-3 family in R^4
    M = ((1, 0, 2, Fraction(1, 2)), (0, 1, -1, 0), (1, 1, 0, -3))
    rng = random.Random(37)
    for _ in range(6):
        forms, keys = [], set()
        while len(forms) < 7:
            u = [rng.choice((-1, 0, 1)) for _ in range(3)]
            f = tuple(sum(u[r] * M[r][c] for r in range(3)) for c in range(4))
            key = canonical_int_vector(f)
            if any(f) and key not in keys:
                keys.add(key)
                forms.append(f)
        levels, _ = hyparr.lattice._levels([primitive_int_vector(f) for f in forms], 4)
        closed = {X.contains: X.codim for level in levels for X in level}
        assert closed == brute_force_flats(forms, 4)
        assert max(closed.values()) == rref_rank(forms, 4) == 3
        with pytest.raises(NotEssential, match="rank 3 < 4"):
            build_lattice(Arrangement.from_forms(4, forms))


# sha256 of `hyparr lattice` stdout on the files `hyparr builtin` prints;
# in dims 5 and 6, flats with 2 or more kernel rows are cut from flats with
# 3 or more
LATTICE_SHA256 = {
    "braid5": "a57bd479690df63b4a1434ee6e16169edadbb9e123f1e12c905ac2a5a7b27e57",
    "cx2": "40e00aecdaf05c71b0388dd8feb9ca7e50ce3d288e1d70429604d77ed29bf46b",
    "generic(9,5)": "6e2af49d15b3fd0026fcc886bfe1d1d35ec2bd31c0ecb4321a8431c0fdabe008",
    "moment(20,5)": "0ad27ccabef5b351e0f911d3bd65d47fc7836ca8ac74528ef1d359b18822111a",
    "generic(9,6)": "5b7def0044c2fd4e3876cb8e63cbe0ec5a6dda9acc8268e4d2a193fb4a998491",
}
LATTICE_INPUTS = {
    "braid5": lambda: catalog.braid(5), "cx2": catalog.x2_coned,
    "generic(9,5)": lambda: catalog.generic(9, 5, 2024),
    "moment(20,5)": lambda: catalog.moment(20, 5),
    "generic(9,6)": lambda: catalog.generic(9, 6, 2024),
}


@pytest.mark.parametrize("name", sorted(LATTICE_SHA256))
def test_lattice_output_bytes_are_pinned(name, tmp_path):
    A = LATTICE_INPUTS[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(arrangement_to_obj(A), indent=2) + "\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["lattice", str(path)]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == LATTICE_SHA256[name]


def _primitive_by_fractions(values):
    """The Fraction-only reference: scale by the lcm of the denominators, then
    divide by the gcd."""
    fracs = [Fraction(v) for v in values]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(a // g for a in ints)


def test_primitive_int_vector_matches_fraction_reference():
    cases = [(), (0, 0, 0), (Fraction(0), "0"), (4, -6, 8), (-4, 6, -8), (0, -3, 9),
             ("1/2", "-2/3", "5"), (Fraction(-3, 4), Fraction(9, 8), 0), ("-7",),
             (True, 2), (Fraction(6, 1), 4)]
    rng = random.Random(41)
    cases += [tuple(rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                str(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))))
                    for _ in range(rng.randint(1, 5))) for _ in range(300)]
    for values in cases:
        got = primitive_int_vector(values)
        assert got == _primitive_by_fractions(values)
        assert all(type(a) is int for a in got)
    assert primitive_int_vector((-4, 6)) == (-2, 3)
    assert canonical_int_vector((-4, 6)) == (2, -3)


def test_lattice_invariant_failure_is_internal_error(monkeypatch, tmp_path, capsys):
    def short_cut(K, u, p):
        return cut_kernel(K, u, p)[:-1]

    path = tmp_path / "generic4.json"
    path.write_text(json.dumps(arrangement_to_obj(catalog.generic4())))
    build_lattice.cache_clear()
    monkeypatch.setattr(hyparr.lattice, "cut_kernel", short_cut)
    try:
        with pytest.raises(InternalError, match="kernel rows, expected"):
            build_lattice(catalog.generic4())
        assert main(["lattice", str(path)]) == 1
    finally:
        build_lattice.cache_clear()
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "InternalError"


def _rotated_cut(K, u, p):
    """Cut rows of the right count, with coordinates rotated by one."""
    return tuple(k[1:] + k[:1] for k in cut_kernel(K, u, p))


_REAL_LEVELS = hyparr.lattice._levels


def _levels_with_a_stray_flat(rows, dim):
    """The true levels, plus a codim-2 flat above a codim-2 flat they hold,
    with no lower cover."""
    levels, lower = _REAL_LEVELS(rows, dim)
    X = levels[2][0]
    levels[2].append(Flat(X.contains | {max(X.contains) + 1}, 2, X.kernel))
    return levels, lower


def _levels_with_the_bottom_as_a_cover(rows, dim):
    """The true levels, with the bottom, two codims down, as a cover of a
    codim-2 flat."""
    levels, lower = _REAL_LEVELS(rows, dim)
    lower[levels[2][0].contains].append(0)
    return levels, lower


def _levels_with_a_foreign_cover(rows, dim):
    """The true levels, with a hyperplane outside a codim-2 flat as its cover."""
    levels, lower = _REAL_LEVELS(rows, dim)
    Y = levels[2][0]
    lower[Y.contains].append(next(s for s, H in enumerate(levels[1], 1)
                                  if not H.contains < Y.contains))
    return levels, lower


def _plane_row(K, u, p):
    """The plane's first kernel row, in place of the line's cut from it."""
    return K[:1] if len(K) == 2 else cut_kernel(K, u, p)


def _a_line_reads_zero(rows):
    """Every form's value at a kernel row, with the first nonzero value at
    the row of generic4's line x = x + y + z = 0 reported as 0: that row is no
    other flat's kernel row."""
    values = products(rows)

    def skewed(v):
        out = values(v)
        if tuple(v) == (0, 1, -1):
            out[out.index(next(filter(None, out)))] = 0
        return out

    return skewed


@pytest.mark.parametrize("attr, fake, message", [
    ("cut_kernel", _rotated_cut, "disagrees with form"),
    ("cut_kernel", _plane_row, "disagrees with form"),
    ("products", _a_line_reads_zero, r"flat \[0, 3\] disagrees with form 2"),
    ("_levels", _levels_with_a_stray_flat, "has no lower cover"),
    ("_levels", _levels_with_the_bottom_as_a_cover, "is no lower cover"),
    ("_levels", _levels_with_a_foreign_cover, "is no lower cover"),
])
def test_lattice_checks_fire(monkeypatch, attr, fake, message):
    build_lattice.cache_clear()
    monkeypatch.setattr(hyparr.lattice, attr, fake)
    try:
        with pytest.raises(InternalError, match=message):
            build_lattice(catalog.generic4())
    finally:
        build_lattice.cache_clear()


def test_a_plane_with_dependent_kernel_rows_is_an_internal_error(monkeypatch):
    # the repeated row puts every form outside the plane in one group, whose
    # cut row u[0]*k2 - u[1]*k1 is the zero vector
    def repeated_row(K, u, p):
        rows = cut_kernel(K, u, p)
        return (rows[0], rows[0]) if len(rows) == 2 else rows

    build_lattice.cache_clear()
    monkeypatch.setattr(hyparr.lattice, "cut_kernel", repeated_row)
    try:
        with pytest.raises(InternalError, match="has no direction"):
            build_lattice(catalog.moment(5, 3))
    finally:
        build_lattice.cache_clear()


@pytest.mark.parametrize("name", ["generic4", "cx2", "braid4"])
def test_a_dropped_lower_cover_is_caught_or_harmless(name):
    # The upper covers of each flat must split the forms outside it, so a
    # missing cover is never harmless here: every drop is caught.
    A = {"generic4": catalog.generic4(), "cx2": catalog.x2_coned(),
         "braid4": catalog.braid(4)}[name]
    levels, lower = _REAL_LEVELS(primitive_rows(A), A.dim)
    drops = [(Y, t) for Y, covers in lower.items() for t in covers]
    assert len(drops) >= 12
    try:
        for Y, t in drops:
            def dropping(rows, dim, Y=Y, t=t):
                levels, lower = _REAL_LEVELS(rows, dim)
                lower[Y] = [s for s in lower[Y] if s != t]
                return levels, lower

            build_lattice.cache_clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hyparr.lattice, "_levels", dropping)
                with pytest.raises(InternalError, match="no lower cover|do not split"):
                    build_lattice(A)
    finally:
        build_lattice.cache_clear()


_REAL_MOEBIUS = hyparr.lattice._moebius


@pytest.mark.parametrize("wrong", ["negated", "zero"])
@pytest.mark.parametrize("position", [1, 5, -1])
def test_a_wrong_sign_moebius_value_is_caught(monkeypatch, wrong, position):
    def skewed(flats, lower):
        values = _REAL_MOEBIUS(flats, lower)
        values[position] = -values[position] if wrong == "negated" else 0
        return values

    build_lattice.cache_clear()
    monkeypatch.setattr(hyparr.lattice, "_moebius", skewed)
    try:
        with pytest.raises(InternalError, match="Rota's sign rule"):
            build_lattice(catalog.x2_coned())
    finally:
        build_lattice.cache_clear()
