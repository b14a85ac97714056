import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

import hyparr.lattice
from hyparr import catalog
from hyparr.arrangement import Arrangement, arrangement_to_obj, validate
from hyparr.cli import main
from hyparr.errors import DuplicateHyperplane, InternalError, NotEssential, UnknownFlat, ZeroForm
from hyparr.lattice import (Flat, build_lattice, chamber_count_oracle,
                            characteristic_polynomial, closed_sets_of_forms, localization)
from hyparr.linalg import RatMatrix, canonical_int_vector, primitive_int_vector, rank

from conftest import random_arrangement
from oracles import brute_force_flats


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


def test_localization(generic4):
    L = build_lattice(generic4)
    origin = L.top
    assert localization(L, origin) == frozenset({0, 1, 2, 3})
    pair = L.flat_for({0, 1})
    assert localization(L, pair) == frozenset({0, 1})
    assert localization(L, L.bottom) == frozenset()


def test_localization_unknown_flat(generic4):
    L = build_lattice(generic4)
    # {0,1,2} is not closed for generic4: those three forms already cut {0}
    stray = Flat(frozenset({0, 1, 2}), 3, L.top.kernel)
    with pytest.raises(UnknownFlat):
        localization(L, stray)


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
                sub = RatMatrix.of([A.hyperplanes[i].form for i in sorted(X.contains)],
                                   A.dim)
                assert rank(sub) == X.codim
            else:
                assert X.codim == 0
        assert len(L.flats_of_codim(1)) == A.n
        assert len(L.flats_of_codim(0)) == 1
        assert len(L.flats_of_codim(A.dim)) == 1


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


def test_nongeneric_lattice_matches_brute_force():
    multiple_points = 0
    for A in _nongeneric_arrangements(31, 25):
        L = build_lattice(A)
        forms = [tuple(h.form) for h in A.hyperplanes]
        brute = brute_force_flats(forms, A.dim)
        assert {X.contains: X.codim for X in L.flats} == brute
        mu = _moebius_by_definition(L.flats)
        for X in L.flats:
            assert L.mu(X) == mu[X.contains]
            assert X.kernel.nrows == A.dim - X.codim
            for i, f in enumerate(A.forms):
                vanishes = all(f.dot(k) == 0 for k in X.kernel.rows)
                assert vanishes == (i in X.contains)
            multiple_points += X.codim == 2 and len(X.contains) > 2
    assert multiple_points >= 10  # the draws are far from generic


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
        closed = closed_sets_of_forms(forms, 4)
        assert closed == brute_force_flats(forms, 4)
        assert max(closed.values()) == rank(RatMatrix.of(forms, 4)) == 3


# sha256 of `hyparr lattice` stdout on the files `hyparr builtin` prints
LATTICE_SHA256 = {
    "braid5": "a57bd479690df63b4a1434ee6e16169edadbb9e123f1e12c905ac2a5a7b27e57",
    "cx2": "40e00aecdaf05c71b0388dd8feb9ca7e50ce3d288e1d70429604d77ed29bf46b",
}


@pytest.mark.parametrize("name", sorted(LATTICE_SHA256))
def test_lattice_output_bytes_are_pinned(name, tmp_path):
    A = catalog.braid(5) if name == "braid5" else catalog.x2_coned()
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
    real = hyparr.lattice.kernel_basis

    def short_kernel(M):
        K = real(M)
        return RatMatrix(K.rows[:-1], K.ncols) if M.rows else K

    path = tmp_path / "generic4.json"
    path.write_text(json.dumps(arrangement_to_obj(catalog.generic4())))
    build_lattice.cache_clear()
    monkeypatch.setattr(hyparr.lattice, "kernel_basis", short_kernel)
    try:
        with pytest.raises(InternalError):
            build_lattice(catalog.generic4())
        assert main(["lattice", str(path)]) == 1
    finally:
        build_lattice.cache_clear()
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "InternalError"
