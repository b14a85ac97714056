import contextlib
import gc
import random
from functools import cache
from math import comb
from itertools import product

import pytest

import hyparr.consistency
import hyparr.lattice
import hyparr._fmpure
import oracles
from hyparr import catalog
from hyparr.arrangement import Arrangement, SignVector, validate
from hyparr.consistency import (global_consistency, is_consistent_at,
                                is_globally_consistent, is_locally_consistent,
                                sigma, sigma_filtration)
from hyparr.errors import InternalError, TooLarge
from hyparr.lattice import build_lattice, chamber_count_oracle
from hyparr.linalg import RatVector, int_kernel_basis

from conftest import FAULT8_FORMS, random_arrangement, random_sign_vector


def sv(s):
    return SignVector.from_string(s)


def test_globally_consistent_examples(generic4):
    res = global_consistency(generic4, sv("+++-"))
    assert not res.feasible
    assert res.dual == (1, 1, 1, 1)
    res = global_consistency(generic4, sv("++++"))
    assert res.feasible and all(x > 0 for x in res.witness)
    B = catalog.boolean(3)
    for s in ("+++", "-+-", "---"):
        assert is_globally_consistent(B, sv(s))


def test_consistent_at_flats(generic4):
    L = build_lattice(generic4)
    eps = sv("+++-")
    for X in L.flats_of_codim(2):
        assert is_consistent_at(generic4, eps, X)
    assert not is_consistent_at(generic4, eps, L.top)


def test_boolean_localization_always_consistent(generic4):
    L = build_lattice(generic4)
    X = L.by_contains[frozenset({0, 1})]
    for _ in range(6):
        eps = random_sign_vector(random.Random(_), 4)
        assert is_consistent_at(generic4, eps, X)


def test_locally_consistent(generic4):
    assert is_locally_consistent(generic4, sv("+++-"))
    assert is_locally_consistent(generic4, sv("++++"))
    # rank-2 arrangements have no proper flats beyond hyperplanes
    A = validate(Arrangement.from_forms(2, [[1, 0], [0, 1], [1, 1]]))
    for i in range(8):
        bits = format(i, "03b")
        eps = sv("".join("+" if b == "0" else "-" for b in bits))
        assert is_locally_consistent(A, eps)


def test_sigma_generic4(generic4):
    assert len(sigma(generic4, 1)) == 16
    assert len(sigma(generic4, 2)) == 16
    s3 = sigma(generic4, 3)
    assert len(s3) == 14
    complement = {str(e) for e in sigma(generic4, 2)} - {str(e) for e in s3}
    assert complement == {"+++-", "---+"}


def test_sigma_boolean():
    B = catalog.boolean(3)
    assert len(sigma(B, 3)) == 8


def test_sigma_filtration_generic4(generic4):
    filt = sigma_filtration(generic4)
    assert filt.counts == {1: 16, 2: 16, 3: 14}
    assert list(filt.witnesses) == [2]
    w = filt.witnesses[2]
    assert str(w.eps) == "+++-"
    assert w.flat.codim == 3
    assert w.dual == (1, 1, 1, 1)
    assert filt.sets[2] == filt.sets[1] != filt.sets[3]


def test_sigma_filtration_cx2(cx2):
    filt = sigma_filtration(cx2)
    assert filt.counts == {1: 128, 2: 34, 3: 34}
    assert 2 not in filt.witnesses
    assert filt.sets[2] == filt.sets[3]
    assert filt.counts[3] == chamber_count_oracle(build_lattice(cx2))


def test_sigma_filtration_braid4(braid4):
    filt = sigma_filtration(braid4)
    assert filt.counts == {1: 64, 2: 24, 3: 24}
    assert 2 not in filt.witnesses


def test_sigma_nesting_and_symmetry():
    rng = random.Random(31)
    for _ in range(12):
        A = random_arrangement(rng, dim=3, n=rng.randint(3, 6))
        sets = {k: {str(e) for e in sigma(A, k)} for k in range(1, 4)}
        assert sets[3] <= sets[2] <= sets[1]
        assert len(sets[1]) == 2 ** A.n
        for k in range(1, 4):
            assert {str(-SignVector.from_string(s)) for s in sets[k]} == sets[k]
        assert len(sets[3]) == chamber_count_oracle(build_lattice(A))


def test_consistency_depends_only_on_localization(generic4):
    # add a plane missing the flat {0,1}: verdict at that flat is unchanged
    L4 = build_lattice(generic4)
    X4 = L4.by_contains[frozenset({0, 1})]
    bigger = validate(Arrangement.from_forms(
        3, [list(h.form) for h in generic4.hyperplanes] + [[1, 2, 5]]))
    L5 = build_lattice(bigger)
    X5 = L5.by_contains[frozenset({0, 1})]
    # the closure by hand: the new form does not vanish on the line X
    assert X5.kernel == X4.kernel
    assert bigger.hyperplanes[4].form.dot(RatVector.of(X5.kernel[0])) != 0
    rng = random.Random(33)
    for _ in range(10):
        e4 = random_sign_vector(rng, 4)
        e5 = SignVector(tuple(e4.signs) + (rng.choice((1, -1)),))
        assert is_consistent_at(generic4, e4, X4) == is_consistent_at(bigger, e5, X5)


def test_monotonicity_up_the_lattice():
    rng = random.Random(37)
    for _ in range(8):
        A = random_arrangement(rng, dim=3, n=rng.randint(4, 6))
        L = build_lattice(A)
        eps = random_sign_vector(rng, A.n)
        for X in L.flats:
            if is_consistent_at(A, eps, X):
                for Y in L.flats:
                    if Y.contains < X.contains:
                        assert is_consistent_at(A, eps, Y)


def test_too_large():
    B = catalog.boolean(3)
    with pytest.raises(TooLarge):
        sigma(B, 2, limit=2)
    with pytest.raises(TooLarge):
        sigma_filtration(B, limit=2)


def test_sigma_leaves_no_garbage(cx2):
    for k in (2, 3):
        sigma(cx2, k)  # warm the caches
    gc.collect()
    gc.disable()
    try:
        for k in (2, 3):
            sigma(cx2, k)
            assert gc.collect() == 0
    finally:
        gc.enable()


def _oracle_filtration(forms, dim):
    """Sigma_k for every k by brute force: each sign vector against every
    flat of codim >= 2 from `oracles.brute_force_flats`, decided by the
    simplex oracle.  Returns the levels and, per sign vector, the smallest
    failing flat of each codim."""
    flats = sorted((tuple(sorted(S)), c)
                   for S, c in oracles.brute_force_flats(forms, dim).items() if c >= 2)

    @cache
    def ok(S, local):
        rows = [[s * v for v in forms[i]] for i, s in zip(S, local)]
        return oracles.simplex_feasible(rows, dim)

    levels = {k: [] for k in range(1, dim + 1)}
    failing = {}
    for signs in product((1, -1), repeat=len(forms)):
        bad = [(S, c) for S, c in flats if not ok(S, tuple(signs[i] for i in S))]
        first_codim = min((c for _, c in bad), default=dim + 1)
        for k in range(1, first_codim):
            levels[k].append(str(SignVector(signs)))
        failing[signs] = {c: min(S for S, cc in bad if cc == c) for _, c in bad}
    return levels, failing


def test_filtration_matches_brute_force_on_degenerate_arrangements():
    rng = random.Random(41)
    arrangements = []
    for _ in range(60):
        dim = rng.randint(3, 4)
        arrangements.append(random_arrangement(rng, dim=dim, n=rng.randint(dim + 1, 7), bound=1))
    arrangements += [Arrangement.from_forms(4, FAULT8_FORMS), catalog.braid(4), catalog.x2_coned()]
    for A in arrangements:
        dim = A.dim
        forms = [[int(v) for v in h.form] for h in A.hyperplanes]
        levels, failing = _oracle_filtration(forms, dim)
        filt = sigma_filtration(A)
        assert filt.counts == {k: len(v) for k, v in levels.items()}
        assert filt.sets == {k: tuple(v) for k, v in levels.items()}
        gaps = {}
        for k in range(1, dim):
            below = set(levels[k + 1])
            gaps.update((k, s) for s in levels[k] if s not in below and k not in gaps)
        assert {k: str(w.eps) for k, w in filt.witnesses.items()} == gaps
        for k, w in filt.witnesses.items():
            assert w.flat.key() == failing[w.eps.signs][k + 1]


def test_sigma_makes_no_kernel_call(monkeypatch):
    arrangements = [catalog.braid(4), catalog.x2_coned(), Arrangement.from_forms(4, FAULT8_FORMS)]
    before = [{k: sigma(A, k) for k in range(1, A.dim + 1)} for A in arrangements]

    def no_kernel(rows, dim):
        raise AssertionError("the Sigma search called the feasibility kernel")

    monkeypatch.setattr(hyparr._fmpure, "solve", no_kernel)
    for A, sets in zip(arrangements, before):
        assert {k: sigma(A, k) for k in range(1, A.dim + 1)} == sets


def _fresh_lattice(A):
    """A lattice of A outside `build_lattice`'s cache, so its circuit table is
    still empty: the lattice builds each flat's circuits once and keeps them."""
    return build_lattice.__wrapped__(A)


def _circuit_inputs(A):
    """The kernel inputs that `sigma(A, dim)` reads as circuits, in order."""
    found = []

    def spy(rows, ncols):
        K = int_kernel_basis(rows, ncols)
        if len(K) == 1 and 0 not in K[0]:
            found.append(tuple(map(tuple, rows)))
        return K

    lat = _fresh_lattice(A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyparr.lattice, "int_kernel_basis", spy)
        sigma(A, A.dim, lattice=lat)
    return found


def _dropping(dropped):
    """`int_kernel_basis` that returns two rows for one circuit's input."""
    def lossy(rows, ncols):
        K = int_kernel_basis(rows, ncols)
        return K + K if tuple(map(tuple, rows)) == dropped else K
    return lossy


@pytest.mark.parametrize("A", [catalog.braid(4), catalog.braid(5), catalog.x2_coned()],
                         ids=["braid4", "braid5", "cx2"])
def test_a_dropped_circuit_is_caught_or_harmless(A):
    # A circuit whose patterns other circuits already forbid (a 4-cycle of
    # braid(4) holds a 3-cycle) changes no Sigma_k; any other must fail a count.
    # Each lattice is built before the lossy kernel is in place.
    exact = {k: sigma(A, k) for k in range(2, A.dim + 1)}
    inputs = _circuit_inputs(A)
    for dropped in inputs:
        lat = _fresh_lattice(A)
        with pytest.MonkeyPatch.context() as mp, contextlib.suppress(InternalError):
            mp.setattr(hyparr.lattice, "int_kernel_basis", _dropping(dropped))
            for k, expected in exact.items():
                assert sigma(A, k, lattice=lat) == expected
    # the first circuit built spans a flat below the top; its count catches the loss
    lat = _fresh_lattice(A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyparr.lattice, "int_kernel_basis", _dropping(inputs[0]))
        with pytest.raises(InternalError, match="avoid the circuits"):
            sigma(A, A.dim, lattice=lat)


def test_a_false_dependency_is_caught(monkeypatch):
    def skewed(rows, ncols):
        K = int_kernel_basis(rows, ncols)
        if len(K) == 1 and 0 not in K[0]:
            return [(2 * K[0][0],) + K[0][1:]]
        return K

    A = catalog.braid(4)
    lat = _fresh_lattice(A)
    monkeypatch.setattr(hyparr.lattice, "int_kernel_basis", skewed)
    with pytest.raises(InternalError, match="is not a dependency"):
        sigma(A, 3, lattice=lat)


def test_each_flat_builds_its_circuits_once():
    # sigma(A, k) alone builds no circuit above codim k, and the filtration
    # then tests each (codim + 1)-subset of each remaining flat once
    A = catalog.braid(5)
    lat = _fresh_lattice(A)
    sizes = []

    def spy(rows, ncols):
        sizes.append(ncols)
        return int_kernel_basis(rows, ncols)

    def subsets(codims):
        return sum(comb(len(X.contains), X.codim + 1) for X in lat.flats if X.codim in codims)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyparr.lattice, "int_kernel_basis", spy)
        sigma(A, 2, lattice=lat)
        assert len(sizes) == subsets({2}) and set(sizes) == {3}
        sigma_filtration(A, lattice=lat)
    assert len(sizes) == subsets({2, 3, 4}) and set(sizes) == {3, 4, 5}


def test_a_flat_asked_twice_builds_its_circuits_once():
    # every 4-subset of a generic arrangement in R^3 is a circuit; the first
    # question scans the subsets up to its answer, the second builds the
    # table, and later ones read it
    A = catalog.generic(7, 3, 2024)
    lat = _fresh_lattice(A)
    calls = []

    def spy(rows, ncols):
        calls.append(ncols)
        return int_kernel_basis(rows, ncols)

    def wanted(circuit):
        return 6 in circuit[0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyparr.lattice, "int_kernel_basis", spy)
        first = lat.first_circuit(lat.top, wanted)
        assert first[0] == (0, 1, 2, 6) and len(calls) == 4
        assert lat.first_circuit(lat.top, wanted) == first
        assert len(calls) == 4 + comb(7, 4)
        assert lat.first_circuit(lat.top, wanted) == first
        assert len(calls) == 4 + comb(7, 4)


def test_consistency_at_checks_lattice_membership(generic4):
    from hyparr.errors import UnknownFlat
    from hyparr.lattice import Flat

    L = build_lattice(generic4)
    stray = Flat(frozenset({0, 1, 2}), 3, L.top.kernel)
    with pytest.raises(UnknownFlat):
        is_consistent_at(generic4, sv("++++"), stray, lattice=L)
