import gc
import random
import re
from functools import cache
from math import comb
from itertools import combinations, product

import pytest

import hyparr.consistency
import hyparr.lattice
import hyparr._fmpure
import oracles
from hyparr import catalog
from hyparr.arrangement import Arrangement, SignVector, primitive_rows, validate
from hyparr.consistency import (first_failing_flat, global_consistency, is_consistent_at,
                                is_globally_consistent, is_locally_consistent,
                                sigma, sigma_filtration)
from hyparr.errors import InternalError, TooLarge
from hyparr.lattice import build_lattice, chamber_count_oracle
from hyparr.linalg import RatVector, determinant, kernel_basis

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


def test_sigma_of_one_plane():
    # no circuit at all: every leaf keeps the search's no-match level
    B = catalog.boolean(1)
    assert len(sigma(B, 1)) == 2
    filt = sigma_filtration(B)
    assert filt.counts == {1: 2} and filt.witnesses == {}


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
        assert all(tuple(map(str, sigma(A, k))) == filt.sets[k] for k in range(1, dim + 1))
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


@pytest.fixture
def uncached_lattices():
    """`build_lattice`'s cache is cleared before and after the test, so that no
    lattice it builds, or tampers with, reaches another test."""
    build_lattice.cache_clear()
    yield
    build_lattice.cache_clear()


def _fresh_lattice(A):
    """A new lattice of A in `build_lattice`'s cache, built with the true
    kernel, so its sign tables are still empty: the lattice builds each
    flat's cocircuits and local topes once and keeps them."""
    build_lattice.cache_clear()
    return build_lattice(A)


def _without_line(table, t):
    """The cocircuit table with entries t and t + 1, one line's two signs,
    taken out of the directions and out of every column."""
    directions, columns = table

    def cut(mask):
        return mask & (1 << t) - 1 | mask >> t + 2 << t

    return directions[:t] + directions[t + 2:], tuple((cut(p), cut(q)) for p, q in columns)


def _connected(lat):
    """The connected flats below the top (dependent, beta nonzero), in order."""
    return [Y for Y in lat.flats[:-1] if len(Y.contains) > Y.codim and lat.beta(Y)]


@pytest.mark.usefixtures("uncached_lattices")
@pytest.mark.parametrize("A", [catalog.braid(4), catalog.braid(5), catalog.x2_coned()],
                         ids=["braid4", "braid5", "cx2"])
def test_a_dropped_local_line_is_caught(A):
    # every line of a connected localization A_Y is a ray of one of its
    # chambers: without it, the search of Y misses a tope (its count) or sums
    # a leaf's lines onto a wall (its sign test)
    lat = _fresh_lattice(A)
    connected = _connected(lat)
    assert connected
    for Y in connected:
        table = lat.cocircuits(Y)
        for t in range(0, len(table[0]), 2):
            lat = _fresh_lattice(A)
            lat._cocircuits[Y.contains] = _without_line(table, t)
            with pytest.raises(InternalError, match=re.escape(f"at flat {sorted(Y.contains)}")
                               + "(, but Zaslavsky|$)"):
                sigma(A, A.dim - 1)


@pytest.mark.usefixtures("uncached_lattices")
def test_no_search_builds_the_circuits_of_the_top(monkeypatch, generic4, cx2):
    # no Sigma_k search reads a circuit: the topes come from the lines, and
    # every level below from the local topes; every chamber, wall and flow
    # step comes from the topes; a gap witness or a global dual that fails at
    # the top scans that flat's subsets by their cofactor signs up to its
    # circuit (`first_circuit`), and only that circuit takes a kernel basis
    from hyparr.chambers import (chamber_from_signs, enumerate_chambers, flow_to_sink,
                                 lex_smallest_chamber)
    from hyparr.errors import Infeasible
    from hyparr.obstruction import certify_nontrivial_sphere, detect_obstruction

    scans = []  # (at the top, kernel bases built, circuit found) per scan
    first_circuit = hyparr.lattice.Lattice.first_circuit

    def scan_spy(lat, X, eps):
        kernels = []

        def spy(rows, ncols):
            kernels.append(ncols)
            return kernel_basis(rows, ncols)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hyparr.lattice, "kernel_basis", spy)
            circuit = first_circuit(lat, X, eps)
        scans.append((X.contains == lat.top.contains, len(kernels), circuit is not None))
        return circuit

    def flow(A):
        start = lex_smallest_chamber(A)
        assert flow_to_sink(A, -start.signs, start).sink.signs == -start.signs

    def non_tope(A):
        topes = set(sigma(A, A.dim))
        eps = next(e for e in map(SignVector, product((1, -1), repeat=A.n)) if e not in topes)
        with pytest.raises(Infeasible, match="is not a chamber"):
            chamber_from_signs(A, eps)

    monkeypatch.setattr(hyparr.lattice.Lattice, "first_circuit", scan_spy)
    arrangements = (generic4, catalog.braid(4), cx2, Arrangement.from_forms(4, FAULT8_FORMS))
    for A in arrangements:
        for k in range(1, A.dim + 1):
            build_lattice.cache_clear()
            sigma(A, k)
    assert not scans
    runs = (enumerate_chambers, sigma_filtration, detect_obstruction, lex_smallest_chamber,
            flow, non_tope)
    for A in arrangements:
        for run in runs:
            build_lattice.cache_clear()
            run(A)
    A, eps = catalog.generic_union(catalog.generic(5, 4, 5), catalog.generic(4, 4, 6), 7)
    build_lattice.cache_clear()
    assert certify_nontrivial_sphere(A, eps).dual
    assert scans and scans[-1][0]
    assert all(kernels == 1 and found for _, kernels, found in scans)


@pytest.mark.usefixtures("uncached_lattices")
def test_a_dropped_line_is_caught():
    # every line of braid(4) is a ray of a simplicial chamber: without it,
    # that chamber is missed or its witness lies on one of its walls
    A = catalog.braid(4)
    lat = _fresh_lattice(A)
    table = lat.cocircuits(lat.top)
    assert len(table[0]) == 14  # both signs of each of the 7 lines
    assert len(table[1]) == 6  # a column pair per form
    for t in range(0, len(table[0]), 2):
        lat = _fresh_lattice(A)
        lat._cocircuits[lat.top.contains] = _without_line(table, t)
        with pytest.raises(InternalError):
            sigma(A, A.dim)


@pytest.mark.usefixtures("uncached_lattices")
def test_a_false_dependency_is_caught(monkeypatch):
    def skewed(rows, ncols):
        K = kernel_basis(rows, ncols)
        if len(K) == 1 and 0 not in K[0]:
            return [(2 * K[0][0],) + K[0][1:]]
        return K

    # the dual of a non-tope comes from a circuit at its first failing flat
    A = catalog.braid(4)
    _fresh_lattice(A)
    topes = set(sigma(A, A.dim))
    eps = next(e for e in map(SignVector, product((1, -1), repeat=A.n)) if e not in topes)
    monkeypatch.setattr(hyparr.lattice, "kernel_basis", skewed)
    with pytest.raises(InternalError, match="is not a dependency"):
        global_consistency(A, eps)


def _searched(monkeypatch):
    """The closed sets of the flats whose topes the lattice searches, in order."""
    searched = []
    search_topes = hyparr.lattice.Lattice._search_topes

    def spy(lat, Y):
        searched.append(Y.contains)
        return search_topes(lat, Y)

    monkeypatch.setattr(hyparr.lattice.Lattice, "_search_topes", spy)
    return searched


_SEARCHED = [catalog.braid(5), Arrangement.from_forms(4, FAULT8_FORMS), catalog.x2_coned()]


@pytest.mark.usefixtures("uncached_lattices")
@pytest.mark.parametrize("A", _SEARCHED, ids=["braid5", "fault8", "cx2"])
def test_each_flat_searches_its_topes_once(monkeypatch, A):
    # sigma(A, k) for k < dim searches the connected flats of codim at most
    # k, sigma(A, dim) the top, and every later question reads them
    searched = _searched(monkeypatch)
    lat = _fresh_lattice(A)
    for _ in range(2):
        for k in range(1, A.dim + 1):
            sigma(A, k)
        sigma_filtration(A)
    assert searched == [Y.contains for Y in _connected(lat)] + [lat.top.contains]


@pytest.mark.usefixtures("uncached_lattices")
def test_the_filtration_counts_each_flat_once(monkeypatch):
    # braid(5) stops at Zaslavsky after Sigma_2, and so does cx2, whose
    # Sigma_2 is the level below the top; fault8's Sigma_2 (192) exceeds its
    # 116 topes, so every connected flat below the top is searched
    searched = _searched(monkeypatch)
    for A, top in zip(_SEARCHED, (2, 3, 2)):
        lat = _fresh_lattice(A)
        searched.clear()
        sigma_filtration(A)
        assert searched == [lat.top.contains] + [Y.contains for Y in _connected(lat)
                                                 if Y.codim <= top]
        assert len(searched) > 1


@pytest.mark.usefixtures("uncached_lattices")
def test_no_search_reads_a_reducible_flat(monkeypatch):
    # the ten codim-3 flats of braid(5) of type {3,2} hold four forms, so they
    # are dependent, but each localization is braid(3) x braid(2), and beta
    # is 0 there: sigma(A, 3) searches only the ten {3,1,1} flats of codim 2
    # and the five {4,1} flats of codim 3
    A = catalog.braid(5)
    searched = _searched(monkeypatch)
    lat = _fresh_lattice(A)
    sigma(A, 3)
    reducible = [X for X in lat.flats_of_codim(3) if len(X.contains) == 4]
    assert len(reducible) == 10 and not any(map(lat.beta, reducible))
    assert not {X.contains for X in reducible} & set(searched)
    assert [len(lat.by_contains[c].contains) for c in searched] == [3] * 10 + [6] * 5


@pytest.mark.usefixtures("uncached_lattices")
@pytest.mark.parametrize("A", _SEARCHED, ids=["braid5", "fault8", "cx2"])
def test_the_sigma_search_makes_no_kernel_call(A):
    # with the lattice built, no Sigma_k builds a kernel basis, and the
    # filtration builds only those that its gap witnesses' duals scan
    calls = []

    def spy(rows, ncols):
        calls.append(tuple(map(tuple, rows)))
        return kernel_basis(rows, ncols)

    def counted(run):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hyparr.lattice, "kernel_basis", spy)
            result = run()
        return result, list(calls)

    _fresh_lattice(A)
    assert counted(lambda: [sigma(A, k) for k in range(1, A.dim + 1)])[1] == []
    _fresh_lattice(A)
    filt, during = counted(lambda: sigma_filtration(A))
    _fresh_lattice(A)
    witnesses, duals = counted(lambda: [first_failing_flat(A, w.eps)
                                        for _, w in sorted(filt.witnesses.items())])
    assert witnesses == [w for _, w in sorted(filt.witnesses.items())]
    assert during == duals


@pytest.mark.usefixtures("uncached_lattices")
def test_a_flat_asked_twice_builds_one_kernel_per_answer():
    # every 4-subset of a generic arrangement in R^3 is a circuit; each
    # question scans the subsets up to its answer by their cofactor signs,
    # reads each 3 x 3 minor once, builds the kernel of the answer alone,
    # and keeps nothing for the next question
    A = catalog.generic(7, 3, 2024)
    lat = _fresh_lattice(A)
    kernels, minors = [], []

    def kernel_spy(rows, ncols):
        kernels.append(ncols)
        return kernel_basis(rows, ncols)

    def determinant_spy(rows):
        minors.append(tuple(map(tuple, rows)))
        return determinant(rows)

    # a sign vector whose lex-first matched circuit is (0, 1, 2, 6), by the
    # kernels of plain Gauss-Jordan
    rows = primitive_rows(A)
    signed = [(S, [(k > 0) - (k < 0) for k in oracles.rref_kernel(
        [[rows[i][j] for i in S] for j in range(3)], 4)[0]])
        for S in combinations(range(A.n), 4)]
    eps = next(SignVector(signs) for signs in product((1, -1), repeat=A.n)
               if next((S for S, c in signed
                        if len({s * signs[i] for s, i in zip(c, S)}) == 1), None) == (0, 1, 2, 6))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyparr.lattice, "kernel_basis", kernel_spy)
        mp.setattr(hyparr.lattice, "determinant", determinant_spy)
        for asked in range(1, 4):
            minors.clear()
            S, c = lat.first_circuit(lat.top, eps)
            assert S == (0, 1, 2, 6) and len(kernels) == asked
            assert len(minors) == len(set(minors)) <= comb(7, 3)
            assert not any(sum(c_t * rows[i][j] for c_t, i in zip(c, S)) for j in range(3))


def test_consistency_at_checks_lattice_membership(generic4):
    from hyparr.errors import UnknownFlat
    from hyparr.lattice import Flat

    L = build_lattice(generic4)
    stray = Flat(frozenset({0, 1, 2}), 3, L.top.kernel)
    with pytest.raises(UnknownFlat):
        is_consistent_at(generic4, sv("++++"), stray)
