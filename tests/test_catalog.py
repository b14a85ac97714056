import hashlib
import json
import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import hyparr.lattice
from hyparr import catalog
from hyparr.arrangement import Arrangement, arrangement_to_obj, primitive_rows, validate
from hyparr.consistency import (is_globally_consistent, is_locally_consistent,
                                sigma_filtration)
from hyparr.errors import DuplicateHyperplane, ZeroForm
from hyparr.lattice import build_lattice, chamber_count_oracle
from hyparr.linalg import RatVector, rank
from hyparr.obstruction import detect_obstruction

from conftest import random_arrangement
from oracles import general_position, rref_rank


def test_boolean():
    for dim, chambers in ((1, 2), (2, 4), (3, 8)):
        A = catalog.boolean(dim)
        assert A.n == dim
        assert chamber_count_oracle(build_lattice(A)) == chambers


def test_generic4_properties(generic4):
    from hyparr.arrangement import SignVector

    L = build_lattice(generic4)
    assert Counter(f.codim for f in L.flats) == Counter({0: 1, 1: 4, 2: 6, 3: 1})
    assert chamber_count_oracle(L) == 14
    w = SignVector.from_string("+++-")
    assert is_locally_consistent(generic4, w)
    assert not is_globally_consistent(generic4, w)


def test_generic_lattice_shape_and_determinism():
    for seed in (1, 2, 3):
        A = catalog.generic(4, 3, seed)
        L = build_lattice(A)
        assert Counter(f.codim for f in L.flats) == Counter({0: 1, 1: 4, 2: 6, 3: 1})
        assert A == catalog.generic(4, 3, seed)
    A = catalog.generic(5, 3, 7)
    for f in build_lattice(A).flats:
        if f.codim < 3:
            assert len(f.contains) == f.codim  # generic: only small circuits


# sha256 of json.dumps(arrangement_to_obj(A)) for every catalog.generic draw
# that perfbench/workloads.py makes, the inputs themselves and the parts of
# its unions, and for the other small draws at the union seeds: a changed
# genericity decision moves the draw
GENERIC_DRAWS = {
    (12, 4, 2024): "c41957395d92039b59c3030a9f036b2548bf3f37e96d50250c6fba9d8b4601f4",
    (16, 4, 2024): "ba34d0e68ec6d9d56efca6e3fe1cb87486ba9d6e218395524966feec5527adf7",
    (20, 4, 2024): "015a9fe44a72d9433710c0a044280baa050d2bbd4d271c7814fbf18d87fbe445",
    (9, 5, 2024): "806c54b79fa151a8f0317b121d78ef55fc029689b9cdf828af8a49542aa36d45",
    (10, 4, 2024): "208a88b7a7caa18e2f650ba8130b5be084c86c12c11560a0594fd290139d8a35",
    (8, 4, 2024): "e7ca597214cc0977fd925c203fbbfa954238ed284a5fa22e72d25e74904d3f35",
    (4, 3, 2024): "e3e6857be049389761c9122b38db4f21e0beae66a02ab22ec14dc718d2bd2b62",
    (4, 4, 2024): "87cad1c9f8df41d4feabab024e60c4bc1f64893962b358b744f81e1cb61ef9b2",
    (5, 3, 2024): "27be418756a91678c7a7e08fadd1c2f1c40fd6ba74e9ce5e1e03f7d6f7afd638",
    (5, 4, 2024): "cc9cb1b550ee163227887f0375c20275b99d62ea091bcc367e731169fd3c41a8",
    (6, 5, 2024): "79bf2831e90e73ad4fb9d85f0f0b6aa2553f4cab84ccfcf0e8d1394e8b17d2d0",
    (3, 3, 2025): "38397322203cc0637300b7e582537df7647a9cb22d8b4cb1fbc3e10381eee9bb",
    (4, 3, 2025): "64bb1e270928a75e82e9a27c01d23f6abe50d7d636e2562607a29a73075ccc9c",
    (4, 4, 2025): "f60262e54ce90a10008f8e1c6cc5481aae273e1309565fabba88d9c33c39d0ff",
    (5, 3, 2025): "b9352c28dbd7157073ff5ff41a6599e0fe5492902538c85495bd4d8c4ee3a793",
    (5, 4, 2025): "37e166487b1e2883d7a4af20170bfc962aae294b912381b01365199de04fe72a",
    (6, 5, 2025): "306f1dbf4260d43d63f82a24e0bad675b48b858da9d26a309b94bc44c7bb4ae6",
}


@pytest.mark.parametrize("draw", sorted(GENERIC_DRAWS))
def test_benchmark_generic_draws_are_pinned(draw):
    A = catalog.generic(*draw)
    digest = hashlib.sha256(json.dumps(arrangement_to_obj(A)).encode()).hexdigest()
    assert digest == GENERIC_DRAWS[draw]


def test_genericity_walk_agrees_with_the_rank_of_every_subset():
    # a quarter of the lists get one form, anywhere, replaced by a
    # combination of dim - 1 others (the zero form in dim 1), so that
    # dependent subsets also sit among the last forms of a list
    rng = random.Random(30)
    rejected = 0
    for _ in range(2000):
        d = rng.randint(1, 6)
        bound = rng.randint(1, 9)
        n = d + rng.randint(0, 7 - d)
        forms = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(n)]
        if rng.random() < 0.25:
            target, *others = rng.sample(range(n), d)
            coefficients = [rng.choice((-2, -1, 1, 2)) for _ in others]
            forms[target] = [sum(c * forms[i][j] for c, i in zip(coefficients, others))
                             for j in range(d)]
        expected = all(rref_rank([forms[i] for i in S], d) == d
                       for S in combinations(range(n), d))
        assert catalog._all_small_subsets_independent(forms, d) == expected, (forms, d)
        rejected += not expected
    assert rejected >= 600


def test_generic_excess_gap():
    A = catalog.generic(5, 3, 11)
    filt = sigma_filtration(A)
    assert filt.counts[2] > filt.counts[3]
    rep = detect_obstruction(A)
    assert rep.minimal_k == 2


def test_generic_boolean_equivalent():
    A = catalog.generic(3, 3, 13)
    assert chamber_count_oracle(build_lattice(A)) == 8


def test_x2_realization():
    arr = catalog.x2_affine()
    assert arr.n == 6
    cx2 = catalog.x2_coned()
    L = build_lattice(cx2)
    assert len(L.flats_of_codim(2)) == 11
    assert chamber_count_oracle(L) == 34


def test_braid():
    b2 = catalog.braid(2)
    assert (b2.dim, b2.n) == (1, 1)
    assert chamber_count_oracle(build_lattice(b2)) == 2
    b3 = catalog.braid(3)
    assert (b3.dim, b3.n) == (2, 3)
    assert chamber_count_oracle(build_lattice(b3)) == 6
    b4 = catalog.braid(4)
    assert chamber_count_oracle(build_lattice(b4)) == 24
    filt = sigma_filtration(b4)
    assert filt.counts[2] == filt.counts[3] == 24


def test_generic_union_boolean3_plus_plane():
    B = Arrangement.from_forms(3, [[1, 1, 1]])
    union, eps = catalog.generic_union(catalog.boolean(3), B, seed=4)
    assert union.n == 4
    assert is_locally_consistent(union, eps)
    assert not is_globally_consistent(union, eps)
    rep = detect_obstruction(union)
    assert rep.minimal_k == 2  # same combinatorial obstruction as generic4


def test_generic_union_two_boolean_planes_in_r2():
    union, eps = catalog.generic_union(catalog.boolean(2), catalog.boolean(2), seed=6)
    assert union.n == 4 and union.dim == 2
    assert is_locally_consistent(union, eps)
    assert not is_globally_consistent(union, eps)
    # the drop happens at k = 1 only, so no homotopy claim is made
    rep = detect_obstruction(union)
    assert rep.gaps == ()
    assert rep.kpi1_possible is True
    filt = sigma_filtration(union)
    assert filt.counts[1] > filt.counts[2]
    assert 1 in filt.witnesses


def test_generic_union_deterministic():
    B = Arrangement.from_forms(3, [[1, 1, 1]])
    a1 = catalog.generic_union(catalog.boolean(3), B, seed=4)
    a2 = catalog.generic_union(catalog.boolean(3), B, seed=4)
    assert a1 == a2


def test_generic_union_empty_b_rejected():
    with pytest.raises(ValueError):
        catalog.generic_union(catalog.boolean(2), Arrangement(2, ()), seed=1)


@pytest.mark.parametrize("bad, error, message", [
    ([0, 0, 0], ZeroForm, "form 2 is zero"),
    ([-2, -2, -2], DuplicateHyperplane, "forms 1 and 2 are proportional"),
    ([1, 1], ValueError, "form 2 of B has dimension 2, expected 3"),
], ids=["zero", "proportional", "short"])
def test_generic_union_rejects_a_malformed_b_before_drawing(bad, error, message, monkeypatch):
    A = catalog.generic(5, 3, 2024)
    B = Arrangement.from_forms(3, [[1, 1, 1], bad])

    def no_draw(*args):
        raise AssertionError("g was drawn")

    monkeypatch.setattr(catalog, "rank", no_draw)  # the first step of every draw
    with pytest.raises(error, match=message):
        catalog.generic_union(A, B, 7)


def test_generic_union_takes_more_planes_than_the_enumeration_limit():
    # both chamber sets are the lattices' topes, read with no limit of 22
    A = catalog.moment(23, 3)
    union, eps = catalog.generic_union(A, Arrangement.from_forms(3, [[1, 1, 1]]), 1)
    assert union.n == 24 and union.forms[:23] == A.forms
    assert is_locally_consistent(union, eps)
    assert not is_globally_consistent(union, eps)


def test_general_position_agrees_with_the_pairwise_rank_oracle():
    # the union's lattice decides general position as the rank of every pair
    # of flats of A and B does; dim 2 has no rejection, dims 3 and 4 have both
    rng = random.Random(29)
    rejected = 0
    for _ in range(300):
        d = rng.randint(2, 4)
        U = random_arrangement(rng, dim=d, n=rng.randint(d + 1, d + 4), bound=2)
        na = rng.randint(1, U.n - 1)
        rows = [tuple(h.form) for h in U.hyperplanes]
        expected = general_position(rows[:na], rows[na:], d)
        assert catalog._in_general_position(build_lattice(U), na) == expected, (rows, na)
        rejected += not expected
    assert rejected >= 100


# sha256 of json.dumps(arrangement_to_obj(union)) and the witness of the four
# unions that perfbench/workloads.py draws: a different draw of g changes
# every benchmark input built from them
UNION_DRAWS = {
    (4, 4, 3): ("26ab6c7f3db70abf649527578b1247e7cbfbc59d73445a310f74d00b592ee850", "++--+++-"),
    (5, 4, 4): ("0c26aa17e1ee69b2b54ba20eff4cbd1d8b1754a934bfef99508f980bbd9bac82", "+++-+-+++"),
    (5, 3, 3): ("29ed8ddfc599b07ea715e99ddf63f0f2784405ee6e4aa432426b2ad45fa89f25", "+++++-++"),
    (6, 1, 5): ("396a0f2cda3cf174302d280e5cab1ebaaea9ed8769b554f8250e98e9f8d72ecb", "++++-+-"),
}


def _benchmark_union(na, nb, dim):
    A = catalog.generic(na, dim, 2024)
    B = (Arrangement.from_forms(dim, [[1] * dim]) if nb == 1
         else catalog.generic(nb, dim, 2025))
    return A, B


@pytest.mark.parametrize("sizes", sorted(UNION_DRAWS))
def test_benchmark_unions_are_pinned(sizes):
    union, eps = catalog.generic_union(*_benchmark_union(*sizes), 2026)
    digest = hashlib.sha256(json.dumps(arrangement_to_obj(union)).encode()).hexdigest()
    assert (digest, str(eps)) == UNION_DRAWS[sizes]


def test_an_accepted_draw_builds_three_lattices(monkeypatch):
    # B's, the union's and A's, one each: general position is read from the
    # union's lattice, with no lattice of the flats of A or of g(B) alone
    levels = hyparr.lattice._levels
    calls = []

    def counted(*args):
        calls.append(args)
        return levels(*args)

    A, B = _benchmark_union(4, 4, 3)
    build_lattice.cache_clear()
    monkeypatch.setattr(hyparr.lattice, "_levels", counted)
    catalog.generic_union(A, B, 2026)
    assert sorted(len(rows) for rows, _ in calls) == [A.n, B.n, A.n + B.n]


def test_moment_curve():
    # 24 points of the moment curve in R^4: every 4 forms are independent, so
    # the flats are the subsets of at most 3 forms and the origin
    A = catalog.moment(24, 4)
    assert A.n == 24 and A.forms[23] == RatVector.of([1, 24, 24 ** 2, 24 ** 3])
    rows = primitive_rows(A)
    assert all(rank([rows[i] for i in S], 4) == 4 for S in combinations(range(24), 4))
    L = build_lattice(A)
    assert len(L.flats) == 1 + 24 + 276 + 2024 + 1 == 2326
    assert chamber_count_oracle(L) == 2 * sum(comb(23, k) for k in range(4)) == 4096
    with pytest.raises(ValueError):
        catalog.moment(3, 4)


def test_all_builtins_validate():
    for A in (catalog.boolean(4), catalog.generic4(), catalog.x2_coned(),
              catalog.braid(4), catalog.generic(5, 4, 3), catalog.moment(6, 3)):
        assert validate(A) is A
