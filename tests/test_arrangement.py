import json
import random

import pytest

from hyparr import catalog
from hyparr.arrangement import (AffineArrangement, Arrangement,
                                arrangement_from_obj, arrangement_to_obj, cone,
                                essentialize, sign_vector_of_point, validate)
from hyparr.errors import DuplicateHyperplane, NotEssential, OnHyperplane, ZeroForm
from hyparr.lattice import build_lattice, chamber_count_oracle
from hyparr.linalg import RatVector

from conftest import random_arrangement
from oracles import rref_rank


def test_validate_accepts_boolean():
    A = Arrangement.from_forms(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert validate(A) is A


def test_equal_arrangements_share_their_caches():
    # the hash is kept after its first use; equal arrangements must still
    # hash alike, and unequal ones compare unequal
    A = Arrangement.from_forms(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    B = Arrangement.from_forms(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert A is not B and A == B
    assert hash(A) == hash(A) == hash(B) == hash((A.dim, A.hyperplanes))
    assert build_lattice(A) is build_lattice(B)
    C = Arrangement.from_forms(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]])
    assert C != A and build_lattice(C) is not build_lattice(A)


def test_validate_rejects_proportional():
    with pytest.raises(DuplicateHyperplane):
        validate(Arrangement.from_forms(1, [[1], [2]]))
    with pytest.raises(DuplicateHyperplane):
        validate(Arrangement.from_forms(2, [[1, 1], [-2, -2]]))


def test_validate_rejects_rank_deficient():
    with pytest.raises(NotEssential):
        validate(Arrangement.from_forms(3, [[1, 0, 0], [0, 1, 0]]))


def test_validate_rejects_zero_form():
    with pytest.raises(ZeroForm):
        validate(Arrangement.from_forms(2, [[1, 0], [0, 0]]))


def test_sign_vector_of_point():
    A = Arrangement.from_forms(2, [[1, 0], [0, 1]])
    assert str(sign_vector_of_point(A, RatVector.of([1, 1]))) == "++"
    g4 = catalog.generic4()
    assert str(sign_vector_of_point(g4, RatVector.of([1, 1, 1]))) == "++++"
    with pytest.raises(OnHyperplane) as ei:
        sign_vector_of_point(g4, RatVector.of([1, 0, 0]))
    assert ei.value.index == 2


def test_sign_vector_central_symmetry():
    rng = random.Random(3)
    for _ in range(25):
        A = random_arrangement(rng)
        while True:
            x = RatVector.of([rng.randint(-9, 9) for _ in range(A.dim)])
            try:
                s = sign_vector_of_point(A, x)
                break
            except OnHyperplane:
                continue
        assert sign_vector_of_point(A, -x) == -s


def test_essentialize_braid3():
    forms = [[1, -1, 0], [1, 0, -1], [0, 1, -1]]
    A = essentialize([RatVector.of(f) for f in forms], 3)
    assert A.dim == 2 and A.n == 3
    validate(A)


def test_essentialize_preserves_subset_ranks():
    rng = random.Random(11)
    forms = [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1],
             [0, 1, -1, 0], [0, 1, 0, -1], [0, 0, 1, -1]]
    A = essentialize([RatVector.of(f) for f in forms], 4)
    assert A.dim == 3
    for _ in range(40):
        S = [i for i in range(6) if rng.random() < 0.5]
        if not S:
            continue
        r_old = rref_rank([forms[i] for i in S], 4)
        r_new = rref_rank([A.hyperplanes[i].form for i in S], 3)
        assert r_old == r_new


def test_essentialize_of_essential_keeps_lattice():
    g4 = catalog.generic4()
    E = essentialize(list(g4.forms), 3)
    assert E.dim == 3
    la, lb = build_lattice(g4), build_lattice(E)
    assert {f.contains for f in la.flats} == {f.contains for f in lb.flats}


def test_essentialized_braid4_chambers():
    A = catalog.braid(4)
    assert (A.dim, A.n) == (3, 6)
    assert chamber_count_oracle(build_lattice(A)) == 24


def test_cone_examples():
    # x = 1 in R^1 -> {x - z, z}
    B = AffineArrangement.of(1, [[1]], [-1])
    A = cone(B)
    assert A.dim == 2 and A.n == 2
    assert [tuple(h.form) for h in A.hyperplanes] == [(1, -1), (0, 1)]
    # x = 0 in R^1 -> {x, z}
    A2 = cone(AffineArrangement.of(1, [[1]], [0]))
    assert [tuple(h.form) for h in A2.hyperplanes] == [(1, 0), (0, 1)]


def test_cone_infinity_is_last_and_z_only():
    A = catalog.x2_coned()
    assert A.n == 7
    last = A.hyperplanes[-1].form
    assert tuple(last) == (0, 0, 1)
    # no other hyperplane is supported on z alone
    for h in A.hyperplanes[:-1]:
        assert h.form[0] != 0 or h.form[1] != 0


def test_affine_duplicate_rejected():
    with pytest.raises(DuplicateHyperplane):
        AffineArrangement.of(2, [[1, 2], [2, 4]], [-10, -20])


def test_the_first_proportional_pair_is_named():
    # keys a, b, b, a: the lexicographically first equal pair is (1, 4), not
    # the first pair that a scan in order meets, (2, 3)
    forms = [[1, 2], [3, 1], [-6, -2], [2, 4]]
    with pytest.raises(DuplicateHyperplane, match="^affine hyperplanes 1 and 4 coincide$"):
        AffineArrangement.of(2, forms, [1, 0, 0, 2])
    with pytest.raises(DuplicateHyperplane, match="^hyperplanes 1 and 4 are proportional$"):
        validate(Arrangement.from_forms(2, forms))
    with pytest.raises(DuplicateHyperplane, match="^forms 1 and 4 are proportional$"):
        essentialize(forms, 2)
    # a zero form is named before any pair
    with pytest.raises(ZeroForm, match="^form 3 is zero$"):
        essentialize([[1, 2], [1, 2], [0, 0]], 2)


def test_json_round_trip(tmp_path):
    A = catalog.generic4()
    obj = arrangement_to_obj(A)
    text = json.dumps(obj)
    back = arrangement_from_obj(json.loads(text))
    assert back == A


def test_random_arrangement_gives_up_when_too_few_directions_exist():
    # coefficients in {-1, 0, 1} give only 4 lines through the origin of R^2
    with pytest.raises(ValueError, match="1000 draws"):
        random_arrangement(random.Random(1), dim=2, n=5, bound=1)
