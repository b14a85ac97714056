from fractions import Fraction

import pytest

from hyparr import catalog
from hyparr.arrangement import Arrangement, SignVector, validate
from hyparr.consistency import is_globally_consistent, is_locally_consistent
from hyparr.errors import (GloballyConsistent, NotLocallyConsistent, TooLarge,
                           WeightConditionViolated)
from hyparr.obstruction import (certify_nontrivial_sphere, detect_obstruction,
                                sample_sphere_points, verify_sample_points)


def sv(s):
    return SignVector.from_string(s)


def test_detect_generic4(generic4):
    rep = detect_obstruction(generic4)
    assert rep.exhaustive
    assert rep.minimal_k == 2
    assert rep.kpi1_possible is False
    assert len(rep.gaps) == 1
    g = rep.gaps[0]
    assert str(g.eps) == "+++-"
    assert g.flat.codim == 3
    assert g.flat.contains == frozenset({0, 1, 2, 3})
    assert g.dual == (1, 1, 1, 1)
    # primal witnesses at all 11 flats strictly above the origin
    assert len(g.upper_witnesses) == 11
    for key, w in g.upper_witnesses:
        for i in key:
            f = generic4.hyperplanes[i].form
            assert f.dot(w) * g.eps[i] > 0


def test_detect_cx2(cx2):
    rep = detect_obstruction(cx2)
    assert rep.gaps == ()
    assert rep.minimal_k is None
    assert rep.kpi1_possible is True


def test_detect_boolean_and_braid(braid4):
    for A in (catalog.boolean(2), catalog.boolean(4), braid4):
        rep = detect_obstruction(A)
        assert rep.kpi1_possible is True


def test_detect_too_large_and_sampled(generic4):
    with pytest.raises(TooLarge):
        detect_obstruction(generic4, limit=3)
    rep = detect_obstruction(generic4, limit=3, sample=200, seed=5)
    assert not rep.exhaustive
    assert rep.minimal_k == 2
    assert rep.kpi1_possible is False
    assert str(rep.gaps[0].eps) in ("+++-", "---+")


def test_certify_generic4(generic4):
    cert = certify_nontrivial_sphere(generic4, sv("+++-"))
    assert str(cert.sink.signs) == "++++"
    assert cert.separating == frozenset({3})
    assert cert.weights == tuple(Fraction(1, 4) for _ in range(4))
    assert cert.rotation == Fraction(1, 4)
    assert sum(cert.weights).denominator == 1
    # the antipodal witness certifies as well
    cert2 = certify_nontrivial_sphere(generic4, sv("---+"))
    assert 0 < cert2.rotation < 1


def test_certify_errors(generic4, cx2):
    with pytest.raises(GloballyConsistent):
        certify_nontrivial_sphere(generic4, sv("++++"))
    # inconsistent at the triple flat {1,3,5}: alpha1 - 2*alpha3 + alpha5 = 0
    bad = sv("++-++++")
    assert not is_locally_consistent(cx2, bad)
    with pytest.raises(NotLocallyConsistent):
        certify_nontrivial_sphere(cx2, bad)


def test_certify_rank2_arrangement():
    A = validate(Arrangement.from_forms(2, [[1, 0], [0, 1], [1, 1]]))
    eps = sv("++-")
    assert not is_globally_consistent(A, eps)
    cert = certify_nontrivial_sphere(A, eps)
    assert len(cert.separating) == 1
    assert cert.rotation == Fraction(1, 3)
    # the complement split of the proof: 1 < kept < n
    kept = A.n - len(cert.separating)
    assert 1 < kept < A.n


def test_certify_with_weights(generic4):
    eps = sv("+++-")
    cert = certify_nontrivial_sphere(generic4, eps, weights=[Fraction(1, 4)] * 4)
    assert cert.rotation == Fraction(1, 4)
    cert = certify_nontrivial_sphere(generic4, eps, weights=[Fraction(1, 2)] * 4)
    assert cert.rotation == Fraction(1, 2)
    with pytest.raises(WeightConditionViolated):  # separating sum integral
        certify_nontrivial_sphere(generic4, eps, weights=[0, 0, 0, 1])
    with pytest.raises(WeightConditionViolated):
        certify_nontrivial_sphere(
            generic4, eps,
            weights=[Fraction(1, 3), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)])


def test_every_gap_witness_certifies(generic4):
    for s in ("+++-", "---+"):
        cert = certify_nontrivial_sphere(generic4, sv(s))
        assert sum(cert.weights).denominator == 1
        assert 0 < cert.rotation < 1


def test_sample_sphere_points(generic4):
    pts = sample_sphere_points(generic4, sv("+++-"), 50, seed=7)
    assert len(pts) == 50
    assert verify_sample_points(generic4, sv("+++-"), pts)
    on_hyperplane = sum(
        1 for p in pts
        if any(h.form.dot(p.real) == 0 for h in generic4.hyperplanes))
    assert on_hyperplane > 10  # flat-directed draws actually landed on planes
    for p in pts:
        assert p.real.one_norm() == 1


def test_sample_sphere_globally_consistent_is_fine(generic4):
    pts = sample_sphere_points(generic4, sv("++++"), 10, seed=3)
    assert verify_sample_points(generic4, sv("++++"), pts)


def test_sample_sphere_rejects_not_locally_consistent(cx2):
    with pytest.raises(NotLocallyConsistent):
        sample_sphere_points(cx2, sv("++-++++"), 5, seed=1)


def test_sample_determinism(generic4):
    a = sample_sphere_points(generic4, sv("+++-"), 12, seed=9)
    b = sample_sphere_points(generic4, sv("+++-"), 12, seed=9)
    assert a == b
