from fractions import Fraction

import pytest

from hyparr import catalog
from hyparr.arrangement import Arrangement, SignVector, validate
from hyparr.consistency import is_globally_consistent, is_locally_consistent
from hyparr.errors import (GloballyConsistent, NotLocallyConsistent, TooLarge,
                           WeightConditionViolated)
from hyparr.feasibility import FeasibilityResult, StrictSystem
from hyparr.lattice import build_lattice
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


def test_detect_too_large(generic4):
    with pytest.raises(TooLarge, match="--limit"):
        detect_obstruction(generic4, limit=3)


@pytest.fixture
def uncached_lattices():
    """Large lattices leave `build_lattice`'s cache when the test ends."""
    build_lattice.cache_clear()
    yield
    build_lattice.cache_clear()


@pytest.mark.usefixtures("uncached_lattices")
def test_detect_braid8_exhaustively():
    # 28 planes, past the default limit: no gap at any k >= 2
    rep = detect_obstruction(catalog.braid(8), limit=28)
    assert rep.exhaustive and rep.gaps == () and rep.kpi1_possible is True
    assert rep.counts == {1: 2 ** 28, **dict.fromkeys(range(2, 8), 40320)}


@pytest.mark.usefixtures("uncached_lattices")
def test_detect_the_moment_curve():
    # the forms (1, t, t^2, t^3), t = 1..30: every 4 of them are independent
    # (Vandermonde), so the one gap is at k = 3, at the origin
    A = catalog.moment(30, 4)
    rep = detect_obstruction(A, limit=30)
    assert rep.counts == {1: 2 ** 30, 2: 2 ** 30, 3: 2 ** 30, 4: 8180}
    assert [g.k for g in rep.gaps] == [3] and rep.kpi1_possible is False
    g = rep.gaps[0]
    assert g.flat.codim == 4

    signed = [h.form.scale(s) for h, s in zip(A.hyperplanes, g.eps.signs)]

    def system(key):
        return StrictSystem.of([signed[i] for i in key], 4)

    assert FeasibilityResult(None, g.dual).verify(system(g.flat.key()))
    assert len(g.upper_witnesses) == len(build_lattice(A).flats) - 1
    assert all(FeasibilityResult(w, None).verify(system(key)) for key, w in g.upper_witnesses)


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
