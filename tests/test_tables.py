"""Single sign vectors decided from the lattice's cocircuits and circuits.

Every answer for one sign vector must agree with the enumerated sets, and
every certificate check must fire on a tampered table.  The checks raise
InternalError, so they stay on under `python -O`.
"""

import random
from itertools import product

import pytest

from hyparr import catalog
from hyparr.arrangement import Arrangement, SignVector
from hyparr.chambers import chamber_from_signs, enumerate_chambers, lex_smallest_chamber, walls
from hyparr.consistency import (global_consistency, is_locally_consistent, sigma,
                                sigma_filtration)
from hyparr.errors import Infeasible, InternalError
from hyparr.lattice import Lattice, build_lattice
from hyparr.obstruction import detect_obstruction

from conftest import FAULT8_FORMS, random_arrangement


def sv(s):
    return SignVector.from_string(s)


def _inputs():
    """Four named arrangements and 40 seeded ones of dim 2-5 with at most 8
    planes; small coefficients make most of them non-generic."""
    rng = random.Random(71)
    out = [catalog.generic4(), catalog.braid(4), catalog.x2_coned(),
           Arrangement.from_forms(4, FAULT8_FORMS)]
    while len(out) < 44:
        d = rng.randint(2, 5)
        bound = rng.choice((1, 2, 3) if d > 2 else (2, 3))  # R^2 has 4 planes of bound 1
        out.append(random_arrangement(rng, dim=d, n=rng.randint(d, min(d + 3, 8)), bound=bound))
    return out


INPUTS = _inputs()


def test_walls_of_one_chamber_match_the_enumeration():
    for A in INPUTS:
        for C in enumerate_chambers(A):
            assert walls(A, C.signs) == C.walls


def test_chamber_from_signs_is_infeasible_exactly_off_sigma_dim():
    for A in INPUTS:
        chambers = {C.signs: C for C in enumerate_chambers(A)}
        for signs in product((1, -1), repeat=A.n):
            eps = SignVector(signs)
            if eps in chambers:
                assert chamber_from_signs(A, eps) == chambers[eps]
            else:
                with pytest.raises(Infeasible):
                    chamber_from_signs(A, eps)


def test_lex_smallest_chamber_is_the_first_enumerated():
    for A in INPUTS:
        assert lex_smallest_chamber(A) == enumerate_chambers(A)[0]


def test_local_consistency_is_membership_in_sigma_below_the_top():
    for A in INPUTS:
        local = set(sigma(A, A.dim - 1))
        for signs in product((1, -1), repeat=A.n):
            eps = SignVector(signs)
            assert is_locally_consistent(A, eps) == (eps in local)


def test_every_upper_witness_is_strictly_on_the_chosen_side():
    gaps = 0
    for A in INPUTS:
        for g in detect_obstruction(A).gaps:
            gaps += 1
            assert len(g.upper_witnesses) == sum(
                1 for Y in build_lattice(A).flats if Y.contains < g.flat.contains)
            for key, w in g.upper_witnesses:
                assert set(key) < g.flat.contains
                for i in key:
                    assert g.eps[i] * A.hyperplanes[i].form.dot(w) > 0
    assert gaps > 10


def _negated_directions(real, only=lambda lat, Y: True):
    """A cocircuit table whose directions are negated and whose signs are not."""
    def tampered(self, Y):
        table = real(self, Y)
        if not only(self, Y):
            return table
        return tuple((tuple(-a for a in v), pos, neg) for v, pos, neg in table)
    return tampered


def test_a_tampered_cocircuit_sum_is_caught(monkeypatch, generic4):
    monkeypatch.setattr(Lattice, "cocircuits", _negated_directions(Lattice.cocircuits))
    with pytest.raises(InternalError, match="is not strictly on the side"):
        global_consistency(generic4, sv("++++"))
    with pytest.raises(InternalError, match="is not strictly on the side"):
        enumerate_chambers(generic4)


def test_a_tampered_circuit_dependency_is_caught(monkeypatch, generic4):
    # the circuit 1234 keeps its signs, but its first coefficient is doubled
    real = Lattice.circuits

    def skewed(self, X):
        return tuple((S, (2 * c[0],) + c[1:]) for S, c in real(self, X))

    monkeypatch.setattr(Lattice, "circuits", skewed)
    # a search for one circuit reads the tampered table too, built or not
    monkeypatch.setattr(Lattice, "first_circuit",
                        lambda self, X, wanted: next(filter(wanted, self.circuits(X)), None))
    with pytest.raises(InternalError, match="is not a dual certificate"):
        global_consistency(generic4, sv("+++-"))
    with pytest.raises(InternalError, match="is not a dual certificate"):
        sigma_filtration(generic4)


def test_a_failing_localized_witness_is_caught(monkeypatch, braid4, generic4):
    below_top = _negated_directions(Lattice.cocircuits, lambda lat, Y: Y != lat.top)
    monkeypatch.setattr(Lattice, "cocircuits", below_top)
    # ++++++ is a chamber of braid(4), so every localization has a witness
    with pytest.raises(InternalError, match="is not strictly on the side"):
        is_locally_consistent(braid4, sv("++++++"))
    # the upper witnesses of generic4's gap
    with pytest.raises(InternalError, match="is not strictly on the side"):
        detect_obstruction(generic4)
