"""Single sign vectors decided from the lattice's cocircuits and from the
cofactor signs of its circuits.

Every answer for one sign vector must agree with the enumerated sets, and
every certificate check must fire on a tampered table.  The checks raise
InternalError, so they stay on under `python -O`.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest

import hyparr.lattice
import oracles
from hyparr import catalog
from hyparr.arrangement import Arrangement, SignVector, primitive_rows
from hyparr.chambers import chamber_from_signs, enumerate_chambers, lex_smallest_chamber, walls
from hyparr.consistency import (_local_tables, _SigmaSearch, consistency_at,
                                global_consistency, is_consistent_at, is_locally_consistent,
                                sigma, sigma_filtration, witness_at)
from hyparr.errors import Infeasible, InternalError
from hyparr.feasibility import StrictSystem, strict_feasible
from hyparr.lattice import Flat, Lattice, build_lattice
from hyparr.linalg import RatVector
from hyparr.obstruction import detect_obstruction, sample_sphere_points

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


def test_consistency_at_a_flat_agrees_with_the_solver():
    """Every sign pattern on every flat's forms, up to global sign: the
    verdict is the solver's, and the certificate passes on the subsystem."""
    infeasible = 0
    for A in INPUTS:
        for X in build_lattice(A).flats:
            idx = sorted(X.contains)
            for rest in product((1, -1), repeat=max(len(idx) - 1, 0)):
                signs = [1] * A.n
                for i, s in zip(idx[1:], rest):
                    signs[i] = s
                eps = SignVector(tuple(signs))
                rows = [A.hyperplanes[i].form.scale(eps[i]) for i in idx]
                system = StrictSystem.of(rows, A.dim) if rows else StrictSystem((), A.dim)
                res = consistency_at(A, eps, X)
                assert res.feasible == strict_feasible(system).feasible
                assert res.verify(system)
                infeasible += not res.feasible
    assert infeasible > 100


def test_every_sphere_sample_is_the_scaled_witness_at_its_flat():
    on_planes = 0
    for A in INPUTS:
        lat = build_lattice(A)
        chambers = set(sigma(A, A.dim))
        local = sigma(A, A.dim - 1)
        eps = next((e for e in local if e not in chambers), local[0])
        for p in sample_sphere_points(A, eps, 8, seed=3):
            on = frozenset(i for i, h in enumerate(A.hyperplanes) if h.form.dot(p.real) == 0)
            assert p.imag.is_zero() == (not on)
            if on:
                on_planes += 1
                w = witness_at(lat, eps, lat.by_contains[on])
                assert p.imag == RatVector.of(w).scale(Fraction(1, sum(map(abs, w))))
    assert on_planes > 100


def _negated(table):
    """The table with its directions negated and its columns kept."""
    directions, columns = table
    return tuple(tuple(-a for a in v) for v in directions), columns


def _negated_directions(real, only=lambda lat, Y: True):
    """A cocircuit table whose directions are negated and whose signs are not."""
    def tampered(self, Y):
        table = real(self, Y)
        return _negated(table) if only(self, Y) else table
    return tampered


def test_a_tampered_cocircuit_sum_is_caught(monkeypatch, generic4):
    build_lattice(generic4).topes()  # searched with the true table
    monkeypatch.setattr(Lattice, "cocircuits", _negated_directions(Lattice.cocircuits))
    with pytest.raises(InternalError, match="conforming lines sum outside"):
        global_consistency(generic4, sv("++++"))
    with pytest.raises(InternalError, match="conforming lines sum outside"):
        enumerate_chambers(generic4)
    # a tope search that reads the tampered table catches it itself
    build_lattice.cache_clear()
    with pytest.raises(InternalError, match="conforming lines sum outside"):
        enumerate_chambers(generic4)


def test_a_tampered_circuit_dependency_is_caught(monkeypatch, generic4):
    # the circuit 1234 keeps its signs, but its first coefficient is doubled
    build_lattice(generic4)  # built with the true kernels
    real = hyparr.lattice.kernel_basis
    first_circuit = Lattice.first_circuit

    def skewed(self, X, eps):
        circuit = first_circuit(self, X, eps)
        return circuit and (circuit[0], (2 * circuit[1][0],) + circuit[1][1:])

    monkeypatch.setattr(Lattice, "first_circuit", skewed)
    with pytest.raises(InternalError, match="is not a dual certificate"):
        global_consistency(generic4, sv("+++-"))
    with pytest.raises(InternalError, match="is not a dual certificate"):
        sigma_filtration(generic4)
    with pytest.raises(InternalError, match="is not a dual certificate"):
        is_consistent_at(generic4, sv("+++-"), build_lattice(generic4).top)

    # a kernel whose signs are not the cofactors' fails the scan itself
    def flipped(rows, ncols):
        return [(c[0], -c[1]) + c[2:] for c in real(rows, ncols)]

    monkeypatch.setattr(Lattice, "first_circuit", first_circuit)
    monkeypatch.setattr(hyparr.lattice, "kernel_basis", flipped)
    with pytest.raises(InternalError, match="does not have the signs of their cofactors"):
        global_consistency(generic4, sv("+++-"))


def _oracle_circuits(A, X):
    """The circuits spanning X in lexicographic order, each with its
    dependency over the primitive rows, by plain Gauss-Jordan: the
    (codim + 1)-subsets of X's forms whose rows have a one-row kernel with
    no zero entry, the row scaled to integers with gcd 1 and a positive
    first entry."""
    rows = primitive_rows(A)
    out = []
    for S in combinations(sorted(X.contains), X.codim + 1):
        K = oracles.rref_kernel([[rows[i][j] for i in S] for j in range(A.dim)], len(S))
        if len(K) == 1 and all(K[0]):
            c = [a * lcm(*(b.denominator for b in K[0])) for a in K[0]]
            g = gcd(*map(int, c)) * (1 if c[0] > 0 else -1)
            out.append((S, tuple(int(a) // g for a in c)))
    return out


def test_the_matched_circuit_is_the_first_by_plain_elimination():
    """On every dependent flat, for 64 seeded sign vectors each, the
    cofactor scan finds the first circuit in lexicographic order whose
    signs eps takes up to global sign, with its dependency, or none when
    the oracle's circuits have none."""
    rng = random.Random(27)
    flats = matched = 0
    for A in INPUTS:
        lat = build_lattice(A)
        for X in lat.flats:
            if len(X.contains) == X.codim:
                continue
            flats += 1
            circuits = _oracle_circuits(A, X)
            for _ in range(64):
                eps = SignVector(tuple(rng.choice((1, -1)) for _ in range(A.n)))
                expected = next((circuit for circuit in circuits if len(
                    {eps[i] * c_t > 0 for i, c_t in zip(*circuit)}) == 1), None)
                assert lat.first_circuit(X, eps) == expected
                matched += expected is not None
    assert flats > 60 and matched > 600


def test_every_cocircuit_table_is_the_signs_of_the_raw_forms():
    """Each lower cover Z of Y gives two entries: the first kernel row v of
    Z on which the first form of Y outside Z does not vanish, and -v.  Each
    form of Y, in key order, has a column pair: the masks of the entries at
    which it is positive and negative, by `form.dot`.  The forms of Z
    vanish at v and no other form of Y does."""
    entries = 0
    for A in INPUTS:
        lat = build_lattice(A)
        for Y in lat.flats:
            directions = []
            for Z in lat.lower_covers(Y):
                outside = sorted(Y.contains - Z.contains)
                values = [{i: A.hyperplanes[i].form.dot(RatVector.of(k)) for i in Y.contains}
                          for k in Z.kernel]
                v, at_v = next((k, vals) for k, vals in zip(Z.kernel, values)
                               if vals[outside[0]])
                assert not any(at_v[i] for i in Z.contains) and all(at_v[i] for i in outside)
                directions += [v, tuple(-a for a in v)]
            columns = []
            for i in Y.key():
                values = [A.hyperplanes[i].form.dot(RatVector.of(v)) for v in directions]
                columns.append((sum(1 << e for e, x in enumerate(values) if x > 0),
                                sum(1 << e for e, x in enumerate(values) if x < 0)))
            assert lat.cocircuits(Y) == (tuple(directions), tuple(columns))
            entries += len(directions)
    assert entries > 1000


def test_a_failing_localized_witness_is_caught(monkeypatch, braid4, generic4):
    real = Lattice.cocircuits
    below_top = _negated_directions(real, lambda lat, Y: Y != lat.top)
    monkeypatch.setattr(Lattice, "cocircuits", below_top)
    # ++++++ is a chamber of braid(4), so every localization has a witness
    with pytest.raises(InternalError, match="conforming lines sum outside"):
        is_locally_consistent(braid4, sv("++++++"))
    # the upper witnesses of generic4's gap
    with pytest.raises(InternalError, match="conforming lines sum outside"):
        detect_obstruction(generic4)
    # local consistency skips the independent flats, but a sphere sample on
    # a hyperplane or a line of generic4 reads their witnesses
    independent = _negated_directions(real, lambda lat, Y: len(Y.contains) == Y.codim)
    monkeypatch.setattr(Lattice, "cocircuits", independent)
    assert is_locally_consistent(generic4, sv("+++-"))
    with pytest.raises(InternalError, match="conforming lines sum outside"):
        sample_sphere_points(generic4, sv("+++-"), 4)


def _fresh_with_top_table(A, tamper):
    """A lattice of A outside the cache whose top table is tamper(table)."""
    lat = build_lattice.__wrapped__(A)
    lat._cocircuits[lat.top.contains] = tamper(lat.cocircuits(lat.top))
    return lat


@pytest.mark.parametrize("name", ["generic4", "braid4"])
def test_the_tope_search_checks_the_stored_signs(request, name):
    """The search reads each line's signs from the columns and its witnesses
    from the directions, so a table whose two disagree fails `topes()`."""
    A = request.getfixturevalue(name)
    negated = _fresh_with_top_table(A, _negated)
    with pytest.raises(InternalError, match="conforming lines sum outside"):
        negated.topes()
    pairs = len(build_lattice(A).cocircuits(build_lattice(A).top)[0]) // 2
    for t in range(pairs):
        def swapped(table, t=t):
            # entries 2t and 2t + 1 trade their signs on every form
            def swap(mask):
                return mask & ~(3 << 2 * t) | (mask >> 2 * t & 1) << 2 * t + 1 | (
                    mask >> 2 * t + 1 & 1) << 2 * t
            directions, columns = table
            return directions, tuple((swap(p), swap(q)) for p, q in columns)
        with pytest.raises(InternalError, match="conforming lines sum outside"):
            _fresh_with_top_table(A, swapped).topes()
    # entries 2t and 2t + 1 must be one line's two signs: opposite
    # directions, and each neg column the pair-swap of its pos column
    for tamper in (lambda directions, columns: (directions[1:] + directions[:1], columns),
                   lambda directions, columns: (directions, tuple(
                       (p, q & ~2) for p, q in columns))):
        with pytest.raises(InternalError, match="are not one line's two signs"):
            _fresh_with_top_table(A, lambda table: tamper(*table)).topes()


@pytest.mark.parametrize("name", ["generic4", "braid4"])
def test_a_lower_cover_off_its_line_is_caught(request, name):
    """A line of A given another line's kernel row: either the first form
    outside it vanishes there, or a later one does, and its cocircuit entry
    must refuse both."""
    A = request.getfixturevalue(name)
    lines = [t for t, Z in enumerate(build_lattice(A).flats) if Z.codim == A.dim - 1]
    for t in lines:
        for u in lines:
            if u == t:
                continue
            lat = build_lattice.__wrapped__(A)
            Z, other = lat.flats[t], lat.flats[u]
            lat.flats = lat.flats[:t] + (Flat(Z.contains, Z.codim, other.kernel),) + lat.flats[t + 1:]
            with pytest.raises(InternalError, match="is no line of the localization"):
                lat.cocircuits(lat.top)


def _conforming_entries(table, signs) -> int:
    """The mask of the table entries that conform to signs over the forms of
    the flat, read entry by entry from the stored columns alone."""
    directions, columns = table
    return sum(1 << e for e in range(len(directions))
               if not any((neg if s > 0 else pos) >> e & 1
                          for s, (pos, neg) in zip(signs, columns)))


def test_each_half_mirrors_the_other():
    """At the top and at every dependent flat, the topes are in lex order,
    closed under negation, and each kept mask is exactly the entries that
    conform to its tope; the Sigma search gives -eps the level of eps, and
    each level is the one that the local tope sets give directly."""
    flats = 0
    for A in INPUTS:
        lat = build_lattice(A)
        for Y in lat.flats:
            if Y != lat.top and len(Y.contains) == Y.codim:
                continue
            flats += 1
            topes, table = lat.tope_lines(Y), lat.cocircuits(Y)
            assert list(topes) == sorted(topes, key=lambda signs: [-s for s in signs])
            assert {tuple(-s for s in signs) for signs in topes} == set(topes)
            for signs, live in topes.items():
                assert live == _conforming_entries(table, signs)
        connected = [Y for Y in lat.flats if Y.codim < A.dim
                     and len(Y.contains) > Y.codim and lat.beta(Y)]
        leaves = _SigmaSearch(A.n, _local_tables(lat, A.dim - 1), 1).run()
        assert [eps.signs for eps, _ in leaves] == list(product((1, -1), repeat=A.n))
        levels = dict(leaves)
        for eps, level in leaves:
            assert levels[-eps] == level
            failing = [Y.codim - 1 for Y in connected
                       if tuple(eps[i] for i in Y.key()) not in lat.tope_lines(Y)]
            assert level == min(failing, default=A.n + 1)
    assert flats > 60


def test_conforming_is_the_kept_mask_and_the_raw_forms_signs():
    """At every flat above the bottom, for every sign pattern on its forms,
    `Lattice.conforming` is None exactly off the local topes, and
    otherwise it is the mask that the tope search kept and the entries that
    conform to the pattern by the signs of the raw forms (`form.dot`) at
    their directions, which then reach every form; `Lattice.witness` is
    the sum of those directions."""
    patterns = 0
    for A in INPUTS:
        lat = build_lattice(A)
        for Y in lat.flats[1:]:
            key, topes = Y.key(), lat.tope_lines(Y)
            directions = lat.cocircuits(Y)[0]
            at = [[A.hyperplanes[i].form.dot(RatVector.of(v)) for i in key] for v in directions]
            for signs in product((1, -1), repeat=len(key)):
                patterns += 1
                live = lat.conforming(Y, signs)
                lines = [e for e, values in enumerate(at)
                         if all(s * x >= 0 for s, x in zip(signs, values))]
                reached = all(any(at[e][j] for e in lines) for j in range(len(key)))
                assert (live is None) == (signs not in topes) == (not reached)
                if live is None:
                    assert lat.witness(Y, signs) is None
                    continue
                assert live == topes[signs] == sum(1 << e for e in lines)
                assert lat.witness(Y, signs) == [sum(col) for col in zip(
                    *(directions[e] for e in lines))]
    assert patterns > 5000


def test_the_sigma_search_refuses_a_one_sided_first_form(braid4):
    lat = build_lattice(braid4)
    tables = _local_tables(lat, 2)
    tables[0] = [(1, lambda signs: signs[0], frozenset({1}))]
    with pytest.raises(InternalError, match="not closed under negation"):
        _SigmaSearch(braid4.n, tables, 1).run()
