import contextlib
import io
import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest

import hyparr
import hyparr.consistency
import hyparr.lattice
from hyparr import catalog
from hyparr.arrangement import Arrangement, SignVector, arrangement_to_obj, sign_vector_of_point
from hyparr.chambers import (_wall_set, all_sinks, chamber_from_signs, enumerate_chambers,
                             flow_to_sink, is_sink, lex_smallest_chamber, walls)
from hyparr.cli import main
from hyparr.consistency import is_globally_consistent, witness_at
from hyparr.errors import InternalError
from hyparr.lattice import build_lattice, chamber_count_oracle
from hyparr.obstruction import certify_nontrivial_sphere

from conftest import FAULT8_FORMS, random_arrangement, random_sign_vector
from oracles import oracle_flow, oracle_walls, simplex_feasible


def sv(s):
    return SignVector.from_string(s)


def test_enumerate_boolean():
    assert len(enumerate_chambers(catalog.boolean(3))) == 8


def test_enumerate_generic4(generic4):
    ch = enumerate_chambers(generic4)
    assert len(ch) == 14 == chamber_count_oracle(build_lattice(generic4))
    for C in ch:
        assert all(h.form.dot(C.witness) * s > 0
                   for h, s in zip(generic4.hyperplanes, C.signs.signs))


def test_enumerate_braid4(braid4):
    assert len(enumerate_chambers(braid4)) == 24


def test_walls_examples(generic4):
    B2 = catalog.boolean(2)
    assert walls(B2, sv("++")) == frozenset({0, 1})
    assert walls(generic4, sv("++++")) == frozenset({0, 1, 2})
    assert walls(generic4, sv("----")) == frozenset({0, 1, 2})


def _union(na, nb, dim, seed):
    """generic(na, dim) united with generic(nb, dim), or with the plane
    x_1 + ... + x_dim = 0 when nb is 1, and the union's sign vector."""
    B = (Arrangement.from_forms(dim, [[1] * dim]) if nb == 1
         else catalog.generic(nb, dim, seed + 1))
    return catalog.generic_union(catalog.generic(na, dim, seed), B, seed + 2)


def test_walls_match_oracle():
    rng = random.Random(51)
    arrangements = [random_arrangement(rng, dim=d, n=n)
                    for d, n in ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6), (5, 7))]
    arrangements += [_union(4, 3, 3, 7)[0], _union(4, 1, 4, 8)[0], _union(5, 1, 5, 9)[0]]
    for A in arrangements:
        forms = [tuple(h.form) for h in A.hyperplanes]  # unions have rational forms
        for C in enumerate_chambers(A):
            assert set(C.walls) == oracle_walls(forms, A.dim, C.signs.signs)
            assert C.walls == _wall_set(A, C.signs.signs)


def test_walls_antipodal_symmetry():
    rng = random.Random(53)
    for _ in range(6):
        A = random_arrangement(rng)
        for C in enumerate_chambers(A):
            assert walls(A, C.signs) == walls(A, -C.signs)


def test_is_sink_examples(generic4):
    eps = sv("+++-")
    pos = chamber_from_signs(generic4, sv("++++"))
    neg = chamber_from_signs(generic4, sv("----"))
    assert is_sink(generic4, eps, pos)
    assert not is_sink(generic4, eps, neg)
    # a globally consistent system: its own chamber is a sink
    assert is_sink(generic4, sv("++++"), pos)


def test_flow_terminates_at_matching_chamber_when_consistent(generic4):
    eps = sv("+-+-")
    assert is_globally_consistent(generic4, eps)
    for start in enumerate_chambers(generic4):
        path = flow_to_sink(generic4, eps, start)
        assert str(path.sink.signs) == "+-+-"
        assert len(path.crossed) == len(set(path.crossed)) <= generic4.n


def test_flow_from_negative_orthant(generic4):
    # frozen from the independent simplex-oracle simulation: the
    # lowest-index flow (----) -> (+---) -> (++--) stops at the sink (++--)
    eps = sv("+++-")
    start = chamber_from_signs(generic4, sv("----"))
    path = flow_to_sink(generic4, eps, start)
    assert [str(C.signs) for C in path.chambers] == ["----", "+---", "++--"]
    assert path.crossed == (0, 1)
    assert is_sink(generic4, eps, path.sink)
    forms = [tuple(int(x) for x in h.form) for h in generic4.hyperplanes]
    opath, ocrossed = oracle_flow(forms, 3, (1, 1, 1, -1), (-1, -1, -1, -1))
    assert [tuple(C.signs.signs) for C in path.chambers] == opath
    assert list(path.crossed) == ocrossed


def test_flow_zero_length_when_start_is_sink(generic4):
    eps = sv("+++-")
    start = chamber_from_signs(generic4, sv("++++"))
    path = flow_to_sink(generic4, eps, start)
    assert len(path.crossed) == 0
    assert path.sink is start


def test_all_sinks(generic4):
    eps = sv("+++-")
    sinks = {str(C.signs) for C in all_sinks(generic4, eps)}
    assert "++++" in sinks
    # full sink set, frozen from the oracle-checked wall sets
    assert sinks == {"++++", "++--", "+-+-", "-++-"}
    B2 = catalog.boolean(2)
    assert [str(C.signs) for C in all_sinks(B2, sv("+-"))] == ["+-"]


def test_lex_smallest_chamber(generic4):
    assert str(lex_smallest_chamber(generic4).signs) == "++++"


def test_adjacency_symmetric():
    rng = random.Random(57)
    for _ in range(6):
        A = random_arrangement(rng)
        chambers = {str(C.signs): C for C in enumerate_chambers(A)}
        for C in chambers.values():
            for i in C.walls:
                flipped = C.signs.flip(i)
                other = chambers[str(flipped)]
                assert i in other.walls


def test_sink_property_random():
    rng = random.Random(59)
    for _ in range(30):
        d = rng.randint(2, 3)
        A = random_arrangement(rng, dim=d, n=rng.randint(d, 6))
        eps = random_sign_vector(rng, A.n)
        sinks = all_sinks(A, eps)
        assert len(sinks) >= 1
        if is_globally_consistent(A, eps):
            assert len(sinks) == 1 and sinks[0].signs == eps


def _counting(monkeypatch):
    """Count kernel calls, tope searches, the '+' leaves that a search sums
    and checks, the reads of the lines conforming to a sign vector
    (`Lattice.conforming`), and the integer checks of witnesses outside a
    search and of duals."""
    counts = {"kernel": 0, "topes": 0, "leaf": 0, "conforming": 0, "witness": 0, "dual": 0}
    searching = []
    solve = hyparr._fmpure.solve
    search_topes = hyparr.lattice.Lattice._search_topes
    conforming = hyparr.lattice.Lattice.conforming
    checked_sum = hyparr.lattice.Lattice._checked_sum
    check_dual = hyparr.consistency._check_dual

    def counted_solve(rows, dim):
        counts["kernel"] += 1
        return solve(rows, dim)

    def counted_search(lat, Y):
        counts["topes"] += 1
        searching.append(Y)
        try:
            return search_topes(lat, Y)
        finally:
            searching.pop()

    def counted_conforming(*args):
        counts["conforming"] += 1
        return conforming(*args)

    def counted_sum(*args):
        counts["leaf" if searching else "witness"] += 1
        return checked_sum(*args)

    def counted_dual(*args):
        counts["dual"] += 1
        return check_dual(*args)

    monkeypatch.setattr(hyparr._fmpure, "solve", counted_solve)
    monkeypatch.setattr(hyparr.lattice.Lattice, "_search_topes", counted_search)
    monkeypatch.setattr(hyparr.lattice.Lattice, "conforming", counted_conforming)
    monkeypatch.setattr(hyparr.lattice.Lattice, "_checked_sum", counted_sum)
    monkeypatch.setattr(hyparr.consistency, "_check_dual", counted_dual)
    return counts


def _taken(counts):
    """The counts so far, which then restart at zero."""
    out = dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    return out


def test_every_verdict_is_checked_without_the_kernel(monkeypatch):
    # one checked tope search per lattice decides every chamber and wall, with
    # a checked sum at each of its '+' leaves; each chamber's witness sums
    # its conforming lines, read once from the top's columns, and is
    # checked; and the only circuit is certify's global dual
    A, eps = _union(5, 3, 3, 21)
    build_lattice.cache_clear()
    assert all(len(X.contains) == X.codim for X in build_lattice(A).flats[:-1])
    _wall_set.cache_clear()
    counts = _counting(monkeypatch)
    start = lex_smallest_chamber(A)
    assert start.signs.signs.count(-1) > 0
    half = chamber_count_oracle(build_lattice(A)) // 2
    assert _taken(counts) == {"kernel": 0, "topes": 1, "leaf": half, "conforming": 1,
                              "witness": 1, "dual": 0}
    far = chamber_from_signs(A, -start.signs)
    assert _taken(counts) == {"kernel": 0, "topes": 0, "leaf": 0, "conforming": 1,
                              "witness": 1, "dual": 0}
    path = flow_to_sink(A, eps, far)
    assert len(path.chambers) > 2
    steps = len(path.chambers) - 1
    assert _taken(counts) == {"kernel": 0, "topes": 0, "leaf": 0, "conforming": steps,
                              "witness": steps, "dual": 0}
    chambers = enumerate_chambers(A)
    assert chambers[0] == start and far in chambers
    assert _taken(counts) == {"kernel": 0, "topes": 0, "leaf": 0, "conforming": len(chambers),
                              "witness": len(chambers), "dual": 0}
    sinks = all_sinks(A, eps)
    assert path.sink in sinks and len(sinks) < len(chambers)
    assert _taken(counts) == {"kernel": 0, "topes": 0, "leaf": 0, "conforming": len(sinks),
                              "witness": len(sinks), "dual": 0}
    cert = certify_nontrivial_sphere(A, eps)
    # the global dual, found after one read of the lines at the top (every
    # proper flat is independent), which do not cover its forms, then the
    # chambers of the flow from the lex-smallest one
    assert cert.path.chambers[0] == start
    steps = len(cert.path.chambers)
    assert _taken(counts) == {"kernel": 0, "topes": 0, "leaf": 0, "conforming": 1 + steps,
                              "witness": steps, "dual": 1}


def test_lex_smallest_chamber_reads_the_first_tope(monkeypatch, generic4):
    build_lattice.cache_clear()
    _wall_set.cache_clear()
    counts = _counting(monkeypatch)
    C = lex_smallest_chamber(generic4)
    # one tope search, which checks its 7 '+' leaves, and ++++ is witnessed
    # by its conforming lines; its walls 1, 2, 3 are flips in the topes
    assert _taken(counts) == {"kernel": 0, "topes": 1, "leaf": 7, "conforming": 1,
                              "witness": 1, "dual": 0}
    assert C.walls == frozenset({0, 1, 2})
    assert C == enumerate_chambers(generic4)[0] == chamber_from_signs(generic4, sv("++++"))
    assert _taken(counts) == {"kernel": 0, "topes": 0, "leaf": 0, "conforming": 15,
                              "witness": 15, "dual": 0}


def test_enumeration_makes_no_kernel_call(monkeypatch, generic4, braid4):
    counts = _counting(monkeypatch)
    for A in [generic4, braid4, _union(4, 3, 3, 7)[0]]:
        chambers = enumerate_chambers(A)
        assert len(chambers) == chamber_count_oracle(build_lattice(A))
        for C in chambers:
            assert sign_vector_of_point(A, C.witness) == C.signs
    assert counts["kernel"] == 0


def _oracle_inputs():
    """About 200 seeded arrangements in dims 2-5 with at most 10 planes (the
    random ones at most 8, since the oracle below tries 2^(n-1) sign vectors);
    small coefficients make most of them non-generic."""
    rng = random.Random(61)
    out = [catalog.braid(3), catalog.braid(4), catalog.braid(5), catalog.x2_coned(),
           Arrangement.from_forms(4, FAULT8_FORMS), _union(4, 3, 3, 7)[0],
           _union(4, 1, 4, 8)[0], _union(5, 1, 5, 9)[0], _union(5, 4, 4, 5)[0]]
    while len(out) < 200:
        d = rng.randint(2, 5)
        bound = rng.choice((1, 2, 3) if d > 2 else (2, 3))  # R^2 has 4 planes of bound 1
        out.append(random_arrangement(rng, dim=d, n=rng.randint(d, min(d + 4, 8)),
                                      bound=bound))
    return out


def test_chambers_match_brute_force_oracle(tmp_path):
    path = tmp_path / "A.json"
    for A in _oracle_inputs():
        forms = [tuple(h.form) for h in A.hyperplanes]
        # a sign vector is a chamber iff its negation is, so half the 2^n suffice
        half = [signs for signs in product((1, -1), repeat=A.n - 1)
                if simplex_feasible([tuple(s * a for a in f) for s, f in zip((1,) + signs, forms)],
                                    A.dim)]
        expected = sorted("".join("+" if t * s > 0 else "-" for s in (1,) + signs)
                          for signs in half for t in (1, -1))
        path.write_text(json.dumps(arrangement_to_obj(A)))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["chambers", str(path)]) == 0
        doc = json.loads(buf.getvalue())
        chambers = doc["payload"]["chambers"]
        assert [c["signs"] for c in chambers] == expected, forms
        points = {c["id"]: c["witness"] for c in doc["certificates"]}
        for c in chambers:
            w = [Fraction(x) for x in points[c["certificate"]]]
            for ch, f in zip(c["signs"], forms):
                value = sum(Fraction(a) * b for a, b in zip(f, w))
                assert (value > 0 if ch == "+" else value < 0), (forms, c)


def test_a_bogus_chamber_is_caught(monkeypatch, generic4):
    sigma = hyparr.consistency.sigma
    S = sigma(generic4, 3)
    bogus = [SignVector(s) for s in product((1, -1), repeat=4) if SignVector(s) not in S]
    assert len(bogus) == 2

    def padded(A, k, limit=None):
        return sigma(A, k, limit=limit) + (bogus[0],)

    monkeypatch.setattr(hyparr.consistency, "sigma", padded)
    message = f"the topes hold {bogus[0]}, which is not a chamber"
    with pytest.raises(InternalError, match=re.escape(message)):
        enumerate_chambers(generic4)


def test_chambers_and_sinks_read_the_kept_lines(monkeypatch, generic4, braid4, cx2):
    # each witness is the sum that witness_at finds at the top, over the
    # lines that the tope search kept, and all_sinks builds, with a checked
    # witness, exactly the sinks among the chambers
    rng = random.Random(71)
    inputs = [braid4, generic4, cx2, Arrangement.from_forms(4, FAULT8_FORMS)]
    while len(inputs) < 64:
        d = rng.randint(2, 5)
        bound = rng.choice((1, 2, 3) if d > 2 else (2, 3))
        inputs.append(random_arrangement(rng, dim=d, n=rng.randint(d, d + 4), bound=bound))
    checked = []
    checked_sum = hyparr.lattice.Lattice._checked_sum

    def counted(*args):
        checked.append(args)
        return checked_sum(*args)

    monkeypatch.setattr(hyparr.lattice.Lattice, "_checked_sum", counted)
    for A in inputs:
        lat = build_lattice(A)
        chambers = enumerate_chambers(A)
        kept = lat.tope_lines(lat.top)
        for C in chambers:
            assert list(C.witness) == witness_at(lat, C.signs, lat.top)
            assert lat.conforming(lat.top, C.signs.signs) == kept[C.signs.signs]
            assert sign_vector_of_point(A, C.witness) == C.signs
        for _ in range(4):
            eps = random_sign_vector(rng, A.n)
            checked.clear()
            sinks = all_sinks(A, eps)
            assert len(checked) == len(sinks)
            assert list(sinks) == [C for C in chambers if is_sink(A, eps, C)]
