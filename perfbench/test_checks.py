"""Tests of the benchmark's independent checks.

    PYTHONPATH=src python -m pytest -q perfbench

The closed forms must agree with Whitney's subset-rank sum, every check must
accept the program's real report, and every check must reject a report
corrupted on purpose.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import Case, CheckFailed  # noqa: E402
from hyparr import catalog, cli  # noqa: E402
from hyparr.arrangement import Arrangement, arrangement_to_obj  # noqa: E402
from workloads import FAULT_FORMS  # noqa: E402


def _case(tmp_path, name, arrangement, family, eps=None):
    obj = arrangement_to_obj(arrangement)
    data = (json.dumps(obj) + "\n").encode()
    path = tmp_path / f"{name}.json"
    path.write_bytes(data)
    forms = tuple(tuple(Fraction(x) for x in row) for row in obj["forms"])
    return Case(name, obj["dim"], forms, family, eps, data), path


def _run(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0
    return json.loads(buf.getvalue())


def _rejects(check, case, doc, *extra):
    with pytest.raises(CheckFailed):
        check(case, doc, *extra)


def _cert(doc, cid):
    return next(c for c in doc["certificates"] if c["id"] == cid)


# ---------------------------------------------------------------------------
# Closed forms against Whitney's sum


@pytest.mark.parametrize("n,dim,seed", [(4, 3, 1), (5, 3, 2), (6, 4, 3), (7, 3, 4), (6, 5, 5)])
def test_generic_closed_forms_match_whitney(n, dim, seed):
    A = catalog.generic(n, dim, seed)
    forms = [tuple(h.form) for h in A.hyperplanes]
    assert checks.generic_polynomial(n, dim) == checks.whitney_polynomial(forms, dim)
    assert checks.generic_flat_counts(n, dim) == checks.brute_force_flat_counts(forms, dim)
    assert checks.chambers_of(checks.generic_polynomial(n, dim)) == \
        2 * sum(comb(n - 1, c) for c in range(dim))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_braid_closed_forms_match_whitney(m):
    A = catalog.braid(m)
    forms = [tuple(h.form) for h in A.hyperplanes]
    assert checks.braid_polynomial(m) == checks.whitney_polynomial(forms, m - 1)
    assert checks.braid_flat_counts(m) == checks.brute_force_flat_counts(forms, m - 1)
    assert sum(checks.braid_flat_counts(m).values()) == [1, 2, 5, 15, 52][m - 1]
    assert checks.chambers_of(checks.braid_polynomial(m)) == factorial(m)


def test_fault_arrangement_has_116_chambers():
    case = Case("fault8", 4, tuple(tuple(Fraction(x) for x in r) for r in FAULT_FORMS),
                ("whitney",))
    assert case.chambers() == 116
    counts = [{"k": k, "count": c} for k, c in ((1, 256), (2, 256), (3, 200), (4, 117))]
    with pytest.raises(CheckFailed):
        checks._check_counts(case, counts)


# ---------------------------------------------------------------------------
# Real reports pass; corrupted ones are rejected


def test_lattice_check(tmp_path):
    case, path = _case(tmp_path, "g63", catalog.generic(6, 3, 7), ("generic", 6, 3))
    doc = _run(["lattice", path])
    checks.check_lattice(case, doc)

    bad = copy.deepcopy(doc)
    bad["payload"]["zaslavsky_chambers"] += 1
    _rejects(checks.check_lattice, case, bad)

    bad = copy.deepcopy(doc)
    del bad["payload"]["flats"][3]
    _rejects(checks.check_lattice, case, bad)

    bad = copy.deepcopy(doc)
    flat = next(f for f in bad["payload"]["flats"] if f["codim"] == 2)
    flat["kernel"][0][0] = str(Fraction(flat["kernel"][0][0]) + 1)
    _rejects(checks.check_lattice, case, bad)

    bad = copy.deepcopy(doc)
    flat = next(f for f in bad["payload"]["flats"] if f["codim"] == 1)
    flat["mu"] = -flat["mu"]
    _rejects(checks.check_lattice, case, bad)


def test_braid_lattice_check(tmp_path):
    case, path = _case(tmp_path, "b4", catalog.braid(4), ("braid", 4))
    doc = _run(["lattice", path])
    checks.check_lattice(case, doc)
    bad = copy.deepcopy(doc)
    bad["payload"]["characteristic_polynomial"][-1] += 1
    _rejects(checks.check_lattice, case, bad)


def test_sigma_and_obstruct_checks(tmp_path):
    case, path = _case(tmp_path, "g4", catalog.generic4(), ("generic", 4, 3))
    sigma = _run(["sigma", path])
    obstruct = _run(["obstruct", path])
    checks.check_sigma(case, sigma)
    checks.check_obstruct(case, obstruct)

    bad = copy.deepcopy(sigma)
    bad["payload"]["counts"][-1]["count"] -= 1
    _rejects(checks.check_sigma, case, bad)

    # negated as a whole, the dual still sums to zero but is not nonnegative
    bad = copy.deepcopy(sigma)
    dual = _cert(bad, bad["payload"]["witnesses"][0]["certificate"])["dual"]
    dual[:] = [str(-Fraction(v)) for v in dual]
    _rejects(checks.check_sigma, case, bad)

    bad = copy.deepcopy(sigma)
    dual = _cert(bad, bad["payload"]["witnesses"][0]["certificate"])["dual"]
    j = next(i for i, v in enumerate(dual) if Fraction(v) != 0)
    dual[j] = str(2 * Fraction(dual[j]))
    _rejects(checks.check_sigma, case, bad)

    bad = copy.deepcopy(obstruct)
    gap = bad["payload"]["gaps"][0]
    dual = _cert(bad, gap["dual_certificate"])["dual"]
    dual[0] = str(-Fraction(dual[0]) - 1)
    _rejects(checks.check_obstruct, case, bad)

    bad = copy.deepcopy(obstruct)
    bad["payload"]["counts"][0]["count"] += 1
    _rejects(checks.check_obstruct, case, bad)

    # a witness coordinate flipped so that a sign of the witness changes
    bad = copy.deepcopy(obstruct)
    gap = bad["payload"]["gaps"][0]
    eps = checks.signs_of(gap["eps"])
    for up in gap["upper_witnesses"]:
        w = _cert(bad, up["certificate"])["witness"]
        idx = [i - 1 for i in up["flat"]]
        for j in range(len(w)):
            flipped = [str(-Fraction(v)) if t == j else v for t, v in enumerate(w)]
            x = [Fraction(v) for v in flipped]
            if any(eps[i] * checks.dot(case.forms[i], x) <= 0 for i in idx):
                w[:] = flipped
                break
        else:
            continue
        break
    else:
        pytest.fail("no coordinate flip leaves the cone")
    _rejects(checks.check_obstruct, case, bad)


@pytest.fixture()
def pipeline(tmp_path):
    """The paper's pipeline on a small generic union, with its reports."""
    union, eps = catalog.generic_union(catalog.boolean(3),
                                       Arrangement.from_forms(3, [[1, 1, 1]]), seed=4)
    case, path = _case(tmp_path, "u", union, ("whitney",), str(eps))
    docs = {
        "chambers": _run(["chambers", path]),
        "sink": _run(["sink", path, "--eps", str(eps)]),
        "certify": _run(["certify", path, "--eps", str(eps)]),
        "sphere": _run(["sphere", path, "--eps", str(eps), "--count", 6, "--seed", 3]),
    }
    return case, docs


def test_pipeline_checks_accept_real_reports(pipeline):
    case, docs = pipeline
    checks.check_chambers(case, docs["chambers"])
    checks.check_sink(case, docs["sink"])
    checks.check_certify(case, docs["certify"])
    checks.check_sphere(case, docs["sphere"], 6)


def test_chambers_check_rejects_flipped_witness_and_missing_wall(pipeline):
    case, docs = pipeline
    doc = docs["chambers"]

    bad = copy.deepcopy(doc)
    chamber = bad["payload"]["chambers"][0]
    w = _cert(bad, chamber["certificate"])["witness"]
    j = next(i for i, v in enumerate(w) if Fraction(v) != 0)
    w[j] = str(-Fraction(w[j]))
    x = [Fraction(v) for v in w]
    signs = checks.signs_of(chamber["signs"])
    assert any(s * checks.dot(f, x) <= 0 for s, f in zip(signs, case.forms))
    _rejects(checks.check_chambers, case, bad)

    bad = copy.deepcopy(doc)
    bad["payload"]["chambers"][0]["walls"].pop()
    _rejects(checks.check_chambers, case, bad)

    bad = copy.deepcopy(doc)
    bad["payload"]["count"] += 1
    _rejects(checks.check_chambers, case, bad)


def test_flow_checks_reject_corruption(pipeline):
    case, docs = pipeline
    checks.check_chambers(case, docs["chambers"])

    bad = copy.deepcopy(docs["sink"])
    bad["payload"]["all_sinks"].pop()
    _rejects(checks.check_sink, case, bad)

    bad = copy.deepcopy(docs["certify"])
    rotation = Fraction(bad["payload"]["rotation"])
    bad["payload"]["rotation"] = str(rotation / 2)
    _rejects(checks.check_certify, case, bad)

    bad = copy.deepcopy(docs["certify"])
    dual = _cert(bad, bad["payload"]["global_inconsistency_certificate"])["dual"]
    dual[0] = str(-Fraction(dual[0]) - 1)
    _rejects(checks.check_certify, case, bad)


def test_flow_checks_need_the_chamber_list(pipeline):
    case, docs = pipeline
    _rejects(checks.check_sink, case, docs["sink"])


def test_sphere_check_rejects_corruption(pipeline):
    case, docs = pipeline
    doc = docs["sphere"]

    bad = copy.deepcopy(doc)
    bad["payload"]["points"][0]["real"] = [str(2 * Fraction(v))
                                          for v in bad["payload"]["points"][0]["real"]]
    _rejects(checks.check_sphere, case, bad, 6)

    # an on-hyperplane sample whose imaginary part is moved to the wrong side
    bad = copy.deepcopy(doc)
    for pt in bad["payload"]["points"]:
        x = [Fraction(v) for v in pt["real"]]
        on = [i for i, f in enumerate(case.forms) if checks.dot(f, x) == 0]
        if on:
            pt["imag"] = [str(-Fraction(v)) for v in pt["imag"]]
            break
    else:
        pytest.fail("no sample lies on a hyperplane")
    _rejects(checks.check_sphere, case, bad, 6)

    _rejects(checks.check_sphere, case, doc, 7)
