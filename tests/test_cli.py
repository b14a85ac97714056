import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

import hyparr
import hyparr.chambers
import hyparr.consistency
from hyparr import catalog
from hyparr.arrangement import Arrangement, arrangement_to_obj
from hyparr.cli import main
from hyparr.consistency import REPORT_SET_LIMIT
from hyparr.lattice import build_lattice, chamber_count_oracle

from conftest import FAULT8_FORMS
from oracles import rref_rank


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_generic4(tmp_path):
    p = tmp_path / "generic4.json"
    p.write_text(json.dumps(arrangement_to_obj(catalog.generic4())))
    return str(p)


def write_cx2(tmp_path):
    p = tmp_path / "cx2.json"
    p.write_text(json.dumps(arrangement_to_obj(catalog.x2_coned())))
    return str(p)


def test_validate_ok(tmp_path, capsys):
    code, out = run_cli(capsys, "validate", write_generic4(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "validate"
    assert doc["input_digest"].startswith("sha256:")
    assert doc["payload"] == {"valid": True, "dim": 3, "n": 4,
                              "labels": ["x", "y", "z", "x+y+z"]}


def test_validate_not_essential(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dim": 3, "forms": [["1", "0", "0"], ["0", "1", "0"]]}))
    code, out = run_cli(capsys, "validate", str(p))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "NotEssential"


def test_lattice_payload(tmp_path, capsys):
    code, out = run_cli(capsys, "lattice", write_generic4(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["zaslavsky_chambers"] == 14
    assert doc["payload"]["characteristic_polynomial"] == [1, -4, 6, -3]
    assert len(doc["payload"]["flats"]) == 12


def test_chambers_payload(tmp_path, capsys):
    code, out = run_cli(capsys, "chambers", write_generic4(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["count"] == 14
    assert doc["payload"]["chambers"][0]["signs"] == "++++"
    assert doc["payload"]["chambers"][0]["walls"] == [1, 2, 3]


def test_sigma_cx2_counts(tmp_path, capsys):
    code, out = run_cli(capsys, "sigma", write_cx2(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["counts"] == [
        {"k": 1, "count": 128}, {"k": 2, "count": 34}, {"k": 3, "count": 34}]


def test_sigma_single_k(tmp_path, capsys):
    code, out = run_cli(capsys, "sigma", write_generic4(tmp_path), "--k", "3")
    doc = json.loads(out)
    assert doc["payload"]["count"] == 14
    assert "+++-" not in doc["payload"]["set"]


def test_full_sets_lists_sets_past_the_report_limit(tmp_path, capsys):
    A = catalog.generic(17, 2, 3)
    assert A.n > REPORT_SET_LIMIT
    f = _write(tmp_path, "g17.json", arrangement_to_obj(A))
    pay = json.loads(run_cli(capsys, "sigma", f, "--k=2")[1])["payload"]
    assert (pay["count"], "set" in pay) == (34, False)
    pay = json.loads(run_cli(capsys, "sigma", f, "--k=2", "--full-sets")[1])["payload"]
    assert len(pay["set"]) == 34 and pay["set"] == sorted(pay["set"])
    assert "sets" not in json.loads(run_cli(capsys, "sigma", f)[1])["payload"]
    sets = json.loads(run_cli(capsys, "sigma", f, "--full-sets")[1])["payload"]["sets"]
    assert {k: len(v) for k, v in sets.items()} == {"1": 2 ** 17, "2": 34}
    assert sets["2"] == pay["set"]


def test_obstruct_generic4(tmp_path, capsys):
    code, out = run_cli(capsys, "obstruct", write_generic4(tmp_path))
    assert code == 0
    doc = json.loads(out)
    pay = doc["payload"]
    assert pay["minimal_k"] == 2
    assert pay["kpi1_possible"] is False
    gap = pay["gaps"][0]
    assert gap["eps"] == "+++-"
    assert gap["flat"]["contains"] == [1, 2, 3, 4]
    dual = next(c for c in doc["certificates"] if c["id"] == gap["dual_certificate"])
    assert dual["dual"] == ["1", "1", "1", "1"]


def test_obstruct_cx2(tmp_path, capsys):
    code, out = run_cli(capsys, "obstruct", write_cx2(tmp_path))
    doc = json.loads(out)
    assert doc["payload"]["kpi1_possible"] is True
    assert doc["payload"]["gaps"] == []


def test_sink_flow(tmp_path, capsys):
    code, out = run_cli(capsys, "sink", write_generic4(tmp_path),
                        "--eps=+++-", "--start=----")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["path"] == ["----", "+---", "++--"]
    assert doc["payload"]["crossed"] == [1, 2]
    assert doc["payload"]["sink"] == "++--"
    assert "++++" in doc["payload"]["all_sinks"]


def test_certify(tmp_path, capsys):
    code, out = run_cli(capsys, "certify", write_generic4(tmp_path), "--eps", "+++-")
    assert code == 0
    doc = json.loads(out)
    pay = doc["payload"]
    assert pay["sink"] == "++++"
    assert pay["separating"] == [4]
    assert pay["rotation"] == "1/4"
    assert pay["weights"] == ["1/4", "1/4", "1/4", "1/4"]
    assert any("monodromy" in c for c in doc["certificates"])
    assert any("dual" in c for c in doc["certificates"])


def test_certify_prints_a_checked_circuit_as_its_dual(tmp_path, capsys, monkeypatch):
    U, eps = _union(5, 4, 4)  # built first: generic_union decides its witness with the kernel
    checked = []
    check_dual = hyparr.consistency._check_dual

    def spy(rows, signs, circuit):
        checked.append(circuit)
        return check_dual(rows, signs, circuit)

    def no_kernel(rows, dim):
        raise AssertionError("certify called the feasibility kernel")

    monkeypatch.setattr(hyparr.consistency, "_check_dual", spy)
    monkeypatch.setattr(hyparr._fmpure, "solve", no_kernel)
    hyparr.chambers._wall_set.cache_clear()
    code, out = run_cli(capsys, "certify", _write(tmp_path, "u.json", arrangement_to_obj(U)),
                        f"--eps={eps}")
    assert code == 0
    doc = json.loads(out)
    cid = doc["payload"]["global_inconsistency_certificate"]
    dual = [Fraction(y) for y in next(c["dual"] for c in doc["certificates"] if c["id"] == cid)]
    assert len(dual) == U.n and all(y >= 0 for y in dual)
    for j in range(U.dim):
        assert sum(y * s * h.form[j] for y, s, h in zip(dual, eps.signs, U.hyperplanes)) == 0
    # minimal support: the forms on it have rank one less than its size, so
    # the dual, which is nonzero on all of them, spans their dependencies
    support = [i for i, y in enumerate(dual) if y]
    assert rref_rank([list(U.hyperplanes[i].form) for i in support], U.dim) == len(support) - 1
    assert len(support) < U.n
    # the first dual checked is the printed one
    assert checked[0][0] == tuple(support)


def test_certify_consistent_is_domain_error(tmp_path, capsys):
    code, out = run_cli(capsys, "certify", write_generic4(tmp_path), "--eps", "++++")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "GloballyConsistent"


def test_sphere(tmp_path, capsys):
    code, out = run_cli(capsys, "sphere", write_generic4(tmp_path),
                        "--eps", "+++-", "--count", "5", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["verified"] is True
    assert len(doc["payload"]["points"]) == 5


def test_builtin_pipes_into_other_commands(tmp_path, capsys):
    code, out = run_cli(capsys, "builtin", "generic4")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 3 and len(obj["forms"]) == 4
    code, out = run_cli(capsys, "builtin", "braid", "--n", "4")
    assert json.loads(out)["dim"] == 3
    code, out = run_cli(capsys, "builtin", "generic", "--n", "4", "--l", "3",
                        "--seed", "5")
    assert code == 0


@pytest.mark.parametrize("argv", [("boolean", "--l", "0"), ("braid", "--n", "0"),
                                  ("generic", "--n", "0", "--l", "0")])
def test_builtin_rejects_a_size_of_zero(capsys, argv):
    code, out = run_cli(capsys, "builtin", *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_cone_roundtrip(tmp_path, capsys):
    code, out = run_cli(capsys, "builtin", "x2")
    affine = json.loads(out)
    assert "constants" in affine
    p = tmp_path / "x2.json"
    p.write_text(out)
    code, out = run_cli(capsys, "cone", str(p))
    assert code == 0
    coned = json.loads(out)
    assert coned["dim"] == 3 and len(coned["forms"]) == 7
    # a central file is rejected by cone, an affine file by the others
    code, _ = run_cli(capsys, "validate", str(p))
    assert code == 1


def test_byte_identical_reruns(tmp_path, capsys):
    f = write_generic4(tmp_path)
    outs = set()
    for _ in range(2):
        _, out = run_cli(capsys, "obstruct", f)
        outs.add(out)
    assert len(outs) == 1


def test_installed_entry_point(tmp_path):
    f = write_generic4(tmp_path)
    r = subprocess.run([sys.executable, "-m", "hyparr.cli", "sigma", f],
                       capture_output=True, text=True)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["payload"]["counts"][-1]["count"] == 14


def test_usage_error_exit_2():
    r = subprocess.run([sys.executable, "-m", "hyparr.cli", "frobnicate"],
                       capture_output=True, text=True)
    assert r.returncode == 2


class RawText:
    """File contents that `_write` writes as they stand, not JSON-encoded."""

    def __init__(self, text):
        self.text = text


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(obj.text if isinstance(obj, RawText) else json.dumps(obj))
    return str(p)


GENERIC4 = arrangement_to_obj(catalog.generic4())


@pytest.mark.parametrize("command, obj, extra, error", [
    ("validate", dict(GENERIC4, labels=["x", "y", "z"]), (), "ValueError"),
    ("validate", [GENERIC4], (), "HyparrError"),
    ("lattice", {"dim": 3}, (), "ValueError"),
    ("lattice", {"forms": GENERIC4["forms"]}, (), "ValueError"),
    ("lattice", {"dim": 3, "forms": 3}, (), "ValueError"),
    ("lattice", {"dim": 3, "forms": [["1", None, "0"]]}, (), "ValueError"),
    ("lattice", {"dim": 2, "forms": [[float("inf"), 1], [0, 1]]}, (), "ValueError"),
    ("lattice", {"dim": [3], "forms": GENERIC4["forms"]}, (), "ValueError"),
    ("lattice", dict(GENERIC4, labels=7), (), "ValueError"),
    ("cone", 7, (), "HyparrError"),
    ("cone", {"dim": 2, "constants": ["1"]}, (), "ValueError"),
    ("sink", GENERIC4, ("--eps=+++-", "--start=+-+"), "HyparrError"),
    ("sink", GENERIC4, ("--eps=++-",), "HyparrError"),
    ("lattice", dict(GENERIC4, forms=[["1/0", "0", "0"]] + GENERIC4["forms"][1:]), (),
     "ValueError"),
    ("lattice", dict(GENERIC4, forms=[["1e999999999", "0", "0"]] + GENERIC4["forms"][1:]), (),
     "ValueError"),
    ("cone", {"dim": 2, "forms": [["1", "0"], ["0", "1"]], "constants": ["1/0", "1"]}, (),
     "ValueError"),
    ("validate", RawText("[" * 100000), (), "ValueError"),
    ("certify", GENERIC4, ("--eps=+++-", "--weights=1/0,1,1,1"), "ValueError"),
    ("certify", GENERIC4, ("--eps=+++-", "--weights=1e999999999,1,1,1"), "ValueError"),
])
def test_malformed_input_is_structured_error(tmp_path, capsys, command, obj, extra, error):
    code, out = run_cli(capsys, command, _write(tmp_path, "in.json", obj), *extra)
    assert code == 1
    doc = json.loads(out)
    assert doc["command"] == command
    assert doc["error"]["type"] == error


@pytest.mark.parametrize("spaced, joined", [
    (("sink", "--eps", "---+", "--start", "-+++"), ("sink", "--eps=---+", "--start=-+++")),
    (("certify", "--eps", "---+"), ("certify", "--eps=---+")),
    (("sphere", "--eps", "---+", "--count", "3"), ("sphere", "--eps=---+", "--count", "3")),
])
def test_sign_vector_after_a_space(tmp_path, capsys, spaced, joined):
    f = write_generic4(tmp_path)
    outs = [run_cli(capsys, argv[0], f, *argv[1:]) for argv in (spaced, joined)]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def _run_module(*argv, timeout=None):
    """`python *argv` in a child that imports the hyparr package under test."""
    env = dict(os.environ)
    pkg_parent = str(Path(hyparr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=timeout)


def _union(na, nb, dim):
    """generic(na, dim) united with generic(nb, dim), or with the plane
    x_1 + ... + x_dim = 0 when nb is 1, by `catalog.generic_union` from
    catalog seed 2024; returns the arrangement and its witness sign vector."""
    A = catalog.generic(na, dim, 2024)
    B = (Arrangement.from_forms(dim, [[1] * dim]) if nb == 1
         else catalog.generic(nb, dim, 2025))
    return catalog.generic_union(A, B, 2026)


def test_sphere_in_dimension_6(tmp_path):
    U, eps = _union(7, 1, 6)
    f = _write(tmp_path, "union6.json", arrangement_to_obj(U))
    r = _run_module("-m", "hyparr.cli", "sphere", f, f"--eps={eps}", "--count=2", timeout=60)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["payload"]["verified"] is True


def test_witnesses_past_the_int_printing_limit(tmp_path, capsys):
    # the witnesses of these forms print with more than 4300 digits
    forms = [["1e-999", "-2", "1e-999"], ["1e-999", "1e-999", "1e999"],
             ["-1e999", "1e999", "1"], ["1e-999", "1", "1"], ["3", "1", "1e-999"]]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run_cli(capsys, "chambers", _write(tmp_path, "big.json", {"dim": 3, "forms": forms}))
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 22
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_lattice_checks_stay_on_under_optimize(tmp_path):
    f = write_cx2(tmp_path)
    runs = [_run_module(*opt, "-m", "hyparr.cli", "lattice", f) for opt in ((), ("-O",))]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("command", ["sigma", "obstruct", "chambers"])
def test_fault_rows_never_give_a_wrong_count(tmp_path, command):
    A = Arrangement.from_forms(4, FAULT8_FORMS)
    f = _write(tmp_path, "fault8.json", arrangement_to_obj(A))
    oracle = chamber_count_oracle(build_lattice(A))
    assert oracle == 116
    for opt in ((), ("-O",)):
        r = _run_module(*opt, "-m", "hyparr.cli", command, f)
        assert r.returncode == 0, r.stdout + r.stderr
        pay = json.loads(r.stdout)["payload"]
        count = pay["count"] if command == "chambers" else pay["counts"][-1]["count"]
        assert count == oracle


# sha256 of stdout on the files `hyparr builtin` prints, and on the unions
# `_union` draws.  The chambers, sink, certify and generic4 sphere pins were
# taken before the kernel's two elimination loops became one and cover
# witnesses, walls, flows and deep points; the sigma and cx2 obstruct pins
# were taken before every Sigma level became one `sigma` search and cover
# counts, sets and gap witnesses; the union sphere pins were taken while the
# deep point still came from Fourier-Motzkin on the 2^dim cross-polytope rows.
# The generic4 obstruct pin was re-taken when the upper witnesses became sums
# of localized cocircuits: only witness coordinates moved.  The sink witness,
# the certify dual and the sigma duals came out byte-identical from the
# lattice's cocircuits and circuits.
OUTPUT_SHA256 = {
    ("generic4", "chambers"): "aa30a421085a2a7072e810746f87bddd62b7f0a8881fc2bd013ad72aeae415cd",
    ("cx2", "chambers"): "af8c7921229519fc998e6aa0be05b4a1268acc37f770c610430cd354cb3c3f88",
    ("generic4", "sink", "--eps=+++-"):
        "5ebc63043a3280261ac2e6bfc44806a2eb207551affedbed3efa7094e090e21a",
    ("generic4", "certify", "--eps=+++-"):
        "2b0923e24854e9c0d92a520814c970e225c5ab03d54485e2b0c322653f96d873",
    ("generic4", "sphere", "--eps=+++-", "--count", "4"):
        "c1fb07e9805037dc6aaf13e48a7cc42acffa6c29c3c71ba63404c59e84a9ac3a",
    ("generic4", "sigma"): "e2becee0cdbaea908ec0542130abdd6c6f537590ea017a0978612953db3fcfc6",
    ("cx2", "sigma"): "ac62eabf9fcfb191301e7ea5c8728bdc568c5524d3adbdbded213f6764a5279a",
    ("generic4", "sigma", "--k=3"):
        "aac6f2f47435b42122bf8958058d19f303757b1537ae7178fd21552346b980e9",
    ("generic4", "obstruct"): "697f88758db407e2f5b07f8954d67d08725f9f4fdb4e52c90bd3ac5702f9b02e",
    ("cx2", "obstruct"): "87fd95c502cd1001db7826eaae9800184641272f5191af6328d1e06d2fc128a3",
    ("union(5,4;4)", "sphere", "--eps=+++-+-+++", "--count=4"):
        "b22178ba89891c452396a213d62649c7e58341943120ea5aefad94959ff8447e",
    ("union(6,1;5)", "sphere", "--eps=++++-+-", "--count=2"):
        "4985a3de764289995aec9d0bcb3dec5fd6eea29c6d46f1544963e4bae181de5d",
}
PINNED_INPUTS = {
    "generic4": catalog.generic4,
    "cx2": catalog.x2_coned,
    "union(5,4;4)": lambda: _union(5, 4, 4)[0],
    "union(6,1;5)": lambda: _union(6, 1, 5)[0],
}


def _pin_id(run):
    name, command, *flags = run
    return "-".join([name, command] + [f"k{f[4:]}" for f in flags if f.startswith("--k=")])


@pytest.mark.parametrize("run", sorted(OUTPUT_SHA256), ids=_pin_id)
def test_output_bytes_are_pinned(run, tmp_path):
    name, command, *flags = run
    A = PINNED_INPUTS[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(arrangement_to_obj(A), indent=2) + "\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([command, str(path), *flags]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == OUTPUT_SHA256[run]
