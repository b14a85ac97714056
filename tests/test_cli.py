import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyparr
from hyparr import catalog
from hyparr.arrangement import arrangement_to_obj
from hyparr.cli import main


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


def test_chambers_and_jobs_independence(tmp_path, capsys):
    f = write_generic4(tmp_path)
    code1, out1 = run_cli(capsys, "chambers", f)
    code2, out2 = run_cli(capsys, "chambers", f, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
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


def test_hyparr_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYPARR_SEED", "17")
    _, out_env = run_cli(capsys, "builtin", "generic", "--n", "4", "--l", "3")
    monkeypatch.delenv("HYPARR_SEED")
    _, out_flag = run_cli(capsys, "builtin", "generic", "--n", "4", "--l", "3",
                          "--seed", "17")
    assert out_env == out_flag


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
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


def test_lattice_checks_stay_on_under_optimize(tmp_path):
    f = write_cx2(tmp_path)
    env = dict(os.environ)
    pkg_parent = str(Path(hyparr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    runs = [subprocess.run([sys.executable, *opt, "-m", "hyparr.cli", "lattice", f],
                           env=env, capture_output=True, text=True) for opt in ((), ("-O",))]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
