"""The benchmark finds every hyparr name it looks up.

`perfbench/layers.py` wraps hyparr functions that it looks up by name, and
`perfbench/run.py` clears hyparr caches and reads the kernel's name by name.
A renamed function would break only a run of `perfbench/run.py`; this test
breaks first.
"""

import importlib
from pathlib import Path

import hyparr
from hyparr import Arrangement, StrictSystem, build_lattice, validate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_and_cache_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    run = importlib.import_module("run")
    original = hyparr._fmpure.maximin_on_cross_polytope
    A = Arrangement.from_forms(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]])
    run._clear_caches(hyparr)
    tracer = layers.Tracer()
    tracer.install()
    try:
        hyparr.feasibility.interior_witness(StrictSystem.of([[1, 0], [0, 1]], 2))
        validate(A)
        build_lattice(A)
    finally:
        tracer.uninstall()
    assert hyparr._fmpure.maximin_on_cross_polytope is original
    # the deep point is timed where the tracer looks for it
    assert tracer.calls["feasibility.interior"] == tracer.calls["feasibility.maximin"] == 1
    # so are the eliminations of validate and of an uncached lattice
    assert tracer.calls["linalg.rank"] > 0
    assert tracer.calls["linalg.kernel_basis"] > 0
    run._clear_caches(hyparr)
    assert run.environment(hyparr)["kernel"] == "pure"
