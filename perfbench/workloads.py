"""The benchmark's workloads: their inputs, built from a seed, and their operations.

An operation is one `hyparr` command on one input file.  Every input is an
arrangement drawn with `hyparr.catalog` from a fixed catalog seed and then
re-oriented from the run's `--seed`: each form is negated or not at random,
and the eps vector of a union follows its forms.  Re-orienting changes the
bytes the program reads, every sign vector it prints and the order in which
its sign searches meet the chambers, but not the hyperplanes: the expected
answers and the amount of work stay fixed.  Shuffling the hyperplanes as
well would change the work itself (the search order and the Fourier-Motzkin
row order), so that the spread between seeds would measure the draw and not
the code.  The same seed gives byte-identical input files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from checks import (Case, check_certify, check_chambers, check_lattice, check_obstruct,
                    check_sigma, check_sink, check_sphere)

CATALOG_SEED = 2024

# The 8-plane arrangement in R^4 on which the Fourier-Motzkin kernel reports
# the infeasible sign vector +------+ as feasible: Sigma_4 gets 117 sign
# vectors against 116 chambers, and `hyparr obstruct` dies on an assertion.
# The fault depends on the rows as given, so this input is never re-oriented.
FAULT_FORMS = ((0, 0, 2, 1), (3, 2, 0, 3), (-1, 2, 1, -1), (-1, -1, 0, 1),
               (-3, 1, -2, -1), (1, -2, -3, 2), (2, 1, -1, -1), (-1, -3, 3, -2))


@dataclass(frozen=True)
class Op:
    command: str
    case: str
    flags: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join((self.command, self.case) + self.flags)

    def argv(self, path: Path) -> list[str]:
        return [self.command, str(path), *self.flags]

    def check(self, case: Case, doc: dict) -> None:
        if self.command == "sphere":
            check_sphere(case, doc, SPHERE_COUNTS[case.dim])
            return
        CHECKS[self.command](case, doc)


CHECKS = {
    "lattice": check_lattice,
    "sigma": check_sigma,
    "obstruct": check_obstruct,
    "chambers": check_chambers,
    "sink": check_sink,
    "certify": check_certify,
}


def _drawn(name: str):
    """(arrangement, family, eps) of one named input, before re-orienting.

    Names: generic(n,dim), braid(m), generic4, cx2, fault8, and
    union(na,nb;dim) for generic(na,dim) united by `catalog.generic_union`
    with generic(nb,dim), or with the plane x_1 + ... + x_dim = 0 when nb
    is 1; eps is the verified locally consistent, globally inconsistent
    sign vector that `generic_union` returns.
    """
    from hyparr import catalog
    from hyparr.arrangement import Arrangement

    kind, _, args = name.partition("(")
    if kind == "generic":
        n, dim = (int(v) for v in args[:-1].split(","))
        return catalog.generic(n, dim, CATALOG_SEED), ("generic", n, dim), None
    if kind == "braid":
        m = int(args[:-1])
        return catalog.braid(m), ("braid", m), None
    if kind == "union":
        sizes, dim = args[:-1].split(";")
        na, nb = (int(v) for v in sizes.split(","))
        dim = int(dim)
        A = catalog.generic(na, dim, CATALOG_SEED)
        B = (Arrangement.from_forms(dim, [[1] * dim]) if nb == 1
             else catalog.generic(nb, dim, CATALOG_SEED + 1))
        union, eps = catalog.generic_union(A, B, CATALOG_SEED + 2)
        return union, ("whitney",), str(eps)
    if name == "generic4":
        return catalog.generic4(), ("generic", 4, 3), None
    if name == "cx2":
        return catalog.x2_coned(), ("whitney",), None
    if name == "fault8":
        return Arrangement.from_forms(4, FAULT_FORMS), ("whitney",), None
    raise ValueError(f"unknown input {name!r}")


def reorient(arrangement, eps: str | None, rng: random.Random):
    """The arrangement with each form negated at random, and eps carried along."""
    from hyparr.arrangement import Arrangement

    flips = [rng.choice((1, -1)) for _ in range(arrangement.n)]
    forms = [[x * f for x in h.form] for h, f in zip(arrangement.hyperplanes, flips)]
    labels = [("-" if f < 0 else "") + h.label for h, f in zip(arrangement.hyperplanes, flips)]
    out = Arrangement.from_forms(arrangement.dim, forms, labels)
    if eps is None:
        return out, None
    return out, "".join("+" if (e == "+") == (f > 0) else "-" for e, f in zip(eps, flips))


# Inputs of each workload, and the sphere sample count of each union.
INPUTS = {
    "lattice-build": ("generic(12,4)", "generic(16,4)", "generic(20,4)", "generic(9,5)",
                      "braid(6)", "cx2"),
    "sigma-obstruct": ("generic(10,4)", "generic(9,5)", "braid(5)", "cx2", "generic4",
                       "union(4,4;3)", "union(5,4;4)", "fault8"),
    "chambers-sphere": ("union(5,3;3)", "union(5,4;4)", "union(6,1;5)", "generic(8,4)",
                        "braid(5)"),
}
WORKLOADS = tuple(INPUTS)
SPHERE_COUNTS = {3: 8, 4: 4, 5: 2}
SPHERE_SEED = 2024


def operations(name: str, cases: dict[str, Case]) -> list[Op]:
    if name == "lattice-build":
        return [Op("lattice", c) for c in cases]
    if name == "sigma-obstruct":
        ops = [Op(cmd, c) for c in cases if c != "fault8" for cmd in ("sigma", "obstruct")]
        return ops + [Op("obstruct", "fault8")]
    ops = []
    for c, case in cases.items():
        ops.append(Op("chambers", c))
        if case.eps is not None:
            eps = f"--eps={case.eps}"  # one token: eps may begin with '-'
            count = SPHERE_COUNTS[case.dim]
            ops += [Op("sink", c, (eps,)), Op("certify", c, (eps,)),
                    Op("sphere", c, (eps, f"--count={count}", f"--seed={SPHERE_SEED}"))]
    return ops


def write_inputs(name: str, seed: int, directory: Path) -> dict[str, Case]:
    """Draw, re-orient and write one JSON file per input of the workload."""
    from hyparr.arrangement import arrangement_to_obj

    cases = {}
    for case_name in INPUTS[name]:
        arrangement, family, eps = _drawn(case_name)
        if case_name != "fault8":
            rng = random.Random(f"{name}/{case_name}/{seed}")
            arrangement, eps = reorient(arrangement, eps, rng)
        obj = arrangement_to_obj(arrangement)
        data = (json.dumps(obj, indent=2) + "\n").encode()
        input_path(directory, case_name).write_bytes(data)
        forms = tuple(tuple(Fraction(x) for x in row) for row in obj["forms"])
        cases[case_name] = Case(case_name, obj["dim"], forms, family, eps, data)
    return cases


def input_path(directory: Path, case_name: str) -> Path:
    return directory / ("".join(ch if ch.isalnum() else "_" for ch in case_name) + ".json")
