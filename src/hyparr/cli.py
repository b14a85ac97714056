"""Command-line front end.

Every report-producing subcommand prints one JSON document:

    {"command": ..., "input_digest": "sha256:...", "payload": {...},
     "certificates": [...]}

with rationals as strings, hyperplane indices 1-based, and fields in a fixed
order, so identical inputs and flags yield byte-identical output.  `builtin`
and `cone` print a bare arrangement object that the other subcommands read
back.  Exit codes: 0 success, 1 domain error or failed internal check
(structured JSON on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import catalog
from .arrangement import (Arrangement, SignVector, affine_from_obj,
                          affine_to_obj, arrangement_from_obj, arrangement_to_obj,
                          cone, validate)
from .chambers import (all_sinks, chamber_from_signs, enumerate_chambers,
                       flow_to_sink, lex_smallest_chamber)
from .consistency import (REPORT_SET_LIMIT, global_consistency, sigma_filtration,
                          sigma_strings_parallel)
from .errors import HyparrError
from .lattice import build_lattice, chamber_count_oracle, characteristic_polynomial
from .obstruction import certify_nontrivial_sphere, detect_obstruction, sample_sphere_points

DEFAULT_SEED = 2024
DEFAULT_LIMIT = 22


def _seed_default() -> int:
    env = os.environ.get("HYPARR_SEED")
    return int(env) if env else DEFAULT_SEED


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _vec(v) -> list[str]:
    return [str(Fraction(x)) for x in v]


def _ones(indices) -> list[int]:
    return [i + 1 for i in sorted(indices)]


def _flat_obj(X) -> dict:
    return {
        "contains": _ones(X.contains),
        "codim": X.codim,
        "kernel": [_vec(r) for r in X.kernel.rows],
    }


class _Certs:
    """Collects certificate objects; payload entries reference them by id.

    The payload field names the certificate kind: {"witness": [...]} for a
    strict interior point, {"dual": [...]} for a vanishing nonnegative
    combination, {"monodromy": {...}} for rotation data.
    """

    def __init__(self):
        self.items: list[dict] = []

    def add(self, **data) -> str:
        cid = f"c{len(self.items)}"
        obj = {"id": cid}
        obj.update(data)
        self.items.append(obj)
        return cid

    def witness(self, point) -> str:
        return self.add(witness=_vec(point))

    def dual(self, coeffs) -> str:
        return self.add(dual=_vec(coeffs))


def _emit(command: str, digest: str, payload: dict, certs: _Certs) -> None:
    doc = {
        "command": command,
        "input_digest": digest,
        "payload": payload,
        "certificates": certs.items,
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _read_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise HyparrError(f"input holds a JSON {type(obj).__name__}, not an object")
    return obj


def _load(path: str) -> tuple[Arrangement, str]:
    obj = _read_object(path)
    if "constants" in obj:
        raise HyparrError("input is an affine arrangement; run `cone` first")
    return validate(arrangement_from_obj(obj)), _digest_file(path)


def _signs(A: Arrangement, text: str, name: str) -> SignVector:
    signs = SignVector.from_string(text)
    if len(signs) != A.n:
        raise HyparrError(f"{name} has length {len(signs)}, expected {A.n}")
    return signs


def _cmd_validate(args) -> None:
    A, digest = _load(args.file)
    payload = {"valid": True, "dim": A.dim, "n": A.n, "labels": list(A.labels)}
    _emit("validate", digest, payload, _Certs())


def _cmd_lattice(args) -> None:
    A, digest = _load(args.file)
    L = build_lattice(A)
    flats = sorted(L.flats, key=lambda f: (f.codim, f.key()))
    payload = {
        "flats": [dict(_flat_obj(X), mu=L.mu(X)) for X in flats],
        "characteristic_polynomial": list(reversed(characteristic_polynomial(L))),
        "zaslavsky_chambers": chamber_count_oracle(L),
    }
    _emit("lattice", digest, payload, _Certs())


def _cmd_chambers(args) -> None:
    A, digest = _load(args.file)
    certs = _Certs()
    if args.jobs > 1:
        signs = sigma_strings_parallel(A, A.dim, args.jobs, limit=args.limit)
        chambers = [chamber_from_signs(A, SignVector.from_string(s)) for s in signs]
    else:
        chambers = list(enumerate_chambers(A, limit=args.limit))
    payload = {
        "count": len(chambers),
        "zaslavsky_chambers": chamber_count_oracle(build_lattice(A)),
        "chambers": [{
            "signs": str(C.signs),
            "walls": _ones(C.walls),
            "certificate": certs.witness(C.witness),
        } for C in chambers],
    }
    _emit("chambers", digest, payload, certs)


def _cmd_sigma(args) -> None:
    A, digest = _load(args.file)
    certs = _Certs()
    if args.k is not None:
        strings = sigma_strings_parallel(A, args.k, args.jobs, limit=args.limit)
        payload = {
            "k": args.k,
            "count": len(strings),
        }
        if args.full_sets or A.n <= REPORT_SET_LIMIT:
            payload["set"] = strings
        _emit("sigma", digest, payload, certs)
        return
    filt = sigma_filtration(A, limit=args.limit,
                            include_sets=args.full_sets or None, jobs=args.jobs)
    witnesses = []
    for k in sorted(filt.witnesses):
        w = filt.witnesses[k]
        witnesses.append({
            "k": k,
            "eps": str(w.eps),
            "flat": _flat_obj(w.flat),
            "certificate": certs.dual(w.dual),
        })
    payload = {
        "counts": [{"k": k, "count": filt.counts[k]} for k in sorted(filt.counts)],
        "witnesses": witnesses,
    }
    if filt.sets:
        payload["sets"] = {str(k): list(v) for k, v in sorted(filt.sets.items())}
    _emit("sigma", digest, payload, certs)


def _cmd_obstruct(args) -> None:
    A, digest = _load(args.file)
    certs = _Certs()
    report = detect_obstruction(A, limit=args.limit, sample=args.sample,
                                seed=args.seed)
    gaps = []
    for g in report.gaps:
        gaps.append({
            "k": g.k,
            "pi_nonzero": g.k,
            "eps": str(g.eps),
            "flat": _flat_obj(g.flat),
            "dual_certificate": certs.dual(g.dual),
            "upper_witnesses": [{
                "flat": [i + 1 for i in key],
                "certificate": certs.witness(w),
            } for key, w in g.upper_witnesses],
        })
    payload = {
        "counts": [{"k": k, "count": report.counts[k]} for k in sorted(report.counts)],
        "gaps": gaps,
        "minimal_k": report.minimal_k,
        "kpi1_possible": report.kpi1_possible,
        "exhaustive": report.exhaustive,
    }
    _emit("obstruct", digest, payload, certs)


def _cmd_sink(args) -> None:
    A, digest = _load(args.file)
    certs = _Certs()
    eps = _signs(A, args.eps, "eps")
    start = (chamber_from_signs(A, _signs(A, args.start, "start"))
             if args.start else lex_smallest_chamber(A))
    path = flow_to_sink(A, eps, start)
    sinks = all_sinks(A, eps, limit=args.limit)
    payload = {
        "eps": args.eps,
        "start": str(start.signs),
        "path": [str(C.signs) for C in path.chambers],
        "crossed": [i + 1 for i in path.crossed],
        "sink": str(path.sink.signs),
        "sink_certificate": certs.witness(path.sink.witness),
        "all_sinks": [str(C.signs) for C in sinks],
    }
    _emit("sink", digest, payload, certs)


def _cmd_certify(args) -> None:
    A, digest = _load(args.file)
    certs = _Certs()
    eps = _signs(A, args.eps, "eps")
    weights = None
    if args.weights:
        weights = [Fraction(w) for w in args.weights.split(",")]
    cert = certify_nontrivial_sphere(A, eps, weights=weights)
    dual = global_consistency(A, eps).dual
    cid = certs.add(monodromy={
        "sink": str(cert.sink.signs),
        "separating": _ones(cert.separating),
        "weights": _vec(cert.weights),
        "rotation": str(cert.rotation),
    })
    payload = {
        "eps": args.eps,
        "sink": str(cert.sink.signs),
        "flow_path": [str(C.signs) for C in cert.path.chambers],
        "separating": _ones(cert.separating),
        "weights": _vec(cert.weights),
        "rotation": str(cert.rotation),
        "nonvanishing": f"1 - e^(2*pi*i*{cert.rotation}) != 0",
        "certificate": cid,
        "global_inconsistency_certificate": certs.dual(dual),
    }
    _emit("certify", digest, payload, certs)


def _cmd_sphere(args) -> None:
    A, digest = _load(args.file)
    certs = _Certs()
    eps = _signs(A, args.eps, "eps")
    points = sample_sphere_points(A, eps, args.count, seed=args.seed)
    payload = {
        "eps": args.eps,
        "count": args.count,
        "seed": args.seed,
        "verified": True,
        "points": [{"real": _vec(p.real), "imag": _vec(p.imag)} for p in points],
    }
    _emit("sphere", digest, payload, certs)


def _cmd_builtin(args) -> None:
    name = args.name
    if name == "boolean":
        A = catalog.boolean(args.l or 2)
    elif name == "generic4":
        A = catalog.generic4()
    elif name == "generic":
        if not args.n or not args.l:
            raise HyparrError("generic requires --n and --l")
        A = catalog.generic(args.n, args.l, args.seed)
    elif name == "braid":
        A = catalog.braid(args.n or 4)
    elif name == "x2":
        obj = affine_to_obj(catalog.x2_affine())
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
        return
    elif name == "cx2":
        A = catalog.x2_coned()
    else:
        raise HyparrError(f"unknown builtin {name!r}; "
                          "try boolean, generic4, generic, braid, x2, cx2")
    sys.stdout.write(json.dumps(arrangement_to_obj(A), indent=2) + "\n")


def _cmd_cone(args) -> None:
    obj = _read_object(args.file)
    if "constants" not in obj:
        raise HyparrError("cone expects an affine arrangement (with constants)")
    B = affine_from_obj(obj)
    A = cone(B)
    sys.stdout.write(json.dumps(arrangement_to_obj(A), indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyparr",
        description="Exact half-space consistency, chamber flows, and "
                    "homotopy obstruction certificates for central arrangements.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate, "check central/essential invariants")
    sp.add_argument("file")

    sp = add("lattice", _cmd_lattice, "intersection lattice with Moebius data")
    sp.add_argument("file")

    sp = add("chambers", _cmd_chambers, "enumerate chambers with walls")
    sp.add_argument("file")
    sp.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    sp.add_argument("--jobs", type=int, default=1)

    sp = add("sigma", _cmd_sigma, "Sigma filtration counts and witnesses")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--full-sets", action="store_true")
    sp.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    sp.add_argument("--jobs", type=int, default=1)

    sp = add("obstruct", _cmd_obstruct, "detect non-vanishing homotopy groups")
    sp.add_argument("file")
    sp.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    sp.add_argument("--sample", type=int, default=None)
    sp.add_argument("--seed", type=int, default=_seed_default())

    sp = add("sink", _cmd_sink, "flow from a chamber to a sink")
    sp.add_argument("file")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--start", default=None)
    sp.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

    sp = add("certify", _cmd_certify, "monodromy certificate for a witness")
    sp.add_argument("file")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--weights", default=None,
                    help="comma-separated rationals, e.g. 1/4,1/4,1/4,1/4")

    sp = add("sphere", _cmd_sphere, "sample the shifted sphere point-wise")
    sp.add_argument("file")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, default=_seed_default())

    sp = add("builtin", _cmd_builtin, "emit a catalog arrangement as JSON")
    sp.add_argument("name")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--seed", type=int, default=_seed_default())

    sp = add("cone", _cmd_cone, "cone an affine arrangement")
    sp.add_argument("file")
    return p


def _join_sign_values(argv) -> list[str]:
    """Rewrite `--eps -+++` as `--eps=-+++`, and so for `--start`: argparse
    takes a separate value that begins with '-' for an unknown option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--eps", "--start") and tok and set(tok) <= {"+", "-"}:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_sign_values(argv))
    try:
        args.fn(args)
    except (HyparrError, ValueError, OSError, json.JSONDecodeError) as exc:
        doc = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
