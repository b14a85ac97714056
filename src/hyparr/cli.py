"""Command-line front end.

Every report-producing subcommand prints one JSON document:

    {"command": ..., "input_digest": "sha256:...", "payload": {...},
     "certificates": [...]}

with rationals as strings, hyperplane indices 1-based, and fields in a fixed
order, so identical inputs and flags yield byte-identical output.  `builtin`
and `cone` print a bare arrangement object that the other subcommands read
back.  Every document, the error document included, goes through one
writer, `_json`, which returns the same text as the json module's encoder at
an indent of 2, without the pure-Python loop that the encoder falls back on
whenever it indents.  It dispatches on each value's exact type first, and
writes a list of strs alone, or of ints alone, such as a kernel row or the
indices of a flat, with one join of their texts; `_vec` writes a row of
ints and Fractions, the only exact numbers the documents hold, by `str`.
Exit codes: 0 success, 1 domain error or failed internal check (structured
JSON on stdout), 2 usage error.

Each call builds one subparser, that of the command it names, from the one
table of commands, `_COMMANDS`; a call that names none (no arguments, `-h`,
an unknown command) gets the parser of every command.  Help texts and usage
errors are the same either way.  An input file is read once: its digest is
that of the bytes parsed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii

from . import catalog
from .arrangement import (Arrangement, SignVector, affine_from_obj,
                          affine_to_obj, arrangement_from_obj, arrangement_to_obj,
                          cone, parse_rational, validate)
from .chambers import (all_sinks, chamber_from_signs, enumerate_chambers, flow_to_sink,
                       lex_smallest_chamber)
from .consistency import DEFAULT_ENUM_LIMIT, REPORT_SET_LIMIT, sigma, sigma_filtration
from .errors import HyparrError
from .lattice import build_lattice, chamber_count_oracle, characteristic_polynomial
from .obstruction import certify_nontrivial_sphere, detect_obstruction, sample_sphere_points

DEFAULT_SEED = 2024


# Python limits printing an int to 4300 digits by default (absent before
# 3.10.7).  The limit guards parsing input; an exact witness may pass it.
_get_int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)


def _vec(v) -> list[str]:
    """Exact numbers, ints and Fractions alone, as output strings, printed in
    full however long: the limit is lifted, and restored, only for a vector
    that passes it."""
    try:
        return [str(x) for x in v]  # list(map(...)) would keep 8 slots for a short row
    except ValueError:
        old = _get_int_digits()
        _set_int_digits(0)
        try:
            return [str(x) for x in v]
        finally:
            _set_int_digits(old)


def _ones(indices) -> list[int]:
    return [i + 1 for i in sorted(indices)]


def _flat_obj(X) -> dict:
    return {
        "contains": _ones(X.contains),
        "codim": X.codim,
        "kernel": [_vec(r) for r in X.kernel],
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


# the writer of each item of a list whose items all have this exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}


def _json(obj, indent: str = "\n") -> str:
    """The json module's text for obj at an indent of 2, for str-keyed
    dicts, lists, tuples, strs, ints, bools and None; TypeError on anything
    else.  Dispatch is on type(obj) first: a list whose items are all of
    type str, or all of type int (no bool), is written with one join of
    their texts, and every other list, or tuple, recursively."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if kind is list and obj:
        write = _SCALARS.get(type(obj[0]))
        if write is not None and len({*map(type, obj)}) == 1:
            return "[" + inner + ("," + inner).join(map(write, obj)) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in obj.items()])
            + indent + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + indent + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _print(obj) -> None:
    sys.stdout.write(_json(obj) + "\n")


def _emit(command: str, digest: str, payload: dict, certs: _Certs) -> None:
    doc = {
        "command": command,
        "input_digest": digest,
        "payload": payload,
        "certificates": certs.items,
    }
    _print(doc)


def _read_object(path: str) -> tuple[dict, bytes]:
    """The JSON object in the file and the bytes it was parsed from, read
    once.  They are decoded as UTF-8 with universal newlines, as a read in
    text mode would decode them, so that error positions are the same."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("input nests JSON arrays or objects too deeply") from None
    if not isinstance(obj, dict):
        raise HyparrError(f"input holds a JSON {type(obj).__name__}, not an object")
    return obj, data


def _load(path: str) -> tuple[Arrangement, str]:
    """The arrangement in the file and the sha256 of the bytes it was
    parsed from."""
    obj, data = _read_object(path)
    if "constants" in obj:
        raise HyparrError("input is an affine arrangement; run `cone` first")
    return validate(arrangement_from_obj(obj)), "sha256:" + hashlib.sha256(data).hexdigest()


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
    flats = []
    for X in L.flats:
        flat = _flat_obj(X)
        flat["mu"] = L.mu(X)  # in place: a copy of each dict costs 2/3 of building it
        flats.append(flat)
    payload = {
        "flats": flats,
        "characteristic_polynomial": list(reversed(characteristic_polynomial(L))),
        "zaslavsky_chambers": chamber_count_oracle(L),
    }
    _emit("lattice", digest, payload, _Certs())


def _cmd_chambers(args) -> None:
    A, digest = _load(args.file)
    certs = _Certs()
    chambers = enumerate_chambers(A, limit=args.limit)
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
        strings = [str(eps) for eps in sigma(A, args.k, limit=args.limit)]
        payload = {
            "k": args.k,
            "count": len(strings),
        }
        if args.full_sets or A.n <= REPORT_SET_LIMIT:
            payload["set"] = strings
        _emit("sigma", digest, payload, certs)
        return
    filt = sigma_filtration(A, limit=args.limit, include_sets=args.full_sets or None)
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
    report = detect_obstruction(A, limit=args.limit)
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
    start_signs = _signs(A, args.start, "start") if args.start else None
    sinks = all_sinks(A, eps, limit=args.limit)  # TooLarge before any other search
    start = chamber_from_signs(A, start_signs) if start_signs else lex_smallest_chamber(A)
    path = flow_to_sink(A, eps, start)
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
        weights = [parse_rational(w) for w in args.weights.split(",")]
    cert = certify_nontrivial_sphere(A, eps, weights=weights)
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
        "global_inconsistency_certificate": certs.dual(cert.dual),
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
        A = catalog.boolean(2 if args.l is None else args.l)
    elif name == "generic4":
        A = catalog.generic4()
    elif name == "generic":
        if args.n is None or args.l is None:
            raise HyparrError("generic requires --n and --l")
        A = catalog.generic(args.n, args.l, args.seed)
    elif name == "braid":
        A = catalog.braid(4 if args.n is None else args.n)
    elif name == "moment":
        if args.n is None or args.l is None:
            raise HyparrError("moment requires --n and --l")
        A = catalog.moment(args.n, args.l)
    elif name == "x2":
        obj = affine_to_obj(catalog.x2_affine())
        _print(obj)
        return
    elif name == "cx2":
        A = catalog.x2_coned()
    else:
        raise HyparrError(f"unknown builtin {name!r}; "
                          "try boolean, generic4, generic, braid, moment, x2, cx2")
    _print(arrangement_to_obj(A))


def _cmd_cone(args) -> None:
    obj, _ = _read_object(args.file)
    if "constants" not in obj:
        raise HyparrError("cone expects an affine arrangement (with constants)")
    B = affine_from_obj(obj)
    A = cone(B)
    _print(arrangement_to_obj(A))


_FILE = (("file",), {})
_LIMIT = (("--limit",), {"type": int, "default": DEFAULT_ENUM_LIMIT})
_EPS = (("--eps",), {"required": True})
_SEED = (("--seed",), {"type": int, "default": DEFAULT_SEED})

# name -> (handler, help, arguments as (names, options) for add_argument)
_COMMANDS = {
    "validate": (_cmd_validate, "check central/essential invariants", [_FILE]),
    "lattice": (_cmd_lattice, "intersection lattice with Moebius data", [_FILE]),
    "chambers": (_cmd_chambers, "enumerate chambers with walls", [_FILE, _LIMIT]),
    "sigma": (_cmd_sigma, "Sigma filtration counts and witnesses", [
        _FILE,
        (("--k",), {"type": int, "default": None}),
        (("--full-sets",), {"action": "store_true"}),
        _LIMIT]),
    "obstruct": (_cmd_obstruct, "detect non-vanishing homotopy groups", [_FILE, _LIMIT]),
    "sink": (_cmd_sink, "flow from a chamber to a sink", [
        _FILE, _EPS, (("--start",), {"default": None}), _LIMIT]),
    "certify": (_cmd_certify, "monodromy certificate for a witness", [
        _FILE, _EPS,
        (("--weights",), {"default": None,
                          "help": "comma-separated rationals, e.g. 1/4,1/4,1/4,1/4"})]),
    "sphere": (_cmd_sphere, "sample the shifted sphere point-wise", [
        _FILE, _EPS, (("--count",), {"type": int, "required": True}), _SEED]),
    "builtin": (_cmd_builtin, "emit a catalog arrangement as JSON", [
        (("name",), {}),
        (("--n",), {"type": int, "default": None}),
        (("--l",), {"type": int, "default": None}),
        _SEED]),
    "cone": (_cmd_cone, "cone an affine arrangement", [_FILE]),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv: with only the subparser of its command when
    argv starts with one, else with all of them.  The usage line names every
    command either way, so each help text and usage error is the same."""
    p = argparse.ArgumentParser(
        prog="hyparr",
        description="Exact half-space consistency, chamber flows, and "
                    "homotopy obstruction certificates for central arrangements.")
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # with one command, its usage line still lists them all, as argparse does
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        fn, help_, arguments = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        for flags, options in arguments:
            sp.add_argument(*flags, **options)
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
    argv = _join_sign_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    try:
        args.fn(args)
    except (HyparrError, ValueError, OSError, json.JSONDecodeError) as exc:
        doc = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _print(doc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
