"""Consistency of half-space systems at flats and the Sigma filtration.

Sigma_k holds the sign vectors whose chosen half-spaces are consistent at
every flat of codimension at most k.  By Gordan's alternative, eps fails at X
iff the rows of A_X, signed by eps, have a nonnegative dependency, and every
dependency is a conformal sum of circuits (Rockafellar 1969, elementary
vectors; Bjorner, Las Vergnas, Sturmfels, White and Ziegler, Oriented
Matroids, 1999, ch. 3).  A circuit of size s spans a flat of codimension
s - 1, so eps is in Sigma_k iff it agrees, up to global sign, with no signed
circuit of size at most k + 1: iff its level, the size of the smallest
circuit it matches minus 2, is at least k.  One depth-first sign assignment
against the lattice's circuits labels each leaf with its level; no solver
runs.  Each circuit's dependency is checked when it is built, and each
circuit table by a count: at every dependent flat X below the top, the
patterns on A_X that avoid its circuits number the chambers of A_X
(Zaslavsky).

Every tope is the composition of the cocircuits that conform to it (ibid.,
ch. 3-4).  So eps is consistent at a flat Y iff the cocircuits of A_Y that
conform to eps are, together, nonzero on every form of Y; their sum is then
a strict witness, checked by an exact integer sign test.  Otherwise eps
matches a circuit inside A_Y, whose dependency, checked in integers, is
Gordan's dual.  And since the closed region of a prefix of signs is the
cone of the lines of A that conform to it, Sigma_dim is the lattice's tope
set (`Lattice.topes`): one search over those lines, checked by a witness per
leaf and by A's chamber count, without the circuits that span the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter, mul

from .arrangement import Arrangement, SignVector, primitive_rows
from .errors import InternalError, TooLarge, UnknownFlat
from .feasibility import FeasibilityResult
from .lattice import Circuit, Cocircuit, Flat, Lattice, build_lattice
from .linalg import RatVector

DEFAULT_ENUM_LIMIT = 22
REPORT_SET_LIMIT = 16


def _check_witness(rows, eps, indices, w) -> None:
    if not all(eps[i] * sum(map(mul, rows[i], w)) > 0 for i in indices):
        raise InternalError(f"{w} is not strictly on the side {SignVector(tuple(eps))} "
                            f"of the forms {[i + 1 for i in sorted(indices)]}")


def _check_dual(rows, eps, circuit: Circuit) -> None:
    S, c = circuit
    if 0 in c or any(sum(abs(c_t) * eps[i] * rows[i][j] for c_t, i in zip(c, S))
                     for j in range(len(rows[0]))):
        raise InternalError(f"{c} is not a dual certificate of {SignVector(tuple(eps))} "
                            f"on the forms {[i + 1 for i in S]}")


def conforming(lat: Lattice, eps, Y: Flat) -> list[Cocircuit]:
    """The cocircuits of A_Y that conform to eps: zero or eps's sign on
    every form of Y."""
    plus = sum(1 << i for i, s in enumerate(getattr(eps, "signs", eps)) if s > 0)
    return [(v, pos, neg) for v, pos, neg in lat.cocircuits(Y)
            if not (pos & ~plus or neg & plus)]


def witness_at(lat: Lattice, eps, Y: Flat) -> list[int] | None:
    """The sum of the cocircuits of A_Y that conform to eps, checked to be
    strictly on eps's side of every form of Y; None when those cocircuits
    all vanish on some form of Y, so that eps is no tope of A_Y."""
    w = [0] * lat.arrangement.dim
    covered = 0
    for v, pos, neg in conforming(lat, eps, Y):
        w = [a + b for a, b in zip(w, v)]
        covered |= pos | neg
    if covered != sum(1 << i for i in Y.contains):
        return None
    _check_witness(primitive_rows(lat.arrangement), eps, Y.contains, w)
    return w


def _matches(eps, circuit: Circuit) -> bool:
    """Whether eps takes the circuit's signs, up to global sign."""
    S, c = circuit
    return len({eps[i] * c_t > 0 for c_t, i in zip(c, S)}) == 1


def _patterns(c) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two sign patterns that match the dependency c."""
    pattern = tuple(1 if v > 0 else -1 for v in c)
    return pattern, tuple(-s for s in pattern)


def _matched_circuit(lat: Lattice, eps, X: Flat) -> Circuit | None:
    """The first circuit spanning X whose signs eps takes up to global sign,
    with its dual checked; None when there is none."""
    circuit = lat.first_circuit(X, lambda sc: _matches(eps, sc))
    if circuit is not None:
        _check_dual(primitive_rows(lat.arrangement), eps, circuit)
    return circuit


def _first_failure(lat: Lattice, eps, flats) -> tuple[Flat, Circuit] | None:
    """The first of the given flats, which run by codim and then key, at
    which eps is inconsistent, with the circuit that it matches there; None
    when eps is consistent at all of them.  Flats below a first failing one
    pass, so one of its matched circuits spans it."""
    for Y in flats:
        if len(Y.contains) > Y.codim and witness_at(lat, eps, Y) is None:
            circuit = _matched_circuit(lat, eps, Y)
            if circuit is None:
                raise InternalError(f"{SignVector(tuple(eps))} fails at flat "
                                    f"{sorted(Y.contains)} but matches none of its circuits")
            return Y, circuit
    return None


def _dual(A: Arrangement, circuit: Circuit, indices) -> tuple[Fraction, ...]:
    """Gordan's dual over the given indices: |c_t| times the positive factor
    that takes form S[t] to its primitive row, and 0 off the circuit."""
    S, c = circuit
    rows = primitive_rows(A)
    y = dict(zip(S, c))
    out = []
    for i in indices:
        if i not in y:
            out.append(Fraction(0))
            continue
        j = next(j for j, a in enumerate(rows[i]) if a)
        out.append(abs(y[i]) * Fraction(rows[i][j]) / A.hyperplanes[i].form[j])
    return tuple(out)


def global_consistency(A: Arrangement, eps: SignVector) -> FeasibilityResult:
    """Feasibility of the full signed system, with certificate: the checked
    sum of the conforming cocircuits, or the checked dependency of a circuit
    that eps matches, at the first flat where eps fails."""
    return consistency_at(A, eps, build_lattice(A).top)


def is_globally_consistent(A: Arrangement, eps: SignVector) -> bool:
    return global_consistency(A, eps).feasible


def consistency_at(A: Arrangement, eps: SignVector, X: Flat) -> FeasibilityResult:
    """Feasibility of the subsystem over the hyperplanes containing X, which
    must be a flat of A's lattice (UnknownFlat otherwise): the checked
    witness of `witness_at`, or the dual, over X's forms, of the circuit
    that eps matches at its first failing flat in X's down-set or at X."""
    lat = build_lattice(A)
    if X.contains not in lat.by_contains:
        raise UnknownFlat(f"flat {sorted(X.contains)} not in the lattice")
    w = witness_at(lat, eps, X)
    if w is not None:
        return FeasibilityResult(RatVector.of(w), None)
    failure = _first_failure(lat, eps, (Y for Y in lat.flats if Y.contains <= X.contains))
    if failure is None:
        raise InternalError(f"{eps} fails the tope test at flat {sorted(X.contains)} "
                            f"but at no flat below it")
    return FeasibilityResult(None, _dual(A, failure[1], sorted(X.contains)))


def is_consistent_at(A: Arrangement, eps: SignVector, X: Flat) -> bool:
    return consistency_at(A, eps, X).feasible


def is_locally_consistent(A: Arrangement, eps: SignVector) -> bool:
    """Consistent at every flat except the origin: each dependent proper
    flat, by codim, gets a checked witness from `witness_at`, and a "no"
    comes with a checked circuit that spans the first failing flat."""
    lat = build_lattice(A)
    return _first_failure(lat, eps, lat.flats[:-1]) is None


def _circuits_by_last(lat: Lattice, k: int, checked) -> dict[int, list[Circuit]]:
    """The lattice's circuits of size 3..k+1 (k < dim), keyed by their
    largest index, each list by size, checked by the local count at every
    dependent flat whose codim is in `checked`."""
    by_last: dict[int, list[Circuit]] = {}
    for X in lat.flats:
        if X.codim > k:
            break
        for S, c in lat.circuits(X):
            by_last.setdefault(S[-1], []).append((S, c))
    for X in lat.flats:
        if X.codim in checked and len(X.contains) > X.codim:
            _check_local_count(lat, X, by_last)
    return by_last


class _SigmaSearch:
    """Depth-first sign assignment over n positions, '+' first.  Each prefix
    carries its level: the size of the smallest circuit whose pattern, or its
    negation, it takes, minus 2, checked at the circuit's largest index, and
    n + 1 (at least dim) while it takes none.  A branch dies when its level
    drops below the floor."""

    def __init__(self, n: int, by_last: dict[int, list[Circuit]], floor: int):
        self.n = n
        self.floor = floor
        self.by_last = {i: [(len(S) - 2, itemgetter(*S), _patterns(c)) for S, c in entries]
                        for i, entries in by_last.items()}

    def run(self) -> list[tuple[SignVector, int]]:
        out: list[tuple[SignVector, int]] = []
        self._extend([], self.n + 1, out)
        return out

    def _extend(self, signs: list[int], level: int, out: list) -> None:
        if len(signs) == self.n:
            out.append((SignVector(tuple(signs)), level))
            return
        circuits = self.by_last.get(len(signs), ())
        for s in (1, -1):
            signs.append(s)
            lowered = level
            for size, get, patterns in circuits:  # by size: stop at a match or at the level
                if size >= level or get(signs) in patterns:
                    lowered = min(size, level)
                    break
            if lowered >= self.floor:
                self._extend(signs, lowered, out)
            signs.pop()


def _check_local_count(lat: Lattice, X: Flat, circuits: dict[int, list]) -> None:
    """The sign patterns on A_X that avoid every circuit inside A_X must be
    exactly the chambers of A_X, counted by Zaslavsky over the flats below X.
    A missing circuit makes the count too large, unless other circuits
    already forbid its patterns, and then it changes no Sigma_k."""
    pos = {g: t for t, g in enumerate(X.key())}
    local: dict[int, list] = {}
    for entries in circuits.values():
        for S, c in entries:
            if X.contains.issuperset(S):
                local.setdefault(pos[S[-1]], []).append((tuple(pos[i] for i in S), c))
    count = len(_SigmaSearch(len(pos), local, X.codim).run())
    expected = abs(lat.mu(X)) + sum(abs(lat.mu(Y)) for Y in lat.below(X))
    if count != expected:
        raise InternalError(f"{count} sign patterns avoid the circuits at flat "
                            f"{sorted(X.contains)}, but Zaslavsky counts {expected} chambers")


def sigma(A: Arrangement, k: int, limit: int | None = None) -> tuple[SignVector, ...]:
    """The exact set Sigma_k, lexicographically ordered ('+' < '-'): the
    topes for k = dim, and otherwise the sign vectors that match no circuit
    of size at most k + 1."""
    if not 1 <= k <= A.dim:
        raise ValueError(f"k must be in 1..{A.dim}")
    limit = DEFAULT_ENUM_LIMIT if limit is None else limit
    if A.n > limit:
        raise TooLarge(f"{A.n} hyperplanes exceed the enumeration limit {limit}; "
                       "raise it with --limit")
    lat = build_lattice(A)
    if k == A.dim:
        return lat.topes()
    by_last = _circuits_by_last(lat, k, range(2, k + 1))
    return tuple(eps for eps, _ in _SigmaSearch(A.n, by_last, k).run())


@dataclass(frozen=True)
class GapWitness:
    """One element of Sigma_k \\ Sigma_{k+1} and a flat where it fails."""

    k: int
    eps: SignVector
    flat: Flat
    dual: tuple[Fraction, ...]


@dataclass(frozen=True)
class SigmaFiltration:
    n: int
    dim: int
    counts: dict[int, int]
    sets: dict[int, tuple[str, ...]]
    witnesses: dict[int, GapWitness]


def first_failing_flat(A: Arrangement, eps: SignVector) -> GapWitness | None:
    """The first flat, by codim and then key, at which eps is inconsistent,
    with the checked dual, over that flat's forms, of a circuit that eps
    matches there; None when eps is globally consistent.  When the flat has
    codim k + 1, eps is in Sigma_k but not in Sigma_(k+1)."""
    lat = build_lattice(A)
    failure = _first_failure(lat, eps, lat.flats)
    if failure is None:
        return None
    X, circuit = failure
    return GapWitness(X.codim - 1, eps, X, _dual(A, circuit, sorted(X.contains)))


def sigma_filtration(A: Arrangement, limit: int | None = None,
                     include_sets: bool | None = None) -> SigmaFiltration:
    """Counts of every Sigma_k, plus a witness for each strict drop.

    Explicit sorted sets are included when include_sets is true, or by
    default when n <= REPORT_SET_LIMIT.  Below the smallest codim d of a
    dependent flat every level holds all 2^n sign vectors.  Sigma_d comes
    from the circuits of size at most d + 1; when it numbers the topes,
    every higher level equals it.  Otherwise one search against the
    circuits below the top labels every member of Sigma_d with its level,
    and a leaf of level dim - 1 or more is at level dim iff it is a tope.
    The witness of a drop at k is the first sign vector of level k (for
    k = d - 1, the first that Sigma_d skips), with its first failing flat.
    """
    n, dim = A.n, A.dim
    topes = sigma(A, dim, limit)
    lat = build_lattice(A)
    d = min((X.codim for X in lat.flats if len(X.contains) > X.codim), default=dim)
    leaves = [(eps, dim) for eps in topes]
    if d < dim:
        low = _SigmaSearch(n, _circuits_by_last(lat, d, (d,)), d).run()
        if len(low) == len(topes):  # stop at Zaslavsky
            if [eps for eps, _ in low] != list(topes):
                raise InternalError(f"Sigma_{d} numbers the topes but differs from them")
        else:
            if d < dim - 1:
                low = _SigmaSearch(n, _circuits_by_last(lat, dim - 1, range(d + 1, dim)), d).run()
            tope_set = set(topes)
            leaves = [(eps, min(level, dim - 1 + (eps in tope_set))) for eps, level in low]
            if sum(level == dim for _, level in leaves) != len(topes):
                raise InternalError(f"a tope is no leaf of level {dim - 1} or more")
    include_sets = n <= REPORT_SET_LIMIT if include_sets is None else include_sets
    counts = dict.fromkeys(range(1, d), 2 ** n)
    everything = tuple(map("".join, product("+-", repeat=n))) if include_sets else ()
    sets = dict.fromkeys(range(1, d), everything) if include_sets else {}
    for k in range(d, dim + 1):
        members = [eps for eps, level in leaves if level >= k]
        counts[k] = len(members)
        if include_sets:
            sets[k] = tuple(map(str, members))
    firsts = {level: eps for eps, level in reversed(leaves) if level < dim}  # first wins
    if len(leaves) < 2 ** n:
        # the leaves are sorted, so the first sign vector that they skip is
        # the smallest member of Sigma_(d-1) \ Sigma_d
        signs = (eps.signs for eps, _ in leaves)
        firsts[d - 1] = SignVector(next(p for p in product((1, -1), repeat=n)
                                        if p != next(signs, None)))
    witnesses = {k: first_failing_flat(A, firsts[k]) for k in sorted(firsts)}
    if any(w is None or w.k != k for k, w in witnesses.items()):
        raise InternalError(f"the gap witnesses {firsts} fail first at other levels")
    if any(counts[k] < counts[k + 1] for k in range(1, dim)):
        raise InternalError(f"Sigma counts {counts} are not decreasing")
    return SigmaFiltration(n, dim, counts, sets, witnesses)
