"""Consistency of half-space systems at flats and the Sigma filtration.

Sigma_k holds the sign vectors whose chosen half-spaces are consistent at
every flat of codimension at most k.  By Gordan's alternative, eps fails at X
iff the rows of A_X, signed by eps, have a nonnegative dependency, and every
dependency is a conformal sum of circuits (Rockafellar 1969, elementary
vectors; Bjorner, Las Vergnas, Sturmfels, White and Ziegler, Oriented
Matroids, 1999, ch. 3).  A circuit of size s spans a flat of codimension
s - 1, so eps is in Sigma_k iff it agrees, up to global sign, with no signed
circuit of size at most k + 1.  Sets are enumerated by depth-first sign
assignment against the lattice's table of circuits; no solver runs.  Each
circuit's dependency is checked when it is built.  The search is checked by
two counts: at every dependent flat X of codimension at most k below the
top, the patterns on A_X that avoid its circuits number the chambers of A_X
(Zaslavsky), and Sigma_dim numbers the chambers of A.

Single sign vectors are decided from the lattice's tables as well.  Every
tope is the composition of the cocircuits that conform to it (ibid.,
ch. 3-4), so eps is consistent at a flat Y iff the cocircuits of A_Y that
conform to eps are, together, nonzero on every form of Y; their sum is then
a strict witness, checked by an exact integer sign test.  Otherwise eps
matches a circuit inside A_Y, whose dependency, checked in integers, is
Gordan's dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, zip_longest
from operator import itemgetter, mul

from .arrangement import Arrangement, SignVector, primitive_rows
from .errors import InternalError, TooLarge, UnknownFlat
from .feasibility import FeasibilityResult, signed_system, strict_feasible
from .lattice import Circuit, Flat, Lattice, build_lattice, chamber_count_oracle
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


def witness_at(lat: Lattice, eps, Y: Flat) -> list[int] | None:
    """The sum of the cocircuits of A_Y that conform to eps, checked to be
    strictly on eps's side of every form of Y; None when those cocircuits
    all vanish on some form of Y, so that eps is no tope of A_Y."""
    plus = sum(1 << i for i, s in enumerate(getattr(eps, "signs", eps)) if s > 0)
    w = [0] * lat.arrangement.dim
    covered = 0
    for v, pos, neg in lat.cocircuits(Y):
        if not (pos & ~plus or neg & plus):
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


def _first_failure(lat: Lattice, eps, max_codim: int) -> tuple[Flat, Circuit] | None:
    """The first flat of codim at most max_codim, by codim and then key, at
    which eps is inconsistent, with the circuit that it matches there; None
    when eps is consistent at all of them.  Flats below a first failing one
    pass, so one of its matched circuits spans it."""
    for Y in lat.flats:
        if Y.codim > max_codim:
            break
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
    lat = build_lattice(A)
    w = witness_at(lat, eps, lat.top)
    if w is not None:
        return FeasibilityResult(RatVector.of(w), None)
    failure = _first_failure(lat, eps, A.dim)
    if failure is None:
        raise InternalError(f"{eps} fails the tope test but at no flat")
    return FeasibilityResult(None, _dual(A, failure[1], range(A.n)))


def is_globally_consistent(A: Arrangement, eps: SignVector) -> bool:
    return global_consistency(A, eps).feasible


def consistency_at(A: Arrangement, eps: SignVector, X: Flat,
                   lattice: Lattice | None = None) -> FeasibilityResult:
    """Feasibility of the subsystem over the hyperplanes containing X."""
    if lattice is not None and X.contains not in lattice.by_contains:
        raise UnknownFlat(f"flat {sorted(X.contains)} not in the lattice")
    return strict_feasible(signed_system(A, eps, sorted(X.contains)))


def is_consistent_at(A: Arrangement, eps: SignVector, X: Flat,
                     lattice: Lattice | None = None) -> bool:
    return consistency_at(A, eps, X, lattice).feasible


def is_locally_consistent(A: Arrangement, eps: SignVector,
                          lattice: Lattice | None = None) -> bool:
    """Consistent at every flat except the origin: each dependent proper
    flat, by codim, gets a checked witness from `witness_at`, and a "no"
    comes with a checked circuit that spans the first failing flat."""
    lat = lattice or build_lattice(A)
    return _first_failure(lat, eps, A.dim - 1) is None


def _circuits_by_last(lat: Lattice, k: int) -> dict[int, list[Circuit]]:
    """The lattice's circuits of size 3..k+1, keyed by their largest index."""
    by_last: dict[int, list[Circuit]] = {}
    for X in lat.flats:
        if X.codim > k:
            break
        for S, c in lat.circuits(X):
            by_last.setdefault(S[-1], []).append((S, c))
    return by_last


def lex_smallest_tope(lat: Lattice) -> SignVector:
    """One greedy pass over the circuits; '+' is preferred at every index.

    At index i the sign stays '+' unless the signs so far match a circuit
    whose largest index is i, up to global sign; that circuit's dependency is
    checked as the dual of '+'.  The signs so far then match no circuit, so
    they form a tope of the first i + 1 forms, and every tope of those forms
    extends to a tope of A: the pass never backtracks.
    """
    by_last = _circuits_by_last(lat, lat.arrangement.dim)
    signs: list[int] = []
    for i in range(lat.arrangement.n):
        signs.append(1)
        circuit = next((sc for sc in by_last.get(i, ()) if _matches(signs, sc)), None)
        if circuit is not None:
            _check_dual(primitive_rows(lat.arrangement), signs, circuit)
            signs[-1] = -1
    return SignVector(tuple(signs))


class _SigmaSearch:
    """Depth-first sign assignment over n positions.  A branch dies when its
    signs on some circuit's support equal that circuit's pattern or its
    negation, checked at the circuit's largest index."""

    def __init__(self, n: int, by_last: dict[int, list[Circuit]]):
        self.n = n
        self.by_last = {i: [(itemgetter(*S), _patterns(c)) for S, c in entries]
                        for i, entries in by_last.items()}

    def run(self) -> list[SignVector]:
        out: list[SignVector] = []
        self._extend([], out)
        return out

    def _extend(self, signs: list[int], out: list[SignVector]) -> None:
        if len(signs) == self.n:
            out.append(SignVector(tuple(signs)))
            return
        for s in (1, -1):
            signs.append(s)
            if not any(get(signs) in patterns
                       for get, patterns in self.by_last.get(len(signs) - 1, ())):
                self._extend(signs, out)
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
    count = len(_SigmaSearch(len(pos), local).run())
    expected = sum(abs(lat.mu(Y)) for Y in lat.flats if Y.contains <= X.contains)
    if count != expected:
        raise InternalError(f"{count} sign patterns avoid the circuits at flat "
                            f"{sorted(X.contains)}, but Zaslavsky counts {expected} chambers")


def sigma(A: Arrangement, k: int, lattice: Lattice | None = None,
          limit: int | None = None) -> tuple[SignVector, ...]:
    """The exact set Sigma_k, lexicographically ordered ('+' < '-')."""
    if not 1 <= k <= A.dim:
        raise ValueError(f"k must be in 1..{A.dim}")
    limit = DEFAULT_ENUM_LIMIT if limit is None else limit
    if A.n > limit:
        raise TooLarge(f"{A.n} hyperplanes exceed the enumeration limit {limit}")
    lat = lattice or build_lattice(A)
    circuits = _circuits_by_last(lat, k)
    for X in lat.flats:
        if 2 <= X.codim <= min(k, A.dim - 1) and len(X.contains) > X.codim:
            _check_local_count(lat, X, circuits)
    out = tuple(_SigmaSearch(A.n, circuits).run())
    if k == A.dim and len(out) != chamber_count_oracle(lat):
        raise InternalError(f"Sigma_{k} has {len(out)} sign vectors, but Zaslavsky "
                            f"counts {chamber_count_oracle(lat)} chambers")
    return out


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

    def has_gap_at(self, k: int) -> bool:
        return k in self.witnesses


def _gap_witness(A, lat, k, eps: SignVector) -> GapWitness:
    """The lexicographically smallest span of a circuit of size k + 2 that
    eps matches, with that circuit's checked dependency as the dual.  eps is
    in Sigma_k, so its failing flats of codim k + 1 are exactly those spans."""
    for X in sorted(lat.flats_of_codim(k + 1), key=lambda f: f.key()):
        circuit = _matched_circuit(lat, eps, X)
        if circuit is not None:
            return GapWitness(k, eps, X, _dual(A, circuit, sorted(X.contains)))
    raise InternalError(f"{eps} left Sigma_{k + 1} but no flat of codim {k + 1} fails")


def sigma_filtration(A: Arrangement, lattice: Lattice | None = None,
                     limit: int | None = None,
                     include_sets: bool | None = None) -> SigmaFiltration:
    """Counts of every Sigma_k, plus a witness for each strict drop.

    Explicit sorted sets are included when include_sets is true, or by
    default when n <= REPORT_SET_LIMIT.  Every level k >= 2 is one `sigma`
    search.
    """
    limit = DEFAULT_ENUM_LIMIT if limit is None else limit
    if A.n > limit:
        raise TooLarge(f"{A.n} hyperplanes exceed the enumeration limit {limit}")
    lat = lattice or build_lattice(A)
    n, dim = A.n, A.dim
    if include_sets is None:
        include_sets = n <= REPORT_SET_LIMIT

    counts = {1: 2 ** n}
    sets: dict[int, tuple[str, ...]] = {}
    witnesses: dict[int, GapWitness] = {}
    if include_sets:
        sets[1] = tuple(map("".join, product("+-", repeat=n)))
    prev = (SignVector(p) for p in product((1, -1), repeat=n))  # Sigma_1, lazily
    for k in range(2, dim + 1):
        cur = sigma(A, k, lattice=lat, limit=limit)
        counts[k] = len(cur)
        if include_sets:
            sets[k] = tuple(map(str, cur))
        if counts[k - 1] > counts[k]:
            # both levels are sorted, so the first mismatch is the smallest
            # member of Sigma_(k-1) \ Sigma_k
            eps = next(a for a, b in zip_longest(prev, cur) if a != b)
            witnesses[k - 1] = _gap_witness(A, lat, k - 1, eps)
        prev = cur

    if any(counts[k] < counts[k + 1] for k in range(1, dim)):
        raise InternalError(f"Sigma counts {counts} are not decreasing")
    return SigmaFiltration(n, dim, counts, sets, witnesses)
