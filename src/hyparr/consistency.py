"""Consistency of half-space systems at flats and the Sigma filtration.

Sigma_k holds the sign vectors whose chosen half-spaces are consistent at
every flat of codimension at most k.  Every tope is the composition of the
cocircuits that conform to it (Bjorner, Las Vergnas, Sturmfels, White and
Ziegler, Oriented Matroids, 1999, ch. 3-4).  So eps is consistent at a flat
Y iff the cocircuits of A_Y that conform to eps are, together, nonzero on
every form of Y; their sum is then a strict witness, checked by an exact
integer sign test.  `Lattice.witness` sums and checks the lines that
`Lattice.conforming` reads from Y's table, the AND of the columns of Y's
forms picked by eps's signs, or, once Y's topes are searched, reads the
sum that the search checked (negated for the '-' half); `witness_at` asks
it for eps at Y.
Otherwise, by Gordan's alternative, the rows of A_Y signed by eps have a
nonnegative dependency, and every dependency is a conformal sum of
circuits (Rockafellar 1969, elementary vectors; ibid., ch. 3): eps matches
a circuit inside A_Y.  The first one in lexicographic order is found by
the signs of its cofactors (`Lattice.first_circuit`), and its dependency,
checked in integers, is Gordan's dual.

The same cocircuits give the topes of every localization
(`Lattice.tope_lines`): one search over the columns that the table stores
for the forms of Y, walked for the topes that are '+' on Y's first form and
mirrored for the rest, checked by a witness per leaf, the sum of its lines'
directions, and by the chamber count of A_Y (Zaslavsky).  Sigma_dim is
the tope set of A.  Below it, eps is in Sigma_k iff at every flat Y of
codim at most k its signs on the forms of Y are a tope of A_Y, and only the
connected flats need asking: when A_Y is the product of the localizations
at two lower flats, consistency at those implies it at Y, and that happens
exactly when Crapo's beta of Y is 0 (Crapo 1967).  One depth-first sign
assignment labels each leaf with its level, the codim of the smallest
connected flat where its signs are no local tope, minus 1; each prefix is
checked at every form of such a flat against the prefixes of its local
topes.  The local tope sets are closed under negation, so -eps has the
level of eps, and the search walks only the sign vectors that start with
'+'.  No solver runs, and the search builds no circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter

from .arrangement import Arrangement, SignVector, primitive_rows
from .errors import InternalError, TooLarge, UnknownFlat
from .feasibility import FeasibilityResult
from .lattice import Circuit, Flat, Lattice, build_lattice
from .linalg import RatVector

DEFAULT_ENUM_LIMIT = 22
REPORT_SET_LIMIT = 16


def _check_dual(rows, eps, circuit: Circuit) -> None:
    S, c = circuit
    if 0 in c or any(sum(abs(c_t) * eps[i] * rows[i][j] for c_t, i in zip(c, S))
                     for j in range(len(rows[0]))):
        raise InternalError(f"{c} is not a dual certificate of {SignVector(tuple(eps))} "
                            f"on the forms {[i + 1 for i in S]}")


def witness_at(lat: Lattice, eps: SignVector, Y: Flat) -> list[int] | None:
    """The sum of the cocircuits of A_Y that conform to eps, checked to be
    strictly on eps's side of every form of Y (`Lattice.witness`); None
    when those cocircuits all vanish on some form of Y, so that eps is no
    tope of A_Y."""
    return lat.witness(Y, tuple(map(eps.signs.__getitem__, Y.key())))


def _matched_circuit(lat: Lattice, eps, X: Flat) -> Circuit | None:
    """The first circuit spanning X whose signs eps takes up to global sign,
    with its dual checked; None when there is none."""
    circuit = lat.first_circuit(X, eps.signs)
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
    failure = _first_failure(lat, eps, lat.below(X) + (X,))
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


def _local_tables(lat: Lattice, k: int) -> dict[int, list]:
    """Per index i, for every connected flat Y of codim at most k (k < dim)
    that holds form i, by codim: (codim Y - 1, the getter of the forms of Y
    up to i, the prefixes there of the local topes of Y), left out where
    those prefixes take every pattern (always at Y's first form, since the
    topes come in opposite pairs)."""
    tables: dict[int, list] = {}
    for Y in lat.flats:
        if Y.codim > k:
            break
        if len(Y.contains) > Y.codim and lat.beta(Y):
            key, topes = Y.key(), lat.tope_lines(Y)
            for j, i in enumerate(key, 1):
                allowed = frozenset(t[:j] for t in topes)
                if len(allowed) < 2 ** j:
                    tables.setdefault(i, []).append((Y.codim - 1, itemgetter(*key[:j]), allowed))
    return tables


class _SigmaSearch:
    """Depth-first sign assignment over n positions, '+' first.  Each prefix
    carries its level: the codim of the smallest connected flat where its
    signs are no prefix of a local tope, minus 1, checked at every form of
    the flat, and n + 1 (at least dim) while there is none.  A branch dies
    when its level drops below the floor.  Every local tope set is closed
    under negation, so -eps has the level of eps: the search walks from '+'
    at position 0 and the '-' half is that half reversed and negated."""

    def __init__(self, n: int, tables: dict[int, list], floor: int):
        self.n = n
        self.floor = floor
        self.entries = [tables.get(i, ()) for i in range(n)]  # by position

    def run(self) -> list[tuple[SignVector, int]]:
        if self.entries[0]:
            raise InternalError("a local tope set takes one sign alone at form 1, "
                                "so it is not closed under negation")
        half: list[tuple[SignVector, int]] = []
        self._extend([1], self.n + 1, half)
        return half + [(-eps, level) for eps, level in reversed(half)]

    def _extend(self, signs: list[int], level: int, out: list) -> None:
        if len(signs) == self.n:
            out.append((SignVector(tuple(signs)), level))
            return
        entries = self.entries[len(signs)]
        for s in (1, -1):
            signs.append(s)
            lowered = level
            for to, get, allowed in entries:  # by codim: stop at the level or at a failure
                if to >= level:
                    break
                if get(signs) not in allowed:
                    lowered = to
                    break
            if lowered >= self.floor:
                self._extend(signs, lowered, out)
            signs.pop()


def sigma(A: Arrangement, k: int, limit: int | None = None) -> tuple[SignVector, ...]:
    """The exact set Sigma_k, lexicographically ordered ('+' < '-'): the
    topes for k = dim, and otherwise the sign vectors whose signs on every
    connected flat of codim at most k are a local tope there."""
    if not 1 <= k <= A.dim:
        raise ValueError(f"k must be in 1..{A.dim}")
    limit = DEFAULT_ENUM_LIMIT if limit is None else limit
    if A.n > limit:
        raise TooLarge(f"{A.n} hyperplanes exceed the enumeration limit {limit}; "
                       "raise it with --limit")
    lat = build_lattice(A)
    if k == A.dim:
        return lat.topes()
    return tuple(eps for eps, _ in _SigmaSearch(A.n, _local_tables(lat, k), k).run())


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
    from the local topes of the connected flats of codim d; when it numbers
    the topes, every higher level equals it.  Otherwise one search against
    the local topes of every connected flat below the top labels every
    member of Sigma_d with its level, and a leaf of level dim - 1 or more is
    at level dim iff it is a tope.
    The witness of a drop at k is the first sign vector of level k (for
    k = d - 1, the first that Sigma_d skips), with its first failing flat.
    """
    n, dim = A.n, A.dim
    topes = sigma(A, dim, limit)
    lat = build_lattice(A)
    d = min((X.codim for X in lat.flats if len(X.contains) > X.codim), default=dim)
    leaves = [(eps, dim) for eps in topes]
    if d < dim:
        low = _SigmaSearch(n, _local_tables(lat, d), d).run()
        if len(low) == len(topes):  # stop at Zaslavsky
            if [eps for eps, _ in low] != list(topes):
                raise InternalError(f"Sigma_{d} numbers the topes but differs from them")
        else:
            if d < dim - 1:
                low = _SigmaSearch(n, _local_tables(lat, dim - 1), d).run()
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
