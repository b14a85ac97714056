"""Consistency of half-space systems at flats and the Sigma filtration.

Sigma_k holds the sign vectors whose chosen half-spaces are consistent at
every flat of codimension at most k.  By Gordan's alternative, eps fails at X
iff the rows of A_X, signed by eps, have a nonnegative dependency, and every
dependency is a conformal sum of circuits (Rockafellar 1969, elementary
vectors; Bjorner, Las Vergnas, Sturmfels, White and Ziegler, Oriented
Matroids, 1999, ch. 3).  A circuit of size s spans a flat of codimension
s - 1, so eps is in Sigma_k iff it agrees, up to global sign, with no signed
circuit of size at most k + 1.  Sets are enumerated by depth-first sign
assignment against a table of circuits; no solver runs and nothing is
memoized.  Each circuit's dependency is checked when it is built.  The
search is checked by two counts: at every dependent flat X of codimension
at most k below the top, the patterns on A_X that avoid its circuits number
the chambers of A_X (Zaslavsky), and Sigma_dim numbers the chambers of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product, zip_longest
from operator import itemgetter

from .arrangement import Arrangement, SignVector, primitive_rows
from .errors import InternalError, TooLarge, UnknownFlat
from .feasibility import FeasibilityResult, signed_system, strict_feasible
from .lattice import Flat, Lattice, build_lattice, chamber_count_oracle
from .linalg import int_kernel_basis

DEFAULT_ENUM_LIMIT = 22
REPORT_SET_LIMIT = 16


def global_consistency(A: Arrangement, eps: SignVector) -> FeasibilityResult:
    """Feasibility of the full signed system, with certificate."""
    return strict_feasible(signed_system(A, eps))


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
    """Consistent at every flat except the origin."""
    lat = lattice or build_lattice(A)
    for X in lat.flats:
        if X.codim >= A.dim:
            continue
        if len(X.contains) <= X.codim:
            continue  # independent localization, consistent for any signs
        if not is_consistent_at(A, eps, X):
            return False
    return True


def _circuits(A: Arrangement, lat: Lattice, k: int) -> dict[int, list]:
    """Signed circuits of size 3..k+1 keyed by their largest index.

    A circuit S spans its flat X = closure(S), so |S| = codim X + 1, and it
    is found once, among the (codim + 1)-subsets of A_X: those whose rows
    have a one-row integer kernel c with no zero entry.  Each entry is
    (S, (sign(c), -sign(c))); the dependency c is checked when it is built.
    """
    rows = primitive_rows(A)
    by_last: dict[int, list] = {}
    for X in lat.flats:
        if not 2 <= X.codim <= k or len(X.contains) <= X.codim:
            continue
        for S in combinations(X.key(), X.codim + 1):
            K = int_kernel_basis([[rows[i][j] for i in S] for j in range(A.dim)], len(S))
            if len(K) != 1 or 0 in K[0]:
                continue
            c = K[0]
            if any(sum(c_t * rows[i][j] for c_t, i in zip(c, S)) for j in range(A.dim)):
                raise InternalError(f"{c} is not a dependency of the forms {[i + 1 for i in S]}")
            pattern = tuple(1 if v > 0 else -1 for v in c)
            by_last.setdefault(S[-1], []).append((S, (pattern, tuple(-s for s in pattern))))
    return by_last


class _SigmaSearch:
    """Depth-first sign assignment over n positions.  A branch dies when its
    signs on some circuit's support equal that circuit's pattern or its
    negation, checked at the circuit's largest index."""

    def __init__(self, n: int, by_last: dict[int, list]):
        self.n = n
        self.by_last = {i: [(itemgetter(*S), patterns) for S, patterns in entries]
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
        for S, patterns in entries:
            if X.contains.issuperset(S):
                local.setdefault(pos[S[-1]], []).append((tuple(pos[i] for i in S), patterns))
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
    circuits = _circuits(A, lat, k)
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
    """The lexicographically smallest failing flat of codim k+1 for eps."""
    for X in sorted(lat.flats_of_codim(k + 1), key=lambda f: f.key()):
        res = consistency_at(A, eps, X)
        if not res.feasible:
            return GapWitness(k, eps, X, res.dual)
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
