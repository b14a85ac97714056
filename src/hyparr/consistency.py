"""Consistency of half-space systems at flats and the Sigma filtration.

Sigma_k holds the sign vectors whose chosen half-spaces are consistent at
every flat of codimension at most k.  Sets are enumerated by depth-first sign
assignment: a branch dies as soon as a fully-assigned localization of
codimension <= k is infeasible.  Localizations on independent hyperplanes
are never checked (they are consistent for any signs), and per-flat verdicts
are memoized across branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, zip_longest

from .arrangement import Arrangement, SignVector, primitive_rows
from .errors import InternalError, TooLarge, UnknownFlat
from .feasibility import FeasibilityResult, _solve_int, signed_system, strict_feasible
from .lattice import Flat, Lattice, build_lattice, chamber_count_oracle

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


def _signed_rows(rows, signs, indices):
    return tuple(tuple(signs[i] * v for v in rows[i]) for i in indices)


def _checks_by_last(lat: Lattice, max_codim: int):
    """Non-independent flats of codim 2..max_codim keyed by largest index."""
    by_last: dict[int, list[Flat]] = {}
    for X in lat.flats:
        if not (2 <= X.codim <= max_codim):
            continue
        if len(X.contains) <= X.codim:
            continue
        by_last.setdefault(max(X.contains), []).append(X)
    for v in by_last.values():
        v.sort(key=lambda f: f.key())
    return by_last


class _SigmaSearch:
    def __init__(self, A: Arrangement, lat: Lattice, k: int):
        self.A = A
        self.n = A.n
        self.dim = A.dim
        self.k = k
        self.rows = primitive_rows(A)
        self.by_last = _checks_by_last(lat, min(k, A.dim - 1))
        self.check_full = (k == A.dim)
        self.memo: dict = {}

    def flat_ok(self, X: Flat, signs) -> bool:
        idx = X.key()
        local = tuple(signs[i] for i in idx)
        key = (idx, local)
        hit = self.memo.get(key)
        if hit is None:
            kind, _ = _solve_int(_signed_rows(self.rows, signs, idx), self.dim)
            hit = kind != "dual"
            self.memo[key] = hit
        return hit

    def node_ok(self, signs) -> bool:
        i = len(signs) - 1
        for X in self.by_last.get(i, ()):
            if not self.flat_ok(X, signs):
                return False
        if self.check_full:
            kind, _ = _solve_int(_signed_rows(self.rows, signs, range(i + 1)), self.dim)
            if kind == "dual":
                return False
        return True

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
            if self.node_ok(signs):
                self._extend(signs, out)
            signs.pop()


def sigma(A: Arrangement, k: int, lattice: Lattice | None = None,
          limit: int | None = None) -> tuple[SignVector, ...]:
    """The exact set Sigma_k, lexicographically ordered ('+' < '-')."""
    if not 1 <= k <= A.dim:
        raise ValueError(f"k must be in 1..{A.dim}")
    limit = DEFAULT_ENUM_LIMIT if limit is None else limit
    if A.n > limit:
        raise TooLarge(f"{A.n} hyperplanes exceed the enumeration limit {limit}")
    return tuple(_SigmaSearch(A, lattice or build_lattice(A), k).run())


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
    if counts[dim] != chamber_count_oracle(lat):
        raise InternalError(f"Sigma_{dim} has {counts[dim]} sign vectors, but Zaslavsky "
                            f"counts {chamber_count_oracle(lat)} chambers")
    return SigmaFiltration(n, dim, counts, sets, witnesses)
