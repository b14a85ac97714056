"""Intersection lattice: flats, localizations, Moebius function, region count.

Flats are identified by their closed index set {i : X is inside H_i}; two
flats are equal iff those sets are.  Flats are built level by level from the
restriction rule (Orlik-Terao, the restriction A^X): the flats covering X
are the intersections of X with H_i for i outside X, and two of them
coincide exactly when forms i and j, restricted to X, are proportional.
Restricting every form to X's integer kernel rows therefore finds all
covers of X at once, with integer dot products and one kernel basis per
flat.  The Moebius-based region count is the independent cross-check for
the chamber enumeration elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .arrangement import Arrangement, primitive_rows
from .errors import InternalError
from .linalg import canonical_int_vector, int_kernel_basis, primitive_int_vector


def closure_of_forms(rows, dim, indices: frozenset[int]) -> frozenset[int]:
    """Indices j whose integer row vanishes on the intersection of the given ones."""
    K = int_kernel_basis([rows[i] for i in sorted(indices)], dim)
    return frozenset(j for j, r in enumerate(rows)
                     if not any(sum(map(mul, r, k)) for k in K))


@dataclass(frozen=True)
class Flat:
    """An intersection subspace with its closed index set and kernel basis.

    The kernel is the `int_kernel_basis` of the forms in `contains`: its
    dim - codim rows are primitive integer vectors, each with its first
    nonzero entry positive.
    """

    contains: frozenset[int]
    codim: int
    kernel: tuple[tuple[int, ...], ...]

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.contains))


class Lattice:
    """All flats of a central essential arrangement, with Moebius values."""

    def __init__(self, arrangement: Arrangement, flats, moebius):
        self.arrangement = arrangement
        self.flats = tuple(flats)
        self.moebius = moebius  # key() -> int
        self.by_contains = {f.contains: f for f in self.flats}

    def flats_of_codim(self, c: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.codim == c)

    @property
    def bottom(self) -> Flat:
        return self.flats[0]

    @property
    def top(self) -> Flat:
        return next(f for f in self.flats if f.codim == self.arrangement.dim)

    def mu(self, X: Flat) -> int:
        return self.moebius[X.key()]


def _levels(rows, dim) -> list[list[Flat]]:
    """The flats of a central family of primitive integer rows, one list per
    codim, each sorted by key; the family need not be essential."""

    def make_flat(closed: frozenset[int], codim: int) -> Flat:
        K = tuple(int_kernel_basis([rows[i] for i in sorted(closed)], dim))
        if len(K) != dim - codim:
            raise InternalError(f"flat {sorted(closed)} has {len(K)} kernel rows, "
                                f"expected {dim - codim}")
        return Flat(closed, codim, K)

    levels = [[make_flat(closure_of_forms(rows, dim, frozenset()), 0)]]
    while True:
        new = set()
        for X in levels[-1]:
            covers: dict[tuple[int, ...], set[int]] = {}
            for i, r in enumerate(rows):
                restricted = [sum(map(mul, r, k)) for k in X.kernel]
                if any(restricted) == (i in X.contains):
                    raise InternalError(f"kernel of flat {sorted(X.contains)} "
                                        f"disagrees with form {i + 1}")
                if i not in X.contains:
                    covers.setdefault(canonical_int_vector(restricted), set()).add(i)
            new.update(X.contains.union(group) for group in covers.values())
        if not new:
            return levels
        levels.append([make_flat(c, len(levels)) for c in sorted(new, key=sorted)])


def closed_sets_of_forms(forms, dim) -> dict[frozenset[int], int]:
    """All closed index sets of a central (not necessarily essential) family,
    mapped to their rank."""
    rows = [primitive_int_vector(f) for f in forms]
    return {X.contains: X.codim for level in _levels(rows, dim) for X in level}


@lru_cache(maxsize=256)
def build_lattice(A: Arrangement) -> Lattice:
    """Flats level by level by the restriction rule, then Moebius values."""
    levels = _levels(primitive_rows(A), A.dim)
    flats = [X for level in levels for X in level]
    # mu(V) = 1, and mu(X) is minus the sum of mu(Y) over the flats Y that
    # strictly contain X.  Those Y are on lower levels, and Y contains X iff
    # Y's bitmask is inside X's.  The check sums over every flat instead.
    masks, values = [], []
    for level in levels:
        above = list(zip(masks, values))
        for X in level:
            m = sum(1 << i for i in X.contains)
            masks.append(m)
            values.append(-sum(v for b, v in above if b & m == b) if above else 1)
    for X, m in zip(flats[1:], masks[1:]):
        if sum(v for b, v in zip(masks, values) if b & m == b) != 0:
            raise InternalError(f"Moebius sum up to flat {sorted(X.contains)} is not 0")
    return Lattice(A, flats, {X.key(): v for X, v in zip(flats, values)})


def chamber_count_oracle(L: Lattice) -> int:
    """Region count from the signed Moebius sum (independent of enumeration)."""
    return sum(L.mu(X) * (-1) ** X.codim for X in L.flats)


def characteristic_polynomial(L: Lattice) -> tuple[int, ...]:
    """Coefficients c[0..dim] with chi(t) = sum c[k] * t^k."""
    dim = L.arrangement.dim
    coeffs = [0] * (dim + 1)
    for X in L.flats:
        coeffs[dim - X.codim] += L.mu(X)
    return tuple(coeffs)
