"""Chambers of the real complement, walls, flows, and sinks.

A chamber is a globally consistent sign vector; its walls are the
hyperplanes supporting a facet.  Every verdict behind a chamber or a wall
comes from the lattice's cocircuits and circuits, with no solver, and is
checked in integers (Bjorner, Las Vergnas, Sturmfels, White and Ziegler,
*Oriented Matroids*, 1999, ch. 3-4):

- Every tope is the composition of the cocircuits that conform to it, so
  the sum of those line directions is a strict interior point, and an
  exact integer sign test checks it.  A sign vector that is no tope matches
  a circuit, whose checked dependency is Gordan's dual
  (`consistency.global_consistency`).
- i is a wall of C iff C with sign i flipped is also a chamber (Avis and
  Fukuda's reverse search, 1996).  Enumerated chambers read their walls from
  sign flips in the certified chamber set Sigma_dim; a single chamber, built
  from its signs, decides each flip with the tope test.

A flow crosses, at each step, the lowest-index wall whose side disagrees
with the target system of half-spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .arrangement import Arrangement, SignVector, primitive_rows
from .consistency import global_consistency, lex_smallest_tope, witness_at
from .errors import Infeasible, InternalError
from .lattice import build_lattice
from .linalg import RatVector, int_kernel_basis


@dataclass(frozen=True)
class Chamber:
    signs: SignVector
    witness: RatVector
    walls: frozenset[int]


@dataclass(frozen=True)
class FlowPath:
    """Chambers visited and the hyperplane crossed at each step."""

    chambers: tuple[Chamber, ...]
    crossed: tuple[int, ...]

    @property
    def sink(self) -> Chamber:
        return self.chambers[-1]


@lru_cache(maxsize=256)
def _hyperplane_basis(A: Arrangement) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per hyperplane i, the integer rows of the other forms, in order,
    reduced onto a basis of hyperplane i.  Unused; `perfbench/run.py`
    clears its cache by name."""
    rows = primitive_rows(A)
    out = []
    for i in range(A.n):
        basis = int_kernel_basis([rows[i]], A.dim)
        out.append(tuple(tuple(sum(map(mul, rows[j], b)) for b in basis)
                         for j in range(A.n) if j != i))
    return tuple(out)


@lru_cache(maxsize=65536)
def _wall_set(A: Arrangement, signs: tuple[int, ...]) -> frozenset[int]:
    """The i for which signs with sign i flipped passes the tope test."""
    return frozenset(i for i in range(A.n)
                     if global_consistency(A, signs[:i] + (-signs[i],) + signs[i + 1:]).feasible)


def walls(A: Arrangement, chamber_or_signs) -> frozenset[int]:
    """Indices i whose hyperplane supports a facet of the chamber.

    A Chamber carries its wall set, which is returned as it is.  Signs go
    through `_wall_set`, which decides one checked tope test per hyperplane.
    """
    if isinstance(chamber_or_signs, Chamber):
        return chamber_or_signs.walls
    signs = chamber_or_signs
    if isinstance(signs, SignVector):
        signs = signs.signs
    return _wall_set(A, signs)


def chamber_from_signs(A: Arrangement, eps: SignVector) -> Chamber:
    """Build the chamber with the given signs; Infeasible when it is empty."""
    res = global_consistency(A, eps)
    if not res.feasible:
        raise Infeasible(f"{eps} is not a chamber")
    return Chamber(eps, res.witness, _wall_set(A, eps.signs))


def enumerate_chambers(A: Arrangement, limit: int | None = None) -> tuple[Chamber, ...]:
    """All chambers in lexicographic sign order, with witness and wall set.

    S = Sigma_dim, and `sigma` checks |S| against Zaslavsky's count.  The
    witness of a member T is the integer sum of the cocircuits conforming to
    T: the closed chamber of an essential arrangement is a pointed cone
    spanned by its extreme rays, each of them such a cocircuit, and every
    other conforming one lies in the closed cone, so the sum is interior.
    Each witness passes an exact integer sign test (a member whose sum
    fails it, so one that is not a chamber, raises InternalError), hence S
    is exactly the chamber set.  The walls of each chamber are read from
    sign flips in S: if C and C with sign i flipped have witnesses x and y,
    every point of the segment [x, y] has the strict sign of both ends on
    each H_j with j != i, so the point where the segment crosses H_i lies
    in the relative interior of a facet of C: i is a wall.  Conversely,
    crossing a facet on H_i leads into the chamber with sign i flipped,
    which is then in S.
    """
    from .consistency import sigma

    S = sigma(A, A.dim, limit=limit)
    lat = build_lattice(A)
    members = set(S)
    out = []
    for sv in S:
        w = witness_at(lat, sv, lat.top)
        if w is None:
            raise InternalError(f"Sigma_{A.dim} holds {sv}, which is not a chamber")
        out.append(Chamber(sv, RatVector.of(w),
                           frozenset(i for i in range(A.n) if sv.flip(i) in members)))
    return tuple(out)


def lex_smallest_chamber(A: Arrangement) -> Chamber:
    """The chamber of `consistency.lex_smallest_tope`, the greedy pass over
    the circuits that prefers '+' at every index.  Its witness certifies
    every sign the pass kept, and its walls are checked like any other
    chamber's."""
    eps = lex_smallest_tope(build_lattice(A))
    res = global_consistency(A, eps)
    if not res.feasible:
        raise InternalError(f"the greedy pass over the circuits ends at {eps}, "
                            "which is not a chamber")
    return Chamber(eps, res.witness, _wall_set(A, eps.signs))


def is_sink(A: Arrangement, eps: SignVector, C: Chamber) -> bool:
    """True iff the chamber lies on the chosen side of each of its walls."""
    return all(C.signs[i] == eps[i] for i in C.walls)


def flow_to_sink(A: Arrangement, eps: SignVector, start: Chamber) -> FlowPath:
    """Cross the lowest-index disagreeing wall until a sink is reached."""
    path = [start]
    crossed: list[int] = []
    cur = start
    while True:
        bad = sorted(i for i in cur.walls if cur.signs[i] != eps[i])
        if not bad:
            break
        i = bad[0]
        if i in crossed:
            raise InternalError(f"the flow crossed hyperplane {i + 1} twice")
        cur = chamber_from_signs(A, cur.signs.flip(i))
        path.append(cur)
        crossed.append(i)
        if len(crossed) > A.n:
            raise InternalError(f"the flow crossed more than {A.n} walls")
    return FlowPath(tuple(path), tuple(crossed))


def all_sinks(A: Arrangement, eps: SignVector, limit: int | None = None) -> tuple[Chamber, ...]:
    """Every chamber that is a sink for the given system; always nonempty."""
    sinks = tuple(C for C in enumerate_chambers(A, limit=limit)
                  if is_sink(A, eps, C))
    if not sinks:
        raise InternalError(f"no chamber is a sink for {eps}")
    return sinks
