"""Chambers of the real complement, walls, flows, and sinks.

A chamber is a globally consistent sign vector; its walls are the
hyperplanes supporting a facet.  Every verdict behind a chamber or a wall
comes from the lattice's checked tope set (`Lattice.tope_lines`), with no
solver, and every chamber's witness is checked in integers (Bjorner, Las
Vergnas, Sturmfels, White and Ziegler, *Oriented Matroids*, 1999, ch. 3-4):

- Every tope is the composition of the cocircuits that conform to it, so
  the sum of those line directions is a strict interior point, and an
  exact integer sign test checks it.  A chamber's witness is
  `Lattice.witness` at the top: the sum of its conforming lines that the
  tope search checked at its leaf and kept, or, for a tope of the '-'
  half, the negation of its opposite's.  A sign vector is a chamber iff it
  is in the tope set, which is checked by that test at every '+' member
  and by Zaslavsky's count.
- i is a wall of C iff C with sign i flipped is also a chamber (Avis and
  Fukuda's reverse search, 1996): every chamber, enumerated or built from
  its signs, reads its walls from sign flips in the tope set.  A sink is
  told from its flips too, so `all_sinks` builds witnesses for the sinks
  alone.

A flow starts, unless told otherwise, at the first tope, the
lexicographically smallest chamber, and crosses, at each step, the
lowest-index wall whose side disagrees with the target system of
half-spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import consistency
from .arrangement import Arrangement, SignVector, primitive_rows
from .errors import Infeasible, InternalError
from .lattice import Lattice, build_lattice
from .linalg import RatVector, kernel_basis


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
        basis = kernel_basis([rows[i]], A.dim)
        out.append(tuple(tuple(sum(map(mul, rows[j], b)) for b in basis)
                         for j in range(A.n) if j != i))
    return tuple(out)


def _flips_in(topes, signs: tuple[int, ...]) -> frozenset[int]:
    """The i for which signs with sign i flipped is in the tope set."""
    return frozenset(i for i in range(len(signs))
                     if signs[:i] + (-signs[i],) + signs[i + 1:] in topes)


@lru_cache(maxsize=65536)
def _wall_set(A: Arrangement, signs: tuple[int, ...]) -> frozenset[int]:
    """The flips of signs that lie in the lattice's tope set."""
    lat = build_lattice(A)
    return _flips_in(lat.tope_lines(lat.top), signs)


def walls(A: Arrangement, chamber_or_signs) -> frozenset[int]:
    """Indices i whose hyperplane supports a facet of the chamber.

    A Chamber carries its wall set, which is returned as it is.  Signs go
    through `_wall_set`, which reads their flips in the checked tope set.
    """
    if isinstance(chamber_or_signs, Chamber):
        return chamber_or_signs.walls
    signs = chamber_or_signs
    if isinstance(signs, SignVector):
        signs = signs.signs
    return _wall_set(A, signs)


def chamber_from_signs(A: Arrangement, eps: SignVector) -> Chamber:
    """Build the chamber with the given signs; Infeasible when they are no
    tope, so that the chamber is empty."""
    lat = build_lattice(A)
    if eps.signs not in lat.tope_lines(lat.top):
        raise Infeasible(f"{eps} is not a chamber")
    return _chamber(lat, eps)


def _chamber(lat: Lattice, eps: SignVector) -> Chamber:
    """The chamber of a tope, with its walls read from sign flips in the
    tope set and its witness from `Lattice.witness` at the top: the sum of
    its conforming lines that the tope search checked at its leaf, negated
    for the '-' half."""
    topes = lat.tope_lines(lat.top)
    w = lat.witness(lat.top, eps.signs)
    if w is None:
        raise InternalError(f"the topes hold {eps}, which is not a chamber")
    return Chamber(eps, RatVector.of(w), _flips_in(topes, eps.signs))


def enumerate_chambers(A: Arrangement, limit: int | None = None) -> tuple[Chamber, ...]:
    """All chambers in lexicographic sign order, with witness and wall set.

    S = Sigma_dim, and `sigma` checks |S| against Zaslavsky's count.  The
    witness of a member T is the integer sum of the cocircuits conforming to
    T (`Lattice.witness`): the closed chamber of an essential arrangement is
    a pointed cone spanned by its extreme rays, each of them such a
    cocircuit, and every other conforming one lies in the closed cone, so
    the sum is interior.  The tope search sums the lines of each '+' leaf,
    checks the sum by an exact integer sign test (a leaf whose sum fails
    it, so one that is not a chamber, raises InternalError) and keeps it;
    the witness of a '-' member is the negation of its opposite's, the sum
    of the opposite lines, checked by the same integers.  Hence S is
    exactly the chamber set.
    The walls of each chamber are read from sign flips in S: if C and C with
    sign i flipped have witnesses x and y, every point of the segment [x, y]
    has the strict sign of both ends on each H_j with j != i, so the point
    where the segment crosses H_i lies in the relative interior of a facet
    of C: i is a wall.  Conversely, crossing a facet on H_i leads into the
    chamber with sign i flipped, which is then in S.
    """
    S = consistency.sigma(A, A.dim, limit=limit)
    lat = build_lattice(A)
    return tuple(_chamber(lat, sv) for sv in S)


def lex_smallest_chamber(A: Arrangement) -> Chamber:
    """The chamber of the first tope.  The tope set is exact and sorted
    ('+' < '-'), so no chamber has lexicographically smaller signs."""
    return chamber_from_signs(A, build_lattice(A).topes()[0])


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
    """Every chamber that is a sink for the given system, in lexicographic
    sign order; always nonempty.  A tope is a sink iff no flip of a sign
    where it disagrees with eps is a tope (every such flip would be a wall
    on the wrong side), so the walls come from flips in the tope set and
    only the sinks are built as chambers, each with its checked witness."""
    S = consistency.sigma(A, A.dim, limit=limit)
    lat = build_lattice(A)
    topes = lat.tope_lines(lat.top)
    sinks = tuple(_chamber(lat, T) for T in S
                  if not any(T.signs[:i] + (-t,) + T.signs[i + 1:] in topes
                             for i, (t, e) in enumerate(zip(T.signs, eps.signs)) if t != e))
    if not sinks:
        raise InternalError(f"no chamber is a sink for {eps}")
    return sinks
