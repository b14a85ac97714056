"""Chambers of the real complement, walls, flows, and sinks.

A chamber is a globally consistent sign vector; its walls are the
hyperplanes supporting a facet.  Every verdict behind a wall is checked:

- Enumerated chambers take their walls from sign flips in the certified
  chamber set Sigma_dim: i is a wall of C iff C with sign i flipped is also
  a chamber (Bjorner, Las Vergnas, Sturmfels, White and Ziegler, *Oriented
  Matroids*, 1999; Avis and Fukuda's reverse search, 1996).  Their
  witnesses come from the lattice's lines with no solver: every tope is the
  composition of the cocircuits that conform to it (ibid., ch. 3-4), so the
  sum of those line directions is a strict interior point, and an exact
  integer sign test checks it.
- A single chamber, built from its signs, decides each wall by eliminating
  the equality onto a kernel-basis parametrization of the hyperplane and
  testing the reduced strict system with `strict_feasible`, whose
  certificate is checked.

A flow crosses, at each step, the lowest-index wall whose side disagrees
with the target system of half-spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .arrangement import Arrangement, SignVector, primitive_rows
from .errors import Infeasible, InternalError
from .feasibility import StrictSystem, signed_system, strict_feasible
from .lattice import Lattice, build_lattice
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
    reduced onto a basis of hyperplane i."""
    rows = primitive_rows(A)
    out = []
    for i in range(A.n):
        basis = int_kernel_basis([rows[i]], A.dim)
        out.append(tuple(tuple(sum(map(mul, rows[j], b)) for b in basis)
                         for j in range(A.n) if j != i))
    return tuple(out)


@lru_cache(maxsize=65536)
def _wall_set(A: Arrangement, signs: tuple[int, ...]) -> frozenset[int]:
    out = []
    for i, reduced in enumerate(_hyperplane_basis(A)):
        others = signs[:i] + signs[i + 1:]
        rows = tuple(tuple(s * v for v in r) for s, r in zip(others, reduced))
        if strict_feasible(StrictSystem.of(rows, A.dim - 1)).feasible:
            out.append(i)
    return frozenset(out)


def walls(A: Arrangement, chamber_or_signs) -> frozenset[int]:
    """Indices i whose hyperplane supports a facet of the chamber.

    A Chamber carries its wall set, which is returned as it is.  Signs go
    through `_wall_set`, which decides one checked reduced system per
    hyperplane.
    """
    if isinstance(chamber_or_signs, Chamber):
        return chamber_or_signs.walls
    signs = chamber_or_signs
    if isinstance(signs, SignVector):
        signs = signs.signs
    return _wall_set(A, signs)


def chamber_from_signs(A: Arrangement, eps: SignVector) -> Chamber:
    """Build the chamber with the given signs; Infeasible when it is empty."""
    res = strict_feasible(signed_system(A, eps))
    if not res.feasible:
        raise Infeasible(f"{eps} is not a chamber")
    return Chamber(eps, res.witness, _wall_set(A, eps.signs))


def _cocircuits(A: Arrangement, lat: Lattice) -> list[tuple[tuple[int, ...], int, int]]:
    """Both signed cocircuits of every line (flat of codim dim - 1): the
    primitive direction v and the bitmasks of the rows positive and
    negative at v."""
    rows = primitive_rows(A)
    out = []
    for X in lat.flats_of_codim(A.dim - 1):
        v = X.kernel[0]
        pos = neg = 0
        for i, r in enumerate(rows):
            s = sum(map(mul, r, v))
            if s > 0:
                pos |= 1 << i
            elif s < 0:
                neg |= 1 << i
        out.append((v, pos, neg))
        out.append((tuple(-a for a in v), neg, pos))
    return out


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
    rows = primitive_rows(A)
    cocircuits = _cocircuits(A, build_lattice(A))
    members = set(S)
    out = []
    for sv in S:
        plus = sum(1 << i for i, s in enumerate(sv.signs) if s > 0)
        w = [0] * A.dim
        for v, pos, neg in cocircuits:
            if not (pos & ~plus or neg & plus):
                w = [a + b for a, b in zip(w, v)]
        if not all(s * sum(map(mul, r, w)) > 0 for s, r in zip(sv.signs, rows)):
            raise InternalError(f"Sigma_{A.dim} holds {sv}, which is not a chamber")
        out.append(Chamber(sv, RatVector.of(w),
                           frozenset(i for i in range(A.n) if sv.flip(i) in members)))
    return tuple(out)


def lex_smallest_chamber(A: Arrangement) -> Chamber:
    """Greedy prefix descent; '+' is preferred at every index.

    When the last sign stays '+', the last prefix system is the full signed
    system, already decided with a checked certificate; its witness is the
    one `chamber_from_signs` would compute.
    """
    signs: list[int] = []
    res = None
    for i in range(A.n):
        signs.append(1)
        res = strict_feasible(signed_system(A, signs, range(i + 1)))
        if not res.feasible:
            signs[-1] = -1
    eps = SignVector(tuple(signs))
    if res is None or not res.feasible:
        return chamber_from_signs(A, eps)
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
