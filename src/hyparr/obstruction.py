"""Higher-homotopy obstructions and machine-checkable certificates.

A strict drop Sigma_k > Sigma_{k+1} with k >= 2 certifies a non-vanishing
k-th homotopy group of the complexified complement.  For a locally
consistent, globally inconsistent system the non-trivial embedded sphere is
certified by rank-one monodromy data: a sink chamber, the separating index
set T on which the sink disagrees, weights a_i summing to an integer, and
the rotation number r = sum_{i in T} a_i mod 1, which must be non-integral
so that 1 - e^{2 pi i r} != 0.  Rotations are kept as exact rationals; no
complex floating point is ever formed.

Every certificate comes from the lattice's sign tables and is checked in
integers (see `consistency`): the dual of a gap, and the dual that the full
system is inconsistent, are the dependencies of circuits that the sign
vector matches, so their supports are minimal; the witness at each flat
above a gap's failing flat, and the imaginary part of each sphere sample,
is the sum of the localized cocircuits that conform to the sign vector.
No solver runs, and the search is exhaustive (TooLarge past the limit on
n): no sample of sign vectors could show that a gap is absent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, SignVector
from .chambers import Chamber, FlowPath, flow_to_sink, lex_smallest_chamber
from .consistency import (GapWitness, first_failing_flat, is_locally_consistent,
                          sigma_filtration, witness_at)
from .errors import (GloballyConsistent, InternalError, NotLocallyConsistent,
                     WeightConditionViolated)
from .lattice import Flat, build_lattice
from .linalg import RatVector


@dataclass(frozen=True)
class Gap:
    """A witness pair for Sigma_k > Sigma_{k+1}, with both certificates."""

    k: int
    eps: SignVector
    flat: Flat
    dual: tuple[Fraction, ...]
    upper_witnesses: tuple[tuple[tuple[int, ...], RatVector], ...]


@dataclass(frozen=True)
class ObstructionReport:
    counts: dict[int, int]
    gaps: tuple[Gap, ...]
    minimal_k: int | None
    kpi1_possible: bool
    exhaustive: bool


@dataclass(frozen=True)
class MonodromyCertificate:
    """Rotation data of the sink, and the checked dual certificate that the
    full signed system is inconsistent."""

    sink: Chamber
    separating: frozenset[int]
    weights: tuple[Fraction, ...]
    rotation: Fraction
    path: FlowPath
    dual: tuple[Fraction, ...]


@dataclass(frozen=True)
class ComplexSamplePoint:
    """x + sqrt(-1) v: no hyperplane may contain both parts, and wherever x
    lies on a hyperplane, v must point to the chosen side."""

    real: RatVector
    imag: RatVector


def _enrich_gap(A, lat, w: GapWitness) -> Gap:
    """Attach primal witnesses at every flat strictly above the failing one:
    the checked sums of conforming localized cocircuits of `witness_at`."""
    uppers = []
    for Y in lat.below(w.flat):
        point = witness_at(lat, w.eps, Y)
        if point is None:
            raise InternalError(f"{w.eps} fails at a flat above its failing flat")
        uppers.append((Y.key(), RatVector.of(point)))
    return Gap(w.k, w.eps, w.flat, w.dual, tuple(uppers))


def detect_obstruction(A: Arrangement, limit: int | None = None) -> ObstructionReport:
    """Find every k >= 2 with Sigma_k > Sigma_{k+1}, with certificates.

    Witnesses are lexicographically smallest; TooLarge when n > limit.
    """
    filt = sigma_filtration(A, limit=limit, include_sets=False)
    lat = build_lattice(A)
    gaps = tuple(_enrich_gap(A, lat, filt.witnesses[k])
                 for k in sorted(filt.witnesses) if k >= 2)
    minimal_k = gaps[0].k if gaps else None
    return ObstructionReport(filt.counts, gaps, minimal_k,
                             kpi1_possible=minimal_k is None, exhaustive=True)


def certify_nontrivial_sphere(A: Arrangement, eps: SignVector,
                              weights=None) -> MonodromyCertificate:
    """Monodromy certificate that the shifted sphere of eps is non-trivial.

    Requires eps locally consistent and globally inconsistent.  The sink is
    reached by the deterministic flow from the lexicographically smallest
    chamber; default weights are 1/n each, so the rotation is |T|/n.
    """
    failure = first_failing_flat(A, eps)  # at the top, its dual is the global one
    if failure is None:
        raise GloballyConsistent(f"{eps} is globally consistent; its sphere bounds a disk")
    if failure.flat.codim < A.dim:
        raise NotLocallyConsistent(f"{eps} is not locally consistent")
    path = flow_to_sink(A, eps, lex_smallest_chamber(A))
    sink = path.sink
    T = frozenset(i for i in range(A.n) if sink.signs[i] != eps[i])
    if not 0 < len(T) < A.n:
        raise InternalError(f"the sink of {eps} is separated by {len(T)} hyperplanes")
    n = A.n
    if weights is None:
        weights = tuple(Fraction(1, n) for _ in range(n))
    else:
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) != n:
            raise ValueError(f"expected {n} weights")
    total = sum(weights, Fraction(0))
    if total.denominator != 1:
        raise WeightConditionViolated(f"weights sum to {total}, not an integer")
    t_sum = sum((weights[i] for i in sorted(T)), Fraction(0))
    rotation = t_sum - (t_sum.numerator // t_sum.denominator)
    if rotation == 0:
        raise WeightConditionViolated(
            f"separating sum {t_sum} is an integer; 1 - lambda vanishes")
    if not 0 < rotation < 1:
        raise InternalError(f"rotation {rotation} lies outside (0, 1)")
    return MonodromyCertificate(sink, T, weights, rotation, path, failure.dual)


def sample_sphere_points(A: Arrangement, eps: SignVector, m: int,
                         seed: int = 0) -> tuple[ComplexSamplePoint, ...]:
    """Point-wise samples of the shifted sphere in the complexified complement.

    Real parts lie on the unit cross-polytope boundary; roughly half are
    drawn inside proper flats so that on-hyperplane behaviour is exercised.
    The imaginary part at x is the checked witness of `witness_at` at the
    flat Y of the hyperplanes through x, scaled to one-norm 1: the sum of
    the cocircuits of A_Y that conform to eps, strictly on eps's side of
    every hyperplane through x.  It is 0 when x lies on no hyperplane.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    if not is_locally_consistent(A, eps):
        raise NotLocallyConsistent(f"{eps} is not locally consistent")
    rng = random.Random(seed)
    lat = build_lattice(A)
    proper = [X for X in lat.flats if 1 <= X.codim <= A.dim - 1]
    points = []
    for j in range(m):
        x = None
        while x is None:
            if proper and j % 2 == 1:
                X = proper[rng.randrange(len(proper))]
                coeffs = [rng.randint(-9, 9) for _ in range(len(X.kernel))]
                cand = RatVector.of([
                    sum(c * row[t] for c, row in zip(coeffs, X.kernel))
                    for t in range(A.dim)])
            else:
                cand = RatVector.of([rng.randint(-9, 9) for _ in range(A.dim)])
            if not cand.is_zero():
                x = cand.scale(Fraction(1) / cand.one_norm())
        on = frozenset(i for i, h in enumerate(A.hyperplanes) if h.form.dot(x) == 0)
        Y = lat.by_contains.get(on)
        v = None if Y is None else witness_at(lat, eps, Y)
        if v is None:
            raise InternalError(f"{eps} has no witness at the flat {sorted(on)} "
                                f"through sample {j + 1}")
        norm = sum(map(abs, v)) or 1  # v = 0 off every hyperplane
        points.append(ComplexSamplePoint(x, RatVector.of(v).scale(Fraction(1, norm))))
    verify_sample_points(A, eps, points)
    return tuple(points)


def verify_sample_points(A: Arrangement, eps: SignVector, points) -> bool:
    """Independent membership re-check, recomputing every pairing from the
    raw forms: no hyperplane contains both parts, and on-hyperplane
    imaginary parts lie strictly on the chosen side."""
    for p in points:
        for i, h in enumerate(A.hyperplanes):
            a_x = h.form.dot(p.real)
            a_v = h.form.dot(p.imag)
            if a_x == 0:
                if a_v == 0:
                    raise InternalError(f"hyperplane {i + 1} contains a sample point")
                if (1 if a_v > 0 else -1) != eps[i]:
                    raise InternalError(
                        f"imaginary part crosses hyperplane {i + 1} against the signs")
    return True
