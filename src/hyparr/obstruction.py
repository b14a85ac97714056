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
above a gap's failing flat is the sum of the localized cocircuits that
conform to the sign vector.  No solver runs, except in the sampled search
beyond the enumeration limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, SignVector, primitive_rows
from .chambers import Chamber, FlowPath, flow_to_sink, lex_smallest_chamber
from .consistency import (DEFAULT_ENUM_LIMIT, GapWitness, consistency_at,
                          global_consistency, is_locally_consistent,
                          sigma_filtration, witness_at)
from .errors import (GloballyConsistent, InternalError, NotLocallyConsistent,
                     TooLarge, WeightConditionViolated)
from .feasibility import interior_witness, signed_system
from .lattice import Flat, build_lattice
from .linalg import RatVector, int_rank


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
    kpi1_possible: bool | None
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
    for Y in sorted(lat.flats, key=lambda f: (f.codim, f.key())):
        if Y.contains < w.flat.contains:
            point = witness_at(lat, w.eps, Y)
            if point is None:
                raise InternalError(f"{w.eps} fails at a flat above its failing flat")
            uppers.append((Y.key(), RatVector.of(point)))
    return Gap(w.k, w.eps, w.flat, w.dual, tuple(uppers))


def detect_obstruction(A: Arrangement, limit: int | None = None,
                       sample: int | None = None, seed: int = 0) -> ObstructionReport:
    """Find every k >= 2 with Sigma_k > Sigma_{k+1}, with certificates.

    Witnesses are lexicographically smallest.  When n exceeds the limit, an
    exhaustive run raises TooLarge; passing `sample` switches to a seeded
    witness search that can establish gaps but never their absence.
    """
    limit = DEFAULT_ENUM_LIMIT if limit is None else limit
    if A.n > limit:
        if sample is None:
            raise TooLarge(f"{A.n} hyperplanes exceed the enumeration limit {limit};"
                           " pass a sample budget for a witness search")
        return _detect_sampled(A, sample, seed)
    lat = build_lattice(A)
    filt = sigma_filtration(A, lattice=lat, limit=limit)
    gaps = tuple(_enrich_gap(A, lat, filt.witnesses[k])
                 for k in sorted(filt.witnesses) if k >= 2)
    minimal_k = gaps[0].k if gaps else None
    return ObstructionReport(filt.counts, gaps, minimal_k,
                             kpi1_possible=minimal_k is None, exhaustive=True)


def _detect_sampled(A: Arrangement, budget: int, seed: int) -> ObstructionReport:
    rng = random.Random(seed)
    lat = build_lattice(A)
    by_codim = {c: sorted((X for X in lat.flats
                           if X.codim == c and len(X.contains) > X.codim),
                          key=lambda f: f.key())
                for c in range(2, A.dim + 1)}
    # the origin always carries the full dependent system
    origin = lat.top
    by_codim.setdefault(A.dim, [])
    if origin not in by_codim[A.dim]:
        by_codim[A.dim] = sorted(by_codim[A.dim] + [origin], key=lambda f: f.key())
    gaps: dict[int, Gap] = {}
    for trial in range(budget):
        if trial % 2 == 0:
            eps = SignVector(tuple(rng.choice((1, -1)) for _ in range(A.n)))
        else:
            eps = _random_adjacent_candidate(A, rng)
        fail = None
        for c in range(2, A.dim + 1):
            for X in by_codim.get(c, ()):
                res = consistency_at(A, eps, X)
                if not res.feasible:
                    fail = (c, X, res.dual)
                    break
            if fail:
                break
        if fail is None:
            continue
        c, X, dual = fail
        k = c - 1
        if k >= 2 and (k not in gaps or str(eps) < str(gaps[k].eps)):
            gaps[k] = _enrich_gap(A, lat, GapWitness(k, eps, X, dual))
    ordered = tuple(gaps[k] for k in sorted(gaps))
    minimal_k = ordered[0].k if ordered else None
    return ObstructionReport({}, ordered, minimal_k,
                             kpi1_possible=False if ordered else None,
                             exhaustive=False)


def _random_adjacent_candidate(A: Arrangement, rng) -> SignVector:
    """Signs of a random chamber with one coordinate flipped."""
    while True:
        point = RatVector.of([rng.randint(-9, 9) for _ in range(A.dim)])
        vals = [h.form.dot(point) for h in A.hyperplanes]
        if all(v != 0 for v in vals):
            signs = [1 if v > 0 else -1 for v in vals]
            i = rng.randrange(A.n)
            signs[i] = -signs[i]
            return SignVector(tuple(signs))


def certify_nontrivial_sphere(A: Arrangement, eps: SignVector,
                              weights=None) -> MonodromyCertificate:
    """Monodromy certificate that the shifted sphere of eps is non-trivial.

    Requires eps locally consistent and globally inconsistent.  The sink is
    reached by the deterministic flow from the lexicographically smallest
    chamber; default weights are 1/n each, so the rotation is |T|/n.
    """
    res = global_consistency(A, eps)
    if res.feasible:
        raise GloballyConsistent(f"{eps} is globally consistent; its sphere bounds a disk")
    if not is_locally_consistent(A, eps):
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
    return MonodromyCertificate(sink, T, weights, rotation, path, res.dual)


def sample_sphere_points(A: Arrangement, eps: SignVector, m: int,
                         seed: int = 0) -> tuple[ComplexSamplePoint, ...]:
    """Point-wise samples of the shifted sphere in the complexified complement.

    Real parts lie on the unit cross-polytope boundary; roughly half are
    drawn inside proper flats so that on-hyperplane behaviour is exercised.
    The imaginary part at x is a deep interior point of the subsystem over
    all hyperplanes within the widest margin delta(x) that still leaves a
    nonzero common intersection, so it is compatible with every hyperplane
    through or near x.
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
        near = _near_set(A, x)
        sub = signed_system(A, eps, sorted(near))
        v = interior_witness(sub)
        points.append(ComplexSamplePoint(x, v))
    verify_sample_points(A, eps, points)
    return tuple(points)


def _near_set(A: Arrangement, x: RatVector) -> frozenset[int]:
    """Hyperplanes within the widest threshold that keeps the set's common
    intersection nonzero: {i : |form_i(x)| < delta(x)}."""
    rows = primitive_rows(A)
    vals = [abs(h.form.dot(x)) for h in A.hyperplanes]
    order = sorted(range(A.n), key=lambda i: vals[i])
    chosen: list[int] = []
    pos = 0
    while pos < A.n:
        group = [order[pos]]
        while pos + len(group) < A.n and vals[order[pos + len(group)]] == vals[order[pos]]:
            group.append(order[pos + len(group)])
        cand = chosen + group
        if int_rank([rows[i] for i in cand], A.dim) >= A.dim:
            break
        chosen = cand
        pos += len(group)
    return frozenset(chosen)


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
