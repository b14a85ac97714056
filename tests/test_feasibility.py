import hashlib
import random
from fractions import Fraction

import pytest

from hyparr import _fmpure, _simplex
from hyparr.errors import Infeasible, InternalError
from hyparr.feasibility import (FeasibilityResult, StrictSystem, interior_witness,
                                strict_feasible)
from hyparr.linalg import RatVector, primitive_int_vector

from conftest import FAULT8_FORMS
from oracles import grid_witness, simplex_feasible


def test_opposite_rows_dual():
    # exact integers: a 2**70 coefficient is decided like any other
    for rows, dim in (([[1], [-1]], 1), ([[2 ** 70, 1], [-2 ** 70, -1]], 2)):
        sys = StrictSystem.of(rows, dim)
        res = strict_feasible(sys)
        assert not res.feasible
        assert res.dual == (1, 1)
        assert res.verify(sys)


def test_generic4_negative_orthant_dual():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    res = strict_feasible(StrictSystem.of(rows, 3))
    assert res.dual == (1, 1, 1, 1)
    assert res.verify(StrictSystem.of(rows, 3))


def test_open_quadrant_witness():
    sys = StrictSystem.of([[1, 0], [0, 1]], 2)
    res = strict_feasible(sys)
    assert res.feasible
    assert all(x > 0 for x in res.witness)
    sys = StrictSystem.of([[2 ** 70, 1], [-1, -1]], 2)
    res = strict_feasible(sys)
    assert res.feasible and res.verify(sys)


def test_empty_system_stand_in_witness():
    res = strict_feasible(StrictSystem((), 3))
    assert tuple(res.witness) == (1, 0, 0)


def test_interior_witness_examples():
    w = interior_witness(StrictSystem.of([[1, 0], [0, 1]], 2))
    assert all(x > 0 for x in w)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    w = interior_witness(StrictSystem.of(rows, 3))
    assert all(x > 0 for x in w)
    with pytest.raises(Infeasible):
        interior_witness(StrictSystem.of([[1], [-1]], 1))


def test_interior_witness_makes_no_kernel_call(monkeypatch):
    # the deep point's first program decides the system
    def no_kernel(rows, dim):
        raise AssertionError("interior_witness called the feasibility kernel")

    monkeypatch.setattr(_fmpure, "solve", no_kernel)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert all(x > 0 for x in interior_witness(StrictSystem.of(rows, 3)))


def test_interior_witness_is_maximin_deep():
    # for the open quadrant the best minimum slack on |x|_1 <= 1 is 1/2
    w = interior_witness(StrictSystem.of([[1, 0], [0, 1]], 2))
    assert min(w[0], w[1]) == Fraction(1, 2)


def test_determinism():
    rows = [[1, 2, -1], [0, 1, 1], [-1, 0, 2]]
    a = strict_feasible(StrictSystem.of(rows, 3))
    b = strict_feasible(StrictSystem.of(rows, 3))
    assert a == b


def test_gordan_soundness_random():
    rng = random.Random(101)
    for _ in range(1500):
        d = rng.randint(1, 4)
        m = rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        sys = StrictSystem.of(rows, d)
        res = strict_feasible(sys)
        assert res.verify(sys)
        assert (res.witness is None) != (res.dual is None)


def test_scale_invariance_random():
    rng = random.Random(102)
    for _ in range(300):
        d = rng.randint(1, 4)
        m = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        base = strict_feasible(StrictSystem.of(rows, d))
        scaled = []
        for r in rows:
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled.append([c * v for v in r])
        res = strict_feasible(StrictSystem.of(scaled, d))
        assert res.feasible == base.feasible


def test_agreement_with_simplex_oracle():
    rng = random.Random(103)
    for _ in range(800):
        d = rng.randint(1, 4)
        m = rng.randint(1, 8)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        ours = strict_feasible(StrictSystem.of(rows, d)).feasible
        assert ours == simplex_feasible(rows, d)


def test_interior_witness_rejects_a_point_outside_the_cone(monkeypatch):
    def off_side(rows, dim):
        return Fraction(1), (Fraction(-1),) + (Fraction(0),) * (dim - 1)

    monkeypatch.setattr(_fmpure, "maximin_on_cross_polytope", off_side)
    with pytest.raises(InternalError):
        interior_witness(StrictSystem.of([[1, 0], [0, 1]], 2))


def test_interior_witness_rejects_a_suboptimal_t_star(monkeypatch):
    maximize = _simplex.maximize

    def short(A, b, c):
        value, z, y = maximize(A, b, c)
        return value / 2, z, y

    monkeypatch.setattr(_simplex, "maximize", short)
    with pytest.raises(InternalError, match="dual"):
        interior_witness(StrictSystem.of([[1, 0], [0, 1]], 2))


def test_simplex_optimum_is_certified_by_its_dual():
    # z >= 0, A z <= b, y >= 0, y A >= c and c . z == y . b prove optimality
    rng = random.Random(106)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)] + [[1] * n]
        z0 = [rng.randint(0, 2) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, z0)) + rng.randint(0, 2) for row in A]
        c = [rng.randint(-3, 3) for _ in range(n)]
        value, z, y = _simplex.maximize(A, b, c)
        assert all(v >= 0 for v in z) and all(v >= 0 for v in y)
        assert all(sum(a * v for a, v in zip(row, z)) <= bi for row, bi in zip(A, b))
        assert all(sum(yi * row[j] for yi, row in zip(y, A)) >= c[j] for j in range(n))
        assert sum(cj * v for cj, v in zip(c, z)) == value == sum(yi * bi for yi, bi in zip(y, b))


def test_simplex_reports_an_empty_program():
    with pytest.raises(InternalError, match="infeasible"):
        _simplex.maximize([[1], [-1]], [1, -2], [1])


def _feasible_systems(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 5)
        m = rng.randint(1, 8)
        rows = [primitive_int_vector([rng.randint(-3, 3) for _ in range(d)]) for _ in range(m)]
        rows = tuple(tuple(r) for r in rows if any(r))
        if rows and strict_feasible(StrictSystem.of(rows, d)).feasible:
            out.append((rows, d))
    return out


# sha256 of (t*, point) over 200 feasible systems, taken while the deep point
# still came from Fourier-Motzkin on the 2^dim cross-polytope rows.
DEEP_POINTS_SHA256 = "1bbe8018622fea7c752961694dffeb6e1807422d93a06e6fb68ee754677ef157"


def test_deep_points_are_pinned():
    h = hashlib.sha256()
    for rows, d in _feasible_systems(200, 105):
        t_star, point = _fmpure.maximin_on_cross_polytope(rows, d)
        h.update(f"{t_star}:{','.join(map(str, point))}\n".encode())
    assert h.hexdigest() == DEEP_POINTS_SHA256


# Infeasible systems that the kernel once called feasible: keep-first
# deduplication by row direction dropped a duplicate with a smaller provenance
# support, and the support bound then pruned the copy it kept.
FAULT_ROWS = (
    (FAULT8_FORMS, 4),
    (((-1, -1, 3, 2), (-2, -1, -3, 0), (1, -1, -1, -1), (3, 3, -2, 1),
      (-3, 2, 0, -3), (1, 1, -1, 0), (0, -2, -3, 1), (0, 0, 1, 1)), 4),
    (((0, 0, 0, 1), (1, -3, -1, 1), (-2, 0, 0, 1), (1, 1, -3, -3),
      (-1, 0, 3, 0), (0, 1, 0, -3), (3, 2, 1, 2), (1, 1, -1, 2)), 4),
    (((-3, -2, 0, 3, -3), (-1, 2, 0, 1, -1), (1, -2, 0, 0, 3), (-2, -3, -2, -1, 1),
      (1, 0, -1, 1, -1), (1, -2, 0, -2, 1), (1, -2, 0, -3, 1), (1, 0, 1, 2, 0),
      (-2, -1, -2, -2, 3)), 5),
)


def test_kernel_agrees_with_oracle_on_the_fault_rows():
    for rows, dim in FAULT_ROWS:
        assert _fmpure.solve(rows, dim)[0] == "dual", rows
        system = StrictSystem.of(rows, dim)
        res = strict_feasible(system)
        assert not res.feasible and res.verify(system), rows
        assert not simplex_feasible(rows, dim), rows


def test_grid_confirms_witness_side():
    rng = random.Random(104)
    confirmed = 0
    for _ in range(250):
        d = rng.randint(1, 3)
        m = rng.randint(1, 6)
        rows = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        g = grid_witness(rows, d)
        if g is not None:
            confirmed += 1
            assert strict_feasible(StrictSystem.of(rows, d)).feasible
    assert confirmed > 20  # the grid oracle actually fired


def test_verify_rejects_corrupt_certificates():
    sys = StrictSystem.of([[1, 0], [0, 1]], 2)
    bad = FeasibilityResult(RatVector.of([1, -1]), None)
    assert not bad.verify(sys)
    sys2 = StrictSystem.of([[1], [-1]], 1)
    assert not FeasibilityResult(None, (Fraction(1), Fraction(2))).verify(sys2)
