import random
from fractions import Fraction
from math import gcd

from hyparr.linalg import (RatMatrix, RatVector, express_in_rowspace, int_rank,
                           invert, kernel_basis, rank)
from oracles import rref_kernel, rref_rank


def test_rank_identity():
    assert rank(RatMatrix.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_zero_matrix():
    assert rank(RatMatrix.of([[0, 0, 0, 0], [0, 0, 0, 0]], 4)) == 0


def test_rank_dependent_fourth_row():
    M = RatMatrix.of([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert rank(M) == 3


def test_kernel_identity_empty():
    K = kernel_basis(RatMatrix.of([[1, 0], [0, 1]]))
    assert K.nrows == 0


def test_kernel_single_row():
    K = kernel_basis(RatMatrix.of([[1, 1, 1]]))
    assert K.nrows == 2
    for row in K.rows:
        assert sum(row.entries) == 0


def test_kernel_two_differences():
    K = kernel_basis(RatMatrix.of([[1, -1, 0], [0, 1, -1]]))
    assert K.nrows == 1
    assert tuple(K.rows[0]) == (1, 1, 1)


def test_kernel_rows_canonical():
    M = RatMatrix.of([[Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5)]])
    K = kernel_basis(M)
    for row in K.rows:
        ints = [int(x) for x in row]
        assert all(Fraction(x) == x and x.denominator == 1 for x in row.entries)
        nz = [v for v in ints if v]
        assert nz[0] > 0
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        assert g == 1


def test_rank_plus_nullity_and_exact_kernel():
    rng = random.Random(42)
    for _ in range(200):
        m = rng.randint(1, 5)
        d = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
                for _ in range(m)]
        M = RatMatrix.of(rows, d)
        r = rank(M)
        K = kernel_basis(M)
        assert r + K.nrows == d
        assert r == rref_rank(rows, d)
        for v in K.rows:
            assert all(RatVector.of(row).dot(v) == 0 for row in rows)
        # span agreement with the independent kernel
        ok = rref_kernel(rows, d)
        assert len(ok) == K.nrows


def test_int_rank_matches_oracle_and_keeps_rows():
    rng = random.Random(44)
    for _ in range(300):
        m = rng.randint(0, 6)
        d = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.5:  # a dependent, non-primitive row
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [2 * (a * x + b * y) for x, y in zip(rows[0], rows[1])]
        copy = [list(r) for r in rows]
        assert int_rank(rows, d) == rref_rank(rows, d)
        assert int_rank(map(tuple, rows), d) == rank(RatMatrix.of(rows, d))
        assert rows == copy


def _canonical_by_fractions(v):
    """Scale to coprime integers with the first nonzero entry positive."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return tuple(sign * x // g for x in ints)


def test_kernel_rows_are_the_scaled_oracle_rows():
    # one row per free column, zero on the other free columns: the basis is
    # unique up to scaling, so the integer back-substitution must match the
    # Gauss-Jordan oracle row for row
    rng = random.Random(43)
    for _ in range(300):
        m = rng.randint(1, 6)
        d = rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
                for _ in range(m)]
        K = kernel_basis(RatMatrix.of(rows, d))
        expected = [_canonical_by_fractions(v) for v in rref_kernel(rows, d)]
        assert [tuple(int(x) for x in row) for row in K.rows] == expected


def test_fraction_canonical_invariant():
    rng = random.Random(7)
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        for v in (a + b, a * b, a - b):
            assert v.denominator > 0
            assert gcd(abs(v.numerator), v.denominator) == 1


def test_express_in_rowspace():
    B = RatMatrix.of([[1, 0, 1], [0, 1, 1]])
    c = express_in_rowspace(B, RatVector.of([2, 3, 5]))
    assert tuple(c) == (2, 3)
    assert express_in_rowspace(B, RatVector.of([0, 0, 1])) is None


def test_invert():
    M = RatMatrix.of([[2, 1], [1, 1]])
    Minv = invert(M)
    assert [tuple(r) for r in Minv.rows] == [(1, -1), (-1, 2)]
