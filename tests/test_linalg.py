import random
from fractions import Fraction
from itertools import permutations
from math import gcd, prod
from operator import mul

import pytest

import hyparr.linalg
from hyparr.errors import InternalError
from hyparr.linalg import (RatVector, coordinates, cut_kernel, determinant, kernel_basis,
                           primitive_int_vector, products, rank)
from oracles import rref_kernel, rref_rank


def _leibniz(rows):
    """The determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][p[i]] for i in range(n))
    return total


def test_determinant_matches_the_permutation_sum():
    # small entries with many zeros, so that pivots are missing and rows swap
    rng = random.Random(13)
    singular = swapped = 0
    for _ in range(600):
        n = rng.randint(0, 5)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        before = [list(r) for r in rows]
        d = determinant(rows)
        assert d == _leibniz(rows) and rows == before
        singular += d == 0
        swapped += bool(n) and rows[0][0] == 0 and d != 0
    assert singular > 50 and swapped > 20


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 3


def test_rank_zero_matrix():
    assert rank([[0, 0, 0, 0], [0, 0, 0, 0]], 4) == 0


def test_rank_dependent_fourth_row():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert rank(rows, 3) == 3


def test_kernel_identity_empty():
    K = kernel_basis([[1, 0], [0, 1]], 2)
    assert len(K) == 0


def test_kernel_single_row():
    K = kernel_basis([[1, 1, 1]], 3)
    assert len(K) == 2
    for row in K:
        assert sum(row) == 0


def test_kernel_two_differences():
    K = kernel_basis([[1, -1, 0], [0, 1, -1]], 3)
    assert len(K) == 1
    assert tuple(K[0]) == (1, 1, 1)


def test_kernel_rows_canonical():
    row = primitive_int_vector([Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5)])
    K = kernel_basis([row], 3)
    for ints in K:
        assert all(type(x) is int for x in ints)
        nz = [v for v in ints if v]
        assert nz[0] > 0
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        assert g == 1


def test_rank_plus_nullity_and_exact_kernel():
    # rational rows scaled to primitive integers keep their rank and kernel
    rng = random.Random(42)
    for _ in range(200):
        m = rng.randint(1, 5)
        d = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
                for _ in range(m)]
        ints = [primitive_int_vector(row) for row in rows]
        r = rank(ints, d)
        K = kernel_basis(ints, d)
        assert r + len(K) == d
        assert r == rref_rank(rows, d)
        for v in K:
            assert all(RatVector.of(row).dot(RatVector.of(v)) == 0 for row in rows)
        # span agreement with the independent kernel
        ok = rref_kernel(rows, d)
        assert len(ok) == len(K)


def test_rank_matches_oracle_and_keeps_rows():
    rng = random.Random(44)
    for _ in range(300):
        m = rng.randint(0, 6)
        d = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.5:  # a dependent, non-primitive row
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [2 * (a * x + b * y) for x, y in zip(rows[0], rows[1])]
        copy = [list(r) for r in rows]
        assert rank(rows, d) == rref_rank(rows, d)
        assert rank(map(tuple, rows), d) == rank(rows, d)
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
        K = kernel_basis([primitive_int_vector(row) for row in rows], d)
        expected = [_canonical_by_fractions(v) for v in rref_kernel(rows, d)]
        assert K == expected


def test_a_cut_is_the_kernel_basis_of_the_forms_and_the_new_one():
    # rows of small entries, many zeros, so that u often starts with zeros
    # and some new forms vanish on the prefix's kernel
    rng = random.Random(47)
    cuts = leading_zero = 0
    for _ in range(400):
        dim = rng.randint(2, 6)
        forms = [[rng.choice((-2, -1, 0, 0, 0, 1, 1, 3)) for _ in range(dim)]
                 for _ in range(rng.randint(0, dim))]
        f = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(dim)]
        K = tuple(kernel_basis(forms, dim))
        u = [sum(map(mul, f, k)) for k in K]
        p = next((t for t, a in enumerate(u) if a), None)
        if p is None:  # f vanishes on the kernel: nothing to cut
            continue
        cuts += 1
        leading_zero += not u[0]
        assert cut_kernel(K, u, p) == tuple(kernel_basis(forms + [f], dim))
        # any nonzero multiple of u cuts the same rows
        assert cut_kernel(K, [-3 * a for a in u], p) == cut_kernel(K, u, p)
    assert cuts >= 250 and leading_zero >= 30


def test_a_cut_of_dependent_rows_has_no_direction():
    K = ((1, 2, 0), (1, 2, 0))
    with pytest.raises(InternalError, match="has no direction"):
        cut_kernel(K, (1, 1), 0)
    assert cut_kernel(((1, 0, 0),), (5,), 0) == ()


def test_fraction_canonical_invariant():
    rng = random.Random(7)
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        for v in (a + b, a * b, a - b):
            assert v.denominator > 0
            assert gcd(abs(v.numerator), v.denominator) == 1


def test_coordinates_in_rowspace():
    B = [[1, 0, 1], [0, 1, 1]]
    c = coordinates(B, [2, 3, 5])
    assert tuple(c) == (2, 3)
    assert coordinates(B, [0, 0, 1]) is None


def test_coordinates_of_unit_vectors_are_the_inverse_rows():
    g = [[2, 1], [1, 1]]
    assert [tuple(coordinates(g, e)) for e in ([1, 0], [0, 1])] == [(1, -1), (-1, 2)]


def test_coordinates_match_oracle():
    rng = random.Random(45)
    for _ in range(200):
        d = rng.randint(1, 5)
        m = rng.randint(1, d)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
                for _ in range(m)]
        if rref_rank(rows, d) < m:
            with pytest.raises(ValueError):
                coordinates(rows, [rng.randint(-4, 4) for _ in range(d)])
            continue
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
        v = [sum(c_t * row[j] for c_t, row in zip(c, rows)) for j in range(d)]
        assert tuple(coordinates(rows, v)) == tuple(c)
        outside = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
        if rref_rank(rows + [outside], d) > m:
            assert coordinates(rows, outside) is None
        with pytest.raises(ValueError):  # the first row repeated, scaled
            coordinates(rows + [[3 * x for x in rows[0]]], v)


def test_products_are_the_dot_products(monkeypatch):
    rng = random.Random(46)
    for _ in range(300):
        dim = rng.randint(1, 7)
        big = rng.choice((1, 9, 10 ** 6, 10 ** 9, 10 ** 30))
        rows = [[rng.randint(-big, big) for _ in range(dim)] if rng.random() < 0.85
                else [0] * dim for _ in range(rng.randint(1, 40))]
        at = products(rows)
        for _ in range(3):
            v = [rng.choice((0, rng.randint(-big, big))) for _ in range(dim)]
            assert at(v) == [sum(map(mul, r, v)) for r in rows]
    # at the bound: max ||r||_1 * max |v| = 2^63 - 1 = 7 * m is packed and
    # reaches both ends, 2^63 takes the plain path
    packed = []
    monkeypatch.setattr(hyparr.linalg, "memoryview",
                        lambda b: packed.append(b) or memoryview(b), raising=False)
    top = (1 << 63) - 1
    m = top // 7
    assert products([(3, 4), (0, 0), (-3, -4), (7, 0), (-1, 2)])((m, m)) == [
        top, 0, -top, top, m]
    assert len(packed) == 1
    assert products([(1, 1), (-1, -1), (0, 0)])((1 << 62, 1 << 62)) == [1 << 63, -1 << 63, 0]
    assert len(packed) == 1


def test_products_pack_entries_up_to_int64_and_go_plain_past_it(monkeypatch):
    packed = []
    monkeypatch.setattr(hyparr.linalg, "memoryview",
                        lambda b: packed.append(b) or memoryview(b), raising=False)
    rng = random.Random(47)
    for _ in range(200):
        # entries up to 2^62 in all, so every v in {-1, 0, 1}^dim is packed
        dim = rng.randint(1, 6)
        big = (1 << 62) // dim
        rows = [[rng.choice((0, big, -big, rng.randint(-big, big))) for _ in range(dim)]
                for _ in range(rng.randint(1, 30))]
        v = [rng.choice((-1, 0, 1)) for _ in range(dim)]
        before = len(packed)
        assert products(rows)(v) == [sum(map(mul, r, v)) for r in rows]
        assert len(packed) == before + 1
    # -2^63 and 2^63 - 1 fit in a field, and v = 0 is packed whatever the norm
    assert products([(-1 << 63, 1), ((1 << 63) - 1, -1)])((0, 0)) == [0, 0]
    assert len(packed) == 201
    # an entry past int64 takes the plain dot products at every v, 0 too
    for entry in (1 << 63, (-1 << 63) - 1, 1 << 64, -(3 ** 50)):
        rows = [(entry, 1, 0), (2, -3, 5), (0, 0, 0), (-entry, 0, 7)]
        at = products(rows)
        for v in ((0, 0, 0), (1, -1, 0), (0, 1 << 62, -5), (3, 0, 1 << 70)):
            assert at(v) == [sum(map(mul, r, v)) for r in rows]
    assert len(packed) == 201
