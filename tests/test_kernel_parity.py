"""The compiled kernel must be a bit-exact twin of the pure one."""

import random
from itertools import product

import pytest

from hyparr import _fmpure, catalog, feasibility
from hyparr.arrangement import Arrangement, primitive_rows

from conftest import FAULT8_FORMS

try:
    from hyparr import _fmcore
except ImportError:
    _fmcore = None

needs_ext = pytest.mark.skipif(_fmcore is None, reason="compiled kernel not built")


def _assert_twins(rows, d):
    pure = _fmpure.solve(rows, d)
    comp = _fmcore.solve(rows, d)
    if comp is None:
        return False
    assert pure[0] == comp[0]
    if pure[0] == "dual":
        assert tuple(pure[1]) == tuple(comp[1])
    else:
        assert _fmpure.witness_from_stages(pure[1], d) == \
            _fmpure.witness_from_stages(comp[1], d)
    return True


@needs_ext
def test_parity_on_random_systems():
    rng = random.Random(71)
    checked = 0
    for _ in range(5000):
        d = rng.randint(1, 5)
        m = rng.randint(1, 9)
        rows = tuple(r for r in (tuple(rng.randint(-4, 4) for _ in range(d))
                                 for _ in range(m)) if any(r))
        if rows and _assert_twins(rows, d):
            checked += 1
    assert checked > 4000


@needs_ext
def test_parity_on_signed_arrangements():
    # every sign vector of every prefix: the near-chamber systems that
    # enumeration sends to the kernel, the fault rows among them
    for A in (catalog.generic4(), catalog.x2_coned(),
              Arrangement.from_forms(4, FAULT8_FORMS)):
        rows = primitive_rows(A)
        for k in range(1, A.n + 1):
            for signs in product((1, -1), repeat=k):
                signed = tuple(tuple(s * v for v in r) for s, r in zip(signs, rows))
                assert _assert_twins(signed, A.dim)


@needs_ext
def test_bailout_on_huge_coefficients():
    rows = ((2 ** 70, 1), (-1, -1))
    assert _fmcore.solve(rows, 2) is None
    kind, _ = _fmpure.solve(rows, 2)
    assert kind in ("dual", "stages")


@needs_ext
def test_selected_kernel_reported():
    assert feasibility.kernel_name() == "compiled"
