import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hyparr import catalog
from hyparr.arrangement import Arrangement, SignVector, validate
from hyparr.errors import DuplicateHyperplane, NotEssential, ZeroForm

# A regression input: the 8-plane arrangement in R^4 on which the
# Fourier-Motzkin kernel, while it still merged rows of the same direction,
# called the infeasible system {r . x > 0 for r in FAULT8_FORMS} (sign vector
# ++++++++) feasible, so Sigma_4 got 117 sign vectors against Zaslavsky's 116.
FAULT8_FORMS = ((0, 0, 2, 1), (3, 2, 0, 3), (-1, 2, 1, -1), (-1, -1, 0, 1),
                (-3, 1, -2, -1), (1, -2, -3, 2), (2, 1, -1, -1), (-1, -3, 3, -2))


@pytest.fixture(scope="session")
def generic4():
    return catalog.generic4()


@pytest.fixture(scope="session")
def cx2():
    return catalog.x2_coned()


@pytest.fixture(scope="session")
def braid4():
    return catalog.braid(4)


def benchmark_union(na, nb, dim):
    """The A and B of the benchmark's union(na,nb;dim): generic(na, dim)
    with catalog seed 2024, and generic(nb, dim) with seed 2025, or the
    plane x_1 + ... + x_dim = 0 when nb is 1.  The benchmark unites them by
    `catalog.generic_union` with seed 2026."""
    A = catalog.generic(na, dim, 2024)
    B = (Arrangement.from_forms(dim, [[1] * dim]) if nb == 1
         else catalog.generic(nb, dim, 2025))
    return A, B


DRAW_BUDGET = 1000


def random_arrangement(rng: random.Random, dim=None, n=None, bound=3) -> Arrangement:
    """A random valid central essential arrangement with small coefficients.

    Raises ValueError after DRAW_BUDGET rejected draws, as when `bound`
    allows fewer than n distinct directions."""
    d = dim if dim is not None else rng.randint(2, 4)
    m = n if n is not None else rng.randint(d, 8)
    if m < d:
        raise ValueError("need n >= dim for an essential arrangement")
    for _ in range(DRAW_BUDGET):
        forms = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(m)]
        try:
            return validate(Arrangement.from_forms(d, forms))
        except (ZeroForm, DuplicateHyperplane, NotEssential):
            continue
    raise ValueError(f"no valid arrangement of {m} forms in R^{d} with coefficients "
                     f"in [-{bound}, {bound}] in {DRAW_BUDGET} draws")


def random_sign_vector(rng: random.Random, n: int) -> SignVector:
    return SignVector(tuple(rng.choice((1, -1)) for _ in range(n)))
