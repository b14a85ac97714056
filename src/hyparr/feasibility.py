"""Strict feasibility of homogeneous rational systems, with certificates.

Either side of Gordan's alternative is returned as exact data: a rational
point making every row strictly positive, or a nonnegative nonzero rational
combination of the rows equal to zero.  The decision kernel is
Fourier-Motzkin elimination in `_fmpure`.  Every certificate is re-checked
by exact arithmetic; a failed check raises InternalError, also under
`python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from . import _fmpure
from .errors import Infeasible, InternalError
from .linalg import RatVector, primitive_int_vector

# read by perfbench/layers.py; goes with the benchmark change (ROADMAP direction 1)
_fmcore = None


def kernel_name() -> str:
    # read by perfbench/run.py; goes with the benchmark change (ROADMAP direction 1)
    return "pure"


@dataclass(frozen=True)
class StrictSystem:
    """Rows r with the meaning r . x > 0; rows are already sign-adjusted."""

    forms: tuple[RatVector, ...]
    dim: int

    @classmethod
    def of(cls, rows, dim) -> "StrictSystem":
        forms = tuple(r if isinstance(r, RatVector) else RatVector.of(r) for r in rows)
        for i, f in enumerate(forms):
            if f.dim != dim:
                raise ValueError(f"row {i} has dim {f.dim}, expected {dim}")
            if f.is_zero():
                raise ValueError(f"row {i} is zero")
        return cls(forms, dim)

    @cached_property
    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows scaled by positive rationals to primitive integers."""
        return tuple(primitive_int_vector(f.entries) for f in self.forms)


@dataclass(frozen=True)
class FeasibilityResult:
    """Exactly one of witness / dual is present."""

    witness: RatVector | None
    dual: tuple[Fraction, ...] | None

    @property
    def feasible(self) -> bool:
        return self.witness is not None

    def verify(self, sys: StrictSystem) -> bool:
        """Re-check the certificate against the system by direct arithmetic.

        A witness is checked in integers: its denominators are cleared once
        and it is tested against the primitive integer rows.  Both scalings
        are positive, so no sign changes.
        """
        if self.witness is not None:
            den = lcm(*(x.denominator for x in self.witness))
            point = [x.numerator * (den // x.denominator) for x in self.witness]
            return (len(point) == sys.dim
                    and all(sum(map(mul, r, point)) > 0 for r in sys.int_rows))
        if self.dual is None or len(self.dual) != len(sys.forms):
            return False
        if any(y < 0 for y in self.dual) or all(y == 0 for y in self.dual):
            return False
        for j in range(sys.dim):
            if sum((y * f[j] for y, f in zip(self.dual, sys.forms)), Fraction(0)) != 0:
                return False
        return True


def strict_feasible(sys: StrictSystem) -> FeasibilityResult:
    """Decide the system; total, deterministic for a fixed input.

    The empty system is feasible with the stand-in witness (1, 0, ..., 0).
    """
    if not sys.forms:
        if sys.dim == 0:
            return FeasibilityResult(RatVector(()), None)
        point = (Fraction(1),) + tuple(Fraction(0) for _ in range(sys.dim - 1))
        return FeasibilityResult(RatVector(point), None)
    prim = sys.int_rows
    scales = []
    for p, f in zip(prim, sys.forms):
        j = next(i for i, x in enumerate(p) if x != 0)
        scales.append(Fraction(p[j]) / f[j])
    kind, data = _fmpure.solve(prim, sys.dim)
    if kind == "dual":
        dual = tuple(Fraction(c) * s for c, s in zip(data, scales))
        res = FeasibilityResult(None, dual)
    else:
        point = _fmpure.witness_from_stages(data, sys.dim)
        res = FeasibilityResult(RatVector(point), None)
    if not res.verify(sys):
        raise InternalError(f"the kernel's {kind} certificate fails verification")
    return res


def interior_witness(sys: StrictSystem) -> RatVector:
    """A deep rational point of the open cone.

    The point maximizes, exactly, the smallest slack over the unit
    cross-polytope, so every slack is at least the best achievable minimum:
    `maximin_on_cross_polytope` checks the dual bound on that minimum, and
    here the point is checked to reach it.  Raises Infeasible when the
    certified best minimum slack is 0: the dual bound then reads
    sum_i y_i r_i = 0 with y >= 0 and sum_i y_i = 1, which is Gordan's dual
    certificate.
    """
    if not sys.forms:
        return strict_feasible(sys).witness
    prim = sys.int_rows
    t_star, point = _fmpure.maximin_on_cross_polytope(prim, sys.dim)
    if t_star == 0:
        raise Infeasible("system has a dual certificate")
    if not (t_star > 0 and sum(abs(v) for v in point) <= 1
            and all(sum(a * v for a, v in zip(r, point)) >= t_star for r in prim)):
        raise InternalError("the deep point does not reach t* inside the cone")
    return RatVector(point)

