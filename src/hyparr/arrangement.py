"""Central arrangements of rational hyperplanes, sign vectors, coning.

A hyperplane is stored as the linear form defining it, exactly as given:
the positive/negative sides are relative to that form, so forms are never
rescaled or sign-normalized.  Hyperplane indices are 0-based internally and
1-based in every serialized report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isfinite
from operator import neg

from .errors import DuplicateHyperplane, InternalError, NotEssential, OnHyperplane, ZeroForm
from .linalg import (RatVector, canonical_int_vector, coordinates, primitive_int_vector,
                     rank)


@dataclass(frozen=True)
class Hyperplane:
    form: RatVector
    label: str


@dataclass(frozen=True)
class SignVector:
    """A choice of side (+1 or -1) per hyperplane, printed as e.g. '+-+'."""

    signs: tuple[int, ...]

    @classmethod
    def from_string(cls, s: str) -> "SignVector":
        if any(ch not in "+-" for ch in s):
            raise ValueError(f"bad sign string {s!r}")
        return cls(tuple(1 if ch == "+" else -1 for ch in s))

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def __neg__(self) -> "SignVector":
        return SignVector(tuple(map(neg, self.signs)))

    def __len__(self) -> int:
        return len(self.signs)

    def __getitem__(self, i: int) -> int:
        return self.signs[i]

    def flip(self, i: int) -> "SignVector":
        return SignVector(self.signs[:i] + (-self.signs[i],) + self.signs[i + 1:])


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement: dim and an ordered list of hyperplanes."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # an arrangement keys the lattice, wall-set and row caches; hashing
        # its Fraction entries anew on every lookup costs tens of microseconds
        return hash((self.dim, self.hyperplanes))

    @classmethod
    def from_forms(cls, dim, forms, labels=None) -> "Arrangement":
        forms = [f if isinstance(f, RatVector) else RatVector.of(f) for f in forms]
        if labels is None:
            labels = [f"H{i + 1}" for i in range(len(forms))]
        elif len(labels) != len(forms):
            raise ValueError(f"{len(labels)} labels for {len(forms)} forms")
        return cls(dim, tuple(Hyperplane(f, l) for f, l in zip(forms, labels)))

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    @property
    def forms(self) -> tuple[RatVector, ...]:
        return tuple(h.form for h in self.hyperplanes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(h.label for h in self.hyperplanes)


@dataclass(frozen=True)
class AffineArrangement:
    """Affine hyperplanes <a,x> + c = 0, the input to coning."""

    dim: int
    forms: tuple[RatVector, ...]
    constants: tuple[Fraction, ...]
    labels: tuple[str, ...]

    @classmethod
    def of(cls, dim, forms, constants, labels=None) -> "AffineArrangement":
        forms = tuple(f if isinstance(f, RatVector) else RatVector.of(f) for f in forms)
        constants = tuple(Fraction(c) for c in constants)
        if labels is None:
            labels = tuple(f"H{i + 1}" for i in range(len(forms)))
        _check_distinct(forms, (canonical_int_vector(tuple(f) + (c,))
                                for f, c in zip(forms, constants)),
                        "affine hyperplane with zero linear part",
                        "affine hyperplanes {} and {} coincide")
        return cls(dim, forms, constants, tuple(labels))

    @property
    def n(self) -> int:
        return len(self.forms)


def _check_distinct(forms, keys, zero: str, same: str) -> None:
    """ZeroForm(zero) at the first zero form, then DuplicateHyperplane(same)
    at the lexicographically first pair i < j of equal keys, in O(n): the
    least first index of a repeated key and that key's second index."""
    for i, f in enumerate(forms):
        if f.is_zero():
            raise ZeroForm(zero.format(i + 1))
    first: dict[tuple[int, ...], int] = {}
    pair = None
    for j, key in enumerate(keys):
        i = first.setdefault(key, j)
        if i < j and (pair is None or i < pair[0]):
            pair = i, j
    if pair is not None:
        raise DuplicateHyperplane(same.format(pair[0] + 1, pair[1] + 1))


def validate(A: Arrangement) -> Arrangement:
    """Check central-essential invariants; return A unchanged when they hold."""
    if A.dim < 1:
        raise ValueError("dimension must be >= 1")
    if A.n < 1:
        raise ValueError("arrangement needs at least one hyperplane")
    for i, h in enumerate(A.hyperplanes):
        if h.form.dim != A.dim:
            raise ValueError(f"form {i + 1} has dimension {h.form.dim}, expected {A.dim}")
    _check_distinct(A.forms, (canonical_int_vector(f.entries) for f in A.forms),
                    "hyperplane {} has zero form", "hyperplanes {} and {} are proportional")
    r = rank(primitive_rows(A), A.dim)
    if r < A.dim:
        raise NotEssential(f"forms span rank {r} < {A.dim}")
    return A


@lru_cache(maxsize=512)
def primitive_rows(A: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Forms scaled to primitive integer rows (positive scaling per row)."""
    return tuple(primitive_int_vector(h.form.entries) for h in A.hyperplanes)


def sign_vector_of_point(A: Arrangement, x: RatVector) -> SignVector:
    """Signs of the forms at x; raises OnHyperplane if any form vanishes."""
    signs = []
    for i, h in enumerate(A.hyperplanes):
        v = h.form.dot(x)
        if v == 0:
            raise OnHyperplane(i + 1)
        signs.append(1 if v > 0 else -1)
    return SignVector(tuple(signs))


def essentialize(forms, dim: int, labels=None) -> Arrangement:
    """Restrict a central arrangement to coordinates where it is essential.

    Picks a basis among the given forms and rewrites every form in that
    basis, producing an arrangement of the same index-set combinatorics
    (any subset keeps its rank) in dimension rank(forms).
    """
    forms = [f if isinstance(f, RatVector) else RatVector.of(f) for f in forms]
    if labels is None:
        labels = [f"H{i + 1}" for i in range(len(forms))]
    _check_distinct(forms, (canonical_int_vector(f.entries) for f in forms),
                    "form {} is zero", "forms {} and {} are proportional")
    # greedy basis among the input forms
    basis: list[RatVector] = []
    basis_rows: list[tuple[int, ...]] = []
    for f in forms:
        row = primitive_int_vector(f.entries)
        if rank(basis_rows + [row], dim) > len(basis):
            basis.append(f)
            basis_rows.append(row)
    r = len(basis)
    new_forms = []
    for f in forms:
        c = coordinates(basis, f)
        if c is None:
            raise InternalError("a form lies outside the span of the greedy basis")
        new_forms.append(c)
    return Arrangement.from_forms(r, new_forms, labels)


def cone(B: AffineArrangement) -> Arrangement:
    """Homogenize: <a,x> + c becomes <a,x> + c*z, plus the plane z = 0 last."""
    dim = B.dim + 1
    forms = [RatVector(tuple(f.entries) + (c,)) for f, c in zip(B.forms, B.constants)]
    forms.append(RatVector(tuple(Fraction(0) for _ in range(B.dim)) + (Fraction(1),)))
    labels = list(B.labels) + ["z_inf"]
    return validate(Arrangement.from_forms(dim, forms, labels))


# ---------------------------------------------------------------------------
# JSON file format


def arrangement_to_obj(A: Arrangement) -> dict:
    return {
        "dim": A.dim,
        "forms": [[str(x) for x in h.form] for h in A.hyperplanes],
        "labels": list(A.labels),
    }


def affine_to_obj(B: AffineArrangement) -> dict:
    return {
        "dim": B.dim,
        "forms": [[str(x) for x in f] for f in B.forms],
        "constants": [str(c) for c in B.constants],
        "labels": list(B.labels),
    }


def _require(obj: dict, *keys: str) -> None:
    """Reject an arrangement object that lacks a key, or holds a value of the
    wrong JSON type, before a conversion can raise TypeError or OverflowError."""
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"arrangement object lacks {', '.join(missing)}")

    def rational(x):  # type(True) is bool, never int
        return type(x) in (int, str) or isinstance(x, float) and isfinite(x)

    def listed(v, ok=rational):
        return isinstance(v, list) and all(map(ok, v))

    bad = [k for k, ok in (
        ("dim", type(obj["dim"]) in (int, str)),
        ("forms", isinstance(obj["forms"], list) and all(map(listed, obj["forms"]))),
        ("constants", listed(obj.get("constants", []))),
        ("labels", obj.get("labels") is None
         or listed(obj["labels"], lambda x: isinstance(x, str))),
    ) if not ok]
    if bad:
        raise ValueError(f"arrangement object has malformed {', '.join(bad)}")


def parse_rational(x) -> Fraction:
    """A Fraction from an int, a finite float or a string such as '-3/4' or
    '2.5e-3'.  A zero denominator raises ValueError, and so does a decimal
    exponent of more than three digits: Fraction would build a power of ten
    that large, and by default Python prints no int of more than 4300 digits."""
    if isinstance(x, str):
        exponent = re.search(r"[eE][-+]?([0-9_]*)", x)
        if exponent and len(exponent.group(1)) > 3:
            raise ValueError(f"rational {x[:40]!r} has an exponent of more than 3 digits")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"rational {x!r} has a zero denominator") from None


def arrangement_from_obj(obj: dict) -> Arrangement:
    _require(obj, "dim", "forms")
    dim = int(obj["dim"])
    forms = [[parse_rational(x) for x in row] for row in obj["forms"]]
    labels = obj.get("labels") or None
    return Arrangement.from_forms(dim, forms, labels)


def affine_from_obj(obj: dict) -> AffineArrangement:
    _require(obj, "dim", "forms", "constants")
    dim = int(obj["dim"])
    forms = [[parse_rational(x) for x in row] for row in obj["forms"]]
    constants = [parse_rational(c) for c in obj["constants"]]
    labels = obj.get("labels") or None
    return AffineArrangement.of(dim, forms, constants, labels)

