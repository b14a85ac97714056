"""Intersection lattice: flats, covers, Moebius function, region count.

Flats are identified by their closed index set {i : X is inside H_i}; two
flats are equal iff those sets are.  Flats are built level by level from the
restriction rule (Orlik-Terao, the restriction A^X): the flats covering X
are the intersections of X with H_i for i outside X, and two of them
coincide exactly when forms i and j, restricted to X, are proportional.
Restricting every form to X's integer kernel rows therefore finds all
covers of X at once, with integer dot products, and groups the forms by
the direction of their restriction.  Every form's value at a kernel row
comes from one `linalg.products` map of the rows, built once per lattice,
which packs the columns of the rows into integers and so gives all n values
as one exact integer combination.  No flat but the bottom takes a kernel
basis: each takes its rows from the first lower cover X that gives it, by
one cut (`linalg.cut_kernel`, which the genericity walk of `catalog` makes
too).  With u the direction of the restriction and p the first t where
u[t] != 0, the rows u[p]*k_t - u[t]*k_p of X's rows k for t != p, made
canonical, are exactly the kernel basis of the flat's forms.  The next
level checks them against every form, and a line, with one row, is
certified by its values at that row: exactly as many of the n values as
the line has forms must be 0, and each of the line's forms must read 0.
The level loop keeps, for each new flat, the flats that generated it:
exactly its lower covers.  The Moebius values come from the covers alone,
by Weisner's theorem (Weisner 1935): for a flat X above the bottom and an
atom a below it, the sum of mu(Z) over the Z with Z v a = X is 0, and
in a geometric lattice those Z are X itself and the lower covers of X
that a is not below.  So with a the form min(X.contains), mu(X) is
minus the sum of mu over the lower covers of X that do not contain a, and
the build does O(number of covers) work beyond the level loop.  No
down-set is built: the strict down-sets, as bitmasks over flat indices,
are built from the lower covers on the first call of `below` and kept on
the `Lattice`.  The covers are checked against the
restriction rule (the upper covers of X split the forms outside X into
their groups), and every value against Rota's sign theorem,
(-1)^codim X * mu(X) > 0 on a geometric lattice (Rota 1964).  The
Moebius-based region count is the independent cross-check for the chamber
enumeration elsewhere.

Sign-vector questions are answered from two more tables of the lattice,
each built on first use and kept on the `Lattice`: the signed cocircuits of
each localization A_Y, and the topes of each A_Y, read from its lines by one
checked search that keeps each tope's conforming lines (Bjorner, Las
Vergnas, Sturmfels, White and Ziegler, *Oriented Matroids*, 1999, ch. 3-4).
The cocircuit table of Y, which no other module reads, is the directions
of its lines, each as two entries v and -v, and per form of Y the bitmasks
of the entries where it is positive and negative.  The lines conforming to
signs are the AND of the forms' columns (`conforming`), and their sum,
checked by the sign test in `_checked_sum` as every witness is, is a
tope's witness (`witness`).  The tope search reads the columns, with no
dot product outside its leaf test.  It walks the topes that are '+' on Y's
first form and takes the rest as their negations, since the topes come in
opposite pairs, and it checks each '+' leaf's witness and keeps it.  Once
Y is searched, a tope's witness is the sum the search checked, and a '-'
tope's is the negation of its opposite's.  Gordan duals keep
no table: `first_circuit` scans the (codim + 1)-subsets of a flat's forms
in lexicographic order by the signs of their cofactors, c_t = (-1)^t
det(S minus S_t) on pivot coordinates of the flat's span (Cramer's rule),
read from a memo of minors that lives for one scan, and builds the kernel
of the first subset whose signs a sign vector takes.  `build_lattice`
builds neither table.
Crapo's beta of a flat, from the Moebius values, tells whether A_Y is
connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul

from .arrangement import Arrangement, SignVector, primitive_rows
from .errors import InternalError, NotEssential
from .linalg import _bareiss_echelon, cut_kernel, determinant, kernel_basis, products


def closure_of_forms(rows, dim, indices: frozenset[int]) -> frozenset[int]:
    """Indices j whose integer row vanishes on the intersection of the given ones."""
    K = kernel_basis([rows[i] for i in sorted(indices)], dim)
    return frozenset(j for j, r in enumerate(rows)
                     if not any(sum(map(mul, r, k)) for k in K))


@dataclass(frozen=True)
class Flat:
    """An intersection subspace with its closed index set and kernel basis.

    The kernel is the `kernel_basis` of the forms in `contains`: its
    dim - codim rows are primitive integer vectors, each with its first
    nonzero entry positive.  `build_lattice` cuts every flat's kernel but
    the bottom's from that of its first lower cover (`linalg.cut_kernel`),
    not from its forms.
    """

    contains: frozenset[int]
    codim: int
    kernel: tuple[tuple[int, ...], ...]

    def key(self) -> tuple[int, ...]:
        """The forms of the flat, ascending: sorted on the first call and
        kept, outside the fields, so equality and hashing do not read it."""
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = tuple(sorted(self.contains))
        return key


CocircuitTable = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]
Circuit = tuple[tuple[int, ...], tuple[int, ...]]


class Lattice:
    """All flats of a central essential arrangement, with covers and Moebius
    values.

    Flats are ordered by codim, and by key within a codim, so the top (the
    origin) is the last.  `lower[t]` and `upper[t]` are the indices of the
    flats that flat t covers and that cover it, ascending.  The strict
    down-set of each flat, as a bitmask over flat indices, is built for the
    whole lattice on the first call of `below` and kept.
    """

    def __init__(self, arrangement: Arrangement, flats, lower, upper, moebius):
        self.arrangement = arrangement
        self.flats = tuple(flats)
        self.lower = lower
        self.upper = upper
        self.moebius = moebius  # contains -> int
        self.index = {f.contains: t for t, f in enumerate(self.flats)}
        self.by_contains = {f.contains: f for f in self.flats}
        self._cocircuits: dict[frozenset[int], CocircuitTable] = {}
        self._tope_lines: dict[frozenset[int], dict[tuple[int, ...], int]] = {}
        self._tope_sums: dict[frozenset[int], dict[tuple[int, ...], tuple[int, ...]]] = {}
        self._topes: tuple[SignVector, ...] | None = None
        self._down: list[int] | None = None

    def flats_of_codim(self, c: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.codim == c)

    def lower_covers(self, X: Flat) -> tuple[Flat, ...]:
        return tuple(self.flats[s] for s in self.lower[self.index[X.contains]])

    def below(self, X: Flat) -> tuple[Flat, ...]:
        """The flats strictly below X (contains a proper subset of X's), by
        codim and then key.  The first call builds every flat's strict
        down-set, the union of its lower covers and their down-sets."""
        if self._down is None:
            down: list[int] = []
            for covers in self.lower:
                mask = 0
                for s in covers:
                    mask |= down[s] | 1 << s
                down.append(mask)
            self._down = down
        return tuple(self.flats[s] for s in _bits(self._down[self.index[X.contains]]))

    def cocircuits(self, Y: Flat) -> CocircuitTable:
        """Both signed cocircuits of every line of the localization A_Y, as
        (directions, columns).

        A line of A_Y is a flat Z of codim(Y) - 1 below Y (Z.contains is a
        proper subset of Y.contains).  Each lower cover Z gives entries 2t
        and 2t + 1 of `directions`: v, the first row of Z.kernel that some
        form of Y does not vanish on, and -v.  `columns` holds one pair
        (pos, neg) per form of Y, in the order of `Y.key()`: the bitmasks of
        the entries at which that form is positive and negative, so each neg
        is its pos with the bits of every pair swapped.  The forms of Y take
        the same signs, up to one global sign, at every point of Z outside
        Y.  For the top these are the cocircuits of the lines of A.
        """
        table = self._cocircuits.get(Y.contains)
        if table is None:
            rows = primitive_rows(self.arrangement)
            plus, minus = dict.fromkeys(Y.contains, 0), dict.fromkeys(Y.contains, 0)  # even bits
            directions = []
            for Z in self.lower_covers(Y):
                # within Z, each form of Y outside Z vanishes exactly on Y; v
                # is the first row of Z.kernel on which the first of them does not
                outside = sorted(Y.contains - Z.contains)
                for v in Z.kernel:
                    if sum(map(mul, rows[outside[0]], v)):
                        break
                bit = 1 << len(directions)
                for i in outside:
                    value = sum(map(mul, rows[i], v))
                    if value > 0:
                        plus[i] |= bit
                    elif value < 0:
                        minus[i] |= bit
                    else:
                        raise InternalError(f"flat {sorted(Z.contains)} is no line of the "
                                            f"localization at {sorted(Y.contains)}")
                directions += [v, tuple(-a for a in v)]
            table = self._cocircuits[Y.contains] = (tuple(directions), tuple([
                (plus[i] | minus[i] << 1, minus[i] | plus[i] << 1) for i in Y.key()]))
        return table

    def conforming(self, Y: Flat, signs) -> int | None:
        """The bitmask of the entries of `cocircuits(Y)` that conform to
        signs, one sign per form of Y in the order of `Y.key()`: the lines
        that are zero or of the sign's side on every form of Y, the AND over
        Y's columns.  None when those lines are all zero on some form of Y,
        so that signs is no tope of A_Y."""
        directions, columns = self.cocircuits(Y)
        if len(signs) != len(columns):
            raise ValueError(f"{len(signs)} signs for flat {sorted(Y.contains)}")
        against = 0  # the entries against signs on some form
        for s, (pos, neg) in zip(signs, columns):
            against |= neg if s > 0 else pos
        live = ((1 << len(directions)) - 1) ^ against
        for s, (pos, neg) in zip(signs, columns):
            if not live & (pos if s > 0 else neg):
                return None
        return live

    def lines(self, Y: Flat, mask: int) -> list[tuple[int, ...]]:
        """The directions of the entries of `cocircuits(Y)` in mask, ascending."""
        return list(map(self.cocircuits(Y)[0].__getitem__, _bits(mask)))

    def witness(self, Y: Flat, signs) -> list[int] | None:
        """The sum of the lines of A_Y that conform to signs, checked by
        `_checked_sum`; None when signs is no tope of A_Y.

        Once Y's topes are searched, a '+' tope's witness is the sum that
        its leaf passed to `_checked_sum`, kept by the search, and a '-'
        tope's is the negation of its opposite's: the sum of the opposite
        lines, checked by the same integers.  Before that, the lines are
        read by `conforming` and summed."""
        sums = self._tope_sums.get(Y.contains)
        if sums is None:
            live = self.conforming(Y, signs)
            return None if live is None else self._checked_sum(Y, signs, live)
        if len(signs) != len(Y.contains):
            raise ValueError(f"{len(signs)} signs for flat {sorted(Y.contains)}")
        if signs[0] > 0:
            w = sums.get(tuple(signs))
            return None if w is None else list(w)
        w = sums.get(tuple(map(int.__neg__, signs)))
        return None if w is None else list(map(int.__neg__, w))

    def _checked_sum(self, Y: Flat, signs, live: int) -> list[int]:
        """The sum of the directions of the entries of `cocircuits(Y)` in
        live, which must pass the exact sign test: each form of Y times its
        sign in signs is positive there.  Every witness of a tope of a
        localization, in the search or out of it, is summed here."""
        w = list(map(sum, zip(*self.lines(Y, live)))) or [0] * self.arrangement.dim
        rows = primitive_rows(self.arrangement)
        if min(map(mul, signs, [sum(map(mul, rows[i], w)) for i in Y.key()]), default=1) <= 0:
            raise InternalError(f"its conforming lines sum outside {SignVector(tuple(signs))} "
                                f"at flat {sorted(Y.contains)}")
        return w

    def first_circuit(self, X: Flat, signs) -> Circuit | None:
        """The first circuit spanning X, in lexicographic order, whose signs
        the sign vector takes up to global sign; None when there is none.
        signs holds one sign per form of A, by index.

        A circuit S spans its flat X = closure(S), so |S| = codim X + 1.  On
        codim X pivot coordinates of the span of X's forms, the rows of S
        have the dependency c_t = (-1)^t det(S minus S_t), by Cramer's rule,
        and S is a circuit iff none of these minors is 0 (Bjorner et al.,
        ch. 3).  The scan reads the sign of each minor from a memo that
        lives for this call, and leaves a subset at its first zero minor or
        at the first cofactor whose sign the sign vector does not match.  The answer
        alone takes a `kernel_basis`, canonical like every kernel row, whose
        signs must be its cofactors' and which must be a dependency of the
        rows of S.
        """
        rows, dim = primitive_rows(self.arrangement), self.arrangement.dim
        key = X.key()
        _, pivots = _bareiss_echelon([list(rows[i]) for i in key], dim)
        if len(pivots) != X.codim:
            raise InternalError(f"the forms of flat {key} span rank {len(pivots)}, "
                                f"not its codim {X.codim}")
        sub = {i: [rows[i][j] for j in pivots] for i in key}
        memo: dict[tuple[int, ...], int] = {}  # sign(det) by codim-subset
        for S in combinations(key, X.codim + 1):
            # t runs down, so that the minor S[:codim], shared by every
            # subset with that prefix, comes first, and the minor without
            # S[0], which the fewest subsets share, comes last
            want = 0  # the sign of c_t times signs[S[t]], the same for every t
            for t in range(X.codim, -1, -1):
                minor = S[:t] + S[t + 1:]
                s = memo.get(minor)
                if s is None:
                    d = determinant([sub[j] for j in minor])
                    s = memo[minor] = (d > 0) - (d < 0)
                m = (-s if t & 1 else s) * signs[S[t]]
                if not m or want and m != want:
                    break
                want = m
            else:
                cofactors = [want * signs[i] for i in S]  # the signs of c
                K = kernel_basis([[rows[i][j] for i in S] for j in range(dim)], len(S))
                if len(K) != 1 or [(a > 0) - (a < 0) for a in K[0]] != [
                        c * cofactors[0] for c in cofactors]:
                    raise InternalError(f"the kernel {K} of the forms {[i + 1 for i in S]} "
                                        f"does not have the signs of their cofactors")
                c = K[0]
                if any(sum(c_t * rows[i][j] for c_t, i in zip(c, S)) for j in range(dim)):
                    raise InternalError(f"{c} is not a dependency of the forms "
                                        f"{[i + 1 for i in S]}")
                return S, c
        return None

    def topes(self) -> tuple[SignVector, ...]:
        """The topes of A in lexicographic order ('+' < '-'): every chamber,
        wall and flow step is read from them."""
        if self._topes is None:
            self._topes = tuple(map(SignVector, self.tope_lines(self.top)))
        return self._topes

    def tope_lines(self, Y: Flat) -> dict[tuple[int, ...], int]:
        """The topes of A_Y, from their signs over the forms of `Y.key()`, in
        lexicographic order, to the bitmask of their conforming lines, as
        `conforming` gives it: searched once per flat and kept, with the
        checked witnesses of the '+' half that `witness` reads."""
        table = self._tope_lines.get(Y.contains)
        if table is None:
            table, self._tope_sums[Y.contains] = self._search_topes(Y)
            self._tope_lines[Y.contains] = table
        return table

    def _search_topes(self, Y: Flat) -> tuple[dict[tuple[int, ...], int],
                                              dict[tuple[int, ...], tuple[int, ...]]]:
        """The '+' half, the topes whose sign on Y's first form is '+', is
        searched from the columns that `cocircuits(Y)` stores, with no dot
        product outside the leaf test: a prefix extends with sign s at a
        form of Y iff some line of A_Y (a cocircuit of Y) that conforms to
        it has sign s on that form.  A prefix's conforming lines are the AND
        of its forms' columns, as in `conforming`, and each leaf's witness,
        the sum of their directions, must pass `_checked_sum`.  The '-' half
        is the '+' half reversed and negated, each kept mask pair-swapped:
        entries 2t and 2t + 1 of the table are one line's two signs, so each
        neg column is its pos column pair-swapped and the directions are
        opposite, which is checked first.  The leaves of both halves must
        number Zaslavsky's count for A_Y.  Returns the topes of both halves
        with their masks, and the '+' topes with their checked sums."""
        directions, columns = self.cocircuits(Y)
        even = int("01" * (len(directions) // 2), 2)

        def mirrored(live: int) -> int:
            return (live & even) << 1 | (live >> 1) & even

        odd = 0  # the entries whose line's two signs disagree
        for p, q in columns:
            odd |= q ^ mirrored(p)
        for t in range(0, len(directions), 2):
            if any(map(int.__add__, directions[t], directions[t + 1])):
                odd |= 1 << t
        if odd:
            t = (odd & -odd).bit_length() - 1 & ~1
            raise InternalError(f"entries {t} and {t + 1} of the cocircuit table "
                                f"at flat {sorted(Y.contains)} are not one line's two signs")
        pos, neg = zip(*columns)
        half: dict[tuple[int, ...], int] = {}
        sums: dict[tuple[int, ...], tuple[int, ...]] = {}
        full = (1 << len(directions)) - 1
        stack = [((1,), full & ~neg[0])] if pos[0] else []  # (prefix, its conforming lines)
        while stack:
            signs, live = stack.pop()
            i = len(signs)
            if i == len(columns):
                sums[signs] = tuple(self._checked_sum(Y, signs, live))
                half[signs] = live
                continue
            if live & neg[i]:  # '+' pops first
                stack.append((signs + (-1,), live & ~pos[i]))
            if live & pos[i]:
                stack.append((signs + (1,), live & ~neg[i]))
        out = dict(half)
        for signs, live in reversed(half.items()):
            out[tuple(map(int.__neg__, signs))] = mirrored(live)
        expected = (chamber_count_oracle(self) if Y.contains == self.top.contains else
                    abs(self.mu(Y)) + sum(abs(self.mu(Z)) for Z in self.below(Y)))
        if len(out) != expected:
            raise InternalError(f"the lines of A_Y give {len(out)} topes at flat "
                                f"{sorted(Y.contains)}, but Zaslavsky counts {expected} chambers")
        return out, sums

    def beta(self, X: Flat) -> int:
        """Crapo's beta invariant of A_X, (-1)^codim X times the sum of
        mu(Z) * codim Z over the flats Z <= X: nonzero iff A_X is connected,
        that is, no product of the localizations at two lower flats (Crapo
        1967)."""
        return (-1) ** X.codim * sum(self.mu(Z) * Z.codim for Z in self.below(X) + (X,))

    @property
    def bottom(self) -> Flat:
        return self.flats[0]

    @property
    def top(self) -> Flat:
        return self.flats[-1]

    def mu(self, X: Flat) -> int:
        return self.moebius[X.contains]


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _levels(rows, dim) -> tuple[list[list[Flat]], dict[frozenset[int], list[int]]]:
    """The flats of a central family of primitive integer rows, one list per
    codim, each sorted by key, and the lower covers of every flat but the
    bottom, by closed index set: the indices, in the order of all flats, of
    the flats one level down whose restriction groups gave it, ascending.
    The family need not be essential.

    Every value of a form at a kernel row is read from one `products` map
    of the rows.  The bottom holds the forms that vanish everywhere, none
    for nonzero rows, and takes the `kernel_basis` of no forms, the unit
    rows.  Every other flat takes its kernel from the first cover X that
    generates it, by `cut_kernel(X.kernel, u, p)` with u the direction of
    the restriction that groups its new forms and p the first t where
    u[t] != 0: X's rows are canonical, one per
    free column and 0 at the other free columns, so the new form's reduced
    row has its pivot at the first free column where u != 0, each cut row
    is 0 at the remaining free columns but its own, and the cut rows are
    exactly the `kernel_basis` of the flat's forms.  The flat of all forms
    above a line is the origin, with no kernel row.  Each flat must have
    dim - codim rows.  The next level certifies them: each of a flat's
    forms must read 0 at every kernel row, and each form outside it must
    have a nonzero restriction.  A line (a flat with one kernel row) is
    certified by its n values at that row: they must hold exactly as many
    zeros as the line has forms, and each of the line's forms must read 0.
    No form outside a line vanishes on it, so the flat of all forms is its
    one upper cover.  Any failure raises InternalError."""

    def disagrees(X: Flat, i: int) -> InternalError:
        return InternalError(f"kernel of flat {sorted(X.contains)} disagrees with form {i + 1}")

    at = products(rows)  # every form's value at a kernel row
    everything = frozenset(range(len(rows)))
    levels = [[Flat(closure_of_forms(rows, dim, frozenset()), 0, tuple(kernel_basis([], dim)))]]
    lower: dict[frozenset[int], list[int]] = {}
    base = 0  # the index of levels[-1][0] among all flats
    while True:
        new: dict[frozenset[int], list[int]] = {}
        kernels: dict[frozenset[int], tuple[tuple[int, ...], ...]] = {}  # from the first cover
        for t, X in enumerate(levels[-1], base):
            if len(X.kernel) == 1:
                values = at(X.kernel[0])
                if values.count(0) != len(X.contains) or any(map(values.__getitem__, X.contains)):
                    zeros = frozenset(i for i, value in enumerate(values) if not value)
                    raise disagrees(X, min(zeros ^ X.contains))
                if X.contains != everything:
                    new.setdefault(everything, []).append(t)
                    kernels[everything] = ()  # the origin
                continue
            cols = list(map(at, X.kernel))
            groups: dict[tuple[int, ...], list[int]] = {}
            for i, restricted in enumerate(zip(*cols)):
                # the direction of the restriction, as `_direction` gives it
                g = gcd(*restricted)
                if (not g) != (i in X.contains):
                    raise disagrees(X, i)
                if not g:
                    continue
                for a in restricted:
                    if a:
                        break
                if a < 0:
                    g = -g
                direction = restricted if g == 1 else tuple(map(g.__rfloordiv__, restricted))
                groups.setdefault(direction, []).append(i)
            for u, group in groups.items():
                closed = X.contains.union(group)
                covers = new.get(closed)
                if covers is None:
                    new[closed] = covers = []
                    p = next(t for t, a in enumerate(u) if a)  # u is a direction: nonzero
                    kernels[closed] = cut_kernel(X.kernel, u, p)
                covers.append(t)
        if not new:
            return levels, lower
        lower.update(new)
        base += len(levels[-1])
        codim = len(levels)
        level = []
        for closed in sorted(new, key=sorted):
            K = kernels[closed]
            if len(K) != dim - codim:
                raise InternalError(f"flat {sorted(closed)} has {len(K)} kernel rows, "
                                    f"expected {dim - codim}")
            level.append(Flat(closed, codim, K))
        levels.append(level)


def _moebius(flats, lower) -> list[int]:
    """mu(bottom) = 1 and, by Weisner's theorem, mu(X) = -(the sum of mu over
    the lower covers of X that do not contain a = min(X.contains)); lower[t]
    holds the indices of the lower covers of flats[t], each lying before it."""
    values = [1]
    for X, covers in zip(flats[1:], lower[1:]):
        a = min(X.contains)
        values.append(-sum(values[s] for s in covers if a not in flats[s].contains))
    return values


@lru_cache(maxsize=256)
def build_lattice(A: Arrangement) -> Lattice:
    """Flats and their lower covers level by level by the restriction rule,
    then Moebius values from the covers by Weisner's theorem.

    The checks, each O(number of covers) or O(F): every flat but the bottom
    has a lower cover; every cover is one codim down with a strictly smaller
    closed set; the upper covers of each flat X split the forms outside X
    into disjoint groups (the restriction rule, so no cover is missing); and
    every Moebius value is nonzero with the sign (-1)^codim (Rota).

    Raises NotEssential when the forms meet in more than the origin, so
    that the top, the last flat, is the origin."""
    levels, covers = _levels(primitive_rows(A), A.dim)
    if len(levels) <= A.dim:
        raise NotEssential(f"forms span rank {len(levels) - 1} < {A.dim}")
    flats = [X for level in levels for X in level]
    contains = [X.contains for X in flats]
    codims = [X.codim for X in flats]
    lower = tuple(tuple(covers.get(c, ())) for c in contains)
    upper: list[list[int]] = [[] for _ in flats]
    for t, X in enumerate(contains):
        if t and not lower[t]:
            raise InternalError(f"flat {sorted(X)} has no lower cover")
        codim = codims[t] - 1
        for s in lower[t]:
            if codims[s] != codim or not contains[s] < X:
                raise InternalError(f"flat {sorted(contains[s])} is no lower cover "
                                    f"of flat {sorted(X)}")
            upper[s].append(t)
    # every upper cover Y of X holds X, so the groups Y - X split the forms
    # outside X iff their sizes |Y| - |X| add up to n - |X| and X with the
    # Y holds every form
    everything = frozenset(range(A.n))
    sizes = list(map(len, contains))
    for t, ups in enumerate(upper):
        X = contains[t]
        if (sum(map(sizes.__getitem__, ups)) - (len(ups) - 1) * sizes[t] != A.n
                or X.union(*map(contains.__getitem__, ups)) != everything):
            raise InternalError(f"the upper covers of flat {sorted(X)} do not "
                                f"split the forms outside it")
    values = _moebius(flats, lower)
    for X, v in zip(flats, values):
        if v * (-1) ** X.codim <= 0:
            raise InternalError(f"Moebius value {v} at flat {sorted(X.contains)} "
                                f"breaks Rota's sign rule")
    return Lattice(A, flats, lower, tuple(map(tuple, upper)),
                   {X.contains: v for X, v in zip(flats, values)})


def chamber_count_oracle(L: Lattice) -> int:
    """Region count from the signed Moebius sum (independent of enumeration)."""
    return sum(L.mu(X) * (-1) ** X.codim for X in L.flats)


def characteristic_polynomial(L: Lattice) -> tuple[int, ...]:
    """Coefficients c[0..dim] with chi(t) = sum c[k] * t^k."""
    dim = L.arrangement.dim
    coeffs = [0] * (dim + 1)
    for X in L.flats:
        coeffs[dim - X.codim] += L.mu(X)
    return tuple(coeffs)
