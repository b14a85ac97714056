"""Independent checks of hyparr's CLI reports.

Every check recomputes what it needs with plain `fractions.Fraction`
arithmetic from the input forms and the printed JSON.  Nothing here imports
hyparr, so a fault in the package cannot also hide in its own check.

The expected counts come from closed forms where the arrangement family has
one (generic arrangements, braid arrangements) and otherwise from Whitney's
subset-rank sum, chi(t) = sum over subsets S of (-1)^|S| t^(dim - rank S).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial


class CheckFailed(Exception):
    """A printed report disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Exact arithmetic on the input forms


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def rank(rows) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def sign(x) -> int:
    return (x > 0) - (x < 0)


def signs_of(s: str) -> tuple[int, ...]:
    require(s != "" and set(s) <= {"+", "-"}, f"bad sign string {s!r}")
    return tuple(1 if ch == "+" else -1 for ch in s)


def flip(s: str, i: int) -> str:
    return s[:i] + ("-" if s[i] == "+" else "+") + s[i + 1:]


# ---------------------------------------------------------------------------
# Expected combinatorics: closed forms and Whitney's subset sum.
# Polynomials are lists of coefficients, highest degree first, the order the
# CLI prints `characteristic_polynomial` in.


def whitney_polynomial(forms, dim) -> list[int]:
    coeffs = [0] * (dim + 1)  # coeffs[d] multiplies t^d
    n = len(forms)
    for size in range(n + 1):
        for S in combinations(range(n), size):
            coeffs[dim - rank([forms[i] for i in S])] += (-1) ** size
    return list(reversed(coeffs))


def brute_force_flat_counts(forms, dim) -> dict[int, int]:
    """Flats per codimension, from the closures of all subsets."""
    n = len(forms)
    closed: set[frozenset[int]] = set()
    codims: dict[int, int] = {}
    for size in range(n + 1):
        for S in combinations(range(n), size):
            r = rank([forms[i] for i in S])
            closure = frozenset(j for j in range(n)
                                if rank([forms[i] for i in S] + [forms[j]]) == r)
            if closure not in closed:
                closed.add(closure)
                codims[r] = codims.get(r, 0) + 1
    return codims


def generic_polynomial(n: int, dim: int) -> list[int]:
    """chi(t) of n forms in R^dim with every dim of them independent."""
    coeffs = [(-1) ** c * comb(n, c) for c in range(dim)]
    coeffs.append(-sum(coeffs))
    return coeffs


def generic_flat_counts(n: int, dim: int) -> dict[int, int]:
    counts = {c: comb(n, c) for c in range(dim)}
    counts[dim] = 1
    return counts


def braid_polynomial(m: int) -> list[int]:
    """prod_{i=1}^{m-1} (t - i): the essential braid arrangement in R^(m-1)."""
    coeffs = [1]
    for i in range(1, m):
        coeffs = [a - i * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def braid_flat_counts(m: int) -> dict[int, int]:
    """Set partitions of m points by number of blocks; codim = m - blocks."""
    stirling = [[0] * (m + 1) for _ in range(m + 1)]
    stirling[0][0] = 1
    for a in range(1, m + 1):
        for b in range(1, a + 1):
            stirling[a][b] = b * stirling[a - 1][b] + stirling[a - 1][b - 1]
    return {m - b: stirling[m][b] for b in range(1, m + 1)}


def chambers_of(poly: list[int]) -> int:
    """|chi(-1)| (Zaslavsky)."""
    d = len(poly) - 1
    return abs(sum(c * (-1) ** (d - k) for k, c in enumerate(poly)))


# ---------------------------------------------------------------------------
# The case under check


@dataclass
class Case:
    """One input file: its forms, what its answers must be, and the eps
    vector of the paper's pipeline when it has one.

    `family` is ("generic", n, dim), ("braid", m) or ("whitney",).
    `known` is filled by earlier checks of the same case (the verified
    chamber list) and read by later ones.
    """

    name: str
    dim: int
    forms: tuple[tuple[Fraction, ...], ...]
    family: tuple
    eps: str | None = None
    data: bytes = b""
    known: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.forms)

    def polynomial(self) -> list[int]:
        if "polynomial" not in self.known:
            kind = self.family[0]
            if kind == "generic":
                poly = generic_polynomial(self.family[1], self.family[2])
            elif kind == "braid":
                poly = braid_polynomial(self.family[1])
            else:
                poly = whitney_polynomial(self.forms, self.dim)
            self.known["polynomial"] = poly
        return self.known["polynomial"]

    def flat_counts(self) -> dict[int, int]:
        kind = self.family[0]
        if kind == "generic":
            return generic_flat_counts(self.family[1], self.family[2])
        if kind == "braid":
            return braid_flat_counts(self.family[1])
        return brute_force_flat_counts(self.forms, self.dim)

    def chambers(self) -> int:
        if self.family[0] == "braid":
            return factorial(self.family[1])
        return chambers_of(self.polynomial())


# ---------------------------------------------------------------------------
# Pieces shared by several reports


def _header(case: Case, doc: dict, command: str) -> dict:
    require("error" not in doc, f"{command} reported an error: {doc.get('error')}")
    require(doc.get("command") == command,
            f"command is {doc.get('command')!r}, expected {command!r}")
    if case.data:
        digest = "sha256:" + hashlib.sha256(case.data).hexdigest()
        require(doc.get("input_digest") == digest, "input digest does not match the file")
    return doc["payload"]


def _certificates(doc: dict) -> dict[str, dict]:
    return {c["id"]: c for c in doc.get("certificates", [])}


def _rationals(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _indices(case: Case, ones, increasing: bool = True) -> list[int]:
    """1-based printed indices to 0-based, checking range (and order)."""
    idx = [i - 1 for i in ones]
    require(all(0 <= i < case.n for i in idx), f"index out of range in {ones}")
    if increasing:
        require(idx == sorted(set(idx)), f"indices {ones} are not strictly increasing")
    return idx


def check_flat(case: Case, flat: dict) -> list[int]:
    """Every kernel vector is annihilated by exactly the listed forms, and the
    kernel has full rank dim - codim."""
    contains = _indices(case, flat["contains"])
    codim = flat["codim"]
    kernel = [_rationals(row) for row in flat["kernel"]]
    require(len(kernel) == case.dim - codim,
            f"flat {flat['contains']}: {len(kernel)} kernel rows for codim {codim}")
    require(rank(kernel) == len(kernel), f"flat {flat['contains']}: dependent kernel rows")
    require(rank([case.forms[i] for i in contains]) == codim,
            f"flat {flat['contains']}: listed forms do not have rank {codim}")
    inside = set(contains)
    for j, f in enumerate(case.forms):
        vanishes = all(dot(f, k) == 0 for k in kernel)
        require(vanishes == (j in inside),
                f"flat {flat['contains']}: form {j + 1} "
                f"{'vanishes' if vanishes else 'does not vanish'} on the kernel")
    return contains


def check_dual(case: Case, eps: tuple[int, ...], indices, coeffs) -> None:
    """A nonnegative, nonzero combination of the signed forms that is zero."""
    y = _rationals(coeffs)
    require(len(y) == len(indices), f"dual has {len(y)} entries for {len(indices)} forms")
    require(all(v >= 0 for v in y), f"dual {coeffs} has a negative entry")
    require(any(v != 0 for v in y), "dual is zero")
    for c in range(case.dim):
        total = sum((v * eps[i] * case.forms[i][c] for v, i in zip(y, indices)), Fraction(0))
        require(total == 0, f"dual {coeffs} does not sum to zero in coordinate {c + 1}")


def check_strict_witness(case: Case, eps: tuple[int, ...], indices, point) -> None:
    w = _rationals(point)
    require(len(w) == case.dim, f"witness {point} has the wrong length")
    for i in indices:
        require(eps[i] * dot(case.forms[i], w) > 0,
                f"witness {point} is not strictly on side {eps[i]:+d} of hyperplane {i + 1}")


def _check_counts(case: Case, counts: list[dict]) -> dict[int, int]:
    by_k = {c["k"]: c["count"] for c in counts}
    require(sorted(by_k) == list(range(1, case.dim + 1)), f"counts for k = {sorted(by_k)}")
    require(by_k[1] == 2 ** case.n, f"count_1 = {by_k[1]}, expected 2^{case.n}")
    for k in range(1, case.dim):
        require(by_k[k] >= by_k[k + 1], f"count_{k + 1} > count_{k}")
    expected = case.chambers()
    require(by_k[case.dim] == expected,
            f"count_{case.dim} = {by_k[case.dim]}, but the arrangement has {expected} chambers")
    return by_k


# ---------------------------------------------------------------------------
# One check per CLI command


def check_lattice(case: Case, doc: dict) -> None:
    p = _header(case, doc, "lattice")
    flats = p["flats"]
    per_codim: dict[int, int] = {}
    mu_sum: dict[int, int] = {}
    seen = set()
    for flat in flats:
        contains = tuple(check_flat(case, flat))
        require(contains not in seen, f"flat {flat['contains']} listed twice")
        seen.add(contains)
        c, mu = flat["codim"], flat["mu"]
        require(mu != 0 and sign(mu) == (-1) ** c,
                f"flat {flat['contains']}: Moebius value {mu} at codim {c}")
        per_codim[c] = per_codim.get(c, 0) + 1
        mu_sum[c] = mu_sum.get(c, 0) + mu
    expected = case.flat_counts()
    require(per_codim == expected, f"flats per codim {per_codim}, expected {expected}")
    poly = case.polynomial()
    require(p["characteristic_polynomial"] == poly,
            f"characteristic polynomial {p['characteristic_polynomial']}, expected {poly}")
    require([mu_sum.get(c, 0) for c in range(case.dim + 1)] == poly,
            "Moebius values do not sum to the characteristic polynomial")
    require(p["zaslavsky_chambers"] == chambers_of(poly) == case.chambers(),
            f"zaslavsky_chambers = {p['zaslavsky_chambers']}, expected {case.chambers()}")


def check_sigma(case: Case, doc: dict) -> None:
    p = _header(case, doc, "sigma")
    counts = _check_counts(case, p["counts"])
    certs = _certificates(doc)
    sets = {int(k): v for k, v in p.get("sets", {}).items()}
    for k, members in sets.items():
        require(len(members) == counts[k] == len(set(members)),
                f"Sigma_{k} lists {len(members)} sign vectors, count {counts[k]}")
        if k + 1 in sets:
            require(set(sets[k + 1]) <= set(members), f"Sigma_{k + 1} is not inside Sigma_{k}")
    drops = [k for k in range(1, case.dim) if counts[k] > counts[k + 1]]
    require([w["k"] for w in p["witnesses"]] == drops,
            f"witnesses at k = {[w['k'] for w in p['witnesses']]}, drops at {drops}")
    for w in p["witnesses"]:
        k, eps = w["k"], signs_of(w["eps"])
        require(len(eps) == case.n, "witness eps has the wrong length")
        contains = check_flat(case, w["flat"])
        require(w["flat"]["codim"] == k + 1, f"witness flat for k = {k} is not of codim {k + 1}")
        check_dual(case, eps, contains, certs[w["certificate"]]["dual"])
        if k in sets and k + 1 in sets:
            require(w["eps"] in sets[k] and w["eps"] not in sets[k + 1],
                    f"witness {w['eps']} is not in Sigma_{k} minus Sigma_{k + 1}")


def check_obstruct(case: Case, doc: dict) -> None:
    p = _header(case, doc, "obstruct")
    counts = _check_counts(case, p["counts"])
    certs = _certificates(doc)
    drops = [k for k in range(2, case.dim) if counts[k] > counts[k + 1]]
    require([g["k"] for g in p["gaps"]] == drops,
            f"gaps at k = {[g['k'] for g in p['gaps']]}, drops at {drops}")
    for g in p["gaps"]:
        k, eps = g["k"], signs_of(g["eps"])
        require(g["pi_nonzero"] == k, "pi_nonzero differs from k")
        contains = check_flat(case, g["flat"])
        require(g["flat"]["codim"] == k + 1, f"gap flat for k = {k} is not of codim {k + 1}")
        check_dual(case, eps, contains, certs[g["dual_certificate"]]["dual"])
        for up in g["upper_witnesses"]:
            idx = _indices(case, up["flat"])
            require(set(idx) < set(contains),
                    f"upper flat {up['flat']} is not above {g['flat']['contains']}")
            check_strict_witness(case, eps, idx, certs[up["certificate"]]["witness"])
    minimal = drops[0] if drops else None
    require(p["minimal_k"] == minimal, f"minimal_k = {p['minimal_k']}, expected {minimal}")
    require(p["kpi1_possible"] == (minimal is None), "kpi1_possible disagrees with the gaps")
    require(p["exhaustive"] is True, "an exhaustive run reports exhaustive = false")


def check_chambers(case: Case, doc: dict) -> None:
    """Witness signs, walls by flips and the count; records the verified list."""
    p = _header(case, doc, "chambers")
    certs = _certificates(doc)
    chambers = [c["signs"] for c in p["chambers"]]
    expected = case.chambers()
    require(p["count"] == len(chambers) == expected,
            f"{p['count']} chambers listed as {len(chambers)}, expected {expected}")
    require(p["zaslavsky_chambers"] == expected,
            f"zaslavsky_chambers = {p['zaslavsky_chambers']}, expected {expected}")
    members = set(chambers)
    require(len(members) == len(chambers), "a chamber is listed twice")
    walls = {}
    for c in p["chambers"]:
        s = c["signs"]
        eps = signs_of(s)
        require(len(eps) == case.n, f"chamber {s} has the wrong length")
        check_strict_witness(case, eps, range(case.n), certs[c["certificate"]]["witness"])
        flips = [i for i in range(case.n) if flip(s, i) in members]
        require(_indices(case, c["walls"]) == flips,
                f"chamber {s}: walls {c['walls']}, but flips give {[i + 1 for i in flips]}")
        require(len(flips) >= case.dim, f"chamber {s} has {len(flips)} < dim walls")
        walls[s] = flips
    case.known["chambers"] = walls


def _walls(case: Case) -> dict[str, list[int]]:
    require("chambers" in case.known, f"{case.name}: chambers must be checked first")
    return case.known["chambers"]


def _check_flow(case: Case, path: list[str], eps: tuple[int, ...]) -> list[int]:
    """The flow starts at the lex-smallest chamber and crosses, at each step,
    the lowest-index wall on the wrong side of eps; returns the crossed indices."""
    walls = _walls(case)
    require(path and path[0] == min(walls), f"flow starts at {path[:1]}, not {min(walls)}")
    crossed = []
    for a, b in zip(path, path[1:]):
        require(b in walls, f"flow visits {b}, which is not a chamber")
        diff = [i for i in range(case.n) if a[i] != b[i]]
        require(len(diff) == 1, f"flow step {a} -> {b} flips {len(diff)} signs")
        bad = [i for i in walls[a] if signs_of(a)[i] != eps[i]]
        require(bad and diff[0] == bad[0],
                f"flow step {a} -> {b} does not cross the lowest disagreeing wall")
        crossed.append(diff[0])
    require(len(set(crossed)) == len(crossed), "the flow crosses a hyperplane twice")
    sink = path[-1]
    require(all(signs_of(sink)[i] == eps[i] for i in walls[sink]),
            f"{sink} disagrees with eps on a wall, so it is no sink")
    return crossed


def check_sink(case: Case, doc: dict) -> None:
    p = _header(case, doc, "sink")
    eps = signs_of(p["eps"])
    require(p["eps"] == case.eps, f"sink ran with eps {p['eps']}")
    walls = _walls(case)
    require(p["start"] == p["path"][0], "the path does not begin at start")
    crossed = _check_flow(case, p["path"], eps)
    require(_indices(case, p["crossed"], increasing=False) == crossed,
            f"crossed {p['crossed']} differs from the path's flips")
    require(p["sink"] == p["path"][-1], "sink is not the last chamber of the path")
    check_strict_witness(case, signs_of(p["sink"]), range(case.n),
                         _certificates(doc)[p["sink_certificate"]]["witness"])
    sinks = [s for s in walls if all(signs_of(s)[i] == eps[i] for i in walls[s])]
    require(p["all_sinks"] == sinks, f"all_sinks {p['all_sinks']}, expected {sinks}")


def check_certify(case: Case, doc: dict) -> None:
    p = _header(case, doc, "certify")
    certs = _certificates(doc)
    eps = signs_of(p["eps"])
    require(p["eps"] == case.eps, f"certify ran with eps {p['eps']}")
    _check_flow(case, p["flow_path"], eps)
    sink = p["sink"]
    require(sink == p["flow_path"][-1], "sink is not the end of the flow")
    T = [i for i in range(case.n) if signs_of(sink)[i] != eps[i]]
    require(_indices(case, p["separating"]) == T, f"separating {p['separating']}, expected T = {T}")
    weights = _rationals(p["weights"])
    require(len(weights) == case.n, "one weight per hyperplane is required")
    require(sum(weights, Fraction(0)).denominator == 1, "weights do not sum to an integer")
    t_sum = sum((weights[i] for i in T), Fraction(0))
    rotation = Fraction(p["rotation"])
    require(rotation == t_sum - (t_sum.numerator // t_sum.denominator),
            f"rotation {rotation} is not the separating sum {t_sum} mod 1")
    require(0 < rotation < 1, f"rotation {rotation} is not in (0, 1)")
    mono = certs[p["certificate"]]["monodromy"]
    require(mono == {"sink": sink, "separating": p["separating"],
                     "weights": p["weights"], "rotation": p["rotation"]},
            "monodromy certificate differs from the payload")
    check_dual(case, eps, range(case.n), certs[p["global_inconsistency_certificate"]]["dual"])


def check_sphere(case: Case, doc: dict, count: int) -> None:
    p = _header(case, doc, "sphere")
    eps = signs_of(p["eps"])
    require(p["eps"] == case.eps, f"sphere ran with eps {p['eps']}")
    points = p["points"]
    require(p["count"] == count == len(points), f"{len(points)} points for count {count}")
    for pt in points:
        x, v = _rationals(pt["real"]), _rationals(pt["imag"])
        require(len(x) == len(v) == case.dim, "a sample point has the wrong length")
        require(sum((abs(a) for a in x), Fraction(0)) == 1, f"|x|_1 != 1 for x = {pt['real']}")
        for i, f in enumerate(case.forms):
            ax, av = dot(f, x), dot(f, v)
            require(ax != 0 or av != 0, f"hyperplane {i + 1} contains x and v")
            if ax == 0:
                require(sign(av) == eps[i],
                        f"on hyperplane {i + 1} the imaginary part is on the wrong side")
