"""The benchmark's groups, built from first principles without the program.

Each :class:`Group` carries the data of one real reductive group in the
same coordinates the program's preset uses (so representatives printed for
the preset can be checked against ``theta`` and ``weights``), together with
the closed-form answers the checks compare against.  :func:`conjugate`
moves a group into a seeded random unimodular basis; the result is sent to
the program as an inline job and must reproduce the preset's answers.

Conventions follow the program's job format: cocharacters are integer row
tuples, ``theta`` acts on column vectors, and a weight is a covector paired
with cocharacters by the dot product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

# ---------------------------------------------------------------------------
# exact linear algebra on small matrices


def unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(unit(n, i) for i in range(n))


def mat_vec(m, v) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def transpose(m) -> tuple:
    return tuple(zip(*m))


def inverse(m) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def integral(m) -> tuple[tuple[int, ...], ...]:
    out = []
    for row in m:
        if any(Fraction(x).denominator != 1 for x in row):
            raise ValueError(f"matrix row {row} is not integral")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


# ---------------------------------------------------------------------------
# the group record


@dataclass(frozen=True)
class Group:
    """One real group: lattice data in preset coordinates plus closed forms.

    ``coroots`` lists one coroot of each plus/minus pair.  ``pi0`` and
    ``h1`` are the closed-form orders (None where no closed form is used).
    ``split_chars`` counts the leading display weights that are the
    characters of a torus's split block.  ``preset`` is the job document
    naming the same group as a built-in preset, or None.
    """

    name: str
    rank: int
    coroots: tuple[tuple[int, ...], ...]
    theta: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[str, tuple], ...] = ()
    named: tuple[tuple[str, tuple[int, ...]], ...] = ()
    pi0: Optional[int] = None
    h1: Optional[int] = None
    preset: Optional[dict] = None
    split_chars: int = 0
    is_gl: bool = False


def _pairs(vectors) -> tuple[tuple[int, ...], ...]:
    """One vector of each plus/minus pair, signed so its first nonzero entry is positive."""
    out = set()
    for v in vectors:
        lead = next(x for x in v if x)
        out.add(tuple(v) if lead > 0 else tuple(-x for x in v))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# classical families


def gl(n: int) -> Group:
    """GL(n, R): the split form; pi0 = R*/R_{>0} of the determinant."""
    roots = [tuple(a - b for a, b in zip(unit(n, i), unit(n, j)))
             for i in range(n) for j in range(i + 1, n)]
    return Group(
        name=f"GL({n})",
        rank=n,
        coroots=tuple(roots),
        theta=tuple(tuple(-x for x in row) for row in identity(n)),
        weights=tuple((f"eps{i + 1}", unit(n, i)) for i in range(n)),
        named=tuple((f"e{i + 1}", unit(n, i)) for i in range(n)),
        pi0=2,
        h1=2,
        preset={"preset": "GL", "n": n},
        is_gl=True,
    )


def _d_coroots(ell: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(ell):
        for j in range(i + 1, ell):
            for sj in (1, -1):
                v = [0] * ell
                v[i], v[j] = 1, sj
                out.append(tuple(v))
    return out


def _so_weights(p: int, q: int, embed) -> tuple[tuple[str, tuple], ...]:
    """Diagonal entries of the standard torus of SO(p,q) as weights.

    Position j carries eps_j for j <= p, the trivial weight in the middle,
    and -eps_{n+1-j} at the end; ``embed`` maps an eps-covector into the
    group's coordinates.
    """
    n = p + q
    ell = n // 2
    out = []
    for j in range(1, n + 1):
        if j <= p:
            out.append((f"eps{j}", embed(unit(ell, j - 1))))
        elif j <= q:
            out.append(("0", embed((0,) * ell)))
        else:
            out.append((f"-eps{n + 1 - j}", embed(tuple(-x for x in unit(ell, n - j)))))
    return tuple(out)


def so(p: int, q: int) -> Group:
    """SO(p,q), p <= q: theta is -1 on the first p of the ell torus axes."""
    ell = (p + q) // 2
    roots = _d_coroots(ell)
    if (p + q) % 2:
        roots += [tuple(2 * x for x in unit(ell, i)) for i in range(ell)]
    return Group(
        name=f"SO({p},{q})",
        rank=ell,
        coroots=tuple(roots),
        theta=tuple(tuple((-1 if i < p else 1) * int(i == j) for j in range(ell))
                    for i in range(ell)),
        weights=_so_weights(p, q, tuple),
        named=tuple((f"e{i + 1}", unit(ell, i)) for i in range(ell)),
        pi0=2 if p > 0 else 1,
        h1=2,
        preset={"preset": "SO", "p": p, "q": q},
    )


def pso(p: int, q: int) -> Group:
    """PSO(p,q), p <= q, p + q even, on the basis e_1..e_{ell-1}, w_ell.

    w_ell = (e_1 + ... + e_ell)/2, so a cocharacter v in eps coordinates
    has coordinates (v_1 - v_ell, ..., v_{ell-1} - v_ell, 2 v_ell), and a
    weight lambda becomes (lambda_1, ..., lambda_{ell-1}, sum(lambda)/2).
    """
    ell = (p + q) // 2

    def conv(v):
        return tuple(x - v[-1] for x in v[:-1]) + (2 * v[-1],)

    def conv_weight(lam):
        half = Fraction(sum(lam), 2)
        last = int(half) if half.denominator == 1 else half
        return tuple(lam[:-1]) + (last,)

    theta_eps = [(-1 if i < p else 1) for i in range(ell)]
    cols = []
    for k in range(ell):
        # column k of theta in the new basis: convert theta(basis vector k)
        basis_k = (tuple(Fraction(int(i == k)) for i in range(ell)) if k < ell - 1
                   else tuple(Fraction(1, 2) for _ in range(ell)))
        cols.append(conv(tuple(s * x for s, x in zip(theta_eps, basis_k))))
    theta = integral(transpose(cols))
    if p == q:
        order = 4 if p % 2 == 0 else 2
    else:
        order = 2 if p > 0 and p % 2 == 0 else 1
    named = [(f"e{i + 1}", conv(unit(ell, i))) for i in range(ell)]
    named.append((f"w{ell}", unit(ell, ell - 1)))
    return Group(
        name=f"PSO({p},{q})",
        rank=ell,
        coroots=_pairs(conv(v) for v in _d_coroots(ell)),
        theta=theta,
        weights=_so_weights(p, q, conv_weight),
        named=tuple(named),
        pi0=order,
        preset={"preset": "PSO", "p": p, "q": q},
    )


# ---------------------------------------------------------------------------
# simple groups from Cartan matrices


def cartan_matrix(t: str, n: int) -> tuple[tuple[int, ...], ...]:
    """C[i][j] = <alpha_i, alpha_j-check>, Bourbaki numbering."""
    c = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    if t == "E":
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    elif t == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    if t == "B":
        c[n - 2][n - 1] = -2
    elif t == "C":
        c[n - 1][n - 2] = -2
    elif t == "F":
        c[1][2] = -2
    elif t == "G":
        c[1][0] = -3
    return tuple(tuple(r) for r in c)


def coroot_closure(c) -> list[tuple[int, ...]]:
    """All coroots in simple-coroot coordinates: the Weyl orbit of the simple ones."""
    n = len(c)
    seen = {unit(n, i) for i in range(n)} | {tuple(-x for x in unit(n, i)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for j in range(n):
                image = list(m)
                image[j] -= sum(c[j][i] * m[i] for i in range(n))
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(seen)


def fundamental_two_rank(t: str, n: int) -> int:
    """2-rank of the fundamental group X/Q of the adjoint group of type t_n."""
    return {
        "A": 1 if (n + 1) % 2 == 0 else 0,
        "B": 1,
        "C": 1,
        "D": 2 if n % 2 == 0 else 1,
        "E": 1 if n == 7 else 0,
        "F": 0,
        "G": 0,
    }[t]


def simple(t: str, n: int, isogeny: str, real: str) -> Group:
    """Simply connected (basis: simple coroots) or adjoint (basis: fundamental
    coweights) group of type t_n, split (theta = -1) or compact (theta = 1)."""
    c = cartan_matrix(t, n)
    closure = coroot_closure(c)
    if isogeny == "sc":
        roots = closure
        named = tuple((f"a{i + 1}", unit(n, i)) for i in range(n))
        r = 0
    else:
        roots = [mat_vec(c, m) for m in closure]
        named = tuple((f"w{i + 1}", unit(n, i)) for i in range(n)) + tuple(
            (f"a{i + 1}", tuple(c[k][i] for k in range(n))) for i in range(n)
        )
        r = fundamental_two_rank(t, n)
    sign = -1 if real == "split" else 1
    return Group(
        name=f"{t}{n} {isogeny} {real}",
        rank=n,
        coroots=_pairs(roots),
        theta=tuple(tuple(sign * x for x in row) for row in identity(n)),
        named=named,
        pi0=2**r if real == "split" else 1,
        h1=2**r,
        preset={"preset": "SIMPLE", "type": t, "rank": n, "isogeny": isogeny, "real": real},
    )


# adjoint E7 in the program's coweight coordinates: simple coroots a1..a6
# form a chain and a7 is joined to a4
_E7_EDGES = [(i, i + 1) for i in range(5)] + [(3, 6)]
_E7_SPLIT = {"EVI": (2, 4, 5, 6), "EVII": (1, 2, 6)}
_E7_COMPACT = {"EVI": (1, 3, 7), "EVII": (3, 4, 5, 7)}
_E7_PI0 = {"EV": 2, "EVI": 1, "EVII": 2}


def e7(form: str) -> Group:
    """Adjoint E7 with the real form EV (split), EVI or EVII.

    The -1 eigenspace is spanned by fundamental coweights w_i, the +1
    eigenspace by the simple coroots a_j orthogonal to them (a_j pairs to
    zero with w_i for i != j under the invariant form).
    """
    n = 7
    c = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    for i, j in _E7_EDGES:
        c[i][j] = c[j][i] = -1
    c = tuple(tuple(r) for r in c)
    a = [tuple(c[k][i] for k in range(n)) for i in range(n)]
    if form == "EV":
        theta = tuple(tuple(-x for x in row) for row in identity(n))
    else:
        split = [unit(n, i - 1) for i in _E7_SPLIT[form]]
        compact = [a[j - 1] for j in _E7_COMPACT[form]]
        m = transpose(split + compact)
        d = [[(-1 if j < len(split) else 1) * int(i == j) for j in range(n)] for i in range(n)]
        theta = integral(mat_mul(mat_mul(m, d), inverse(m)))
    return Group(
        name=f"E7 {form}",
        rank=n,
        coroots=_pairs(mat_vec(c, m) for m in coroot_closure(c)),
        theta=theta,
        named=tuple((f"w{i + 1}", unit(n, i)) for i in range(n))
        + tuple((f"a{i + 1}", a[i]) for i in range(n)),
        pi0=_E7_PI0[form],
        preset={"preset": "E7", "form": form},
    )


# ---------------------------------------------------------------------------
# tori


def torus(a: int, b: int, c: int) -> Group:
    """a split, b compact and c Weil (swap) blocks: pi0 and H1 have order 2^a.

    The first a display weights are the split characters s1..sa.
    """
    n = a + b + 2 * c
    diag = [-1] * a + [1] * b
    theta = [[0] * n for _ in range(n)]
    for i, s in enumerate(diag):
        theta[i][i] = s
    for k in range(c):
        i = a + b + 2 * k
        theta[i][i + 1] = theta[i + 1][i] = -1
    weights = [(f"s{i + 1}", unit(n, i)) for i in range(a)]
    weights += [(f"c{i + 1}", unit(n, a + i)) for i in range(b)]
    for k in range(c):
        i = a + b + 2 * k
        weights += [(f"z{k + 1}", unit(n, i)), (f"zbar{k + 1}", unit(n, i + 1))]
    return Group(
        name=f"torus a={a} b={b} c={c}",
        rank=n,
        coroots=(),
        theta=tuple(tuple(r) for r in theta),
        weights=tuple(weights),
        named=tuple((f"e{i + 1}", unit(n, i)) for i in range(a)),
        pi0=2**a,
        h1=2**a,
        split_chars=a,
    )


# ---------------------------------------------------------------------------
# basis changes


def random_unimodular(rng: random.Random, n: int):
    """A seeded unimodular matrix u and its inverse.

    2n elementary row operations with multiplier +-1, then a signed
    permutation: the entries stay small, so the cost of a conjugated job
    varies little from seed to seed.
    """
    u = [list(r) for r in identity(n)]
    uinv = [list(r) for r in identity(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
        for row in uinv:
            row[j] -= s * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    u = [[signs[k] * x for x in u[perm[k]]] for k in range(n)]
    uinv = [[signs[k] * row[perm[k]] for k in range(n)] for row in uinv]
    return tuple(tuple(r) for r in u), tuple(tuple(r) for r in uinv)


def conjugate(g: Group, rng: random.Random) -> Group:
    """The same group in a seeded random basis v -> u.v.

    Cocharacters map by u, weights by the inverse transpose (pairings are
    kept), and theta by conjugation.  The result has no preset.
    """
    u, uinv = random_unimodular(rng, g.rank)
    if mat_mul(u, uinv) != identity(g.rank):
        raise AssertionError("basis change is not unimodular")
    uinv_t = transpose(uinv)

    def weight(w):
        out = mat_vec(uinv_t, [Fraction(x) for x in w])
        return tuple(int(x) if x.denominator == 1 else x for x in out)

    return replace(
        g,
        name=g.name + " (random basis)",
        coroots=tuple(mat_vec(u, v) for v in g.coroots),
        theta=mat_mul(mat_mul(u, g.theta), uinv),
        weights=tuple((lbl, weight(w)) for lbl, w in g.weights),
        named=tuple((nm, mat_vec(u, v)) for nm, v in g.named),
        preset=None,
    )
