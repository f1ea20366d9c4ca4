"""Root data for connected reductive groups, presented on the cocharacter lattice.

A :class:`RootDatum` is its rank, a finite symmetric set of coroots, and
optional bookkeeping for printing results (weights to evaluate on torus
elements, preferred names for distinguished lattice vectors).  The two
lattices the component-group computation consumes are derived from that:
the cocharacter lattice X is always the standard lattice of the rank, in
coordinates of our choosing, and the coroot lattice Q is the span of the
coroots.

Builders are provided for the standard families: GL(n), SO(p,q), PSO(p,q),
split/compact/Weil-restriction tori, and simply connected or adjoint simple
groups of each Cartan type, each with the integer matrix of its involution.
Each takes its pieces from the builder that already makes them: GL(n) is
the split torus of rank n with its coroots put in, PSO(p,q) is SO(p,q)
converted to a basis of its finer cocharacter lattice, and ``_diagonal``
writes every +-1-diagonal involution.
Adjoint E7 is also built in the node order that names its exceptional real
forms, with theta = -w_K for each form EV, EVI, EVII with black nodes K.
This module builds data only and imports nothing above intlattice:
the preset table that names these builders, validates their fields and
turns each matrix into an involution is ``realform.PRESETS``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional, Sequence

from .intlattice import (
    IntMatrix,
    Lattice,
    as_int_matrix,
    identity_matrix,
    integer_row,
    matrix_action,
    transpose,
)


class PresetError(ValueError):
    """Raised when a preset name or its parameters are invalid."""


# how much of an offending value an error message quotes
QUOTE_LIMIT = 80


def _brief(text: str) -> str:
    """At most QUOTE_LIMIT characters of text, with an ellipsis when cut.

    Error messages quote values from the job through this, so one huge
    value cannot make a huge message.
    """
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _neg(v: Sequence) -> tuple:
    return tuple(-x for x in v)


def _difference(n: int, i: int, j: int) -> tuple[int, ...]:
    """e_i - e_j in Z^n, for i != j."""
    v = [0] * n
    v[i], v[j] = 1, -1
    return tuple(v)


def _diagonal(signs: Sequence[int]) -> IntMatrix:
    """The diagonal matrix with the given entries, such as theta's +-1 per axis."""
    n = len(signs)
    return tuple(tuple(s if i == j else 0 for j in range(n)) for i, s in enumerate(signs))


# ---------------------------------------------------------------------------
# the datum itself


@dataclass(frozen=True)
class RootDatum:
    """The rank, a symmetric set of coroots, and printing metadata.

    X and Q are derived, not stored: ``cochar`` is the standard lattice
    Z^rank, and ``coroots`` is the lattice spanned by ``coroot_generators``.
    Both are built on first use and cached.  A builder that knows a basis
    of Q passes it as ``coroot_basis``, and Q is spanned by that alone; it
    takes no part in printing or comparing a datum.

    ``display_weights`` are pairs (label, weight) of characters evaluated on
    torus representatives; a weight is a covector, stored as a plain tuple in
    the coordinates dual to ``cochar``.  ``named_vectors`` are pairs
    (name, vector) of distinguished cocharacters, in order of preference when
    choosing generators.  ``lift_note`` is attached verbatim to
    printed representatives when the matrix realization is only defined up to
    a choice (e.g. a double cover).
    """

    rank: int
    coroot_generators: tuple[tuple[int, ...], ...] = ()
    display_weights: tuple[tuple[str, tuple], ...] = ()
    named_vectors: tuple[tuple[str, tuple[int, ...]], ...] = ()
    name: str = ""
    lift_note: Optional[str] = None
    coroot_basis: Optional[tuple[tuple[int, ...], ...]] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def cochar(self) -> Lattice:
        """The cocharacter lattice X = Z^rank."""
        return Lattice.standard(self.rank)

    @cached_property
    def coroots(self) -> Lattice:
        """The coroot lattice Q, spanned by ``coroot_basis`` when it is given.

        Otherwise it is spanned by one coroot of each +- pair, the one whose
        first nonzero entry is positive; a set that is not symmetric still
        gets the span of all its coroots.
        """
        basis = self.coroot_basis
        if basis is None:
            zero = (0,) * self.rank
            basis = tuple(
                dict.fromkeys(c if c > zero else _neg(c) for c in self.coroot_generators)
            )
        return Lattice(self.rank, basis)

    @cached_property
    def weight_terms(self) -> tuple[tuple[str, int, tuple[tuple[int, int], ...]], ...]:
        """Each display weight w as (label, c, the nonzero (index, entry) pairs
        of c * w), c the lcm of w's denominators.

        Everything is an int, so pairing a weight with an integer vector
        stays in ints.
        """
        out = []
        for label, w in self.display_weights:
            c, ints = integer_row(w)
            out.append((label, c, tuple((j, x) for j, x in zip(range(self.rank), ints) if x)))
        return tuple(out)


def product(a: RootDatum, b: RootDatum) -> RootDatum:
    """Direct product of two root data, concatenating coordinates.

    Q's basis is the factors' Hermite bases of Q, shifted into place, so
    the product's coroots are not reduced again.
    """
    if a.rank == 0:
        return b
    if b.rank == 0:
        return a
    n = a.rank + b.rank

    def left(v):
        return tuple(v) + (0,) * b.rank

    def right(v):
        return (0,) * a.rank + tuple(v)

    gens = tuple(left(c) for c in a.coroot_generators) + tuple(
        right(c) for c in b.coroot_generators
    )
    weights = tuple((lbl, left(w)) for lbl, w in a.display_weights) + tuple(
        (lbl, right(w)) for lbl, w in b.display_weights
    )
    named = list((nm, left(v)) for nm, v in a.named_vectors)
    taken = {nm for nm, _ in named}
    for nm, v in b.named_vectors:
        if nm not in taken:
            named.append((nm, right(v)))
            taken.add(nm)
    name = " x ".join(s for s in (a.name, b.name) if s)
    return RootDatum(
        rank=n,
        coroot_generators=gens,
        display_weights=weights,
        named_vectors=tuple(named),
        name=name,
        lift_note=a.lift_note or b.lift_note,
        coroot_basis=tuple(map(left, a.coroots.basis)) + tuple(map(right, b.coroots.basis)),
    )


# ---------------------------------------------------------------------------
# classical families


def gl(n: int) -> tuple[RootDatum, IntMatrix]:
    """GL(n, R): the split torus of rank n with the coroots e_i - e_j."""
    if n < 1:
        raise PresetError("GL(n) needs n >= 1")
    rd, theta = torus_split(n)
    gens = tuple(_difference(n, i, j) for i in range(n) for j in range(n) if i != j)
    basis = tuple(_difference(n, i, i + 1) for i in range(n - 1))
    return replace(rd, coroot_generators=gens, name=f"GL({n})", coroot_basis=basis), theta


def _normalize_signature(p: int, q: int) -> tuple[int, int]:
    if p < 0 or q < 0:
        raise PresetError("signature entries must be nonnegative")
    return (p, q) if p <= q else (q, p)


def _so_like_display(p: int, q: int) -> tuple[tuple[str, tuple], ...]:
    """Diagonal entries of the standard torus of SO(p,q), as weights in
    eps-coordinates.

    Position j of the diagonal carries eps_j for j <= p, the constant 1
    for the middle positions of an odd group, and -eps_{n+1-j} at the end.
    """
    n = p + q
    ell = n // 2
    out = []
    for j in range(1, n + 1):
        if j <= p:
            out.append((f"eps{j}", _unit(ell, j - 1)))
        elif j <= q:
            out.append(("0", (0,) * ell))
        else:
            out.append((f"-eps{n + 1 - j}", _neg(_unit(ell, n - j))))
    return tuple(out)


def _d_coroots(ell: int) -> list[tuple[int, ...]]:
    """The coroots +-e_i +-e_j (i < j) of type D_ell, in eps-coordinates."""
    out = []
    for i, j in itertools.combinations(range(ell), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * ell
            v[i], v[j] = si, sj
            out.append(tuple(v))
    return out


def _bd_simple_coroots(ell: int, odd: bool) -> tuple[tuple[int, ...], ...]:
    """The simple coroots of B_ell (odd) or D_ell, in eps-coordinates:
    e_i - e_{i+1}, then 2 e_ell for B or e_{ell-1} + e_ell for D."""
    last = [0] * ell
    if odd:
        last[-1] = 2
    else:
        last[-2:] = [1, 1]
    return tuple(_difference(ell, i, i + 1) for i in range(ell - 1)) + (tuple(last),)


def so(p: int, q: int) -> tuple[RootDatum, IntMatrix]:
    """SO(p,q): type B or D datum with theta = -1 on the first p axes."""
    p, q = _normalize_signature(p, q)
    n = p + q
    if n < 3:
        raise PresetError("SO(p,q) needs p + q >= 3")
    ell = n // 2
    gens = _d_coroots(ell)
    if n % 2 == 1:
        for i in range(ell):
            gens.append(tuple(2 * x for x in _unit(ell, i)))
            gens.append(tuple(-2 * x for x in _unit(ell, i)))
    rd = RootDatum(
        rank=ell,
        coroot_generators=tuple(gens),
        display_weights=_so_like_display(p, q),
        named_vectors=tuple((f"e{i + 1}", _unit(ell, i)) for i in range(ell)),
        name=f"SO({p},{q})",
        coroot_basis=_bd_simple_coroots(ell, n % 2 == 1),
    )
    return rd, _diagonal([-1 if i < p else 1 for i in range(ell)])


def pso(p: int, q: int) -> tuple[RootDatum, IntMatrix]:
    """PSO(p,q) for p+q even: the adjoint quotient of SO(p,q).

    The cocharacter lattice is Z^ell in the basis
    e_1, ..., e_{ell-1}, w_ell  where w_ell = (e_1 + ... + e_ell)/2 in the
    eps-coordinates of SO; the datum and theta of so(p, q) are converted
    into that basis in integers, so the datum again lives on the standard
    lattice.
    """
    p, q = _normalize_signature(p, q)
    n = p + q
    if n < 4 or n % 2 != 0:
        raise PresetError("PSO(p,q) needs p + q even and at least 4")
    so_rd, so_theta = so(p, q)
    ell = n // 2

    # v in eps-coordinates has coordinates v_i - v_ell (i < ell) and 2 v_ell
    # in the basis above, so a v with v_ell = 0 keeps its coordinates
    def conv_vec(v) -> tuple[int, ...]:
        last = v[-1]
        return tuple(x - last for x in v[:-1]) + (2 * last,) if last else v

    # the same map given u = 2v, so that w_ell stays integral;
    # u_i - u_ell is even for every vector it is given here
    def from_doubled(u) -> tuple[int, ...]:
        return tuple((x - u[-1]) // 2 for x in u[:-1]) + (u[-1],)

    # a weight pairs with e_i (i < ell) as before and with w_ell as half its sum
    def conv_weight(lmbda) -> tuple:
        half = Fraction(sum(lmbda), 2)
        return tuple(lmbda[:-1]) + (int(half) if half.denominator == 1 else half,)

    named = [(nm, conv_vec(v)) for nm, v in so_rd.named_vectors]
    named.append((f"w{ell}", _unit(ell, ell - 1)))
    rd = RootDatum(
        rank=ell,
        coroot_generators=tuple(map(conv_vec, so_rd.coroot_generators)),
        display_weights=tuple((lbl, conv_weight(w)) for lbl, w in so_rd.display_weights),
        named_vectors=tuple(named),
        name=f"PSO({p},{q})",
        lift_note="matrix entries fixed only up to a global sign",
        coroot_basis=tuple(map(conv_vec, so_rd.coroot_basis)),
    )
    # column k of theta is SO's theta applied to basis vector k, doubled
    theta_eps = matrix_action(so_theta, ell)
    doubled = [[2 * x for x in _unit(ell, k)] for k in range(ell - 1)] + [[1] * ell]
    return rd, transpose([from_doubled(theta_eps(b)) for b in doubled])


# ---------------------------------------------------------------------------
# tori


def _torus(n: int, sign: int, kind: str) -> tuple[RootDatum, IntMatrix]:
    if n < 0:
        raise PresetError("torus rank must be nonnegative")
    rd = RootDatum(
        rank=n,
        display_weights=tuple((f"eps{i + 1}", _unit(n, i)) for i in range(n)),
        named_vectors=tuple((f"e{i + 1}", _unit(n, i)) for i in range(n)),
        name=f"{kind} torus of rank {n}",
    )
    return rd, _diagonal([sign] * n)


def torus_split(n: int) -> tuple[RootDatum, IntMatrix]:
    return _torus(n, -1, "split")


def torus_compact(n: int) -> tuple[RootDatum, IntMatrix]:
    return _torus(n, 1, "compact")


def torus_weil() -> tuple[RootDatum, IntMatrix]:
    """The real torus with complex points C* x C* and Galois swapping factors.

    Its real points form a single copy of C*, which is connected; theta is
    the negated swap on the rank-2 cocharacter lattice.
    """
    rd = RootDatum(
        rank=2,
        named_vectors=(("e1", (1, 0)), ("e2", (0, 1))),
        name="Weil restriction of C*",
    )
    return rd, ((0, -1), (-1, 0))


# ---------------------------------------------------------------------------
# simple groups from Cartan matrices


def cartan_matrix(cartan_type: str, rank: int) -> IntMatrix:
    """Integer Cartan matrix C[i][j] = <alpha_i, alpha_j-check>, Bourbaki order."""
    t = cartan_type.upper()
    n = rank
    if t == "A" and n >= 1:
        pairs = [(i, i + 1) for i in range(n - 1)]
        special = {}
    elif t == "B" and n >= 2:
        pairs = [(i, i + 1) for i in range(n - 1)]
        special = {(n - 2, n - 1): -2}
    elif t == "C" and n >= 2:
        pairs = [(i, i + 1) for i in range(n - 1)]
        special = {(n - 1, n - 2): -2}
    elif t == "D" and n >= 3:
        pairs = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        special = {}
    elif t == "E" and n in (6, 7, 8):
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        pairs = list(zip(chain, chain[1:])) + [(1, 3)]
        special = {}
    elif t == "F" and n == 4:
        pairs = [(0, 1), (1, 2), (2, 3)]
        special = {(1, 2): -2}
    elif t == "G" and n == 2:
        pairs = [(0, 1)]
        special = {(1, 0): -3}
    else:
        raise PresetError(f"no simple group of type {_brief(f'{cartan_type}{rank}')}")
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in pairs:
        c[i][j] = c[j][i] = -1
    for (i, j), v in special.items():
        c[i][j] = v
    return as_int_matrix(c)


@cache
def _coroot_closure(cartan: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """All coroots, as integer coordinate vectors over the simple coroots.

    Orbit of the simple coroots under the simple reflections; the reflection
    s_j sends a coordinate vector c to c - (C.c)_j e_j.  Cached per Cartan
    matrix, since every E7 and SIMPLE job walks one.
    """
    n = len(cartan)
    pairings = matrix_action(cartan, n)
    frontier = {_unit(n, i) for i in range(n)} | {_neg(_unit(n, i)) for i in range(n)}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for c in frontier:
            for j, pairing in enumerate(pairings(c)):
                if not pairing:
                    continue  # s_j fixes c
                image = list(c)
                image[j] -= pairing
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    nxt.add(image)
        frontier = nxt
    return tuple(sorted(seen))


def _simple_datum(cartan: IntMatrix, isogeny: str, name: str) -> RootDatum:
    """The simple datum of a Cartan matrix, in either isogeny.

    In the simply connected case the cocharacter lattice is spanned by the
    simple coroots; in the adjoint case by the fundamental coweights, so a
    coroot with simple-coroot coordinates c becomes the vector C.c.  The
    simple coroots are a basis of Q: the standard basis, or the columns of C.
    """
    n = len(cartan)
    coords = _coroot_closure(cartan)
    if isogeny == "sc":
        vecs = coords
        simple_coroots = identity_matrix(n)
        named = tuple((f"a{i + 1}", e) for i, e in enumerate(simple_coroots))
    else:
        vecs = tuple(map(matrix_action(cartan, n), coords))
        simple_coroots = transpose(cartan)
        named = tuple((f"w{i + 1}", _unit(n, i)) for i in range(n)) + tuple(
            (f"a{i + 1}", col) for i, col in enumerate(simple_coroots)
        )
    return RootDatum(
        rank=n, coroot_generators=vecs, named_vectors=named, name=name,
        coroot_basis=simple_coroots,
    )


def simple(
    cartan_type: str, rank: int, isogeny: str, real: str
) -> tuple[RootDatum, IntMatrix]:
    """Simply connected or adjoint simple group, split or compact."""
    if isogeny == "adjoint":
        isogeny = "adj"
    if isogeny not in ("sc", "adj"):
        raise PresetError(
            f"isogeny must be 'sc' or 'adj', not {_brief(repr(isogeny))}"
        )
    if real not in ("split", "compact"):
        raise PresetError(
            f"real form must be 'split' or 'compact', not {_brief(repr(real))}"
        )
    rd = _simple_datum(
        cartan_matrix(cartan_type, rank),
        isogeny,
        f"{cartan_type.upper()}{rank} ({isogeny})",
    )
    return rd, _diagonal([-1 if real == "split" else 1] * rank)


# ---------------------------------------------------------------------------
# adjoint E7 in the node order used for its exceptional real forms

# node i of the E7 real-form presets is Bourbaki node _E7_NODES[i - 1]
_E7_NODES = (7, 6, 5, 4, 3, 1, 2)


def e7_adjoint() -> RootDatum:
    """Adjoint E7 on its fundamental coweights.

    The nodes a1..a6 form a chain and a7 is attached to a4: they are the
    Bourbaki nodes 7, 6, 5, 4, 3, 1, 2.  Coordinates are coweight
    coordinates, so the cocharacter lattice is standard.
    """
    bourbaki = cartan_matrix("E", 7)
    cartan = tuple(
        tuple(bourbaki[i - 1][j - 1] for j in _E7_NODES) for i in _E7_NODES
    )
    return _simple_datum(cartan, "adj", "E7 (adjoint)")


# black nodes K of each form's Satake diagram, in e7_adjoint's numbering
_E7_BLACK_NODES = {"EV": (), "EVI": (1, 3, 7), "EVII": (3, 4, 5, 7)}


def e7(form: str) -> tuple[RootDatum, IntMatrix, str]:
    """Adjoint E7, the involution of its real form EV, EVI or EVII, and the form.

    On a split torus theta = -w_K, K the form's black nodes (tau is trivial on
    E7).  On coweight coordinates s_k(v) = v - v_k a_k, as alpha_k(w_i) = [i = k]:
    from the indicator vector of K, s_k is applied while some k in K has
    v_k > 0, l(w_K) steps that turn the unit vectors into the columns of w_K.
    """
    key = form.upper().strip()
    if key not in _E7_BLACK_NODES:
        raise PresetError(f"unknown E7 real form {_brief(repr(form))}; choose EV, EVI, or EVII")
    rd = e7_adjoint()
    black = [k - 1 for k in _E7_BLACK_NODES[key]]
    v = [int(i in black) for i in range(7)]
    columns = [list(_unit(7, j)) for j in range(7)]
    while positive := [k for k in black if v[k] > 0]:
        k = positive[0]
        for u in (v, *columns):
            c = u[k]
            u[:] = [x - c * y for x, y in zip(u, rd.coroot_basis[k])]
    return rd, tuple(tuple(-col[i] for col in columns) for i in range(7)), key
