"""Cartan involutions on the cocharacter lattice, and ways to build them.

A real form enters the computation only through the integer matrix by which
the Cartan involution acts on cocharacters.  This module validates such
matrices against a root datum and builds them from a matrix or from
eigenspace data, solving for the matrix in integers: one Hermite reduction,
which also checks the spans, and a back-substitution whose divisions must
be exact.  It also holds the presets, the named groups of ``PRESETS``:
:func:`build_preset` checks a preset's fields, calls its rootdata builder
and validates the matrix it returns, so every preset comes back as one
involution.  It builds no preset itself.  ``PRESETS``, ``PRESET_FIELDS``
and ``PRESET_DEFAULTS`` are the one table of families, fields, types and
defaults, and ``PRESET_CAPS`` bounds each family's size; the ``pi0
preset`` flags and their help are generated from them.  A valid matrix
is an involution that permutes the coroot set; since the coroot lattice is
the span of that set, it then preserves the coroot lattice as well.

An :class:`Involution` carries the datum it was validated against, and
derives once, on first use, what pi0 and H1 read: its action, the only
reader of theta's entries; theta + 1 and theta - 1 as maps built on it;
the coboundaries B = (theta - 1) X + Q; and one Hermite reduction of the
rows [(theta + 1) e_i | e_i], whose zero-left rows give X_spl =
ker(theta + 1) and whose copy, continued with Q's rows, gives the cocycles
Z = {v in X : v + theta(v) in Q}.  Then pi0 = X_spl / (B intersect X_spl)
and H1 = Z / B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .intlattice import (
    IntMatrix,
    KernelStack,
    Lattice,
    LatticeError,
    block_diag,
    hnf,
    integer_row,
    matrix_action,
    transpose,
    vec_frac,
)
from .rootdata import (
    PresetError,
    RootDatum,
    _brief,
    e7,
    gl,
    product,
    pso,
    simple,
    so,
    torus_compact,
    torus_split,
    torus_weil,
)


class InvolutionError(ValueError):
    """Raised when a purported Cartan involution fails validation."""


@dataclass(frozen=True)
class Involution:
    """An order-2 integer matrix acting on the cocharacter lattice of ``datum``.

    The matrix acts on column vectors; ``name`` is free-form and only used
    in printed output.  Building one checks theta's size against the datum;
    :func:`involution_from_matrix` checks the rest.  The attributes below
    are built on first use, then cached, like a root datum's X and Q.
    """

    theta: IntMatrix
    datum: RootDatum
    name: str = ""

    def __post_init__(self):
        m, n = len(self.theta), self.datum.rank
        if m != n:
            raise InvolutionError(f"involution is {m} x {m}, datum has rank {n}")

    @cached_property
    def apply(self):
        """v -> theta(v) for column vectors v, by theta's nonzero columns."""
        return matrix_action(self.theta, self.datum.rank)

    @cached_property
    def plus_one(self):
        """v -> theta(v) + v, by apply."""
        apply = self.apply  # the map holds apply, not self: no reference cycle
        return lambda v: tuple(x + y for x, y in zip(apply(v), v))

    @cached_property
    def minus_one(self):
        """v -> theta(v) - v, by apply."""
        apply = self.apply
        return lambda v: tuple(x - y for x, y in zip(apply(v), v))

    @cached_property
    def _plus_one_stack(self) -> KernelStack:
        """The rows [(theta + 1) e_i | e_i] for X's standard basis, reduced once."""
        return KernelStack(self.datum.cochar, self.plus_one)

    @cached_property
    def x_spl(self) -> Lattice:
        """The split cocharacters X_spl = ker(theta + 1) in X = Z^n."""
        return self._plus_one_stack.kernel

    @cached_property
    def cocycles(self) -> Lattice:
        """Z = {v in X : v + theta(v) in Q}, the preimage of Q under theta + 1:
        a copy of X_spl's reduced rows continued with Q's Hermite rows."""
        return self._plus_one_stack.preimage(self.datum.coroots)

    @cached_property
    def coboundaries(self) -> Lattice:
        """B = (theta - 1) X + Q: theta - 1 of X's standard basis and Q's basis, reduced once."""
        rd = self.datum
        return Lattice(rd.rank, (*map(self.minus_one, rd.cochar.basis), *rd.coroots.basis))


def _squares_to_one(columns) -> bool:
    """Whether theta^2 = 1, for theta given by its sparse columns.

    theta^2 = 1 says that theta maps its own column j to e_j; that image
    is summed over the column's nonzero entries only.
    """
    for j, col in enumerate(columns):
        image: dict[int, int] = {}
        for i, x in col:
            for k, y in columns[i]:
                image[k] = image.get(k, 0) + x * y
        if {k: v for k, v in image.items() if v} != {j: 1}:
            return False
    return True


def involution_from_matrix(rd: RootDatum, theta, name: str = "") -> Involution:
    """Validate an integer matrix as a Cartan involution for ``rd``."""
    inv = Involution(theta=tuple(map(tuple, theta)), datum=rd, name=name)
    try:
        apply = inv.apply
    except LatticeError as exc:
        raise InvolutionError(f"bad involution matrix: {exc}") from exc
    if not _squares_to_one(apply.columns):
        raise InvolutionError("matrix is not an involution")
    # theta^2 = 1 and theta permuting the coroots give theta(Q) = Q.  The
    # set is symmetric and theta(-c) = -theta(c), so theta is applied to one
    # coroot of each +- pair, the one whose first nonzero entry is positive;
    # a failure then quotes the first offending coroot in list order.
    gens = rd.coroot_generators
    coroot_set = set(gens)
    zero = (0,) * rd.rank
    if any(c > zero and apply(c) not in coroot_set for c in gens):
        c = next(c for c in gens if apply(c) not in coroot_set)
        raise InvolutionError(
            f"involution does not normalize the coroot set: "
            f"theta({_brief(str(c))}) = {_brief(str(apply(c)))} is not a coroot"
        )
    return inv


def involution_from_eigenspaces(
    rd: RootDatum,
    split_span: Sequence[Sequence],
    compact_span: Sequence[Sequence],
    name: str = "",
) -> Involution:
    """Build the involution with the given -1 and +1 eigenspaces.

    Each span is a sequence of linearly independent rational vectors;
    together they must form a basis of the ambient space.  The resulting
    matrix has to be integral on the cocharacter lattice, which is a real
    condition on the spans and is checked here.

    The matrix is solved in integers.  Clearing each eigenvector of
    denominators (integer_row) leaves its eigenspace unchanged; one Hermite
    reduction of the rows [v | -v] (split) and [v | v] (compact) then gives
    H * theta^T = W with H upper triangular, and back-substitution by
    divmod finds theta^T, which is integral exactly when every division is
    exact.  The same reduction decides the span checks: its rank says
    whether the spans are independent, and its pivots whether they are
    complementary.
    """
    n = rd.rank
    split = [integer_row(v)[1] for v in split_span]
    compact = [integer_row(v)[1] for v in compact_span]
    for v in (*split_span, *compact_span):
        if len(v) != n:
            raise InvolutionError(
                f"eigenvector {_brief(str(vec_frac(v)))} has wrong length, expected {n}"
            )
    # the eigenvectors v_k are the rows of V, so V * theta^T = S * V for the
    # signs S.  The rows [x | -x] and [y | y] span subspaces that meet only
    # in 0, so [V | S * V] has full row rank exactly when each span is
    # independent; with n rows, V is then singular exactly when a pivot of
    # the Hermite form lies right of the diagonal
    rows = hnf([v + [-x for x in v] for v in split] + [v + v for v in compact], 2 * n)
    if len(rows) != len(split) + len(compact):
        raise InvolutionError("eigenspace spans contain dependent vectors")
    if len(rows) != n or any(row[i] == 0 for i, row in enumerate(rows)):
        raise InvolutionError("eigenspace spans are not complementary")
    theta_t: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        above = [(k, row[k]) for k in range(i + 1, n) if row[k]]
        solved = [divmod(row[n + j] - sum(x * theta_t[k][j] for k, x in above), row[i])
                  for j in range(n)]
        if any(r for _, r in solved):
            raise InvolutionError(
                "involution with these eigenspaces is not integral "
                "on the cocharacter lattice"
            )
        theta_t[i] = [q for q, _ in solved]
    return involution_from_matrix(rd, transpose(theta_t), name=name)


def product_involution(a: Involution, b: Involution, name: str = "") -> Involution:
    """Block-diagonal involution on the product of the two data."""
    return Involution(
        theta=block_diag(a.theta, b.theta),
        datum=product(a.datum, b.datum),
        name=name or " x ".join(s for s in (a.name, b.name) if s),
    )


# ---------------------------------------------------------------------------
# presets: each named group's builder and the job fields it reads

# each family's builder and the fields it passes, in argument order
PRESETS = {
    "GL": (gl, ("n",)),
    "SO": (so, ("p", "q")),
    "PSO": (pso, ("p", "q")),
    "TORUS_SPLIT": (torus_split, ("n",)),
    "TORUS_COMPACT": (torus_compact, ("n",)),
    "TORUS_WEIL": (torus_weil, ()),
    "E7": (e7, ("form",)),
    "SIMPLE": (simple, ("type", "rank", "isogeny", "real")),
}
# every field's type, in the order the families above first read them;
# a field a family reads is required unless it has a default here
PRESET_FIELDS = {
    "n": int, "p": int, "q": int, "form": str,
    "type": str, "rank": int, "isogeny": str, "real": str,
}
PRESET_DEFAULTS = {"isogeny": "sc", "real": "split"}
# each sized family's cap: the fields whose sum is its size, and the largest
# size it builds.  Each cap keeps the family's largest job near a second of
# command-line time; families not listed have a fixed size.
PRESET_CAPS = {
    "GL": (("n",), 200),
    "SO": (("p", "q"), 300),
    "PSO": (("p", "q"), 300),
    "TORUS_SPLIT": (("n",), 500),
    "TORUS_COMPACT": (("n",), 500),
    "SIMPLE": (("rank",), 100),
}


def build_preset(family: str, **fields) -> Involution:
    """Build a preset family from its fields, named as in a job file.

    The checks run in a fixed order, each raising PresetError: every
    field's type (the integer fields first), the family, fields the family
    does not read, missing fields, then the family's size cap in
    PRESET_CAPS, before the builder runs.  A field given as None counts as
    absent, so it takes its default or is missing, but a family still
    rejects it when it does not read it.
    """
    for key in sorted(PRESET_FIELDS, key=lambda k: PRESET_FIELDS[k] is str):
        val, want = fields.get(key), PRESET_FIELDS[key]
        if val is not None and (isinstance(val, bool) or not isinstance(val, want)):
            kind = "an integer" if want is int else "a string"
            raise PresetError(f"preset field {key!r} must be {kind}, got {_brief(repr(val))}")
    if family.upper() not in PRESETS:
        raise PresetError(f"unknown preset family {_brief(repr(family))}")
    builder, params = PRESETS[family.upper()]
    for key in {**PRESET_FIELDS, **fields}:  # table order, then names outside it
        if key in fields and key not in params:
            takes = ", ".join(repr(k) for k in params) or "no fields"
            raise PresetError(f"preset field {_brief(repr(key))} is not used by preset "
                              f"{family!r}, which takes {takes}")
    given = {**PRESET_DEFAULTS, **{k: v for k, v in fields.items() if v is not None}}
    for key in params:
        if key not in given:
            raise PresetError(f"preset {family!r} needs parameter {key!r}")
    if family.upper() in PRESET_CAPS:
        keys, cap = PRESET_CAPS[family.upper()]
        size = sum(given[k] for k in keys)
        if size > cap:
            raise PresetError(f"preset {family!r} needs {' + '.join(keys)} <= {cap}, "
                              f"got {_brief(str(size))}")
    rd, theta, *label = builder(*(given[k] for k in params))
    return involution_from_matrix(rd, theta, name=label[0] if label else rd.name)
