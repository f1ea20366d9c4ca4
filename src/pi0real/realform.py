"""Cartan involutions on the cocharacter lattice, and ways to build them.

A real form enters the computation only through the integer matrix by which
the Cartan involution acts on cocharacters.  This module validates such
matrices against a root datum and builds them from eigenspace data or from
the Satake diagrams of the real forms of adjoint E7.  A valid matrix is an
involution that permutes the coroot set; since the coroot lattice is the
span of that set, it then preserves the coroot lattice as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlattice import (
    IntMatrix,
    as_int_matrix,
    block_diag,
    identity_matrix,
    mat_mul,
    rat_inverse,
    rat_rank,
    transpose,
    vec_frac,
)
from .rootdata import RootDatum, e7_adjoint


class InvolutionError(ValueError):
    """Raised when a purported Cartan involution fails validation."""


@dataclass(frozen=True)
class Involution:
    """An order-2 integer matrix acting on the cocharacter lattice.

    The matrix acts on column vectors; ``name`` is free-form and only used
    in printed output.
    """

    theta: IntMatrix
    name: str = ""


def involution_from_matrix(rd: RootDatum, theta, name: str = "") -> Involution:
    """Validate an integer matrix as a Cartan involution for ``rd``."""
    n = rd.rank
    try:
        theta = as_int_matrix(theta, ncols=n)
    except ValueError as exc:
        raise InvolutionError(f"bad involution matrix: {exc}") from exc
    if len(theta) != n:
        raise InvolutionError(f"involution matrix must be {n} x {n}")
    if mat_mul(theta, theta) != identity_matrix(n):
        raise InvolutionError("matrix is not an involution")
    # theta^2 = 1 and theta permuting the coroots give theta(Q) = Q
    coroot_set = set(rd.coroot_generators)
    terms = [[(j, a) for j, a in enumerate(row) if a] for row in theta]
    for c in rd.coroot_generators:
        image = tuple(int(sum(a * c[j] for j, a in row)) for row in terms)
        if image not in coroot_set:
            raise InvolutionError(
                f"involution does not normalize the coroot set: "
                f"theta({c}) = {image} is not a coroot"
            )
    return Involution(theta=theta, name=name)


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
    """
    n = rd.rank
    split = [vec_frac(v) for v in split_span]
    compact = [vec_frac(v) for v in compact_span]
    for v in split + compact:
        if len(v) != n:
            raise InvolutionError(f"eigenvector {v} has wrong length, expected {n}")
    if rat_rank(split) != len(split) or rat_rank(compact) != len(compact):
        raise InvolutionError("eigenspace spans contain dependent vectors")
    stacked = tuple(split + compact)
    if len(stacked) != n or rat_rank(stacked) != n:
        raise InvolutionError("eigenspace spans are not complementary")
    mt = transpose(stacked)
    signs = [-1] * len(split) + [1] * len(compact)
    scaled = tuple(
        tuple(Fraction(signs[j]) * mt[i][j] for j in range(n)) for i in range(n)
    )
    theta_frac = mat_mul(scaled, rat_inverse(mt))
    rows = []
    for row in theta_frac:
        if any(x.denominator != 1 for x in row):
            raise InvolutionError(
                "involution with these eigenspaces is not integral "
                "on the cocharacter lattice"
            )
        rows.append(tuple(int(x) for x in row))
    return involution_from_matrix(rd, tuple(rows), name=name)


def product_involution(a: Involution, b: Involution, name: str = "") -> Involution:
    """Block-diagonal involution on a product root datum."""
    return Involution(
        theta=block_diag(a.theta, b.theta),
        name=name or " x ".join(s for s in (a.name, b.name) if s),
    )


# ---------------------------------------------------------------------------
# the real forms of adjoint E7

# black nodes K of each form's Satake diagram, in e7_adjoint's numbering.
# On a split torus theta = -w_K (tau is trivial on E7).  w_K fixes the
# coweights w_i with i not in K, and for these K (empty, three orthogonal
# A1's, D4) it is -1 on the span of the coroots a_k with k in K.
_E7_BLACK_NODES = {"EV": (), "EVI": (1, 3, 7), "EVII": (3, 4, 5, 7)}


def e7_preset(form: str) -> tuple[RootDatum, Involution]:
    """Adjoint E7 with the involution of one of its real forms EV, EVI, EVII."""
    key = form.upper().strip()
    if key not in _E7_BLACK_NODES:
        raise InvolutionError(
            f"unknown E7 real form {form!r}; choose EV, EVI, or EVII"
        )
    rd, _ = e7_adjoint()
    named = dict(rd.named_vectors)
    black = _E7_BLACK_NODES[key]
    split = [named[f"w{i}"] for i in range(1, 8) if i not in black]
    compact = [named[f"a{k}"] for k in black]
    return rd, involution_from_eigenspaces(rd, split, compact, name=key)
