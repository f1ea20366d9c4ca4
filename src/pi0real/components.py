"""Component groups of real reductive groups, computed on the torus.

Everything here reduces to integer lattice arithmetic.  Fix a root datum
with cocharacter lattice X and coroot lattice Q, and a Cartan involution
theta.  Write

  X_spl          = X  intersect ker(theta + 1)     split cocharacters
  2 X_spl_tilde  = (theta - 1) X                   doubled projections
  Q_spl          = Q  intersect ker(theta + 1)
  Q_cmp          = Q  intersect ker(theta - 1)
  B              = (theta - 1) X + Q               coboundaries

where X_spl_tilde = (1 - theta)/2 . X are the projected cocharacters.  Then
the group of connected components of the real points is

  pi0 = X_spl / ((theta - 1) X + Q_spl) = X_spl / (B intersect X_spl),

the second form because theta^2 = 1 puts (theta - 1) X in X_spl, so that
(theta - 1) x + q in X_spl puts q in Q_spl.  Every class contains an
order-at-most-2 torus element exp(pi i nu) with nu in X_spl, and the first
Galois cohomology of the fundamental group is cocycles modulo coboundaries,

  H1 = {v in X : v + theta(v) in Q} / B,

the paper's (X intersect (X_spl_tilde + Q_cmp/2)) / (2 X_spl_tilde + Q):
in 2v = (v - theta(v)) + (v + theta(v)), theta negates the first term and
fixes the second, so 2v is in (theta - 1) X + Q_cmp exactly when
v + theta(v) is in Q.  Both quotients are finite elementary abelian
2-groups whenever the input is an honest Cartan involution; anything else
raises ComputationError.

Every function here takes one Involution, which carries the datum it was
validated against.  It derives B, X_spl and the cocycles once, the last
two from one elimination of theta + 1, and every computation here shares
them.  A job builds only B intersect X_spl itself, in pi0, by one
kernel_lattice call on the involution's map theta + 1, which the split and
cocycle tests apply too; that call eliminates nothing when theta + 1 kills
B.  It does for every torus (Q = 0) and every theta = -1, and there the
two quotients are one, X_spl / B, so h1_pi1 returns the component group
it is given.
Everything is computed in integers, from the lattices' Hermite rows and
theta's action by its nonzero columns; a Fraction appears only for
rational input or a rational display weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import add
from typing import NamedTuple, Optional

from .intlattice import (
    COSET_BOUND,
    DimensionMismatch,
    Lattice,
    basis_residues,
    coords_in_lattice,
    integer_row,
    kernel_lattice,
    membership,
    relation_matrix,
    walk_quotient,
)
from .realform import Involution
from .rootdata import _brief


class ComputationError(RuntimeError):
    """The computed quotient is not the finite 2-group theory promises.

    Seeing this means the inputs do not describe a Cartan involution of a
    root datum, in a way the up-front validation could not detect.
    """


class SplitLattices(NamedTuple):
    """The four sublattices that control the component group."""

    x_spl: Lattice
    two_x_spl_tilde: Lattice
    q_spl: Lattice
    q_cmp: Lattice


def split_lattices(inv: Involution) -> SplitLattices:
    """All four split lattices; X_spl is the involution's own."""
    rd = inv.datum
    return SplitLattices(
        x_spl=inv.x_spl,
        two_x_spl_tilde=Lattice(rd.rank, tuple(map(inv.minus_one, rd.cochar.basis))),
        q_spl=kernel_lattice(rd.coroots, inv.plus_one),
        q_cmp=kernel_lattice(rd.coroots, inv.minus_one),
    )


@dataclass(frozen=True)
class Elementary2Group:
    """A finite elementary abelian 2-group presented as sup/sub.

    ``generators`` are integer vectors in ``sup`` whose classes form a
    basis over the field with two elements; ``generator_names`` is the
    parallel tuple of preferred labels (None where no named lattice vector
    represents that class).
    """

    rank: int
    order: int
    generators: tuple[tuple[int, ...], ...]
    generator_names: tuple[Optional[str], ...]
    sub: Lattice
    sup: Lattice

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All group elements as subset sums of the generators, by size.

        The zero vector comes first, then single generators, then pairs,
        and so on; within one size the subsets come in the order of their
        bitmasks, bit i for generator i.
        """
        return _subset_sums(self.generators, self.sub.ambient_dim)


def _subset_sums(vectors, dim: int) -> tuple[tuple[int, ...], ...]:
    """The sums of all subsets of vectors, in Elementary2Group.elements() order."""
    # sums[m] is the sum of the vectors in the bitmask m
    sums = [(0,) * dim]
    for g in vectors:
        sums += [tuple(map(add, s, g)) for s in sums]
    masks = sorted(range(len(sums)), key=lambda m: (bin(m).count("1"), m))
    return tuple(sums[m] for m in masks)


def _int_tuple(v) -> Optional[tuple[int, ...]]:
    """v as a tuple of ints, or None when an entry is not a whole number."""
    c, ints = integer_row(v)
    return tuple(ints) if c == 1 else None


def _parity(coords) -> int:
    """Integer coordinates mod 2, as a bitmask with bit i for coordinate i."""
    return sum(1 << i for i, c in enumerate(coords) if c & 1)


def _extend(echelon: list[int], mask: int) -> bool:
    """Add an F2 vector to an echelon of bitmasks if it is independent.

    The echelon is kept in decreasing order, so its leading bits are
    distinct and decreasing; ``min(m, m ^ e)`` clears e's leading bit from
    m exactly when it is set.  Returns whether the vector was independent.
    """
    for e in echelon:
        mask = min(mask, mask ^ e)
    if mask:
        echelon.append(mask)
        echelon.sort(reverse=True)
    return bool(mask)


def _echelon(relation) -> list[int]:
    """Echelon over F2 of the rows of an integer relation matrix."""
    echelon: list[int] = []
    for row in relation:
        _extend(echelon, _parity(row))
    return echelon


def _two_group(sub: Lattice, sup: Lattice, named, what: str) -> Elementary2Group:
    """sup/sub as an elementary abelian 2-group, by rank over F2.

    When 2 sup lies in sub, the quotient is (sup / 2 sup) modulo the image
    of sub, so its 2-rank k is rank(sup) minus the F2 rank of sub's
    coordinates in sup's basis, the relation matrix R.  The index
    [sup : sub], the product of R's diagonal when the ranks agree, equals
    2^k exactly when 2 sup lies in sub; any other index raises
    ComputationError.

    Generators are picked greedily, each admitted when its class is
    independent of sub and of the earlier picks: first the ``named``
    (name, vector) pairs that lie in sup, in the given order, then the
    canonical residues modulo sub of sup's Hermite rows, smallest first.
    """
    relation = relation_matrix(sub, sup)
    echelon = _echelon(relation)
    r = sup.rank
    k = r - len(echelon)
    if sub.rank < r:
        raise ComputationError(
            f"{what} came out infinite; the involution data is inconsistent"
        )
    index = prod(row[i] for i, row in enumerate(relation))
    if index != 2**k:
        raise ComputationError(
            f"{what} is not an elementary abelian 2-group: "
            f"index {index} with 2-rank {k}"
        )
    chosen: list[tuple[int, ...]] = []
    names: list[Optional[str]] = []
    for nm, v in named:
        if len(chosen) == k:
            break
        coords = coords_in_lattice(v, sup)
        # a vector with coordinates in an integer lattice is integral
        if coords is not None and _extend(echelon, _parity(coords)):
            chosen.append(_int_tuple(v))
            names.append(nm)
    if len(chosen) < k:
        # the residue of sup's i-th Hermite row has coordinates e_i modulo sub
        for res, i in sorted((res, i) for i, res in enumerate(basis_residues(sub, sup))):
            if len(chosen) == k:
                break
            if _extend(echelon, 1 << i):
                chosen.append(res)
                names.append(None)
    return Elementary2Group(
        rank=k, order=2**k, generators=tuple(chosen), generator_names=tuple(names),
        sub=sub, sup=sup,
    )


def pi0(inv: Involution) -> Elementary2Group:
    """The component group of the real points, X_spl / (B intersect X_spl) for the
    coboundaries B: the paper's X_spl / ((theta - 1) X + Q_spl) only because
    theta^2 = 1, which involution_from_matrix checks (see the module docstring)."""
    sub = kernel_lattice(inv.coboundaries, inv.plus_one)
    return _two_group(sub, inv.x_spl, inv.datum.named_vectors, "component group")


def h1_pi1(inv: Involution, component_group: Optional[Elementary2Group] = None
           ) -> Elementary2Group:
    """Galois cohomology of the fundamental group of the complex group.

    Computed as cocycles modulo coboundaries, {v in X : v + theta(v) in Q}
    / ((theta - 1) X + Q), with classes represented by integral cocharacters;
    the cocycles are the preimage of Q under theta + 1 (Involution.cocycles).
    When ``component_group``, pi0(inv), presents the same quotient, it is
    returned as it is: both are picked from the datum's named vectors by
    the same rule.
    """
    sub, sup = inv.coboundaries, inv.cocycles
    if component_group is not None and (component_group.sub, component_group.sup) == (sub, sup):
        return component_group
    return _two_group(sub, sup, inv.datum.named_vectors, "cohomology group")


def _cocharacter(inv: Involution, nu, split: bool = False) -> tuple[int, ...]:
    """nu as a tuple of ints, for nu in X = Z^rank, with theta(nu) = -nu when split.

    Raises DimensionMismatch for the wrong length, and otherwise ValueError,
    quoting nu through _brief, when nu is not such a cocharacter.
    """
    nu_int = _int_tuple(nu)
    if len(nu) != inv.datum.rank:
        raise DimensionMismatch("vector length does not match ambient dimension")
    if split and (nu_int is None or any(inv.plus_one(nu_int))):
        kind = "a split cocharacter (need an integral vector with theta(nu) = -nu)"
    elif nu_int is None:
        kind = "in the cocharacter lattice"
    else:
        return nu_int
    raise ValueError(f"{_brief(str(tuple(map(Fraction, nu))))} is not {kind}")


def cocycle_check(inv: Involution, nu) -> bool:
    """Does exp(pi i nu) define a Galois cocycle valued in the fundamental group?

    The condition is that nu + theta(nu), which theta fixes, lands in the
    compact part Q intersect ker(theta - 1) of Q, that is, in Q: exactly
    when nu lies in the super-lattice of h1_pi1.  ``nu`` must be a
    cocharacter.
    """
    nu_int = _cocharacter(inv, nu)
    return membership(inv.plus_one(nu_int), inv.datum.coroots)


def coboundary_check(inv: Involution, nu) -> bool:
    """Does exp(pi i nu) give the trivial cohomology class?

    True exactly when nu lies in the coboundaries (theta - 1) X + Q.  A
    vector passing this test is automatically a cocycle.
    """
    return membership(_cocharacter(inv, nu), inv.coboundaries)


def kernel_embedding_check(inv: Involution) -> bool:
    """Check that the natural map from pi0 into H1 is injective.

    pi0 = X_spl / (B intersect X_spl) and H1 = Z / B for the coboundaries
    B; a split cocharacter equals its own projection, so pi0 classes map to
    H1 classes by doing nothing to the vector.  Injectivity means the pi0
    generators lie in H1's super-lattice and, written in its basis, stay
    independent over F2 modulo H1's relations.
    """
    p = pi0(inv)
    h = h1_pi1(inv, p)
    echelon = _echelon(relation_matrix(h.sub, h.sup))
    for v in p.generators:
        coords = coords_in_lattice(v, h.sup)
        if coords is None or not _extend(echelon, _parity(coords)):
            return False
    return True


_FOURTH_ROOT = ("1", "i", "-1", "-i")


@dataclass(frozen=True)
class Representative:
    """A torus element exp(pi i nu) of order at most 2 in the real group.

    ``evaluations`` lists (label, value) pairs for the datum's display
    weights; values are the fourth roots of unity "1", "i", "-1", "-i".
    ``note`` repeats the datum's lift caveat, if any.
    """

    nu: tuple[int, ...]
    evaluations: tuple[tuple[str, str], ...]
    note: Optional[str]


def representative(inv: Involution, nu) -> Representative:
    """Evaluate the display weights on exp(pi i nu) for nu in X with theta(nu) = -nu."""
    rd = inv.datum
    nu_int = _cocharacter(inv, nu, split=True)
    evals = []
    for label, c, terms in rd.weight_terms:
        # 2<w, nu> = h / c, with the weight's terms scaled by c
        h = 2 * sum(x * nu_int[j] for j, x in terms)
        if c > 1:
            h, rem = divmod(h, c)
            if rem:
                raise ValueError(
                    f"pairing of weight {_brief(repr(label))} with {_brief(str(nu_int))} "
                    "is not half-integral, so its value at exp(pi i nu) is not a fourth "
                    "root of unity"
                )
        evals.append((label, _FOURTH_ROOT[h % 4]))
    return Representative(nu=nu_int, evaluations=tuple(evals), note=rd.lift_note)


def representatives(inv: Involution, group: Elementary2Group) -> list[Representative]:
    """representative(inv, v) for each v in group.elements()[1:], by linearity.

    Only the generators go through representative(), which checks them and
    raises its errors.  Every other element's nu, and the exponents h of its
    values i^h, are subset sums of the generators' ones, h taken mod 4.
    """
    rd = inv.datum
    n = rd.rank
    labels = [label for label, _, _ in rd.weight_terms]
    rows = [r.nu + tuple(_FOURTH_ROOT.index(val) for _, val in r.evaluations)
            for r in (representative(inv, v) for v in group.generators)]
    return [Representative(s[:n], tuple(zip(labels, [_FOURTH_ROOT[h % 4] for h in s[n:]])),
                           rd.lift_note)
            for s in _subset_sums(rows, n + len(labels))[1:]]


def oracle_check(group: Elementary2Group, bound: int = COSET_BOUND) -> bool:
    """Recompute the group structure by brute-force coset enumeration.

    Walks the cosets of sup/sub, then the subgroups 2G, 4G, ... that give
    its invariant factors (walk_quotient), sharing only the containment
    check with the mod-2 rank computation that built the group, and
    compares the factors with (2,) * rank; no generators are picked.
    Raises BoundExceeded when the quotient has more than ``bound`` cosets.
    """
    factors, _ = walk_quotient(group.sub, group.sup, bound)
    return factors == (2,) * group.rank
