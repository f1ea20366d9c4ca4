"""Exact arithmetic on integer lattices.

A lattice here is the row span over ZZ of an integer basis matrix.  The
constructor puts the basis in Hermite form, so equal point sets compare
equal as Python objects.

Everything is exact.  Matrices are tuples of tuples of Python ints; no
floating point anywhere.  A square matrix acts on column vectors through
one routine, matrix_action, by its nonzero columns.  Vectors given to
coords_in_lattice, membership and reduce_mod may have Fraction entries, and
a non-integral vector lies in no lattice.  A rational vector enters the
integer arithmetic through one routine, integer_row, which returns the lcm
c of its denominators and the integer vector c * v.  One integer row
Hermite reduction (_hermite) does every elimination: Hermite forms, the
preimage kernel of a linear map (KernelStack, which keeps one map's
reduced rows for several targets, and kernel_lattice on it, which gives
kernels, intersections and preimages), and the Smith form (by alternating
row and column passes).

A quotient sup/sub is presented by one integer matrix R, the coordinates
of sub's Hermite rows in sup's basis (relation_matrix).  The Smith route
(quotient_structure) and lattice_index read R; the coset enumeration
(walk_quotient, and brute_force_quotient on top of it) asks lattice_index
only whether the quotient is finite and never reads the index, so each
route can serve as an oracle for the other.  The enumeration is an integer
walk: each coset is an integer residue, and the walk closes the trivial
coset under one Hermite row of the super-lattice at a time (_close),
sharing one integer reduction loop with reduce_mod.  The invariant factors
come from the orders of the subgroups p**k * G, each walked the same way
from the rows scaled by p**k: with c_k = log_p |p**(k-1) G| / |p**k G| the
number of cyclic p-factors of order at least p**k, the j-th largest factor
has p-exponent #{k : c_k > j}.  For an elementary 2-group 2G is trivial,
so that costs one reduction per row.  Each lattice caches its Hermite
rows sparsely (Lattice._rows), so a reduction touches only nonzero
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

IntMatrix = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]


class LatticeError(ValueError):
    """Base error for lattice arithmetic."""


class DimensionMismatch(LatticeError):
    """Operands live in different ambient spaces."""


class NotASublattice(LatticeError):
    """A claimed sublattice containment does not hold."""


class InfiniteIndex(LatticeError):
    """Coset enumeration was requested for an infinite quotient."""


class BoundExceeded(LatticeError):
    """Coset enumeration ran past its configured bound."""


# ---------------------------------------------------------------------------
# integer matrix plumbing


def as_int_matrix(rows, ncols: int | None = None) -> IntMatrix:
    """Freeze rows into a rectangular integer matrix, validating entries."""
    out = []
    width = ncols
    for row in rows:
        t = tuple(row)
        if width is None:
            width = len(t)
        if len(t) != width:
            raise LatticeError("ragged matrix")
        for x in t:
            if type(x) is not int:
                raise LatticeError(f"non-integer matrix entry {x!r}")
        out.append(t)
    return tuple(out)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m) -> tuple[tuple, ...]:
    return tuple(zip(*m)) if m else ()


def block_diag(a, b):
    """Block-diagonal join of two square matrices."""
    n, m = len(a), len(b)
    top = tuple(tuple(row) + (0,) * m for row in a)
    bot = tuple((0,) * n + tuple(row) for row in b)
    return top + bot


def vec_frac(v) -> Vector:
    return tuple(Fraction(x) for x in v)


def integer_row(v) -> tuple[int, list[int]]:
    """(c, c * v) for a rational vector v, c the lcm of its entries' denominators.

    Entries may be anything Fraction accepts.  An all-int vector comes back
    as (1, list(v)) without building a Fraction.
    """
    if all(type(x) is int for x in v):
        return 1, list(v)
    fracs = vec_frac(v)
    c = lcm(*(x.denominator for x in fracs))
    return c, [x.numerator * (c // x.denominator) for x in fracs]


# ---------------------------------------------------------------------------
# Hermite normal form


def _row_sub(r, s, q, start):
    """r -= q * s, from column start on; s must be zero left of start."""
    for j in range(start, len(r)):
        r[j] -= q * s[j]


def _hermite(rows: list[list[int]]) -> int:
    """In-place row Hermite reduction, the module's one elimination routine;
    returns the rank.

    Afterwards rows is in echelon form with positive pivots, entries above
    each pivot reduced into [0, pivot), and all zero rows at the bottom.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    piv = 0
    for col in range(ncols):
        if piv == nrows:
            break
        if all(rows[i][col] == 0 for i in range(piv, nrows)):
            continue
        while True:
            best = min(
                (i for i in range(piv, nrows) if rows[i][col] != 0),
                key=lambda i: abs(rows[i][col]),
            )
            if best != piv:
                rows[piv], rows[best] = rows[best], rows[piv]
            p = rows[piv][col]
            dirty = False
            for i in range(piv + 1, nrows):
                if rows[i][col]:
                    q = rows[i][col] // p
                    if q:
                        _row_sub(rows[i], rows[piv], q, col)
                    if rows[i][col]:
                        dirty = True
            if not dirty:
                break
        if rows[piv][col] < 0:
            rows[piv][:] = [-x for x in rows[piv]]
        p = rows[piv][col]
        for i in range(piv):
            q = rows[i][col] // p
            if q:
                _row_sub(rows[i], rows[piv], q, col)
        piv += 1
    return piv


def hnf(m, ncols: int | None = None) -> IntMatrix:
    """Canonical row Hermite normal form, zero rows removed.

    The row span is preserved exactly; no content is extracted, so a
    single row stays itself up to sign normalization.
    """
    rows = [list(r) for r in as_int_matrix(m, ncols)]
    rank = _hermite(rows)
    return tuple(tuple(r) for r in rows[:rank])


# ---------------------------------------------------------------------------
# Smith normal form


def _hermite_pair(a: list[list[int]], t: list[list[int]], width: int):
    """Hermite-reduce the rows [a | t], a `width` wide; return both halves."""
    rows = [ra + rt for ra, rt in zip(a, t)]
    _hermite(rows)
    return [r[:width] for r in rows], [r[width:] for r in rows]


def _columns(m, width: int) -> list[list[int]]:
    """The columns of a matrix with `width` columns, as lists."""
    return [[row[j] for row in m] for j in range(width)]


def snf(m, ncols: int | None = None):
    """Smith normal form with transforms.

    Returns (d, u, v) where u * m * v == diag(d), u and v are unimodular,
    and d is a divisibility chain d[0] | d[1] | ... with nonnegative
    entries and trailing zeros for rank defects.

    Hermite reductions of [A | U] and of [A^T | V^T] alternate until A is
    diagonal (Kannan and Bachem, SIAM J. Comput. 8 (1979)).  The stacked
    transforms are reduced along with A, which keeps their entries short.
    When d[i] does not divide d[j], column j is added to column i, which
    puts d[j] below the pivot d[i]; the next row pass turns the pair into
    their gcd.
    """
    mat = as_int_matrix(m, ncols)
    nr = len(mat)
    nc = len(mat[0]) if mat else (ncols or 0)
    a = [list(r) for r in mat]
    u = [list(r) for r in identity_matrix(nr)]
    vt = [list(r) for r in identity_matrix(nc)]
    while True:
        a, u = _hermite_pair(a, u, nc)
        at, vt = _hermite_pair(_columns(a, nc), vt, nr)
        a = _columns(at, nr)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        d = [a[i][i] for i in range(min(nr, nc))]
        pair = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                     if d[i] and d[j] % d[i]), None)
        if pair is None:
            break
        i, j = pair
        for row in a:
            row[i] += row[j]
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]
    return tuple(d), tuple(tuple(r) for r in u), transpose(vt)


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class Lattice:
    """rowspan_ZZ(basis) for an integer basis, canonicalized on construction.

    The basis is stored in Hermite form with zero rows removed, which makes
    representation unique: two Lattice objects are equal exactly when they
    describe the same set of points.
    """

    ambient_dim: int
    basis: IntMatrix = ()

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise LatticeError("negative ambient dimension")
        object.__setattr__(self, "basis", hnf(self.basis, self.ambient_dim))

    @classmethod
    def _from_hermite(cls, n: int, basis: IntMatrix) -> "Lattice":
        """The lattice of rows already in the canonical Hermite form of
        _hermite, zero rows removed; they are taken as they are."""
        lat = object.__new__(cls)
        object.__setattr__(lat, "ambient_dim", n)
        object.__setattr__(lat, "basis", basis)
        return lat

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        """The full integer lattice ZZ^n."""
        return cls._from_hermite(n, identity_matrix(n))

    @classmethod
    def zero(cls, n: int) -> "Lattice":
        return cls(n, ())

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @cached_property
    def _rows(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """Each Hermite row as (pivot column, pivot, its nonzero (column, entry) pairs)."""
        out = []
        for row in self.basis:
            pairs = tuple((k, x) for k, x in enumerate(row) if x)
            out.append((pairs[0][0], pairs[0][1], pairs))
        return tuple(out)

    def __contains__(self, v) -> bool:
        return membership(v, self)


def _same_ambient(a: Lattice, b: Lattice):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def coords_in_lattice(v, lat: Lattice):
    """Integer coordinates of v in lat's basis, or None when v is not in lat."""
    if len(v) != lat.ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    c, w = integer_row(v)
    return _coords(w, lat) if c == 1 else None


def _coords(w: list[int], lat: Lattice):
    """Integer coordinates of the integer vector w in lat's basis, or None.

    w is a list as long as lat's ambient dimension; it is consumed.
    """
    coeffs = []
    for j, p, pairs in lat._rows:
        q = w[j]
        if q:  # a zero pivot digit is coordinate 0
            q, rem = divmod(q, p)
            if rem:
                return None
            for k, x in pairs:
                w[k] -= q * x
        coeffs.append(q)
    if any(w):
        return None
    return tuple(coeffs)


def membership(v, lat: Lattice) -> bool:
    """Exact test for v in lat."""
    return coords_in_lattice(v, lat) is not None


def _reduce_ints(w: list[int], rows) -> tuple[int, ...]:
    """Reduce the integer vector w by Hermite rows in the form of Lattice._rows.

    Each pivot digit is brought into [0, pivot), in pivot order, which
    picks the same representative for every member of a coset.  w is a
    list; it is consumed.
    """
    for j, p, pairs in rows:
        q = w[j] // p
        if q:
            for k, x in pairs:
                w[k] -= q * x
    return tuple(w)


def reduce_mod(v, sub: Lattice) -> Vector:
    """Canonical representative of v modulo sub.

    Digits along sub's Hermite pivots are reduced into [0, pivot), which
    picks the same representative for every member of a coset.
    """
    if len(v) != sub.ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    # v = w / c, reduced as w modulo c * sub
    c, w = integer_row(v)
    rows = sub._rows
    if c != 1:
        rows = [(j, p * c, tuple((k, x * c) for k, x in pairs)) for j, p, pairs in rows]
    return tuple(Fraction(x, c) for x in _reduce_ints(w, rows))


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """Smallest lattice containing both summands."""
    _same_ambient(a, b)
    return Lattice(a.ambient_dim, a.basis + b.basis)


def matrix_action(a, n: int):
    """v -> a(v) for an n x n integer matrix a acting on column vectors.

    a's nonzero columns are built once; a(v) is the sum of v_j times
    column j of a, taken over the nonzero v_j only.  The map keeps them as
    its attribute ``columns``: column j as its nonzero (row, entry) pairs.
    """
    try:
        rows = [tuple(r) for r in a]
    except TypeError:
        raise LatticeError(f"not a matrix: {type(a).__name__}") from None
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("matrix does not act on the ambient space")
    cols = [[(i, x) for i, x in enumerate(c) if x] for c in transpose(as_int_matrix(rows, n))]

    def act(v) -> tuple:
        if len(v) != n:
            raise DimensionMismatch("vector length does not match ambient dimension")
        image = [0] * n
        for c, col in zip(v, cols):
            if c:
                for i, x in col:
                    image[i] += c * x
        return tuple(image)

    act.columns = cols
    return act


def kernel_lattice(lat: Lattice, a, target: Lattice | None = None) -> Lattice:
    """{v in lat : a(v) in target} for a linear map a, such as one from
    matrix_action; without a target, the kernel of a on lat.  One
    KernelStack's kernel or preimage."""
    stack = KernelStack(lat, a)
    return stack.kernel if target is None else stack.preimage(target)


class KernelStack:
    """The elimination of a on lat, kept for several targets.

    The rows [a(B) | B], B = lat.basis, are Hermite-reduced once, when the
    stack is built; ``preimage(target)`` continues a copy of them with
    target's Hermite rows [t | 0], T = target.basis.  Their span is that of
    [[a(B), B], [T, 0]], whose rows keep the form [x*a(B) + y*T | x*B], so
    the rows with a zero left part give the x*B with a(x*B) in target
    (Cohen, GTM 138, section 2.4); without T they give the kernel.  The
    stacked rows are independent, so none becomes zero; the kernel rows
    come last, and their right parts are already in Hermite form, so they
    are not reduced again.  When a kills every row of B, nothing is
    eliminated, and the kernel and every preimage are lat itself.
    """

    def __init__(self, lat: Lattice, a):
        n = lat.ambient_dim
        images = [a(r) for r in lat.basis]
        if any(len(c) != n for c in images):
            raise DimensionMismatch("map does not act on the ambient space")
        self.lat = lat
        self._rows = None  # None when a kills lat
        if any(map(any, images)):
            self._rows = [[*c, *r] for c, r in zip(images, lat.basis)]
            _hermite(self._rows)

    def _kernel_rows(self, rows: list[list[int]]) -> Lattice:
        n = self.lat.ambient_dim
        return Lattice._from_hermite(n, tuple(tuple(r[n:]) for r in rows if not any(r[:n])))

    @cached_property
    def kernel(self) -> Lattice:
        """The kernel of a on lat."""
        if self._rows is None:
            return self.lat
        return self._kernel_rows(self._rows)

    def preimage(self, target: Lattice) -> Lattice:
        """{v in lat : a(v) in target}, from a copy of the reduced rows."""
        _same_ambient(self.lat, target)
        if self._rows is None:
            return self.lat
        if target.is_zero:
            return self.kernel
        n = self.lat.ambient_dim
        rows = [list(r) for r in self._rows] + [list(t) + [0] * n for t in target.basis]
        _hermite(rows)
        return self._kernel_rows(rows)


def lattice_intersect(a: Lattice, b: Lattice) -> Lattice:
    """Intersection, from kernel_lattice's rows [[A, A], [B, 0]] for bases A, B."""
    return kernel_lattice(a, lambda v: v, b)


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientStructure:
    """Isomorphism data for sup/sub.

    invariant_factors lists the torsion invariant factors (each >= 2, in
    a divisibility chain); free_rank counts infinite cyclic summands.
    Generators are coset representatives in the super-lattice, reduced to
    the canonical residue modulo the sub-lattice.
    """

    invariant_factors: tuple[int, ...]
    free_rank: int
    generators: tuple[tuple[int, ...], ...]
    free_generators: tuple[tuple[int, ...], ...] = ()

    @property
    def order(self) -> int | None:
        """Number of cosets, or None when the quotient is infinite."""
        if self.free_rank:
            return None
        return prod(self.invariant_factors)


def relation_matrix(sub: Lattice, sup: Lattice) -> IntMatrix:
    """R, the integer coordinates of sub's Hermite rows in sup's basis.

    R presents sup/sub: its Smith form gives the group's structure, and
    when the ranks agree R is upper triangular with a positive diagonal
    (the two Hermite bases share pivot columns), so [sup : sub] is the
    product of that diagonal.  Raises NotASublattice when sub is not in sup.
    """
    _same_ambient(sub, sup)
    relation = []
    for row in sub.basis:
        coords = _coords(list(row), sup)
        if coords is None:
            raise NotASublattice(f"generator {row} is not in the super-lattice")
        relation.append(coords)
    return tuple(relation)


def basis_residues(sub: Lattice, sup: Lattice) -> IntMatrix:
    """The canonical residues modulo sub of sup's basis vectors."""
    return tuple(_reduce_ints(list(b), sub._rows) for b in sup.basis)


def quotient_structure(sub: Lattice, sup: Lattice) -> QuotientStructure:
    """Structure of sup/sub through Smith normal form.

    The Smith form u * R * v = diag(d) of the relation matrix R gives the
    invariant factors, and the rows of v^-1 * B, B = sup.basis, give the
    generators.  Since v is unimodular, the Hermite form of [v | B] is
    [1 | v^-1 * B].
    """
    relation = relation_matrix(sub, sup)
    rp = sup.rank
    d, _, v = snf(relation, rp)
    _, vinv_b = _hermite_pair([list(r) for r in v], [list(r) for r in sup.basis], rp)
    factors = []
    gens = []
    free_gens = []
    for i in range(rp):
        di = d[i] if i < len(d) else 0
        if di == 1:
            continue
        g = _reduce_ints(vinv_b[i], sub._rows)
        if di == 0:
            free_gens.append(g)
        else:
            factors.append(di)
            gens.append(g)
    return QuotientStructure(
        tuple(factors), len(free_gens), tuple(gens), tuple(free_gens)
    )


def lattice_index(sub: Lattice, sup: Lattice) -> int | None:
    """[sup : sub], the product of R's diagonal, or None when sub has lower rank."""
    relation = relation_matrix(sub, sup)
    if sub.rank < sup.rank:
        return None
    return prod(row[i] for i, row in enumerate(relation))


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _exact_log(p: int, a: int, b: int) -> int:
    """s with p**s == a / b."""
    s = 0
    while p**s * b < a:
        s += 1
    if p**s * b != a:
        raise AssertionError("subgroup index is not a prime power")
    return s


# the default bound of brute_force_quotient, and so of the oracle: past this
# many cosets the walk raises BoundExceeded
COSET_BOUND = 4096


def _close(span: set, step, rows, bound: int) -> None:
    """Grow the finite coset group span, in place, to span + <g>.

    span is a set of canonical residues modulo the Hermite rows `rows`,
    closed under addition; step lists g's nonzero (column, entry) pairs.
    span + <g> is the union of the shifts span + m*g, and each shift is a
    coset of span, so it is either new or span itself, which ends it: one
    residue of a shift tells which.  Raises BoundExceeded as soon as span
    holds more than `bound` residues, so it never holds more than 2 * bound.
    """
    shift = span
    while True:
        sums = []
        for s in shift:
            w = list(s)
            for k, x in step:
                w[k] += x
            r = _reduce_ints(w, rows)
            if not sums and r in span:
                return
            sums.append(r)
        shift = set(sums)
        span |= shift
        if len(span) > bound:
            raise BoundExceeded(f"more than {bound} cosets")


def _multiple_span(sup: Lattice, rows, m: int, bound: int) -> set:
    """m * G for G = sup/sub, as canonical residues modulo sub's Hermite rows:
    the trivial coset closed under sup's Hermite rows scaled by m."""
    span = {(0,) * sup.ambient_dim}
    for _, _, step in sup._rows:
        _close(span, [(k, m * x) for k, x in step], rows, bound)
    return span


def _invariant_factors_from_multiples(sup: Lattice, rows, n: int) -> tuple[int, ...]:
    """Invariant factors of the finite group G = sup/sub with n cosets.

    They come from the orders of the subgroups p**k * G, each walked like G
    itself (_multiple_span).  For each prime p dividing n, the count c_k of
    cyclic p-factors of order at least p**k is log_p |p**(k-1) G| / |p**k G|,
    and the walks stop once p**k * G has lost all of G's p-part.  The j-th
    largest factor (from j = 0) then has p-exponent #{k : c_k > j}.  For an
    elementary 2-group, 2G is trivial, so its walk costs one reduction per
    Hermite row of sup.
    """
    counts: dict[int, list[int]] = {}  # p -> [c_1, c_2, ...]
    for p, valuation in _factorize(n).items():
        rest = n // p**valuation
        sizes = [n]
        while sizes[-1] > rest and len(sizes) <= valuation:
            sizes.append(len(_multiple_span(sup, rows, p ** len(sizes), n)))
        counts[p] = [_exact_log(p, a, b) for a, b in zip(sizes, sizes[1:])]
    width = max((c[0] for c in counts.values()), default=0)
    chain = tuple(prod(p ** sum(c > j for c in cs) for p, cs in counts.items())
                  for j in range(width - 1, -1, -1))
    if prod(chain) != n:
        raise AssertionError("invariant factor product does not match coset count")
    return chain


def walk_quotient(sub: Lattice, sup: Lattice, bound: int) -> tuple[tuple[int, ...], set]:
    """The invariant factors of sup/sub and its cosets, by explicit coset
    enumeration.

    Every coset is an integer tuple, its canonical residue modulo sub.  The
    walk closes the trivial coset under sup's Hermite rows, one row at a
    time (_close), which reaches every coset; the invariant factors then
    come from the orders of the subgroups p**k * G, walked the same way.

    Raises InfiniteIndex when ranks show the quotient is infinite, and
    BoundExceeded when more than `bound` cosets appear.
    """
    if lattice_index(sub, sup) is None:
        raise InfiniteIndex("sub-lattice has lower rank; quotient is infinite")
    rows = sub._rows
    # The rank test makes sup/sub finite, so each row g has finite order
    # modulo sub and the closure under g ends.
    found = _multiple_span(sup, rows, 1, bound)
    return _invariant_factors_from_multiples(sup, rows, len(found)), found


def brute_force_quotient(
    sub: Lattice, sup: Lattice, bound: int = COSET_BOUND
) -> QuotientStructure:
    """Quotient structure by explicit coset enumeration.

    The cosets and invariant factors come from walk_quotient, whose walks
    read nothing of Smith normal form, so they are a route fully
    independent of it.  Generators are then picked from the sorted cosets,
    each one not yet in the span of those before it, and are returned as
    residues, like those of quotient_structure.

    Raises InfiniteIndex when ranks show the quotient is infinite, and
    BoundExceeded when more than `bound` cosets appear.
    """
    factors, found = walk_quotient(sub, sup, bound)
    n = len(found)
    chosen: list[tuple[int, ...]] = []
    span = {(0,) * sup.ambient_dim}
    for x in sorted(found):
        if x in span:
            continue
        chosen.append(x)
        _close(span, [(k, a) for k, a in enumerate(x) if a], sub._rows, n)
        if len(span) == n:
            break
    return QuotientStructure(factors, 0, tuple(chosen))

