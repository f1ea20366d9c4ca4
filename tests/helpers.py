"""Shared test utilities: seeded random matrices and basis changes, dense
vector and matrix arithmetic on ints or Fractions, dense references for
determinants, rational ranks and solves, lattice images and scaled
lattices, and a validity check for root data."""

from __future__ import annotations

from fractions import Fraction

from pi0real.intlattice import (
    DimensionMismatch,
    Lattice,
    identity_matrix,
    integer_row,
    transpose,
)
from pi0real.realform import involution_from_matrix
from pi0real.rootdata import RootDatum, _brief


def mat_mul(a, b):
    """Matrix product; entries may be ints or Fractions."""
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    """Apply the matrix a to a column vector, returned as a tuple."""
    if a and len(v) != len(a[0]):
        raise DimensionMismatch("matrix/vector size mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def det(m) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def image_lattice(lat, a):
    """a(lat) for a square integer matrix a acting on columns, densely."""
    return Lattice(lat.ambient_dim, [mat_vec(a, v) for v in lat.basis])


def scaled(lat, c):
    """The lattice c * lat for an integer c; a non-integer c is a
    non-integer basis entry, which Lattice rejects."""
    return Lattice(lat.ambient_dim, [[c * x for x in row] for row in lat.basis])


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(v, c):
    return tuple(c * x for x in v)


def random_int_matrix(rng, rows, cols, lo=-4, hi=4):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def random_unimodular(rng, n, steps=None):
    """A random unimodular integer matrix together with its exact inverse."""
    if steps is None:
        steps = 3 * n
    u = [list(r) for r in identity_matrix(n)]
    uinv = [list(r) for r in identity_matrix(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for t in range(n):
                u[i][t] += c * u[j][t]
            for t in range(n):
                uinv[t][j] -= c * uinv[t][i]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
            for t in range(n):
                uinv[t][i], uinv[t][j] = uinv[t][j], uinv[t][i]
        elif kind == 2:
            u[i] = [-x for x in u[i]]
            for t in range(n):
                uinv[t][i] = -uinv[t][i]
    return tuple(tuple(r) for r in u), tuple(tuple(r) for r in uinv)


def frac_vec(v):
    return tuple(Fraction(x) for x in v)


def gauss_jordan(rows):
    """The reduced row echelon form of a rational matrix, in Fractions,
    with its rank: a dense reference for the integer eliminations."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i, row in enumerate(m):
            if i != rank and row[col]:
                m[i] = [x - row[col] * y for x, y in zip(row, m[rank])]
        rank += 1
    return m, rank


def frac_solve(a, b):
    """a^-1 * b for a square rational matrix a, or None when a is singular,
    by Gauss-Jordan on [a | b]."""
    n = len(a)
    m, _ = gauss_jordan([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if any(m[i][i] != 1 for i in range(n)):
        return None
    return tuple(tuple(row[n:]) for row in m)


def conjugate_datum(inv, u, uinv):
    """Transport an involution and its datum through the basis change v -> u.v.

    Vectors map by u, weights by the inverse transpose, and the involution
    by conjugation; the result describes the same group in new coordinates.
    """
    rd = inv.datum
    gens = tuple(tuple(mat_vec(u, c)) for c in rd.coroot_generators)
    conjugated = RootDatum(
        rank=rd.rank,
        coroot_generators=gens,
        display_weights=tuple(
            (label, tuple(mat_vec(transpose(uinv), frac_vec(lam))))
            for label, lam in rd.display_weights
        ),
        named_vectors=tuple(
            (name, tuple(mat_vec(u, v))) for name, v in rd.named_vectors
        ),
        name=rd.name,
        lift_note=rd.lift_note,
    )
    theta = mat_mul(mat_mul(u, inv.theta), uinv)
    return involution_from_matrix(conjugated, theta, name=inv.name)


def _integral(v) -> bool:
    return integer_row(v)[0] == 1


def datum_problems(rd) -> tuple[str, ...]:
    """Human-readable diagnostics of a malformed root datum; empty means valid.

    The checks: a nonnegative rank; coroots of the right length, integral,
    nonzero and closed under negation; display weights and named vectors of
    the right length, the named vectors integral.
    """
    bad = []
    n = rd.rank
    if n < 0:
        bad.append("rank is negative")
    seen = set(rd.coroot_generators)
    for c in rd.coroot_generators:
        if len(c) != n:
            bad.append(f"coroot {_brief(str(c))} has wrong length")
            continue
        if not _integral(c):
            bad.append(f"coroot {_brief(str(c))} not in cocharacter lattice")
        if not any(c):
            bad.append(f"coroot {_brief(str(c))} is zero")
        neg = tuple(-x for x in c)
        if neg not in seen:
            bad.append(f"coroot set is not symmetric: missing {_brief(str(neg))}")
    for label, w in rd.display_weights:
        if len(w) != n:
            bad.append(f"display weight {label!r} has wrong length")
    for name, v in rd.named_vectors:
        if len(v) != n:
            bad.append(f"named vector {name!r} has wrong length")
        elif not _integral(v):
            bad.append(f"named vector {name!r} is not in the cocharacter lattice")
    return tuple(bad)
