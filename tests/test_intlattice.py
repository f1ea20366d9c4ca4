"""Exact lattice arithmetic: frozen examples plus randomized laws.

Expected values for the worked examples were derived by hand or by the
small enumeration oracles written inline, then frozen.
"""

import math
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from helpers import (
    det,
    frac_solve,
    frac_vec,
    gauss_jordan,
    image_lattice,
    mat_mul,
    mat_vec,
    random_int_matrix,
    random_unimodular,
    scaled,
)
from pi0real.intlattice import (
    BoundExceeded,
    DimensionMismatch,
    InfiniteIndex,
    KernelStack,
    Lattice,
    LatticeError,
    NotASublattice,
    QuotientStructure,
    _hermite,
    basis_residues,
    brute_force_quotient,
    coords_in_lattice,
    hnf,
    identity_matrix,
    integer_row,
    kernel_lattice,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    matrix_action,
    membership,
    quotient_structure,
    reduce_mod,
    relation_matrix,
    snf,
    transpose,
    walk_quotient,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Hermite form


def test_hnf_frozen_example():
    assert hnf(((4, 6), (6, 10))) == ((2, 0), (0, 2))


def test_hnf_single_row_keeps_content():
    assert hnf(((4, 6),)) == ((4, 6),)


def test_hnf_drops_zero_rows_and_is_canonical():
    m = ((0, 0), (3, 1), (0, 0))
    assert hnf(m) == ((3, 1),)


def test_hnf_empty():
    assert hnf((), 3) == ()


def test_hnf_above_pivot_reduction():
    h = hnf(((1, 7), (0, 3)))
    assert h == ((1, 1), (0, 3))
    for row in h:
        pass
    # entry above the second pivot lies in [0, 3)
    assert 0 <= h[0][1] < 3


def test_hnf_idempotent_and_span_preserving_random():
    rng = random.Random(0x5EED)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_int_matrix(rng, r, c)
        h = hnf(m)
        assert hnf(h) == h
        lat_m = Lattice(c, m)
        lat_h = Lattice(c, h)
        assert lat_m == lat_h
        for row in m:
            assert membership(frac_vec(row), lat_h)
        for row in h:
            assert membership(frac_vec(row), lat_m)


# ---------------------------------------------------------------------------
# Smith form


def test_snf_frozen_diag():
    d, u, v = snf(((3, 0), (0, 5)))
    assert d == (1, 15)


def test_snf_frozen_2x2():
    d, u, v = snf(((2, 4), (6, 8)))
    assert d == (2, 4)


def test_snf_zero_matrix():
    d, u, v = snf(((0, 0), (0, 0)))
    assert d == (0, 0)
    assert u == identity_matrix(2)
    assert v == identity_matrix(2)


def _diag_embed(d, r, c):
    return tuple(
        tuple((d[i] if i == j and i < len(d) else 0) for j in range(c)) for i in range(r)
    )


def _snf_inputs():
    """Random matrices up to 8 x 8, empty and rank-deficient shapes, and
    diagonals with coprime entries, which need the divisibility step."""
    rng = random.Random(0xCAFE)
    for _ in range(80):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        yield r, c, random_int_matrix(rng, r, c)
    rng = random.Random(0x5A1E)
    for c in range(4):
        yield 0, c, ()
        yield c, 0, ((),) * c
    for _ in range(60):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        rows = [list(row) for row in random_int_matrix(rng, r, c)]
        rows[rng.randrange(r)] = list(rows[rng.randrange(r)])
        for j in rng.sample(range(c), rng.randint(0, c - 1)):
            for row in rows:
                row[j] = 0
        yield r, c, tuple(map(tuple, rows))
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    for _ in range(20):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        entries = rng.sample(primes, min(r, c))
        yield r, c, _diag_embed([rng.choice((1, -1)) * x for x in entries], r, c)


def test_snf_transform_identity_random():
    for r, c, m in _snf_inputs():
        d, u, v = snf(m, c)
        assert mat_mul(mat_mul(u, m), v) == _diag_embed(d, r, c)
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_snf_transforms_stay_short_on_the_ladder_matrix():
    # the random 40 x 40 ladder matrix, and diag(first 30 primes), whose
    # coprime entries make every pair a divisibility step
    primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
    diag = [[p * (i == j) for j in range(30)] for i, p in enumerate(primes)]
    for m in (random_int_matrix(random.Random(1), 40, 40), diag):
        k = len(m)
        d, u, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == _diag_embed(d, k, k)
        assert max(len(str(abs(x))) for t in (u, v) for row in t for x in row) <= 100


# ---------------------------------------------------------------------------
# Lattice canonical form


def test_lattice_equality_after_scaling():
    assert Lattice(2, ((2, 0), (0, 2))) == scaled(Lattice.standard(2), 2)
    assert Lattice(2, ((2, 0), (2, 2))) == scaled(Lattice(2, ((0, 1), (1, 0))), -2)


def test_lattice_is_a_dimension_and_an_integer_basis():
    diagonal = Lattice(2, ((-1, -1),))
    assert diagonal.basis == ((1, 1),)
    assert list(Lattice.__dataclass_fields__) == ["ambient_dim", "basis"]


def test_lattice_rejects_bad_input():
    with pytest.raises(ValueError):
        Lattice(-1)
    with pytest.raises(ValueError):
        Lattice(2, ((1,),))
    with pytest.raises(ValueError):
        Lattice(2, ((Fraction(1, 2), 0),))


def test_lattice_scale():
    lat = Lattice.standard(2)
    assert scaled(lat, 2) == Lattice(2, ((2, 0), (0, 2)))
    assert scaled(lat, 0) == Lattice.zero(2)
    # the scalar is an integer: a rational one is a non-integer basis entry
    with pytest.raises(LatticeError, match="non-integer"):
        scaled(lat, HALF)


# ---------------------------------------------------------------------------
# membership


def test_membership_examples():
    diag = Lattice(2, ((1, 1),))
    assert membership((0, 0), diag)
    assert membership((1, 1), diag)
    assert not membership((1, 0), diag)
    assert membership((Fraction(2), 2), scaled(diag, 2))
    assert not membership((HALF, HALF), diag)
    # a non-integral vector lies in no integer lattice
    assert not membership((HALF, HALF), Lattice.standard(2))


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        membership((1, 0, 0), Lattice.standard(2))


def test_membership_catches_non_pivot_junk():
    lat = Lattice(3, ((1, 0, 1), (0, 2, 0)))
    assert membership((1, 2, 1), lat)
    assert not membership((1, 1, 1), lat)
    assert not membership((1, 0, 0), lat)


# ---------------------------------------------------------------------------
# sum and intersection


def test_sum_frozen_example():
    two = scaled(Lattice.standard(2), 2)
    three = scaled(Lattice.standard(2), 3)
    total = lattice_sum(two, three)
    # witness: (1,0) = 2*(2,0) - (3,0)
    assert total == Lattice.standard(2)


def test_intersect_frozen_example_with_enumeration_oracle():
    two = scaled(Lattice.standard(2), 2)
    three = scaled(Lattice.standard(2), 3)
    meet = lattice_intersect(two, three)
    expected = scaled(Lattice.standard(2), 6)
    assert meet == expected
    # oracle: integer points in a box belong to both iff they belong to meet
    for x, y in iproduct(range(-7, 8), repeat=2):
        v = (x, y)
        both = membership(v, two) and membership(v, three)
        assert both == membership(v, meet)


def test_intersect_with_doubled_lattice():
    # the shape of H1's super-lattice: 2X meets a lattice with odd points
    diag = Lattice(2, ((1, 1),))
    meet = lattice_intersect(scaled(Lattice.standard(2), 2), diag)
    assert meet == Lattice(2, ((2, 2),))
    # oracle: multiples k*(1, 1) are even exactly for even k
    for k in range(-6, 7):
        v = (k, k)
        expect = k % 2 == 0
        assert membership(v, meet) == expect


def test_sum_intersect_laws_random():
    rng = random.Random(0xA11CE)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = scaled(Lattice(n, random_int_matrix(rng, rng.randint(0, n + 1), n)),
                   rng.choice([1, 2]))
        b = scaled(Lattice(n, random_int_matrix(rng, rng.randint(0, n + 1), n)),
                   rng.choice([1, 2]))
        c = Lattice(n, random_int_matrix(rng, rng.randint(0, n + 1), n))
        assert lattice_sum(a, b) == lattice_sum(b, a)
        assert lattice_intersect(a, b) == lattice_intersect(b, a)
        assert lattice_sum(lattice_sum(a, b), c) == lattice_sum(a, lattice_sum(b, c))
        assert lattice_sum(a, a) == a
        assert lattice_intersect(a, a) == a
        # absorption
        assert lattice_intersect(a, lattice_sum(a, b)) == a
        assert lattice_sum(a, lattice_intersect(a, b)) == a


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        lattice_sum(Lattice.standard(2), Lattice.standard(3))


# ---------------------------------------------------------------------------
# kernel and image


SWAP_NEG = ((0, -1), (-1, 0))


def test_kernel_frozen_example():
    theta_plus_one = ((1, -1), (-1, 1))
    ker = kernel_lattice(Lattice.standard(2), matrix_action(theta_plus_one, 2))
    assert ker == Lattice(2, ((1, 1),))


def test_kernel_of_zero_map_is_everything():
    lat = Lattice(2, ((2, 0), (0, 2)))
    assert kernel_lattice(lat, matrix_action(((0, 0), (0, 0)), 2)) == lat


def test_image_frozen_example():
    one_minus_theta = ((1, 1), (1, 1))
    img = image_lattice(Lattice.standard(2), one_minus_theta)
    assert img == Lattice(2, ((1, 1),))


def test_matrix_of_wrong_size_raises_dimension_mismatch():
    lat = Lattice.standard(2)
    for a in ((), ((1, 0),), ((1, 0), (0, 1), (0, 0)), ((1, 0), (0,)), ((1,), (0,))):
        with pytest.raises(DimensionMismatch):
            kernel_lattice(lat, matrix_action(a, 2))
    # a map whose images are too short or too long does not act on Z^2
    for a in (lambda v: v[:1], lambda v: v + (0,)):
        with pytest.raises(DimensionMismatch, match="^map does not act on the ambient space$"):
            kernel_lattice(lat, a)
    assert kernel_lattice(Lattice.standard(0), matrix_action((), 0)) == Lattice.standard(0)


def test_zero_map_returns_its_lattice_after_the_dimension_checks():
    rng = random.Random(0x2E80)
    kinds = ("zero", "full", "random")
    for n in range(1, 6):
        zero_map = matrix_action(((0,) * n,) * n, n)
        for kind in kinds:
            lat = _random_lattice(rng, n, rng.randint(1, 3), kind)
            targets = [None] + [_random_lattice(rng, n, rng.randint(1, 3), k) for k in kinds]
            stack = KernelStack(lat, zero_map)
            assert stack.kernel is lat
            for target in targets:
                assert kernel_lattice(lat, zero_map, target) is lat
                if target is not None:
                    assert stack.preimage(target) is lat
            # a target elsewhere, or a map whose images have the wrong length
            far = Lattice.zero(n + 1)
            with pytest.raises(DimensionMismatch, match=f"^ambient dimensions differ: {n} vs {n + 1}$"):
                kernel_lattice(lat, zero_map, far)
            with pytest.raises(DimensionMismatch, match=f"^ambient dimensions differ: {n} vs {n + 1}$"):
                stack.preimage(far)
            if not lat.is_zero:
                for short in (lambda v: (0,) * (n - 1), lambda v: (0,) * (n + 1)):
                    with pytest.raises(DimensionMismatch, match="^map does not act on the ambient space$"):
                        kernel_lattice(lat, short, targets[-1])
                    with pytest.raises(DimensionMismatch, match="^map does not act on the ambient space$"):
                        KernelStack(lat, short)


def test_continued_elimination_matches_one_pass_on_every_fixture():
    from test_components import split_fixtures

    for inv in split_fixtures():
        rd = inv.datum
        assert inv.x_spl == _one_pass_preimage(rd.cochar, inv.plus_one), rd.name
        assert inv.cocycles == _one_pass_preimage(rd.cochar, inv.plus_one, rd.coroots), rd.name
        assert inv.cocycles == kernel_lattice(rd.cochar, inv.plus_one, rd.coroots), rd.name


def test_matrix_action_matches_dense_product():
    rng = random.Random(0xAC71)
    for n in range(9):
        for kind in ("dense", "sparse", "zero columns"):
            a = random_int_matrix(rng, n, n)
            if kind == "sparse":
                a = tuple(tuple(x if rng.random() < 0.2 else 0 for x in row) for row in a)
            elif kind == "zero columns":
                zero = {j for j in range(n) if rng.random() < 0.5}
                a = tuple(tuple(0 if j in zero else x for j, x in enumerate(row)) for row in a)
            act = matrix_action(a, n)
            vectors = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(3)]
            for v in vectors + [(0,) * n] + list(identity_matrix(n)):
                image = act(v)
                assert image == mat_vec(a, v), (a, v)
                assert all(type(x) is int for x in image)


def test_matrix_action_rejects_what_does_not_act():
    for a, n in ((((1, 0),), 2), (((1, 0),), 1), (((1, 0), (0, 1)), 3)):
        with pytest.raises(DimensionMismatch, match="^matrix does not act on the ambient space$"):
            matrix_action(a, n)
    act = matrix_action(((0, 1), (1, 0)), 2)
    for v in ((), (1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatch):
            act(v)
    for x in (Fraction(1, 2), Fraction(1)):
        with pytest.raises(LatticeError, match="^non-integer matrix entry Fraction"):
            matrix_action(((1, 0), (0, x)), 2)


def test_kernel_rows_are_already_canonical():
    # kernel_lattice and Lattice.standard build their lattices from rows
    # already in Hermite form, without a second reduction; the public
    # constructor must give the same canonical basis
    for n in range(8):
        assert Lattice.standard(n).basis == Lattice(n, identity_matrix(n)).basis
    rng = random.Random(0x4E57)
    for _ in range(600):
        n = rng.randint(1, 5)
        lat = _random_lattice(rng, n, rng.choice([1, 2, 3]),
                              rng.choice(["zero", "full", "random"]))
        a = random_int_matrix(rng, n, n, -2, 2)
        if rng.random() < 0.3:
            a = tuple(tuple(x if rng.random() < 0.3 else 0 for x in row) for row in a)
        target = None
        if rng.random() < 0.5:
            target = Lattice(n, random_int_matrix(rng, rng.randint(0, n + 1), n))
        ker = kernel_lattice(lat, matrix_action(a, n), target)
        assert ker.basis == Lattice(n, ker.basis).basis, (lat, a, target)
        assert ker.basis == hnf(ker.basis, n)


def test_image_of_identity():
    lat = Lattice(3, ((1, 2, 3), (0, 1, 0)))
    assert image_lattice(lat, identity_matrix(3)) == lat


def test_kernel_image_ranks_add_up():
    rng = random.Random(0xD1CE)
    for _ in range(30):
        n = rng.randint(1, 4)
        # an involution-like matrix: diag of +-1 in a random unimodular basis
        u, uinv = random_unimodular(rng, n)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        d = tuple(tuple(signs[i] * int(i == j) for j in range(n)) for i in range(n))
        theta = mat_mul(mat_mul(u, d), uinv)
        plus = kernel_lattice(Lattice.standard(n), matrix_action(mat_sub_id(theta, 1), n))
        minus = kernel_lattice(Lattice.standard(n), matrix_action(mat_sub_id(theta, -1), n))
        assert plus.rank + minus.rank == n


def _transform_left_kernel(m):
    """Basis of {x : x*m == 0}, read off a Hermite reduction of m that tracks
    its unimodular row transform u: the rows of u below the rank.

    This is the transform route that kernel_lattice and lattice_intersect
    used before they reduced one stacked matrix, kept as a reference.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def sub(i, k, q):
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

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
            rows[piv], rows[best] = rows[best], rows[piv]
            u[piv], u[best] = u[best], u[piv]
            for i in range(piv + 1, nrows):
                if rows[i][col]:
                    sub(i, piv, rows[i][col] // rows[piv][col])
            if all(rows[i][col] == 0 for i in range(piv + 1, nrows)):
                break
        if rows[piv][col] < 0:
            rows[piv] = [-x for x in rows[piv]]
            u[piv] = [-x for x in u[piv]]
        for i in range(piv):
            sub(i, piv, rows[i][col] // rows[piv][col])
        piv += 1
    return tuple(tuple(r) for r in u[piv:])


def _transform_kernel_lattice(lat, a):
    kernel = _transform_left_kernel(mat_mul(lat.basis, transpose(a)))
    return Lattice(lat.ambient_dim, mat_mul(kernel, lat.basis))


def _transform_preimage(lat, a, target):
    """{v in lat : a(v) in target}: the left kernel of [B*a^T ; T], with its
    first rank(B) coordinates applied to B."""
    kernel = _transform_left_kernel(mat_mul(lat.basis, transpose(a)) + target.basis)
    gens = [
        tuple(sum(k * row[j] for k, row in zip(kv, lat.basis)) for j in range(lat.ambient_dim))
        for kv in kernel
    ]
    return Lattice(lat.ambient_dim, gens)


def _one_pass_preimage(lat, a, target=None):
    """{v in lat : a(v) in target} from one Hermite reduction of
    [[a(B), B], [T, 0]], with no continued stack and no zero-map shortcut:
    the single pass that KernelStack splits in two, kept as a reference."""
    n = lat.ambient_dim
    rows = [[*a(r), *r] for r in lat.basis]
    if target is not None:
        rows += [[*t, *[0] * n] for t in target.basis]
    _hermite(rows)
    return Lattice(n, [r[n:] for r in rows if not any(r[:n])])


def _transform_intersect(a, b):
    n = a.ambient_dim
    if a.is_zero or b.is_zero:
        return Lattice.zero(n)
    ra = [list(row) for row in a.basis]
    rb = [[-x for x in row] for row in b.basis]
    gens = [
        tuple(sum(k * r[j] for k, r in zip(kv, ra)) for j in range(n))
        for kv in _transform_left_kernel(ra + rb)
    ]
    return Lattice(n, gens)


def _random_lattice(rng, n, scale, kind):
    if kind == "zero":
        return Lattice(n, ())
    if kind == "full":
        u, _ = random_unimodular(rng, n)
        scales = [rng.choice([1, 2, 3, -2]) for _ in range(n)]
        rows = tuple(tuple(c * x for x in row) for c, row in zip(scales, u))
    else:
        rows = random_int_matrix(rng, rng.randint(1, n + 1), n)
    return scaled(Lattice(n, rows), scale)


def _random_square(rng, n, singular):
    while True:
        a = [list(r) for r in random_int_matrix(rng, n, n, -3, 3)]
        if singular:
            i = rng.randrange(n)
            coeffs = [0 if k == i else rng.randint(-2, 2) for k in range(n)]
            a[i] = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(n)]
            return a
        if det(a):
            return a


def test_stacked_kernels_match_transform_route_random():
    rng = random.Random(0x57AC)
    kinds = ("zero", "full", "random")
    seen = set()
    for case in range(240):
        n = 1 + case % 6
        scale = 1 + (case // 6) % 4
        kind = kinds[(case // 24) % 3]
        singular = case % 2 == 0
        lat = _random_lattice(rng, n, scale, kind)
        a = _random_square(rng, n, singular)
        assert (det(a) == 0) == singular
        act = matrix_action(a, n)
        assert kernel_lattice(lat, act) == _transform_kernel_lattice(lat, a), (lat, a)
        other = _random_lattice(rng, n, rng.randint(1, 4), rng.choice(kinds))
        assert lattice_intersect(lat, other) == _transform_intersect(lat, other), (lat, other)
        assert kernel_lattice(lat, act, other) == _transform_preimage(lat, a, other), (lat, a, other)
        stack = KernelStack(lat, act)
        assert stack.kernel == _one_pass_preimage(lat, act), (lat, a)
        assert stack.preimage(other) == _one_pass_preimage(lat, act, other), (lat, a, other)
        assert kernel_lattice(lat, act, Lattice.zero(n)) == kernel_lattice(lat, act)
        with pytest.raises(DimensionMismatch):
            kernel_lattice(lat, act, Lattice.zero(n + 1))
        seen.add((n, scale, lat.is_zero, lat.rank == n, singular))
    # every dimension, scale, lattice shape and matrix kind came up
    assert {s[0] for s in seen} == set(range(1, 7))
    assert {s[1] for s in seen} == set(range(1, 5))
    assert {(s[2], s[3]) for s in seen} >= {(True, False), (False, True), (False, False)}
    assert {s[4] for s in seen} == {True, False}


def mat_sub_id(theta, sign):
    n = len(theta)
    return tuple(
        tuple(theta[i][j] - sign * int(i == j) for j in range(n)) for i in range(n)
    )


# ---------------------------------------------------------------------------
# quotients


def test_quotient_frozen_cyclic6():
    sub = Lattice(2, ((2, 0), (0, 3)))
    q = quotient_structure(sub, Lattice.standard(2))
    assert q.invariant_factors == (6,)
    assert q.free_rank == 0
    assert q.order == 6
    (g,) = q.generators
    assert membership(g, Lattice.standard(2))
    assert not membership(g, sub)
    assert membership(tuple(6 * x for x in g), sub)


def test_quotient_frozen_klein_four():
    sub = scaled(Lattice.standard(2), 2)
    q = quotient_structure(sub, Lattice.standard(2))
    assert q.invariant_factors == (2, 2)
    assert q.order == 4


def test_quotient_six_cosets_from_det():
    sub = Lattice(2, ((2, 0), (1, 3)))
    q = quotient_structure(sub, Lattice.standard(2))
    assert q.order == 6


def test_quotient_trivial_and_free():
    lat = Lattice.standard(3)
    q = quotient_structure(lat, lat)
    assert q.invariant_factors == () and q.free_rank == 0 and q.order == 1
    sub = Lattice(2, ((2, 0),))
    q2 = quotient_structure(sub, Lattice.standard(2))
    assert q2.invariant_factors == (2,)
    assert q2.free_rank == 1
    assert q2.order is None
    assert len(q2.free_generators) == 1


def test_quotient_rank_zero_ambient():
    q = quotient_structure(Lattice.zero(0), Lattice.zero(0))
    assert q.order == 1


def test_quotient_rejects_non_sublattice():
    with pytest.raises(NotASublattice):
        quotient_structure(Lattice.standard(2), scaled(Lattice.standard(2), 2))


def test_quotient_generators_are_canonical_residues():
    sub = Lattice(2, ((2, 0), (0, 3)))
    q = quotient_structure(sub, Lattice.standard(2))
    (g,) = q.generators
    assert reduce_mod(g, sub) == g


def test_reduce_mod_is_a_coset_invariant():
    rng = random.Random(0xF00D)
    sub = Lattice(3, ((2, 1, 0), (0, 3, 1), (0, 0, 4)))
    for _ in range(40):
        v = frac_vec([rng.randint(-9, 9) for _ in range(3)])
        r = reduce_mod(v, sub)
        assert membership(tuple(a - b for a, b in zip(v, r)), sub)
        assert reduce_mod(r, sub) == r
        shift = frac_vec(
            mat_vec_rows(sub, [rng.randint(-2, 2) for _ in range(3)])
        )
        assert reduce_mod(tuple(a + b for a, b in zip(v, shift)), sub) == r


def mat_vec_rows(lat, coeffs):
    n = lat.ambient_dim
    out = [0] * n
    for c, row in zip(coeffs, lat.basis):
        for i in range(n):
            out[i] += c * row[i]
    return out


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_force_frozen_klein_four():
    sub = scaled(Lattice.standard(2), 2)
    q = brute_force_quotient(sub, Lattice.standard(2))
    assert q.invariant_factors == (2, 2)
    # every nontrivial class has order 2
    assert q.order == 4


def test_brute_force_frozen_six_cosets():
    sub = Lattice(2, ((2, 0), (1, 3)))
    q = brute_force_quotient(sub, Lattice.standard(2))
    assert q.order == 6
    assert q.invariant_factors == (6,)


def test_brute_force_single_coset():
    lat = Lattice(2, ((1, 2), (0, 5)))
    q = brute_force_quotient(lat, lat)
    assert q.order == 1 and q.generators == ()


def test_brute_force_infinite_index():
    with pytest.raises(InfiniteIndex):
        brute_force_quotient(Lattice(2, ((1, 0),)), Lattice.standard(2))


def test_brute_force_bound_exceeded():
    sub = scaled(Lattice.standard(2), 64)
    with pytest.raises(BoundExceeded):
        brute_force_quotient(sub, Lattice.standard(2), bound=100)


def test_brute_force_larger_power_of_two_index():
    sub = Lattice(3, ((16, 0, 0), (0, 16, 0), (0, 0, 16)))
    q = brute_force_quotient(sub, Lattice.standard(3), bound=4096)
    assert q.invariant_factors == (16, 16, 16)


def _seeded_quotients(rng):
    """(sub, sup) pairs with finite quotients, among them Z/4 x Z/2, Z/6,
    Z/8, Z/3 x Z/3 and (Z/2)^3, each also conjugated by a unimodular matrix."""
    diagonals = [(4, 2), (2, 3), (8, 1), (3, 3), (2, 2, 2), (4, 2, 1), (6, 1, 2), (1, 1)]
    pairs = []
    for d in diagonals:
        n = len(d)
        sub = Lattice(n, [[d[i] * int(i == j) for j in range(n)] for i in range(n)])
        pairs.append((sub, Lattice.standard(n)))
        u, _ = random_unimodular(rng, n)
        sup = scaled(Lattice(n, u), rng.choice([1, 2]))
        pairs.append((Lattice(n, mat_mul(sub.basis, sup.basis)), sup))
    while len(pairs) < 40:
        n = rng.randint(1, 4)
        sup = _random_lattice(rng, n, rng.choice([1, 2]), "full")
        r = random_int_matrix(rng, n, n, -3, 3)
        if det(r) and abs(det(r)) <= 300:
            pairs.append((Lattice(n, mat_mul(r, sup.basis)), sup))
    return pairs


def test_brute_force_bound_is_the_coset_count():
    """The walk succeeds with bound = |G| and raises with bound = |G| - 1."""
    rng = random.Random(0xB0B0)
    orders = set()
    for sub, sup in _seeded_quotients(rng):
        want = quotient_structure(sub, sup)
        order = want.order
        orders.add(order)
        got = brute_force_quotient(sub, sup, bound=order)
        assert got == brute_force_quotient(sub, sup)
        assert got.invariant_factors == want.invariant_factors
        assert got.order == order
        assert all(reduce_mod(g, sub) == g and membership(g, sup) for g in got.generators)
        if order > 1:
            with pytest.raises(BoundExceeded, match=f"^more than {order - 1} cosets$"):
                brute_force_quotient(sub, sup, bound=order - 1)
    assert {1, 6, 8, 9} <= orders, orders
    z2 = Lattice.standard(2)
    assert brute_force_quotient(Lattice(2, ((4, 0), (0, 2))), z2, bound=8).invariant_factors == (2, 4)
    assert brute_force_quotient(Lattice(2, ((2, 0), (0, 3))), z2, bound=6).invariant_factors == (6,)


def test_sparse_rows_match_the_hermite_basis():
    rng = random.Random(0x5A55)
    for _ in range(200):
        n = rng.randint(0, 6)
        kind = rng.choice(["zero", "full", "any", "any"]) if n else "zero"
        lat = _random_lattice(rng, n, rng.choice([1, 2, 3]), kind)
        assert len(lat._rows) == lat.rank
        for (j, p, pairs), row in zip(lat._rows, lat.basis):
            assert j == next(k for k, x in enumerate(row) if x)
            assert p == row[j] > 0
            assert pairs == tuple((k, x) for k, x in enumerate(row) if x)


def test_reductions_leave_their_arguments_alone():
    rng = random.Random(0xA11CE)
    for _ in range(100):
        n = rng.randint(1, 5)
        sub = _random_lattice(rng, n, rng.choice([1, 2, 4]), rng.choice(["full", "any"]))
        sup = lattice_sum(sub, _random_lattice(rng, n, 1, "any"))
        before = (sub.basis, sup.basis, sub._rows, sup._rows)
        for v in ([rng.randint(-9, 9) for _ in range(n)],
                  [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)],
                  mat_vec_rows(sub, [rng.randint(-2, 2) for _ in range(sub.rank)])):
            kept = list(v)
            reduce_mod(v, sub)
            coords_in_lattice(v, sub)
            assert v == kept
        basis_residues(sub, sup)
        relation_matrix(sub, sup)
        assert (sub.basis, sup.basis, sub._rows, sup._rows) == before


def test_brute_force_agrees_with_snf_random():
    """Dual-route check: exhaustive enumeration vs Smith form."""
    rng = random.Random(0x0DDBA11)
    trials = 0
    while trials < 40:
        n = rng.randint(1, 4)
        sup = scaled(Lattice(n, random_int_matrix(rng, n + 1, n)), rng.choice([1, 1, 2]))
        if sup.rank < n:
            continue
        r = random_int_matrix(rng, n, n, -3, 3)
        d = det(r)
        if d == 0 or abs(d) > 512:
            continue
        sub = Lattice(n, mat_mul(r, sup.basis))
        fast = quotient_structure(sub, sup)
        slow = brute_force_quotient(sub, sup, bound=600)
        assert fast.invariant_factors == slow.invariant_factors
        assert fast.order == slow.order == abs(d)
        # the relation matrix is upper triangular with a positive diagonal,
        # whose product is the index
        rel = relation_matrix(sub, sup)
        assert all(rel[i][j] == 0 for i in range(n) for j in range(i))
        assert all(rel[i][i] > 0 for i in range(n))
        assert math.prod(rel[i][i] for i in range(n)) == abs(d) == lattice_index(sub, sup)
        trials += 1


def _fraction_reduce(v, sub):
    """Canonical residue of v modulo sub, in Fraction arithmetic."""
    w = tuple(v)
    for row in map(frac_vec, sub.basis):
        j = next(k for k, x in enumerate(row) if x)
        q = w[j] // row[j]
        if q:
            w = tuple(a - q * b for a, b in zip(w, row))
    return w


def _fraction_walk(sub, sup, bound):
    """Reference coset walk in Fraction arithmetic: +- steps, element
    orders by membership, generators grown from the sorted cosets."""
    for v in sub.basis:
        if not membership(v, sup):
            raise NotASublattice(f"generator {v} is not in the super-lattice")
    if sub.rank < sup.rank:
        raise InfiniteIndex("sub-lattice has lower rank; quotient is infinite")

    def add(x, y):
        return _fraction_reduce(tuple(a + b for a, b in zip(x, y)), sub)

    zero = (Fraction(0),) * sup.ambient_dim
    steps = [s for g in map(frac_vec, sup.basis) for s in (g, tuple(-x for x in g))]
    found, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in steps:
                y = add(x, g)
                if y not in found:
                    if len(found) >= bound:
                        raise BoundExceeded(f"more than {bound} cosets")
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    n = len(found)
    if n == 1:
        return QuotientStructure((), 0, ())
    factors = _element_order_factors(found, sub)

    chosen, span = [], {zero}
    for x in sorted(found):
        if x in span:
            continue
        chosen.append(x)
        while True:
            grown = span | {add(s, x) for s in span}
            if grown == span:
                break
            span = grown
        if len(span) == n:
            break
    return QuotientStructure(factors, 0, tuple(chosen))


def _element_order_factors(found, sub):
    """Invariant factors of the coset group `found` modulo sub, from how
    many of its cosets each prime power p**k kills, tested by membership."""
    n = len(found)
    # p-exponents of the cyclic factors, from how many cosets p**k kills
    exponents = {}
    for p in range(2, n + 1):
        if n % p or any(p % q == 0 for q in range(2, p)):
            continue
        part = p
        while n % (part * p) == 0:
            part *= p
        killed = [1]
        while killed[-1] < part:
            k = len(killed)
            killed.append(sum(1 for y in found if membership(tuple(p**k * a for a in y), sub)))
        # ge[k - 1]: the number of cyclic factors of p-exponent >= k
        ge = [next(e for e in range(n) if p**e * killed[k - 1] == killed[k])
              for k in range(1, len(killed))] + [0]
        exponents[p] = [k for k in range(len(ge) - 1, 0, -1) for _ in range(ge[k - 1] - ge[k])]
    width = max(len(e) for e in exponents.values())
    chain = []
    for j in range(width):
        chain.append(math.prod(p ** e[j] for p, e in exponents.items() if j < len(e)))
    return tuple(reversed(chain))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotASublattice, InfiniteIndex, BoundExceeded) as exc:
        return type(exc), str(exc)


def test_integer_walk_matches_fraction_walk():
    """The integer coset walk returns what the Fraction walk returns,
    exceptions included, on sums of scaled lattices."""
    rng = random.Random(0xC05E7)
    seen = {"ok": 0, NotASublattice: 0, InfiniteIndex: 0, BoundExceeded: 0}
    cases = 0
    while cases < 240:
        n = rng.randint(1, 3)
        lower_rank = rng.random() < 0.05
        sub = Lattice(n, random_int_matrix(rng, n - lower_rank, n, -3, 3))
        sub = scaled(sub, rng.choice([1, 2, 3, 4, 6]))
        extra = Lattice(n, random_int_matrix(rng, rng.randint(1, 2), n, -2, 2))
        extra = scaled(extra, rng.choice([1, 2, 3, 6]))
        sup = lattice_sum(sub, extra)
        if rng.random() < 0.15:
            sub, sup = sup, sub
        bound = rng.choice([8, 64, 150])
        want = _outcome(_fraction_walk, sub, sup, bound)
        got = _outcome(brute_force_quotient, sub, sup, bound)
        assert got == want, (sub, sup, bound)
        if not isinstance(want, QuotientStructure) and want[0] is NotASublattice:
            # every route reads the same containment check
            assert _outcome(quotient_structure, sub, sup) == want
            assert _outcome(lattice_index, sub, sup) == want
        seen["ok" if isinstance(want, QuotientStructure) else want[0]] += 1
        cases += 1
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("diagonal", [(16, 4, 2), (27, 3), (12, 2), (4096, 1), (30, 6, 2)])
def test_factors_from_multiples_match_element_orders(diagonal):
    """Invariant factors from the orders of the subgroups p**k * G, on
    groups with several p-levels and mixed primes, each in a random basis:
    sub = D * U * B and sup = B, U unimodular and B of small determinant."""
    rng = random.Random(sum(diagonal))
    n = len(diagonal)
    while True:
        b = random_int_matrix(rng, n, n, -2, 2)
        if 0 < abs(det(b)) <= 3:
            break
    u, _ = random_unimodular(rng, n, steps=6 * n)
    sup = Lattice(n, b)
    sub = Lattice(n, mat_mul([[d * (i == j) for j, _ in enumerate(diagonal)]
                              for i, d in enumerate(diagonal)], mat_mul(u, b)))
    want = quotient_structure(sub, sup)
    order = want.order
    assert order == math.prod(diagonal)
    # bound = |G| is enough, and |G| - 1 is not
    factors, cosets = walk_quotient(sub, sup, order)
    assert factors == want.invariant_factors
    assert len(cosets) == order and all(reduce_mod(c, sub) == c for c in cosets)
    got = brute_force_quotient(sub, sup, bound=order)
    assert got.invariant_factors == factors
    with pytest.raises(BoundExceeded, match=f"^more than {order - 1} cosets$"):
        walk_quotient(sub, sup, order - 1)
    if order <= 256:
        assert got == _fraction_walk(sub, sup, order)
    else:
        # the Fraction walk's generator pick is quadratic in |G|, so only its
        # element-order count runs here, on the integer walk's cosets
        assert _element_order_factors(cosets, sub) == factors


def test_index_multiplicative_in_chains():
    rng = random.Random(0x7E57)
    for _ in range(25):
        n = rng.randint(1, 3)
        c = Lattice.standard(n)
        r1 = random_int_matrix(rng, n, n, -2, 2)
        if det(r1) == 0:
            continue
        b = Lattice(n, r1)
        r2 = random_int_matrix(rng, n, n, -2, 2)
        if det(r2) == 0:
            continue
        a = Lattice(n, mat_mul(r2, b.basis))
        assert lattice_index(a, c) == lattice_index(a, b) * lattice_index(b, c)


# ---------------------------------------------------------------------------
# rational helpers


def _rational_rank(rows, ncols):
    """The rank of rational rows in integers, as the eigenspace checks
    read it: clear each row of denominators, then count Hermite rows."""
    return len(hnf([integer_row(row)[1] for row in rows], ncols))


def test_rat_inverse_roundtrip():
    """The Fraction inverse that the rational test references use inverts
    exactly the matrices whose integer-cleared rows have full Hermite
    rank, and its inverse round-trips."""
    m = ((1, 2), (3, 5))
    inv = frac_solve(m, identity_matrix(2))
    assert mat_mul(m, inv) == ((1, 0), (0, 1))
    rng = random.Random(0x1AF)
    inverted = singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            # a multiple of another row, possibly zero, makes m singular
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m[i] = [c * y for y in m[j]]
        scales = [math.lcm(*(Fraction(x).denominator for x in row)) for row in m]
        if det(tuple(tuple(int(x * s) for x in row) for row, s in zip(m, scales))):
            assert mat_mul(m, frac_solve(m, identity_matrix(n))) == identity_matrix(n)
            assert _rational_rank(m, n) == n
            inverted += 1
        else:
            assert frac_solve(m, identity_matrix(n)) is None
            assert _rational_rank(m, n) < n
            singular += 1
    assert inverted >= 100 and singular >= 50, (inverted, singular)


def test_integer_row_clears_denominators(monkeypatch):
    from pi0real import intlattice

    rng = random.Random(0x1C3)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-9, 9)
        if kind == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        if kind == 2:
            return rng.random() < 0.5
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}"

    for _ in range(400):
        v = [entry() for _ in range(rng.randint(0, 6))]
        c, ints = integer_row(v)
        assert type(c) is int and all(type(x) is int for x in ints)
        assert c == math.lcm(*(Fraction(x).denominator for x in v))
        assert [Fraction(x, c) for x in ints] == [Fraction(x) for x in v]

    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(intlattice, "Fraction", counted)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 6)))
        assert integer_row(v) == (1, list(v))
    assert made == []


def test_rat_inverse_singular():
    m = ((1, 2), (2, 4))
    assert frac_solve(m, identity_matrix(2)) is None
    assert _rational_rank(m, 2) == 1
    m = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), 1))
    assert frac_solve(m, identity_matrix(2)) is None
    assert _rational_rank(m, 2) == 1


def test_rat_rank_and_kernel():
    rows = ((1, 1, 0), (0, 1, 1))
    assert _rational_rank(rows, 3) == 2 == gauss_jordan(rows)[1]
    rows = ((Fraction(1, 2), Fraction(1, 2), 0), (0, Fraction(2, 3), Fraction(2, 3)),
            (1, Fraction(7, 3), Fraction(4, 3)))
    assert _rational_rank(rows, 3) == 2 == gauss_jordan(rows)[1]
    rng = random.Random(0x2A7)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)]
                for _ in range(nrows)]
        assert _rational_rank(rows, ncols) == gauss_jordan(rows)[1], rows


def _fraction_coords(v, lat):
    """The Fraction route to coordinates in lat's basis, kept as a reference
    for coords_in_lattice."""
    if len(v) != lat.ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    w = [Fraction(x) for x in v]
    if any(x.denominator != 1 for x in w):
        return None
    w = [int(x) for x in w]
    coeffs = []
    for row in lat.basis:
        j = next(k for k, x in enumerate(row) if x)
        q, rem = divmod(w[j], row[j])
        if rem:
            return None
        w = [a - q * b for a, b in zip(w, row)]
        coeffs.append(q)
    if any(w):
        return None
    return tuple(coeffs)


def test_integer_coords_match_fraction_coords():
    rng = random.Random(0xC0041)
    kinds = {"int": 0, "fraction": 0, "bool": 0, "mixed": 0}
    members = outsiders = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        basis = random_int_matrix(rng, rng.randint(0, n), n, -4, 4)
        scale = rng.randint(1, 6)
        lat = scaled(Lattice(n, basis), scale)
        for _ in range(6):
            c = [rng.randint(-3, 3) for _ in range(lat.rank)]
            point = [Fraction(sum(a * row[j] for a, row in zip(c, lat.basis)))
                     for j in range(n)]
            candidates = {
                "int": [tuple(int(x) for x in point)],
                "fraction": [tuple(point),
                             tuple(x + Fraction(1, rng.randint(2, 6)) for x in point)],
                "bool": [tuple(rng.random() < 0.5 for _ in range(n))],
                "mixed": [tuple(int(x) if x.denominator == 1 and rng.random() < 0.5 else x
                                for x in point)],
            }
            candidates["int"].append(tuple(rng.randint(-6, 6) for _ in range(n)))
            candidates["int"].append(tuple(d * scale for d in candidates["int"][-1]))
            for kind, vs in candidates.items():
                for v in vs:
                    want = _fraction_coords(v, lat)
                    assert coords_in_lattice(v, lat) == want, (v, lat)
                    kinds[kind] += 1
                    if want is None:
                        outsiders += 1
                    else:
                        members += 1
                        assert all(type(x) is int for x in coords_in_lattice(v, lat))
            for v in ((0,) * (n + 1), tuple(Fraction(1, 2) for _ in range(n - 1))):
                with pytest.raises(DimensionMismatch):
                    coords_in_lattice(v, lat)
    assert min(kinds.values()) >= 300, kinds
    assert members >= 1000 and outsiders >= 1000, (members, outsiders)
