"""Tests for involution construction and validation."""

import itertools
import random
from fractions import Fraction

import pytest

import helpers
from helpers import image_lattice, mat_add, mat_mul, mat_sub, mat_vec
from pi0real.intlattice import (
    DimensionMismatch,
    Lattice,
    LatticeError,
    kernel_lattice,
    identity_matrix,
    matrix_action,
    membership,
)
from pi0real.realform import (
    Involution,
    InvolutionError,
    build_preset,
    involution_from_eigenspaces,
    involution_from_matrix,
    product_involution,
)
from pi0real.rootdata import (
    PresetError, RootDatum, e7_adjoint, gl, product, pso, simple, so, torus_split,
)


def torus_datum(n):
    return RootDatum(rank=n)


def test_negated_identity_is_valid():
    rd, _ = gl(3)
    inv = involution_from_matrix(rd, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    assert inv.theta[0] == (-1, 0, 0)


def test_swap_is_valid_on_gl2():
    # the swap fixes the trace-zero coroot lattice and flips the two coroots
    rd, _ = gl(2)
    inv = involution_from_matrix(rd, ((0, 1), (1, 0)), name="swap")
    assert inv.name == "swap"


def test_rejects_non_involution():
    rd, _ = gl(2)
    with pytest.raises(InvolutionError, match="not an involution"):
        involution_from_matrix(rd, ((1, 1), (0, 1)))


def test_rejects_wrong_shape():
    rd, _ = gl(2)
    with pytest.raises(InvolutionError):
        involution_from_matrix(rd, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(InvolutionError):
        involution_from_matrix(rd, ((Fraction(1, 2),),))


def test_boolean_entries_are_not_integers():
    with pytest.raises(LatticeError, match="^non-integer matrix entry True$"):
        Lattice(1, [[True]])
    with pytest.raises(LatticeError, match="^non-integer matrix entry True$"):
        matrix_action([[True]], 1)
    # kernel_lattice takes a map; no number names the identity
    for a in (True, 1.0):
        with pytest.raises(TypeError):
            kernel_lattice(Lattice(2, [[2, 0], [0, 2]]), a, Lattice.standard(2))
    with pytest.raises(InvolutionError, match="^bad involution matrix: non-integer matrix entry True$"):
        involution_from_matrix(torus_datum(1), [[True]])


def test_derived_lattices_read_theta_through_apply():
    # built directly, with no validation: each derived lattice must still
    # reject theta's own entry, not an entry of theta + 1 or theta - 1
    for entry in (True, 0.0):
        inv = Involution(((entry,),), RootDatum(rank=1))
        for attr in ("x_spl", "coboundaries"):
            with pytest.raises(LatticeError, match=f"^non-integer matrix entry {entry}$"):
                getattr(inv, attr)


def test_apply_rejects_a_theta_that_does_not_act():
    with pytest.raises(DimensionMismatch, match="^matrix does not act on the ambient space$"):
        Involution(((1, 0),), torus_datum(1)).apply((1, 0))
    with pytest.raises(DimensionMismatch):
        Involution(((-1, 0), (0, 1)), torus_datum(2)).apply((1, 0, 0))


def test_rejects_coroot_lattice_violation():
    # diag(1,-1) sends e1 - e2 to e1 + e2, outside the trace-zero lattice;
    # the coroot-set check catches it, since Q is the span of the coroots
    rd, _ = gl(2)
    with pytest.raises(InvolutionError) as exc:
        involution_from_matrix(rd, ((1, 0), (0, -1)))
    assert str(exc.value) == (
        "involution does not normalize the coroot set: theta((1, -1)) = (1, 1) is not a coroot"
    )


def test_rejects_coroot_set_violation():
    # preserves the lattice spanned by (2,0) and (1,1) but maps the coroot
    # (1,1) to (1,-1), which is not on the list
    rd = RootDatum(
        rank=2,
        coroot_generators=((2, 0), (-2, 0), (1, 1), (-1, -1)),
    )
    with pytest.raises(InvolutionError, match="normalize the coroot set"):
        involution_from_matrix(rd, ((1, 0), (0, -1)))


def test_vector_quotes_in_involution_messages_are_bounded():
    # one coroot pair +-e1 on Z^300, and theta swapping e1 and e2
    n = 300
    e1 = (1,) + (0,) * (n - 1)
    rd = RootDatum(rank=n, coroot_generators=(e1, tuple(-x for x in e1)))
    swap = [list(row) for row in identity_matrix(n)]
    swap[0], swap[1] = swap[1], swap[0]
    with pytest.raises(InvolutionError, match=r"theta\(\(1, 0, 0, .*\.\.\.\) = \(0, 1, 0") as long:
        involution_from_matrix(rd, swap)
    assert len(str(long.value)) < 250
    quoted = r"eigenvector \(Fraction\(1, 1\), .*\.\.\. has wrong"
    with pytest.raises(InvolutionError, match=quoted) as long:
        involution_from_eigenspaces(torus_datum(2), [(1,) * n], [])
    assert len(str(long.value)) < 150


def _signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(
                tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                for i in range(n)
            )


def test_coroot_set_check_implies_lattice_check():
    # reference for the coroot-lattice test involution_from_matrix no longer
    # makes: whatever it accepts preserves Q, whatever breaks Q it rejects
    rng = random.Random(6)
    data = [gl(3), so(3, 4), pso(3, 3)] + [
        simple(t, 3, isogeny, "split") for t in "BC" for isogeny in ("sc", "adj")
    ]
    accepted = broken = 0
    for rd, theta in data:
        frames = [(rd, identity_matrix(3), identity_matrix(3))]
        for _ in range(2):
            u, uinv = helpers.random_unimodular(rng, 3)
            crd = helpers.conjugate_datum(involution_from_matrix(rd, theta), u, uinv).datum
            frames.append((crd, u, uinv))
        for crd, u, uinv in frames:
            for s in _signed_permutations(3):
                t = mat_mul(mat_mul(u, s), uinv)
                preserved = image_lattice(crd.coroots, t) == crd.coroots
                try:
                    involution_from_matrix(crd, t)
                except InvolutionError:
                    broken += not preserved
                    continue
                accepted += 1
                assert preserved, (crd.name, t)
    assert accepted and broken


# ---------------------------------------------------------------------------
# eigenspace construction


def test_eigenspaces_full_split():
    rd = torus_datum(2)
    inv = involution_from_eigenspaces(rd, [(1, 0), (0, 1)], [])
    assert inv.theta == ((-1, 0), (0, -1))


def test_eigenspaces_weil_involution():
    # split (1,1), compact (1,-1) forces the negated swap
    rd = torus_datum(2)
    inv = involution_from_eigenspaces(rd, [(1, 1)], [(1, -1)])
    assert inv.theta == ((0, -1), (-1, 0))


def test_eigenspaces_accept_rational_vectors():
    rd = torus_datum(2)
    inv = involution_from_eigenspaces(
        rd, [(Fraction(1, 2), Fraction(1, 2))], [(Fraction(1, 2), Fraction(-1, 2))]
    )
    assert inv.theta == ((0, -1), (-1, 0))


def test_eigenspaces_reject_deficient_spans():
    rd = torus_datum(2)
    with pytest.raises(InvolutionError, match="not complementary"):
        involution_from_eigenspaces(rd, [(1, 0)], [])
    with pytest.raises(InvolutionError, match="not complementary"):
        involution_from_eigenspaces(rd, [(1, 0)], [(2, 0)])
    with pytest.raises(InvolutionError, match="dependent"):
        involution_from_eigenspaces(rd, [(1, 0), (2, 0)], [])


def test_eigenspaces_reject_non_integral_theta():
    # eigenvectors (1,2) and (2,1) give thirds in the matrix
    rd = torus_datum(2)
    with pytest.raises(InvolutionError, match="not integral"):
        involution_from_eigenspaces(rd, [(1, 2)], [(2, 1)])


def test_eigenspaces_check_eigenvalues():
    rd = torus_datum(3)
    inv = involution_from_eigenspaces(rd, [(1, 1, 0)], [(1, -1, 0), (0, 0, 1)])
    assert mat_vec(inv.theta, (1, 1, 0)) == (-1, -1, 0)
    assert mat_vec(inv.theta, (1, -1, 0)) == (1, -1, 0)
    assert mat_vec(inv.theta, (0, 0, 1)) == (0, 0, 1)


def test_eigenspaces_of_random_unimodular_bases():
    """Spans taken from the columns of a unimodular P, some rescaled, give
    theta = P * diag(signs) * P^-1, with P^-1 the exact inverse that comes
    with P."""
    rng = random.Random(0xE16E)
    for n in range(1, 8):
        for _ in range(12):
            p, pinv = helpers.random_unimodular(rng, n)
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            cols = []
            for j in range(n):
                col = tuple(p[i][j] for i in range(n))
                if rng.random() < 0.5:
                    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                    col = tuple(c * x for x in col)
                cols.append(col)
            split = [v for v, s in zip(cols, signs) if s == -1]
            compact = [v for v, s in zip(cols, signs) if s == 1]
            diag = tuple(tuple(s * (i == j) for j in range(n)) for i, s in enumerate(signs))
            inv = involution_from_eigenspaces(torus_datum(n), split, compact)
            assert inv.theta == mat_mul(mat_mul(p, diag), pinv)


DEPENDENT = "eigenspace spans contain dependent vectors"
NOT_COMPLEMENTARY = "eigenspace spans are not complementary"
NOT_INTEGRAL = "involution with these eigenspaces is not integral on the cocharacter lattice"


def _eigenspace_reference(n, split, compact):
    """theta for the spans, or the text that refuses them, by Fraction
    Gauss-Jordan: the rank of each span, then theta^T = V^-1 * S * V for
    the eigenvectors V and their signs S."""
    if any(helpers.gauss_jordan(span)[1] != len(span) for span in (split, compact)):
        return DEPENDENT
    if len(split) + len(compact) != n:
        return NOT_COMPLEMENTARY
    v = [helpers.frac_vec(x) for x in split + compact]
    sv = tuple(tuple(-x for x in row) for row in v[:len(split)]) + tuple(v[len(split):])
    theta_t = helpers.frac_solve(v, sv)
    if theta_t is None:
        return NOT_COMPLEMENTARY
    assert mat_mul(v, theta_t) == sv
    if any(x.denominator != 1 for row in theta_t for x in row):
        return NOT_INTEGRAL
    return tuple(tuple(int(x) for x in col) for col in zip(*theta_t))


def _rational_spans(rng, p):
    """The columns of p as eigenvectors with random signs, each rescaled by
    a random nonzero rational and moved by random rational multiples of the
    earlier vectors of its span, which leaves both eigenspaces unchanged."""
    n = len(p)
    split, compact = [], []
    for j in range(n):
        span = rng.choice((split, compact))
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        col = [c * p[i][j] for i in range(n)]
        for w in span:
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            col = [x + c * y for x, y in zip(col, w)]
        span.append(tuple(col))
    return split, compact


def test_eigenspaces_match_fraction_reference():
    """The integer solve agrees with Fraction Gauss-Jordan, theta or refusal
    text, on three kinds of spans at ranks 1-7: the columns of a unimodular
    matrix (an integral theta), of an integer matrix of determinant other
    than 0 and +-1 (theta is often not integral), and of a unimodular one
    made singular, dependent or of the wrong size."""
    rng = random.Random(0xE16F)
    seen = {DEPENDENT: 0, NOT_COMPLEMENTARY: 0, NOT_INTEGRAL: 0, "theta": 0}
    for n in range(1, 8):
        for _ in range(30):
            kind = rng.choice(("unimodular", "non-unimodular", "broken"))
            if kind == "non-unimodular":
                p = helpers.random_int_matrix(rng, n, n, -3, 3)
                while abs(helpers.det(p)) < 2:
                    p = helpers.random_int_matrix(rng, n, n, -3, 3)
            else:
                p = helpers.random_unimodular(rng, n)[0]
            split, compact = _rational_spans(rng, p)
            want = "theta"
            if kind == "broken":
                spans = [s for s in (split, compact) if s]
                span = rng.choice(spans)
                k = rng.randrange(len(span))
                other = compact if span is split else split
                how = rng.randrange(3)
                if how == 0:
                    # zero, or a rational multiple of an earlier vector of the span
                    c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                    span[k] = tuple(c * x for x in span[k - 1]) if k else (0,) * n
                    want = DEPENDENT
                elif how == 1 and other:
                    # a vector of the other span plus a combination of the
                    # rest of this one: each span stays independent, V is singular
                    col = rng.choice(other)
                    for w in span[:k] + span[k + 1:]:
                        c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                        col = tuple(x + c * y for x, y in zip(col, w))
                    span[k] = col
                    want = NOT_COMPLEMENTARY
                elif other:
                    # one vector too many: a vector of the other span joins
                    span.append(rng.choice(other))
                    want = NOT_COMPLEMENTARY
                else:
                    del span[k]
                    want = NOT_COMPLEMENTARY
            expected = _eigenspace_reference(n, split, compact)
            if kind == "non-unimodular" and expected == NOT_INTEGRAL:
                want = NOT_INTEGRAL
            if want == "theta":
                inv = involution_from_eigenspaces(torus_datum(n), split, compact)
                assert inv.theta == expected, (n, kind, split, compact)
            else:
                assert expected == want, (n, kind, split, compact)
                with pytest.raises(InvolutionError) as err:
                    involution_from_eigenspaces(torus_datum(n), split, compact)
                assert str(err.value) == expected
            seen[want] += 1
    assert min(seen.values()) >= 15, seen


# ---------------------------------------------------------------------------
# E7 presets


def test_e7_ev_is_negated_identity():
    inv = build_preset("E7", form="EV")
    assert inv.name == "EV"
    assert inv.theta == tuple(
        tuple(-1 if i == j else 0 for j in range(7)) for i in range(7)
    )


def test_e7_rejects_unknown_form():
    with pytest.raises(PresetError, match="EV"):
        build_preset("E7", form="EIX")


def test_e7_split_ranks():
    # EV is split of rank 7, EVI has split rank 4, EVII split rank 3
    expected = {"EV": 7, "EVI": 4, "EVII": 3}
    for form, r in expected.items():
        inv = build_preset("E7", form=form)
        rd = inv.datum
        x_spl = kernel_lattice(rd.cochar, matrix_action(mat_add(inv.theta, identity_matrix(7)), 7))
        assert x_spl.rank == r, form


def test_e7_eigenspace_ranks_sum():
    for form in ("EV", "EVI", "EVII"):
        inv = build_preset("E7", form=form)
        rd = inv.datum
        plus = kernel_lattice(rd.cochar, matrix_action(mat_sub(inv.theta, identity_matrix(7)), 7))
        minus = kernel_lattice(rd.cochar, matrix_action(mat_add(inv.theta, identity_matrix(7)), 7))
        assert plus.rank + minus.rank == 7, form


def test_e7_evii_span_facts():
    inv = build_preset("E7", form="EVII")
    rd = inv.datum
    named = dict(rd.named_vectors)
    plus_one = matrix_action(mat_add(inv.theta, identity_matrix(7)), 7)
    x_spl = kernel_lattice(rd.cochar, plus_one)
    q_spl = kernel_lattice(rd.coroots, plus_one)
    for nm in ("w1", "w2", "w6"):
        assert mat_vec(inv.theta, named[nm]) == tuple(-x for x in named[nm]), nm
    for nm in ("a3", "a4", "a5", "a7"):
        assert mat_vec(inv.theta, named[nm]) == named[nm], nm
    assert membership(named["w1"], x_spl)
    assert not membership(named["w1"], q_spl)


def test_e7_evi_split_span_is_saturated():
    from pi0real.intlattice import lattice_index

    inv = build_preset("E7", form="EVI")
    rd = inv.datum
    named = dict(rd.named_vectors)
    span = Lattice(7, [named[nm] for nm in ("w2", "w4", "w5", "w6")])
    x_spl = kernel_lattice(rd.cochar, matrix_action(mat_add(inv.theta, identity_matrix(7)), 7))
    assert x_spl.rank == 4
    for nm in ("w2", "w4", "w5", "w6"):
        assert membership(named[nm], x_spl), nm
    # the computed split lattice saturates the quoted span
    assert lattice_index(span, x_spl) is not None


def test_e7_presets_walk_the_coroot_closure_once():
    from pi0real import rootdata

    rootdata._coroot_closure.cache_clear()
    first, second = build_preset("E7", form="EVII"), build_preset("E7", form="EVII")
    info = rootdata._coroot_closure.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first == second


def test_e7_presets_are_cartan_involutions():
    # theta must permute the 126 coroots in every form
    for form in ("EV", "EVI", "EVII"):
        inv = build_preset("E7", form=form)
        rd = inv.datum
        coroots = set(rd.coroot_generators)
        for c in rd.coroot_generators:
            assert tuple(int(x) for x in mat_vec(inv.theta, c)) in coroots, form


def _longest_element(n, reflections):
    """The longest element of the group generated by simple reflections.

    A breadth-first walk of the Cayley graph from the identity reaches each
    element at its length, so the last level holds the longest element.
    """
    level = {identity_matrix(n)}
    seen = set(level)
    while True:
        nxt = {mat_mul(w, s) for w in level for s in reflections} - seen
        if not nxt:
            (longest,) = level
            return longest
        seen |= nxt
        level = nxt


@pytest.mark.parametrize(
    "form, black", [("EV", ()), ("EVI", (1, 3, 7)), ("EVII", (3, 4, 5, 7))]
)
def test_e7_theta_is_minus_longest_element_of_black_nodes(form, black):
    # on coweight coordinates s_k(v) = v - v_k a_k, since alpha_k(w_i) = [i == k]
    inv = build_preset("E7", form=form)
    rd = inv.datum
    named = dict(rd.named_vectors)
    reflections = []
    for k in black:
        a = named[f"a{k}"]
        reflections.append(
            tuple(
                tuple(int(i == j) - (a[i] if j == k - 1 else 0) for j in range(7))
                for i in range(7)
            )
        )
    w_k = _longest_element(7, reflections)
    assert inv.theta == tuple(tuple(-x for x in row) for row in w_k)


@pytest.mark.parametrize(
    "form, black", [("EV", ()), ("EVI", (1, 3, 7)), ("EVII", (3, 4, 5, 7))]
)
def test_e7_theta_from_eigenspaces_matches_preset(form, black):
    # w_K fixes the coweights w_i with i not in K, and for these K (empty,
    # three orthogonal A1's, D4) it is -1 on the span of the a_k with k in K;
    # this solves a non-diagonal rank-7 eigenspace system
    rd = e7_adjoint()
    named = dict(rd.named_vectors)
    split = [named[f"w{i}"] for i in range(1, 8) if i not in black]
    compact = [named[f"a{k}"] for k in black]
    inv = involution_from_eigenspaces(rd, split, compact, name=form)
    preset = build_preset("E7", form=form)
    assert (inv.theta, inv.name, inv.datum) == (preset.theta, preset.name, preset.datum)


# ---------------------------------------------------------------------------
# products


def test_product_involution_blocks():
    rd1, th1 = gl(2)
    a = involution_from_matrix(rd1, th1, name="split")
    rd2, th2 = torus_split(1)
    b = involution_from_matrix(rd2, ((1,),), name="compact")
    c = product_involution(a, b)
    assert c.theta == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    assert c.datum == product(rd1, rd2)
    assert c.name == "split x compact"
    assert product_involution(a, b, name="custom").name == "custom"


@pytest.mark.parametrize(
    "theta",
    [
        # a signed 3-cycle: a signed permutation whose square is not 1
        ((0, 0, -1), (1, 0, 0), (0, 1, 0)),
        # a dense unimodular matrix
        ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
    ],
)
def test_non_involution_message(theta):
    with pytest.raises(InvolutionError) as err:
        involution_from_matrix(torus_datum(3), theta)
    assert type(err.value) is InvolutionError
    assert str(err.value) == "matrix is not an involution"


def test_involution_check_matches_dense_square():
    # theta^2 = 1 is checked on theta's sparse columns; compare with the
    # dense square on random matrices, involutions and near misses
    rng = random.Random(0x7E7A)
    accepted = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        theta = _random_involution(rng, n)
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            theta = tuple(
                tuple(x + rng.choice((-1, 1)) * (r == i and c == j) for c, x in enumerate(row))
                for r, row in enumerate(theta)
            )
        square_is_one = mat_mul(theta, theta) == identity_matrix(n)
        try:
            involution_from_matrix(torus_datum(n), theta)
        except InvolutionError as err:
            assert not square_is_one and str(err) == "matrix is not an involution"
        else:
            assert square_is_one
            accepted += 1
    assert 100 < accepted < 300


def test_coroot_check_reports_the_first_offender_in_list_order():
    # theta is applied to one coroot of each +- pair, the positive one; a
    # failure still quotes the first offender in list order, here a negative
    rd = RootDatum(rank=2, coroot_generators=((0, -1), (0, 1), (-1, 0), (1, 0)))
    with pytest.raises(InvolutionError) as err:
        involution_from_matrix(rd, ((-1, 0), (1, 1)))
    assert str(err.value) == (
        "involution does not normalize the coroot set: "
        "theta((-1, 0)) = (1, -1) is not a coroot"
    )


# ---------------------------------------------------------------------------
# what the involution derives from theta alone


def _random_involution(rng, n):
    """u.theta.u^-1 for a random unimodular u and theta a block sum of
    1, -1 and the swap of two coordinates."""
    blocks = []
    while sum(len(b) for b in blocks) < n:
        if n - sum(len(b) for b in blocks) >= 2 and rng.random() < 0.3:
            blocks.append(((0, 1), (1, 0)))
        else:
            blocks.append(((rng.choice((1, -1)),),))
    theta = blocks[0]
    for b in blocks[1:]:
        theta = tuple(tuple(r) + (0,) * len(b) for r in theta) + tuple(
            (0,) * len(theta) + tuple(r) for r in b
        )
    u, uinv = helpers.random_unimodular(rng, n)
    return mat_mul(mat_mul(u, theta), uinv)


def test_involution_derives_split_lattices_of_x():
    rng = random.Random(0x5911)
    asymmetric = 0
    for trial in range(120):
        n = trial % 8 + 1
        theta = _random_involution(rng, n)
        assert mat_mul(theta, theta) == identity_matrix(n)
        inv = Involution(theta, torus_datum(n))
        one = identity_matrix(n)
        plus_one, minus_one = mat_add(theta, one), mat_sub(theta, one)
        assert inv.x_spl == kernel_lattice(Lattice.standard(n), matrix_action(plus_one, n))
        # the torus datum has no coroots, so the coboundaries are (theta - 1) X
        assert inv.coboundaries == image_lattice(Lattice.standard(n), minus_one)
        # theta + 1 and theta - 1 on the standard basis and on random vectors
        for v in one + helpers.random_int_matrix(rng, 3, n):
            assert inv.apply(v) == mat_vec(theta, v)
            assert inv.plus_one(v) == mat_vec(plus_one, v)
            assert inv.minus_one(v) == mat_vec(minus_one, v)
        asymmetric += theta != tuple(zip(*theta))
    # rows and columns of theta - 1 span different lattices only when
    # theta is not symmetric
    assert asymmetric >= 60
