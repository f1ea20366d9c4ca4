"""Tests for the component group and cohomology computations."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
import pi0real
from helpers import mat_vec, scaled, vec_add
from pi0real.components import (
    ComputationError,
    _two_group,
    coboundary_check,
    cocycle_check,
    h1_pi1,
    kernel_embedding_check,
    oracle_check,
    pi0,
    representative,
    representatives,
    split_lattices,
)
from pi0real.intlattice import (
    Lattice,
    NotASublattice,
    lattice_sum,
    membership,
    quotient_structure,
    reduce_mod,
)
from pi0real.realform import Involution, InvolutionError, build_preset, involution_from_matrix
from pi0real.rootdata import (
    RootDatum,
    gl,
    product,
    pso,
    simple,
    so,
    torus_compact,
    torus_split,
    torus_weil,
)
from pi0real.realform import product_involution


def build(spec):
    rd, theta = spec
    return involution_from_matrix(rd, theta)


def named_generators(group):
    return [nm for nm in group.generator_names]


# ---------------------------------------------------------------------------
# split lattices


def test_split_lattices_gl():
    inv = build(gl(4))
    sl = split_lattices(inv)
    assert sl.x_spl == Lattice.standard(4)
    assert sl.two_x_spl_tilde == scaled(Lattice.standard(4), 2)
    assert sl.q_spl == inv.datum.coroots
    assert sl.q_cmp.is_zero


def test_split_lattices_compact():
    inv = build(torus_compact(3))
    sl = split_lattices(inv)
    assert sl.x_spl.is_zero
    assert sl.two_x_spl_tilde.is_zero


def test_split_lattices_weil():
    inv = build(torus_weil())
    sl = split_lattices(inv)
    assert sl.x_spl == Lattice(2, [(1, 1)])
    # X_spl_tilde is spanned by (1/2, 1/2)
    assert sl.two_x_spl_tilde == Lattice(2, [(1, 1)])


def test_split_lattices_unpack():
    inv = build(gl(2))
    x_spl, two_x_spl_tilde, q_spl, q_cmp = split_lattices(inv)
    assert x_spl == Lattice.standard(2)


def test_sandwich_invariant():
    # 2 Xtilde_spl sits inside X_spl sits inside Xtilde_spl
    fixtures = [build(spec) for spec in (gl(3), so(2, 3), pso(2, 4), torus_weil())]
    fixtures += [build_preset("E7", form=f) for f in ("EV", "EVI", "EVII")]
    for inv in fixtures:
        sl = split_lattices(inv)
        for v in sl.two_x_spl_tilde.basis:
            assert membership(v, sl.x_spl), inv.datum.name
        # v lies in X_spl_tilde exactly when 2v lies in 2 X_spl_tilde
        for v in sl.x_spl.basis:
            assert membership(tuple(2 * x for x in v), sl.two_x_spl_tilde), inv.datum.name


# ---------------------------------------------------------------------------
# pi0 fixtures


def test_pi0_gl():
    for n in range(1, 9):
        inv = build(gl(n))
        g = pi0(inv)
        assert g.order == 2
        assert g.generator_names == ("e1",)
        assert g.generators == ((1,) + (0,) * (n - 1),)


def test_pi0_so_signatures():
    for p in range(1, 5):
        for q in range(p, 9 - p + 1):
            if p + q < 3:
                continue
            inv = build(so(p, q))
            g = pi0(inv)
            assert g.order == 2, (p, q)
            assert g.generator_names == ("e1",), (p, q)


def test_pi0_so_compact_connected():
    for n in (3, 4, 5):
        inv = build(so(0, n))
        assert pi0(inv).order == 1


def test_pi0_pso_equal_even():
    inv = build(pso(4, 4))
    g = pi0(inv)
    assert g.order == 4
    assert set(g.generator_names) == {"e1", "w4"}


def test_pi0_pso_equal_odd():
    inv = build(pso(3, 3))
    g = pi0(inv)
    assert g.order == 2
    assert g.generator_names == ("w3",)


def test_pi0_pso_unequal():
    # even p gives order 2, odd p gives a connected group
    for p, q, order in [(2, 4, 2), (2, 6, 2), (4, 6, 2), (1, 3, 1), (1, 5, 1), (3, 5, 1)]:
        inv = build(pso(p, q))
        assert pi0(inv).order == order, (p, q)


def test_pi0_e7_forms():
    expected = {"EV": 2, "EVI": 1, "EVII": 2}
    for form, order in expected.items():
        inv = build_preset("E7", form=form)
        g = pi0(inv)
        assert g.order == order, form
        if order == 2:
            assert g.generator_names == ("w1",), form


def test_pi0_simply_connected_split_is_trivial():
    for t, r in [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]:
        inv = build(simple(t, r, "sc", "split"))
        assert pi0(inv).order == 1, (t, r)


def test_pi0_compact_forms_are_trivial():
    for spec in [
        simple("E", 7, "adj", "compact"),
        simple("A", 3, "adj", "compact"),
        so(0, 7),
        torus_compact(4),
    ]:
        inv = build(spec)
        assert pi0(inv).order == 1


def test_pi0_generators_avoid_sub():
    inv = build(pso(4, 4))
    g = pi0(inv)
    for v in g.generators:
        assert membership(v, g.sup)
        assert not membership(v, g.sub)


# ---------------------------------------------------------------------------
# H1 fixtures


def test_h1_split_gm():
    inv = build(torus_split(1))
    h = h1_pi1(inv)
    assert h.order == 2
    assert oracle_check(h)


def test_h1_compact_torus():
    inv = build(torus_compact(2))
    h = h1_pi1(inv)
    assert h.order == 1
    assert oracle_check(h)


def test_h1_adjoint_split_e7():
    inv = build_preset("E7", form="EV")
    h = h1_pi1(inv)
    assert h.order == 2
    assert oracle_check(h)


def test_h1_contains_pi0():
    fixtures = [
        gl(5), so(2, 3), pso(4, 4), pso(3, 3), torus_split(3), torus_split(13), torus_weil()
    ]
    for spec in fixtures:
        inv = build(spec)
        assert pi0(inv).order <= h1_pi1(inv).order
        assert kernel_embedding_check(inv)
    for form in ("EV", "EVI", "EVII"):
        inv = build_preset("E7", form=form)
        assert h1_pi1(inv).order % pi0(inv).order == 0
        assert kernel_embedding_check(inv)


# ---------------------------------------------------------------------------
# cocycles and coboundaries


def test_cocycle_split_vectors_always_pass():
    inv = build(so(2, 3))
    sl = split_lattices(inv)
    for v in sl.x_spl.basis:
        assert cocycle_check(inv, v)


def test_cocycle_gl2():
    inv = build(gl(2))
    assert cocycle_check(inv, (1, 0))


def test_cocycle_fails_on_compact_torus():
    inv = build(torus_compact(1))
    assert not cocycle_check(inv, (1,))


def test_coboundary_basics():
    inv = build(torus_split(1))
    assert coboundary_check(inv, (0,))
    assert not coboundary_check(inv, (1,))
    inv = build(gl(2))
    assert coboundary_check(inv, (1, 1))
    assert not coboundary_check(inv, (1, 0))


def test_cocycle_requires_cocharacter():
    inv = build(gl(2))
    with pytest.raises(ValueError):
        cocycle_check(inv, (Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        coboundary_check(inv, (Fraction(1, 2), 0))


def test_nontrivial_cocycle_gives_nonzero_h1_class():
    # cocycle but not coboundary: the class survives in H1
    inv = build(torus_split(1))
    nu = (1,)
    assert cocycle_check(inv, nu)
    assert not coboundary_check(inv, nu)
    h = h1_pi1(inv)
    assert membership(nu, h.sup)
    assert not membership(nu, h.sub)


def test_pi0_generators_are_cocycles():
    for spec in [gl(4), so(1, 4), pso(4, 4)]:
        inv = build(spec)
        for v in pi0(inv).generators:
            assert cocycle_check(inv, v)


# ---------------------------------------------------------------------------
# torus specialization


def test_torus_pi0_split():
    for n in (1, 2, 3, 4):
        _, theta = torus_split(n)
        g = pi0(involution_from_matrix(RootDatum(rank=n), theta))
        assert g.order == 2**n


def test_torus_pi0_compact():
    _, theta = torus_compact(3)
    assert pi0(involution_from_matrix(RootDatum(rank=3), theta)).order == 1


def test_torus_pi0_weil():
    _, theta = torus_weil()
    assert pi0(involution_from_matrix(RootDatum(rank=2), theta)).order == 1


def test_torus_pi0_rejects_size_mismatch():
    _, theta = torus_split(2)
    with pytest.raises(InvolutionError, match="^involution is 2 x 2, datum has rank 3$"):
        involution_from_matrix(RootDatum(rank=3), theta)


@pytest.mark.parametrize("check", [representative, cocycle_check, coboundary_check])
@pytest.mark.parametrize("size, rank", [(3, 2), (2, 3)])
def test_vector_checks_reject_an_involution_of_another_size(check, size, rank):
    # the size is checked once, when the involution is bound to its datum,
    # so no check is ever handed an involution of another size
    with pytest.raises(InvolutionError) as err:
        check(Involution(torus_split(size)[1], RootDatum(rank=rank)), (0,) * rank)
    assert str(err.value) == f"involution is {size} x {size}, datum has rank {rank}"


# ---------------------------------------------------------------------------
# representatives


def test_representative_gl8():
    inv = build(gl(8))
    r = representative(inv, (1, 0, 0, 0, 0, 0, 0, 0))
    assert r.nu == (1, 0, 0, 0, 0, 0, 0, 0)
    assert r.evaluations[0] == ("eps1", "-1")
    assert all(val == "1" for _, val in r.evaluations[1:])
    assert r.note is None


def test_representative_so():
    # first and last diagonal entries flip: diag(-1, 1, .., 1, -1)
    inv = build(so(2, 3))
    r = representative(inv, (1, 0))
    values = [val for _, val in r.evaluations]
    assert values == ["-1", "1", "1", "1", "-1"]


def test_representative_pso33():
    inv = build(pso(3, 3))
    r = representative(inv, (0, 0, 1))
    assert [val for _, val in r.evaluations] == ["i", "i", "i", "-i", "-i", "-i"]
    assert r.note is not None and "sign" in r.note


def test_representative_identity():
    inv = build(pso(3, 3))
    r = representative(inv, (0, 0, 0))
    assert all(val == "1" for _, val in r.evaluations)


def test_representative_requires_split_vector():
    inv = build(so(1, 3))
    representative(inv, (1, 0))
    with pytest.raises(ValueError, match="split"):
        representative(inv, (0, 1))
    with pytest.raises(ValueError, match="split"):
        representative(inv, (Fraction(1, 2), 0))


def test_representative_rejects_non_half_integral_weight():
    rd = RootDatum(
        rank=1,
        display_weights=(("bad", (Fraction(1, 4),)),),
    )
    inv = involution_from_matrix(rd, ((-1,),))
    with pytest.raises(ValueError, match="half-integral"):
        representative(inv, (1,))


def split_fixtures():
    """The acceptance fixtures, each with two random conjugates."""
    import helpers
    from test_acceptance import _all_fixtures

    rng = random.Random(5)
    out = []
    for inv in _all_fixtures():
        out.append(inv)
        for _ in range(2):
            u, uinv = helpers.random_unimodular(rng, inv.datum.rank)
            out.append(helpers.conjugate_datum(inv, u, uinv))
    return out


def test_representative_accepts_exactly_the_split_lattice():
    for inv in split_fixtures():
        sl = split_lattices(inv)
        n = inv.datum.rank
        for v in sl.x_spl.basis:
            assert representative(inv, v).nu == v
        for i in range(n):
            e = tuple(int(i == j) for j in range(n))
            if not membership(e, sl.x_spl):
                with pytest.raises(ValueError, match="split"):
                    representative(inv, e)


def test_cocycle_and_coboundary_match_lattice_definitions():
    rng = random.Random(55)
    for inv in split_fixtures():
        rd = inv.datum
        sl = split_lattices(inv)
        h = h1_pi1(inv)
        basis = rd.cochar.basis
        nus = list(h.sup.basis) + list(h.sub.basis)
        for _ in range(6):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            nus.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis))
                             for j in range(rd.rank)))
        for nu in nus:
            cocycle = membership(vec_add(nu, mat_vec(inv.theta, nu)), sl.q_cmp)
            assert cocycle_check(inv, nu) == cocycle
            assert coboundary_check(inv, nu) == membership(nu, h.sub)


def test_h1_sup_is_x_where_twice_lies_in_theta_minus_one_x_plus_q_cmp():
    # the paper's X intersect (X_spl_tilde + Q_cmp/2), kept integral:
    # v lies in it exactly when 2v lies in (theta - 1) X + Q_cmp, and h1_pi1
    # builds it as the cocycles, where v + theta(v) lies in Q
    rng = random.Random(0x4A1F)
    seen = {True: 0, False: 0}
    for inv in split_fixtures():
        rd = inv.datum
        sl = split_lattices(inv)
        doubled = lattice_sum(sl.two_x_spl_tilde, sl.q_cmp)
        sup = h1_pi1(inv).sup
        vs = list(sup.basis)
        vs += [tuple(rng.randint(-3, 3) for _ in range(rd.rank)) for _ in range(12)]
        for v in vs:
            inside = membership(v, sup)
            assert inside == membership(tuple(2 * x for x in v), doubled), (rd.name, v)
            assert inside == cocycle_check(inv, v), (rd.name, v)
            seen[inside] += 1
    assert min(seen.values()) >= 50, seen


def test_pi0_sub_is_theta_minus_one_x_plus_q_spl():
    # pi0 takes theta + 1's kernel on the coboundaries (theta - 1) X + Q;
    # with theta^2 = 1 that is the paper's (theta - 1) X + Q_spl
    for inv in split_fixtures():
        sl = split_lattices(inv)
        assert pi0(inv).sub == lattice_sum(sl.two_x_spl_tilde, sl.q_spl), inv.datum.name


def count_calls(monkeypatch, name):
    """A list that grows by one on each call to intlattice's function
    ``name``, patched into every module of the package that imports it."""
    from pi0real import cli, components, intlattice, realform, rootdata

    calls = []
    fn = getattr(intlattice, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    for module in (pi0real, cli, components, intlattice, realform, rootdata):
        if getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_job_builds_split_lattices_at_most_twice(monkeypatch):
    from pi0real import cli

    hnfs = count_calls(monkeypatch, "hnf")
    kernels = count_calls(monkeypatch, "kernel_lattice")
    outputs = {"h1": True, "oracle_check": True}
    job = cli.parse_jobspec({"preset": "TORUS_SPLIT", "n": 5, "outputs": outputs})
    report = cli.run(job)
    assert len(report["representatives"]) == 31
    assert report["oracle"] == "agree"
    # five lattices: Q and the coboundaries B by Hermite reduction; X_spl,
    # pi0's sub-lattice B intersect X_spl and the cocycles by kernel_lattice
    assert len(hnfs) <= 2
    assert len(kernels) <= 3


def test_coboundary_check_builds_the_coboundaries_once(monkeypatch):
    inv = build(torus_split(120))
    # Q is the datum's own lattice; the coboundaries are the one reduction
    inv.datum.coroots
    hnfs = count_calls(monkeypatch, "hnf")
    rng = random.Random(120)
    for _ in range(20):
        nu = tuple(rng.randint(-2, 2) for _ in range(120))
        assert coboundary_check(inv, nu) == all(x % 2 == 0 for x in nu)
    assert len(hnfs) <= 1


def test_pi0_classes_have_order_two_representatives():
    # exp(pi i nu) squares to exp(2 pi i nu) = identity for integral nu
    inv = build(pso(4, 4))
    g = pi0(inv)
    for v in g.elements():
        r = representative(inv, v)
        for _, val in r.evaluations:
            assert val in ("1", "-1", "i", "-i")


# ---------------------------------------------------------------------------
# degenerate and invalid inputs


def test_rank_zero_datum():
    rd = RootDatum(rank=0)
    inv = involution_from_matrix(rd, ())
    assert pi0(inv).order == 1
    assert pi0(inv).generators == ()
    assert h1_pi1(inv).order == 1
    assert kernel_embedding_check(inv)


def test_two_group_guard_rejects_odd_factors():
    with pytest.raises(ComputationError, match="elementary"):
        _two_group(
            Lattice(1, [(4,)]), Lattice.standard(1), (), "test group"
        )


def test_two_group_guard_rejects_infinite():
    with pytest.raises(ComputationError, match="infinite"):
        _two_group(Lattice.zero(2), Lattice.standard(2), (), "test group")


def test_two_group_rejects_non_sublattice():
    with pytest.raises(NotASublattice):
        _two_group(
            Lattice.standard(1), Lattice(1, [(2,)]), (), "test group"
        )


# ---------------------------------------------------------------------------
# the mod-2 quotient kernel


def test_conjugated_split_torus_names_every_generator():
    import helpers

    inv = build(torus_split(13))
    u, uinv = helpers.random_unimodular(random.Random(13), 13)
    inv = helpers.conjugate_datum(inv, u, uinv)
    g = pi0(inv)
    assert g.rank == 13
    assert g.generator_names == tuple(f"e{i}" for i in range(1, 14))
    assert g.generators == tuple(v for _, v in inv.datum.named_vectors)


def reference_picks(sub, sup, named):
    """Generators of sup/sub by enumerating every canonical residue.

    Named vectors in sup come first, in order, then the residues sorted;
    each is kept when its class is outside the span of the earlier picks.
    Needs 2 sup inside sub, so subset sums of sup's basis reach every coset.
    """
    n = sup.ambient_dim
    basis = sup.basis
    residues = set()
    for mask in range(2 ** len(basis)):
        total = (0,) * n
        for i, b in enumerate(basis):
            if mask >> i & 1:
                total = tuple(x + y for x, y in zip(total, b))
        residues.add(reduce_mod(total, sub))
    span = {reduce_mod((0,) * n, sub)}
    picks = []
    candidates = [(nm, v) for nm, v in named if membership(v, sup)]
    candidates += [(None, r) for r in sorted(residues)]
    for nm, v in candidates:
        if len(span) == len(residues):
            break
        r = reduce_mod(v, sub)
        if r not in span:
            span |= {reduce_mod(tuple(x + y for x, y in zip(s, r)), sub) for s in span}
            picks.append((nm, tuple(int(x) for x in v)))
    return picks


def test_two_group_matches_coset_enumeration_random():
    rng = random.Random(20261018)

    def combo(vectors):
        coeffs = [rng.randint(-2, 2) for _ in vectors]
        return tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*vectors))

    checked = 0
    while checked < 120:
        n = rng.randint(1, 8)
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(rng.randint(max(1, n - 2), n))
        )
        sup = Lattice(n, rows)
        if sup.is_zero:
            continue
        basis = sup.basis
        relations = [combo(basis) for _ in range(rng.randint(0, 2))]
        sub = lattice_sum(scaled(sup, 2), Lattice(n, relations or [(0,) * n]))
        named = ()
        if checked % 2:
            named = tuple(
                (f"v{j}", combo(basis) if rng.random() < 0.7 else
                 tuple(rng.randint(-2, 2) for _ in range(n)))
                for j in range(rng.randint(1, 6))
            )
        g = _two_group(sub, sup, named, "test group")
        expected = reference_picks(sub, sup, named)
        assert list(zip(g.generator_names, g.generators)) == expected
        assert g.order == quotient_structure(sub, sup).order
        checked += 1


# ---------------------------------------------------------------------------
# multiplicativity and oracle


def test_pi0_multiplicative_on_products():
    (rd1, th1), (rd2, th2) = gl(2), so(2, 3)
    inv1 = involution_from_matrix(rd1, th1)
    inv2 = involution_from_matrix(rd2, th2)
    inv = product_involution(inv1, inv2)
    assert inv.datum == product(rd1, rd2)
    g = pi0(inv)
    assert g.order == pi0(inv1).order * pi0(inv2).order
    h = h1_pi1(inv)
    assert h.order == h1_pi1(inv1).order * h1_pi1(inv2).order


def test_oracle_agreement_on_fixtures():
    fixtures = [gl(8), so(3, 4), pso(4, 4), torus_split(4)]
    for spec in fixtures:
        inv = build(spec)
        assert oracle_check(pi0(inv))
        assert oracle_check(h1_pi1(inv))
    for form in ("EV", "EVI", "EVII"):
        inv = build_preset("E7", form=form)
        assert oracle_check(pi0(inv))
        assert oracle_check(h1_pi1(inv))


def test_random_torus_involutions_stay_elementary():
    # conjugated diagonal/swap involutions on small tori
    import helpers

    rng = random.Random(20240817)
    for _ in range(25):
        n = rng.randint(1, 4)
        u, uinv = helpers.random_unimodular(rng, n)
        base = [[0] * n for _ in range(n)]
        i = 0
        while i < n:
            if i + 1 < n and rng.random() < 0.3:
                base[i][i + 1] = base[i + 1][i] = rng.choice((1, -1))
                i += 2
            else:
                base[i][i] = rng.choice((1, -1))
                i += 1
        from helpers import mat_mul

        theta = mat_mul(mat_mul(u, tuple(tuple(r) for r in base)), uinv)
        inv = involution_from_matrix(RootDatum(rank=n), theta)
        g = pi0(inv)
        h = h1_pi1(inv)
        assert g.order in {2**k for k in range(n + 1)}
        assert h.order % g.order == 0
        assert oracle_check(g)


def test_job_builds_each_split_lattice_once(monkeypatch):
    from pi0real import cli, components, intlattice, realform

    calls = []

    def counting(owner, name, label):
        build = getattr(owner, name)

        def counted(*args):
            calls.append(label)
            return build(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(components, "kernel_lattice", "kernel_lattice")
    counting(realform, "Lattice", "Lattice")
    counting(realform, "KernelStack", "KernelStack")
    counting(intlattice.KernelStack, "preimage", "KernelStack.preimage")
    # theta = -1 on PSO(4,4), where no elimination runs, and not on PSO(4,6)
    for p, q in ((4, 4), (4, 6)):
        calls.clear()
        job = cli.parse_jobspec({"preset": "PSO", "p": p, "q": q, "outputs": {"h1": True}})
        report = cli.run(job)
        assert report["h1_order"] is not None
        # the coboundaries B once, on the involution; theta + 1 eliminated
        # once on X, whose kernel is X_spl and whose continuation with Q's
        # rows gives the cocycles; B intersect X_spl in pi0
        assert sorted(calls) == [
            "KernelStack", "KernelStack.preimage", "Lattice", "kernel_lattice",
        ], (p, q)


@pytest.mark.parametrize("doc, runs", [
    ({"preset": "TORUS_SPLIT", "n": 5}, 1),
    ({"preset": "GL", "n": 4}, 1),
    ({"preset": "SO", "p": 3, "q": 4}, 1),
    ({"preset": "SO", "p": 2, "q": 5}, 2),
    ({"preset": "E7", "form": "EVI"}, 2),
])
def test_job_analyses_each_distinct_quotient_once(monkeypatch, doc, runs):
    from pi0real import cli, components
    from pi0real.intlattice import kernel_lattice

    picks = []
    two_group = components._two_group

    def counted(*args):
        picks.append(args)
        return two_group(*args)

    monkeypatch.setattr(components, "_two_group", counted)
    job = cli.parse_jobspec(dict(doc, outputs={"h1": True}))
    report = cli.run(job)
    assert len(picks) == runs
    # H1 as the job found it, against its own pick over the cocycles built
    # by one kernel_lattice call on a fresh involution
    inv = job.involution
    h = components.h1_pi1(inv, components.pi0(inv))
    fresh = cli.parse_jobspec(doc).involution
    rd = fresh.datum
    cocycles = kernel_lattice(rd.cochar, fresh.plus_one, rd.coroots)
    old = two_group(fresh.coboundaries, cocycles, rd.named_vectors, "cohomology group")
    assert report["h1_order"] == h.order == old.order
    assert (h.generators, h.generator_names) == (old.generators, old.generator_names)
    assert kernel_embedding_check(inv)


def test_job_builds_theta_action_once(monkeypatch):
    from pi0real import cli, intlattice, realform

    calls = []
    build = intlattice.matrix_action

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(intlattice, "matrix_action", counted)
    monkeypatch.setattr(realform, "matrix_action", counted)
    h1 = {"h1": True}
    jobs = [
        {"preset": "TORUS_SPLIT", "n": 5, "outputs": {"h1": True, "oracle_check": True}},
        {"preset": "GL", "n": 6, "outputs": h1},
        {"preset": "PSO", "p": 4, "q": 4, "outputs": h1},
        {"rank": 2, "coroots": [[1, -1]], "theta": [[0, 1], [1, 0]], "outputs": h1},
    ]
    for doc in jobs:
        calls.clear()
        report = cli.run(cli.parse_jobspec(doc))
        assert report["h1_order"] is not None
        # the involution's apply; theta + 1 and theta - 1 are built on it
        assert len(calls) == 1, doc


def test_integral_input_builds_no_fraction(monkeypatch):
    from pi0real import components, intlattice

    rng = random.Random(0xF4AC)
    cases = [build(spec) for spec in (pso(4, 4), so(3, 4), gl(4), torus_split(3))]
    # a split torus times a Weil torus, in a random basis
    inv = product_involution(build(torus_split(2)), build(torus_weil()))
    u, uinv = helpers.random_unimodular(rng, 4)
    cases.append(helpers.conjugate_datum(inv, u, uinv))
    groups = []
    for inv in cases:
        rd = inv.datum
        g, h = pi0(inv), h1_pi1(inv)
        representative(inv, g.elements()[0])  # caches the weight terms
        for _, c, terms in rd.weight_terms:
            assert type(c) is int, rd.name
            assert all(type(j) is int and type(x) is int for j, x in terms), rd.name
        groups.append((rd, inv, g, h))

    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(components, "Fraction", counted)
    monkeypatch.setattr(intlattice, "Fraction", counted)
    for rd, inv, g, h in groups:
        # the job path, on a fresh involution so its lattices are built here
        fresh = Involution(inv.theta, rd, inv.name)
        assert pi0(fresh) == g and h1_pi1(fresh) == h
        assert oracle_check(g) and oracle_check(h)
        for v in g.elements():
            representative(inv, v)
            assert components.coords_in_lattice(v, g.sup) is not None
            components.coords_in_lattice(v, h.sub)
        for lat in (g.sub, g.sup, h.sub, h.sup, rd.coroots):
            for _ in range(5):
                v = tuple(rng.randint(-3, 3) for _ in range(rd.rank))
                components.coords_in_lattice(v, lat)
        components.relation_matrix(g.sub, g.sup)
        components.relation_matrix(h.sub, h.sup)
    assert made == []


@pytest.mark.parametrize(
    "check, nu, error, message",
    [
        (representative, (1, 0, 0), "DimensionMismatch",
         "vector length does not match ambient dimension"),
        (representative, (Fraction(1, 2), 0), "ValueError",
         "(Fraction(1, 2), Fraction(0, 1)) is not a split cocharacter "
         "(need an integral vector with theta(nu) = -nu)"),
        (representative, ("1/2", 1), "ValueError",
         "(Fraction(1, 2), Fraction(1, 1)) is not a split cocharacter "
         "(need an integral vector with theta(nu) = -nu)"),
        (cocycle_check, (1,), "DimensionMismatch",
         "vector length does not match ambient dimension"),
        (cocycle_check, (Fraction(1, 2), 0), "ValueError",
         "(Fraction(1, 2), Fraction(0, 1)) is not in the cocharacter lattice"),
        (coboundary_check, (1, 2, 3), "DimensionMismatch",
         "vector length does not match ambient dimension"),
        (coboundary_check, (0, Fraction(3, 2)), "ValueError",
         "(Fraction(0, 1), Fraction(3, 2)) is not in the cocharacter lattice"),
    ],
)
def test_vector_check_messages(check, nu, error, message):
    inv = build(gl(2))
    with pytest.raises(ValueError) as err:
        check(inv, nu)
    assert type(err.value).__name__ == error
    assert str(err.value) == message


def test_vector_check_messages_are_bounded():
    # a long non-integral vector is quoted in at most QUOTE_LIMIT characters
    inv = build(torus_split(300))
    nu = (Fraction(1, 2),) + (0,) * 299
    for check in (representative, cocycle_check, coboundary_check):
        with pytest.raises(ValueError) as err:
            check(inv, nu)
        assert type(err.value) is ValueError
        assert len(str(err.value).encode()) < 250, check.__name__


def test_representative_messages_for_theta_and_pairing():
    inv = build(torus_compact(2))
    with pytest.raises(ValueError) as err:
        representative(inv, (1, 0))
    assert type(err.value) is ValueError
    assert str(err.value) == (
        "(Fraction(1, 1), Fraction(0, 1)) is not a split cocharacter "
        "(need an integral vector with theta(nu) = -nu)"
    )
    rd = RootDatum(rank=1, display_weights=(("w", (Fraction(1, 4),)),), name="q")
    inv = involution_from_matrix(rd, ((-1,),))
    with pytest.raises(ValueError) as err:
        representative(inv, (1,))
    assert type(err.value) is ValueError
    assert str(err.value) == (
        "pairing of weight 'w' with (1,) is not half-integral, "
        "so its value at exp(pi i nu) is not a fourth root of unity"
    )
    # a rational weight with a whole pairing still evaluates
    assert representative(inv, (2,)).evaluations == (("w", "i"),)
    # random rational weights on a split torus, against pairing in Fractions
    rng = random.Random(0x9A1)

    def entry():
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return int(x) if x.denominator == 1 else x

    errors = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        weights = tuple(
            (f"w{k}", tuple(entry() for _ in range(n))) for k in range(rng.randint(1, 3))
        )
        rd = RootDatum(rank=n, display_weights=weights, name="t")
        inv = involution_from_matrix(rd, torus_split(n)[1])
        nu = tuple(rng.randint(-3, 3) for _ in range(n))
        try:
            got = representative(inv, nu).evaluations
        except ValueError as exc:
            assert type(exc) is ValueError
            got = str(exc)
            errors += 1
        assert got == _fraction_pairing(rd, nu), (weights, nu)
    assert 50 <= errors <= 250, errors


def _random_basis_cases(rng):
    """GL, PSO (half-integral weights, a lift note) and products of split,
    compact and Weil tori, each as it is and in a random basis."""
    cases = [build(gl(n)) for n in (1, 3, 6)]
    cases += [build(pso(p, q)) for p, q in ((3, 3), (4, 4), (6, 6), (2, 6), (5, 3))]
    cases += [product_involution(build(pso(3, 3)), build(torus_split(2))),
              product_involution(build(pso(4, 4)), build(torus_weil()))]
    for _ in range(10):
        inv = build(torus_split(rng.randint(1, 5)))
        for factor in rng.sample((torus_compact(rng.randint(1, 2)), torus_weil()), 2):
            if rng.random() < 0.5:
                inv = product_involution(inv, build(factor))
        cases.append(inv)
    out = []
    for inv in cases:
        u, uinv = helpers.random_unimodular(rng, inv.datum.rank)
        out += [inv, helpers.conjugate_datum(inv, u, uinv)]
    return out


def test_representatives_match_the_per_element_route():
    rng = random.Random(0x24E)
    orders = set()
    halves = notes = 0
    for inv in _random_basis_cases(rng):
        g = pi0(inv)
        orders.add(g.order)
        got = representatives(inv, g)
        assert got == [representative(inv, v) for v in g.elements()[1:]], inv.datum.name
        halves += any(c == 2 for _, c, _ in inv.datum.weight_terms) and g.order >= 4
        notes += inv.datum.lift_note is not None and g.order >= 4
    assert {1, 2, 4, 8} <= orders
    assert max(orders) >= 32
    assert halves >= 4 and notes >= 4


def test_representatives_raise_the_per_element_error():
    # the generators pair half-integrally with "ok" but not with "bad"
    rd = RootDatum(
        rank=3,
        display_weights=(("ok", (Fraction(1, 2), 0, 0)), ("bad", (0, 0, Fraction(1, 4)))),
        name="t",
    )
    inv = involution_from_matrix(rd, torus_split(3)[1])
    message = (
        "pairing of weight 'bad' with (0, 0, 1) is not half-integral, "
        "so its value at exp(pi i nu) is not a fourth root of unity"
    )
    with pytest.raises(ValueError) as err:
        representatives(inv, pi0(inv))
    assert type(err.value) is ValueError
    assert str(err.value) == message
    # the same datum as a job
    from pi0real import cli

    doc = {
        "rank": 3,
        "coroots": [],
        "theta": [list(row) for row in inv.theta],
        "display_weights": [["ok", ["1/2", 0, 0]], ["bad", [0, 0, "1/4"]]],
    }
    with pytest.raises(ValueError) as err:
        cli.run(cli.parse_jobspec(doc))
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_report_lists_generators_only_above_the_cap():
    from pi0real import cli

    rng = random.Random(0x81)
    inv = product_involution(build(torus_split(8)), build(torus_weil()))
    u, uinv = helpers.random_unimodular(rng, 10)
    inv = helpers.conjugate_datum(inv, u, uinv)
    g = pi0(inv)
    assert g.order == 256 > cli.MAX_LISTED_COMPONENTS
    report = cli.run(cli.JobSpec(inv, cli.OutputFlags(), "json"))
    listed = [representative(inv, v) for v in g.generators]
    assert report["representatives"] == [
        {"nu": list(r.nu), "evaluations": [list(e) for e in r.evaluations], "note": r.note}
        for r in listed
    ]


def _fraction_pairing(rd, nu):
    """The evaluations of rd's display weights at exp(pi i nu), or the error
    text for a weight whose pairing is not half-integral, paired in Fractions."""
    evals = []
    for label, w in rd.display_weights:
        h = 2 * sum(Fraction(x) * a for x, a in zip(w, nu))
        if h.denominator != 1:
            return (
                f"pairing of weight {label!r} with {nu} is not half-integral, "
                "so its value at exp(pi i nu) is not a fourth root of unity"
            )
        evals.append((label, ("1", "i", "-1", "-i")[int(h) % 4]))
    return tuple(evals)


# the package's modules, each importing only from those before it
_LAYERS = ("intlattice", "rootdata", "realform", "components", "cli", "__main__", "__init__")


def _package_imports():
    """{module: [(module it imports from, names)]} for each pi0real module,
    counting imports inside functions and absolute imports of pi0real."""
    out = {}
    for path in sorted(Path(pi0real.__file__).parent.glob("*.py")):
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.Import):
                modules = names
            else:
                modules = [node.module] if node.module else names
            level = getattr(node, "level", 0)
            found += [(m, names) for m in modules if level or m.split(".")[0] == "pi0real"]
        out[path.stem] = found
    return out


def test_modules_import_only_from_lower_layers():
    imports = _package_imports()
    assert set(imports) == set(_LAYERS)
    for module, found in imports.items():
        below = _LAYERS[: _LAYERS.index(module)]
        assert [m for m, _ in found if m not in below] == [], module
    assert [name for name in pi0real.__all__ if not hasattr(pi0real, name)] == []


def test_components_imports_no_private_intlattice_name():
    imported = {}
    for module, found in _package_imports().items():
        names = [name for m, names in found if m == "intlattice" for name in names]
        if names:
            imported[module] = names
    assert {"cli", "components", "realform", "rootdata"} <= set(imported)
    assert "relation_matrix" in imported["components"]
    private = {m: [name for name in names if name.startswith("_")]
               for m, names in imported.items()}
    assert private == {m: [] for m in imported}
