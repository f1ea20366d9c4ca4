"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py`` to get a line per criterion,
or with ``-s`` to also see the explicit ACCEPTANCE summary lines.
"""

import random
from fractions import Fraction

import helpers
from helpers import mat_vec, vec_add, vec_scale, vec_sub
from pi0real.components import (
    h1_pi1,
    kernel_embedding_check,
    oracle_check,
    pi0,
    representative,
)
from pi0real.intlattice import (
    brute_force_quotient,
    identity_matrix,
    membership,
    quotient_structure,
    vec_frac,
)
from pi0real.realform import (
    build_preset,
    involution_from_matrix,
    product_involution,
)
from pi0real.rootdata import (
    e7_adjoint,
    gl,
    pso,
    simple,
    so,
    torus_compact,
    torus_split,
    torus_weil,
)


def _form(built, name=""):
    """Validate the (datum, theta-matrix) pair from a preset builder."""
    rd, theta = built
    return involution_from_matrix(rd, theta, name=name or rd.name)


def _report(number, label, failures):
    status = "FAIL" if failures else "PASS"
    line = f"ACCEPTANCE {number} ({label}): {status}"
    print(line)
    assert not failures, line + "\n  - " + "\n  - ".join(failures)


def _same_coset(group, vec, expected):
    return membership(vec_sub(vec_frac(vec), vec_frac(expected)), group.sub)


def _values(inv, nu):
    rep = representative(inv, nu)
    return tuple(value for _, value in rep.evaluations)


# ---------------------------------------------------------------------------
# criterion 1: general linear groups


def test_criterion_1_gl_component_groups():
    failures = []
    for n in range(1, 9):
        inv = _form(gl(n))
        g = pi0(inv)
        if g.order != 2:
            failures.append(f"GL({n}): order {g.order} != 2")
            continue
        e1 = inv.datum.named_vectors[0][1]
        if not _same_coset(g, g.generators[0], e1):
            failures.append(f"GL({n}): generator {g.generators[0]} is not e1's coset")
        expected = ("-1",) + ("1",) * (n - 1)
        got = _values(inv, g.generators[0])
        if got != expected:
            failures.append(f"GL({n}): representative evaluates to {got}")
    _report(1, "GL(n) component groups", failures)


# ---------------------------------------------------------------------------
# criterion 2: special orthogonal groups


def test_criterion_2_so_component_groups():
    failures = []
    for total in range(3, 10):
        for p in range(1, total // 2 + 1):
            q = total - p
            inv = _form(so(p, q))
            g = pi0(inv)
            if g.order != 2:
                failures.append(f"SO({p},{q}): order {g.order} != 2")
                continue
            vals = _values(inv, g.generators[0])
            if not (
                vals[0] == "-1"
                and vals[-1] == "-1"
                and all(v == "1" for v in vals[1:-1])
            ):
                failures.append(f"SO({p},{q}): representative diag {vals}")
    for n in range(3, 10):
        inv = _form(so(0, n))
        g = pi0(inv)
        if g.order != 1:
            failures.append(f"SO(0,{n}): order {g.order} != 1")
    _report(2, "SO(p,q) component groups", failures)


# ---------------------------------------------------------------------------
# criterion 3: projective special orthogonal groups


def _check_pso_equal_signature(ell, failures):
    inv = _form(pso(ell, ell))
    g = pi0(inv)
    named = dict(inv.datum.named_vectors)
    if ell % 2 == 1:
        if g.order != 2:
            failures.append(f"PSO({ell},{ell}): order {g.order} != 2")
        elif not _same_coset(g, g.generators[0], named[f"w{ell}"]):
            failures.append(f"PSO({ell},{ell}): generator is not the w{ell} coset")
        return
    if g.order != 4:
        failures.append(f"PSO({ell},{ell}): order {g.order} != 4")
        return
    expected_gens = (named["e1"], named[f"w{ell}"])
    for got, want in zip(g.generators, expected_gens):
        if not _same_coset(g, got, want):
            failures.append(f"PSO({ell},{ell}): generator {got} is not {want}'s coset")
    reps = g.elements()[1:]
    patterns = (
        ("-1",) + ("1",) * (2 * ell - 2) + ("-1",),
        ("i",) * ell + ("-i",) * ell,
        ("-i",) + ("i",) * (ell - 1) + ("-i",) * (ell - 1) + ("i",),
    )
    for tag, nu, want in zip(("t1", "t2", "t3"), reps, patterns):
        got = _values(inv, nu)
        if got != want:
            failures.append(f"PSO({ell},{ell}) {tag}: {got} != {want}")


def test_criterion_3_pso_component_table():
    failures = []
    for total in (4, 6, 8, 10):
        for p in range(0, total // 2 + 1):
            q = total - p
            if p == q:
                _check_pso_equal_signature(p, failures)
                continue
            g = pi0(_form(pso(p, q)))
            if p == 0:
                # compact form, outside the odd/even dichotomy: connected
                expected = 1
            else:
                expected = 1 if p % 2 == 1 else 2
            if g.order != expected:
                failures.append(f"PSO({p},{q}): order {g.order} != {expected}")
    _report(3, "PSO(p,q) component table", failures)


# ---------------------------------------------------------------------------
# criterion 4: adjoint E7 real forms


def test_criterion_4_e7_real_forms():
    failures = []
    for form, expected in (("EV", 2), ("EVI", 1), ("EVII", 2)):
        inv = build_preset("E7", form=form)
        g = pi0(inv)
        if g.order != expected:
            failures.append(f"E7 {form}: order {g.order} != {expected}")
            continue
        if expected == 2 and not _same_coset(g, g.generators[0], dict(inv.datum.named_vectors)["w1"]):
            failures.append(f"E7 {form}: generator is not the w1 coset")

    inv = build_preset("E7", form="EVII")
    named = {name: vec_frac(v) for name, v in inv.datum.named_vectors}

    def split_part(v):
        return vec_scale(vec_sub(v, vec_frac(mat_vec(inv.theta, v))), Fraction(1, 2))

    def half(v):
        return vec_scale(v, Fraction(1, 2))
    identities = (
        ("w3", vec_add(named["w2"], half(named["w6"]))),
        ("w4", vec_add(named["w2"], named["w6"])),
        ("w5", vec_add(half(named["w2"]), named["w6"])),
        ("w7", half(vec_add(named["w2"], named["w6"]))),
    )
    for name, want in identities:
        got = split_part(named[name])
        if got != want:
            failures.append(f"E7 EVII: split part of {name} is {got}, not {want}")
    _report(4, "E7 real forms and split projections", failures)


# ---------------------------------------------------------------------------
# criterion 5: connectivity fixtures


def test_criterion_5_connectivity_fixtures():
    failures = []
    split_cases = [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
    for ct, rk in split_cases:
        g = pi0(_form(simple(ct, rk, "sc", "split")))
        if g.order != 1:
            failures.append(f"sc split {ct}{rk}: order {g.order} != 1")
    g = pi0(_form(simple("E", 6, "adj", "split")))
    if g.order != 1:
        failures.append(f"adjoint split E6: order {g.order} != 1")

    compact = [
        _form(simple(ct, rk, iso, "compact"))
        for ct, rk in split_cases
        for iso in ("sc", "adj")
    ]
    for rd in (gl(4)[0], so(2, 3)[0], pso(3, 3)[0], e7_adjoint()):
        compact.append(involution_from_matrix(rd, identity_matrix(rd.rank)))
    for inv in compact:
        g = pi0(inv)
        if g.order != 1:
            failures.append(f"compact form of {inv.datum.name}: order {g.order} != 1")
    _report(5, "connectivity fixtures", failures)


# ---------------------------------------------------------------------------
# criterion 6: torus suite


def _brute_force_agrees(g):
    bf = brute_force_quotient(g.sub, g.sup)
    return bf.invariant_factors == (2,) * g.rank


def test_criterion_6_torus_suite():
    failures = []
    for n in range(1, 6):
        g = pi0(_form(torus_split(n)))
        if g.order != 2**n:
            failures.append(f"split torus rank {n}: order {g.order} != {2 ** n}")
        elif not _brute_force_agrees(g):
            failures.append(f"split torus rank {n}: brute force disagrees")
    for n in range(1, 4):
        g = pi0(_form(torus_compact(n)))
        if g.order != 1:
            failures.append(f"compact torus rank {n}: order {g.order} != 1")
        elif not _brute_force_agrees(g):
            failures.append(f"compact torus rank {n}: brute force disagrees")
    g = pi0(_form(torus_weil()))
    if g.order != 1:
        failures.append(f"Weil torus: order {g.order} != 1")
    elif not _brute_force_agrees(g):
        failures.append("Weil torus: brute force disagrees")
    _report(6, "torus suite", failures)


# ---------------------------------------------------------------------------
# criterion 7: randomized property suite


def _all_fixtures():
    out = []
    for n in range(1, 9):
        out.append(_form(gl(n)))
    for total in range(3, 10):
        for p in range(0, total // 2 + 1):
            out.append(_form(so(p, total - p)))
    for total in (4, 6, 8, 10):
        for p in range(0, total // 2 + 1):
            out.append(_form(pso(p, total - p)))
    for form in ("EV", "EVI", "EVII"):
        out.append(build_preset("E7", form=form))
    for ct, rk in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        for real in ("split", "compact"):
            out.append(_form(simple(ct, rk, "sc", real)))
    out.append(_form(simple("E", 6, "adj", "split")))
    out.append(_form(simple("E", 7, "adj", "split")))
    for n in range(1, 6):
        out.append(_form(torus_split(n)))
    for n in range(1, 4):
        out.append(_form(torus_compact(n)))
    out.append(_form(torus_weil()))
    return out


def _random_order_two_matrix(rng, n):
    """Random integer involution: signed points and swapped pairs, conjugated."""
    d = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.4:
            sign = rng.choice((1, -1))
            d[i][i + 1] = sign
            d[i + 1][i] = sign
            i += 2
        else:
            d[i][i] = rng.choice((1, -1))
            i += 1
    u, uinv = helpers.random_unimodular(rng, n)
    from helpers import mat_mul

    return mat_mul(mat_mul(u, tuple(tuple(r) for r in d)), uinv)


def _property_failures(inv, tag, failures):
    g = pi0(inv)
    h = h1_pi1(inv)
    qs = quotient_structure(g.sub, g.sup)
    if qs.free_rank != 0 or any(f != 2 for f in qs.invariant_factors):
        failures.append(f"{tag}: pi0 not elementary 2: {qs.invariant_factors}")
    if h.order % g.order != 0:
        failures.append(f"{tag}: |pi0|={g.order} does not divide |H1|={h.order}")
    if not kernel_embedding_check(inv):
        failures.append(f"{tag}: pi0 does not embed into H1")
    if g.order <= 4096 and not oracle_check(g):
        failures.append(f"{tag}: brute force disagrees on pi0")
    if h.order <= 4096 and not oracle_check(h):
        failures.append(f"{tag}: brute force disagrees on H1")
    return g, h


def test_criterion_7_randomized_properties():
    rng = random.Random(20260819)
    failures = []
    fixtures = _all_fixtures()
    cases = []

    for inv in fixtures:
        base_g = pi0(inv)
        base_h = h1_pi1(inv)
        for _ in range(2):
            u, uinv = helpers.random_unimodular(rng, inv.datum.rank)
            cinv = helpers.conjugate_datum(inv, u, uinv)
            tag = f"{inv.datum.name} conjugated"
            g, h = _property_failures(cinv, tag, failures)
            if (g.order, g.rank, h.order) != (base_g.order, base_g.rank, base_h.order):
                failures.append(
                    f"{tag}: orders ({g.order},{h.order}) changed under basis change"
                )
            cases.append(cinv)

    for k in range(60):
        n = rng.randint(1, 5)
        rd = torus_split(n)[0]
        theta = _random_order_two_matrix(rng, n)
        inv = involution_from_matrix(rd, theta, name=f"random torus {k}")
        _property_failures(inv, f"random torus involution {k} (rank {n})", failures)
        cases.append(inv)

    for k in range(15):
        inv1, inv2 = rng.sample(cases, 2)
        pinv = product_involution(inv1, inv2)
        g = pi0(pinv)
        h = h1_pi1(pinv)
        o1, o2 = pi0(inv1).order, pi0(inv2).order
        h1, h2 = h1_pi1(inv1).order, h1_pi1(inv2).order
        if g.order != o1 * o2:
            failures.append(f"product case {k}: pi0 {g.order} != {o1}*{o2}")
        if h.order != h1 * h2:
            failures.append(f"product case {k}: H1 {h.order} != {h1}*{h2}")

    total = len(cases)
    if total < 200:
        failures.append(f"only {total} randomized inputs, need at least 200")
    _report(7, f"randomized properties ({total} inputs)", failures)


# ---------------------------------------------------------------------------
# criterion 8: first Galois cohomology fixtures


def test_criterion_8_h1_fixtures():
    failures = []
    cases = [
        ("split GL(1)", _form(torus_split(1)), 2),
        ("compact torus rank 1", _form(torus_compact(1)), 1),
        ("compact torus rank 3", _form(torus_compact(3)), 1),
        ("adjoint split E7 (EV)", build_preset("E7", form="EV"), 2),
        ("adjoint split E7 (Bourbaki)", _form(simple("E", 7, "adj", "split")), 2),
    ]
    for label, inv, expected in cases:
        h = h1_pi1(inv)
        if h.order != expected:
            failures.append(f"{label}: H1 order {h.order} != {expected}")
        elif not oracle_check(h):
            failures.append(f"{label}: brute force disagrees")
    _report(8, "H1 fixtures", failures)
