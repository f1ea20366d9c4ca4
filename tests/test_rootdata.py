"""Tests for the root datum builders and presets."""

import functools
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import datum_problems, det, frac_solve, mat_mul, mat_vec
from pi0real.intlattice import (
    Lattice,
    identity_matrix,
    lattice_index,
    membership,
    transpose,
    vec_frac,
)
from pi0real.realform import PRESETS, Involution, build_preset
from pi0real.rootdata import (
    PresetError,
    RootDatum,
    cartan_matrix,
    e7_adjoint,
    gl,
    product,
    pso,
    simple,
    so,
    torus_compact,
    torus_split,
    torus_weil,
)

NEG_I3 = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# GL


def test_gl_shape():
    rd, theta = gl(3)
    assert rd.rank == 3
    assert rd.name == "GL(3)"
    assert theta == NEG_I3
    assert datum_problems(rd) == ()
    assert len(rd.coroot_generators) == 6
    assert (1, -1, 0) in rd.coroot_generators


def test_gl_coroots_are_trace_zero():
    rd, _ = gl(4)
    for v in rd.coroots.basis:
        assert sum(v) == 0
    # the trace functional cuts out exactly the coroot lattice
    assert membership((1, 0, 0, -1), rd.coroots)
    assert not membership((1, 0, 0, 0), rd.coroots)


def test_gl1_has_no_coroots():
    rd, _ = gl(1)
    assert rd.coroots.is_zero
    assert datum_problems(rd) == ()


def test_gl_display_weights_are_units():
    rd, _ = gl(5)
    assert rd.display_weights[0] == ("eps1", unit(5, 0))
    assert rd.display_weights[4] == ("eps5", unit(5, 4))


def test_gl_rejects_nonpositive():
    with pytest.raises(PresetError):
        gl(0)


# ---------------------------------------------------------------------------
# SO


def test_so_odd_coroot_count():
    # rank 2, type B2: 8 coroots
    rd, theta = so(2, 3)
    assert rd.rank == 2
    assert len(rd.coroot_generators) == 8
    assert (2, 0) in rd.coroot_generators
    assert theta == ((-1, 0), (0, -1))


def test_so_even_coroot_count():
    # rank 3, type D3: 12 coroots, no doubled ones
    rd, _ = so(3, 3)
    assert len(rd.coroot_generators) == 12
    assert (2, 0, 0) not in rd.coroot_generators


def test_so_index_two():
    # the coroot lattice is the even-sum sublattice in every signature
    for p, q in [(1, 2), (2, 3), (3, 4), (2, 2), (3, 3), (4, 4), (0, 5)]:
        rd, _ = so(p, q)
        assert lattice_index(rd.coroots, rd.cochar) == 2, (p, q)


def test_so_swap_normalizes():
    a = so(3, 2)
    b = so(2, 3)
    assert a == b
    assert a[0].name == "SO(2,3)"


def test_so_theta_signature():
    rd, theta = so(1, 4)
    assert theta == ((-1, 0), (0, 1))


def test_so_display_positions():
    rd, _ = so(2, 3)
    labels = [label for label, _ in rd.display_weights]
    assert labels == ["eps1", "eps2", "0", "-eps2", "-eps1"]
    weights = dict(rd.display_weights)
    assert weights["eps1"] == (1, 0)
    assert weights["-eps1"] == (-1, 0)
    assert weights["0"] == (0, 0)


def test_so_rejects_small():
    with pytest.raises(PresetError):
        so(1, 1)
    with pytest.raises(PresetError):
        so(-1, 5)


# ---------------------------------------------------------------------------
# PSO


def test_pso_rejects_bad_signature():
    with pytest.raises(PresetError):
        pso(2, 3)  # odd total
    with pytest.raises(PresetError):
        pso(1, 1)  # too small


def test_pso_internal_basis():
    # basis e1, .., e_{l-1}, w_l; so e_l picks up the coordinates (-1,..,-1,2)
    rd, _ = pso(3, 3)
    named = dict(rd.named_vectors)
    assert named["e1"] == (1, 0, 0)
    assert named["e2"] == (0, 1, 0)
    assert named["e3"] == (-1, -1, 2)
    assert named["w3"] == (0, 0, 1)


def test_pso_coroot_index_four():
    # coweight lattice over the even-sum lattice: index 4 for type D
    rd, _ = pso(2, 4)
    assert lattice_index(rd.coroots, rd.cochar) == 4
    assert (1, 1, 0) in rd.coroot_generators  # e1 + e2
    assert datum_problems(rd) == ()


def test_pso_display_weights_halved():
    rd, _ = pso(3, 3)
    weights = dict(rd.display_weights)
    assert weights["eps1"] == (1, 0, Fraction(1, 2))
    assert weights["eps3"] == (0, 0, Fraction(1, 2))
    assert weights["-eps3"] == (0, 0, Fraction(-1, 2))


def test_pso_theta_integral_and_involutive():
    from helpers import mat_mul
    from pi0real.intlattice import identity_matrix

    for p, q in [(1, 3), (2, 4), (3, 5), (2, 2), (4, 4), (0, 6)]:
        rd, theta = pso(p, q)
        assert mat_mul(theta, theta) == identity_matrix(rd.rank), (p, q)


def test_pso_lift_note():
    rd, _ = pso(4, 4)
    assert rd.lift_note is not None
    assert "sign" in rd.lift_note


def test_pso_swap_normalizes():
    assert pso(4, 2) == pso(2, 4)


def _apply(m, v):
    """m * v over the rationals, skipping the zero entries of v."""
    return tuple(sum((x * y for x, y in zip(row, v) if y), Fraction(0)) for row in m)


@functools.lru_cache(maxsize=None)
def _rational_pso_frame(ell):
    """The basis matrix of PSO's X, its inverse transpose, and the coroots
    and named vectors mapped by that inverse, as in _rational_pso."""
    pmat = tuple(vec_frac(unit(ell, i)) for i in range(ell - 1)) + (
        tuple(Fraction(1, 2) for _ in range(ell)),
    )
    inv_pt = frac_solve(transpose(pmat), identity_matrix(ell))

    def conv_vec(v):
        return _intify(_apply(inv_pt, v))

    gens = []
    for i, j in combinations(range(ell), 2):
        for si in (1, -1):
            for sj in (1, -1):
                gens.append(conv_vec(tuple(si * a + sj * b for a, b in zip(unit(ell, i), unit(ell, j)))))
    named = [(f"e{i + 1}", conv_vec(unit(ell, i))) for i in range(ell)]
    named.append((f"w{ell}", unit(ell, ell - 1)))
    return pmat, inv_pt, tuple(dict.fromkeys(gens)), tuple(named)


def _intify(v):
    assert all(Fraction(x).denominator == 1 for x in v)
    return tuple(int(x) for x in v)


def _rational_pso(p, q):
    """PSO(p,q) built by a rational change of basis from the SO presentation.

    This is the construction pso replaced with integer coordinates, kept as
    a reference: X = Z^ell in the basis e_1, ..., e_{ell-1}, w_ell with
    w_ell = (e_1 + ... + e_ell)/2, vectors mapped by the inverse transpose
    of the basis matrix and theta conjugated by it.
    """
    p, q = min(p, q), max(p, q)
    ell = (p + q) // 2
    pmat, inv_pt, gens, named = _rational_pso_frame(ell)

    def conv_weight(lmbda):
        return tuple(int(x) if x.denominator == 1 else x for x in _apply(pmat, lmbda))

    weights = []
    for j in range(1, p + q + 1):
        if j <= p:
            weights.append((f"eps{j}", conv_weight(unit(ell, j - 1))))
        elif j <= q:
            weights.append(("0", conv_weight((0,) * ell)))
        else:
            weights.append((f"-eps{p + q + 1 - j}", conv_weight(tuple(-x for x in unit(ell, p + q - j)))))
    theta_eps = tuple(
        tuple((-1 if i < p else 1) if i == j else 0 for j in range(ell)) for i in range(ell)
    )
    theta = tuple(_intify(row) for row in mat_mul(mat_mul(inv_pt, theta_eps), transpose(pmat)))
    rd = RootDatum(
        rank=ell,
        coroot_generators=gens,
        display_weights=tuple(weights),
        named_vectors=named,
        name=f"PSO({p},{q})",
        lift_note="matrix entries fixed only up to a global sign",
    )
    return rd, theta


def test_pso_matches_rational_construction():
    signatures = [(p, n - p) for n in range(4, 21, 2) for p in range(n + 1)]
    assert len(signatures) == 117
    for p, q in signatures:
        # repr also tells an int entry from an integral Fraction
        assert repr(pso(p, q)) == repr(_rational_pso(p, q)), (p, q)


# ---------------------------------------------------------------------------
# tori


def test_torus_split_and_compact():
    rd, theta = torus_split(3)
    assert theta == NEG_I3
    assert rd.coroots.is_zero
    rd, theta = torus_compact(2)
    assert theta == ((1, 0), (0, 1))


def test_torus_weil():
    rd, theta = torus_weil()
    assert rd.rank == 2
    assert theta == ((0, -1), (-1, 0))
    assert rd.coroots.is_zero


# ---------------------------------------------------------------------------
# simple types via Cartan matrices


def test_cartan_determinants():
    # det of the Cartan matrix = order of the fundamental group
    cases = [
        ("A", 1, 2),
        ("A", 5, 6),
        ("B", 3, 2),
        ("C", 4, 2),
        ("D", 4, 4),
        ("D", 5, 4),
        ("E", 6, 3),
        ("E", 7, 2),
        ("E", 8, 1),
        ("F", 4, 1),
        ("G", 2, 1),
    ]
    for t, r, d in cases:
        assert det(cartan_matrix(t, r)) == d, (t, r)


def test_cartan_rejects_bad_type():
    for t, r in [("E", 9), ("F", 3), ("G", 3), ("B", 1), ("D", 2), ("H", 2)]:
        with pytest.raises(PresetError):
            cartan_matrix(t, r)


def test_coroot_counts():
    counts = [
        ("A", 2, 6),
        ("B", 2, 8),
        ("C", 3, 18),
        ("D", 4, 24),
        ("G", 2, 12),
        ("F", 4, 48),
        ("E", 6, 72),
        ("E", 7, 126),
        ("E", 8, 240),
    ]
    for t, r, c in counts:
        rd, _ = simple(t, r, "sc", "split")
        assert len(rd.coroot_generators) == c, (t, r)


def test_simple_sc_has_full_coroot_lattice():
    for t, r in [("A", 3), ("D", 4), ("E", 6)]:
        rd, _ = simple(t, r, "sc", "split")
        assert rd.coroots == rd.cochar, (t, r)


def test_simple_adjoint_index_table():
    table = [
        ("A", 1, 2),
        ("A", 4, 5),
        ("B", 3, 2),
        ("C", 3, 2),
        ("D", 4, 4),
        ("E", 6, 3),
        ("E", 7, 2),
        ("E", 8, 1),
        ("F", 4, 1),
        ("G", 2, 1),
    ]
    for t, r, idx in table:
        rd, _ = simple(t, r, "adj", "split")
        assert lattice_index(rd.coroots, rd.cochar) == idx, (t, r)


def test_simple_real_forms():
    rd, theta = simple("G", 2, "sc", "split")
    assert theta == ((-1, 0), (0, -1))
    rd, theta = simple("G", 2, "sc", "compact")
    assert theta == ((1, 0), (0, 1))
    with pytest.raises(PresetError, match="real form must be 'split' or 'compact', not None"):
        simple("G", 2, "sc", None)


def test_simple_accepts_adjoint_alias():
    assert simple("A", 2, "adjoint", "split") == simple("A", 2, "adj", "split")


def test_simple_rejects_bad_isogeny():
    with pytest.raises(PresetError):
        simple("A", 2, "iso", "split")
    with pytest.raises(PresetError):
        simple("A", 2, "sc", "quaternionic")


def test_simple_coroots_are_symmetric_and_valid():
    for t, r, iso in [("B", 2, "sc"), ("C", 3, "adj"), ("F", 4, "adj")]:
        rd, _ = simple(t, r, iso, "split")
        assert datum_problems(rd) == (), (t, r, iso)


# ---------------------------------------------------------------------------
# adjoint E7 in the 8-coordinate presentation


def test_e7_basic_counts():
    rd = e7_adjoint()
    assert rd.rank == 7
    assert len(rd.coroot_generators) == 126
    assert lattice_index(rd.coroots, rd.cochar) == 2
    assert datum_problems(rd) == ()


def test_e7_coweight_membership():
    # w2, w4, w5, w6 land in the coroot lattice; w1, w3, w7 do not
    rd = e7_adjoint()
    named = dict(rd.named_vectors)
    for nm in ("w2", "w4", "w5", "w6"):
        assert membership(named[nm], rd.coroots), nm
    for nm in ("w1", "w3", "w7"):
        assert not membership(named[nm], rd.coroots), nm


def test_e7_simple_coroots_rows():
    # the a_i coordinates recover the (symmetric) E7 Cartan matrix with the
    # chain 1-2-3-4-5-6 and the seventh node attached to the fourth
    rd = e7_adjoint()
    named = dict(rd.named_vectors)
    assert named["a1"] == (2, -1, 0, 0, 0, 0, 0)
    assert named["a4"] == (0, 0, -1, 2, -1, 0, -1)
    assert named["a7"] == (0, 0, 0, -1, 0, 0, 2)


def _e7_gram():
    # Gram matrix of the invariant form on the coweight basis: the inverse of
    # the Cartan matrix (E7 is simply laced), taken in the node order of
    # e7_adjoint
    nodes = (7, 6, 5, 4, 3, 1, 2)
    bourbaki = cartan_matrix("E", 7)
    cartan = tuple(tuple(bourbaki[i - 1][j - 1] for j in nodes) for i in nodes)
    return frac_solve(cartan, identity_matrix(7))


def test_e7_gram_is_symmetric_positive_diagonal():
    gram = _e7_gram()
    assert len(gram) == 7
    for i in range(7):
        assert gram[i][i] > 0
        for j in range(7):
            assert gram[i][j] == gram[j][i]


def test_e7_coroots_have_norm_two():
    # all roots of E7 have the same length under the invariant form
    rd = e7_adjoint()
    gram = _e7_gram()
    for c in rd.coroot_generators[:20]:
        norm = sum(
            Fraction(c[i]) * gram[i][j] * Fraction(c[j])
            for i in range(7)
            for j in range(7)
        )
        assert norm == 2


# ---------------------------------------------------------------------------
# products and validation


def test_product_concatenates():
    a, _ = gl(2)
    b, _ = so(1, 2)
    rd = product(a, b)
    assert rd.rank == 3
    assert rd.name == "GL(2) x SO(1,2)"
    assert datum_problems(rd) == ()
    assert (1, -1, 0) in rd.coroot_generators
    assert (0, 0, 2) in rd.coroot_generators


def test_product_with_rank_zero_is_identity():
    a, _ = gl(2)
    zero = RootDatum(rank=0)
    assert product(a, zero) == a
    assert product(zero, a) == a


def test_product_coroots_span_all_its_coroots():
    # the product takes Q's basis from its factors; that basis must span
    # the same lattice as every coroot of the product, for preset factors
    # (which pass a basis), conjugated ones and an inline one (which do not)
    from test_components import split_fixtures

    data = [inv.datum for inv in split_fixtures()]
    inline = RootDatum(rank=2, coroot_generators=((2, 1), (-2, -1), (0, 3), (0, -3)))
    assert inline.coroot_basis is None
    pairs = list(zip(data, data[1:])) + [(inline, data[5]), (data[5], inline)]
    for a, b in pairs:
        rd = product(a, b)
        assert rd.coroots == Lattice(rd.rank, rd.coroot_generators), (a.name, b.name)


def test_product_merges_names_first_wins():
    a, _ = gl(1)
    b, _ = gl(1)
    rd = product(a, b)
    named = dict(rd.named_vectors)
    assert named["e1"] == (1, 0)  # the left factor keeps its label


def test_validate_flags_bad_data():
    asym = RootDatum(rank=1, coroot_generators=((1,),))
    assert any("not symmetric" in d for d in datum_problems(asym))

    # the coroot lattice is derived lazily, so a malformed generator is
    # reported by datum_problems instead of raising when the datum is built
    half = (Fraction(1, 2), Fraction(-1, 2))
    bad = RootDatum(
        rank=2,
        coroot_generators=((1,), (-1,), half, tuple(-x for x in half)),
        display_weights=(("short", (1,)),),
        named_vectors=(("h", half), ("s", (1,))),
    )
    assert datum_problems(bad) == (
        "coroot (1,) has wrong length",
        "coroot (-1,) has wrong length",
        f"coroot {half} not in cocharacter lattice",
        f"coroot {tuple(-x for x in half)} not in cocharacter lattice",
        "display weight 'short' has wrong length",
        "named vector 'h' is not in the cocharacter lattice",
        "named vector 's' has wrong length",
    )
    assert datum_problems(RootDatum(rank=-1)) == ("rank is negative",)
    assert datum_problems(RootDatum(rank=1, coroot_generators=((0,),))) == (
        "coroot (0,) is zero",
    )


def test_validate_quotes_a_bounded_prefix_of_long_coroots():
    long = (1,) * 1000
    bad = RootDatum(rank=1, coroot_generators=(long, (1,), (-1,)))
    assert datum_problems(bad) == (
        f"coroot {str(long)[:80]}... has wrong length",
    )
    half = (Fraction(1, 2),) * 300
    bad = RootDatum(rank=300, coroot_generators=(half,))
    assert datum_problems(bad) == (
        f"coroot {str(half)[:80]}... not in cocharacter lattice",
        f"coroot set is not symmetric: missing {str(tuple(-x for x in half))[:80]}...",
    )


def test_derived_lattices():
    rd, _ = so(3, 4)
    assert rd.cochar == Lattice.standard(3)
    assert rd.coroots == Lattice(3, rd.coroot_generators)
    assert rd.coroots is rd.coroots  # built once
    assert RootDatum(rank=2).coroots == Lattice.zero(2)


def _preset_data():
    """Every preset family over a range of sizes, as (label, datum)."""
    for n in range(1, 13):
        yield f"GL({n})", gl(n)[0]
    for total in range(3, 15):
        for p in range(total + 1):
            yield f"SO({p},{total - p})", so(p, total - p)[0]
            if total % 2 == 0 and total >= 4:
                yield f"PSO({p},{total - p})", pso(p, total - p)[0]
    types = [("A", r) for r in range(1, 9)] + [(t, r) for t in "BC" for r in range(2, 9)]
    types += [("D", r) for r in range(3, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    for t, r in types:
        for isogeny in ("sc", "adj"):
            yield f"{t}{r} {isogeny}", simple(t, r, isogeny, "split")[0]
    yield "E7", e7_adjoint()


def test_preset_coroot_basis_spans_the_coroot_lattice():
    # presets are code: this is the one check of the basis each one passes
    count = 0
    for label, rd in _preset_data():
        basis = rd.coroot_basis
        assert basis is not None, label
        assert set(basis) <= set(rd.coroot_generators), label
        full = Lattice(rd.rank, rd.coroot_generators)
        assert Lattice(rd.rank, basis) == full, label
        assert rd.coroots == full and len(basis) == full.rank, label
        count += 1
    assert count == 12 + 114 + 60 + 2 * 33 + 1


def test_coroot_basis_takes_no_part_in_printing_or_comparing():
    rd, _ = gl(3)
    plain = RootDatum(rank=3, coroot_generators=rd.coroot_generators,
                      display_weights=rd.display_weights,
                      named_vectors=rd.named_vectors, name=rd.name)
    assert rd == plain and repr(rd) == repr(plain)
    assert rd.coroots == plain.coroots


def test_coroots_without_a_basis_take_one_coroot_per_pair():
    gens = ((0, -2), (1, 1), (0, 2), (-1, -1), (1, 1))
    rd = RootDatum(rank=2, coroot_generators=gens)
    assert rd.coroots == Lattice(2, ((1, 1), (0, 2)))
    # a set that is not symmetric still gets the span of all its coroots
    lopsided = RootDatum(rank=2, coroot_generators=((-1, 0), (0, 3)))
    assert lopsided.coroots == Lattice(2, ((1, 0), (0, 3)))
    assert product(gl(2)[0], gl(3)[0]).coroots == Lattice(
        5, ((1, -1, 0, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, 1, -1))
    )


# ---------------------------------------------------------------------------
# preset dispatch


def test_build_preset_families():
    assert build_preset("GL", n=8).datum.rank == 8
    assert build_preset("TORUS_WEIL").theta == ((0, -1), (-1, 0))
    assert build_preset("E7", form="EVII").name == "EVII"
    # SIMPLE without a real form is split
    inv = build_preset("SIMPLE", type="B", rank=3, isogeny="sc")
    assert inv.theta == NEG_I3
    assert build_preset("SIMPLE", type="B", rank=3) == inv


@pytest.mark.parametrize("n", range(5))
def test_tori_data(n):
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for build, kind, sign in ((torus_split, "split", -1), (torus_compact, "compact", 1)):
        rd, theta = build(n)
        assert rd == RootDatum(
            rank=n,
            display_weights=tuple((f"eps{i + 1}", u) for i, u in enumerate(unit)),
            named_vectors=tuple((f"e{i + 1}", u) for i, u in enumerate(unit)),
            name=f"{kind} torus of rank {n}",
        )
        assert theta == tuple(tuple(sign if i == j else 0 for j in range(n)) for i in range(n))
        assert all(type(x) is int for row in theta for x in row)
    with pytest.raises(PresetError):
        torus_split(-1)
    with pytest.raises(PresetError):
        torus_compact(-1)


def test_build_preset_missing_params():
    with pytest.raises(PresetError):
        build_preset("GL")
    with pytest.raises(PresetError):
        build_preset("SO", p=2)
    with pytest.raises(PresetError):
        build_preset("NOPE", n=1)
    # a missing field is named as a job file names it
    with pytest.raises(PresetError, match="preset 'SIMPLE' needs parameter 'type'"):
        build_preset("SIMPLE", rank=3)


@pytest.mark.parametrize(
    "family, fields, message",
    [
        ("GL", {"n": "3"}, "preset field 'n' must be an integer, got '3'"),
        ("GL", {"n": True}, "preset field 'n' must be an integer, got True"),
        ("SIMPLE", {"type": 5, "rank": 2}, "preset field 'type' must be a string, got 5"),
        ("GL", {"n": 3, "form": "EV"},
         "preset field 'form' is not used by preset 'GL', which takes 'n'"),
        ("E7", {"form": "EV", "type": None},
         "preset field 'type' is not used by preset 'E7', which takes 'form'"),
        ("GL", {"n": 3, "colour": "red"},
         "preset field 'colour' is not used by preset 'GL', which takes 'n'"),
        ("SIMPLE", {"rank": 3}, "preset 'SIMPLE' needs parameter 'type'"),
        ("GL", {"n": None}, "preset 'GL' needs parameter 'n'"),
        ("GL", {"n": 3, "x" * 1000: 1},
         "preset field '" + "x" * 79 + "... is not used by preset 'GL', which takes 'n'"),
    ],
)
def test_build_preset_checks_fields(family, fields, message):
    # the library reports the same texts as a job file on the command line
    with pytest.raises(PresetError) as err:
        build_preset(family, **fields)
    assert str(err.value) == message


def test_build_preset_involutions_are_validated(monkeypatch):
    # every preset involution passes the realform checks by construction,
    # and no preset solves for theta from eigenspaces
    from pi0real import realform

    def refuse(*args, **kwargs):
        raise AssertionError("a preset solved for theta from eigenspaces")

    monkeypatch.setattr(realform, "involution_from_eigenspaces", refuse)
    specs = [
        ("GL", {"n": 4}),
        ("SO", {"p": 2, "q": 4}),
        ("PSO", {"p": 2, "q": 4}),
        ("TORUS_SPLIT", {"n": 2}),
        ("TORUS_COMPACT", {"n": 2}),
        ("TORUS_WEIL", {}),
        ("E7", {"form": "EV"}),
        ("E7", {"form": "EVI"}),
        ("E7", {"form": "EVII"}),
        ("SIMPLE", {"type": "D", "rank": 4, "isogeny": "adj", "real": "split"}),
        ("SIMPLE", {"type": "G", "rank": 2}),
    ]
    assert {family for family, _ in specs} == set(PRESETS)
    for spec in specs:
        inv = build_preset(spec[0], **spec[1])
        rd = inv.datum
        assert datum_problems(rd) == (), spec
        assert isinstance(inv, Involution), spec
        img = [tuple(int(x) for x in mat_vec(inv.theta, c)) for c in rd.coroot_generators]
        assert set(img) == set(rd.coroot_generators), spec
