"""End-to-end tests for the command-line front end."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pi0real import cli, components, intlattice
from pi0real.components import ComputationError, Elementary2Group


def run_job(doc):
    return cli.run(cli.parse_jobspec(doc))


def module_env():
    """The environment for `python -m pi0real`, finding the package tested here."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


# ---------------------------------------------------------------------------
# job parsing


def test_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        cli.parse_jobspec([1, 2, 3])


def test_rejects_empty_job():
    with pytest.raises(ValueError, match="'preset' or inline 'rank'"):
        cli.parse_jobspec({})


def test_rejects_unknown_preset_field():
    with pytest.raises(ValueError, match="unknown fields"):
        cli.parse_jobspec({"preset": "GL", "n": 2, "coroots": []})


def test_rejects_unknown_output_flag():
    with pytest.raises(ValueError, match="unknown output flags"):
        cli.parse_jobspec({"preset": "GL", "n": 2, "outputs": {"pi00": True}})


def test_rejects_non_boolean_output_flag():
    with pytest.raises(ValueError, match="true or false"):
        cli.parse_jobspec({"preset": "GL", "n": 2, "outputs": {"pi0": 1}})


def test_rejects_bad_format():
    with pytest.raises(ValueError, match="format"):
        cli.parse_jobspec({"preset": "GL", "n": 2, "format": "xml"})


@pytest.mark.parametrize("fmt", [["json"], {}, {"json": 1}, None, 1])
def test_rejects_format_that_is_not_a_string(fmt, tmp_path, capsys):
    doc = {"preset": "GL", "n": 3, "format": fmt}
    with pytest.raises(ValueError, match="format must be 'text' or 'json'"):
        cli.parse_jobspec(doc)
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["compute", str(spec)]) == 1
    assert capsys.readouterr().err.startswith("error: format must be")


def test_format_aliases_accepted():
    for fmt in ("json", "json-like", "structured"):
        job = cli.parse_jobspec({"preset": "GL", "n": 2, "format": fmt})
        assert job.fmt == "json"


def test_rejects_theta_and_spans_together():
    doc = {
        "rank": 1,
        "coroots": [],
        "theta": [[-1]],
        "split_span": [[1]],
    }
    with pytest.raises(ValueError, match="exactly one of"):
        cli.parse_jobspec(doc)


def test_rejects_missing_involution():
    with pytest.raises(ValueError, match="exactly one of"):
        cli.parse_jobspec({"rank": 1, "coroots": []})


def test_rejects_float_entries():
    doc = {"rank": 1, "coroots": [], "theta": [[-1.0]]}
    with pytest.raises(ValueError, match="integer"):
        cli.parse_jobspec(doc)


def test_rejects_bad_fraction_string():
    doc = {
        "rank": 1,
        "coroots": [],
        "split_span": [["1/0"]],
    }
    with pytest.raises(ValueError, match="split_span"):
        cli.parse_jobspec(doc)


def test_rejects_wrong_row_length():
    doc = {"rank": 2, "coroots": [[1, 0, 0]], "theta": [[1, 0], [0, 1]]}
    with pytest.raises(ValueError, match="coroot 0"):
        cli.parse_jobspec(doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"preset": "GL", "n": "3"}, "n"),
        ({"preset": "GL", "n": 3.5}, "n"),
        ({"preset": "GL", "n": True}, "n"),
        ({"preset": "TORUS_SPLIT", "n": False}, "n"),
        ({"preset": "SO", "p": [2], "q": 3}, "p"),
        ({"preset": "PSO", "p": 2, "q": "3"}, "q"),
        ({"preset": "SIMPLE", "type": "A", "rank": "2"}, "rank"),
        ({"preset": "SIMPLE", "type": 5, "rank": 2}, "type"),
        ({"preset": "SIMPLE", "type": "A", "rank": 2, "isogeny": 1}, "isogeny"),
        ({"preset": "SIMPLE", "type": "A", "rank": 2, "real": ["split"]}, "real"),
        ({"preset": "E7", "form": 3}, "form"),
        # fields the family does not read
        ({"preset": "TORUS_WEIL", "n": 3}, "n"),
        ({"preset": "GL", "n": 3, "form": "EV"}, "form"),
        ({"preset": "SIMPLE", "type": "A", "rank": 2, "n": 5}, "n"),
        ({"preset": "E7", "form": "EV", "p": 2}, "p"),
        ({"preset": "PSO", "p": 3, "q": 3, "isogeny": "adj"}, "isogeny"),
        # null counts as absent only for a field the family reads
        ({"preset": "E7", "form": "EV", "type": None}, "type"),
    ],
)
def test_rejects_mistyped_preset_field(doc, field, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"preset field '{field}'"):
        cli.parse_jobspec(doc)
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["compute", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{field}'" in err


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"rank": 1, "coroots": [[1] * 10**6], "theta": [[-1]]}, "coroot 0"),
        ({"rank": 1, "coroots": [[1]], "theta": [[-1]],
          "display_weights": [["w", ["1" * 10**5 + "/x"]]]}, "display weight 0"),
        ({"rank": 1, "coroots": [[1]], "theta": [[-1]],
          "named_vectors": [["v", [[0] * 10**5]]]}, "named vector 0"),
        ({"rank": 1, "coroots": [[1]], "theta": [[-1]],
          "named_vectors": [["v", ["1/2" * 10**5]]]}, "named vector 0"),
        ({"preset": "GL", "n": 3, "format": "x" * 10**5}, "format"),
        ({"preset": "GL", "n": [3] * 10**5}, "'n'"),
        ({"preset": "E7", "form": {"x": "y" * 10**5}}, "'form'"),
        ({"preset": "x" * 10**5}, "preset family"),
        (dict({"preset": "GL", "n": 3}, **{f"k{i}": 1 for i in range(20000)}),
         "unknown fields in preset job"),
        ({"rank": 1, "coroots": [[1]], "theta": [[-1]], "x" * 10**5: 1},
         "unknown fields in job"),
        ({"preset": "GL", "n": 2, "outputs": {"x" * 10**5: True}}, "output flags"),
        ({"preset": "SIMPLE", "type": "x" * 10**5, "rank": 2}, "type"),
        ({"preset": "SIMPLE", "type": "A", "rank": 2, "isogeny": "x" * 10**5}, "isogeny"),
        ({"preset": "SIMPLE", "type": "A", "rank": 2, "real": "x" * 10**5}, "real form"),
        ({"preset": "E7", "form": "x" * 10**5}, "E7 real form"),
        ({"rank": 2000, "coroots": [[0] * 2000], "theta": [[-1]]}, "is zero"),
        ({"rank": 1, "coroots": [[2]], "theta": [[-1]],
          "display_weights": [["w" * 10**5, ["1/4"]]]}, "pairing of weight"),
        # one coroot pair +-e1 on Z^300, and theta swapping e1 and e2
        ({"rank": 300, "coroots": [[1] + [0] * 299, [-1] + [0] * 299],
          "theta": [[int(j == {0: 1, 1: 0}.get(i, i)) for j in range(300)]
                    for i in range(300)]}, "normalize the coroot set"),
    ],
)
def test_error_line_quotes_a_bounded_prefix(doc, where, tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["compute", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err
    assert err.count("\n") == 1 and len(err.encode()) < 300, err[:400]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"preset": "nope"}, "unknown preset family 'nope'"),
        ({"preset": "GL", "n": 3, "zz": 1, "aa": 2},
         "unknown fields in preset job: ['aa', 'zz']"),
        ({"rank": 1, "coroots": [[1]], "theta": [[-1]], "foo": 1},
         "unknown fields in job: ['foo']"),
        ({"preset": "GL", "n": 2, "outputs": {"pi00": True}},
         "unknown output flags: ['pi00']"),
        ({"preset": "SIMPLE", "type": "Q", "rank": 2}, "no simple group of type Q2"),
        ({"preset": "SIMPLE", "type": "A", "rank": 2, "isogeny": "ss"},
         "isogeny must be 'sc' or 'adj', not 'ss'"),
        ({"preset": "SIMPLE", "type": "A", "rank": 2, "real": "quasi"},
         "real form must be 'split' or 'compact', not 'quasi'"),
        ({"preset": "E7", "form": "EIX"},
         "unknown E7 real form 'EIX'; choose EV, EVI, or EVII"),
        ({"rank": 1, "coroots": [[0]], "theta": [[-1]]},
         "invalid root datum: coroot (0,) is zero"),
        # the inline path checks only for a zero coroot, with the message
        # the full datum validation gave
        ({"rank": 2, "coroots": [[1, -1], [0, 0], [2, 0]], "theta": [[-1, 0], [0, -1]]},
         "invalid root datum: coroot (0, 0) is zero"),
        ({"rank": 0, "coroots": [[]], "theta": []}, "invalid root datum: coroot () is zero"),
        ({"rank": 30, "coroots": [[1] + [0] * 29, [0] * 30],
          "theta": [[-int(i == j) for j in range(30)] for i in range(30)]},
         "invalid root datum: coroot (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
         "0, 0, 0, 0, 0, 0, 0, 0, 0, 0... is zero"),
        # theta is checked on one coroot per +- pair, but the message quotes
        # the first offender in list order: here the negative one
        ({"rank": 2, "coroots": [[0, -1], [-1, 0]], "theta": [[-1, 0], [1, 1]]},
         "involution does not normalize the coroot set: "
         "theta((-1, 0)) = (1, -1) is not a coroot"),
        # Fraction would expand the entry into a ten-million-digit integer
        ({"rank": 1, "coroots": [], "theta": [[-1]], "display_weights": [["h", ["1e10000000"]]]},
         "display weight 0: exponent notation is refused, got '1e10000000'"),
    ],
)
def test_error_line_quotes_a_short_value_in_full(doc, message, tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["compute", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("coroots", {"a": 1}),
        ("coroots", None),
        ("display_weights", 5),
        ("named_vectors", None),
        ("split_span", 7),
        ("compact_span", {"a": 1}),
        ("compact_span", "[[1]]"),
    ],
)
def test_rejects_inline_list_field_that_is_not_a_list(field, value, tmp_path, capsys):
    doc = {"rank": 1, "coroots": [], "split_span": [[1]], field: value}
    with pytest.raises(ValueError, match=f"'{field}' must be a list of"):
        cli.parse_jobspec(doc)
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["compute", str(spec)]) == 1
    assert capsys.readouterr().err.startswith(f"error: '{field}' must be a list of")


def test_null_preset_field_counts_as_absent():
    doc = {"preset": "SIMPLE", "type": "A", "rank": 1}
    nulls = dict(doc, isogeny=None, real=None)
    assert run_job(nulls) == run_job(dict(doc, isogeny="sc", real="split"))
    with pytest.raises(ValueError, match="needs parameter 'rank'"):
        cli.parse_jobspec(dict(doc, rank=None))


def test_rejects_inline_job_without_coroots():
    with pytest.raises(ValueError, match="'coroots' must be a list of coroot rows"):
        cli.parse_jobspec({"rank": 1, "theta": [[-1]]})


def test_inline_weil_matches_preset():
    # the swap-with-sign involution on a rank-2 torus is the Weil restriction
    inline = run_job({"rank": 2, "coroots": [], "theta": [[0, -1], [-1, 0]]})
    preset = run_job({"preset": "TORUS_WEIL"})
    for key in ("order", "rank", "generators", "representatives"):
        assert inline[key] == preset[key]
    assert inline["order"] == 1


def test_inline_coroots_are_symmetrized():
    # listing only one coroot of each +- pair is accepted
    doc = {"rank": 1, "coroots": [[2]], "theta": [[-1]]}
    job = cli.parse_jobspec(doc)
    gens = set(job.involution.datum.coroot_generators)
    assert gens == {(2,), (-2,)}
    assert run_job(doc)["order"] == 2  # the split adjoint group of type A1


def test_inline_job_builds_coroot_lattice_once(monkeypatch):
    calls = []
    hnf = intlattice.hnf

    def spy(m, ncols=None):
        calls.append({tuple(r) for r in m})
        return hnf(m, ncols)

    monkeypatch.setattr(intlattice, "hnf", spy)
    n = 6
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    roots = [
        [a - b for a, b in zip(unit[i], unit[j])]
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    doc = {
        "rank": n,
        "coroots": roots,
        "theta": [[-x for x in row] for row in unit],
        "outputs": {"pi0": True, "h1": True},
    }
    job = cli.parse_jobspec(doc)
    assert calls == []  # validation spans no lattice; the first use does
    cli.run(job)
    coroot_set = set(job.involution.datum.coroot_generators)
    assert len(coroot_set) == 30
    # Q is spanned by one coroot of each +- pair, the one with a positive
    # first nonzero entry: e_i - e_j with i < j
    one_per_pair = {c for c in coroot_set if c > (0,) * n}
    assert len(one_per_pair) == 15
    assert sum(rows == one_per_pair for rows in calls) == 1
    assert not any(rows & (coroot_set - one_per_pair) for rows in calls)

    calls.clear()
    cli.parse_jobspec({"rank": 2, "coroots": [], "theta": [[0, -1], [-1, 0]]})
    assert calls == []


def test_inline_eigenspace_spans():
    doc = {
        "rank": 2,
        "coroots": [],
        "split_span": [[1, 1]],
        "compact_span": [[1, -1]],
    }
    job = cli.parse_jobspec(doc)
    assert job.involution.theta == ((0, -1), (-1, 0))


def test_inline_fraction_strings_in_spans():
    # same involution as above, entered with rational string entries
    doc = {
        "rank": 2,
        "coroots": [],
        "split_span": [["1/2", "1/2"]],
        "compact_span": [["1/2", "-1/2"]],
    }
    job = cli.parse_jobspec(doc)
    assert job.involution.theta == ((0, -1), (-1, 0))


def test_inline_display_weights_and_names():
    doc = {
        "rank": 1,
        "coroots": [],
        "theta": [[-1]],
        "display_weights": [["chi", [1]]],
        "named_vectors": [["z", [1]]],
        "name": "my torus",
    }
    report = run_job(doc)
    assert report["order"] == 2
    assert report["_names"] == ("z",)
    assert report["representatives"][0]["evaluations"] == [["chi", "-1"]]


def test_integer_display_weights_build_no_fraction(monkeypatch):
    calls = []
    fraction = cli._fraction

    def counted(x, where):
        calls.append(x)
        return fraction(x, where)

    monkeypatch.setattr(cli, "_fraction", counted)
    doc = {
        "rank": 2,
        "coroots": [[1, -1]],
        "theta": [[-1, 0], [0, -1]],
        "display_weights": [["a", [1, -2]], ["b", [0, 10**30]]],
        "named_vectors": [["z", [1, 0]]],
    }
    rd = cli.parse_jobspec(doc).involution.datum
    assert calls == []
    assert rd.display_weights == (("a", (1, -2)), ("b", (0, 10**30)))
    assert all(type(x) is int for _, w in rd.display_weights for x in w)
    # a row with any non-int entry is read in Fractions, then whole entries
    # become ints again
    doc["display_weights"] = [["c", ["1", "1/2"]], ["d", [2, "4/2"]]]
    rd = cli.parse_jobspec(doc).involution.datum
    assert rd.display_weights == (("c", (1, Fraction(1, 2))), ("d", (2, 2)))
    assert [type(x) for _, w in rd.display_weights for x in w] == [int, Fraction, int, int]
    doc["named_vectors"] = [["z", ["2/2", 0]]]
    assert cli.parse_jobspec(doc).involution.datum.named_vectors == (("z", (1, 0)),)


def test_output_defaults():
    job = cli.parse_jobspec({"preset": "GL", "n": 2})
    assert job.outputs == cli.OutputFlags(
        pi0=True, h1=False, representatives=True, oracle=False
    )


# ---------------------------------------------------------------------------
# reports


def test_report_key_order_is_pinned():
    report = run_job({"preset": "GL", "n": 3})
    clean = json.loads(cli.render_json(report))
    assert list(clean) == [
        "order",
        "rank",
        "generators",
        "representatives",
        "h1_order",
        "oracle",
    ]


def test_h1_and_oracle_omitted_unless_requested():
    report = run_job({"preset": "GL", "n": 3})
    assert report["h1_order"] is None
    assert report["oracle"] is None


def test_h1_reported_when_requested():
    doc = {"preset": "GL", "n": 3, "outputs": {"h1": True, "oracle_check": True}}
    report = run_job(doc)
    assert report["h1_order"] == 2
    assert report["oracle"] == "agree"


def test_json_round_trip_is_byte_identical():
    doc = {
        "preset": "PSO",
        "p": 4,
        "q": 4,
        "outputs": {"h1": True, "oracle_check": True},
    }
    rendered = cli.render_json(run_job(doc))
    again = json.dumps(json.loads(rendered), indent=2)
    assert again == rendered


_LABEL_CHARS = ("a", "Z", " ", "/", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                "\u00e9", "\u03c0", "\u221e", "\U0001f600")


def _report_like(rng):
    """A random value shaped like a report, with JSON's edge cases in it."""

    def integer():
        return rng.choice((
            0, -1, rng.randint(-10**6, 10**6),
            10**99 + rng.randrange(10**99), -(10**99 + rng.randrange(10**99)),
        ))

    def label():
        return "".join(rng.choice(_LABEL_CHARS) for _ in range(rng.randint(0, 8)))

    def vector():
        return [integer() for _ in range(rng.randint(0, 4))]

    return {
        "order": integer(),
        "rank": integer(),
        "generators": [vector() for _ in range(rng.randint(0, 3))],
        "representatives": [
            {
                "nu": vector(),
                "evaluations": [
                    [label(), rng.choice(("1", "i", "-1", "-i"))]
                    for _ in range(rng.randint(0, 3))
                ],
                "note": rng.choice((None, label())),
            }
            for _ in range(rng.randint(0, 3))
        ],
        "h1_order": rng.choice((None, integer())),
        "oracle": rng.choice((None, "agree", "skipped", True, False)),
        label(): rng.choice(({}, [], [[]], [{}], {label(): vector()}, [None, True])),
        "_names": (label(),),
    }


def test_json_writer_matches_json_dumps():
    rng = random.Random(0x150)
    for _ in range(400):
        report = _report_like(rng)
        clean = {k: v for k, v in report.items() if not k.startswith("_")}
        assert cli.render_json(report) == json.dumps(clean, indent=2)
        assert cli._json_text(clean) == json.dumps(clean, indent=2)
    # a bool and a float are written by json.dumps, at any depth
    for value in (True, [False, 0.5], {"x": [True, None]}, {}, []):
        assert cli._json_text(value) == json.dumps(value, indent=2)


def _inline_torus_doc(rng):
    """An inline job for a split torus times a Weil torus, in a random basis."""
    import helpers
    from pi0real.realform import build_preset, product_involution

    inv = product_involution(build_preset("TORUS_SPLIT", n=4), build_preset("TORUS_WEIL"))
    u, uinv = helpers.random_unimodular(rng, inv.datum.rank)
    inv = helpers.conjugate_datum(inv, u, uinv)
    rd = inv.datum
    return {
        "rank": rd.rank,
        "coroots": [],
        "theta": [list(r) for r in inv.theta],
        "display_weights": [[lbl, [str(x) for x in w]] for lbl, w in rd.display_weights],
        "named_vectors": [[nm, list(v)] for nm, v in rd.named_vectors],
        "outputs": {"h1": True, "pi0": True, "representatives": True},
    }


def _many_representatives(rng):
    """A report of 64 representatives whose evaluations share non-ASCII
    labels, with entries of 100 digits."""
    labels = ["\u03b5" + str(i) for i in range(3)] + ["\u00e9\U0001f600", "a\"b"]
    reps = []
    for _ in range(64):
        nu = [rng.choice((0, 1, -1, 10**99 + rng.randrange(10**99), -(10**99)))
              for _ in range(6)]
        evals = [[lbl, rng.choice(("1", "i", "-1", "-i"))] for lbl in labels]
        reps.append({"nu": nu, "evaluations": evals, "note": rng.choice((None, "\u00b1 sign"))})
    return {"order": 2**6, "rank": 6, "generators": [[10**99, -(10**99)], [1, 0]],
            "representatives": reps, "h1_order": 2**6, "oracle": None, "_names": ()}


def test_json_writer_matches_json_dumps_on_real_reports():
    rng = random.Random(0x7E57)
    reports = [
        run_job({"preset": "TORUS_SPLIT", "n": 7}),
        run_job({"preset": "PSO", "p": 4, "q": 4}),
        run_job(_inline_torus_doc(rng)),
        _many_representatives(rng),
    ]
    assert len(reports[0]["representatives"]) == 127
    assert reports[1]["representatives"][0]["note"]
    for report in reports:
        clean = {k: v for k, v in report.items() if not k.startswith("_")}
        assert cli.render_json(report) == json.dumps(clean, indent=2)


def test_json_hides_private_keys():
    rendered = cli.render_json(run_job({"preset": "GL", "n": 2}))
    assert "_names" not in rendered


def test_evaluations_serialize_as_strings():
    doc = {"preset": "PSO", "p": 3, "q": 3}
    report = run_job(doc)
    values = {v for r in report["representatives"] for _, v in r["evaluations"]}
    assert values <= {"1", "-1", "i", "-i"}


def test_oracle_skipped_when_bound_too_small(monkeypatch):
    monkeypatch.setenv(cli.ORACLE_BOUND_ENV, "1")
    doc = {"preset": "GL", "n": 2, "outputs": {"oracle_check": True}}
    assert run_job(doc)["oracle"] == "skipped"


@pytest.mark.parametrize("bound", ["2", "4"])
def test_oracle_bound_exceeded_within_claimed_order_is_disagreement(monkeypatch, bound):
    # Z^2 / 2Z^2 has 4 cosets; a group claiming order 2 there must not pass
    # as "skipped" just because the coset walk outran the bound
    lie = Elementary2Group(
        rank=1,
        order=2,
        generators=((1, 0),),
        generator_names=(None,),
        sub=intlattice.Lattice(2, ((2, 0), (0, 2))),
        sup=intlattice.Lattice.standard(2),
    )
    monkeypatch.setenv(cli.ORACLE_BOUND_ENV, bound)
    with pytest.raises(ComputationError, match="oracle disagrees"):
        cli._oracle_verdict([lie])
    monkeypatch.setenv(cli.ORACLE_BOUND_ENV, "1")
    assert cli._oracle_verdict([lie]) == "skipped"


def test_oracle_bound_env_validation(monkeypatch):
    monkeypatch.setenv(cli.ORACLE_BOUND_ENV, "zero")
    doc = {"preset": "GL", "n": 2, "outputs": {"oracle_check": True}}
    with pytest.raises(ValueError, match="PI0_ORACLE_BOUND"):
        run_job(doc)
    monkeypatch.setenv(cli.ORACLE_BOUND_ENV, "-3")
    with pytest.raises(ValueError, match="positive"):
        run_job(doc)


def test_large_torus_lists_only_generators():
    # 2^8 components exceed the listing cap, so only generators are shown
    doc = {"preset": "TORUS_SPLIT", "n": 8}
    report = run_job(doc)
    assert report["order"] == 256
    assert len(report["representatives"]) == 8


# ---------------------------------------------------------------------------
# text rendering


def test_text_gl8_golden():
    job = cli.parse_jobspec({"preset": "GL", "n": 8})
    text = cli.render_text(cli.run(job), job)
    assert text.splitlines() == [
        "group: GL(8)",
        "pi0 order 2 (rank 1)",
        "",
        "  generator  vector",
        "  e1         (1, 0, 0, 0, 0, 0, 0, 0)",
        "",
        "  element  nu                        matrix",
        "  t1       (1, 0, 0, 0, 0, 0, 0, 0)  diag(-1, 1, 1, 1, 1, 1, 1, 1)",
    ]


def test_text_connected_group():
    job = cli.parse_jobspec({"preset": "PSO", "p": 1, "q": 3})
    text = cli.render_text(cli.run(job), job)
    assert "pi0 order 1 (connected)" in text
    assert "generator" not in text


def test_text_pso24_order_two():
    job = cli.parse_jobspec({"preset": "PSO", "p": 2, "q": 4})
    text = cli.render_text(cli.run(job), job)
    assert "pi0 order 2" in text


def test_text_sign_note_for_isogeny_quotients():
    job = cli.parse_jobspec({"preset": "PSO", "p": 3, "q": 3})
    text = cli.render_text(cli.run(job), job)
    assert "+-diag(" in text
    assert "global sign" in text


def test_text_involution_named_in_header():
    job = cli.parse_jobspec({"preset": "E7", "form": "EVII"})
    text = cli.render_text(cli.run(job), job)
    assert text.splitlines()[0] == "group: E7 (adjoint), involution EVII"


def test_text_has_no_trailing_whitespace():
    # E7 carries no display weights, so the matrix column is absent
    job = cli.parse_jobspec({"preset": "E7", "form": "EV"})
    text = cli.render_text(cli.run(job), job)
    assert all(line == line.rstrip() for line in text.splitlines())


# ---------------------------------------------------------------------------
# entry point and exit codes


def test_main_success(capsys):
    assert cli.main(["preset", "GL", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "pi0 order 2" in out
    assert "diag(-1, 1, 1, 1, 1, 1, 1, 1)" in out


def test_main_compute_from_file(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"preset": "SO", "p": 2, "q": 3}))
    assert cli.main(["compute", str(spec), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 2
    assert doc["generators"] == [[1, 0]]


def test_main_format_json_like_alias(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"preset": "GL", "n": 2}))
    for fmt in ("json-like", "structured"):
        assert cli.main(["compute", str(spec), "--format", fmt]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 2


def test_main_flags_override_document(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(
        json.dumps({"preset": "GL", "n": 2, "outputs": {"representatives": True}})
    )
    assert cli.main(["compute", str(spec), "--h1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h1_order"] == 2
    assert doc["representatives"] == []  # flag set replaces the document's
    assert cli.main(["compute", str(spec), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h1_order"] is None
    assert doc["representatives"] != []


def test_main_missing_file_exit_one(capsys):
    assert cli.main(["compute", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_malformed_json_exit_one(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text("{not json")
    assert cli.main(["compute", str(spec)]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_deeply_nested_json_exit_one(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["compute", str(spec)]) == 1
    assert capsys.readouterr().err.startswith("error:")


# each preset command line, and the job document it must match
PRESET_COMMANDS = [
    (["GL", "--n", "3"], {"preset": "GL", "n": 3}),
    (["SO", "--p", "2", "--q", "3"], {"preset": "SO", "p": 2, "q": 3}),
    (["PSO", "--p", "3", "--q", "3"], {"preset": "PSO", "p": 3, "q": 3}),
    (["TORUS_SPLIT", "--n", "3"], {"preset": "TORUS_SPLIT", "n": 3}),
    (["TORUS_COMPACT", "--n", "2"], {"preset": "TORUS_COMPACT", "n": 2}),
    (["TORUS_WEIL"], {"preset": "TORUS_WEIL"}),
    (["E7", "--form", "EVI"], {"preset": "E7", "form": "EVI"}),
    (["SIMPLE", "--type", "B", "--rank", "3"], {"preset": "SIMPLE", "type": "B", "rank": 3}),
    (
        ["SIMPLE", "--type", "A", "--rank", "3", "--isogeny", "adj"],
        {"preset": "SIMPLE", "type": "A", "rank": 3, "isogeny": "adj"},
    ),
    (
        ["SIMPLE", "--type", "A", "--rank", "3", "--isogeny", "adjoint"],
        {"preset": "SIMPLE", "type": "A", "rank": 3, "isogeny": "adjoint"},
    ),
    (
        ["SIMPLE", "--type", "D", "--rank", "4", "--real", "compact"],
        {"preset": "SIMPLE", "type": "D", "rank": 4, "real": "compact"},
    ),
]


@pytest.mark.parametrize(
    "flags, doc", PRESET_COMMANDS, ids=[" ".join(f) for f, _ in PRESET_COMMANDS]
)
def test_main_preset_matches_job_document(flags, doc, tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(doc))
    for extra in ([], ["--h1", "--pi0", "--reps", "--format", "json"]):
        assert cli.main(["compute", str(spec), *extra]) == 0
        expected = capsys.readouterr().out
        assert cli.main(["preset", *flags, *extra]) == 0
        assert capsys.readouterr().out == expected


def test_main_bad_preset_params_exit_one(capsys):
    assert cli.main(["preset", "GL"]) == 1
    assert "needs parameter 'n'" in capsys.readouterr().err
    # the missing field is named as the job and the flags spell it
    assert cli.main(["preset", "SIMPLE", "--rank", "3"]) == 1
    assert "needs parameter 'type'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="needs parameter 'type'"):
        cli.parse_jobspec({"preset": "SIMPLE", "rank": 3})
    # fields a family does not read are rejected on the command line too
    assert cli.main(["preset", "GL", "--n", "3", "--form", "EV"]) == 1
    assert "preset field 'form'" in capsys.readouterr().err
    assert cli.main(["preset", "GL", "--n", "3", "--isogeny", "adj"]) == 1
    assert "preset field 'isogeny'" in capsys.readouterr().err
    assert cli.main(["preset", "GL", "--n", "3", "--real", "compact"]) == 1
    assert "preset field 'real'" in capsys.readouterr().err


def test_preset_help_names_every_family(capsys):
    with pytest.raises(SystemExit):
        cli.main(["preset", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "name GL, SO, PSO, TORUS_SPLIT, TORUS_COMPACT, TORUS_WEIL, E7, or SIMPLE " in text
    for family in cli.PRESETS:
        assert f" {family}," in text or f" or {family} " in text


def test_main_unknown_subcommand_exit_one(capsys):
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_main_invalid_involution_exit_one(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"rank": 2, "coroots": [], "theta": [[1, 1], [0, 1]]}))
    assert cli.main(["compute", str(spec)]) == 1
    assert "involution" in capsys.readouterr().err


def test_main_internal_error_exit_two(monkeypatch, capsys):
    def boom(job):
        raise ComputationError("synthetic failure")

    monkeypatch.setattr(cli, "run", boom)
    assert cli.main(["preset", "GL", "--n", "2"]) == 2
    assert "synthetic failure" in capsys.readouterr().err


def test_main_oracle_disagreement_exit_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_check", lambda g, bound: False)
    assert cli.main(["preset", "GL", "--n", "2", "--oracle"]) == 2
    assert "oracle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, expect",
    [
        ([1, -2], (1, -2)),
        (["2", 3], (2, 3)),
        ([True, 2], "expected an integer or a fraction string like '1/2', got True"),
        ([1.0, 2], "expected an integer or a fraction string like '1/2', got 1.0"),
        ([1, "1/2"], "entries must be integers, got [1, '1/2']"),
        ([1], "expected a list of 2 entries, got [1]"),
        ([1, "1e10000000"], "exponent notation is refused, got '1e10000000'"),
    ],
)
def test_int_vector_entries(row, expect):
    if isinstance(expect, tuple):
        vec = cli._int_vector(row, 2, "theta row 0")
        assert vec == expect and all(type(x) is int for x in vec)
    else:
        with pytest.raises(ValueError) as err:
            cli._int_vector(row, 2, "theta row 0")
        assert str(err.value) == f"theta row 0: {expect}"


@pytest.mark.parametrize("n, verdict", [(12, "agree"), (13, "skipped")])
def test_main_oracle_at_default_bound(monkeypatch, capsys, n, verdict):
    # 2-rank 12 is 4096 cosets, exactly the default bound; 13 is past it
    monkeypatch.delenv(cli.ORACLE_BOUND_ENV, raising=False)
    assert cli.main(["preset", "TORUS_SPLIT", "--n", str(n), "--h1", "--oracle"]) == 0
    assert f"oracle: {verdict}" in capsys.readouterr().out.splitlines()


def _walks(monkeypatch):
    """The quotients the oracle walks, recorded by a spy on its coset walk."""
    walks = []
    walk = components.walk_quotient

    def spy(sub, sup, bound):
        walks.append((sub, sup))
        return walk(sub, sup, bound)

    monkeypatch.setattr(components, "walk_quotient", spy)
    return walks


def test_main_oracle_skipped_before_any_walk(monkeypatch, capsys, tmp_path):
    # TORUS_SPLIT n = 12 times a compact PGL(2): |pi0| = 4096 is within the
    # default bound, but |H1| = 8192 is past it, so neither group is walked
    monkeypatch.delenv(cli.ORACLE_BOUND_ENV, raising=False)
    walks = _walks(monkeypatch)
    n = 13
    e = [0] * (n - 1) + [2]
    doc = {"rank": n, "coroots": [e, [-x for x in e]],
           "theta": [[(1 if i == n - 1 else -1) * (i == j) for j in range(n)] for i in range(n)]}
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["compute", str(spec), "--h1", "--oracle"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "h1 order 8192" in out and "oracle: skipped" in out
    assert walks == []


@pytest.mark.parametrize("args, n_walks", [
    (["GL", "--n", "3"], 1),
    (["E7", "--form", "EV"], 1),
    (["PSO", "--p", "4", "--q", "6"], 2),
    (["E7", "--form", "EVII"], 2),
])
def test_main_oracle_walks_each_distinct_quotient_once(monkeypatch, capsys, args, n_walks):
    walks = _walks(monkeypatch)
    assert cli.main(["preset", *args, "--h1", "--oracle"]) == 0
    assert "oracle: agree" in capsys.readouterr().out.splitlines()
    assert len(walks) == len(set(walks)) == n_walks


@pytest.mark.parametrize("args", [["GL", "--n", "3"], ["PSO", "--p", "4", "--q", "6"]])
def test_main_oracle_disagreement_on_h1_alone_exit_two(monkeypatch, capsys, args):
    # H1 claims one more generator than its quotient has: with pi0's
    # quotient (GL(3)) the walk is shared, and with its own (PSO(4,6)) it
    # is walked itself
    walks = _walks(monkeypatch)
    h1 = cli.h1_pi1

    def lying_h1(inv, component_group=None):
        h = h1(inv, component_group)
        return dataclasses.replace(h, rank=h.rank + 1, order=2 * h.order)

    monkeypatch.setattr(cli, "h1_pi1", lying_h1)
    assert cli.main(["preset", *args, "--h1", "--oracle"]) == 2
    assert "oracle disagrees" in capsys.readouterr().err
    assert len(walks) == (1 if args[0] == "GL" else 2)


def test_main_preset_simple_defaults_to_split(capsys):
    assert cli.main(["preset", "SIMPLE", "--type", "G", "--rank", "2"]) == 0
    assert "connected" in capsys.readouterr().out


def test_main_preset_simple_compact(capsys):
    assert (
        cli.main(
            ["preset", "SIMPLE", "--type", "F", "--rank", "4", "--real", "compact"]
        )
        == 0
    )
    assert "connected" in capsys.readouterr().out


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "pi0real", "preset", "GL", "--n", "3"],
        env=module_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pi0 order 2" in proc.stdout


def test_module_invocation_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "pi0real", "compute", "-", "--format", "json"],
        input='{"rank": 2, "coroots": [], "theta": [[0, -1], [-1, 0]]}',
        env=module_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 1
