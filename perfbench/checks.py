"""Checks of a job's report against answers computed apart from the program.

The report is read back from the rendered text or JSON, exactly as a user
would see it.  Nothing here calls the program or compares with stored
output: the expected values are the closed forms in :mod:`groups`, and
each representative is checked in integer arithmetic against the theta and
the display weights the job was built from.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from groups import mat_vec
from workloads import Job

# the program lists every component up to this group order, else generators
MAX_LISTED_COMPONENTS = 128
_FOURTH_ROOT = ("1", "i", "-1", "-i")

_ORDER = re.compile(r"^pi0 order (\d+) \((?:rank (\d+)|connected)\)$")
_REP = re.compile(r"^  t\d+\s+\(([^)]*)\)(?:\s+(?:\+-)?diag\(([^)]*)\))?$")
_H1 = re.compile(r"^h1 order (\d+)$")
_ORACLE = re.compile(r"^oracle: (\S+)$")


@dataclass(frozen=True)
class Report:
    order: int
    rank: int
    reps: tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]
    h1: Optional[int]
    oracle: Optional[str]


def parse_text(out: str) -> Report:
    order = rank = h1 = oracle = None
    reps = []
    for line in out.splitlines():
        if m := _ORDER.match(line):
            order, rank = int(m[1]), int(m[2] or 0)
        elif m := _REP.match(line):
            nu = tuple(int(x) for x in m[1].split(","))
            values = tuple(v.strip() for v in m[2].split(",")) if m[2] else ()
            reps.append((nu, values))
        elif m := _H1.match(line):
            h1 = int(m[1])
        elif m := _ORACLE.match(line):
            oracle = m[1]
    if order is None:
        raise ValueError("no 'pi0 order' line in the text report")
    return Report(order, rank, tuple(reps), h1, oracle)


def parse_json(out: str) -> Report:
    doc = json.loads(out)
    reps = tuple(
        (tuple(r["nu"]), tuple(value for _, value in r["evaluations"]))
        for r in doc["representatives"]
    )
    return Report(doc["order"], doc["rank"], reps, doc["h1_order"], doc["oracle"])


def _value(weight, nu) -> Optional[str]:
    """i^(2<w, nu>), or None when 2<w, nu> is not an integer."""
    h = 2 * sum(Fraction(a) * b for a, b in zip(weight, nu))
    if h.denominator != 1:
        return None
    return _FOURTH_ROOT[int(h) % 4]


def _check_reps(job: Job, rep: Report) -> list[str]:
    g = job.group
    bad = []
    want = rep.order - 1 if rep.order <= MAX_LISTED_COMPONENTS else rep.rank
    if len(rep.reps) != want:
        bad.append(f"{len(rep.reps)} representatives listed, expected {want}")
    for nu, values in rep.reps:
        if len(nu) != g.rank:
            bad.append(f"representative {nu} has the wrong length")
            continue
        if mat_vec(g.theta, nu) != tuple(-x for x in nu):
            bad.append(f"theta({nu}) != -{nu}")
        expected = tuple(_value(w, nu) for _, w in g.weights)
        if values != expected:
            bad.append(f"representative {nu} prints {values}, expected {expected}")
    if g.is_gl and g.preset is not None:
        diag = ("-1",) + ("1",) * (g.rank - 1)
        if [values for _, values in rep.reps] != [diag]:
            bad.append("GL representative is not diag(-1, 1, ..., 1)")
    a = g.split_chars
    if a and rep.order <= MAX_LISTED_COMPONENTS:
        # every component meets the split torus: 2^a - 1 distinct nontrivial
        # sign patterns on the split characters
        patterns = {values[:a] for _, values in rep.reps}
        if len(patterns) != 2**a - 1 or ("1",) * a in patterns:
            bad.append("sign patterns on the split characters are not 2^a - 1 "
                       "distinct nontrivial ones")
        if any(v not in ("1", "-1") for p in patterns for v in p):
            bad.append("a split character takes a value other than +-1")
    return bad


def check(job: Job, out: str, round_reports: dict[int, Report], index: int) -> list[str]:
    """Problems with the rendered output ``out`` of ``job``; empty means correct.

    ``round_reports`` holds the parsed reports of the jobs already run in
    this round, by ladder index, for the twin comparison; this job's report
    is added to it.
    """
    rep = parse_json(out) if job.fmt == "json" else parse_text(out)
    round_reports[index] = rep
    g = job.group
    bad = []
    if rep.order != 2**rep.rank:
        bad.append(f"order {rep.order} is not 2^rank with rank {rep.rank}")
    if g.pi0 is not None and rep.order != g.pi0:
        bad.append(f"pi0 order {rep.order}, expected {g.pi0}")
    if job.outputs["h1"]:
        if rep.h1 is None:
            bad.append("no H1 order reported")
        else:
            if g.h1 is not None and rep.h1 != g.h1:
                bad.append(f"H1 order {rep.h1}, expected {g.h1}")
            if rep.h1 % rep.order:
                bad.append(f"pi0 order {rep.order} does not divide H1 order {rep.h1}")
    if job.outputs["representatives"]:
        bad += _check_reps(job, rep)
    if job.outputs["oracle_check"] and rep.oracle != "agree":
        bad.append(f"oracle verdict {rep.oracle!r}, expected 'agree'")
    if job.twin_of is not None:
        twin = round_reports.get(job.twin_of)
        if twin is None:
            bad.append("its preset job gave no report to compare with")
        elif (rep.order, rep.rank, rep.h1) != (twin.order, twin.rank, twin.h1):
            bad.append(f"random basis gives (order, rank, h1) = "
                       f"{(rep.order, rep.rank, rep.h1)}, preset gives "
                       f"{(twin.order, twin.rank, twin.h1)}")
    return bad
