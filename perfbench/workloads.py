"""Seeded job ladders for the three workloads.

A ladder is a fixed list of groups; the seed only chooses the random
unimodular bases of the inline jobs, so every seed asks for the same
amount of work in different coordinates.  Each job is the JSON text that
``pi0 compute`` would read, plus the :class:`~groups.Group` holding the
closed-form answers and the theta and weights in the job's coordinates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from groups import Group, conjugate, e7, gl, pso, simple, so, torus

# what the classical and tori jobs ask for: pi0, representatives and H1
FULL = {"pi0": True, "h1": True, "representatives": True, "oracle_check": False}
# what `pi0 ... --h1 --oracle` asks for
ORACLE = {"pi0": False, "h1": True, "representatives": False, "oracle_check": True}

# classical: sizes at which building and validating the datum dominate;
# each group also runs as an inline twin in a random basis
CLASSICAL = (
    [gl(n) for n in (10, 14, 18)]
    + [so(p, q) for p, q in ((0, 9), (3, 8), (5, 6), (6, 10), (8, 9))]
    + [pso(p, q) for p, q in ((3, 5), (4, 4), (4, 6), (5, 5), (6, 6))]
    + [e7(form) for form in ("EV", "EVI", "EVII")]
    + [
        simple(t, n, isogeny, real)
        for t, n in (("A", 5), ("B", 4), ("C", 4), ("D", 5), ("D", 6), ("E", 6),
                     ("E", 7), ("F", 4), ("G", 2))
        for isogeny in ("sc", "adj")
        for real in ("split", "compact")
    ]
)

# tori as (split, compact, Weil) block counts.  The 2-rank a decides the
# path generator choice takes: a <= 12 enumerates all 2^a cosets, a >= 13
# relabels the Smith-form generators.  a <= 7 lists every component.  Seven
# cheaper and eight dearer jobs sit around six a = 5 tori, so the median job
# time is taken inside a cluster of like jobs and not across a gap.
TORI = (
    (1, 1, 1), (1, 0, 2), (2, 0, 1), (2, 2, 0), (3, 2, 0), (3, 0, 1), (4, 1, 1),
    (5, 0, 0), (5, 1, 0), (5, 0, 1), (5, 1, 1), (5, 2, 0), (5, 0, 2),
    (6, 2, 1), (7, 1, 1), (8, 2, 0), (9, 1, 1), (12, 1, 1), (13, 1, 1),
    (16, 0, 2), (20, 2, 1),
)

# crosscheck: groups small enough for the brute-force oracle.  The tori
# carry most of the time; the presets put the median among like jobs.
CROSSCHECK_TORI = ((3, 1, 1), (4, 2, 0), (5, 0, 1), (6, 1, 1), (7, 1, 0), (8, 0, 1))
CROSSCHECK_PRESETS = (
    [gl(n) for n in (4, 5, 6, 7, 8)]
    + [pso(p, q) for p, q in ((3, 5), (4, 4), (4, 6), (5, 5))]
    + [e7(form) for form in ("EV", "EVII")]
)


@dataclass(frozen=True)
class Job:
    """One job document and what its report must say.

    ``twin_of`` is the index (within the ladder) of the preset job whose
    pi0 order, rank and H1 order this inline job must reproduce.
    """

    text: str
    group: Group
    fmt: str
    outputs: dict
    twin_of: Optional[int] = None


def _num(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def preset_job(g: Group, outputs: dict, fmt: str) -> Job:
    doc = dict(g.preset, outputs=outputs, format=fmt)
    return Job(text=json.dumps(doc), group=g, fmt=fmt, outputs=outputs)


def inline_job(g: Group, outputs: dict, fmt: str, twin_of: Optional[int] = None) -> Job:
    doc = {
        "name": g.name,
        "rank": g.rank,
        "coroots": [list(v) for v in g.coroots],
        "theta": [list(r) for r in g.theta],
        "display_weights": [[lbl, [_num(x) for x in w]] for lbl, w in g.weights],
        "named_vectors": [[nm, list(v)] for nm, v in g.named],
        "outputs": outputs,
        "format": fmt,
    }
    return Job(text=json.dumps(doc), group=g, fmt=fmt, outputs=outputs, twin_of=twin_of)


def classical(rng: random.Random) -> list[Job]:
    jobs = []
    for g in CLASSICAL:
        jobs.append(preset_job(g, FULL, "text"))
        jobs.append(inline_job(conjugate(g, rng), FULL, "json", twin_of=len(jobs) - 1))
    return jobs


def tori(rng: random.Random) -> list[Job]:
    return [
        inline_job(conjugate(torus(*abc), rng), FULL, ("json", "text")[i % 2])
        for i, abc in enumerate(TORI)
    ]


def crosscheck(rng: random.Random) -> list[Job]:
    jobs = [
        inline_job(conjugate(torus(*abc), rng), ORACLE, ("text", "json")[i % 2])
        for i, abc in enumerate(CROSSCHECK_TORI)
    ]
    jobs += [preset_job(g, ORACLE, "text") for g in CROSSCHECK_PRESETS]
    return jobs


WORKLOADS = {"classical": classical, "tori": tori, "crosscheck": crosscheck}


def build(workload: str, seed: int) -> list[Job]:
    """The ladder of ``workload`` with bases drawn from ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
