"""Single-input timings of pi0 jobs, one row per input of a fixed ladder.

Usage, from the root of the repository:

    python3 tools/ladder.py

Each input is a job document with the default outputs (pi0 and
representatives) plus the outputs its label names.  ``cli.parse_jobspec``,
``cli.run``, ``cli.render_text`` and ``cli.render_json`` are timed
in-process, each the best of 3 runs on a fresh parse, and printed as a
table in milliseconds.  The inputs are the rows of the ROADMAP baseline
table that finish within seconds (``GL(96)`` is left out), plus
``TORUS_SPLIT n=7``, whose report lists all 127 components, once without
and once with H1, which shares the component group's quotient there.  Two
inputs no job document reaches by a preset: ``GL(48) x SO(20,21)``, whose
parse column builds the two presets and their ``product_involution``, and
a seeded rank-48 torus given by the eigenspaces of a random unimodular
basis, some vectors scaled by 1/3, whose parse column solves for theta.
Stdlib only; nothing is written.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
H1 = {"h1": True}
ORACLE = {"h1": True, "oracle_check": True}


def inline_gl(n: int) -> dict:
    """GL(n) as inline data: every coroot e_i - e_j, i != j, and theta = -1."""
    coroots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * n
                v[i], v[j] = 1, -1
                coroots.append(v)
    theta = [[-int(i == j) for j in range(n)] for i in range(n)]
    return {"rank": n, "coroots": coroots, "theta": theta, "name": f"inline GL({n})"}


def inline_eigenspaces(n: int, seed: int = 31) -> dict:
    """A rank-n torus given by its eigenspaces: the columns of a random
    unimodular matrix (3n row additions on the identity), each split or
    compact at random, and every third one scaled by 1/3."""
    rng = random.Random(seed)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    spans = {"split_span": [], "compact_span": []}
    for j in range(n):
        col = [p[i][j] for i in range(n)]
        if j % 3 == 0:
            col = [f"{x}/3" for x in col]
        spans[rng.choice(tuple(spans))].append(col)
    return {"rank": n, "coroots": [], **spans, "name": f"inline torus({n}) by eigenspaces"}


def product_job(cli, a: dict, b: dict):
    """The job of preset document a, with the product of a's and b's
    involutions as its involution."""
    from pi0real.realform import product_involution

    ja, jb = cli.parse_jobspec(a), cli.parse_jobspec(b)
    return cli.JobSpec(product_involution(ja.involution, jb.involution), ja.outputs, ja.fmt)


LADDER = (
    ("TORUS_SPLIT n=7", {"preset": "TORUS_SPLIT", "n": 7}),
    ("TORUS_SPLIT n=7 --h1", {"preset": "TORUS_SPLIT", "n": 7, "outputs": H1}),
    ("TORUS_SPLIT n=40 --h1", {"preset": "TORUS_SPLIT", "n": 40, "outputs": H1}),
    ("TORUS_SPLIT n=60", {"preset": "TORUS_SPLIT", "n": 60}),
    ("TORUS_SPLIT n=120 --h1", {"preset": "TORUS_SPLIT", "n": 120, "outputs": H1}),
    ("TORUS_SPLIT n=300 --h1", {"preset": "TORUS_SPLIT", "n": 300, "outputs": H1}),
    ("GL(24)", {"preset": "GL", "n": 24}),
    ("GL(48)", {"preset": "GL", "n": 48}),
    ("GL(64)", {"preset": "GL", "n": 64}),
    ("inline GL(48), theta = -1", inline_gl(48)),
    ("SO(20,21)", {"preset": "SO", "p": 20, "q": 21}),
    ("GL(48) x SO(20,21)", lambda cli: product_job(
        cli, {"preset": "GL", "n": 48}, {"preset": "SO", "p": 20, "q": 21})),
    ("inline torus(48), eigenspaces", inline_eigenspaces(48)),
    ("PSO(8,8) --h1", {"preset": "PSO", "p": 8, "q": 8, "outputs": H1}),
    ("E7 EVII --h1", {"preset": "E7", "form": "EVII", "outputs": H1}),
    ("TORUS_SPLIT n=10 --h1 --oracle", {"preset": "TORUS_SPLIT", "n": 10, "outputs": ORACLE}),
    ("TORUS_SPLIT n=12 --h1 --oracle", {"preset": "TORUS_SPLIT", "n": 12, "outputs": ORACLE}),
)


COLUMNS = ("parse ms", "run ms", "text ms", "json ms")


def timings(cli, doc) -> list[float]:
    """Best parse, run, text and JSON rendering times in ms over REPEATS
    fresh parses of doc, a job document or a function of cli that builds
    the job.

    Each run gets its own freshly parsed job, because a root datum caches
    its lattices on first use and a second run of one job would skip that.
    """
    clock = time.perf_counter
    best = [float("inf")] * len(COLUMNS)
    for _ in range(REPEATS):
        t0 = clock()
        job = doc(cli) if callable(doc) else cli.parse_jobspec(doc)
        t1 = clock()
        report = cli.run(job)
        t2 = clock()
        cli.render_text(report, job)
        t3 = clock()
        cli.render_json(report)
        t4 = clock()
        best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))]
    return [b * 1e3 for b in best]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from pi0real import cli

    width = max(len(label) for label, _ in LADDER)
    print(f"{'input':<{width}}" + "".join(f"  {c:>9}" for c in COLUMNS))
    for label, doc in LADDER:
        print(f"{label:<{width}}" + "".join(f"  {t:>9.2f}" for t in timings(cli, doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
