"""One sha256 over every report of the benchmark ladders and a few presets.

Usage, from the root of the repository:

    python3 tools/report_digest.py

Renders each report as text, as JSON and with its generator names, for
every job of the ``classical``, ``tori`` and ``crosscheck`` ladders of
``perfbench/workloads.py`` at seeds 1-3, plus a fixed list of presets with
H1 in both formats.  It prints the number of reports and one digest over
all of them, so two checkouts print the same line exactly when every report
is byte-identical.  Exits 2 when ``perfbench/`` is missing.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
WORKLOADS = ("classical", "tori", "crosscheck")
PRESETS = (
    [{"preset": "TORUS_SPLIT", "n": n} for n in (5, 8, 13)]
    + [{"preset": "PSO", "p": p, "q": q} for p, q in ((3, 3), (4, 4), (2, 6))]
    + [{"preset": "E7", "form": form} for form in ("EV", "EVI", "EVII")]
    + [{"preset": "GL", "n": 24}, {"preset": "SO", "p": 3, "q": 4}]
)


def job_texts(workloads) -> list[str]:
    texts = [job.text for w in WORKLOADS for seed in SEEDS for job in workloads.build(w, seed)]
    for doc in PRESETS:
        for fmt in ("text", "json"):
            texts.append(json.dumps(dict(doc, outputs={"h1": True}, format=fmt)))
    return texts


def main() -> int:
    if not (ROOT / "perfbench" / "workloads.py").is_file():
        print(f"error: no perfbench/ under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from pi0real import cli

    digest = hashlib.sha256()
    texts = job_texts(workloads)
    for text in texts:
        job = cli.parse_jobspec(json.loads(text))
        report = cli.run(job)
        for part in (cli.render_text(report, job), cli.render_json(report),
                     json.dumps(report["_names"])):
            digest.update(part.encode())
            digest.update(b"\0")
    print(f"{len(texts)} reports, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
