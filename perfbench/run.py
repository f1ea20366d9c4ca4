"""Benchmark of pi0 jobs through the public job path.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload classical --seed 1 --seconds 20 --trace 0

One process sends the workload's jobs in a closed loop, one at a time: each
job document goes through ``json.loads`` -> ``cli.parse_jobspec`` ->
``cli.run`` -> ``cli.render_text`` / ``cli.render_json``, the path
``pi0 compute`` takes.  Whole rounds of the ladder run until ``--seconds``
have passed, and every report is checked (see checks.py).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the public functions of the program's
layers are wrapped (see tracing.py) and the per-layer metrics are printed
instead.  Results and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 11


def fresh_import_seconds() -> float:
    """Median wall time of a fresh interpreter importing pi0real and its CLI."""
    cmd = [sys.executable, "-c", "import pi0real, pi0real.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, check=True)  # writes the bytecode cache, untimed
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_job(cli, text: str) -> str:
    job = cli.parse_jobspec(json.loads(text))
    report = cli.run(job)
    return cli.render_json(report) if job.fmt == "json" else cli.render_text(report, job)


def run_rounds(cli, jobs, seconds: float, tracer=None):
    """Run whole rounds of ``jobs`` until ``seconds`` have passed.

    Returns the time of every job, the number of failed jobs (the program
    raised, or a check failed) and the number whose output was wrong.
    """
    import checks

    times: list[float] = []
    failed = wrong = 0
    clock = time.perf_counter
    began = clock()
    while True:
        reports = {}
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.current_job = len(times)
            t0 = clock()
            try:
                out = run_job(cli, job.text)
            except Exception as exc:  # the program failed this job: count it, go on
                times.append(clock() - t0)
                failed += 1
                print(f"job {i} ({job.group.name}) raised {exc!r}", file=sys.stderr)
                continue
            times.append(clock() - t0)
            try:
                problems = checks.check(job, out, reports, i)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            if problems:
                failed += 1
                wrong += 1
                print(f"job {i} ({job.group.name}): " + "; ".join(problems), file=sys.stderr)
        if clock() - began >= seconds:
            return times, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classical", "tori", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "pi0real" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'pi0real'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pi0real
    from pi0real import cli, components, intlattice, realform, rootdata

    if Path(pi0real.__file__).resolve().parent != SRC / "pi0real":
        print(f"error: imported pi0real from {pi0real.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    jobs = workloads.build(args.workload, args.seed)
    setup_s = None if args.trace else fresh_import_seconds()
    run_job(cli, jobs[0].text)  # warm-up, untimed

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer({"cli": cli, "rootdata": rootdata, "realform": realform,
                         "components": components, "intlattice": intlattice})
        tracer.install()
    try:
        times, failed, wrong = run_rounds(cli, jobs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        metrics = {
            "jobs_per_s": (len(times) / sum(times), "1/s"),
            "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(len(times))

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    result = {
        "correct": wrong == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=len(times) // len(jobs), jobs_per_round=len(jobs),
                       job_seconds=times), fh)

    print(f"workload {args.workload}, seed {args.seed}: {len(times)} jobs "
          f"({len(times) // len(jobs)} rounds of {len(jobs)}), {failed} failed")
    for k, (v, u) in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
