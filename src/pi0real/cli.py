"""Command-line front end.

Two subcommands: ``compute`` reads a JSON job specification from a file,
``preset`` names one of the built-in groups directly.  Both run the same
pipeline: build the root datum and involution, compute the component group,
optionally the Galois cohomology group and the brute-force oracle, then
render a text or JSON report.

Exit codes: 0 on success, 1 for invalid input of any kind, 2 when an
internal consistency check or the oracle fails (which would mean a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .components import (
    ComputationError,
    Elementary2Group,
    h1_pi1,
    oracle_check,
    pi0,
    representative,
    representatives,
)
from .intlattice import COSET_BOUND, BoundExceeded
from .realform import (
    PRESET_FIELDS,
    PRESETS,
    Involution,
    build_preset,
    involution_from_eigenspaces,
    involution_from_matrix,
)
from .rootdata import RootDatum, _brief

ORACLE_BOUND_ENV = "PI0_ORACLE_BOUND"

# past this many components the report lists only the generators themselves
MAX_LISTED_COMPONENTS = 128


@dataclass(frozen=True)
class OutputFlags:
    pi0: bool = True
    h1: bool = False
    representatives: bool = True
    oracle: bool = False


@dataclass(frozen=True)
class JobSpec:
    involution: Involution
    outputs: OutputFlags
    fmt: str


# ---------------------------------------------------------------------------
# job parsing

def _fraction(x, where: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(
            f"{where}: expected an integer or a fraction string like '1/2', "
            f"got {_brief(repr(x))}"
        )
    if isinstance(x, str) and ("e" in x or "E" in x):
        # Fraction would expand "1e10000000" into a ten-million-digit integer
        raise ValueError(f"{where}: exponent notation is refused, got {_brief(repr(x))}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        # the message of Fraction's error quotes x in full
        raise ValueError(f"{where}: {_brief(str(exc))}") from exc


def _vector(row, length: int, where: str) -> tuple:
    """row as a tuple: an all-int row as it is, any other one all Fractions."""
    if not isinstance(row, list) or len(row) != length:
        raise ValueError(
            f"{where}: expected a list of {length} entries, got {_brief(repr(row))}"
        )
    if all(type(x) is int for x in row):
        return tuple(row)
    return tuple(_fraction(x, where) for x in row)


def _int_vector(row, length: int, where: str) -> tuple[int, ...]:
    vec = _vector(row, length, where)
    if vec and type(vec[0]) is Fraction:
        if any(x.denominator != 1 for x in vec):
            raise ValueError(f"{where}: entries must be integers, got {_brief(repr(row))}")
        return tuple(int(x) for x in vec)
    return vec


def _matrix(rows, n: int, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f"{where}: expected {n} rows")
    return tuple(_int_vector(r, n, f"{where} row {i}") for i, r in enumerate(rows))


_PRESET_JOB_FIELDS = {"preset", *PRESET_FIELDS}
# the inline fields that hold lists, and what each list holds
_LIST_FIELDS = {
    "coroots": "coroot rows",
    "split_span": "vectors",
    "compact_span": "vectors",
    "display_weights": "[label, vector] pairs",
    "named_vectors": "[name, vector] pairs",
}
_INLINE_FIELDS = {"rank", "theta", "name", *_LIST_FIELDS}
_COMMON_FIELDS = {"outputs", "format"}
_OUTPUT_KEYS = {"pi0", "h1", "representatives", "oracle_check"}


def _parse_outputs(doc: dict) -> OutputFlags:
    raw = doc.get("outputs", {})
    if not isinstance(raw, dict):
        raise ValueError("'outputs' must be an object of booleans")
    unknown = set(raw) - _OUTPUT_KEYS
    if unknown:
        raise ValueError(f"unknown output flags: {_brief(str(sorted(unknown)))}")
    for key, val in raw.items():
        if not isinstance(val, bool):
            raise ValueError(f"output flag {key!r} must be true or false")
    return OutputFlags(
        pi0=raw.get("pi0", True),
        h1=raw.get("h1", False),
        representatives=raw.get("representatives", True),
        oracle=raw.get("oracle_check", False),
    )


# "json-like" and "structured" are accepted aliases for the JSON renderer
_FORMAT_ALIASES = {"text": "text", "json": "json", "json-like": "json", "structured": "json"}


def _parse_format(doc: dict) -> str:
    fmt = doc.get("format", "text")
    if not isinstance(fmt, str) or fmt not in _FORMAT_ALIASES:
        raise ValueError(f"format must be 'text' or 'json', got {_brief(repr(fmt))}")
    return _FORMAT_ALIASES[fmt]


def _preset_job(doc: dict) -> Involution:
    unknown = set(doc) - _PRESET_JOB_FIELDS - _COMMON_FIELDS
    if unknown:
        raise ValueError(f"unknown fields in preset job: {_brief(str(sorted(unknown)))}")
    fields = {k: v for k, v in doc.items() if k in PRESET_FIELDS}
    return build_preset(str(doc["preset"]), **fields)


def _inline_job(doc: dict) -> Involution:
    unknown = set(doc) - _INLINE_FIELDS - _COMMON_FIELDS
    if unknown:
        raise ValueError(f"unknown fields in job: {_brief(str(sorted(unknown)))}")
    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise ValueError("'rank' must be a nonnegative integer")
    for key, items in _LIST_FIELDS.items():
        # only coroots is required
        if not isinstance(doc.get(key, None if key == "coroots" else []), list):
            raise ValueError(f"{key!r} must be a list of {items} (possibly empty)")

    # an insertion-ordered dict dedupes the +- pairs in linear time; with
    # _int_vector's checks it leaves a zero coroot as the one invalid case
    gens: dict[tuple[int, ...], None] = {}
    for i, row in enumerate(doc["coroots"]):
        v = _int_vector(row, rank, f"coroot {i}")
        gens[v] = None
        gens[tuple(-x for x in v)] = None
    zero = (0,) * rank
    if zero in gens:
        raise ValueError(f"invalid root datum: coroot {_brief(str(zero))} is zero")

    weights = []
    for i, pair in enumerate(doc.get("display_weights", [])):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise ValueError(f"display weight {i}: expected [label, vector]")
        w = _vector(pair[1], rank, f"display weight {i}")
        if w and type(w[0]) is Fraction:
            w = tuple(int(x) if x.denominator == 1 else x for x in w)
        weights.append((pair[0], w))

    named = []
    for i, pair in enumerate(doc.get("named_vectors", [])):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise ValueError(f"named vector {i}: expected [name, vector]")
        named.append((pair[0], _int_vector(pair[1], rank, f"named vector {i}")))

    rd = RootDatum(
        rank=rank,
        coroot_generators=tuple(gens),
        display_weights=tuple(weights),
        named_vectors=tuple(named),
        name=str(doc.get("name", "custom datum")),
    )
    has_theta = "theta" in doc
    has_spans = "split_span" in doc or "compact_span" in doc
    if has_theta == has_spans:
        raise ValueError(
            "provide exactly one of 'theta' or 'split_span'/'compact_span'"
        )
    if has_theta:
        return involution_from_matrix(rd, _matrix(doc["theta"], rank, "theta"), name=rd.name)
    split = [
        _vector(r, rank, f"split_span {i}")
        for i, r in enumerate(doc.get("split_span", []))
    ]
    compact = [
        _vector(r, rank, f"compact_span {i}")
        for i, r in enumerate(doc.get("compact_span", []))
    ]
    return involution_from_eigenspaces(rd, split, compact, name=rd.name)


def parse_jobspec(doc) -> JobSpec:
    """Validate a JSON job document and build the objects it describes."""
    if not isinstance(doc, dict):
        raise ValueError("job specification must be a JSON object")
    if "preset" in doc:
        inv = _preset_job(doc)
    elif "rank" in doc:
        inv = _inline_job(doc)
    else:
        raise ValueError("job must contain either 'preset' or inline 'rank' data")
    return JobSpec(
        involution=inv,
        outputs=_parse_outputs(doc),
        fmt=_parse_format(doc),
    )


# ---------------------------------------------------------------------------
# running a job


def _oracle_bound() -> int:
    raw = os.environ.get(ORACLE_BOUND_ENV)
    if raw is None:
        return COSET_BOUND
    try:
        bound = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ORACLE_BOUND_ENV} must be an integer, got {raw!r}") from exc
    if bound < 1:
        raise ValueError(f"{ORACLE_BOUND_ENV} must be positive")
    return bound


def _oracle_verdict(groups: list[Elementary2Group]) -> str:
    """The oracle's verdict: "skipped", before any walk, when a group's
    order is past the bound; otherwise each distinct quotient is walked
    once, and every group's rank is compared with the factors its
    quotient's walk found."""
    bound = _oracle_bound()
    if any(g.order > bound for g in groups):
        return "skipped"
    walked = {}  # (sub, sup) of each quotient walked -> the rank its walk confirmed
    for g in groups:
        key = (g.sub, g.sup)
        if key not in walked:
            try:
                walked[key] = g.rank if oracle_check(g, bound=bound) else None
            except BoundExceeded:
                # the walk found more cosets than the claimed order <= bound
                walked[key] = None
        if walked[key] != g.rank:
            raise ComputationError(
                "brute-force oracle disagrees with the mod-2 rank computation"
            )
    return "agree"


def run(job: JobSpec) -> dict:
    """Execute a job and return the report as a plain dict with fixed key order."""
    group = pi0(job.involution)
    reps = []
    if job.outputs.representatives:
        if group.order > MAX_LISTED_COMPONENTS:
            listed = [representative(job.involution, nu) for nu in group.generators]
        else:
            listed = representatives(job.involution, group)
        reps = [
            {"nu": list(r.nu), "evaluations": list(map(list, r.evaluations)), "note": r.note}
            for r in listed
        ]
    h1_order = None
    checked: list[Elementary2Group] = []
    if job.outputs.h1 or job.outputs.oracle:
        h = h1_pi1(job.involution, group)
        if job.outputs.h1:
            h1_order = h.order
        checked = [group, h]
    verdict = _oracle_verdict(checked) if job.outputs.oracle else None
    return {
        "order": group.order,
        "rank": group.rank,
        "generators": [list(v) for v in group.generators],
        "representatives": reps,
        "h1_order": h1_order,
        "oracle": verdict,
        "_names": group.generator_names,  # stripped before serialization
    }


# ---------------------------------------------------------------------------
# rendering


def _json_text(x, pad: str = "") -> str:
    """x as json.dumps(x, indent=2) writes it, nested at indentation pad: one
    pass over nonempty lists and str-keyed dicts, str, int and None, and
    json.dumps for any other value, such as a bool.  A list writes its int
    and str items in place."""
    if type(x) is str:
        return encode_basestring_ascii(x)
    if type(x) is int:
        return repr(x)
    if x is None:
        return "null"
    if not x or not isinstance(x, (list, tuple, dict)):
        return json.dumps(x)
    inner = pad + "  "
    if isinstance(x, dict):
        ends = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in x.items()]
    else:
        ends = "[]"
        items = []
        for v in x:
            t = type(v)
            if t is int:
                items.append(repr(v))
            elif t is str:
                items.append(encode_basestring_ascii(v))
            else:
                items.append(_json_text(v, inner))
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def render_json(report: dict) -> str:
    """The report without its "_" keys, as json.dumps(..., indent=2) writes it."""
    return _json_text({k: v for k, v in report.items() if not k.startswith("_")})


def _vec_str(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def render_text(report: dict, job: JobSpec) -> str:
    inv = job.involution
    rd = inv.datum
    lines = []
    header = rd.name or "unnamed datum"
    if inv.name and inv.name != rd.name:
        header += f", involution {inv.name}"
    lines.append(f"group: {header}")
    if report["order"] == 1:
        lines.append("pi0 order 1 (connected)")
    else:
        lines.append(f"pi0 order {report['order']} (rank {report['rank']})")

    names = report["_names"]
    if job.outputs.pi0 and report["generators"]:
        lines.append("")
        width = max(len(nm or "-") for nm in names)
        width = max(width, len("generator"))
        lines.append(f"  {'generator':<{width}}  vector")
        for nm, v in zip(names, report["generators"]):
            lines.append(f"  {nm or '-':<{width}}  {_vec_str(v)}")

    reps = report["representatives"]
    if job.outputs.representatives and reps:
        lines.append("")
        tags = [f"t{i + 1}" for i in range(len(reps))]
        nus = [_vec_str(r["nu"]) for r in reps]
        widths = (
            max(len(t) for t in tags + ["element"]),
            max(len(s) for s in nus + ["nu"]),
        )
        has_matrix = any(r["evaluations"] for r in reps)
        head = f"  {'element':<{widths[0]}}  {'nu':<{widths[1]}}"
        lines.append((head + "  matrix").rstrip() if has_matrix else head.rstrip())
        sign = "+-" if rd.lift_note else ""
        for tag, nu_s, r in zip(tags, nus, reps):
            row = f"  {tag:<{widths[0]}}  {nu_s:<{widths[1]}}"
            if r["evaluations"]:
                diag = ", ".join(val for _, val in r["evaluations"])
                row += f"  {sign}diag({diag})"
            lines.append(row.rstrip())
        if rd.lift_note:
            lines.append(f"  note: {rd.lift_note}")

    if report["h1_order"] is not None or report["oracle"] is not None:
        lines.append("")
        if report["h1_order"] is not None:
            lines.append(f"h1 order {report['h1_order']}")
        if report["oracle"] is not None:
            lines.append(f"oracle: {report['oracle']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as ValueError (exit code 1)."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pi0", description="component groups of real reductive groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--pi0", action="store_true", help="list pi0 generators")
        p.add_argument("--h1", action="store_true", help="also compute H1 of the fundamental group")
        p.add_argument("--reps", action="store_true", help="list component representatives")
        p.add_argument("--oracle", action="store_true", help="cross-check with brute-force coset enumeration")
        p.add_argument("--format", choices=tuple(_FORMAT_ALIASES), default=None)

    comp = sub.add_parser("compute", help="run a JSON job specification")
    comp.add_argument("spec_file", help="path to the JSON job file, or '-' for stdin")
    add_output_flags(comp)

    pre = sub.add_parser("preset", help="run a built-in group")
    *families, last = PRESETS
    pre.add_argument("name", help=", ".join(families) + f", or {last}")
    pre.add_argument("--n", type=int, help="size parameter for GL and the tori")
    pre.add_argument("--p", type=int, help="signature for SO/PSO")
    pre.add_argument("--q", type=int, help="signature for SO/PSO")
    pre.add_argument("--form", help="E7 real form: EV, EVI, or EVII")
    pre.add_argument("--type", help="Cartan type A..G for SIMPLE")
    pre.add_argument("--rank", type=int, help="rank for SIMPLE")
    pre.add_argument("--isogeny", help="sc (default) or adj for SIMPLE")
    pre.add_argument("--real", help="split (default) or compact for SIMPLE")
    add_output_flags(pre)
    return parser


def _doc_from_args(args) -> dict:
    if args.command == "compute":
        if args.spec_file == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("job specification is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError("job specification must be a JSON object")
    else:
        # every flag given goes into the job, so unused ones are rejected there
        doc = {"preset": args.name}
        for key in PRESET_FIELDS:
            val = getattr(args, key)
            if val is not None:
                doc[key] = val

    # command-line flags override the document's output selection
    if args.pi0 or args.h1 or args.reps or args.oracle:
        doc["outputs"] = {
            "pi0": args.pi0,
            "h1": args.h1,
            "representatives": args.reps,
            "oracle_check": args.oracle,
        }
    if args.format is not None:
        doc["format"] = args.format
    return doc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        job = parse_jobspec(_doc_from_args(args))
        report = run(job)
        if job.fmt == "json":
            print(render_json(report))
        else:
            print(render_text(report, job))
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
