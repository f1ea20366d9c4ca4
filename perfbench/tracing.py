"""Span tracing of the program's layers, from outside the program.

:class:`Tracer` replaces every public function of the five layer modules
(and the public methods of their public classes, plus the ``Lattice``
constructor, which canonicalizes through HNF) with a wrapper that records
a span: name, start, end, parent span and job id.  The replacement is made
in every namespace that holds the function, so calls that modules import
from one another (``components.reduce_mod`` as well as
``intlattice.reduce_mod``, and the module global ``hnf`` that ``Lattice``
uses) are seen too.

Each wrapper also measures its own bookkeeping, and that cost is taken out
of the parent's self time, so self times stay close to untraced ones.
Spans are kept in flat arrays in memory and written out by :meth:`dump`.
"""

from __future__ import annotations

import gzip
import json
import time
import types
from array import array
from fractions import Fraction

LAYERS = ("cli", "rootdata", "realform", "components", "intlattice")


def max_bits(obj) -> int:
    """Largest bit length of any integer inside obj (numerators and
    denominators of fractions, lattice bases and denominators)."""
    best = 0
    stack = [obj]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is int:
            best = max(best, x.bit_length())
        elif t is Fraction:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
        elif t is tuple or t is list:
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__") and not isinstance(x, type):
            stack.extend(getattr(x, f) for f in x.__dataclass_fields__)
    return best


class Tracer:
    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.cost = array("q")
        self.job = array("q")
        self.stack = [-1]
        self.current_job = -1
        self.hnf_rows = 0
        self.max_coeff_bits = 0
        self.generators_returned = 0
        self.cosets = 0
        self.split_pairs: set[tuple[int, int, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installing the wrappers ------------------------------------------

    def _wrap(self, fn, qualname: str, layer: str):
        nid = self.name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        hook = self._hook_for(qualname, layer)
        clock = time.perf_counter_ns
        name, parent, start, end, cost, job = (
            self.name, self.parent, self.start, self.end, self.cost, self.job)
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1])
            job.append(tracer.current_job)
            start.append(0)
            end.append(0)
            cost.append(0)
            stack.append(sid)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                start[sid] = t1
                end[sid] = t2
                cost[sid] = t1 - t0
            if hook is not None:
                hook(args, kwargs, result)
            cost[sid] += clock() - t2
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hook_for(self, qualname: str, layer: str):
        tracer = self
        counted = None
        if qualname == "intlattice.hnf":
            def counted(args, kwargs, result):
                tracer.hnf_rows += len(args[0])
        elif qualname in ("components.pi0", "components.h1_pi1"):
            def counted(args, kwargs, result):
                tracer.generators_returned += len(result.generators)
        elif qualname == "components.split_lattices":
            def counted(args, kwargs, result):
                tracer.split_pairs.add((tracer.current_job, id(args[0]), id(args[1])))
        elif qualname == "intlattice.brute_force_quotient":
            def counted(args, kwargs, result):
                tracer.cosets += result.order
        if layer != "intlattice":
            return counted

        def bits(args, kwargs, result):
            if counted is not None:
                counted(args, kwargs, result)
            b = max(max_bits(args), max_bits(tuple(kwargs.values())), max_bits(result))
            if b > tracer.max_coeff_bits:
                tracer.max_coeff_bits = b
        return bits

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        by_module = {m.__name__: layer for layer, m in self.modules.items()}
        wrapped: dict[int, object] = {}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ in by_module:
                    layer = by_module[obj.__module__]
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                    self._patch(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, by_module[mod.__name__])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_")
            qual = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__" and "__post_init__" in vars(cls):
                self._patch(cls, attr, self._wrap(obj, f"{layer}.{cls.__name__}", layer))
            elif public and isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self._wrap(obj, qual, layer))
            elif public and isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(obj.__func__, qual, layer)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reading the spans ------------------------------------------------

    def _self_and_net(self):
        """Self time of each span and its inclusive time net of wrapper costs."""
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                own[p] -= dur[s] + self.cost[s]
        net = list(own)
        for s in range(n - 1, -1, -1):
            p = self.parent[s]
            if p >= 0:
                net[p] += net[s]
        return own, net

    def _outermost(self, names: set[str]) -> list[int]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        ids = {self.name_ids[q] for q in names}
        inside = bytearray(len(self.name))
        out = []
        for s, (nid, p) in enumerate(zip(self.name, self.parent)):
            above = p >= 0 and inside[p]
            if nid in ids:
                inside[s] = 1
                if not above:
                    out.append(s)
            elif above:
                inside[s] = 1
        return out

    def _nearest(self, names: set[str]) -> list[int]:
        """For each span, the nearest ancestor-or-self named in ``names``, or -1."""
        ids = {self.name_ids[q] for q in names}
        near = [-1] * len(self.name)
        for s, (nid, p) in enumerate(zip(self.name, self.parent)):
            near[s] = s if nid in ids else (near[p] if p >= 0 else -1)
        return near

    def metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, per job unless the unit says otherwise."""
        own, net = self._self_and_net()
        ms = 1e-6 / jobs
        ids = self.name_ids
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, t in zip(self.name, own):
            calls[nid] += 1
            self_ns[nid] += t

        def count(qualname):
            return calls[ids[qualname]]

        def stage(names):
            return sum(net[s] for s in self._outermost(names)) * ms

        layer_ns = dict.fromkeys(LAYERS, 0)
        for nid, t in enumerate(self_ns):
            layer_ns[self.names[nid].split(".")[0]] += t
        out = {f"{layer}.self_ms": (t * ms, "ms") for layer, t in layer_ns.items()}

        involution = {"realform.involution_from_matrix", "realform.involution_from_eigenspaces"}
        parse = self._outermost({"cli.parse_jobspec"})
        in_parse = self._nearest({"cli.parse_jobspec"})
        validate = [s for s in self._outermost(involution) if in_parse[s] >= 0]
        out["stage.build_datum_ms"] = (
            (sum(net[s] for s in parse) - sum(net[s] for s in validate)) * ms, "ms")
        out["stage.validate_involution_ms"] = (sum(net[s] for s in validate) * ms, "ms")
        out["stage.split_lattices_ms"] = (stage({"components.split_lattices"}), "ms")
        split_calls = count("components.split_lattices")
        out["components.split_lattices.calls"] = (split_calls / jobs, "count")
        out["components.split_lattices.useful_ratio"] = (
            len(self.split_pairs) / split_calls if split_calls else 0.0, "ratio")
        out["stage.quotient_ms"] = (stage({"intlattice.quotient_structure"}), "ms")
        out["intlattice.quotient_structure.calls"] = (
            count("intlattice.quotient_structure") / jobs, "count")

        # generator choice: pi0/h1_pi1 minus split lattices, lattice sums and
        # intersections and the Smith-form quotient inside them
        groups = {"components.pi0", "components.h1_pi1"}
        carved = {"components.split_lattices", "intlattice.lattice_sum",
                  "intlattice.lattice_intersect", "intlattice.quotient_structure"}
        near = self._nearest(groups | carved)
        group_ids = {ids[x] for x in groups}
        gen_ns = sum(net[s] for s in self._outermost(groups))
        reduce_id = ids["intlattice.reduce_mod"]
        reduce_in_generators = 0
        for s, nid in enumerate(self.name):
            p = self.parent[s]
            up = near[p] if p >= 0 else -1
            if up < 0 or self.name[up] not in group_ids:
                continue
            if nid == reduce_id:
                reduce_in_generators += 1
            if near[s] == s and nid not in group_ids:
                gen_ns -= net[s]
        out["stage.generators_ms"] = (gen_ns * ms, "ms")
        out["components.generators.reduce_per_generator"] = (
            reduce_in_generators / self.generators_returned
            if self.generators_returned else 0.0, "ratio")

        out["stage.representatives_ms"] = (stage({"components.representative"}), "ms")
        out["components.representative.calls"] = (
            count("components.representative") / jobs, "count")
        out["stage.h1_ms"] = (stage({"components.h1_pi1"}), "ms")
        out["stage.oracle_ms"] = (stage({"components.oracle_check"}), "ms")
        out["intlattice.brute_force_quotient.cosets"] = (self.cosets / jobs, "count")
        walk = self._nearest({"intlattice.brute_force_quotient"})
        reduce_in_walk = sum(1 for s, nid in enumerate(self.name)
                             if nid == reduce_id and walk[s] >= 0)
        out["oracle.cosets_per_reduce"] = (
            self.cosets / reduce_in_walk if reduce_in_walk else 0.0, "ratio")
        out["stage.render_ms"] = (stage({"cli.render_text", "cli.render_json"}), "ms")
        out["intlattice.hnf.calls"] = (count("intlattice.hnf") / jobs, "count")
        out["intlattice.hnf.rows"] = (self.hnf_rows / jobs, "count")
        out["intlattice.hnf.self_ms"] = (self_ns[ids["intlattice.hnf"]] * ms, "ms")
        out["intlattice.reduce_mod.calls"] = (count("intlattice.reduce_mod") / jobs, "count")
        out["intlattice.reduce_mod.self_ms"] = (self_ns[reduce_id] * ms, "ms")
        out["intlattice.membership.calls"] = (count("intlattice.membership") / jobs, "count")
        out["intlattice.max_coeff_bits"] = (float(self.max_coeff_bits), "bits")
        return out

    def dump(self, path) -> None:
        """Write every span, as parallel columns, to a gzipped JSON file."""
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start_ns", "end_ns", "wrapper_cost_ns", "job"],
            "spans": [list(self.name), list(self.parent), list(self.start),
                      list(self.end), list(self.cost), list(self.job)],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
