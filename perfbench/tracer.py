"""Outside-in span tracer for the supercoh benchmark.

`Tracer.install` replaces the public functions of the library's layer
modules (and a few hot public methods) by timing wrappers.  Every wrapped
call records a span: name, start, end, parent span and unit id.  Spans stay
in memory and are written out when the pass ends.

Self time is a span's duration minus the full cost of its child calls,
wrapper bookkeeping included, so the tracer's own overhead lands in no
layer's self time and the self times of one unit sum to at most its wall
time.  Peak-RSS growth is attributed to the layer of the innermost span
that is open when `ru_maxrss` is seen to rise.

Nothing in `src/` is changed: names are rebound in every `supercoh` module
and class that holds the original function object, because `sixterm`,
`extensions` and the package itself import names with `from .x import y`.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
import weakref

LAYERS = ("algfile", "superalg", "envelope", "cohomology", "gflin",
          "extensions", "sixterm")

# public methods traced in addition to every public module-level function
METHODS = (
    ("envelope", "UAlgebra", "__init__"),
    ("envelope", "UAlgebra", "monomial_product"),
    ("gflin", "MatGF", "matvec"),
    ("cohomology", "CohomologyResult", "class_coords"),
)

# reported names where the library name is not the one the benchmark uses;
# `UAlgebra._normalize` recurses once per rewrite step and stays unwrapped
ALIASES = {
    "sixterm.map_h1res_to_h1": "sixterm.i1",
    "sixterm.map_h1_to_semilinear": "sixterm.psibar",
    "sixterm.map_semilinear_to_h2res": "sixterm.fg",
    "sixterm.map_h2res_to_h2": "sixterm.pi",
    "sixterm.map_h2_to_semilinear_h1": "sixterm.phi",
    "sixterm.build_six_term": "sixterm.verdicts",
    "envelope.UAlgebra.__init__": "envelope.UAlgebra",
    "envelope.UAlgebra.monomial_product": "envelope.monomial_product",
    "gflin.MatGF.matvec": "gflin.matvec",
    "cohomology.CohomologyResult.class_coords": "cohomology.class_coords",
}

# spans kept per name; later calls of that name are only aggregated
SPAN_CAP = 20000

SETUP_UNIT = -1

_RAISED = object()


def maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Stat:
    """Aggregate of every call of one traced name."""

    __slots__ = ("layer", "calls", "self_ns", "extra")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.self_ns = 0
        self.extra = {}


class Tracer:
    def __init__(self):
        self.unit = SETUP_UNIT
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, unit, self_ns)
        self.stats = {}
        self.unit_self_ns = {}
        self.negative_self = 0
        self.rss_growth_kb = {layer: 0 for layer in LAYERS}
        self.rss_growth_kb[None] = 0
        self._stack = []  # frames [child_ns, span_id, layer]
        self._next_id = 0
        self._last_rss = maxrss_kb()
        self._originals = {}

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every public function of the layer modules of `package`."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"]
                   for name in LAYERS}
        targets = []
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets.append((layer, f"{layer}.{attr}", obj))
        for layer, cls, meth in METHODS:
            obj = vars(getattr(modules[layer], cls))[meth]
            targets.append((layer, f"{layer}.{cls}.{meth}", obj))
        replace = {}
        for layer, name, fn in targets:
            name = ALIASES.get(name, name)
            replace[id(fn)] = (fn, self._wrap(layer, name, fn))
            self._originals[name] = fn
        for holder in self._holders(package):
            for attr, obj in list(vars(holder).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(holder, attr, hit[1])
        leftover = self.unbound_originals(package)
        if leftover:
            raise RuntimeError(f"original functions still bound: {leftover}")

    @staticmethod
    def _holders(package):
        """Every supercoh module and every class defined in one."""
        prefix = package.__name__
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]
        out = list(mods)
        for m in mods:
            for obj in vars(m).values():
                if inspect.isclass(obj) and obj.__module__.startswith(prefix):
                    out.append(obj)
        return out

    def unbound_originals(self, package):
        """Places where an unwrapped original is still reachable by name."""
        orig = {id(fn): name for name, fn in self._originals.items()}
        found = []
        for holder in self._holders(package):
            for attr, obj in vars(holder).items():
                if id(obj) in orig and self._originals[orig[id(obj)]] is obj:
                    found.append(f"{getattr(holder, '__name__', holder)}.{attr}")
        return sorted(set(found))

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, layer, name, fn):
        stat = self.stats[name] = Stat(layer)
        probe = _PROBES.get(name)
        if probe is not None:
            probe = probe(stat, inspect.signature(fn))
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            tracer._rss_event(stack[-1][2] if stack else None)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, sid, layer]
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                self_ns = end - start - frame[0]
                stat.calls += 1
                stat.self_ns += self_ns
                if self_ns < 0:
                    tracer.negative_self += 1
                unit = tracer.unit
                tracer.unit_self_ns[unit] = tracer.unit_self_ns.get(unit, 0) + self_ns
                if stat.calls <= SPAN_CAP:
                    tracer.spans.append((sid, name, start, end, parent, unit, self_ns))
                if probe is not None and result is not _RAISED:
                    probe(args, kwargs, result)
                tracer._rss_event(layer)
                # the parent is charged the whole call, bookkeeping included,
                # so tracing overhead is in no span's self time
                if stack:
                    stack[-1][0] += clock() - t_in

        return traced

    def _rss_event(self, layer):
        rss = maxrss_kb()
        if rss != self._last_rss:
            self.rss_growth_kb[layer] += rss - self._last_rss
            self._last_rss = rss

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metric values, by the names `BENCHMARK.json` lists."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_ns / 1e9
            out.update((f"{name}.{k}", v) for k, v in st.extra.items()
                       if not k.startswith("_"))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(st.self_ns for st in self.stats.values()
                                         if st.layer == layer) / 1e9
            out[f"{layer}.rss_growth_mb"] = self.rss_growth_kb[layer] / 1024
        adm = self.stats["cohomology.assoc_differential_matrix"]
        out["cohomology.bar_build_ratio"] = (
            len(adm.extra["_keys"]) / adm.calls if adm.calls else 1.0)
        mp = self.stats["envelope.monomial_product"]
        out["envelope.monomial_product.repeat_ratio"] = (
            mp.extra["_repeats"] / mp.calls if mp.calls else 0.0)
        out["envelope.UAlgebra.count"] = self.stats["envelope.UAlgebra"].calls
        return out

    def self_check(self, unit_wall_ns):
        """The invariants every trace must meet; returns a list of breaches."""
        bad = []
        if self.negative_self:
            bad.append(f"{self.negative_self} calls with negative self time")
        if self._stack:
            bad.append("spans left open")
        for unit, wall in unit_wall_ns.items():
            got = self.unit_self_ns.get(unit, 0)
            if got > wall:
                bad.append(f"unit {unit}: self times {got} ns > wall {wall} ns")
        return bad

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, unit, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "unit": unit, "self_ns": self_ns}) + "\n")
            dropped = {n: st.calls - SPAN_CAP for n, st in self.stats.items()
                       if st.calls > SPAN_CAP}
            fh.write(json.dumps({"aggregated_only_calls": dropped}) + "\n")


# -- probes: counts taken from a traced call's arguments and result ---------

def _probe_bar_matrix(stat, sig):
    stat.extra.update(rows=0, nnz=0, _keys={})

    def probe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        g, rep = bound["ualg"].g, bound["rep"]
        # the value keeps g and rep alive, so that their ids are never reused
        stat.extra["_keys"][(id(g), id(rep), bound["n"])] = (g, rep)
        stat.extra["rows"] += result.rows
        stat.extra["nnz"] += result.nnz
    return probe


def _probe_monomial_product(stat, sig):
    stat.extra.update(_repeats=0)
    seen = weakref.WeakKeyDictionary()

    def probe(args, kwargs, result):
        ualg, ma, mb = args
        keys = seen.get(ualg)
        if keys is None:
            keys = seen[ualg] = set()
        if (ma, mb) in keys:
            stat.extra["_repeats"] += 1
        else:
            keys.add((ma, mb))
    return probe


def _probe_nullspace(stat, sig):
    stat.extra.update(rows_in=0, max_cols=0)

    def probe(args, kwargs, result):
        m = sig.bind(*args, **kwargs).arguments["m"]
        stat.extra["rows_in"] += m.rows
        stat.extra["max_cols"] = max(stat.extra["max_cols"], m.cols)
    return probe


_PROBES = {
    "cohomology.assoc_differential_matrix": _probe_bar_matrix,
    "envelope.monomial_product": _probe_monomial_product,
    "gflin.nullspace": _probe_nullspace,
}
