"""Per-layer tracing of dreg from outside its sources.

The tracer rebinds public functions of each `dreg` module (and a few
methods and private helpers that bound a unit of work) to wrappers that
record a span per call: name, start, end, parent span and request id.
Every module that imported a function by name gets the wrapper too, so
calls are seen whichever module makes them.  Spans stay in memory as
columns and are written out when the run ends.

A layer is a `dreg` module.  `calls` and `busy_s` count only the
outermost span of a name (a recursive call is part of its caller), a
layer's `busy_s` is the time under its outermost spans, and its
`self_s` sums each of its spans' time minus that of the span's children.
Time spent in untraced helpers counts towards the caller's layer.  A
name the program no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "parser", "operators", "regularity", "dmod", "polynomials",
          "linalg", "lattices", "systems", "ideals", "weyl", "polelattice")

# (layer, attribute path) of every traced callable; "Class.method" for methods
TRACED = (
    ("cli", "main"), ("cli", "render_json"),
    ("parser", "parse_operator"), ("parser", "parse_weyl_generators"),
    ("parser", "parse_ratfun"), ("parser", "parse_polynomial"),
    ("parser", "format_operator"),
    ("operators", "to_theta_form"), ("operators", "chart_infinity"),
    ("operators", "chart_translate"),
    ("regularity", "fuchs_regular_at"), ("regularity", "newton_polygon"),
    ("regularity", "regular_on_projective_line"),
    ("regularity", "theta_regular_at_zero"),
    ("dmod", "fuchs_kashiwara_equivalence"), ("dmod", "kashiwara_regular_at"),
    ("dmod", "decompose_symbol_ideal"), ("dmod", "is_holonomic"),
    ("dmod", "bernstein_check"),
    ("polynomials", "univar_gcd"), ("polynomials", "factor_rational"),
    ("linalg", "determinant"), ("linalg", "gauss_solve"),
    ("lattices", "LocalLattice._build"), ("lattices", "LocalLattice.contains"),
    ("systems", "cyclic_vector"), ("systems", "saturate_lattice"),
    ("systems", "regular_system_report"),
    ("ideals", "groebner_basis"), ("ideals", "_reduce_basis"),
    ("ideals", "normal_form"), ("ideals", "krull_dimension"),
    ("ideals", "radical_membership"),
    ("weyl", "weyl_groebner"), ("weyl", "_reduce_weyl_basis"),
    ("weyl", "weyl_normal_form"), ("weyl", "weyl_mul"),
    ("weyl", "characteristic_ideal"),
    ("polelattice", "pole_filtration_annihilator"), ("polelattice", "goodness_scan"),
    ("polelattice", "prop21_inclusion"), ("polelattice", "theorem_forward_filtration"),
    ("polelattice", "LogLattice.apply_derivation"),
    ("polelattice", "LogLattice.apply_symbol_monomial"),
)

# span names reported under another name
ALIASES = {"lattices.LocalLattice._build": "lattices.build",
           "lattices.LocalLattice.contains": "lattices.contains",
           "polelattice.LogLattice.apply_derivation": "polelattice.apply_derivation",
           "polelattice.LogLattice.apply_symbol_monomial": "polelattice.apply_symbol_monomial"}


def coeff_bits(fractions) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in fractions), default=0)


class Tracer:
    """Span store plus the rebinding that feeds it."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_outer = array("b")       # no ancestor of the same name
        self.span_layer_outer = array("b")  # no ancestor of the same layer
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.layer_depth: Counter = Counter()
        self.request = -1
        self.ratfun_built: Counter = Counter()      # request id -> RatFun constructions
        # results kept for reading once the request has ended
        self.pending: list[tuple] = []
        # request id -> name -> counts read from results
        self.outcomes: dict[int, dict[str, Counter]] = defaultdict(lambda: defaultdict(Counter))
        self.restore: list[tuple] = []
        self.missing: list[str] = []

    # -- recording --------------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        layer = self.name_layer[nid]
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_request.append(self.request)
        self.span_outer.append(self.depth[nid] == 0)
        self.span_layer_outer.append(self.layer_depth[layer] == 0)
        self.span_end.append(0.0)
        self.depth[nid] += 1
        self.layer_depth[layer] += 1
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        nid = self.span_name[idx]
        self.depth[nid] -= 1
        self.layer_depth[self.name_layer[nid]] -= 1
        self.stack.pop()

    def _wrap(self, nid: int, fn, keep=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if keep is not None:
                tracer.pending.append((keep, idx, args, result))
            return result

        return traced

    # -- installing -----------------------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced callable; names the program no longer has are listed in `missing`."""
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        importers = [self.package] + list(modules.values())
        for layer, path in TRACED:
            name = f"{layer}.{path}"
            nid = self._name_id(ALIASES.get(name, name), layer)
            keep = KEEP.get(ALIASES.get(name, name))
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(modules[layer], owner_name, None) if owner_name else modules[layer]
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(nid, fn, keep)
            if owner_name:                      # a method: the class is the one binding
                self.restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in importers:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self.restore.append((mod, binding, fn))
                        setattr(mod, binding, wrapper)
        ratfun = self.package.polynomials.RatFun
        init = ratfun.__init__
        built = self.ratfun_built

        def counted_init(self_, *args, **kwargs):
            built[self.request] += 1
            init(self_, *args, **kwargs)

        self.restore.append((ratfun, "__init__", init))
        ratfun.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.restore):
            setattr(owner, attr, value)
        self.restore.clear()

    # -- per request ----------------------------------------------------------------------

    def end_request(self) -> None:
        """Read the results kept during the request, outside every span."""
        outcomes = self.outcomes[self.request]
        seen: dict[str, set] = defaultdict(set)
        for keep, idx, args, result in self.pending:
            keep(self, outcomes, idx, args, result, seen)
        for name, keys in seen.items():
            outcomes[name]["distinct"] += len(keys)
        self.pending.clear()

    def write(self, path) -> None:
        columns = {"names": self.names,
                   "layers": [LAYERS[i] for i in self.name_layer],
                   "name": self.span_name.tolist(),
                   "start": self.span_start.tolist(),
                   "end": self.span_end.tolist(),
                   "parent": self.span_parent.tolist(),
                   "request": self.span_request.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(columns, fh)

    # -- aggregation ----------------------------------------------------------------------

    def metrics(self, requests: range) -> dict:
        """Every per-layer number over the spans of the given request ids."""
        names = self.names
        spans = [i for i in range(len(self.span_name)) if self.span_request[i] in requests]
        child_time: dict[int, float] = defaultdict(float)
        for i in spans:
            if self.span_parent[i] >= 0:
                child_time[self.span_parent[i]] += self.span_end[i] - self.span_start[i]
        out: dict[str, float] = defaultdict(int)
        for name in names:
            out[f"{name}.calls"] = out[f"{name}.busy_s"] = 0
        for layer in LAYERS:
            out[f"{layer}.calls"] = out[f"{layer}.busy_s"] = out[f"{layer}.self_s"] = 0
        cyc_requests = set()
        for i in spans:
            nid = self.span_name[i]
            name, layer = names[nid], LAYERS[self.name_layer[nid]]
            dur = self.span_end[i] - self.span_start[i]
            if self.span_outer[i]:
                out[f"{name}.calls"] += 1
                out[f"{name}.busy_s"] += dur
            if self.span_layer_outer[i]:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.busy_s"] += dur
            out[f"{layer}.self_s"] += dur - child_time.get(i, 0.0)
            if name == "systems.cyclic_vector":
                cyc_requests.add(self.span_request[i])
        oc: dict[str, Counter] = defaultdict(Counter)
        peak = 0
        for r in requests:
            for name, counts in self.outcomes.get(r, {}).items():
                if name == "peak_coeff_bits":
                    peak = max(peak, counts["bits"])
                else:
                    oc[name].update(counts)
        out["cli.requests"] = out["cli.main.calls"]
        out["polynomials.ratfun_built"] = sum(self.ratfun_built[r] for r in requests)
        out["polynomials.peak_coeff_bits"] = peak
        out["dmod.agree_ratio"] = _ratio(oc["dmod.fuchs_kashiwara_equivalence"], "agree")
        out["lattices.contains.true_ratio"] = _ratio(oc["lattices.contains"], "true")
        sat = oc["systems.saturate_lattice"]
        out["systems.saturate_lattice.steps"] = sat["steps"]
        out["systems.saturate_lattice.exceeded_ratio"] = _ratio(sat, "exceeded")
        out["systems.cyclic_vector.per_request"] = (
            out["systems.cyclic_vector.calls"] / len(cyc_requests) if cyc_requests else 0.0)
        for name in ("ideals.groebner_basis", "weyl.weyl_groebner"):
            out[f"{name}.distinct_ratio"] = _ratio(oc[name], "distinct")
        for name in ("ideals.normal_form", "weyl.weyl_normal_form"):
            out[f"{name}.nonzero_ratio"] = _ratio(oc[name], "nonzero")
        return dict(out)


def _ratio(counts: Counter, key: str) -> float:
    return counts[key] / counts["n"] if counts["n"] else 0.0


# -- reading results ------------------------------------------------------------------------
# Each reader gets (tracer, outcomes of the request, span, call args, result, seen).
# polynomials.peak_coeff_bits is the widest numerator or denominator in a
# built lattice, a returned basis or an element a Buchberger loop adds.


def _agree(tracer, outcomes, idx, args, result, seen):
    c = outcomes["dmod.fuchs_kashiwara_equivalence"]
    c["n"] += 1
    c["agree"] += result.agree


def _contains(tracer, outcomes, idx, args, result, seen):
    c = outcomes["lattices.contains"]
    c["n"] += 1
    c["true"] += result


def _saturation(tracer, outcomes, idx, args, result, seen):
    if not tracer.span_outer[idx]:
        return                      # the recursive call for a moved point
    c = outcomes["systems.saturate_lattice"]
    c["n"] += 1
    c["steps"] += result.steps
    c["exceeded"] += result.status == "exceeded_bound"


def _peak(outcomes, fractions) -> None:
    c = outcomes["peak_coeff_bits"]
    c["bits"] = max(c["bits"], coeff_bits(fractions))


def _lattice(tracer, outcomes, idx, args, result, seen):
    _peak(outcomes, (c for _, col in args[0].pivots for f in col
                     for part in (f.num, f.den) for c in part.terms.values()))


def _groebner(tracer, outcomes, idx, args, result, seen):
    if not tracer.span_outer[idx]:
        return
    name = tracer.names[tracer.span_name[idx]]
    if name == "ideals.groebner_basis":
        ideal = args[0]
        key = (ideal.vars, frozenset(ideal.gens), args[1] if len(args) > 1 else None)
    else:
        key = frozenset(args[0])
    outcomes[name]["n"] += 1
    seen[name].add(key)
    _peak(outcomes, (c for g in result for c in g.terms.values()))


def _normal_form(tracer, outcomes, idx, args, result, seen):
    # an S-pair reduction is a normal form taken directly by the Buchberger
    # loop; the final inter-reduction runs under _reduce_basis / _reduce_weyl_basis
    name = tracer.names[tracer.span_name[idx]]
    loop = "ideals.groebner_basis" if name == "ideals.normal_form" else "weyl.weyl_groebner"
    parent = tracer.span_parent[idx]
    if parent < 0 or tracer.names[tracer.span_name[parent]] != loop:
        return
    c = outcomes[name]
    c["n"] += 1
    if not result.is_zero():
        c["nonzero"] += 1
        _peak(outcomes, result.terms.values())   # the element joins the basis


KEEP = {"dmod.fuchs_kashiwara_equivalence": _agree,
        "lattices.contains": _contains,
        "lattices.build": _lattice,
        "systems.saturate_lattice": _saturation,
        "ideals.groebner_basis": _groebner,
        "weyl.weyl_groebner": _groebner,
        "ideals.normal_form": _normal_form,
        "weyl.weyl_normal_form": _normal_form}
