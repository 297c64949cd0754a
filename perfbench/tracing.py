"""Per-layer tracing of cuntzalg from outside the library.

A :class:`Tracer` wraps the public entry points of every library module
(module functions, plus the arithmetic methods of the core classes) and
restores the original attributes when it is uninstalled.  Functions are
patched in every ``cuntzalg`` namespace that binds them by name, so a
call through ``classify.branch`` is traced like one through
``reps.branch``.

Coarse calls (each job, table, branch, verify_car and theorem14_counts)
become spans with a name, start, end and parent.  Every other call is
aggregated per (entry point, parent span): call count, total time and
self time.  Self time is a call's duration minus the time covered by
the traced calls nested inside it; the time a coarse span spends
outside any traced call is charged to its own layer.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("scalars", "words", "algebra", "morphisms", "reps", "fermions",
          "classify", "tables", "exprs", "cli")

# methods wrapped on their class: layer -> class name -> method names
METHODS = {
    "scalars": {"Scalar": ["__add__", "__sub__", "__neg__", "__mul__",
                           "inverse", "__truediv__"]},
    "algebra": {"CuntzPoly": ["__init__", "__add__", "__sub__", "__neg__",
                              "scale", "__mul__", "adjoint", "__pow__",
                              "reduce", "_padded", "is_zero", "__eq__"]},
    "morphisms": {"Morphism": ["__init__", "word_image", "__call__", "then",
                               "__eq__"],
                  "PermEndo": ["__init__"]},
    "fermions": {"CarExpr": ["__add__", "__mul__", "scale", "adjoint"]},
}

# metric key of a class method, where it differs from <layer>.<name>
_METHOD_KEYS = {("PermEndo", "__init__"): "morphisms.perm_endo.new",
                ("CarExpr", "__add__"): "fermions.car_expr.add",
                ("CarExpr", "__mul__"): "fermions.car_expr.mul",
                ("CarExpr", "scale"): "fermions.car_expr.scale",
                ("CarExpr", "adjoint"): "fermions.car_expr.adjoint"}
_DUNDER = {"__init__": "new", "__call__": "call"}

COARSE = {"reps.branch", "fermions.verify_car", "classify.theorem14_counts",
          "tables.classify_table", "tables.verify_theorem14"}

# the per-layer metrics: "<entry point>.calls" counts calls, other names
# are counters kept by the probes below, except these sums of calls
CALL_SUMS = {"scalars.add.calls": ("scalars.add", "scalars.sub"),
             "morphisms.perm_endo.new": ("morphisms.perm_endo.new",),
             "morphisms.lookup.calls": ("morphisms.lookup_morphism",)}
COUNTS = [
    "scalars.mul.calls", "scalars.add.calls", "scalars.inverse.calls",
    "words.check_word.calls", "words.all_words.calls",
    "algebra.new.calls", "algebra.mul.calls", "algebra.mul.pairs",
    "algebra.mul.terms_out", "algebra.add.calls", "algebra.reduce.calls",
    "algebra.reduce.terms_in", "algebra.reduce.terms_out",
    "algebra.is_zero.calls",
    "morphisms.call.calls", "morphisms.call.terms_in",
    "morphisms.word_image.calls", "morphisms.perm_endo.new",
    "morphisms.lookup.calls",
    "reps.branch.calls", "reps.branch.components",
    "reps.act_word_adj.calls", "reps.act_word.calls",
    "reps.uhf_branch.calls", "reps.gp_branch.calls", "reps.act_poly.calls",
    "fermions.car_generator.calls", "fermions.psi_map.calls",
    "fermions.psi_map.terms_out",
    "classify.cascade_unitary.calls", "classify.cascade_unitary.max_terms",
    "classify.uhf_restriction_equal.calls",
    "classify.commutant_witness.calls", "classify.nullspace.calls",
    "classify.nullspace.cells",
    "tables.classify_table.calls", "tables.cells",
    "exprs.parse_expr.calls", "exprs.parse_expr.chars",
    "cli.main.calls", "cli.output_bytes",
    "trace.spans",
]
# share name -> (numerator counter, denominator counter)
SHARES = {"scalars.irrational_share": ("scalars.mul.irrational",
                                       "scalars.mul.calls"),
          "algebra.mul.yield": ("algebra.mul.terms_out", "algebra.mul.pairs")}


# -- probes: extra counts read from a call's arguments and result ----------


def _scalar_mul(c, args, result):
    if args[0].root2 or args[1].root2:
        c["scalars.mul.irrational"] += 1


def _poly_mul(c, args, result):
    c["algebra.mul.pairs"] += len(args[0].terms) * len(args[1].terms)
    c["algebra.mul.terms_out"] += len(result.terms)


def _reduce(c, args, result):
    c["algebra.reduce.terms_in"] += len(args[0].terms)
    c["algebra.reduce.terms_out"] += len(result.terms)


def _morphism_call(c, args, result):
    c["morphisms.call.terms_in"] += len(args[1].terms)


def _branch(c, args, result):
    c["reps.branch.components"] += len(result.components)


def _psi_map(c, args, result):
    c["fermions.psi_map.terms_out"] += len(result.terms)


def _cascade(c, args, result):
    key = "classify.cascade_unitary.max_terms"
    c[key] = max(c[key], len(result.terms))


def _nullspace(c, args, result):
    c["classify.nullspace.cells"] += len(args[0]) * args[1]


def _classify_table(c, args, result):
    c["tables.cells"] += len(result.cells)


def _parse_expr(c, args, result):
    c["exprs.parse_expr.chars"] += len(args[0])


PROBES = {
    "scalars.mul": _scalar_mul,
    "algebra.mul": _poly_mul,
    "algebra.reduce": _reduce,
    "morphisms.call": _morphism_call,
    "reps.branch": _branch,
    "fermions.psi_map": _psi_map,
    "classify.cascade_unitary": _cascade,
    "classify.nullspace": _nullspace,
    "tables.classify_table": _classify_table,
    "exprs.parse_expr": _parse_expr,
}


def _layer_modules():
    return {layer: sys.modules[f"cuntzalg.{layer}"] for layer in LAYERS}


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if name == "cuntzalg" or name.startswith("cuntzalg.")]


class Tracer:
    """Installs timing wrappers into the loaded cuntzalg modules."""

    def __init__(self):
        self.spans = []        # [name, detail, start, end, parent]
        self.stats = {}        # (key, parent span) -> [calls, total, self]
        self.counts = Counter()
        self._stack = []       # child time accumulated per open call
        self._span = None      # innermost open coarse span
        self._patches = []     # (owner, attribute, original value)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; call :meth:`uninstall` to undo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _layer_modules()
        namespaces = _namespaces()
        for layer, module in modules.items():
            for name, fn in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    key = _METHOD_KEYS.get(
                        (cls_name, meth),
                        f"{layer}.{_DUNDER.get(meth, meth.strip('_'))}")
                    self._patch(cls, meth, self._wrap(key, vars(cls)[meth]))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, key, frame, start, parent):
        stack = self._stack
        stack.pop()
        dur = perf_counter() - start
        if stack:
            stack[-1][0] += dur
        rec = self.stats.get((key, parent))
        if rec is None:
            rec = self.stats[(key, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[0]

    def span(self, key, detail, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) as a coarse span named key."""
        frame = self._enter()
        start = perf_counter()
        parent = self._span
        self._span = len(self.spans)
        self.spans.append([key, detail, start, None, parent])
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[self._span][3] = perf_counter()
            self._span = parent
            self._leave(key, frame, start, parent)

    def _wrap(self, key, fn):
        probe = PROBES.get(key)
        counts = self.counts
        tracer = self
        if key in COARSE:
            def wrapper(*args, **kwargs):
                detail = args[0] if args and isinstance(args[0], str) else ""
                result = tracer.span(key, detail, fn, *args, **kwargs)
                if probe is not None:
                    probe(counts, args, result)
                return result
        elif inspect.isgeneratorfunction(fn):
            # time each resumption, so stats count resumptions; the
            # calls themselves are counted separately
            def wrapper(*args, **kwargs):
                counts[key + ".generators"] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter()
                    start = perf_counter()
                    parent = tracer._span
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(key, frame, start, parent)
                    yield value
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter()
                start = perf_counter()
                parent = tracer._span
                try:
                    result = fn(*args, **kwargs)
                    if probe is not None:
                        probe(counts, args, result)
                    return result
                finally:
                    tracer._leave(key, frame, start, parent)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- results -----------------------------------------------------------

    def calls(self, key) -> int:
        if key + ".generators" in self.counts:
            return self.counts[key + ".generators"]
        return sum(rec[0] for (k, _), rec in self.stats.items() if k == key)

    def count(self, name) -> int:
        """The value of one COUNTS metric."""
        if name == "trace.spans":
            return len(self.spans)
        keys = CALL_SUMS.get(name)
        if keys is None and name.endswith(".calls"):
            keys = (name[:-len(".calls")],)
        if keys is None:
            return self.counts[name]
        return sum(self.calls(key) for key in keys)

    def summary(self) -> dict:
        """Counts, shares and self time per layer of the traced calls."""
        shares = {}
        for name, (num, den) in SHARES.items():
            total = self.count(den)
            shares[name] = self.count(num) / total if total else 0.0
        self_s = self.self_seconds()
        return {"counts": {name: self.count(name) for name in COUNTS},
                "shares": shares,
                "self_s": {layer: self_s[layer]
                           for layer in ("bench",) + LAYERS}}

    def self_seconds(self) -> Counter:
        """Self time per layer; 'bench' is the benchmark's own job spans."""
        out = Counter()
        for (key, _), rec in self.stats.items():
            out[key.split(".")[0]] += rec[2]
        return out

    def dump(self, path) -> None:
        """Write the spans and the aggregated calls as JSON."""
        data = {
            "spans": [{"id": i, "name": name, "detail": detail,
                       "start": start, "end": end, "parent": parent}
                      for i, (name, detail, start, end, parent)
                      in enumerate(self.spans)],
            "calls": [{"name": key, "parent": parent, "calls": rec[0],
                       "total_s": rec[1], "self_s": rec[2]}
                      for (key, parent), rec in sorted(
                          self.stats.items(),
                          key=lambda item: (item[0][0], -1 if item[0][1] is None
                                            else item[0][1]))],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
