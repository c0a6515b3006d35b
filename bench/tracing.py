"""Span tracing of sbvol's public functions, installed from outside the program.

``Tracer.install`` replaces each traced function by a wrapper at every
module attribute that holds it (the package imports with ``from .x import
f``, so each importing module has its own binding) and patches traced
methods on their class.  Spans stay in memory as ``[name, parent, start,
end]`` and are summarised, or written out, after the run.  Hot scalar
helpers such as ``intlinalg.dot`` are never wrapped; the ``intlinalg``
routines below are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path); "Class.method" patches the class.
SPANNED = (
    ("dd.extreme_rays", "dd", "extreme_rays"),
    ("polytope.hull", "polytope", "hull"),
    ("polytope.lattice_points", "polytope", "LatticePolytope.lattice_points"),
    ("polytope.lattice_width", "polytope", "LatticePolytope.lattice_width"),
    ("polytope.fingerprint", "polytope", "LatticePolytope.fingerprint"),
    ("polytope.faces", "polytope", "LatticePolytope.faces"),
    ("polytope.unimodular_equivalence", "polytope", "unimodular_equivalence"),
    ("toric.fine_interior", "toric", "fine_interior"),
    ("toric.normal_fan", "toric", "normal_fan"),
    ("toric.class_group", "toric", "class_group"),
    ("conditionm.check_condition_m", "conditionm", "check_condition_m"),
    ("hodge.h_p0_compact", "hodge", "h_p0_compact"),
    ("subdivision.distance_height", "subdivision", "distance_height"),
    ("subdivision.staged_distance_height", "subdivision", "staged_distance_height"),
    ("subdivision.min_squared_distance", "subdivision", "min_squared_distance"),
    ("subdivision.regular_subdivision", "subdivision", "regular_subdivision"),
    ("subdivision.validate", "subdivision", "validate"),
    ("subdivision.interior_cells", "subdivision", "interior_cells"),
    ("ledger.dim4_pipeline", "ledger", "dim4_pipeline"),
    ("ledger.volume_ledger", "ledger", "volume_ledger"),
    ("ledger.classify_cell", "ledger", "classify_cell"),
    ("ledger.SeedRegistry.match", "ledger", "SeedRegistry.match"),
    ("formats.load_polytope", "formats", "load_polytope"),
    ("cli.main", "cli", "main"),
)
COUNTED = (
    ("intlinalg.solve_rational", "intlinalg", "solve_rational"),
    ("intlinalg.hermite_form", "intlinalg", "hermite_form"),
    ("intlinalg.smith_form", "intlinalg", "smith_form"),
)
EQUIVALENCE_OUTCOMES = ("found", "inequivalent", "budget")


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for prefix, _, _ in SPANNED:
        names += [f"{prefix}.calls", f"{prefix}.s", f"{prefix}.self_s"]
        if prefix == "polytope.unimodular_equivalence":
            names += [f"{prefix}.{o}" for o in EQUIVALENCE_OUTCOMES]
        if prefix == "subdivision.validate":
            names.append(f"{prefix}.cell_pairs")
    names += [f"{prefix}.calls" for prefix, _, _ in COUNTED]
    names.append("ledger.cells_per_class")
    return names


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run prints."""
    out = []
    for name in metric_names() + ["trace.wall_s", "trace.overhead_s", "calib_s"]:
        if name.endswith((".s", "_s")):
            out.append((name, "s", "lower"))
        elif name == "ledger.cells_per_class":
            out.append((name, "cells/class", "higher"))
        else:
            out.append((name, "count", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.outer = []  # True when no enclosing span has the same name
        self.counts = Counter()
        self.ledgers = []  # (polytope, subdivision) of each volume_ledger call
        self.enabled = False  # spans and counts are kept only while True
        self._stack = []
        self._depth = Counter()
        self._undo = []

    # -- wrappers ------------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, outer, stack, depth = self.spans, self.outer, self._stack, self._depth
        clock = time.perf_counter
        after = self._after_hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            sid = len(spans)
            spans.append(rec)
            outer.append(depth[name] == 0)
            stack.append(sid)
            depth[name] += 1
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                depth[name] -= 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_hooks(self):
        """Counters read off a traced call's arguments or result, by span name."""

        def equivalence(args, kwargs, result):
            self.counts[f"polytope.unimodular_equivalence.{result.status}"] += 1

        def validate(args, kwargs, result):
            n = len(args[0].maximal_cells)
            self.counts["subdivision.validate.cell_pairs"] += n * (n - 1) // 2

        def ledger(args, kwargs, result):
            self.ledgers.append((args[0], args[1]))

        return {
            "polytope.unimodular_equivalence": equivalence,
            "subdivision.validate": validate,
            "ledger.volume_ledger": ledger,
        }

    # -- installation --------------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every traced function wherever an sbvol module (or an extra one) binds it."""
        modules = [m for n, m in sys.modules.items() if n == "sbvol" or n.startswith("sbvol.")]
        modules += list(extra_modules)
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, modname, path in table:
                owner = sys.modules[f"sbvol.{modname}"]
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, make(name, original))
                    self._undo.append((cls, meth, original))
                    continue
                original = getattr(owner, path)
                wrapped = make(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end), c in zip(self.spans, child)]

    def layer_metrics(self, cells_per_class):
        out = {name: 0 for name in metric_names()}
        for (name, _, start, end), own, is_outer in zip(
            self.spans, self.self_times(), self.outer
        ):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if is_outer:
                out[f"{name}.s"] += end - start
        out.update(self.counts)
        out["ledger.cells_per_class"] = cells_per_class
        return out

    def write(self, path):
        """Spans as JSON: a name table and rows of [name index, parent, start, end]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [index[n], parent, round(start - t0, 7), round(end - t0, 7)]
            for n, parent, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
