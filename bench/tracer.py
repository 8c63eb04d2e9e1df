"""Spans around the calls into each ktrunc layer, recorded from outside the
program.

``Tracer.install`` wraps every function in ``SPANS`` and rebinds each module
global in ``ktrunc`` that refers to it.  The modules import names directly
(``from .exactalg import smith_normal_form``), so patching the defining
module alone would miss those copies.  ``uninstall`` puts every binding back.

Every span adds its duration to its parent's child time, so a span's self
time is its duration minus the part its child spans cover.  Hot spans (the
``witt`` boundaries, called more than 10^6 times on ``witt_enum``, and
``ssengine.closed_form``, called about 47,000 times on ``kgroups_table``) are
only aggregated into count, total and self time; the others are also kept
as individual records with their parent and case, and written out at the
end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("exactalg", "witt", "wittsplit", "cycbar", "ssengine", "tcassemble")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _shape(mat) -> tuple[int, int]:
    if hasattr(mat, "rows"):
        return mat.rows, mat.cols
    return np.shape(mat)


def _snf_sizes(tr, args, kwargs, result):
    rows, cols = _shape(_arg(args, kwargs, 0, "m"))
    tr.counters["exactalg.smith_normal_form.cells"] += rows * cols
    tr.shapes["exactalg.smith_normal_form"][f"{rows}x{cols}"] += 1


def _fp_rref_sizes(tr, args, kwargs, result):
    rows, cols = _shape(_arg(args, kwargs, 0, "mat"))
    tr.counters["exactalg.fp_rref.cells"] += rows * cols
    tr.shapes["exactalg.fp_rref"][f"{rows}x{cols}"] += 1


def _weight_words_sizes(tr, args, kwargs, result):
    e, m, n = (_arg(args, kwargs, i, k) for i, k in enumerate("emn"))
    tr.counters["cycbar.words"] += len(result)
    tr.words_per_degree[f"e={e},m={m}"][str(n)] = len(result)


def _entries_matrix_sizes(tr, args, kwargs, result):
    tr.counters["cycbar.matrix_cells"] += result.size
    tr.shapes["cycbar.entries_matrix"]["{}x{}".format(*result.shape)] += 1


def _reduced_homology_sizes(tr, args, kwargs, result):
    c = _arg(args, kwargs, 0, "c")
    tr.distinct["cycbar.reduced_homology"].add((c.e, c.m, c.p))


def _mul_p_map_sizes(tr, args, kwargs, result):
    p, ts = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "ts")
    tr.distinct["wittsplit.mul_p_map"].add((p, len(ts)))


def _brute_force_sizes(tr, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    size = params.p ** (params.r * params.e)
    tr.counters["wittsplit.enum_elements"] += size
    tr.enumeration[f"p={params.p},re={params.r * params.e}"] = size


def _equalizer_model_sizes(tr, args, kwargs, result):
    tr.counters["tcassemble.tower_stages"] += len(result.source_lengths)


# (span name, module, attribute, hot, size hook).  The span name is the
# layer and the function without its leading underscore.
SPANS = (
    ("exactalg.smith_normal_form", "exactalg", "smith_normal_form", False,
     _snf_sizes),
    ("exactalg.kernel_invariants", "exactalg", "kernel_invariants", False,
     None),
    ("exactalg.integer_solve", "exactalg", "integer_solve", False, None),
    ("exactalg.integer_kernel_basis", "exactalg", "integer_kernel_basis",
     False, None),
    ("exactalg.fp_rref", "exactalg", "fp_rref", False, _fp_rref_sizes),
    ("witt.add_coords", "witt", "_add_coords", True, None),
    ("witt.ghost", "witt", "_ghost_coords", True, None),
    ("witt.from_ghost", "witt", "_coords_from_ghost", True, None),
    ("wittsplit.mul_p_map", "wittsplit", "_mul_p_map", False,
     _mul_p_map_sizes),
    ("wittsplit.brute_force_quotient", "wittsplit", "brute_force_quotient",
     False, _brute_force_sizes),
    ("wittsplit.predicted_quotient", "wittsplit", "predicted_quotient",
     False, None),
    ("cycbar.weight_words", "cycbar", "weight_words", False,
     _weight_words_sizes),
    ("cycbar.entries_matrix", "cycbar", "_entries_matrix", False,
     _entries_matrix_sizes),
    ("cycbar.integer_complex", "cycbar", "_integer_complex", False, None),
    ("cycbar.generate_complex", "cycbar", "generate_complex", False, None),
    ("cycbar.reduced_homology", "cycbar", "reduced_homology", False,
     _reduced_homology_sizes),
    ("cycbar.integral_connes_scalar", "cycbar", "_integral_connes_scalar",
     False, None),
    ("ssengine.build_e2", "ssengine", "build_e2", False, None),
    ("ssengine.run_to_einfty", "ssengine", "run_to_einfty", False, None),
    ("ssengine.closed_form", "ssengine", "closed_form", True, None),
    ("tcassemble.tc_weight_group", "tcassemble", "tc_weight_group", False,
     None),
    ("tcassemble.build_equalizer_model", "tcassemble",
     "build_equalizer_model", False, _equalizer_model_sizes),
    ("tcassemble.equalizer_kernel", "tcassemble", "equalizer_kernel", False,
     None),
    ("tcassemble.group_in_degree", "tcassemble", "group_in_degree", False,
     None),
)

# Size counters the hooks above add to, and spans whose distinct
# arguments they collect.
COUNTERS = ("exactalg.smith_normal_form.cells", "exactalg.fp_rref.cells",
            "cycbar.words", "cycbar.matrix_cells", "wittsplit.enum_elements",
            "tcassemble.tower_stages")
DISTINCT = ("cycbar.reduced_homology", "wittsplit.mul_p_map")

# Ratio metric -> (child span, ancestor span): calls of the child made while
# the ancestor is open, per call of the ancestor.
NESTED = {
    "exactalg.snf_per_kernel": ("exactalg.smith_normal_form",
                                "exactalg.kernel_invariants"),
    "cycbar.fp_rref_per_homology": ("exactalg.fp_rref",
                                    "cycbar.reduced_homology"),
}


class Tracer:
    def __init__(self):
        self.aggregates: dict[str, list] = {}  # name -> [calls, total, self]
        self.raised: Counter[str] = Counter()  # layer -> exceptions escaped
        self.counters: Counter[str] = Counter(dict.fromkeys(COUNTERS, 0))
        self.nested: Counter[tuple[str, str]] = Counter()
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.shapes: defaultdict[str, Counter] = defaultdict(Counter)
        self.words_per_degree: defaultdict[str, dict] = defaultdict(dict)
        self.enumeration: dict[str, int] = {}
        # (id, parent id, case, name, start, duration, self time)
        self.records: list = []
        self.bindings: list[tuple[object, str, object]] = []
        self._child_time = [0.0]  # one accumulator per open span
        self._open_ids: list[int | None] = [None]
        self._active: Counter[str] = Counter()
        self._case: str | None = None
        self._origin = time.perf_counter()

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "ktrunc" or name.startswith("ktrunc.")]
        for name, module, attr, hot, sizes in SPANS:
            original = getattr(sys.modules[f"ktrunc.{module}"], attr)
            wrapper = self._wrap(name, original, hot, sizes)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self.bindings.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        for mod, binding, original in reversed(self.bindings):
            setattr(mod, binding, original)

    def _escaped(self, layer: str, exc: BaseException) -> None:
        """Count an exception once for each layer whose span it escapes."""
        layers = exc.__dict__.setdefault("_bench_layers", set())
        if layer not in layers:
            layers.add(layer)
            self.raised[layer] += 1

    def _wrap(self, name, fn, hot, sizes):
        agg = self.aggregates[name] = [0, 0.0, 0.0]
        layer = name.split(".")[0]
        child_time = self._child_time
        perf = time.perf_counter

        if hot:
            def hot_wrapper(*args, **kwargs):
                child_time.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    self._escaped(layer, exc)
                    raise
                finally:
                    dur = perf() - t0
                    child = child_time.pop()
                    child_time[-1] += dur
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - child
            return hot_wrapper

        nested = [anc for child, anc in NESTED.values() if child == name]

        def wrapper(*args, **kwargs):
            for anc in nested:
                if self._active[anc]:
                    self.nested[name, anc] += 1
            with _Span(self, name, agg, layer):
                result = fn(*args, **kwargs)
            if sizes is not None:
                sizes(self, args, kwargs, result)
            return result
        return wrapper

    def root(self, case_id: str, name: str):
        """Root span of one case (``case``) or of its reference check
        (``check``); every span opened inside it carries the case id."""
        self._case = case_id
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        return _Span(self, name, agg, None)

    def metrics(self, cache_info: dict) -> dict[str, float]:
        """Per-layer figures: calls and self time of every span, the size
        counters, the ratios built from them, and exceptions per layer.
        ``cache_info`` maps a span name to its lru_cache's final
        ``cache_info()``."""
        out: dict[str, float] = {}
        for name, (calls, _total, self_s) in self.aggregates.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        for key, (child, anc) in NESTED.items():
            out[key] = _ratio(self.nested[child, anc], out[f"{anc}.calls"])
        for name, keys in self.distinct.items():
            out[f"{name}.distinct_ratio"] = _ratio(len(keys),
                                                   out[f"{name}.calls"])
        for name, info in cache_info.items():
            out[f"{name}.misses"] = info.misses
            out[f"{name}.hit_ratio"] = _ratio(info.hits,
                                              info.hits + info.misses)
        for layer in LAYERS:
            out[f"{layer}.raised"] = self.raised[layer]
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "aggregates": {name: {"calls": c, "total_s": t, "self_s": s}
                           for name, (c, t, s) in self.aggregates.items()},
            "raised": dict(self.raised),
            "counters": dict(self.counters),
            "shapes": {k: dict(v) for k, v in self.shapes.items()},
            "words_per_degree": dict(self.words_per_degree),
            "enumeration": self.enumeration,
            "span_fields": ["id", "parent", "case", "name", "start_s",
                            "duration_s", "self_s"],
            "spans": self.records,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Span:
    __slots__ = ("tr", "name", "agg", "layer", "id", "parent", "t0")

    def __init__(self, tr: Tracer, name: str, agg: list, layer: str | None):
        self.tr, self.name, self.agg, self.layer = tr, name, agg, layer

    def __enter__(self):
        tr = self.tr
        self.id = len(tr.records)
        tr.records.append(None)
        self.parent = tr._open_ids[-1]
        tr._open_ids.append(self.id)
        tr._active[self.name] += 1
        tr._child_time.append(0.0)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tr
        dur = time.perf_counter() - self.t0
        child = tr._child_time.pop()
        tr._child_time[-1] += dur
        tr._open_ids.pop()
        tr._active[self.name] -= 1
        agg = self.agg
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        tr.records[self.id] = (self.id, self.parent, tr._case, self.name,
                               self.t0 - tr._origin, dur, dur - child)
        if exc is not None and self.layer is not None:
            tr._escaped(self.layer, exc)
        return False
