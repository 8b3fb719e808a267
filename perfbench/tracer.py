"""Spans and work counts around the calls into decspace's modules.

``Tracer.install()`` replaces every public function of the layers below by
a wrapper that records a span (name, start, end, parent).  A module that
imports a function by name holds its own reference, so the wrapper is put
in every decspace module whose attribute is that function.  Two methods of
``FiniteGroupoid`` are patched for counts: the constructor, so that each
groupoid's hom-set enumerator counts its calls, and ``some_iso``, the
isomorphism test.  The misses of the module-level ``lru_cache`` caches
are counted per phase.

Spans and counts go into the current ``Phase``; the benchmark starts a new
phase for the set-up and for each pass.  Nothing is written until
``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("groupoids", "simplicial", "coalgebra", "delta", "linalg_fq", "cli", "gallery")
CONSTRUCTORS = {
    "binomial_B", "injections_I", "oi_space", "forests_H", "graphs_G",
    "vect_S", "mono_nerve", "nerve_of_poset", "fat_nerve",
}
SQUARE_CHECKS = {
    "check_segal", "check_decomposition", "check_decomposition_active",
    "check_cartesian", "check_extra_pullbacks",
}
VERDICTS = {"check_segal", "check_decomposition"}

# name, unit, better: the per-layer metrics, in the order they are printed
METRICS = [
    ("groupoids.iso_classes.calls", "count", "lower"),
    ("groupoids.iso_classes.self_s", "s", "lower"),
    ("groupoids.iso_tests", "count", "lower"),
    ("groupoids.iso_hit_ratio", "ratio", "higher"),
    ("groupoids.product_list.objects", "count", "lower"),
    ("groupoids.product_list.self_s", "s", "lower"),
    ("groupoids.homotopy_fibre.calls", "count", "lower"),
    ("groupoids.homotopy_fibre.objects", "count", "lower"),
    ("groupoids.homotopy_fibre.self_s", "s", "lower"),
    ("groupoids.is_equivalence.calls", "count", "lower"),
    ("groupoids.is_equivalence.self_s", "s", "lower"),
    ("groupoids.is_pullback_square.calls", "count", "lower"),
    ("groupoids.hom_calls", "count", "lower"),
    ("groupoids.self_s", "s", "lower"),
    ("simplicial.squares", "count", "lower"),
    ("simplicial.repeat_verdicts", "count", "lower"),
    ("simplicial.self_s", "s", "lower"),
    ("coalgebra.comultiplication.self_s", "s", "lower"),
    ("coalgebra.delta_n.self_s", "s", "lower"),
    ("coalgebra.entries", "count", "lower"),
    ("coalgebra.self_s", "s", "lower"),
    ("gallery.build_s", "s", "lower"),
    ("gallery.objects", "count", "lower"),
    ("gallery.self_s", "s", "lower"),
    ("linalg_fq.calls", "count", "lower"),
    ("linalg_fq.self_s", "s", "lower"),
    ("delta.calls", "count", "lower"),
    ("delta.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("caches.misses", "count", "lower"),
    ("caches.misses.cold", "count", "lower"),
    ("caches.entries", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("machine.kernel_s", "s", "lower"),
]


class Phase:
    """Spans and counts of one stretch of the run (the set-up, or one pass)."""

    def __init__(self, name: str):
        self.name = name
        self.spans: list = []  # [name, start, end, parent index, time in children]
        self.counts: Counter = Counter()
        self.decided: dict = {}  # verdict key -> space, kept alive so ids stay unique


def _layer(modname: str) -> str | None:
    parts = modname.split(".")
    if parts[0] != "decspace" or len(parts) < 2:
        return None
    return parts[1] if parts[1] in LAYERS else None


def _verdict_key(fname: str, X) -> tuple:
    return (
        fname,
        X.N,
        tuple(sorted((k, id(f)) for k, f in X.faces.items())),
        tuple(sorted((k, id(f)) for k, f in X.degens.items())),
    )


class Tracer:
    def __init__(self, groupoid_class, caches: list):
        self.groupoid_class = groupoid_class
        self.caches = caches
        self.phase = Phase("off")
        self.stack: list = []
        self.patches: list = []  # (owner, attribute, original)
        self.misses_at_begin = self._misses()

    def _misses(self) -> int:
        return sum(c.cache_info().misses for c in self.caches)

    def begin(self, name: str) -> Phase:
        """Close the current phase and start a new one."""
        if self.stack:
            raise RuntimeError("a phase cannot start inside a span")
        misses = self._misses()
        counts = self.phase.counts
        counts["caches.misses"] = misses - self.misses_at_begin
        counts["caches.entries"] = sum(c.cache_info().currsize for c in self.caches)
        self.misses_at_begin = misses
        self.phase = Phase(name)
        return self.phase

    # -- wrappers ---------------------------------------------------------

    def _after(self, layer: str, fname: str):
        """The count hook for one function, or None."""
        if layer == "groupoids" and fname in ("homotopy_fibre", "product_list"):
            key = f"groupoids.{fname}.objects"
            return lambda ph, args, res: ph.counts.update({key: len(res.objects)})
        if layer == "coalgebra" and fname in ("comultiplication", "delta_n"):
            return lambda ph, args, res: ph.counts.update({"coalgebra.entries": len(res.entries)})
        if layer == "gallery" and fname in CONSTRUCTORS:
            def count_objects(ph, args, res):
                X = res[0] if isinstance(res, tuple) else res
                ph.counts["gallery.objects"] += sum(len(L.objects) for L in X.levels)
            return count_objects
        if layer == "simplicial" and fname in SQUARE_CHECKS:
            def count_squares(ph, args, res):
                ph.counts["simplicial.squares"] += len(res.squares)
                if fname in VERDICTS:
                    key = _verdict_key(fname, args[0])
                    if key in ph.decided:
                        ph.counts["simplicial.repeat_verdicts"] += 1
                    else:
                        ph.decided[key] = args[0]
            return count_squares
        return None

    def _wrap(self, span: str, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            phase = tracer.phase
            spans = phase.spans
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            rec = [span, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
            if after is not None:
                after(phase, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        if self.patches:
            return
        modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "decspace" and m}
        wrappers: dict = {}
        for modname, mod in modules.items():
            layer = _layer(modname)
            if layer is None:
                continue
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != modname:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn, self._after(layer, fname))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and w.__wrapped__ is value:
                    self.patches.append((mod, attr, value))
                    setattr(mod, attr, w)
        self._patch_groupoid_class()

    def _patch_groupoid_class(self) -> None:
        G = self.groupoid_class
        tracer = self
        init, some_iso = G.__init__, G.some_iso

        def counting_init(g, *args, **kwargs):
            init(g, *args, **kwargs)
            raw = g.hom
            if getattr(raw, "counts_hom_calls", False):
                return

            def hom(x, y):
                tracer.phase.counts["groupoids.hom_calls"] += 1
                return raw(x, y)

            hom.counts_hom_calls = True
            g.hom = hom

        def counting_some_iso(g, x, y):
            found = some_iso(g, x, y)
            counts = tracer.phase.counts
            counts["groupoids.iso_tests"] += 1
            if found is not None:
                counts["groupoids.iso_found"] += 1
            return found

        self.patches += [(G, "__init__", init), (G, "some_iso", some_iso)]
        G.__init__ = counting_init
        G.some_iso = counting_some_iso

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []


# ---------------------------------------------------------------------------
# metrics and output


def _self_times(phases) -> tuple[Counter, Counter, Counter, float]:
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    calls: Counter = Counter()
    build = 0.0
    for ph in phases:
        spans = ph.spans
        for name, start, end, parent, child in spans:
            layer = name.split(".", 1)[0]
            by_name[name] += end - start - child
            by_layer[layer] += end - start - child
            calls[name] += 1
            calls[layer] += 1
            if layer == "gallery" and name.split(".", 1)[1] in CONSTRUCTORS:
                p = parent
                while p >= 0 and not spans[p][0].startswith("gallery."):
                    p = spans[p][3]
                if p < 0:
                    build += end - start
    return by_name, by_layer, calls, build


def layer_metrics(
    setup: Phase, cold: Phase, warm: Phase, traced_run: float, plain_run: float, kernel: float
) -> dict:
    """Per-layer metrics over the set-up plus the first warm pass.

    ``caches.misses.cold`` covers the set-up plus the cold pass; its
    difference to ``caches.misses`` is the work the module-level caches
    save once warm.  ``caches.entries`` is what they hold after the warm
    pass.  The times here are raw seconds: ``trace.run_s`` and
    ``trace.overhead_s`` compare the median traced and untraced warm passes
    of this run, and ``machine.kernel_s`` is the median time of the
    reference kernel, which says how fast the machine was.
    """
    phases = (setup, warm)
    by_name, by_layer, calls, build = _self_times(phases)
    counts = setup.counts + warm.counts
    cold_counts = setup.counts + cold.counts
    tests = counts["groupoids.iso_tests"]
    values = {
        "groupoids.iso_classes.calls": calls["groupoids.iso_classes"],
        "groupoids.iso_classes.self_s": by_name["groupoids.iso_classes"],
        "groupoids.iso_tests": tests,
        "groupoids.iso_hit_ratio": counts["groupoids.iso_found"] / tests if tests else 0.0,
        "groupoids.product_list.objects": counts["groupoids.product_list.objects"],
        "groupoids.product_list.self_s": by_name["groupoids.product_list"],
        "groupoids.homotopy_fibre.calls": calls["groupoids.homotopy_fibre"],
        "groupoids.homotopy_fibre.objects": counts["groupoids.homotopy_fibre.objects"],
        "groupoids.homotopy_fibre.self_s": by_name["groupoids.homotopy_fibre"],
        "groupoids.is_equivalence.calls": calls["groupoids.is_equivalence"],
        "groupoids.is_equivalence.self_s": by_name["groupoids.is_equivalence"],
        "groupoids.is_pullback_square.calls": calls["groupoids.is_pullback_square"],
        "groupoids.hom_calls": counts["groupoids.hom_calls"],
        "groupoids.self_s": by_layer["groupoids"],
        "simplicial.squares": counts["simplicial.squares"],
        "simplicial.repeat_verdicts": counts["simplicial.repeat_verdicts"],
        "simplicial.self_s": by_layer["simplicial"],
        "coalgebra.comultiplication.self_s": by_name["coalgebra.comultiplication"],
        "coalgebra.delta_n.self_s": by_name["coalgebra.delta_n"],
        "coalgebra.entries": counts["coalgebra.entries"],
        "coalgebra.self_s": by_layer["coalgebra"],
        "gallery.build_s": build,
        "gallery.objects": counts["gallery.objects"],
        "gallery.self_s": by_layer["gallery"],
        "linalg_fq.calls": calls["linalg_fq"],
        "linalg_fq.self_s": by_layer["linalg_fq"],
        "delta.calls": calls["delta"],
        "delta.self_s": by_layer["delta"],
        "cli.calls": calls["cli"],
        "cli.self_s": by_layer["cli"],
        "caches.misses": counts["caches.misses"],
        "caches.misses.cold": cold_counts["caches.misses"],
        "caches.entries": warm.counts["caches.entries"],
        "trace.spans": sum(len(ph.spans) for ph in phases),
        "trace.run_s": traced_run,
        "trace.overhead_s": traced_run - plain_run,
        "machine.kernel_s": kernel,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}


def write_spans(path: str, phases, origin: float) -> None:
    """Gzipped lines, one per span: phase, index, parent index, name, start, end (s)."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("phase\tindex\tparent\tname\tstart_s\tend_s\n")
        for ph in phases:
            for i, (name, start, end, parent, _) in enumerate(ph.spans):
                fh.write(
                    f"{ph.name}\t{i}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n"
                )
