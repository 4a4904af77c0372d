"""Outside-in tracer: spans around calls into gckit's public functions.

:meth:`Tracer.install` replaces each traced function with a wrapper in
every ``gckit`` namespace that binds it -- the defining module, the modules
that import it, and the package -- so calls between modules and within a
module both pass through the wrapper.  Modules are reached through
``sys.modules``, because the package attribute ``gckit.orient`` is the
``orient`` function, not the module.  :meth:`Tracer.uninstall` puts every
original back.  Nothing in ``gckit`` is edited and no cache is cleared.

A span is ``[name, start, end, parent, op, nested, note]``: ``parent`` is
the index of the enclosing span or -1, ``nested`` says whether an enclosing
span has the same name (``orient`` of a sum calls ``orient`` of each graph),
and ``note`` is what the function's note hook read off its arguments and
result.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from math import comb
from typing import Callable


def _canonicalize_note(args, result, parent, before):
    # Distinct nonzero graphs met directly by cocycle_kernel are its basis.
    if parent == "complexes.cocycle_kernel" and not result.is_zero:
        return repr(result.canonical.edges)
    return None


def _subsets_note(args, result, parent, before):
    vertices, edges = args[:2]
    return comb(comb(vertices, 2), edges)


def _len_note(args, result, parent, before):
    return len(result)


def _normalize_before():
    return len(sys.modules["gckit.orient"]._NORMALIZE_CACHE)


def _normalize_note(args, result, parent, before):
    missed = len(sys.modules["gckit.orient"]._NORMALIZE_CACHE) > before
    return [int(result.is_zero), int(missed)]


def _orgraphs_note(args, result, parent, before):
    source = args[0]
    return len(source) if hasattr(source, "items") else 1


# span name -> (defining module, function, note hook, hook run before the call)
TARGETS: dict[str, tuple[str, str, Callable | None, Callable | None]] = {
    "graphs.canonicalize": ("gckit.graphs", "canonicalize", _canonicalize_note, None),
    "graphs.is_connected": ("gckit.graphs", "is_connected", None, None),
    "graphs.parse_graph": ("gckit.graphs", "parse_graph", None, None),
    "complexes.cocycle_kernel": ("gckit.complexes", "cocycle_kernel", _subsets_note, None),
    "complexes.differential": ("gckit.complexes", "differential", _len_note, None),
    "complexes.parse_graph_sum": ("gckit.complexes", "parse_graph_sum", None, None),
    "complexes.format_graph_sum": ("gckit.complexes", "format_graph_sum", None, None),
    "orient.enumerate_orientations": ("gckit.orient", "enumerate_orientations", _len_note, None),
    "orient.normalize_orgraph": ("gckit.orient", "normalize_orgraph", _normalize_note, _normalize_before),
    "orient.orient": ("gckit.orient", "orient", _len_note, None),
    "orient.fold_sink_swap": ("gckit.orient", "fold_sink_swap", None, None),
    "orient.crosscheck_rules": ("gckit.orient", "crosscheck_rules", None, None),
    "orient.parse_orgraph": ("gckit.orient", "parse_orgraph", None, None),
    "orient.parse_orgraph_sum": ("gckit.orient", "parse_orgraph_sum", None, None),
    "orient.format_orgraph": ("gckit.orient", "format_orgraph", None, None),
    "orient.format_orgraph_sum": ("gckit.orient", "format_orgraph_sum", None, None),
    "multivectors.or_evaluate_algebraic": ("gckit.multivectors", "or_evaluate_algebraic", None, None),
    "multivectors.evaluate_orgraph": ("gckit.multivectors", "evaluate_orgraph", _orgraphs_note, None),
    "multivectors.schouten": ("gckit.multivectors", "schouten", None, None),
    "multivectors.verify_corollary": ("gckit.multivectors", "verify_corollary", None, None),
    "multivectors.parse_poisson": ("gckit.multivectors", "parse_poisson", None, None),
    "multivectors.format_poisson": ("gckit.multivectors", "format_poisson", None, None),
    "cli.main": ("gckit.cli", "main", None, None),
}

# Spans whose self time is text I/O of the command line (``cli.io.s``).
IO_SPANS = frozenset(name for name in TARGETS if ".parse_" in name or ".format_" in name)


def gckit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "gckit" or name.startswith("gckit.")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list | None] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._names: list[str] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        """Wrap every target in every gckit namespace that binds it."""
        import gckit.cli  # noqa: F401  (the last module to bind the targets)

        modules = gckit_modules()
        for name, (module, attr, note, before) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, note, before)
            for namespace in modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._installed.append((namespace, key, original))

    def uninstall(self) -> None:
        """Put back every function :meth:`install` replaced."""
        for namespace, key, original in reversed(self._installed):
            setattr(namespace, key, original)
        self._installed.clear()

    def _wrap(self, name: str, fn: Callable, note, before) -> Callable:
        spans, stack, names, depth = self.spans, self._stack, self._names, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            parent_name = names[-1] if names else None
            nested = depth[name] > 0
            index = len(spans)
            spans.append(None)
            stack.append(index)
            names.append(name)
            depth[name] += 1
            probe = before() if before else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                depth[name] -= 1
                spans[index] = [name, start, end, parent, self.op, nested, None]
            if note is not None:
                spans[index][6] = note(args, result, parent_name, probe)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans and the two module caches' sizes to ``path``."""
        graphs = sys.modules["gckit.graphs"]
        orient = sys.modules["gckit.orient"]
        info = graphs._canonical_core.cache_info()
        counters = {
            "canonical_hits": info.hits,
            "canonical_misses": info.misses,
            "canonical_entries": info.currsize,
            "normalize_entries": len(orient._NORMALIZE_CACHE),
        }
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": counters}, handle)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the dumps of its processes."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)  # outermost spans only
    self_time: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)  # outermost spans only
    counters: dict[str, list[int]] = defaultdict(list)
    basis: set[tuple] = set()  # (process, cocycle_kernel span, graph)
    for process, dump in enumerate(dumps):
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, op, nested, note in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent, op, nested, note) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - covered[index]
            if not nested:
                total[name] += end - start
                if note is not None:
                    notes[name].append(note)
            if name == "graphs.canonicalize" and note is not None:
                basis.add((process, parent, note))
        for key, value in dump["counters"].items():
            counters[key].append(value)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    normalized = notes["orient.normalize_orgraph"]
    hits = sum(counters["canonical_hits"])
    lookups = hits + sum(counters["canonical_misses"])
    return {
        "graphs.canonicalize.calls": calls["graphs.canonicalize"],
        "graphs.canonicalize.s": total["graphs.canonicalize"],
        "graphs.canonical_cache.hit_ratio": ratio(hits, lookups),
        "graphs.canonical_cache.entries": max(counters["canonical_entries"], default=0),
        "graphs.is_connected.calls": calls["graphs.is_connected"],
        "complexes.cocycle_kernel.s": total["complexes.cocycle_kernel"],
        "complexes.cocycle_kernel.self_s": self_time["complexes.cocycle_kernel"],
        "complexes.cocycle_kernel.basis_ratio": ratio(len(basis), sum(notes["complexes.cocycle_kernel"])),
        "complexes.differential.calls": calls["complexes.differential"],
        "complexes.differential.s": total["complexes.differential"],
        "complexes.differential.terms": sum(notes["complexes.differential"]),
        "orient.enumerate_orientations.calls": calls["orient.enumerate_orientations"],
        "orient.enumerate_orientations.s": total["orient.enumerate_orientations"],
        "orient.enumerate_orientations.witnesses": sum(notes["orient.enumerate_orientations"]),
        "orient.normalize_orgraph.calls": calls["orient.normalize_orgraph"],
        "orient.normalize_orgraph.s": total["orient.normalize_orgraph"],
        "orient.normalize_orgraph.zero_ratio": ratio(sum(z for z, _ in normalized), len(normalized)),
        "orient.normalize_cache.hit_ratio": ratio(sum(1 - m for _, m in normalized), len(normalized)),
        "orient.normalize_cache.entries": max(counters["normalize_entries"], default=0),
        "orient.orient.s": total["orient.orient"],
        "orient.orient.terms": sum(notes["orient.orient"]),
        "orient.fold_sink_swap.s": total["orient.fold_sink_swap"],
        "orient.crosscheck_rules.s": total["orient.crosscheck_rules"],
        "orient.parse_orgraph_sum.s": total["orient.parse_orgraph_sum"],
        "multivectors.or_evaluate_algebraic.calls": calls["multivectors.or_evaluate_algebraic"],
        "multivectors.or_evaluate_algebraic.s": total["multivectors.or_evaluate_algebraic"],
        "multivectors.evaluate_orgraph.s": total["multivectors.evaluate_orgraph"],
        "multivectors.evaluate_orgraph.orgraphs": sum(notes["multivectors.evaluate_orgraph"]),
        "multivectors.schouten.calls": calls["multivectors.schouten"],
        "multivectors.schouten.s": total["multivectors.schouten"],
        "multivectors.verify_corollary.s": total["multivectors.verify_corollary"],
        "cli.main.s": total["cli.main"],
        "cli.io.s": sum(self_time[name] for name in IO_SPANS),
    }
