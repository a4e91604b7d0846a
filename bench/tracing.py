"""Per-layer tracing from outside the package.

The traced run wraps the public functions of each module of ``blossom`` at
every module binding: ``solver`` and ``assembly`` import functions by name,
so replacing only the defining module's attribute would miss their calls.
Each wrapper is a span. It adds its duration to the enclosing span's child
time, and its self time is its duration minus that child time. Counts are
taken at the same call boundaries. Aggregates stay in memory; nothing is
written while the solver runs.

The wrappers cost time on every call, so end-to-end metrics come from
untraced passes only, and the traced run reports its overhead.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter

# Layer (module of the package) -> public functions traced in it.
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("vertices", "adjacency", "neighbours"),
    "matching": ("augment", "is_matching", "is_augmenting_path"),
    "forest": ("run_search", "build_odd_set_cover"),
    "assembly": ("find_path_or_blossom",),
    "contraction": ("quotient_graph", "lift_path", "is_blossom"),
    "solver": ("find_maximum_matching", "find_augmenting_path", "certify_maximality"),
    "certificate": (
        "verify_certificate",
        "verify_maximum",
        "is_odd_set_cover",
        "format_certificate",
        "parse_certificate",
    ),
    "cli": ("parse_graph_file", "parse_matching_file", "main"),
}

SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

COUNTS = (
    "graph.edges_scanned",
    "contraction.edges_rebuilt",
    "forest.edges_examined",
    "assembly.free_edge_paths",
    "assembly.blossoms",
    "solver.max_nesting",
    "certificate.cover_sets",
    "certificate.contractions_replayed",
)

# Never wrapped: the brute-force oracle checks outputs and is never timed.
UNTRACED_MODULES = frozenset({"blossom.oracle"})


class Tracer:
    """Call counts, self times and layer counts for the spans it wraps."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: dict[str, float] = dict.fromkeys(SPANS, 0.0)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        # Child time of each open span, innermost last.
        self.open: list[float] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """A span around ``fn``. ``before(args)`` runs ahead of the call and
        its value goes to ``after(args, result, mark)``, which runs after a
        call that returned. Both run outside the span's own time."""
        if fn.__name__ in fn.__code__.co_names:
            # A wrapper frame on every level would deepen the recursion and
            # could turn a solvable instance into a RecursionError.
            raise ValueError(f"{name} refers to itself; self-recursive functions are not wrapped")
        calls, self_s, open_spans = self.calls, self.self_s, self.open

        def traced(*args, **kwargs):
            mark = before(args) if before is not None else None
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(args, result, mark)
            return result

        traced.__wrapped__ = fn
        return traced

    def hooks(self, name: str) -> tuple[Callable | None, Callable | None]:
        """The count hooks for one span, as (before, after)."""
        counts, calls = self.counts, self.calls

        def add(key: str, position: int) -> Callable:
            def after(args, result, mark):
                counts[key] += len(args[position])

            return after

        if name in ("graph.vertices", "graph.adjacency"):
            return None, add("graph.edges_scanned", 0)
        if name == "contraction.quotient_graph":
            return None, add("contraction.edges_rebuilt", 1)
        if name == "forest.run_search":
            def examined(args, result, mark):
                counts["forest.edges_examined"] += len(result.state.examined)

            return None, examined
        if name == "assembly.find_path_or_blossom":
            def answer(args, result, mark):
                if type(result).__name__ == "FoundBlossom":
                    counts["assembly.blossoms"] += 1
                elif result is not None and calls["forest.run_search"] == mark:
                    counts["assembly.free_edge_paths"] += 1

            return (lambda args: calls["forest.run_search"]), answer
        if name == "solver.find_augmenting_path":
            def nesting(args, result, mark):
                inside = calls["assembly.find_path_or_blossom"] - mark
                counts["solver.max_nesting"] = max(counts["solver.max_nesting"], inside - 1)

            return (lambda args: calls["assembly.find_path_or_blossom"]), nesting
        if name == "certificate.verify_certificate":
            def replayed(args, result, mark):
                counts["certificate.contractions_replayed"] += len(args[2])
                counts["certificate.cover_sets"] += len(args[3])

            return None, replayed
        return None, None

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every traced function at every binding in the loaded
        ``blossom`` modules, and restore the originals on exit."""
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if (key == "blossom" or key.startswith("blossom.")) and key not in UNTRACED_MODULES
        ]
        wrappers: dict[int, Callable] = {}
        for name in SPANS:
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"blossom.{layer}"], fn_name)
            wrappers[id(original)] = self.wrap(name, original, *self.hooks(name))
        patched = [
            (module, attr, value)
            for module in modules
            for attr, value in vars(module).items()
            if id(value) in wrappers and wrappers[id(value)].__wrapped__ is value
        ]
        for module, attr, value in patched:
            setattr(module, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
            self.open.clear()

    def metrics(self) -> dict[str, float]:
        """Calls, self times and counts by metric name; ratios included."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        augments = self.calls["matching.augment"]
        searches = self.calls["assembly.find_path_or_blossom"]
        out["solver.searches_per_augment"] = searches / augments if augments else 0.0
        return out
