"""Spans around chargraph's public functions, installed from outside the
library: each traced function is rebound, in every chargraph module that
holds it, to a wrapper that records a span and counts raised errors."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import metrics

# module -> functions named in the per-layer metrics; PrimeGraph is traced
# through its constructor
TRACED = {
    "numtheory": ("factorize", "prime_divisors", "is_prime"),
    "graphs": (
        "PrimeGraph", "complement", "join", "max_clique", "is_bipartite",
        "longest_odd_cycle_at_least", "is_hamiltonian",
    ),
    "models": ("model_graph",),
    "exactness": ("check_n_exact", "verify_order_bound", "classify_extremal_case"),
    "search": ("sweep_models",),
    "cli": ("run",),
}

# the exact searches, timed together: every workload runs at least one of
# them, so their summed self time is never zero
SEARCHES = ("graphs.max_clique", "graphs.is_bipartite", "graphs.longest_odd_cycle_at_least", "graphs.is_hamiltonian")

# how a call's result counts as a useful outcome, for the found ratios
FOUND = {
    "graphs.longest_odd_cycle_at_least": lambda result: result is not None,
    "graphs.is_hamiltonian": lambda result: result.is_hamiltonian,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.errors: dict[str, int] = {}
        self.found: dict[str, int] = {}
        self._stack: list[int] = []
        self._factorize = None

    def install(self) -> None:
        import chargraph  # noqa: F401
        import chargraph.cli  # noqa: F401  (the package does not import it)
        from chargraph.errors import ChargraphError

        self._error_type = ChargraphError
        modules = [m for name, m in sys.modules.items() if name == "chargraph" or name.startswith("chargraph.")]
        for module_name, names in TRACED.items():
            module = sys.modules[f"chargraph.{module_name}"]
            for name in names:
                label = f"{module_name}.{name}"
                original = getattr(module, name)
                if isinstance(original, type):
                    original.__init__ = self._wrap(label, original.__init__)
                    continue
                if name == "factorize":
                    self._factorize = original
                wrapper = self._wrap(label, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, label, fn):
        spans, stack, errors, found = self.spans, self._stack, self.errors, self.found
        error_type = self._error_type
        is_found = FOUND.get(label)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((label, 0, 0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                errors[label] = errors.get(label, 0) + 1
                raise
            finally:
                spans[index] = (label, start, clock(), parent)
                stack.pop()
            if is_found is not None and is_found(result):
                found[label] = found.get(label, 0) + 1
            return result

        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = fn.__doc__
        return traced

    def end_op(self) -> None:
        """Forget open spans; an operation stopped at its deadline can leave some."""
        self._stack.clear()

    def layer_metrics(self, models_swept: int) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        spans = self.spans
        self_s = metrics.self_times(spans)
        outer = metrics.outermost_calls(spans)
        calls: dict[str, int] = {}
        for name, *_ in spans:
            calls[name] = calls.get(name, 0) + 1
        info = self._factorize.cache_info()
        out: dict[str, float] = {
            "numtheory.factorize.misses": info.misses,
            "numtheory.factorize.hit_ratio": metrics.ratio(info.hits, info.hits + info.misses),
        }
        for module_name, names in TRACED.items():
            for name in names:
                label = f"{module_name}.{name}"
                out[f"{label}.calls"] = calls.get(label, 0)
                out[f"{label}.self_s"] = self_s.get(label, 0.0)
                out[f"{label}.errors"] = self.errors.get(label, 0)
                if label in FOUND:
                    out[f"{label}.found_ratio"] = metrics.ratio(self.found.get(label, 0), calls.get(label, 0))
        out["graphs.searches.self_s"] = sum(self_s.get(label, 0.0) for label in SEARCHES)
        for label in ("models.model_graph", "exactness.check_n_exact"):
            out[f"{label}.per_model"] = metrics.ratio(outer.get(label, 0), models_swept)
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
