"""Spans around qreality's public functions, for the traced run.

`Tracer.install` replaces each function in LAYERS, in the module that
defines it and in every qreality module that imported it by name, with a
wrapper that records a span. Classes are traced through `__init__`, which
covers construction plus validation. Nothing under src/ changes; a name
that a later version of qreality no longer has is reported with 0 calls.

A span is (id, name, start, end, parent, item). Self time is a span's
duration minus the durations of its direct children; `Tracer.metrics`
derives every sum from the span arrays. Spans stay in memory until
`write_spans` runs after the timed loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = {
    "core": (
        "DensityMatrix", "PureState", "ObservableSpec", "apply_unitary", "post_select",
        "partial_trace", "dephasing_map", "tensor", "fidelity",
    ),
    "measures": ("irreality", "von_neumann_entropy", "mutual_information", "entanglement_entropy"),
    "eraser": ("omega_state", "protocol_stage", "alice_and_bob_project", "irreality_curve"),
    "tomography": (
        "simulate_counts", "load_dataset", "reconstruct_linear", "reconstruct_from_frequencies",
        "project_to_physical", "monte_carlo_irreality", "tomography_end_to_end", "all_settings",
    ),
    "mzi": ("mzi_state", "detector_probabilities", "visibility", "extended_output_analysis"),
    "cli": ("main", "build_parser"),
}

# The benchmark's own spans, the first two names of every Tracer: the item
# as a whole (its self time is the loop's share of the item) and the
# counters computed inside traced calls.
ITEM, ITEM_ID = "bench.item", 0
COUNTERS, COUNTERS_ID = "bench.counters", 1

SPAN_COLUMNS = ("id", "name", "start_ns", "end_ns", "parent", "item")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics listed in BENCHMARK.json, with their units."""
    units = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_ms"] = "ms"
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units.update({
        f"{ITEM}.self_ms": "ms",
        "tomography.resamples": "count",
        "tomography.clipped_frac": "ratio",
        "cli.bytes_written": "bytes",
        "trace.overhead_frac": "ratio",
    })
    return units


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names = [ITEM, COUNTERS] + [
            f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns
        ]
        self.spans = {col: array("q") for col in SPAN_COLUMNS}
        self._stack: list[tuple[int, int, int]] = []  # (span id, name, start)
        self._next_id = 0
        self.item = -1
        self.resamples = 0
        self.estimates = 0
        self.clipped = 0
        self.missing: list[str] = []

    # ---------------------------------------------------------------- spans

    def enter(self, name: int) -> None:
        self._stack.append((self._next_id, name, time.perf_counter_ns()))
        self._next_id += 1

    def leave(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        for col, value in zip(SPAN_COLUMNS, (span_id, name, start, end, parent, self.item)):
            self.spans[col].append(value)

    def _wrap(self, name: int, fn, counter=None):
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                enter(COUNTERS_ID)
                try:
                    counter(args, kwargs)
                finally:
                    leave()
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    # ------------------------------------------------------------- counters

    def _count_resamples(self, signature):
        def count(args, kwargs):
            bound = signature.bind_partial(*args, **kwargs).arguments
            self.resamples += int(bound.get("n_resamples", 0))

        return count

    def _count_clipped(self, args, kwargs):
        """Linear estimates arrive here, one matrix or a stack of them; count
        those with a negative eigenvalue."""
        first = args[0] if args else next(iter(kwargs.values()), None)
        m = np.asarray(first, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            return
        m = m.reshape(-1, *m.shape[-2:])
        lowest = np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2)[:, 0]
        self.estimates += len(lowest)
        self.clipped += int((lowest < 0.0).sum())

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every name in LAYERS wherever qreality modules refer to it."""
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "qreality"]
        for layer, functions in LAYERS.items():
            home = importlib.import_module(f"qreality.{layer}")
            for fn_name in functions:
                name = self.names.index(f"{layer}.{fn_name}")
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                if inspect.isclass(original):
                    original.__init__ = self._wrap(name, original.__init__)
                    continue
                counter = None
                if fn_name == "monte_carlo_irreality":
                    counter = self._count_resamples(inspect.signature(original))
                elif fn_name == "project_to_physical":
                    counter = self._count_clipped
                traced = self._wrap(name, original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    # -------------------------------------------------------------- results

    def metrics(self, kinds: list[str]) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Per-name and per-layer sums, and self ms per item kind and layer.

        `kinds[i]` is the kind of traced item i. The item span encloses
        everything else, so the self times of one item sum to its wall time;
        the loop's share of it is `bench.item.self_ms`.
        """
        cols = {col: np.frombuffer(self.spans[col], dtype=np.int64) for col in SPAN_COLUMNS}
        duration = cols["end_ns"] - cols["start_ns"]
        child = np.zeros(self._next_id, dtype=np.int64)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], duration[has_parent])
        self_ns = duration - child[cols["id"]]
        calls = np.bincount(cols["name"], minlength=len(self.names))
        name_ns = np.bincount(cols["name"], weights=self_ns, minlength=len(self.names))

        out: dict[str, float] = {}
        layer_ns = dict.fromkeys(LAYERS, 0.0)
        for name, n_calls, ns in zip(self.names, calls, name_ns):
            if name not in (ITEM, COUNTERS):
                out[f"{name}.calls"] = int(n_calls)
                layer_ns[layer_of(name)] += ns
            out[f"{name}.self_ms"] = ns / 1e6
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_ms"] = ns / 1e6
        out["tomography.resamples"] = self.resamples
        out["tomography.estimates"] = self.estimates
        out["tomography.clipped_frac"] = self.clipped / self.estimates if self.estimates else 0.0
        out["trace.spans"] = len(duration)

        layers = np.array([layer_of(n) for n in self.names])[cols["name"]]
        item_kind = np.array(kinds)[cols["item"]]
        by_kind: dict[str, dict[str, float]] = {}
        for kind in sorted(set(kinds)):
            in_kind = item_kind == kind
            by_kind[kind] = {
                layer: float(self_ns[in_kind & (layers == layer)].sum()) / 1e6
                for layer in [*LAYERS, "bench"]
            }
        return out, by_kind

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = [self.spans[col] for col in SPAN_COLUMNS]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(SPAN_COLUMNS) + "\n")
            for span_id, name, start, end, parent, item in zip(*cols):
                fh.write(f"{span_id},{self.names[name]},{start},{end},{parent},{item}\n")
