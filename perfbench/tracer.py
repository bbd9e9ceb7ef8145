"""Outside-in layer trace of the chirplink package.

The package modules call one another through module attributes
(``transceiver.modulate``, ``numerics.dft``, ``analysis.snr_post``), so
replacing a public function on its module object with a timing wrapper
catches every call made through the package, with no change to its source.
A ``Tracer`` installs the wrappers, keeps one span per call in memory
(layer, parent span, start, end) and puts the original functions back when
its ``with`` block ends.  Spans are written out only after the traced run.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested (one thread), so the self times of all
spans partition the time covered by the outermost spans; the rest of the
traced wall time is the benchmark's own code (``trace.residual_s``).
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
from time import perf_counter

import numpy as np

#: Wrapped public functions, by package module (the layers).
TRACED = {
    "numerics": ("dft", "bessel_j_sequence", "fresnel", "convolve_full"),
    "fdss": (
        "design_plain",
        "design_linear",
        "design_sinusoidal",
        "design_arbitrary",
        "triangular_trajectory",
    ),
    "transceiver": ("modulate", "demodulate", "qpsk_map", "qpsk_demap"),
    "channel": ("draw", "apply", "freq_response"),
    "analysis": ("snr_post", "theoretical_ber_qpsk", "psd", "papr"),
    "simulation": ("run_ber_sweep", "design_filter"),
}

LABELS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _leading_frames(array) -> int:
    """Frames in a data array: one per row of a 2-d batch, else one.

    Counting rows rather than calls keeps ``simulation.useful_frame_ratio``
    meaningful once ``modulate`` takes a batch of frames per call.
    """
    return int(array.shape[0]) if np.ndim(array) == 2 else 1


#: Work counted at the call boundary: label -> (counter, count from (args, kwargs)).
COUNTERS = {
    "numerics.dft": (
        "numerics.dft.points",
        lambda a, k: int(np.size(a[0] if a else k["values"])),
    ),
    "transceiver.modulate": (
        "transceiver.modulate.frames",
        lambda a, k: _leading_frames((a[0] if a else k["data"]).symbols),
    ),
}


class Tracer:
    """Context manager that times every call to the functions in ``TRACED``."""

    def __init__(self):
        self.label_of = []  # per span: index into LABELS
        self.parent = []  # per span: index of the enclosing span, -1 at the top
        self.start = []
        self.end = []
        self.counts = {name: 0 for name, _ in COUNTERS.values()}
        self._stack = [-1]
        self._originals = []

    def __enter__(self):
        for index, label in enumerate(LABELS):
            mod_name, fn_name = label.split(".")
            module = importlib.import_module(f"chirplink.{mod_name}")
            original = getattr(module, fn_name)
            self._originals.append((module, fn_name, original))
            setattr(module, fn_name, self._wrap(index, original, COUNTERS.get(label)))
        return self

    def __exit__(self, *exc):
        for module, fn_name, original in reversed(self._originals):
            setattr(module, fn_name, original)
        self._originals.clear()
        return False

    def _wrap(self, index, original, counter):
        label_of, parent, start, end = self.label_of, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            span = len(start)
            label_of.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()

        return functools.wraps(original)(traced)

    def summary(self, wall_s: float) -> tuple[dict, list]:
        """Per-function calls/busy/self, per-module self, residual; plus problems.

        ``wall_s`` is the wall time of the traced region, measured by the
        caller around everything the spans can cover.
        """
        label_of = np.asarray(self.label_of, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        self_time = duration - child
        n = len(LABELS)
        calls = np.bincount(label_of, minlength=n)
        busy = np.bincount(label_of, weights=duration, minlength=n)
        own = np.bincount(label_of, weights=self_time, minlength=n)

        metrics = {}
        module_self = {}
        for i, label in enumerate(LABELS):
            metrics[f"{label}.calls"] = (int(calls[i]), "count")
            metrics[f"{label}.busy_s"] = (float(busy[i]), "s")
            metrics[f"{label}.self_s"] = (float(own[i]), "s")
            mod = label.split(".")[0]
            module_self[mod] = module_self.get(mod, 0.0) + float(own[i])
        for mod, value in module_self.items():
            metrics[f"{mod}.self_s"] = (value, "s")
        for name, value in self.counts.items():
            metrics[name] = (int(value), "count")

        self_sum = float(self_time.sum())
        top_sum = float(duration[~nested].sum())
        residual = wall_s - self_sum
        metrics["trace.wall_s"] = (wall_s, "s")
        metrics["trace.residual_s"] = (residual, "s")

        problems = []
        if self._stack != [-1]:
            problems.append("trace: unbalanced span stack after the traced run")
        if len(duration) and duration.min() < 0:
            problems.append("trace: span with negative duration")
        if abs(self_sum - top_sum) > 1e-6:
            problems.append(
                f"trace: self times sum to {self_sum!r} s but outermost spans cover {top_sum!r} s"
            )
        if not 0.0 <= residual <= wall_s:
            problems.append(f"trace: residual {residual!r} s outside [0, wall {wall_s!r} s]")
        return metrics, problems

    def write(self, path) -> None:
        """Write every span as gzip CSV: span, parent, layer, start_s, end_s."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "parent", "layer", "start_s", "end_s"))
            for i, (lab, par, s, e) in enumerate(
                zip(self.label_of, self.parent, self.start, self.end)
            ):
                out.writerow((i, par, LABELS[lab], f"{s - t0:.9f}", f"{e - t0:.9f}"))
