"""Outside-in spans around the public functions of the htss package.

The tracer replaces each traced function with a timing wrapper at every
module attribute of the package that refers to it, so calls made
through `from .x import f` aliases are caught as well as calls through
the home module. Methods are wrapped on their class. Nothing inside the
package is edited: `uninstall` puts every original object back.

Each span is [name, start, end, parent index]. Spans stay in memory;
`write_spans` dumps them when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PIXEL_KINDS = frozenset({"pixel_dense", "pixel_coarse"})


def _forward_flops(args, result, parent) -> float:
    """Computed FLOPs of one forward pass: two 3x3 convs and the head."""
    params, image = args[0], args[1]
    h, w = image.shape[:2]
    c, wd, out = params.in_channels, params.width, params.out_channels
    return 2.0 * h * w * (9 * c * wd + 9 * wd * wd + wd * out)


def _backward_flops(args, result, parent) -> float:
    """Computed FLOPs of one backward pass: dWh, dA2, dW2, dCols2 and dW1."""
    cache = args[0]
    params = cache.params
    h, w = cache.shape
    c, wd, out = params.in_channels, params.width, params.out_channels
    return 2.0 * h * w * (2 * wd * out + 18 * wd * wd + 9 * c * wd)


def _weak_kept(args, result, parent) -> int:
    """Supervised pixels of the box/tag targets handed to batch_loss."""
    return sum(int(t.supervised_mask.sum()) for t, _, _, kind in args[0]
               if kind not in PIXEL_KINDS)


def _weak_raw(args, result, parent) -> int:
    """Supervised pixels of a raw box/tag canvas, counted only when training
    built it: pseudolabel builds canvases too, and tag canvases delegate to
    the box path, which must not count twice."""
    return int(result.supervised_mask.sum()) if parent == "model.train_loop" else 0


def _nbytes(array) -> int:
    return np.asarray(array).nbytes


# span name -> (home "module:qualname", counter name or None,
#               count(args, result, parent span name) or None)
TARGETS: dict[str, tuple] = {
    "model.forward": ("htss.model:forward", "model.flops", _forward_flops),
    "model.backward": ("htss.model:backward", "model.flops", _backward_flops),
    "model.sgd_step": ("htss.model:sgd_step", None, None),
    "model.train_loop": ("htss.model:train_loop", None, None),
    "lossgrad.batch_loss": ("htss.lossgrad:batch_loss", "gate.kept_px", _weak_kept),
    "lossgrad.softmax_atoms": ("htss.lossgrad:softmax_atoms", None, None),
    "lossgrad.accumulate_groups": ("htss.lossgrad:accumulate_groups", None, None),
    "lossgrad.group_matrix": ("htss.lossgrad:group_matrix", None, None),
    "lossgrad.merge_subclass_predictions": (
        "htss.lossgrad:merge_subclass_predictions", None, None),
    "annotations.strong_to_canvas": ("htss.annotations:strong_to_canvas", None, None),
    "annotations.canvas_from_boxes": ("htss.annotations:canvas_from_boxes",
                                      "gate.raw_px", _weak_raw),
    "annotations.canvas_from_tags": ("htss.annotations:canvas_from_tags",
                                     "gate.raw_px", _weak_raw),
    "annotations.refine_canvas": ("htss.annotations:refine_canvas", None, None),
    "taxonomy.build_semantic_atoms": ("htss.taxonomy:build_semantic_atoms", None, None),
    "taxonomy.build_group_sets": ("htss.taxonomy:build_group_sets", None, None),
    "taxonomy.partition_atoms": ("htss.taxonomy:partition_atoms", None, None),
    "taxonomy.validate_taxonomy": ("htss.taxonomy:validate_taxonomy", None, None),
    "taxonomy.semantic_closure": ("htss.taxonomy:semantic_closure", None, None),
    "formats.read_raster": ("htss.formats:read_raster", "formats.read_raster.bytes",
                            lambda args, result, parent: _nbytes(result)),
    "formats.write_raster": ("htss.formats:write_raster", "formats.write_raster.bytes",
                             lambda args, result, parent: _nbytes(args[1])),
    "formats.read_weak_label": ("htss.formats:read_weak_label", None, None),
    "formats.write_weak_label": ("htss.formats:write_weak_label", None, None),
    "formats.read_array_file": ("htss.formats:read_array_file", None, None),
    "formats.write_array_file": ("htss.formats:write_array_file", None, None),
    "synthgen.generate_scene": ("htss.synthgen:generate_scene", None, None),
    "synthgen.emit_dataset": ("htss.synthgen:emit_dataset", None, None),
    "synthgen.load_dataset": ("htss.synthgen:load_dataset", None, None),
    "metrics.confusion_add": ("htss.metrics:ConfusionMatrix.add", None, None),
    "metrics.report_build": ("htss.metrics:MetricReport.build", None, None),
}


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Call fn() inside a span; for spans the benchmark opens itself."""
        return self._wrap(name, fn, None, None)()

    def _wrap(self, name, fn, counter, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counters[counter] += count(args, result,
                                           spans[parent][0] if parent >= 0 else None)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target at every htss module attribute that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "htss" or n.startswith("htss.")) and m is not None]
        for name, (home, counter, count) in TARGETS.items():
            modname, qualname = home.split(":")
            owner = importlib.import_module(modname)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method or classmethod, wrapped once on its class
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter, count))
                else:
                    new = self._wrap(name, raw, counter, count)
                self._patch(owner, attr, raw, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, new) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time), self time excluding child spans."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), child in zip(self.spans, inner):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + end - start - child)
        return out

    def write_spans(self, path, label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{label},{i},{name},{start!r},{end!r},{parent}\n")
