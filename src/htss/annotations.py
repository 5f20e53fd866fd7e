"""Conversion of annotations into per-pixel pseudo-label canvases.

A canvas stores, per pixel, a categorical vector of length L + 1: the
first L slots follow the semantic classes of one label space (slot j is
class index j + 1), the last slot marks the pixel as unlabeled. Pixels
that are unlabeled are excluded from every loss.

Bounding boxes vote: each box adds one integer vote for its class at
every pixel it covers (half-open extents, [x_min, x_max) by
[y_min, y_max)), and the votes are normalized afterwards. Image-level
tags are handled as full-image boxes, which makes the two paths
bit-identical by construction.

Pixel labels need no canvas: a StrongLabel is its own loss target, one
class id per pixel (0 = void), and the loss reads only the target
class's atoms (see lossgrad).

Weak items are gated on their voted rows only: gate_canvas and
refine_canvas take one prediction row and one expected column per
labeled pixel, in row-major order. The gate is per pixel, so this keeps
a full-raster gate's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ShapeMismatch
from .taxonomy import BBOX


def reduce_last(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc.reduce(x, axis=-1) with the same bits, for np.add or np.maximum.

    Below 8 trailing entries the slices x[..., k] are folded in index
    order: K whole-array calls cost less than numpy's per-pixel loop, and
    numpy adds in that order there. From 8 on numpy sums pairwise (other
    bits) and its own loop wins, so it is called. A sum starts from
    x[..., 0] + 0, not a copy: numpy starts from +0.0, so an all -0.0
    row sums to +0.0."""
    k = x.shape[-1]
    if not 0 < k < 8:
        return ufunc.reduce(x, axis=-1)
    out = x[..., 0] + 0 if ufunc is np.add else x[..., 0].copy()
    for i in range(1, k):
        ufunc(out, x[..., i], out=out)
    return out


@dataclass(frozen=True)
class StrongLabel:
    """Dense per-pixel class ids over one label space (0 = void)."""

    class_ids: np.ndarray
    num_classes: int

    def __post_init__(self):
        ids = self.class_ids
        if ids.ndim != 2:
            raise ShapeMismatch(f"class id grid must be 2-d, got {ids.shape}")
        if not np.issubdtype(ids.dtype, np.integer):
            raise DataError("class ids must be integers")
        if self.num_classes < 1:
            raise DataError("need at least one semantic class")
        if ids.size and (ids.min() < 0 or ids.max() > self.num_classes):
            raise DataError(
                f"class ids must lie in [0, {self.num_classes}], "
                f"found [{ids.min()}, {ids.max()}]")

    @property
    def height(self) -> int:
        return self.class_ids.shape[0]

    @property
    def width(self) -> int:
        return self.class_ids.shape[1]

    @property
    def supervised_mask(self) -> np.ndarray:
        return self.class_ids > 0


@dataclass(frozen=True)
class WeakLabel:
    """Boxes (class_index, x_min, y_min, x_max, y_max) and tag class indices."""

    boxes: tuple[tuple[int, int, int, int, int], ...] = ()
    tags: tuple[int, ...] = ()

    def __post_init__(self):
        for box in self.boxes:
            if len(box) != 5:
                raise DataError(f"box record must have 5 fields, got {box!r}")
            cls, x0, y0, x1, y1 = box
            if cls < 1:
                raise DataError(f"box class index must be non-void (>= 1), got {cls}")
            if x0 >= x1 or y0 >= y1:
                raise DataError(f"box {box!r} has non-positive extent")
            if x0 < 0 or y0 < 0:
                raise DataError(f"box {box!r} has negative coordinates")
        for t in self.tags:
            if t < 1:
                raise DataError(f"tag class index must be non-void (>= 1), got {t}")
        # canonical order, duplicates collapsed
        object.__setattr__(self, "tags", tuple(sorted(set(self.tags))))

    def check_fits(self, height: int, width: int, num_classes: int) -> None:
        """Reject a box outside a height x width image, or a box or tag
        class index beyond a label space of num_classes classes."""
        for cls, x0, y0, x1, y1 in self.boxes:
            if cls > num_classes:
                raise DataError(
                    f"box class index {cls} outside label space of size {num_classes}")
            if x1 > width or y1 > height:
                raise DataError(
                    f"box ({x0}, {y0}, {x1}, {y1}) exceeds {width}x{height} image")
        for t in self.tags:
            if t > num_classes:
                raise DataError(
                    f"tag class index {t} outside label space of size {num_classes}")


@dataclass(frozen=True)
class PseudoCanvas:
    """Per-pixel categorical vectors of length L + 1; slot L = unlabeled."""

    probs: np.ndarray

    def __post_init__(self):
        p = self.probs
        if p.ndim != 3 or p.shape[2] < 2:
            raise ShapeMismatch(f"canvas must be (H, W, L+1) with L >= 1, got {p.shape}")
        if np.any(p < 0.0):
            raise DataError("canvas has negative entries")
        if np.any(np.abs(reduce_last(np.add, p) - 1.0) > 1e-6):
            raise DataError("canvas rows must sum to 1 within 1e-6")

    @classmethod
    def _of_checked_rows(cls, probs: np.ndarray) -> "PseudoCanvas":
        """A canvas whose rows are rows of a checked canvas or the
        unlabeled unit vector: valid by construction, so not checked again."""
        canvas = object.__new__(cls)
        object.__setattr__(canvas, "probs", probs)
        return canvas

    @property
    def num_classes(self) -> int:
        return self.probs.shape[2] - 1

    @property
    def height(self) -> int:
        return self.probs.shape[0]

    @property
    def width(self) -> int:
        return self.probs.shape[1]

    @property
    def unlabeled(self) -> np.ndarray:
        return self.probs[:, :, self.num_classes]

    @property
    def supervised_mask(self) -> np.ndarray:
        return self.unlabeled < 0.5

    @cached_property
    def voted_rows(self) -> np.ndarray:
        """Row-major indices of the labeled pixels, computed once."""
        return np.flatnonzero(self.supervised_mask)

    @property
    def voted_argmax(self) -> np.ndarray:
        """Class slot holding the most mass at each voted row, lowest on ties."""
        flat = self.probs.reshape(-1, self.num_classes + 1)
        return flat[self.voted_rows, :self.num_classes].argmax(axis=1)


def canvas_from_boxes(label: WeakLabel, height: int, width: int,
                      num_classes: int) -> PseudoCanvas:
    """Accumulate one unity vote per box over the pixels it covers, then
    normalize over the class slots. Pixels with zero votes get the
    unlabeled vector."""
    if height < 1 or width < 1 or num_classes < 1:
        raise DataError("canvas dimensions and class count must be positive")
    label.check_fits(height, width, num_classes)
    votes = np.zeros((height, width, num_classes), dtype=np.int64)
    for cls, x0, y0, x1, y1 in label.boxes:
        votes[y0:y1, x0:x1, cls - 1] += 1
    total = reduce_last(np.add, votes)
    covered = total > 0
    probs = np.zeros((height, width, num_classes + 1), dtype=np.float64)
    np.divide(votes, total[:, :, None], out=probs[:, :, :num_classes],
              where=covered[:, :, None])
    probs[:, :, num_classes] = np.where(covered, 0.0, 1.0)
    return PseudoCanvas(probs)


def canvas_from_tags(label: WeakLabel, height: int, width: int,
                     num_classes: int) -> PseudoCanvas:
    """Tags are full-image boxes; delegates to the box path."""
    as_boxes = WeakLabel(boxes=tuple((t, 0, 0, width, height) for t in label.tags))
    return canvas_from_boxes(as_boxes, height, width, num_classes)


def weak_canvas(label: WeakLabel, kind: str, height: int, width: int,
                num_classes: int) -> PseudoCanvas:
    """Canvas of a box or tag label, chosen by the dataset's supervision kind."""
    if kind == BBOX:
        return canvas_from_boxes(label, height, width, num_classes)
    return canvas_from_tags(label, height, width, num_classes)


def strong_to_canvas(label: StrongLabel, num_classes: int) -> StrongLabel:
    """The loss target of a pixel label: the label itself, once its label
    space is checked to hold num_classes classes."""
    if num_classes != label.num_classes:
        raise ShapeMismatch(
            f"label has {label.num_classes} classes, target asked for {num_classes}")
    return label


def gate_canvas(canvas: PseudoCanvas, probs: np.ndarray, expected: np.ndarray,
                threshold: float) -> PseudoCanvas:
    """The confidence gate: a labeled pixel keeps its canvas vector iff
    the argmax of its prediction row is its expected column and the
    probability there is >= threshold; every other pixel becomes
    unlabeled. probs (n, K) and expected (n,) hold one entry per labeled
    pixel, in row-major order. Argmax ties resolve to the lowest column."""
    num = canvas.num_classes
    rows = canvas.voted_rows
    if expected.shape != rows.shape or probs.shape[0] != rows.size:
        raise ShapeMismatch(
            f"{probs.shape[0]} prediction rows and {expected.shape} expected "
            f"columns for {rows.size} labeled pixels")
    conf = np.take_along_axis(probs, expected[:, None], axis=1)[:, 0]
    keep = rows[(probs.argmax(axis=1) == expected) & (conf >= threshold)]
    out = np.zeros(canvas.probs.shape)
    out[:, :, num] = 1.0
    out.reshape(-1, num + 1)[keep] = canvas.probs.reshape(-1, num + 1)[keep]
    return PseudoCanvas._of_checked_rows(out)


def refine_canvas(canvas: PseudoCanvas, predicted_probs: np.ndarray,
                  threshold: float) -> PseudoCanvas:
    """Keep a pixel's canvas vector only where the prediction agrees.

    A labeled pixel survives iff the argmax of its row of predicted_probs
    (n, L), one row per labeled pixel, equals the argmax of its canvas
    class slots and the predicted probability of that class is
    >= threshold; every other pixel becomes unlabeled. Argmax ties
    resolve to the lowest class index on both sides.
    """
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"refine threshold must lie in [0, 1], got {threshold}")
    num = canvas.num_classes
    labeled = canvas.voted_rows.size
    if predicted_probs.shape != (labeled, num):
        raise ShapeMismatch(
            f"predictions {predicted_probs.shape} do not match the canvas's "
            f"{labeled} labeled pixels over {num} classes")
    return gate_canvas(canvas, predicted_probs, canvas.voted_argmax, threshold)
