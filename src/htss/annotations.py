"""Conversion of annotations into per-pixel pseudo-label canvases.

A canvas gives each pixel a categorical vector of length L + 1: the
first L slots follow the semantic classes of one label space (slot j is
class index j + 1), the last slot marks the pixel as unlabeled. Pixels
that are unlabeled are excluded from every loss. A canvas holds only its
labeled pixels: rows (n,) their ascending row-major indices, vectors
(n, L+1) their vectors, each with unlabeled mass < 0.5 (checked in
O(nL)). Its .probs is the dense (H, W, L+1) view, with the unlabeled
unit vector at every other pixel; only pseudo-label dumps read it.

Bounding boxes vote: each box adds one integer vote for its class at
every pixel it covers (half-open extents, [x_min, x_max) by
[y_min, y_max)), and the votes are normalized afterwards. Image-level
tags are handled as full-image boxes, which makes the two paths
bit-identical by construction.

Pixel labels need no canvas: a StrongLabel is its own loss target, one
class id per pixel (0 = void), and the loss reads only the target
class's atoms (see lossgrad).

gate_canvas and refine_canvas take one prediction row and one expected
column per row of a canvas and keep a subset of its rows. The votes, the
division, the argmax and the gate all act per row, so the rows hold the
bits a full-raster canvas holds at those pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    """A height x width canvas in row form (see the module docstring)."""

    height: int
    width: int
    rows: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        rows, vec = self.rows, self.vectors
        if rows.ndim != 1 or vec.ndim != 2 or vec.shape[0] != rows.size or vec.shape[1] < 2:
            raise ShapeMismatch(f"canvas needs (n,) rows and (n, L+1) vectors, L >= 1, "
                                f"got {rows.shape} and {vec.shape}")
        if rows.size and (rows[0] < 0 or rows[-1] >= self.height * self.width
                          or np.any(rows[1:] <= rows[:-1])):
            raise DataError(f"canvas rows must ascend within {self.height}x{self.width}")
        if np.any(vec < 0.0):
            raise DataError("canvas has negative entries")
        if np.any(np.abs(reduce_last(np.add, vec) - 1.0) > 1e-6):
            raise DataError("canvas rows must sum to 1 within 1e-6")
        if np.any(vec[:, -1] >= 0.5):
            raise DataError("a labeled canvas row has unlabeled mass >= 0.5")

    @property
    def num_classes(self) -> int:
        return self.vectors.shape[1] - 1

    @property
    def supervised_mask(self) -> np.ndarray:
        mask = np.zeros(self.height * self.width, dtype=bool)
        mask[self.rows] = True
        return mask.reshape(self.height, self.width)

    @property
    def probs(self) -> np.ndarray:
        """The dense (H, W, L+1) view: the unlabeled unit vector outside rows."""
        out = np.zeros((self.height * self.width, self.vectors.shape[1]))
        out[:, -1] = 1.0
        out[self.rows] = self.vectors
        return out.reshape(self.height, self.width, -1)

    @property
    def voted_argmax(self) -> np.ndarray:
        """Class slot holding the most mass at each row, lowest on ties."""
        return self.vectors[:, :self.num_classes].argmax(axis=1)


def canvas_from_boxes(label: WeakLabel, height: int, width: int,
                      num_classes: int) -> PseudoCanvas:
    """Accumulate one unity vote per box over the pixels it covers, then
    normalize over the class slots. Only covered pixels get a row, each
    counted at its position among them; the others are unlabeled. A
    full-width box (every tag) adds its votes to one slice of rows."""
    if height < 1 or width < 1 or num_classes < 1:
        raise DataError("canvas dimensions and class count must be positive")
    label.check_fits(height, width, num_classes)
    covered = np.zeros((height, width), dtype=bool)
    for _, x0, y0, x1, y1 in label.boxes:
        covered[y0:y1, x0:x1] = True
    rows = np.flatnonzero(covered)
    position = np.cumsum(covered).reshape(height, width) - 1  # at covered pixels
    votes = np.zeros((rows.size, num_classes), dtype=np.int64)
    for cls, x0, y0, x1, y1 in label.boxes:
        if x1 - x0 == width:  # its pixels hold one run of positions
            votes[position[y0, 0]:position[y1 - 1, width - 1] + 1, cls - 1] += 1
        else:
            votes[position[y0:y1, x0:x1].ravel(), cls - 1] += 1  # no repeats within a box
    vectors = np.zeros((rows.size, num_classes + 1))
    np.divide(votes, reduce_last(np.add, votes)[:, None], out=vectors[:, :num_classes])
    return PseudoCanvas(height, width, rows, vectors)


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
    unlabeled. probs (n, K) and expected (n,) hold one entry per row of
    the canvas. Argmax ties resolve to the lowest column."""
    n = canvas.rows.size
    if expected.shape != (n,) or probs.shape[0] != n:
        raise ShapeMismatch(
            f"{probs.shape[0]} prediction rows and {expected.shape} expected "
            f"columns for {n} labeled pixels")
    conf = np.take_along_axis(probs, expected[:, None], axis=1)[:, 0]
    keep = (probs.argmax(axis=1) == expected) & (conf >= threshold)
    return replace(canvas, rows=canvas.rows[keep], vectors=canvas.vectors[keep])


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
    if predicted_probs.shape != canvas.vectors[:, :-1].shape:  # (labeled pixels, L)
        raise ShapeMismatch(f"predictions {predicted_probs.shape} do not match the canvas's "
                            f"(labeled pixels, classes) {canvas.vectors[:, :-1].shape}")
    return gate_canvas(canvas, predicted_probs, canvas.voted_argmax, threshold)
