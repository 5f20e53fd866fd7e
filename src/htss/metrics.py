"""Segmentation metrics: confusion counts, IoU, mIoU, Knowledgeability.

The confusion matrix is indexed by class ids of one evaluation label
space (0 = void). Ground-truth void pixels are skipped entirely; the
void row and column never enter any metric. Classes with no ground
truth and no predictions are flagged "not present" and excluded from
mIoU, but contribute an IoU of 0 to Knowledgeability counts.

Knowledgeability scores how many classes a model knows at a capacity c:
for each threshold t in the equidistant set {0, 1/N, ..., (N-1)/N} the
number of classes with IoU strictly greater than t is capped at c and
averaged, normalized by c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, IndexOutOfRange, ShapeMismatch


class ConfusionMatrix:
    """Square count grid: rows = ground truth, columns = prediction."""

    def __init__(self, num_classes: int):
        # num_classes counts non-void classes, same as LabelSpace; the
        # grid itself has an extra row/column for void at index 0
        if num_classes < 1:
            raise DataError("confusion matrix needs at least one non-void class")
        self.num_classes = num_classes
        n = num_classes + 1
        self.counts = np.zeros((n, n), dtype=np.int64)

    def add(self, gt_ids: np.ndarray, pred_ids: np.ndarray) -> None:
        gt = np.asarray(gt_ids)
        pred = np.asarray(pred_ids)
        if gt.shape != pred.shape:
            raise ShapeMismatch(f"gt {gt.shape} vs pred {pred.shape}")
        n = self.num_classes + 1
        for name, ids in (("gt", gt), ("pred", pred)):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise IndexOutOfRange(f"{name} ids must lie in [0, {n})")
        keep = gt.ravel() > 0
        flat = gt.ravel()[keep] * n + pred.ravel()[keep]
        self.counts += np.bincount(flat, minlength=n * n).reshape(n, n)


def iou_per_class(m: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-class IoU and presence flags, both indexed by class id.

    IoU_c = TP / (TP + FP + FN); a class with zero denominator is not
    present and reported with IoU 0. Void (index 0) is never present.
    """
    tp = np.diag(m.counts).astype(np.float64)
    fp = m.counts.sum(axis=0) - tp
    fn = m.counts.sum(axis=1) - tp
    denom = tp + fp + fn
    present = denom > 0
    present[0] = False
    iou = np.zeros(m.num_classes + 1, dtype=np.float64)
    np.divide(tp, denom, out=iou, where=present)
    return iou, present


def miou(m: ConfusionMatrix) -> float:
    iou, present = iou_per_class(m)
    if not present.any():
        return float("nan")
    return float(iou[present].mean())


def json_number(value: float) -> float | None:
    """A metric as a JSON value: None (null) when it is undefined (NaN),
    since bare NaN is not standard JSON."""
    return None if math.isnan(value) else value


def knowledgeability(ious: Iterable[float], c: int, n_t: int) -> float:
    """Capacity-normalized average count of classes above each threshold.

    ious must list one value per evaluated class (pass 0.0 for classes
    that are not present). Thresholds are t / n_t for t = 0..n_t-1 and
    the comparison is strict.
    """
    values = np.asarray(list(ious), dtype=np.float64)
    if c < 1 or n_t < 1:
        raise DataError("capacity and threshold count must be positive")
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise DataError("IoU values must lie in [0, 1]")
    total = 0.0
    for t in range(n_t):
        count = int((values > t / n_t).sum())
        total += min(count, c) / c
    return total / n_t


@dataclass(frozen=True)
class MetricReport:
    """Evaluation result for one dataset and label space."""

    dataset_id: str
    class_names: tuple[str, ...]
    iou: tuple[float, ...]
    present: tuple[bool, ...]
    miou: float
    knowledgeability: tuple[tuple[int, int, float], ...]  # (c, n_t, value)

    @classmethod
    def build(cls, dataset_id: str, class_names: Sequence[str], m: ConfusionMatrix,
              c_values: Sequence[int], n_t: int) -> "MetricReport":
        if len(class_names) != m.num_classes + 1:
            raise ShapeMismatch(
                f"{len(class_names)} class names for {m.num_classes + 1} confusion rows")
        iou, present = iou_per_class(m)
        know_input = [iou[i] if present[i] else 0.0
                      for i in range(1, m.num_classes + 1)]
        entries = tuple(
            (int(c), int(n_t), knowledgeability(know_input, int(c), int(n_t)))
            for c in sorted(set(int(v) for v in c_values)))
        return cls(dataset_id=dataset_id,
                   class_names=tuple(class_names),
                   iou=tuple(float(v) for v in iou),
                   present=tuple(bool(v) for v in present),
                   miou=miou(m),
                   knowledgeability=entries)

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "classes": [
                {"name": n, "iou": self.iou[i], "present": self.present[i]}
                for i, n in enumerate(self.class_names) if i > 0
            ],
            "miou": json_number(self.miou),
            "knowledgeability": [
                {"c": c, "n_t": n, "value": v} for c, n, v in self.knowledgeability
            ],
        }

    def to_text(self) -> str:
        width = max(len(n) for n in self.class_names)
        lines = [f"dataset: {self.dataset_id}"]
        for i, name in enumerate(self.class_names):
            if i == 0:
                continue
            state = f"{self.iou[i]:.4f}" if self.present[i] else "not present"
            lines.append(f"  {name:<{width}}  {state}")
        lines.append(f"  {'mIoU':<{width}}  {self.miou:.4f}")
        for c, n, v in self.knowledgeability:
            lines.append(f"  {f'K(c={c}, n_t={n})':<{width}}  {v:.4f}")
        return "\n".join(lines) + "\n"
