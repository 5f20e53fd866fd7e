import numpy as np
import pytest

from htss.errors import DataError, ShapeMismatch
from htss.metrics import (
    ConfusionMatrix,
    MetricReport,
    iou_per_class,
    knowledgeability,
    miou,
)


def test_confusion_ignores_void_ground_truth():
    m = ConfusionMatrix(num_classes=2)
    gt = np.array([[0, 1], [2, 2]])
    pred = np.array([[1, 1], [2, 1]])
    m.add(gt, pred)
    assert m.counts[0].sum() == 0  # void row never filled
    assert m.counts[1, 1] == 1
    assert m.counts[2, 2] == 1
    assert m.counts[2, 1] == 1


def test_confusion_add_shape_mismatch():
    m = ConfusionMatrix(num_classes=2)
    with pytest.raises(ShapeMismatch):
        m.add(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_confusion_rejects_out_of_range():
    m = ConfusionMatrix(num_classes=2)
    with pytest.raises(DataError):
        m.add(np.array([[3]]), np.array([[1]]))


def test_iou_small_example():
    # two pixels: gt (1, 2), predictions both 1
    m = ConfusionMatrix(num_classes=2)
    m.add(np.array([[1, 2]]), np.array([[1, 1]]))
    iou, present = iou_per_class(m)
    assert iou[1] == pytest.approx(0.5)  # one hit, one false positive
    assert iou[2] == 0.0
    assert list(present) == [False, True, True]
    assert miou(m) == pytest.approx(0.25)


def test_iou_perfect_prediction():
    m = ConfusionMatrix(num_classes=3)
    gt = np.array([[1, 2], [3, 1]])
    m.add(gt, gt)
    iou, present = iou_per_class(m)
    np.testing.assert_allclose(iou[1:], 1.0)
    assert miou(m) == pytest.approx(1.0)


def test_iou_absent_class_not_counted():
    m = ConfusionMatrix(num_classes=3)
    m.add(np.array([[1]]), np.array([[1]]))
    iou, present = iou_per_class(m)
    assert list(present) == [False, True, False, False]
    assert miou(m) == pytest.approx(1.0)


def test_iou_predicted_only_class_counts_as_present():
    # class never in gt but predicted: IoU 0, still included
    m = ConfusionMatrix(num_classes=2)
    m.add(np.array([[1, 1]]), np.array([[1, 2]]))
    iou, present = iou_per_class(m)
    assert present[2]
    assert iou[2] == 0.0
    assert miou(m) == pytest.approx((0.5 + 0.0) / 2.0)


def test_miou_empty_matrix_is_nan():
    assert np.isnan(miou(ConfusionMatrix(num_classes=2)))


def test_knowledgeability_worked_example():
    # IoUs {0.5, 0.25, 0.75}, capacity 2, 4 thresholds (0, .25, .5, .75):
    # strict > per threshold, per-threshold count capped at 2, / (2 * 4)
    got = knowledgeability([0.5, 0.25, 0.75], c=2, n_t=4)
    assert got == pytest.approx(0.625)


def test_knowledgeability_zero_iou_counts_at_zero_threshold():
    # threshold 0 requires iou > 0
    assert knowledgeability([0.0, 0.0], c=2, n_t=4) == 0.0


def test_knowledgeability_bounds_and_cap():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        ious = rng.random(n)
        c = int(rng.integers(1, 10))
        n_t = int(rng.integers(1, 12))
        k = knowledgeability(ious, c=c, n_t=n_t)
        assert 0.0 <= k <= 1.0
        assert k <= min(n, c) / c + 1e-12


def test_knowledgeability_monotone_in_capacity_count():
    # adding capacity can only reveal more classes per threshold, but the
    # value is normalized by c, so perfect scores stay 1
    ious = [1.0] * 6
    for c in (1, 2, 3, 6):
        assert knowledgeability(ious, c=c, n_t=5) == pytest.approx(1.0)
    # capacity above the class count strictly dilutes
    assert knowledgeability(ious, c=12, n_t=5) == pytest.approx(0.5)


def test_knowledgeability_rejects_bad_args():
    with pytest.raises(DataError):
        knowledgeability([0.5], c=0, n_t=4)
    with pytest.raises(DataError):
        knowledgeability([0.5], c=2, n_t=0)


def test_report_build_and_serialize():
    m = ConfusionMatrix(num_classes=2)
    m.add(np.array([[1, 2]]), np.array([[1, 1]]))
    rep = MetricReport.build("d0", ("void", "car", "person"), m,
                             c_values=(2,), n_t=4)
    assert rep.dataset_id == "d0"
    assert rep.miou == pytest.approx(0.25)
    doc = rep.to_dict()
    by_name = {row["name"]: row for row in doc["classes"]}
    assert by_name["car"]["iou"] == pytest.approx(0.5)
    assert by_name["person"]["present"] is True
    assert "void" not in by_name
    # know input is (0.5, 0.0): thresholds 0 and .25 count one class each
    assert doc["knowledgeability"][0]["c"] == 2
    assert doc["knowledgeability"][0]["value"] == pytest.approx(0.25)
    text = rep.to_text()
    assert "car" in text and "miou" in text.lower()


def test_report_class_name_count_checked():
    m = ConfusionMatrix(num_classes=2)
    with pytest.raises(ShapeMismatch):
        MetricReport.build("d0", ("void", "car"), m, c_values=(), n_t=4)
