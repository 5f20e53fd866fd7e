import numpy as np
import pytest

from htss.annotations import (
    PseudoCanvas,
    StrongLabel,
    WeakLabel,
    canvas_from_boxes,
    canvas_from_tags,
    gate_canvas,
    reduce_last,
    refine_canvas,
    strong_to_canvas,
)
from htss.errors import DataError, ShapeMismatch

from oracles import (
    TRAILING_LENGTHS,
    boxes_full_raster_oracle,
    canvas_of_raster,
    gate_full_raster_oracle,
    trailing_axis_arrays,
)


def same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("k", TRAILING_LENGTHS)
def test_reduce_last_matches_numpy_bit_for_bit(k):
    for seed in range(5):
        for x in trailing_axis_arrays(k, seed):
            assert same_bits(reduce_last(np.add, x), x.sum(axis=-1))
            assert same_bits(reduce_last(np.maximum, x), x.max(axis=-1))
    votes = np.random.default_rng(k).integers(0, 4, (4, 5, k))
    assert same_bits(reduce_last(np.add, votes), votes.sum(axis=-1))


def test_strong_label_validates_range():
    StrongLabel(class_ids=np.array([[0, 2], [1, 0]]), num_classes=2)
    with pytest.raises(DataError):
        StrongLabel(class_ids=np.array([[0, 3]]), num_classes=2)
    with pytest.raises(DataError):
        StrongLabel(class_ids=np.array([[-1, 0]]), num_classes=2)


def test_weak_label_rejects_bad_boxes():
    with pytest.raises(DataError):
        WeakLabel(boxes=((0, 0, 0, 1, 1),))  # void class
    with pytest.raises(DataError):
        WeakLabel(boxes=((1, 2, 0, 2, 1),))  # empty extent
    with pytest.raises(DataError):
        WeakLabel(boxes=((1, -1, 0, 2, 1),))


def test_canvas_rows_must_be_stochastic():
    bad = np.zeros((1, 1, 3))
    bad[0, 0] = (0.5, 0.2, 0.2)
    with pytest.raises(DataError):
        canvas_of_raster(bad)


def test_box_votes_normalize():
    # two boxes of class 1 and one of class 2 over the same pixel, L = 3
    lab = WeakLabel(boxes=((1, 0, 0, 1, 1), (1, 0, 0, 1, 1), (2, 0, 0, 1, 1)))
    canvas = canvas_from_boxes(lab, height=1, width=1, num_classes=3)
    np.testing.assert_allclose(canvas.probs[0, 0],
                               [2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0])
    assert canvas.supervised_mask[0, 0]


def test_box_coverage_is_half_open():
    lab = WeakLabel(boxes=((1, 1, 0, 3, 2),))  # x in [1,3), y in [0,2)
    canvas = canvas_from_boxes(lab, height=3, width=4, num_classes=1)
    covered = canvas.probs[:, :, 0] == 1.0
    expect = np.zeros((3, 4), dtype=bool)
    expect[0:2, 1:3] = True
    assert np.array_equal(covered, expect)


def test_unvoted_pixels_are_unlabeled():
    lab = WeakLabel(boxes=((2, 0, 0, 1, 1),))
    canvas = canvas_from_boxes(lab, height=2, width=2, num_classes=2)
    np.testing.assert_array_equal(canvas.probs[:, :, 2],
                                  [[0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(canvas.probs[0, 0], [0.0, 1.0, 0.0])
    assert not canvas.supervised_mask[1, 1]


def test_box_outside_raster_rejected():
    lab = WeakLabel(boxes=((1, 0, 0, 5, 1),))
    with pytest.raises(DataError):
        canvas_from_boxes(lab, height=2, width=4, num_classes=1)


def test_box_class_above_space_rejected():
    lab = WeakLabel(boxes=((3, 0, 0, 1, 1),))
    with pytest.raises(DataError):
        canvas_from_boxes(lab, height=1, width=1, num_classes=2)


def test_tags_match_full_frame_boxes_exactly():
    tags = WeakLabel(tags=(3, 1))
    boxes = WeakLabel(boxes=((3, 0, 0, 5, 4), (1, 0, 0, 5, 4)))
    a = canvas_from_tags(tags, height=4, width=5, num_classes=3)
    b = canvas_from_boxes(boxes, height=4, width=5, num_classes=3)
    assert a.probs.dtype == b.probs.dtype
    assert np.array_equal(a.probs, b.probs)
    np.testing.assert_allclose(a.probs[2, 2], [0.5, 0.0, 0.5, 0.0])


def test_empty_tags_everything_unlabeled():
    canvas = canvas_from_tags(WeakLabel(), height=2, width=2, num_classes=2)
    assert np.all(canvas.probs[:, :, 2] == 1.0)
    assert not canvas.supervised_mask.any()


def test_strong_to_canvas_one_hot():
    lab = StrongLabel(class_ids=np.array([[0, 1], [2, 2]], dtype=np.int64), num_classes=2)
    target = strong_to_canvas(lab, num_classes=2)
    assert target is lab  # the label is its own target, no copy
    assert (target.height, target.width) == (2, 2)
    np.testing.assert_array_equal(target.supervised_mask, [[False, True], [True, True]])
    with pytest.raises(ShapeMismatch):
        strong_to_canvas(lab, num_classes=3)


def _canvas_1px(vec):
    return canvas_of_raster(np.array(vec, dtype=np.float64).reshape(1, 1, -1))


def test_refine_keeps_confident_agreement():
    canvas = _canvas_1px([1.0, 0.0, 0.0])
    pred = np.array([[[0.95, 0.05]]])
    out = refine_canvas(canvas, pred[canvas.supervised_mask], threshold=0.9)
    np.testing.assert_array_equal(out.probs[0, 0], [1.0, 0.0, 0.0])


def test_refine_drops_low_confidence():
    canvas = _canvas_1px([1.0, 0.0, 0.0])
    pred = np.array([[[0.85, 0.15]]])
    out = refine_canvas(canvas, pred[canvas.supervised_mask], threshold=0.9)
    np.testing.assert_array_equal(out.probs[0, 0], [0.0, 0.0, 1.0])


def test_refine_threshold_is_inclusive():
    canvas = _canvas_1px([1.0, 0.0, 0.0])
    pred = np.array([[[0.9, 0.1]]])
    out = refine_canvas(canvas, pred[canvas.supervised_mask], threshold=0.9)
    np.testing.assert_array_equal(out.probs[0, 0], [1.0, 0.0, 0.0])


def test_refine_drops_confident_disagreement():
    canvas = _canvas_1px([1.0, 0.0, 0.0])
    pred = np.array([[[0.01, 0.99]]])
    out = refine_canvas(canvas, pred[canvas.supervised_mask], threshold=0.9)
    np.testing.assert_array_equal(out.probs[0, 0], [0.0, 0.0, 1.0])


def test_refine_leaves_unlabeled_alone():
    canvas = _canvas_1px([0.0, 0.0, 1.0])
    pred = np.array([[[0.99, 0.01]]])
    out = refine_canvas(canvas, pred[canvas.supervised_mask], threshold=0.5)
    np.testing.assert_array_equal(out.probs[0, 0], [0.0, 0.0, 1.0])


def test_refine_argmax_ties_take_lowest_class():
    # prediction ties between both classes: argmax picks class slot 0
    canvas = _canvas_1px([0.0, 1.0, 0.0])
    pred = np.array([[[0.5, 0.5]]])
    out = refine_canvas(canvas, pred[canvas.supervised_mask], threshold=0.4)
    np.testing.assert_array_equal(out.probs[0, 0], [0.0, 0.0, 1.0])


def test_refine_shape_mismatch():
    canvas = _canvas_1px([1.0, 0.0, 0.0])
    # one prediction row per labeled pixel, one column per class
    with pytest.raises(ShapeMismatch):
        refine_canvas(canvas, np.zeros((1, 3)), threshold=0.5)
    with pytest.raises(ShapeMismatch):
        refine_canvas(canvas, np.zeros((2, 2)), threshold=0.5)
    with pytest.raises(ShapeMismatch):  # a full (H, W, L) raster
        refine_canvas(canvas, np.zeros((1, 1, 2)), threshold=0.5)


def test_refine_rows_stay_original_or_unlabeled():
    rng = np.random.default_rng(11)
    for _ in range(50):
        h, w, n = (int(rng.integers(1, 5)) for _ in range(3))
        n += 1
        raw = rng.random((h, w, n + 1))
        # force some unlabeled rows
        drop = rng.random((h, w)) < 0.3
        raw[drop] = 0.0
        raw[drop, n] = 1.0
        raw[~drop, n] = 0.0
        probs = raw / raw.sum(axis=2, keepdims=True)
        canvas = canvas_of_raster(probs)
        predraw = rng.random((h, w, n))
        pred = predraw / predraw.sum(axis=2, keepdims=True)
        thr = float(rng.random())
        out = refine_canvas(canvas, pred[canvas.supervised_mask], thr)
        unl = np.zeros(n + 1)
        unl[n] = 1.0
        for i in range(h):
            for j in range(w):
                row = out.probs[i, j]
                assert (np.array_equal(row, probs[i, j])
                        or np.array_equal(row, unl))


def test_refine_monotone_in_threshold():
    rng = np.random.default_rng(5)
    raw = rng.random((6, 6, 4))
    probs = raw / raw.sum(axis=2, keepdims=True)
    canvas = canvas_of_raster(probs)
    predraw = rng.random((6, 6, 3))
    pred = predraw / predraw.sum(axis=2, keepdims=True)
    kept = [refine_canvas(canvas, pred[canvas.supervised_mask], t).supervised_mask.sum()
            for t in (0.0, 0.3, 0.6, 0.9, 1.0)]
    assert all(a >= b for a, b in zip(kept, kept[1:]))


def test_gate_with_parent_columns_matches_pixel_loop():
    # the two-head refinement: the expected column is the parent slot of
    # each pixel's canvas class, over a distribution with more columns
    rng = np.random.default_rng(23)
    for _ in range(50):
        h, w = (int(rng.integers(1, 5)) for _ in range(2))
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        raw = rng.random((h, w, n + 1))
        raw[:, :, n] = np.where(rng.random((h, w)) < 0.3, 5.0, 0.0)
        canvas = canvas_of_raster(raw / raw.sum(axis=2, keepdims=True))
        parent_slots = rng.integers(0, k, size=n)
        predraw = rng.random((h, w, k))
        pred = predraw / predraw.sum(axis=2, keepdims=True)
        thr = float(rng.random())
        out = gate_canvas(canvas, pred[canvas.supervised_mask],
                          parent_slots[canvas.voted_argmax], thr)
        for i in range(h):
            for j in range(w):
                row = canvas.probs[i, j]
                col = parent_slots[int(np.argmax(row[:n]))]
                keep = (row[n] < 0.5 and int(np.argmax(pred[i, j])) == col
                        and pred[i, j, col] >= thr)
                want = row if keep else np.eye(n + 1)[n]
                assert np.array_equal(out.probs[i, j], want)


def _gate_instance(rng):
    """A canvas mixing labeled, partly labeled (unlabeled slot in (0, 0.5)),
    unsupervised partial (in [0.5, 1)) and unlabeled rows, with integer
    votes so class slots tie, and a quantized prediction over k columns
    with argmax ties. Returns (canvas, pred, k)."""
    h, w = (int(rng.integers(1, 6)) for _ in range(2))
    n, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    votes = rng.integers(0, 3, (h, w, n)).astype(np.float64)
    votes[votes.sum(axis=2) == 0, 0] = 1.0
    unl = rng.choice([0.0, 0.25, 0.49, 0.5, 0.75, 1.0], (h, w))
    probs = np.empty((h, w, n + 1))
    probs[:, :, :n] = votes / votes.sum(axis=2, keepdims=True) * (1.0 - unl)[:, :, None]
    probs[:, :, n] = unl
    raw = rng.integers(1, 5, (h, w, k)).astype(np.float64)
    return canvas_of_raster(probs), raw / raw.sum(axis=2, keepdims=True), k


def test_row_gate_matches_full_raster_oracle():
    # the row forms of refine_canvas and gate_canvas (expected = class or
    # parent column) against the full-raster gate, bit for bit, at
    # thresholds on the prediction values themselves and at 0 and 1
    rng = np.random.default_rng(31)
    for _ in range(300):
        canvas, pred, k = _gate_instance(rng)
        n = canvas.num_classes
        rows = pred[canvas.supervised_mask]
        class_argmax = canvas.probs[:, :, :n].argmax(axis=2)
        for thr in [0.0, 1.0, float(rng.choice(pred.ravel()))]:
            expected = rng.integers(0, k, n)[class_argmax]
            voted = expected.reshape(-1)[canvas.rows]
            got = gate_canvas(canvas, rows, voted, thr).probs
            want = gate_full_raster_oracle(canvas.probs, pred, expected, thr)
            assert same_bits(got, want)
            canvas_of_raster(got)  # the gated dense view is a valid canvas raster
            if k == n:
                got = refine_canvas(canvas, rows, thr).probs
                want = gate_full_raster_oracle(canvas.probs, pred, class_argmax, thr)
                assert same_bits(got, want)


def test_gate_takes_one_expected_column_per_voted_row():
    canvas = canvas_of_raster(np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                                          [[0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]]))
    np.testing.assert_array_equal(canvas.rows, [0, 2, 3])
    np.testing.assert_array_equal(canvas.voted_argmax, [0, 1, 0])
    pred = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
    out = gate_canvas(canvas, pred, np.array([0, 1, 1]), 0.5)
    np.testing.assert_array_equal(out.supervised_mask, [[True, False], [True, False]])
    with pytest.raises(ShapeMismatch):  # a full (H, W) raster of columns
        gate_canvas(canvas, pred, np.zeros((2, 2), dtype=np.intp), 0.5)
    with pytest.raises(ShapeMismatch):
        gate_canvas(canvas, pred[:2], np.array([0, 1, 1]), 0.5)


def test_fuzz_canvases_are_valid(seed=20260822):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        num = int(rng.integers(1, 5))
        boxes = []
        for _ in range(int(rng.integers(0, 5))):
            x0 = int(rng.integers(0, w))
            y0 = int(rng.integers(0, h))
            x1 = int(rng.integers(x0 + 1, w + 1))
            y1 = int(rng.integers(y0 + 1, h + 1))
            boxes.append((int(rng.integers(1, num + 1)), x0, y0, x1, y1))
        canvas = canvas_from_boxes(WeakLabel(boxes=tuple(boxes)), h, w, num)
        sums = canvas.probs.sum(axis=2)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)
        assert np.all(canvas.probs >= 0.0)
        # unlabeled exactly where no box covers the pixel
        votes = np.zeros((h, w), dtype=bool)
        for cls, x0, y0, x1, y1 in boxes:
            votes[y0:y1, x0:x1] = True
        np.testing.assert_array_equal(canvas.probs[:, :, num] == 1.0, ~votes)


def test_row_canvas_checks_only_its_rows():
    vec = np.array([[0.5, 0.5, 0.0], [0.0, 0.75, 0.25]])
    canvas = PseudoCanvas(2, 3, np.array([1, 5]), vec)
    np.testing.assert_array_equal(canvas.supervised_mask,
                                  [[False, True, False], [False, False, True]])
    assert canvas.probs[0, 0].tolist() == [0.0, 0.0, 1.0]
    assert canvas.probs.reshape(-1, 3)[[1, 5]].tobytes() == vec.tobytes()
    empty = PseudoCanvas(2, 3, np.zeros(0, dtype=np.intp), np.zeros((0, 3)))
    assert not empty.supervised_mask.any() and empty.num_classes == 2
    bad_rows = [np.array([5, 1]), np.array([1, 1]), np.array([-1, 5]), np.array([1, 6])]
    for rows in bad_rows:
        with pytest.raises(DataError):
            PseudoCanvas(2, 3, rows, vec)
    bad_vectors = [[[-0.1, 1.1, 0.0]], [[0.5, 0.2, 0.2]], [[0.0, 0.5, 0.5]],
                   [[0.0, 0.0, 1.0]]]
    for v in bad_vectors:
        with pytest.raises(DataError):
            PseudoCanvas(2, 3, np.array([0]), np.array(v))
    for rows, v in [(np.array([0, 1]), vec[:1]), (np.array([[0]]), vec[:1]),
                    (np.array([0]), np.ones((1, 1))), (np.array([0]), vec[0])]:
        with pytest.raises(ShapeMismatch):
            PseudoCanvas(2, 3, rows, v)


def _fuzz_weak_label(rng, h, w, num):
    """Boxes that overlap, touch the edges, span the whole width or the
    whole frame (or none at all), and tags with repeats."""
    boxes = []
    for _ in range(int(rng.integers(0, 6))):
        cls = int(rng.integers(1, num + 1))
        kind = rng.random()
        if kind < 0.15:
            boxes.append((cls, 0, 0, w, h))
        elif kind < 0.3:  # a band of whole rows
            y0 = int(rng.integers(0, h))
            boxes.append((cls, 0, y0, w, int(rng.integers(y0 + 1, h + 1))))
        elif kind < 0.45:  # one edge pixel column or row
            x0, y0 = int(rng.choice([0, w - 1])), int(rng.integers(0, h))
            boxes.append((cls, x0, y0, x0 + 1, h))
        else:
            x0, y0 = int(rng.integers(0, w)), int(rng.integers(0, h))
            boxes.append((cls, x0, y0, int(rng.integers(x0 + 1, w + 1)),
                          int(rng.integers(y0 + 1, h + 1))))
    if boxes and rng.random() < 0.3:
        boxes.append(boxes[0])  # a repeated box votes twice
    tags = tuple(int(t) for t in rng.integers(1, num + 1, int(rng.integers(0, 5))))
    return WeakLabel(boxes=tuple(boxes), tags=tags)


def test_row_canvases_match_full_raster_oracle():
    # canvas_from_boxes and canvas_from_tags against the full-raster
    # canvas oracle, byte for byte, then their gates against the full-raster gate;
    # full-width bands and every tag vote through one slice of rows
    rng = np.random.default_rng(1717)
    keeps = set()
    bands = 0
    for trial in range(400):
        h, w = (int(rng.integers(1, 9)) for _ in range(2))
        num = int(rng.choice([1, 2, 3, 7, 8, 9, 150]))
        label = _fuzz_weak_label(rng, h, w, num)
        bands += sum(x1 - x0 == w and y1 - y0 < h for _, x0, y0, x1, y1 in label.boxes)
        full_frame = WeakLabel(boxes=tuple((t, 0, 0, w, h) for t in label.tags))
        for canvas, want in [
                (canvas_from_boxes(label, h, w, num),
                 boxes_full_raster_oracle(label, h, w, num)),
                (canvas_from_tags(label, h, w, num),
                 boxes_full_raster_oracle(full_frame, h, w, num))]:
            assert same_bits(canvas.probs, want)
            rows = np.flatnonzero(want[:, :, num] < 0.5)
            assert same_bits(canvas.rows, rows.astype(canvas.rows.dtype))
            assert same_bits(canvas.vectors, want.reshape(-1, num + 1)[rows])
            np.testing.assert_array_equal(canvas.supervised_mask, want[:, :, num] < 0.5)
            raw = rng.integers(1, 4, (h, w, num)).astype(np.float64)
            pred = raw / raw.sum(axis=2, keepdims=True)
            class_argmax = want[:, :, :num].argmax(axis=2)
            thr = float(rng.choice([0.0, 1.0, float(rng.choice(pred.ravel()))]))
            got = refine_canvas(canvas, pred.reshape(-1, num)[canvas.rows], thr)
            gated = gate_full_raster_oracle(want, pred, class_argmax, thr)
            assert same_bits(got.probs, gated)
            assert same_bits(got.vectors, gated.reshape(-1, num + 1)[got.rows])
            if canvas.rows.size:
                keeps.add(("none", "some", "all")[
                    (got.rows.size > 0) + (got.rows.size == canvas.rows.size)])
    assert keeps == {"none", "some", "all"} and bands > 100
