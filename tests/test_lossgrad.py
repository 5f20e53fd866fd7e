import math

import numpy as np
import pytest

from htss.errors import (
    IndexOutOfRange,
    NonFiniteInput,
    NoSupervisedPixels,
    ShapeMismatch,
)
from htss import lossgrad, model
from htss.annotations import (
    StrongLabel,
    WeakLabel,
    canvas_from_boxes,
    canvas_from_tags,
    strong_to_canvas,
)
from htss.lossgrad import (
    _gather_sum,
    _canvas_terms,
    accumulate_groups,
    batch_loss,
    group_index,
    group_matrix,
    merge_subclass_predictions,
    softmax_atoms,
)
from htss.model import BatchPlan, LoadedDataset, OptimizerState, train_loop
from htss.taxonomy import (
    BBOX,
    HYPERNYM,
    IMAGE_TAG,
    PIXEL_COARSE,
    PIXEL_DENSE,
    AtomPartition,
    LabelSpace,
    RelationTable,
    build_group_sets,
    build_semantic_atoms,
)

from oracles import (
    TRAILING_LENGTHS,
    batched_train_oracle,
    boxes_full_raster_oracle,
    canvas_of_raster,
    fd_grad,
    one_hot_canvas,
    pixel_terms_oracle,
    ref_ce_loss_grad,
    ref_softmax,
    trailing_axis_arrays,
    weak_terms_full_raster_oracle,
)


def canvas(rows):
    """rows: nested list with shape (H, W, L+1)."""
    return canvas_of_raster(np.array(rows, dtype=np.float64))


def one_pixel(vec):
    return canvas([[vec]])


def one_item_loss(target, probs, index):
    """Loss and logit gradient of a one-item batch: what training computes.
    A pixel label goes in as a pixel item, a canvas as a box item."""
    kind = PIXEL_DENSE if isinstance(target, StrongLabel) else BBOX
    loss, grads = batch_loss([(target, probs, index, kind)])
    return loss, next(grads)


# --- softmax ---

def test_softmax_known_values():
    np.testing.assert_allclose(softmax_atoms(np.array([[[0.0, 0.0]]]))[0, 0],
                               [0.5, 0.5], atol=1e-15)
    got = softmax_atoms(np.array([[[math.log(1.0), math.log(3.0)]]]))[0, 0]
    np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariant():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 5, 6))
    a = softmax_atoms(z)
    b = softmax_atoms(z + 123.456)
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_extreme_logits_finite():
    z = np.array([[[800.0, -800.0, 0.0]]])
    s = softmax_atoms(z)
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s[0, 0, 0], 1.0, atol=1e-12)


@pytest.mark.parametrize("k", TRAILING_LENGTHS)
def test_softmax_matches_reference_bit_for_bit(k):
    for seed in range(5):
        for x in trailing_axis_arrays(k, seed):
            for z in (x, x * 1e-7):
                got, want = softmax_atoms(z), ref_softmax(z)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("atoms", [1, 2, 4, 7, 8, 9, 31, 330])
def test_softmax_on_row_subsets_matches_full_raster_bits(atoms):
    # train_loop softmaxes a weak item's voted rows only, and the two-head
    # split slices those rows: each must equal the full raster's rows
    rng = np.random.default_rng(atoms)
    logits = rng.standard_normal((6, 5, atoms)) * 4.0
    flat = logits.reshape(30, atoms)
    cut = (atoms + 1) // 2
    heads = [slice(None)] + ([slice(None, cut), slice(cut, None)] if atoms > 1 else [])
    full = [softmax_atoms(logits[:, :, head]).reshape(30, -1) for head in heads]
    for p in [0.0, 1.0] + list(rng.random(40)):  # empty, full, random masks
        rows = np.flatnonzero(rng.random(30) < p)
        voted = flat[rows]
        for head, whole in zip(heads, full):
            got, want = softmax_atoms(voted[:, head]), whole[rows]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_softmax_rejects_nonfinite():
    with pytest.raises(NonFiniteInput):
        softmax_atoms(np.array([[[np.nan, 0.0]]]))


# --- group accumulation ---

def test_accumulate_known():
    probs = np.array([[[0.2, 0.3, 0.5]]])
    index = group_index((frozenset({0, 1}), frozenset({2})), 3)
    got = accumulate_groups(probs, index)
    np.testing.assert_allclose(got[0, 0], [0.5, 0.5], atol=1e-15)


def test_accumulate_all_atoms_is_one():
    rng = np.random.default_rng(0)
    probs = ref_softmax(rng.standard_normal((3, 3, 5)))
    got = accumulate_groups(probs, group_index((frozenset(range(5)),), 5))
    np.testing.assert_allclose(got, 1.0, atol=1e-12)


def test_group_matrix_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        group_matrix((frozenset({0, 3}),), atom_count=3)
    with pytest.raises(IndexOutOfRange):
        group_matrix((frozenset({-1}),), atom_count=3)


def _random_group_maps(rng, atoms):
    """Seeded group maps: disjoint groups, overlapping groups, and both
    joined with an explicitly empty group."""
    n = int(rng.integers(1, atoms + 1))
    assign = rng.integers(-1, n, size=atoms)  # -1: the atom is in no group
    disjoint = tuple(frozenset(np.flatnonzero(assign == m).tolist()) for m in range(n))
    overlapping = tuple(frozenset(np.flatnonzero(rng.random(atoms) < 0.4).tolist())
                        for _ in range(n))
    return [disjoint, overlapping, overlapping[:1] + (frozenset(),) + disjoint]


def test_gathers_match_group_matrix_products():
    rng = np.random.default_rng(53)
    overlapped = 0
    for _ in range(200):
        atoms = int(rng.integers(1, 13))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        for groups in _random_group_maps(rng, atoms):
            mat = group_matrix(groups, atoms)
            index = group_index(groups, atoms)
            overlapped += int(mat.sum(axis=0).max() > 1)
            probs = softmax_atoms(rng.standard_normal((h, w, atoms)))
            np.testing.assert_allclose(accumulate_groups(probs, index),
                                       probs @ mat.T, rtol=0.0, atol=1e-12)
            ratio = rng.random((h, w, len(groups))) * 10.0
            back = _gather_sum(ratio, index.atom_classes)
            np.testing.assert_allclose(back, ratio @ mat, rtol=0.0, atol=1e-12)
    assert overlapped > 100


def test_gathers_add_in_ascending_index_order():
    rng = np.random.default_rng(59)
    atoms = 9
    groups = (frozenset({7, 0, 4, 2}), frozenset(), frozenset({2, 3}), frozenset({8}))
    index = group_index(groups, atoms)
    probs = softmax_atoms(rng.standard_normal((3, 2, atoms)) * 4.0)
    want = np.zeros((3, 2, len(groups)))
    for m, g in enumerate(groups):
        for a in sorted(g):
            want[:, :, m] += probs[:, :, a]
    np.testing.assert_array_equal(accumulate_groups(probs, index), want)
    ratio = rng.random((3, 2, len(groups)))
    want = np.zeros((3, 2, atoms))
    for m, g in enumerate(groups):  # ascending m: each atom adds its classes in order
        for a in g:
            want[:, :, a] += ratio[:, :, m]
    back = _gather_sum(ratio, index.atom_classes)
    np.testing.assert_array_equal(back, want)
    # padding marks the groups shorter than the longest, and an empty one
    assert index.padded
    assert not group_index((frozenset({0, 3}), frozenset({1, 2})), atoms).padded
    assert group_index((frozenset({0, 3}), frozenset({1})), atoms).padded


def test_group_index_rejects_mismatched_atom_count():
    groups = (frozenset({0, 1}), frozenset({2}))
    index = group_index(groups, 3)
    probs = softmax_atoms(np.zeros((1, 1, 4)))
    with pytest.raises(ShapeMismatch):
        accumulate_groups(probs, index)
    with pytest.raises(ShapeMismatch):
        one_item_loss(one_pixel([1.0, 0.0, 0.0]), probs, index)
    with pytest.raises(IndexOutOfRange):
        group_index(groups, 2)


def _box_world(seed):
    """Fine and coarse pixel sets and a box set, 4 images of 5x4x2 each,
    with their taxonomy."""
    rng = np.random.default_rng(seed)
    spaces = [LabelSpace("fine", ("void", "cat", "dog", "grass"), PIXEL_DENSE),
              LabelSpace("coarse", ("void", "animal", "grass"), PIXEL_COARSE),
              LabelSpace("boxes", ("void", "cat", "dog"), BBOX)]
    relations = RelationTable.from_triples(
        [(HYPERNYM, "animal", "cat"), (HYPERNYM, "animal", "dog")])
    tax = build_group_sets(build_semantic_atoms(spaces, relations), spaces, relations)
    datasets = []
    for space in spaces:
        images = [rng.random((5, 4, 2)) for _ in range(4)]
        if space.supervision == BBOX:
            labels = [WeakLabel(boxes=((1, 0, 0, 3, 3), (2, 1, 1, 4, 5)))] * 4
        else:
            labels = [StrongLabel(rng.integers(0, space.num_classes + 1, size=(5, 4)),
                                  space.num_classes) for _ in range(4)]
        datasets.append(LoadedDataset(space=space, images=images, labels=labels))
    return datasets, tax


def test_train_loop_builds_group_tables_once_per_dataset(monkeypatch):
    calls = []
    real = lossgrad.group_matrix

    def counting(groups, atom_count):
        calls.append(len(groups))
        return real(groups, atom_count)

    monkeypatch.setattr(lossgrad, "group_matrix", counting)
    datasets, tax = _box_world(67)
    plan = BatchPlan(quotas={"fine": 2, "coarse": 2, "boxes": 2}, seed=5)
    res = train_loop(datasets, tax, None, plan, OptimizerState(learning_rate=0.1),
                     epochs=2, refine_threshold=0.0, feature_width=3)
    assert len(res.losses) == 4  # 4 steps, 6 items each
    assert sorted(calls) == [2, 2, 3]  # one per dataset, not one per item


def test_train_loop_pixel_items_take_their_loaded_label(monkeypatch):
    # a pixel label is its own loss target: no per-step conversion or copy
    datasets, tax = _box_world(79)
    loaded = [lab for ds in datasets if ds.supervision != BBOX for lab in ds.labels]
    targets = []
    real_loss = model.batch_loss

    def recording_loss(items, *args):  # a chunk of pixel images is one item
        targets.extend(label for t, _, _, kind in items if kind != BBOX for label in t)
        return real_loss(items, *args)

    monkeypatch.setattr(model, "batch_loss", recording_loss)
    plan = BatchPlan(quotas={"fine": 2, "coarse": 1, "boxes": 2}, seed=9)
    train_loop(datasets, tax, None, plan, OptimizerState(learning_rate=0.1),
               epochs=2, refine_threshold=0.5, feature_width=3)
    assert len(targets) == 8 * 3  # 8 steps, 3 pixel items each
    assert all(any(t is lab for lab in loaded) for t in targets)


def test_train_loop_runs_backward_only_for_nonzero_gradients(monkeypatch):
    # at threshold 1.0 the gate keeps no box pixel, so every box item has
    # an all-zero gradient and its image must not reach backward; every
    # image that does has a nonzero upstream. A step makes two batch_loss
    # calls: the box items' chunk, then the pixel images' (all 5x4), one
    # item whose gradient stacks theirs
    # per step, per chunk: [images drawn, images with a nonzero gradient,
    # images in backward, pixel images]
    per_step = [[]]
    real_loss, real_backward, real_sgd = model.batch_loss, model.backward, model.sgd_step

    def counting_loss(items, *args):
        loss, grads = real_loss(items, *args)
        grads = list(grads)
        images = [1 if kind == BBOX else len(target) for target, *_, kind in items]
        nonzero = sum(int(g.reshape(n, -1).any(axis=1).sum()) for g, n in zip(grads, images))
        pixel = sum(n for n, (*_, kind) in zip(images, items) if kind != BBOX)
        per_step[-1].append([sum(images), nonzero, 0, pixel])
        return loss, iter(grads)

    def counting_backward(cache, upstream):
        per_step[-1][-1][2] += cache.count
        assert all(image.any() for image in upstream.reshape(cache.count, -1))
        return real_backward(cache, upstream)

    def next_step(*args):
        real_sgd(*args)
        per_step.append([])

    monkeypatch.setattr(model, "batch_loss", counting_loss)
    monkeypatch.setattr(model, "backward", counting_backward)
    monkeypatch.setattr(model, "sgd_step", next_step)
    datasets, tax = _box_world(71)
    plan = BatchPlan(quotas={"fine": 2, "coarse": 1, "boxes": 3}, seed=7)
    train_loop(datasets, tax, None, plan, OptimizerState(learning_rate=0.1),
               epochs=2, refine_threshold=1.0, feature_width=3)
    assert per_step.pop() == []
    assert len(per_step) == 8  # 4 coarse images at quota 1, two epochs
    for chunks in per_step:
        assert [pixel for *_, pixel in chunks] == [0, 3]
        drawn, nonzero, images, pixel = map(sum, zip(*chunks))
        assert images == nonzero == pixel < drawn


def test_train_loop_weak_items_compute_only_on_voted_rows(monkeypatch):
    # per step: a box item with no votes calls no softmax and its target is
    # the all-unlabeled raw canvas; a voted one softmaxes exactly its
    # labeled rows, all of them for a full-frame box; pixel items softmax
    # all H*W rows, in one call per chunk: the three 5x4 pixel items come
    # after the boxes and share one. A step makes two batch_loss calls: the
    # box items' chunk after their softmax calls (the first pass), then the
    # pixel chunk's one item after its own
    datasets, tax = _box_world(73)
    boxes = datasets[2]
    labels = [boxes.labels[0], WeakLabel(), WeakLabel(boxes=((2, 0, 0, 4, 5),)), WeakLabel()]
    datasets[2] = LoadedDataset(space=boxes.space, images=boxes.images, labels=labels)
    voted = {n: np.flatnonzero(canvas_from_boxes(lab, 5, 4, 2).supervised_mask)
             for n, lab in ((17, labels[0]), (20, labels[2]))}
    unlabeled = canvas_from_boxes(WeakLabel(), 5, 4, 2).probs
    calls, steps = [], []
    real_softmax, real_loss = model.softmax_atoms, model.batch_loss

    def counting_softmax(logits):
        calls.append(logits.size // logits.shape[-1])
        return real_softmax(logits)

    def recording_loss(items, *args):
        steps.append((calls[:], items))
        calls.clear()
        return real_loss(items, *args)

    monkeypatch.setattr(model, "softmax_atoms", counting_softmax)
    monkeypatch.setattr(model, "batch_loss", recording_loss)
    plan = BatchPlan(quotas={"fine": 1, "coarse": 2, "boxes": 4}, seed=3)
    train_loop(datasets, tax, None, plan, OptimizerState(learning_rate=0.1),
               epochs=2, refine_threshold=0.0, feature_width=3)
    assert len(steps) == 2 * 8 and [v.size for v in voted.values()] == [17, 20]
    for (seen, items), (pixel_seen, pixel_items) in zip(steps[::2], steps[1::2]):
        want, unvoted = [], 0
        for target, probs, _, kind in items:
            assert kind == BBOX
            nonzero = np.flatnonzero(probs.reshape(20, -1).any(axis=1))
            if nonzero.size:
                want.append(nonzero.size)
                assert np.array_equal(nonzero, voted[nonzero.size])
            else:
                unvoted += 1
                assert target.probs.tobytes() == unlabeled.tobytes()
        assert seen == want and pixel_seen == [20 * 3]
        assert len(items) == 4 and want in ([17, 20], [20, 17]) and unvoted == 2
        # the three pixel images: one chunk item, its labels in image order
        (labels, probs, _, kind), = pixel_items
        assert kind != BBOX and len(labels) == 3 and probs.shape[0] == 3 * 5


# --- loss closed forms ---

def test_loss_singleton_groups_uniform():
    # two atoms, logits (0, 0), target class 1 -> plain CE = ln 2
    target = one_pixel([1.0, 0.0, 0.0])
    probs = softmax_atoms(np.zeros((1, 1, 2)))
    index = group_index((frozenset({0}), frozenset({1})), 2)
    loss, g = one_item_loss(target, probs, index)
    assert abs(loss - math.log(2.0)) < 1e-12
    np.testing.assert_allclose(g[0, 0], [-0.5, 0.5], atol=1e-12)


def test_loss_two_atom_group_of_three():
    # uniform over three atoms, target group {a0, a1}: mass 2/3
    target = one_pixel([1.0, 0.0, 0.0])
    probs = softmax_atoms(np.zeros((1, 1, 3)))
    index = group_index((frozenset({0, 1}), frozenset({2})), 3)
    loss, g = one_item_loss(target, probs, index)
    assert abs(loss - (-math.log(2.0 / 3.0))) < 1e-12
    np.testing.assert_allclose(g[0, 0],
                               [-1.0 / 6.0, -1.0 / 6.0, 1.0 / 3.0], atol=1e-12)


def test_loss_all_atom_group_is_zero():
    target = one_pixel([1.0, 0.0])
    probs = softmax_atoms(np.array([[[0.3, -1.2, 2.0]]]))
    index = group_index((frozenset({0, 1, 2}),), 3)
    loss, g = one_item_loss(target, probs, index)
    assert loss == 0.0
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_loss_averages_over_supervised_pixels_only():
    target = canvas([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
    probs = softmax_atoms(np.zeros((1, 2, 2)))
    index = group_index((frozenset({0}), frozenset({1})), 2)
    loss, g = one_item_loss(target, probs, index)
    assert abs(loss - math.log(2.0)) < 1e-12  # |P| = 1
    np.testing.assert_allclose(g[0, 1], 0.0, atol=1e-15)
    np.testing.assert_allclose(g[0, 0], [-0.5, 0.5], atol=1e-12)


def test_loss_soft_targets_mix():
    # target row (0.5, 0.5, 0): half weight on each class
    target = one_pixel([0.5, 0.5, 0.0])
    z = np.array([[[0.7, -0.4]]])
    probs = softmax_atoms(z)
    index = group_index((frozenset({0}), frozenset({1})), 2)
    s = probs[0, 0]
    expect = -0.5 * math.log(s[0]) - 0.5 * math.log(s[1])
    assert abs(one_item_loss(target, probs, index)[0] - expect) < 1e-12


def test_loss_no_supervised_pixels():
    target = one_pixel([0.0, 0.0, 1.0])
    probs = softmax_atoms(np.zeros((1, 1, 2)))
    index = group_index((frozenset({0}), frozenset({1})), 2)
    with pytest.raises(NoSupervisedPixels):
        one_item_loss(target, probs, index)


def test_loss_shape_mismatch():
    target = one_pixel([1.0, 0.0, 0.0])
    probs = softmax_atoms(np.zeros((2, 1, 2)))
    index = group_index((frozenset({0}), frozenset({1})), 2)
    with pytest.raises(ShapeMismatch):
        one_item_loss(target, probs, index)


# --- gradient properties ---

def test_grad_rows_sum_to_zero():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3, 4, 5))
    probs = softmax_atoms(z)
    raw = rng.random((3, 4, 4))
    target = canvas_of_raster(raw / raw.sum(axis=2, keepdims=True))
    index = group_index((frozenset({0, 1}), frozenset({2}), frozenset({3, 4})), 5)
    _, g = one_item_loss(target, probs, index)
    np.testing.assert_allclose(g.sum(axis=2), 0.0, atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(20):
        atoms = int(rng.integers(2, 7))
        n_groups = int(rng.integers(1, atoms + 1))
        assign = rng.integers(0, n_groups, size=atoms)
        assign[rng.integers(atoms)] = 0  # group 0 never empty
        groups = tuple(frozenset(np.flatnonzero(assign == gi).tolist())
                       for gi in range(n_groups))
        groups = tuple(g for g in groups if g)
        index = group_index(groups, atoms)
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        raw = rng.random((h, w, len(groups) + 1))
        raw[..., -1] *= 0.3
        target = canvas_of_raster(raw / raw.sum(axis=2, keepdims=True))
        if not target.supervised_mask.any():
            continue
        z = rng.standard_normal((h, w, atoms))

        def f(logits):
            return one_item_loss(target, softmax_atoms(logits), index)[0]

        _, got = one_item_loss(target, softmax_atoms(z), index)
        want = fd_grad(f, z, eps=1e-5)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def test_naive_indicator_gradient_is_wrong_for_merged_groups():
    """The one-hot shortcut (softmax minus group indicator) disagrees
    with finite differences once a class covers several atoms; the
    implemented gradient reweights by the atom's share of group mass."""
    target = one_pixel([1.0, 0.0])
    z = np.array([[[0.4, -0.2, 0.9]]])
    probs = softmax_atoms(z)
    index = group_index((frozenset({0, 1}),), 3)

    def f(logits):
        return one_item_loss(target, softmax_atoms(logits), index)[0]

    fd = fd_grad(f, z, eps=1e-5)
    naive = probs.copy()
    naive[0, 0, [0, 1]] -= 1.0  # indicator of the target group
    assert np.abs(naive - fd).max() > 1e-2
    np.testing.assert_allclose(one_item_loss(target, probs, index)[1], fd,
                               rtol=1e-5, atol=1e-8)


def test_singleton_groups_equal_plain_ce():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        h, w = 3, 2
        z = rng.standard_normal((h, w, n))
        ids = rng.integers(0, n + 1, size=(h, w))  # n means unlabeled
        if not (ids < n).any():
            ids[0, 0] = 0
        rows = np.eye(n + 1)[ids]
        target = canvas_of_raster(rows)
        index = group_index(tuple(frozenset({i}) for i in range(n)), n)
        probs = softmax_atoms(z)
        mask = ids < n
        ref_targets = np.eye(n)[np.where(mask, ids, 0)] * mask[..., None]
        want_loss, want_grad = ref_ce_loss_grad(z, ref_targets, mask)
        loss, grad = one_item_loss(target, probs, index)
        assert abs(loss - want_loss) < 1e-12
        np.testing.assert_allclose(grad, want_grad, atol=1e-12)


# --- batch pooling ---

# two singleton groups over two atoms
PAIR = group_index((frozenset({0}), frozenset({1})), 2)


def one_hot_label(rows):
    """The StrongLabel of one-hot (H, W, L+1) rows, the last column void."""
    rows = np.asarray(rows, dtype=np.float64)
    num = rows.shape[2] - 1
    slots = rows.argmax(axis=2)
    assert np.array_equal(rows, np.eye(num + 1)[slots])
    return StrongLabel(np.where(slots == num, 0, slots + 1), num)


def _item(vecs, logits, index=PAIR, kind=PIXEL_DENSE):
    """A pixel item of one-hot rows as a StrongLabel, or a box item of their canvas."""
    target = one_hot_label(vecs) if kind == PIXEL_DENSE else canvas(vecs)
    return target, softmax_atoms(np.asarray(logits, dtype=np.float64)), index, kind


def test_batch_pools_pixel_counts_within_population():
    # one image with 2 supervised pixels vs two images with 1 each:
    # pooled normalization makes them identical
    two_px = _item([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                   [[[0.2, -0.1], [0.4, 0.3]]])
    split_a = _item([[[1.0, 0.0, 0.0]]], [[[0.2, -0.1]]])
    split_b = _item([[[0.0, 1.0, 0.0]]], [[[0.4, 0.3]]])
    la, _ = batch_loss([two_px])
    lb, _ = batch_loss([split_a, split_b])
    assert abs(la - lb) < 1e-12


def test_batch_mean_property_for_equal_counts():
    rng = np.random.default_rng(31)
    index = group_index((frozenset({0, 1}), frozenset({2})), 3)
    items = []
    per_image = []
    for _ in range(4):
        z = rng.standard_normal((2, 2, 3))
        ids = rng.integers(0, 2, size=(2, 2))
        target = StrongLabel(ids + 1, 2)  # fully supervised: equal counts
        items.append((target, softmax_atoms(z), index, PIXEL_DENSE))
        per_image.append(one_item_loss(target, softmax_atoms(z), index)[0])
    loss, _ = batch_loss(items)
    assert abs(loss - float(np.mean(per_image))) < 1e-12


def test_batch_strong_and_weak_normalized_separately():
    strong = _item([[[1.0, 0.0, 0.0]]], [[[0.0, 0.0]]], kind=PIXEL_DENSE)
    # weak image with two supervised pixels, same per-pixel loss ln 2
    weak = _item([[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
                 [[[0.0, 0.0], [0.0, 0.0]]], kind=BBOX)
    loss, grads = batch_loss([strong, weak])
    grads = list(grads)
    # ln2 (strong pool, 1 px) + ln2 (weak pool, 2 px averaged)
    assert abs(loss - 2.0 * math.log(2.0)) < 1e-12
    np.testing.assert_allclose(grads[1][0, 0], [-0.25, 0.25], atol=1e-12)


def test_batch_empty_population_drops_out():
    strong = _item([[[1.0, 0.0, 0.0]]], [[[0.0, 0.0]]], kind=PIXEL_DENSE)
    empty_weak = _item([[[0.0, 0.0, 1.0]]], [[[0.0, 0.0]]], kind=BBOX)
    loss, grads = batch_loss([strong, empty_weak])
    grads = list(grads)
    assert abs(loss - math.log(2.0)) < 1e-12
    np.testing.assert_allclose(grads[1], 0.0, atol=1e-15)


def test_batch_empty_item_gets_positive_zeros_and_changes_no_bit():
    # an item with no supervised pixel skips the loss math; the bits must
    # be those of the full path, which zeroes unsupervised pixels to +0.0
    rng = np.random.default_rng(83)
    index = group_index((frozenset({0, 1}), frozenset({2})), 3)

    def item(ids, kind):  # class 2 is the unlabeled slot
        rows = np.eye(3)[np.asarray(ids)]
        target = one_hot_label(rows) if kind == PIXEL_DENSE else canvas_of_raster(rows)
        return target, softmax_atoms(rng.standard_normal(rows.shape)), index, kind

    partial = item([[0, 2], [1, 0]], PIXEL_DENSE)
    weak = item([[1, 2, 0]], BBOX)
    empty_px = item([[2, 2], [2, 2], [2, 2]], PIXEL_DENSE)
    empty_weak = item([[2, 2, 2]], BBOX)
    loss, grads = batch_loss([partial, weak])
    grads = list(grads)
    assert grads[0].any() and grads[1].any()  # partly supervised items keep theirs
    got_loss, got = batch_loss([empty_px, partial, empty_weak, weak])
    got = list(got)
    assert got_loss == loss
    assert got[1].tobytes() == grads[0].tobytes()
    assert got[3].tobytes() == grads[1].tobytes()
    _, alone = batch_loss([partial, empty_weak])  # an empty weak population
    alone = list(alone)
    for g, (_, probs, _, _) in [(got[0], empty_px), (got[2], empty_weak),
                                (alone[1], empty_weak)]:
        assert g.shape == probs.shape and not g.flags.writeable  # a view: no raster
        assert not g.any() and not np.signbit(g).any()


def test_empty_item_still_checks_shapes():
    index = group_index((frozenset({0}), frozenset({1})), 2)
    strong = _item([[[1.0, 0.0, 0.0]]], [[[0.0, 0.0]]])
    empty = canvas([[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]])
    bad = [
        (np.full((2, 2, 2), 0.5), index),                             # grid
        (np.full((1, 2, 3), 1 / 3), index),                           # atom count
        (np.full((1, 2), 0.5), index),                                # rank
        (np.full((1, 2, 2), 0.5), group_index((frozenset({0}),), 2)),  # class slots
    ]
    for probs, idx in bad:
        with pytest.raises(ShapeMismatch):
            batch_loss([strong, (empty, probs, idx, BBOX)])
    probs = np.full((1, 2, 2), 0.5)
    with pytest.raises(NoSupervisedPixels):
        one_item_loss(empty, probs, index)


def test_batch_all_unsupervised_raises():
    item = _item([[[0.0, 0.0, 1.0]]], [[[0.0, 0.0]]], kind=PIXEL_DENSE)
    with pytest.raises(NoSupervisedPixels):
        batch_loss([item])


def test_batch_rejects_a_target_of_the_other_population():
    # a pixel label given as a box or tag item, or a canvas given as a pixel
    # item, would be divided by the other population's count
    index = group_index((frozenset({0}), frozenset({1})), 2)
    probs = softmax_atoms(np.zeros((2, 2, 2)))
    label = StrongLabel(np.array([[1, 2], [2, 1]]), 2)
    hot = one_hot_canvas(label, 2)
    for item in [(label, probs, index, BBOX), (label, probs, index, IMAGE_TAG),
                 ((label,), probs, (index,), BBOX), (hot, probs, index, PIXEL_DENSE),
                 (hot, probs, index, PIXEL_COARSE), (label, probs, index, "pixel")]:
        with pytest.raises(ShapeMismatch, match="supervision kind"):
            batch_loss([item])
    for chunk in [[hot], [label, hot], []]:  # a pixel chunk holds pixel labels, one or more
        with pytest.raises(ShapeMismatch, match="StrongLabels"):
            batch_loss([(chunk, probs, [index] * len(chunk), PIXEL_DENSE)])
    for item in [(label, probs, index, PIXEL_COARSE), (hot, probs, index, IMAGE_TAG)]:
        assert batch_loss([item])[0] == math.log(2.0)


def _chunk_case(rng, k, h, w):
    """k pixel labels of (h, w) over 16 atoms, each with one of two
    GroupIndexes drawn in runs: three disjoint pairs (not padded), or four
    overlapping groups of uneven size, one of 12 atoms (padded). Some labels
    supervise no pixel, some one, and one label of every chunk does some."""
    plain = group_index((frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})), 16)
    overlapping = group_index((frozenset(range(12)), frozenset({2, 3}), frozenset({5}),
                               frozenset({1, 6, 15})), 16)
    assert overlapping.padded and not plain.padded
    indexes = [(plain, overlapping)[int(rng.integers(2))] for _ in range(k)]
    labels = []
    for index in indexes:
        ids = rng.integers(0, index.num_classes + 1, size=(h, w))
        draw = rng.random()
        if draw < 0.4:  # none, or one supervised pixel
            ids[:] = 0
            ids[int(rng.integers(h)), int(rng.integers(w))] = 1 if draw < 0.2 else 0
        labels.append(StrongLabel(ids, index.num_classes))
    if not any(label.class_ids.any() for label in labels):
        labels[-1].class_ids[0, 0] = 1
    return labels, indexes, softmax_atoms(rng.standard_normal((k * h, w, 16)) * 3.0)


@pytest.mark.parametrize("h, w", [(4, 4), (5, 4), (20, 20), (48, 48)])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_chunk_item_matches_per_image_oracle_bits(k, h, w):
    # a chunk item's loss and gradient raster are the per-image oracle's, byte
    # for byte: each image's losses summed alone (above and below numpy's
    # 128-element pairwise block) and added in image order, each gradient
    # element divided as one image's. Both GroupIndexes, runs of them and
    # images with no supervised pixel occur across the cases
    rng = np.random.default_rng([k, h, w])
    for _ in range(3):
        labels, indexes, probs = _chunk_case(rng, k, h, w)
        terms = [pixel_terms_oracle(label, probs[i * h:(i + 1) * h], index)
                 for i, (label, index) in enumerate(zip(labels, indexes))]
        n = sum(t[1] for t in terms)
        counts, total = (3, n + int(rng.integers(3))), float(rng.random())
        want_loss = total
        for losses, count, _ in terms:
            if count:
                want_loss += losses.sum() / counts[1]
        want_grad = np.concatenate([grad(counts[1]) for _, _, grad in terms])
        chunk = (labels, probs, indexes, PIXEL_DENSE)
        loss, grads = batch_loss([chunk], counts, total)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        (grad,) = grads
        assert grad.shape == probs.shape and grad.tobytes() == want_grad.tobytes()
        if k == 1:  # a bare pixel label is a chunk of one
            loss, grads = batch_loss([(labels[0], probs, indexes[0], PIXEL_DENSE)], counts, total)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert next(grads).tobytes() == want_grad.tobytes()


def test_chunk_item_checks_shapes():
    labels, indexes, probs = _chunk_case(np.random.default_rng(5), 3, 4, 5)
    narrow = StrongLabel(labels[0].class_ids[:, :4], labels[0].num_classes)
    other = indexes[2] if indexes[2] is not indexes[0] else group_index((frozenset({0}),), 16)
    bad = [(labels[:2], probs, indexes),                        # image count
           (labels, probs[:-1], indexes),                      # grid
           (labels, probs[:, :, :15], indexes),                # atom count
           (labels, probs, indexes[:2]),                       # indexes
           ([narrow] + labels[1:], probs, indexes),            # one label's grid
           (labels, probs, [other] + indexes[1:])]             # class slots
    for chunk_labels, chunk_probs, chunk_indexes in bad:
        with pytest.raises(ShapeMismatch):
            batch_loss([(chunk_labels, chunk_probs, chunk_indexes, PIXEL_DENSE)])


def test_batch_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    index_a = group_index((frozenset({0, 1}), frozenset({2})), 3)
    index_b = group_index((frozenset({0}), frozenset({1, 2})), 3)
    z1 = rng.standard_normal((2, 2, 3))
    z2 = rng.standard_normal((1, 3, 3))
    raw1 = rng.random((2, 2, 3))
    t1 = canvas_of_raster(raw1 / raw1.sum(axis=2, keepdims=True))
    t2 = StrongLabel(np.array([[1, 0, 2]]), 2)
    n1 = z1.size

    def f(flat):
        a = flat[:n1].reshape(z1.shape)
        b = flat[n1:].reshape(z2.shape)
        items = [(t1, softmax_atoms(a), index_a, BBOX),
                 (t2, softmax_atoms(b), index_b, PIXEL_DENSE)]
        return batch_loss(items)[0]

    flat = np.concatenate([z1.ravel(), z2.ravel()])
    items = [(t1, softmax_atoms(z1), index_a, BBOX),
             (t2, softmax_atoms(z2), index_b, PIXEL_DENSE)]
    grads = list(batch_loss(items)[1])
    got = np.concatenate([grads[0].ravel(), grads[1].ravel()])
    want = fd_grad(f, flat, eps=1e-5)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


# --- class-slot targets against one-hot canvases ---

def _dense_case(rng, h, w, atoms, classes, overlapping):
    """A StrongLabel with void pixels and hand-set pixels whose s* is
    exactly 1.0 (pixel (0, 0)) and 0.0, clamped to 1e-12 (pixel (0, 1)),
    a distribution over atoms, and a GroupIndex: disjoint groups covering
    every class, or overlapping ones built directly by group_index."""
    if overlapping:
        groups = [set(np.flatnonzero(rng.random(atoms) < 0.4).tolist())
                  for _ in range(classes)]
        for g in groups:
            g.add(int(rng.integers(atoms)))
    else:
        order = rng.permutation(atoms)
        assign = rng.integers(-1, classes, size=atoms)
        assign[order[:classes]] = np.arange(classes)
        groups = [set(np.flatnonzero(assign == m).tolist()) for m in range(classes)]
    index = group_index(tuple(frozenset(g) for g in groups), atoms)
    ids = rng.integers(1, classes + 1, size=(h, w))
    ids[rng.random((h, w)) < 0.2] = 0
    ids[0, :2] = rng.integers(1, classes + 1, size=2)
    probs = softmax_atoms(rng.standard_normal((h, w, atoms)) * 3.0)
    exact = sorted(groups[ids[0, 0] - 1])
    probs[0, 0] = 0.0
    probs[0, 0, exact[int(rng.integers(len(exact)))]] = 1.0
    probs[0, 1, sorted(groups[ids[0, 1] - 1])] = 0.0
    return StrongLabel(ids, classes), probs, index


DENSE_SHAPES = [(16, 16, 330, 151), (16, 16, 330, 30), (20, 20, 6, 3),
                (20, 20, 6, 6), (48, 48, 3, 2)]


@pytest.mark.parametrize("h, w, atoms, classes", DENSE_SHAPES)
@pytest.mark.parametrize("overlapping", [False, True])
def test_dense_target_matches_one_hot_canvas_bits(h, w, atoms, classes, overlapping):
    rng = np.random.default_rng(h * atoms + classes + overlapping)
    # the per-image pixel terms (the chunk path's oracle) equal the canvas
    # path's on the one-hot canvas of the same label, and so do one-item
    # batches, per-image pixel items, one chunk item of them all (three
    # GroupIndexes, a void image) and the canvases as box items
    items = {"dense": [], "canvas": []}
    for _ in range(3):
        label, probs, index = _dense_case(rng, h, w, atoms, classes, overlapping)
        if atoms == classes and not overlapping:  # one atom a group: no padding redirect
            assert not index.padded
        dense, hot = strong_to_canvas(label, classes), one_hot_canvas(label, classes)
        got, want = pixel_terms_oracle(dense, probs, index), _canvas_terms(hot, probs, index)
        assert got[1] == want[1] == int((label.class_ids > 0).sum())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[2](1).tobytes() == want[2](1).tobytes()
        assert got[2](1).shape == probs.shape and got[0].shape == (h, w)
        # s* == 1.0 gives the loss -0.0; s* == 0.0 is clamped to 1e-12
        assert got[0][0, 0] == 0.0 and np.signbit(got[0][0, 0])
        assert got[0][0, 1] == -math.log(1e-12)
        loss, grad = one_item_loss(dense, probs, index)
        want_loss, want_grad = one_item_loss(hot, probs, index)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        items["dense"].append((dense, probs, index, PIXEL_DENSE))
        items["canvas"].append((hot, probs, index, BBOX))
    void = StrongLabel(np.zeros((h, w), dtype=np.int64), classes)
    probs = softmax_atoms(rng.standard_normal((h, w, atoms)))
    got = pixel_terms_oracle(strong_to_canvas(void, classes), probs, index)
    want = _canvas_terms(one_hot_canvas(void, classes), probs, index)
    assert got[1] == want[1] == 0
    assert got[0].tobytes() == want[0].tobytes()
    assert got[2](1).tobytes() == want[2](1).tobytes()
    items["dense"].append((strong_to_canvas(void, classes), probs, index, PIXEL_DENSE))
    items["canvas"].append((one_hot_canvas(void, classes), probs, index, BBOX))
    labels, dists, indexes, _ = zip(*items["dense"])
    chunk = (labels, np.concatenate(dists), indexes, PIXEL_DENSE)
    want_loss, want_grads = batch_loss(items["canvas"])
    want_grads = [g.tobytes() for g in want_grads]
    loss, grads = batch_loss(items["dense"])
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert [g.tobytes() for g in grads] == want_grads
    loss, grads = batch_loss([chunk])
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert [g.tobytes() for g in grads] == [b"".join(want_grads)]


def _weak_cases(rng, h, w, classes):
    """(full raster, row canvas) pairs: a box canvas with overlapping and
    edge boxes, a tag canvas, a soft canvas with partly labeled rows
    (unlabeled mass in (0, 0.5)) and unsupervised partial ones, and an
    empty canvas."""
    boxes = WeakLabel(boxes=((1, 0, 0, max(w // 2, 1), max(h // 2, 1)),
                             (classes, w // 3, h // 3, w, h),
                             (1 + classes // 2, 0, h - 1, w, h)))
    tags = WeakLabel(tags=(1, classes, 1 + classes // 3, classes))
    frame = WeakLabel(boxes=tuple((t, 0, 0, w, h) for t in tags.tags))
    raw = rng.random((h, w, classes + 1))
    raw[:, :, classes] = (rng.choice([0.0, 0.3, 0.99, 3.0, 1e9], (h, w))
                          * raw[:, :, :classes].sum(axis=2))
    soft = raw / raw.sum(axis=2, keepdims=True)
    return [(boxes_full_raster_oracle(boxes, h, w, classes),
             canvas_from_boxes(boxes, h, w, classes)),
            (boxes_full_raster_oracle(frame, h, w, classes),
             canvas_from_tags(tags, h, w, classes)),
            (soft, canvas_of_raster(soft)),
            (boxes_full_raster_oracle(WeakLabel(), h, w, classes),
             canvas_from_boxes(WeakLabel(), h, w, classes))]


WEAK_SHAPES = [(16, 16, 330, 150), (20, 20, 6, 3), (48, 48, 3, 2), (3, 4, 12, 9)]


@pytest.mark.parametrize("h, w, atoms, classes", WEAK_SHAPES)
@pytest.mark.parametrize("overlapping", [False, True])
def test_row_canvas_loss_matches_full_raster_oracle_bits(h, w, atoms, classes,
                                                          overlapping):
    # _canvas_terms, a one-item and a mixed batch_loss on row canvases read
    # the same bits as the weak loss written over the full raster
    rng = np.random.default_rng([h, atoms, classes, overlapping])
    label, probs, index = _dense_case(rng, h, w, atoms, classes, overlapping)
    items = [(strong_to_canvas(label, classes), probs, index, PIXEL_DENSE)]
    refs = [weak_terms_full_raster_oracle(one_hot_canvas(label, classes).probs,
                                          probs, index)]
    for raster, canvas in _weak_cases(rng, h, w, classes):
        losses, n, grad = _canvas_terms(canvas, probs, index)
        ref = weak_terms_full_raster_oracle(raster, probs, index)
        assert n == ref[2] == canvas.rows.size
        assert losses.tobytes() == ref[0].tobytes() and losses.shape == (h, w)
        assert grad(1).tobytes() == ref[1].tobytes() and grad(1).shape == probs.shape
        if ref[2]:
            loss, grad = one_item_loss(canvas, probs, index)
            want = np.float64(ref[0].sum() / ref[2])
            assert np.float64(loss).tobytes() == want.tobytes()
            assert grad.tobytes() == (ref[1] / ref[2]).tobytes()
        items.append((canvas, probs, index, BBOX))
        refs.append(ref)
        probs = softmax_atoms(rng.standard_normal((h, w, atoms)) * 3.0)
    weak_n = sum(r[2] for r in refs[1:])
    want_loss, want_grads = 0.0, []
    for k, (losses, grads, n) in enumerate(refs):
        denom = refs[0][2] if k == 0 else weak_n
        want_loss += losses.sum() / denom if n else 0.0
        want_grads.append(grads / denom if n else grads)
    loss, grads = batch_loss(items)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]


def test_dense_target_checks_shapes():
    label = StrongLabel(np.array([[0, 1, 2]]), 2)
    target = strong_to_canvas(label, 2)
    index = group_index((frozenset({0}), frozenset({1})), 2)
    with pytest.raises(ShapeMismatch):  # grid
        one_item_loss(target, np.full((3, 1, 2), 0.5), index)
    with pytest.raises(ShapeMismatch):  # class slots
        one_item_loss(target, np.full((1, 3, 2), 0.5), group_index((frozenset({0}),), 2))
    with pytest.raises(NoSupervisedPixels):
        one_item_loss(strong_to_canvas(StrongLabel(np.zeros((1, 3), dtype=int), 2), 2),
                      np.full((1, 3, 2), 0.5), index)


def test_dense_target_grad_matches_finite_differences():
    rng = np.random.default_rng(43)
    for trial in range(20):
        atoms = int(rng.integers(2, 7))
        classes = int(rng.integers(1, atoms + 1))
        h, w = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        label, _, index = _dense_case(rng, h, w, atoms, classes, trial % 2 == 1)
        target = strong_to_canvas(label, classes)
        if not target.supervised_mask.any():
            continue
        z = rng.standard_normal((h, w, atoms))

        def f(logits):
            return one_item_loss(target, softmax_atoms(logits), index)[0]

        _, got = one_item_loss(target, softmax_atoms(z), index)
        np.testing.assert_allclose(got, fd_grad(f, z, eps=1e-5), rtol=1e-5, atol=1e-7)
        _, fortran = one_item_loss(target, np.asfortranarray(softmax_atoms(z)), index)
        assert fortran.tobytes() == got.tobytes()  # any memory order, same bits


# --- subclass merge ---

def _two_head_partition():
    # atoms: 1=strong_obj (a), 2=sub_a (s), 3=sub_b (s), 4=parent (p)
    return AtomPartition(atoms=("strong_obj", "sub_a", "sub_b", "parent"),
                         a_set=frozenset({1}), s_set=frozenset({2, 3}),
                         p_set=frozenset({4}), parent_of={2: 4, 3: 4})


def test_merge_replaces_parent_with_best_child():
    part = _two_head_partition()
    # ap head slots: [strong_obj, parent]; s head slots: [sub_a, sub_b]
    ap = np.array([[[0.9, 0.1], [0.2, 0.8]]])
    s = np.array([[[0.3, 0.7], [0.6, 0.4]]])
    got = merge_subclass_predictions(ap, s, part)
    # pixel 0: strong_obj wins -> atom 1; pixel 1: parent wins -> sub_a vs sub_b
    np.testing.assert_array_equal(got, [[1, 2]])


def test_merge_child_choice_restricted_to_parent():
    part = AtomPartition(atoms=("p1_kid", "p2_kid", "par1", "par2"),
                         a_set=frozenset(), s_set=frozenset({1, 2}),
                         p_set=frozenset({3, 4}), parent_of={1: 3, 2: 4})
    # ap slots [par1, par2]; s slots [p1_kid, p2_kid]
    ap = np.array([[[0.8, 0.2]]])
    s = np.array([[[0.1, 0.9]]])  # p2_kid scores higher but belongs to par2
    got = merge_subclass_predictions(ap, s, part)
    np.testing.assert_array_equal(got, [[1]])  # par1 -> its only child p1_kid


def test_merge_trivial_partition_is_argmax():
    part = AtomPartition(atoms=("a", "b", "c"), a_set=frozenset({1, 2, 3}),
                         s_set=frozenset(), p_set=frozenset(), parent_of={})
    ap = np.array([[[0.2, 0.5, 0.3], [0.7, 0.1, 0.2]]])
    got = merge_subclass_predictions(ap, np.zeros((1, 2, 0)), part)
    np.testing.assert_array_equal(got, [[2, 1]])


@pytest.mark.parametrize("threshold, dropped", [(0.5, 2), (0.6, 4)])
def test_train_loop_drops_the_cache_of_an_item_without_rows(monkeypatch, threshold, dropped):
    # per step two box items have no votes; at threshold 0.6 the gate also
    # empties the two voted ones. Such an item keeps no forward cache and
    # runs no backward, and one without votes runs no forward either; the
    # batched step oracle, which keeps every cache and runs backward on
    # every item that ran forward (the emptied ones on +0.0 upstreams),
    # gives the same losses and weights, byte for byte
    datasets, tax = _box_world(73)
    boxes = datasets[2]
    labels = [boxes.labels[0], WeakLabel(), WeakLabel(boxes=((2, 0, 0, 4, 5),)), WeakLabel()]
    datasets[2] = LoadedDataset(space=boxes.space, images=boxes.images, labels=labels)
    plan = BatchPlan(quotas={"fine": 1, "coarse": 2, "boxes": 4}, seed=3)

    def optimizer():
        return OptimizerState(learning_rate=0.1, momentum=0.5)

    forwarded, backwarded = [], []
    real_forward, real_backward = model.forward, model.backward

    def counting_forward(params, image, count=1):
        forwarded.append(count)
        return real_forward(params, image, count)

    def counting_backward(cache, upstream):
        backwarded.append(cache.count)
        return real_backward(cache, upstream)

    monkeypatch.setattr(model, "forward", counting_forward)
    monkeypatch.setattr(model, "backward", counting_backward)
    got = train_loop(datasets, tax, None, plan, optimizer(), epochs=3,
                     refine_threshold=threshold, feature_width=3)
    steps = len(got.losses)
    assert steps == 12
    # items: the 4 boxes, then 2 coarse and 1 fine, the three 5x4 pixel items one chunk
    assert forwarded == [1, 1, 3] * steps  # the two voted boxes, then the chunk
    assert sum(backwarded) == (7 - dropped) * steps  # every image but the dropped ones
    monkeypatch.setattr(model, "forward", real_forward)
    monkeypatch.setattr(model, "backward", real_backward)
    want_losses, want_params = batched_train_oracle(datasets, tax, None, plan, optimizer(),
                                                    3, threshold, 3)
    assert got.losses == want_losses
    assert ([a.tobytes() for a in got.params.arrays()]
            == [a.tobytes() for a in want_params.arrays()])
