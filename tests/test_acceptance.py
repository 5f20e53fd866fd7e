"""End-to-end acceptance suite: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion. Each test prints the measured numbers it gates on.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from htss.annotations import (
    StrongLabel,
    WeakLabel,
    canvas_from_boxes,
    canvas_from_tags,
    refine_canvas,
)
from htss.cli import main as cli_main
from htss.lossgrad import batch_loss, group_index, softmax_atoms
from htss.metrics import iou_per_class, knowledgeability, miou
from htss.model import (
    BatchPlan,
    BatchSampler,
    LoadedDataset,
    MicroNetGrads,
    OptimizerState,
    backward,
    derive_train_seeds,
    evaluate,
    forward,
    init_micronet,
    predict_atoms,
    train_loop,
)
from htss.synthgen import (
    Concept,
    View,
    WorldSpec,
    generate_scene,
    relation_triples,
    view_space,
)
from htss.taxonomy import (
    PIXEL_DENSE,
    AtomPartition,
    RelationTable,
    build_group_sets,
    build_semantic_atoms,
    dataset_heads,
    partition_atoms,
    validate_taxonomy,
)

from oracles import (
    atoms_fixed_point_oracle,
    canvas_of_raster,
    fd_grad,
    random_taxonomy_instance,
    ref_softmax,
)


# --- shared plumbing ---

def one_pixel(vec):
    return canvas_of_raster(np.array([[vec]], dtype=np.float64))


def one_item_loss(target, probs, index):
    """Loss and logit gradient of a one-item batch: what training computes."""
    loss, grads = batch_loss([(target, probs, index, PIXEL_DENSE)])
    return loss, next(grads)


def memory_dataset(world, view):
    """Dense labels for a view, images and ids built straight from scenes."""
    space = view_space(world, view)
    to_view = {n: i for i, n in enumerate(space.classes)}
    parent = world.parent_of
    images, labels = [], []
    lut = np.array(
        [0] + [to_view.get(n if view.granularity == "fine" else parent[n], 0)
               for n in world.fine_names], dtype=np.int64)
    for i in range(view.count):
        s = generate_scene(world, view.start_index + i)
        images.append(s.features)
        labels.append(StrongLabel(class_ids=lut[s.fine_ids],
                                  num_classes=space.num_classes))
    return LoadedDataset(space=space, images=images, labels=labels)


def box_dataset(world, view):
    """One box per generated object that carries a class of the view."""
    space = view_space(world, view)
    to_view = {n: i for i, n in enumerate(space.classes)}
    images, labels = [], []
    for i in range(view.count):
        s = generate_scene(world, view.start_index + i)
        images.append(s.features)
        boxes = [(to_view[o.concept], o.x0, o.y0, o.x1, o.y1)
                 for o in s.objects if o.concept in to_view]
        labels.append(WeakLabel(boxes=tuple(boxes)))
    return LoadedDataset(space=space, images=images, labels=labels)


def build_tax(world, datasets):
    rel = RelationTable.from_triples(relation_triples(world))
    spaces = [ds.space for ds in datasets]
    atoms = build_semantic_atoms(spaces, rel)
    return build_group_sets(atoms, spaces, rel), rel


def mask_iou(gt, pred):
    inter = float(np.logical_and(gt, pred).sum())
    union = float(np.logical_or(gt, pred).sum())
    return inter / union if union else float("nan")


# --- worlds ---

def three_atom_world(seed, noise=0.15):
    # concept order matches sorted atom names, so view class order equals
    # atom order and singleton groups line up slot for slot
    return WorldSpec(
        height=12, width=12, channels=3,
        concepts=(Concept("cat", (1.0, 0.0, 0.0), noise),
                  Concept("dog", (0.0, 1.0, 0.0), noise),
                  Concept("field", (0.0, 0.0, 0.0), noise)),
        hierarchy=(("animal", ("cat", "dog")), ("terrain", ("field",))),
        background="field",
        objects_min=1, objects_max=2, size_min=3, size_max=6,
        seed=seed)


def six_atom_world(seed, noise=0.15):
    return WorldSpec(
        height=20, width=20, channels=3,
        concepts=(Concept("grass", (0.0, 0.0, 0.0), noise),
                  Concept("sand", (1.0, 1.0, 0.0), noise),
                  Concept("cat", (1.0, 0.0, 0.0), noise),
                  Concept("dog", (0.0, 1.0, 0.0), noise),
                  Concept("bus", (0.0, 0.0, 1.0), noise),
                  Concept("car", (1.0, 0.0, 1.0), noise)),
        hierarchy=(("terrain", ("grass", "sand")),
                   ("animal", ("cat", "dog")),
                   ("vehicle", ("bus", "car"))),
        background="grass",
        objects_min=2, objects_max=4, size_min=4, size_max=8,
        seed=seed)


def missing_class_world(seed, noise=0.15):
    return WorldSpec(
        height=20, width=20, channels=3,
        concepts=(Concept("field", (0.0, 0.0, 0.0), noise),
                  Concept("cat", (1.0, 0.0, 0.0), noise),
                  Concept("bus", (0.0, 0.0, 1.0), noise)),
        hierarchy=(("terrain", ("field",)), ("animal", ("cat",)),
                   ("vehicle", ("bus",))),
        background="field",
        objects_min=1, objects_max=2, size_min=4, size_max=7,
        seed=seed)


def subclass_world(seed, noise=0.15):
    return WorldSpec(
        height=20, width=20, channels=3,
        concepts=(Concept("field", (0.0, 0.0, 0.0), noise),
                  Concept("cat", (1.0, 0.0, 0.0), noise),
                  Concept("dog", (0.0, 1.0, 0.0), noise)),
        hierarchy=(("terrain", ("field",)), ("animal", ("cat", "dog"))),
        background="field",
        objects_min=2, objects_max=3, size_min=5, size_max=8,
        seed=seed)


# --- criterion 1: gradient oracle ---

def random_group_instance(rng):
    """Random canvas, logits and disjoint covering groups (<= 16 atoms)."""
    atoms = int(rng.integers(2, 17))
    n_groups = int(rng.integers(1, min(atoms, 4) + 1))
    perm = rng.permutation(atoms)
    cuts = sorted(rng.choice(np.arange(1, atoms), size=n_groups - 1,
                             replace=False).tolist())
    groups = tuple(frozenset(int(a) for a in piece)
                   for piece in np.split(perm, cuts))
    h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    num = len(groups)
    rows = np.zeros((h, w, num + 1))
    supervised = rng.random((h, w)) < 0.8
    supervised[0, 0] = True
    for y in range(h):
        for x in range(w):
            if not supervised[y, x]:
                rows[y, x, num] = 1.0
            elif rng.random() < 0.5:
                rows[y, x, int(rng.integers(num))] = 1.0
            else:
                raw = rng.random(num)
                rows[y, x, :num] = raw / raw.sum()
    target = canvas_of_raster(rows)
    z = rng.standard_normal((h, w, atoms))
    return target, z, groups


def test_criterion_1_group_ce_gradients_match_finite_differences():
    rng = np.random.default_rng(20260801)
    worst = 0.0
    for _ in range(200):
        target, z, groups = random_group_instance(rng)
        index = group_index(groups, z.shape[-1])

        def f(logits):
            return one_item_loss(target, softmax_atoms(logits), index)[0]

        _, got = one_item_loss(target, softmax_atoms(z), index)
        fd = fd_grad(f, z, eps=1e-4)
        err = np.abs(got - fd).max() / max(1.0, np.abs(fd).max())
        worst = max(worst, err)
        assert err < 1e-5
    print(f"[criterion 1] 200 instances, worst scaled gradient error {worst:.2e}")

    # closed forms
    target = one_pixel([1.0, 0.0, 0.0])
    probs = softmax_atoms(np.zeros((1, 1, 2)))
    index = group_index((frozenset({0}), frozenset({1})), 2)
    loss, grad = one_item_loss(target, probs, index)
    assert abs(loss - math.log(2.0)) < 1e-12
    np.testing.assert_allclose(grad[0, 0], [-0.5, 0.5], atol=1e-12)

    probs = softmax_atoms(np.zeros((1, 1, 3)))
    index = group_index((frozenset({0, 1}), frozenset({2})), 3)
    loss, grad = one_item_loss(target, probs, index)
    assert abs(loss - (-math.log(2.0 / 3.0))) < 1e-12
    np.testing.assert_allclose(grad[0, 0], [-1.0 / 6.0, -1.0 / 6.0, 1.0 / 3.0],
                               atol=1e-12)

    target = one_pixel([1.0, 0.0])
    probs = softmax_atoms(np.array([[[0.3, -1.2, 2.0]]]))
    index = group_index((frozenset({0, 1, 2}),), 3)
    loss, grad = one_item_loss(target, probs, index)
    assert loss == 0.0
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


# --- criterion 2: degeneracy to plain softmax cross-entropy ---

def test_criterion_2_singleton_groups_match_plain_softmax_ce_trainer():
    world = three_atom_world(31415)
    ds = memory_dataset(world, View("px", "pixel_dense", "fine", 10, 0))
    tax, _ = build_tax(world, [ds])
    assert tax.atoms == ds.space.classes[1:]
    groups = dataset_heads(tax, AtomPartition.trivial(tax), ds.space).loss_groups
    assert groups == tuple(frozenset({i}) for i in range(3))

    lr, mom, width, seed = 0.1, 0.5, 6, 202
    res = train_loop([ds], tax, None, BatchPlan(quotas={"px": 2}, seed=seed),
                     OptimizerState(learning_rate=lr, momentum=mom),
                     epochs=10, refine_threshold=0.9, feature_width=width)
    assert res.steps_per_epoch == 5 and len(res.losses) == 50

    # independent trainer: same seeded init and draws, textbook softmax-CE
    init_seed, sample_seed = derive_train_seeds(seed)
    params = init_micronet(3, width, 3, init_seed)
    sampler = BatchSampler({"px": 2}, {"px": len(ds.images)}, sample_seed)
    vel = MicroNetGrads.zeros_like(params)
    eye = np.eye(3, dtype=np.float64)
    denom = 2 * ds.images[0].shape[0] * ds.images[0].shape[1]
    ref_losses = []
    for _ in range(50):
        picks = sampler.next_batch()
        total = 0.0
        grads = MicroNetGrads.zeros_like(params)
        for idx in picks["px"]:
            logits, cache = forward(params, ds.images[idx])
            probs = ref_softmax(logits)
            onehot = eye[ds.labels[idx].class_ids - 1]
            total += (-(onehot * np.log(probs)).sum(axis=2)).sum() / denom
            grads.iadd(backward(cache, (probs - onehot) / denom))
        ref_losses.append(total)
        for p, g, v in zip(params.arrays(), grads.arrays(), vel.arrays()):
            v *= mom
            v += g
            p -= lr * v

    step_err = max(abs(a - b) for a, b in zip(res.losses, ref_losses))
    param_err = max(np.abs(a - b).max()
                    for a, b in zip(res.params.arrays(), params.arrays()))
    print(f"[criterion 2] 50 steps, worst loss gap {step_err:.2e}, "
          f"final weight gap {param_err:.2e}")
    assert step_err < 1e-12
    assert param_err < 1e-12


# --- criterion 3: taxonomy oracle ---

def test_criterion_3_atom_extraction_matches_fixed_point_oracle():
    rng = np.random.default_rng(5005)
    for _ in range(500):
        spaces, triples = random_taxonomy_instance(rng)
        rel = RelationTable.from_triples(triples)
        got = build_semantic_atoms(spaces, rel)
        names = {n for sp in spaces for n in sp.classes[1:]}
        assert got == atoms_fixed_point_oracle(names, rel)
        assert validate_taxonomy(build_group_sets(got, spaces, rel), spaces) == ()
    print("[criterion 3] 500 instances match the removal oracle, 0 violations")


# --- criterion 4: pseudo-label canvas fuzz ---

def test_criterion_4_canvas_simplex_zero_vote_and_threshold_rules():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        num = int(rng.integers(1, 6))
        boxes = []
        for _ in range(int(rng.integers(0, 5))):
            x0 = int(rng.integers(0, w))
            y0 = int(rng.integers(0, h))
            x1 = int(rng.integers(x0 + 1, w + 1))
            y1 = int(rng.integers(y0 + 1, h + 1))
            boxes.append((int(rng.integers(1, num + 1)), x0, y0, x1, y1))
        tags = tuple(int(t) for t in rng.choice(
            np.arange(1, num + 1), size=int(rng.integers(0, min(num, 3) + 1)),
            replace=False))
        label = WeakLabel(boxes=tuple(boxes), tags=tags)
        if rng.random() < 0.5 or not tags:
            canvas = canvas_from_boxes(label, h, w, num)
            votes = np.zeros((h, w), dtype=np.int64)
            for _, x0, y0, x1, y1 in boxes:
                votes[y0:y1, x0:x1] += 1
        else:
            canvas = canvas_from_tags(label, h, w, num)
            votes = np.full((h, w), len(label.tags), dtype=np.int64)

        np.testing.assert_allclose(canvas.probs.sum(axis=2), 1.0, atol=1e-6)
        # no votes <=> the unlabeled slot carries the whole pixel, exactly
        np.testing.assert_array_equal(canvas.probs[:, :, num] == 1.0,
                                      votes == 0)
        assert np.array_equal(canvas.supervised_mask, votes > 0)

        preds = rng.random((h, w, num))
        preds /= preds.sum(axis=2, keepdims=True)
        lo, hi = sorted(rng.random(2))
        voted = preds[canvas.supervised_mask]
        kept_lo = refine_canvas(canvas, voted, lo).supervised_mask
        kept_hi = refine_canvas(canvas, voted, hi).supervised_mask
        assert not np.any(kept_hi & ~kept_lo)  # raising only removes pixels
    print("[criterion 4] 1000 canvases: simplex, unlabeled rule, "
          "monotone refinement")


# --- criterion 5: knowledgeability ---

def test_criterion_5_knowledgeability_worked_case_bounds_monotonicity():
    assert abs(knowledgeability([0.5, 0.25, 0.75], 2, 4) - 0.625) < 1e-15
    assert knowledgeability([0.0] * 6, 3, 5) == 0.0
    assert abs(knowledgeability([1.0] * 4, 6, 7) - 4.0 / 6.0) < 1e-15
    assert abs(knowledgeability([1.0] * 9, 4, 3) - 1.0) < 1e-15

    rng = np.random.default_rng(77)
    for _ in range(1000):
        count = int(rng.integers(1, 12))
        c = int(rng.integers(1, 12))
        n_t = int(rng.integers(1, 9))
        ious = rng.random(count)
        k = knowledgeability(ious, c, n_t)
        assert 0.0 <= k <= min(count, c) / c + 1e-12
        raised = ious.copy()
        j = int(rng.integers(count))
        raised[j] = raised[j] + (1.0 - raised[j]) * rng.random()
        assert knowledgeability(raised, c, n_t) >= k - 1e-12
    print("[criterion 5] worked case 0.625, bounds and monotonicity over "
          "1000 draws")


# --- criterion 6: coarse + fine joint training ---

def test_criterion_6_joint_training_closes_gap_to_fine_oracle():
    t0 = time.time()
    world = six_atom_world(424242)
    a_coarse = View("dsa", "pixel_dense", "coarse", 200, 0)
    a_fine = View("dsa", "pixel_dense", "fine", 200, 0)
    b_fine = View("dsb", "pixel_dense", "fine", 200, 200)
    b_coarse = View("dsb", "pixel_dense", "coarse", 200, 200)
    ds_eval = memory_dataset(world, View("evalf", "pixel_dense", "fine",
                                         24, 5000))

    def run(views):
        datasets = [memory_dataset(world, v) for v in views]
        tax, rel = build_tax(world, datasets)
        res = train_loop(datasets, tax, None,
                         BatchPlan(quotas={"dsa": 4, "dsb": 4}, seed=0),
                         OptimizerState(learning_rate=0.3, momentum=0.9),
                         epochs=16, refine_threshold=0.9, feature_width=8)
        return res.params, tax, rel

    joint_params, joint_tax, rel = run([a_coarse, b_fine])
    oracle_params, oracle_tax, _ = run([a_fine, b_fine])
    base_params, base_tax, _ = run([a_coarse, b_coarse])

    def fine_miou(params, tax):
        part = AtomPartition.trivial(tax)
        return miou(evaluate(params, part, ds_eval, rel))

    def coarse_credit_miou(params, tax):
        # the coarse-only net is asked for fine classes: credit each fine
        # class with the region predicted as its parent
        part = AtomPartition.trivial(tax)
        atom_pos = {n: i + 1 for i, n in enumerate(tax.atoms)}
        preds = [predict_atoms(params, img, part) for img in ds_eval.images]
        per_class = []
        for m, cname in enumerate(ds_eval.space.classes[1:], start=1):
            pa = atom_pos[world.parent_of[cname]]
            vals = [mask_iou(lab.class_ids == m, ids == pa)
                    for lab, ids in zip(ds_eval.labels, preds)]
            per_class.append(float(np.nanmean(vals)))
        return float(np.mean(per_class))

    joint = fine_miou(joint_params, joint_tax)
    oracle = fine_miou(oracle_params, oracle_tax)
    base = coarse_credit_miou(base_params, base_tax)
    elapsed = time.time() - t0
    print(f"[criterion 6] fine mIoU: joint {joint:.3f}, oracle {oracle:.3f}, "
          f"coarse-only {base:.3f} ({elapsed:.1f}s)")
    assert joint >= oracle - 0.05
    assert joint >= base + 0.15
    assert elapsed < 300.0


# --- criterion 7: boxes recover a class the strong data lacks ---

def test_criterion_7_boxes_recover_class_missing_from_strong_data():
    world = missing_class_world(717171)
    ds_strong = memory_dataset(world, View("strong", "pixel_dense", "fine",
                                           40, 0, classes=("field", "bus")))
    ds_weak = box_dataset(world, View("boxes", "bbox", "fine", 40, 40,
                                      classes=("cat",)))
    ds_eval = memory_dataset(world, View("evalf", "pixel_dense", "fine",
                                         16, 1000))
    rel = RelationTable.from_triples(relation_triples(world))
    spaces = [ds_strong.space, ds_weak.space]
    tax = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = AtomPartition.trivial(tax)

    res_a = train_loop([ds_strong], tax, None,
                       BatchPlan(quotas={"strong": 4}, seed=0),
                       OptimizerState(learning_rate=0.2, momentum=0.9),
                       epochs=20, refine_threshold=0.9, feature_width=8)
    res_b = train_loop([ds_strong, ds_weak], tax, None,
                       BatchPlan(quotas={"strong": 4, "boxes": 4}, seed=0),
                       OptimizerState(learning_rate=0.2, momentum=0.9),
                       epochs=20, refine_threshold=0.9, feature_width=8)

    iou_a = iou_per_class(evaluate(res_a.params, part, ds_eval, rel))[0]
    iou_b = iou_per_class(evaluate(res_b.params, part, ds_eval, rel))[0]
    i_cat = ds_eval.space.class_index("cat")
    rest = [ds_eval.space.class_index("field"), ds_eval.space.class_index("bus")]
    gain = iou_b[i_cat] - iou_a[i_cat]
    rest_drop = float(np.mean(iou_a[rest]) - np.mean(iou_b[rest]))
    print(f"[criterion 7] IoU(cat) {iou_a[i_cat]:.3f} -> {iou_b[i_cat]:.3f} "
          f"(gain {gain:+.3f}), other-class mIoU drop {rest_drop:+.3f}")
    assert gain >= 0.10
    assert rest_drop <= 0.02


# --- criterion 8: subclass boxes under a pixel-labeled parent ---

def test_criterion_8_subclass_boxes_split_parent_without_degrading_it():
    world = subclass_world(888)
    ds_coarse = memory_dataset(world, View("coarse_px", "pixel_dense",
                                           "coarse", 40, 0))
    ds_sub = box_dataset(world, View("subboxes", "bbox", "fine", 40, 40,
                                     classes=("cat", "dog")))
    ds_eval_par = memory_dataset(world, View("evalc", "pixel_dense",
                                             "coarse", 24, 1000))
    ds_eval_sub = memory_dataset(world, View("evalf", "pixel_dense", "fine",
                                             24, 1000, classes=("cat", "dog")))

    rel = RelationTable.from_triples(relation_triples(world))
    spaces = [ds_coarse.space, ds_sub.space]
    tax = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(tax, spaces, rel)
    assert part.atoms == ("cat", "dog", "terrain", "animal")
    assert part.ap_atoms == (3, 4) and part.s_atoms == (1, 2)

    res = train_loop([ds_coarse, ds_sub], tax, part,
                     BatchPlan(quotas={"coarse_px": 4, "subboxes": 4}, seed=1),
                     OptimizerState(learning_rate=0.3, momentum=0.9),
                     epochs=20, refine_threshold=0.7, feature_width=8)

    iou_sub = iou_per_class(evaluate(res.params, part, ds_eval_sub, rel))[0]
    i_cat = ds_eval_sub.space.class_index("cat")
    i_dog = ds_eval_sub.space.class_index("dog")

    miou_with = miou(evaluate(res.params, part, ds_eval_par, rel))
    base_tax = build_group_sets(
        build_semantic_atoms([ds_coarse.space], rel), [ds_coarse.space], rel)
    base = train_loop([ds_coarse], base_tax, None,
                      BatchPlan(quotas={"coarse_px": 4}, seed=1),
                      OptimizerState(learning_rate=0.3, momentum=0.9),
                      epochs=20, refine_threshold=0.7, feature_width=8)
    miou_without = miou(evaluate(base.params, AtomPartition.trivial(base_tax),
                                 ds_eval_par, rel))

    print(f"[criterion 8] subclass IoU cat {iou_sub[i_cat]:.3f} "
          f"dog {iou_sub[i_dog]:.3f}; parent mIoU {miou_with:.3f} vs "
          f"{miou_without:.3f} without boxes")
    assert min(iou_sub[i_cat], iou_sub[i_dog]) > 0.3
    assert abs(miou_with - miou_without) <= 0.02


# --- criterion 9: command-line determinism ---

def world_doc(seed=5):
    return {
        "height": 8, "width": 8, "channels": 2,
        "concepts": [
            {"name": "field", "signature": [0.0, 0.0], "noise": 0.05},
            {"name": "cat", "signature": [1.0, 0.0], "noise": 0.05},
            {"name": "dog", "signature": [0.0, 1.0], "noise": 0.05},
        ],
        "hierarchy": [["terrain", ["field"]], ["animal", ["cat", "dog"]]],
        "background": "field",
        "objects_min": 1, "objects_max": 2,
        "size_min": 2, "size_max": 4,
        "seed": seed,
        "views": [
            {"dataset_id": "fine_px", "supervision": "pixel_dense",
             "granularity": "fine", "count": 4},
            {"dataset_id": "coarse_px", "supervision": "pixel_coarse",
             "granularity": "coarse", "count": 4, "start_index": 4},
            {"dataset_id": "boxes", "supervision": "bbox",
             "granularity": "fine", "count": 4, "start_index": 8},
        ],
    }


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path):
    def run_twice(cmd, base):
        trees = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}_{tag}"
            cfg = tmp_path / f"{cmd}_{tag}.json"
            cfg.write_text(json.dumps(dict(base, out=str(out)), indent=2) + "\n",
                           encoding="utf-8")
            assert cli_main([cmd, "--config", str(cfg)]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1], f"{cmd} rerun differs"

    world = tmp_path / "world.json"
    world.write_text(json.dumps(world_doc()) + "\n", encoding="utf-8")
    run_twice("gen", {"world": str(world)})

    data = tmp_path / "gen_a"
    run_twice("taxonomy", {
        "label_spaces": [str(data / "fine_px_space.json"),
                         str(data / "coarse_px_space.json")],
        "relations": str(data / "relations.tsv"),
    })
    run_twice("pseudolabel", {"manifests": [str(data / "boxes_manifest.json")]})
    run_twice("train", {
        "manifests": [str(data / "fine_px_manifest.json"),
                      str(data / "coarse_px_manifest.json")],
        "relations": str(data / "relations.tsv"),
        "quotas": {"fine_px": 2, "coarse_px": 2},
        "learning_rate": 0.1, "momentum": 0.5, "epochs": 2,
        "feature_width": 4, "seed": 11,
    })
    run_twice("eval", {
        "checkpoint": str(tmp_path / "train_a" / "final.ckpt"),
        "manifests": [str(data / "fine_px_manifest.json")],
        "train_label_spaces": [str(data / "fine_px_space.json"),
                               str(data / "coarse_px_space.json")],
        "relations": str(data / "relations.tsv"),
        "c_values": [2, 3], "n_t": 4,
    })
    print("[criterion 9] gen, taxonomy, pseudolabel, train and eval rerun "
          "byte-identical")
