import numpy as np
import pytest

from htss.annotations import StrongLabel, WeakLabel
from htss.errors import ConfigError
from htss.formats import read_manifest
from htss.synthgen import (
    Concept,
    View,
    WorldSpec,
    emit_dataset,
    generate_scene,
    load_dataset,
    relation_triples,
    view_space,
)
from htss.taxonomy import (
    BBOX,
    HYPERNYM,
    IMAGE_TAG,
    PIXEL_COARSE,
    PIXEL_DENSE,
    RelationTable,
    build_group_sets,
    build_semantic_atoms,
    validate_taxonomy,
)


def tiny_world(**overrides):
    base = dict(
        height=12, width=10, channels=2,
        concepts=(
            Concept("grass", (0.0, 0.0), 0.05),
            Concept("cat", (1.0, 0.0), 0.05),
            Concept("dog", (0.0, 1.0), 0.05),
            Concept("bus", (1.0, 1.0), 0.05),
        ),
        hierarchy=(("terrain", ("grass",)), ("animal", ("cat", "dog")),
                   ("vehicle", ("bus",))),
        background="grass",
        objects_min=1, objects_max=3,
        size_min=2, size_max=5,
        seed=77,
    )
    base.update(overrides)
    return WorldSpec(**base)


def test_world_validation():
    with pytest.raises(ConfigError):
        tiny_world(background="sky")
    with pytest.raises(ConfigError):
        tiny_world(hierarchy=(("animal", ("cat", "dog")),))  # misses concepts
    with pytest.raises(ConfigError):
        tiny_world(hierarchy=(("cat", ("grass", "cat", "dog", "bus")),))  # name clash
    with pytest.raises(ConfigError):
        tiny_world(size_max=50)
    with pytest.raises(ConfigError):
        tiny_world(concepts=(
            Concept("grass", (0.0, 0.0), 0.05),
            Concept("cat", (0.0, 0.0), 0.05),
            Concept("dog", (0.0, 1.0), 0.05),
            Concept("bus", (1.0, 1.0), 0.05),
        ))  # duplicate signature


def test_scene_deterministic_per_index():
    w = tiny_world()
    a = generate_scene(w, 3)
    b = generate_scene(w, 3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.fine_ids, b.fine_ids)
    assert a.objects == b.objects
    c = generate_scene(w, 4)
    assert not np.array_equal(a.fine_ids, c.fine_ids) or a.objects != c.objects


def test_scene_ids_and_shapes():
    w = tiny_world()
    s = generate_scene(w, 0)
    assert s.features.shape == (12, 10, 2)
    assert s.fine_ids.shape == (12, 10)
    assert s.fine_ids.min() >= 1
    assert s.fine_ids.max() <= 4


def test_scene_zero_objects_is_all_background():
    w = tiny_world(objects_min=0, objects_max=0)
    s = generate_scene(w, 5)
    assert np.all(s.fine_ids == 1)  # grass
    assert s.objects == ()


def test_scene_objects_fit_their_boxes():
    w = tiny_world(objects_min=1, objects_max=1)
    for idx in range(10):
        s = generate_scene(w, idx)
        (obj,) = s.objects
        cid = w.fine_names.index(obj.concept) + 1
        region = s.fine_ids[obj.y0:obj.y1, obj.x0:obj.x1]
        assert np.all(region == cid)  # single object: nothing occludes it
        outside = s.fine_ids.copy()
        outside[obj.y0:obj.y1, obj.x0:obj.x1] = 1
        assert np.all(outside == 1)


def test_scene_later_objects_occlude():
    # boxes record the full pre-occlusion extent even when overdrawn
    w = tiny_world(objects_min=6, objects_max=6, size_min=6, size_max=8)
    found = False
    for idx in range(30):
        s = generate_scene(w, idx)
        for obj in s.objects:
            cid = w.fine_names.index(obj.concept) + 1
            region = s.fine_ids[obj.y0:obj.y1, obj.x0:obj.x1]
            if not np.all(region == cid):
                found = True
        # the last object drawn is never occluded
        last = s.objects[-1]
        cid = w.fine_names.index(last.concept) + 1
        assert np.all(s.fine_ids[last.y0:last.y1, last.x0:last.x1] == cid)
    assert found


def test_view_space_subset_preserves_order():
    w = tiny_world()
    v = View(dataset_id="d", supervision=PIXEL_DENSE, granularity="fine",
             count=1, classes=("dog", "cat"))
    sp = view_space(w, v)
    assert sp.classes == ("void", "cat", "dog")  # world order, not request order
    with pytest.raises(ConfigError):
        view_space(w, View(dataset_id="d", supervision=PIXEL_DENSE,
                           granularity="fine", count=1, classes=("horse",)))


def test_relation_triples_cover_hierarchy():
    w = tiny_world()
    triples = relation_triples(w)
    assert (HYPERNYM, "animal", "cat") in triples
    assert (HYPERNYM, "animal", "dog") in triples
    assert len(triples) == 4


def test_emit_and_load_pixel_dataset(tmp_path):
    w = tiny_world()
    v = View(dataset_id="fine_px", supervision=PIXEL_DENSE, granularity="fine",
             count=3)
    man = emit_dataset(w, v, tmp_path)
    ds = load_dataset(man)
    assert ds.dataset_id == "fine_px"
    assert len(ds.images) == 3
    scene = generate_scene(w, 0)
    assert ds.images[0].dtype == np.float32  # held as on disk; forward widens
    assert ds.images[0].tobytes() == scene.features.astype(np.float32).tobytes()
    assert isinstance(ds.labels[0], StrongLabel)
    np.testing.assert_array_equal(ds.labels[0].class_ids, scene.fine_ids)


def test_emit_coarse_labels_follow_hierarchy(tmp_path):
    w = tiny_world()
    v = View(dataset_id="coarse_px", supervision=PIXEL_COARSE,
             granularity="coarse", count=2)
    man = emit_dataset(w, v, tmp_path)
    ds = load_dataset(man)
    space = ds.space
    parent = w.parent_of
    for i in range(2):
        scene = generate_scene(w, i)
        want = np.array([space.class_index(parent[w.fine_names[fid - 1]])
                         for fid in scene.fine_ids.ravel()]).reshape(scene.fine_ids.shape)
        np.testing.assert_array_equal(ds.labels[i].class_ids, want)


def test_emit_subset_view_voids_dropped_classes(tmp_path):
    w = tiny_world()
    v = View(dataset_id="nocat", supervision=PIXEL_DENSE, granularity="fine",
             count=4, classes=("grass", "dog", "bus"))
    man = emit_dataset(w, v, tmp_path)
    ds = load_dataset(man)
    for i in range(4):
        scene = generate_scene(w, i)
        cat_mask = scene.fine_ids == 2  # cat's world id
        assert np.all(ds.labels[i].class_ids[cat_mask] == 0)
        assert not np.any((ds.labels[i].class_ids == 0) & ~cat_mask)


def test_emit_boxes_record_pre_occlusion_extent(tmp_path):
    w = tiny_world(objects_min=3, objects_max=5)
    v = View(dataset_id="boxes", supervision=BBOX, granularity="fine", count=5)
    man = emit_dataset(w, v, tmp_path)
    ds = load_dataset(man)
    space = ds.space
    for i in range(5):
        scene = generate_scene(w, i)
        assert isinstance(ds.labels[i], WeakLabel)
        want = tuple((space.class_index(o.concept), o.x0, o.y0, o.x1, o.y1)
                     for o in scene.objects)
        assert ds.labels[i].boxes == want


def test_emit_box_pad_clamps_to_canvas(tmp_path):
    w = tiny_world(objects_min=2, objects_max=2, box_pad=2)
    v = View(dataset_id="pad", supervision=BBOX, granularity="fine", count=3)
    man = emit_dataset(w, v, tmp_path)
    ds = load_dataset(man)
    for i in range(3):
        scene = generate_scene(w, i)
        for (cls, x0, y0, x1, y1), obj in zip(ds.labels[i].boxes, scene.objects):
            assert x0 == max(0, obj.x0 - 2) and y0 == max(0, obj.y0 - 2)
            assert x1 == min(w.width, obj.x1 + 2) and y1 == min(w.height, obj.y1 + 2)


def test_emit_tags_list_visible_classes(tmp_path):
    w = tiny_world()
    v = View(dataset_id="tags", supervision=IMAGE_TAG, granularity="coarse",
             count=4)
    man = emit_dataset(w, v, tmp_path)
    ds = load_dataset(man)
    space = ds.space
    parent = w.parent_of
    for i in range(4):
        scene = generate_scene(w, i)
        visible = {parent[w.fine_names[fid - 1]] for fid in np.unique(scene.fine_ids)}
        want = tuple(sorted(space.class_index(n) for n in visible))
        assert ds.labels[i].tags == want


def test_emit_is_byte_deterministic(tmp_path):
    w = tiny_world()
    v = View(dataset_id="d", supervision=PIXEL_DENSE, granularity="fine", count=2)
    m1 = read_manifest(emit_dataset(w, v, tmp_path / "a"))
    m2 = read_manifest(emit_dataset(w, v, tmp_path / "b"))
    assert m1 == m2 and len(m1["records"]) == 2
    for rel in [m1["label_space"], *(p for record in m1["records"] for p in record)]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_start_index_offsets_scene_stream(tmp_path):
    w = tiny_world()
    a = View(dataset_id="a", supervision=PIXEL_DENSE, granularity="fine",
             count=2, start_index=0)
    b = View(dataset_id="b", supervision=PIXEL_DENSE, granularity="fine",
             count=2, start_index=2)
    ma = emit_dataset(w, a, tmp_path)
    mb = emit_dataset(w, b, tmp_path)
    da, db = load_dataset(ma), load_dataset(mb)
    assert not np.array_equal(da.images[0], db.images[0])
    np.testing.assert_array_equal(db.images[0],
                                  generate_scene(w, 2).features.astype(np.float32))


def test_world_taxonomy_roundtrip(tmp_path):
    # fine + coarse views of one world rebuild the expected taxonomy
    w = tiny_world()
    fine = View(dataset_id="f", supervision=PIXEL_DENSE, granularity="fine", count=1)
    coarse = View(dataset_id="c", supervision=PIXEL_COARSE, granularity="coarse",
                  count=1)
    spaces = [view_space(w, fine), view_space(w, coarse)]
    rel = RelationTable.from_triples(relation_triples(w))
    atoms = build_semantic_atoms(spaces, rel)
    assert atoms == sorted(w.fine_names)
    t = build_group_sets(atoms, spaces, rel)
    assert validate_taxonomy(t, spaces) == ()
    csp = spaces[1]
    for coarse_name, fine_children in w.hierarchy:
        got = t.groups[("c", csp.class_index(coarse_name))]
        assert got == frozenset(t.atoms.index(f) + 1 for f in fine_children)
