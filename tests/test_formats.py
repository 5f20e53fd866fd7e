import re
import struct

import numpy as np
import pytest

from htss.annotations import WeakLabel
from htss.errors import FormatError
from htss.formats import (
    CKPT_MAGIC,
    RASTER_MAGIC,
    checked_fields,
    has_type,
    read_array_file,
    read_label_space,
    read_manifest,
    read_raster,
    read_relations,
    read_weak_label,
    write_array_file,
    write_json,
    write_label_space,
    write_raster,
    write_relations,
    write_weak_label,
)
from htss.taxonomy import BBOX, HYPERNYM, PIXEL_DENSE, SYNONYM, LabelSpace


def test_raster_roundtrip_f32(tmp_path):
    p = tmp_path / "a.rast"
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7.0
    write_raster(p, arr)
    back = read_raster(p)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_raster_roundtrip_u16(tmp_path):
    p = tmp_path / "b.rast"
    arr = np.array([[0, 1], [65535, 7]], dtype=np.uint16)
    write_raster(p, arr)
    back = read_raster(p)
    assert back.dtype == np.uint16
    assert np.array_equal(back, arr)


def test_raster_deterministic_bytes(tmp_path):
    arr = np.ones((3, 5), dtype=np.float32)
    p1, p2 = tmp_path / "x.rast", tmp_path / "y.rast"
    write_raster(p1, arr)
    write_raster(p2, arr)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:8] == RASTER_MAGIC


def test_raster_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.rast"
    p.write_bytes(b"NOTRIGHT" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_raster(p)


def test_raster_rejects_truncation(tmp_path):
    p = tmp_path / "t.rast"
    write_raster(p, np.zeros((4, 4), dtype=np.float32))
    blob = p.read_bytes()
    p.write_bytes(blob[:-3])
    with pytest.raises(FormatError):
        read_raster(p)


def test_raster_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "t2.rast"
    write_raster(p, np.zeros((2, 2), dtype=np.uint16))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        read_raster(p)


def test_raster_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(FormatError):
        write_raster(tmp_path / "z.rast", np.zeros((2, 2), dtype=np.int32))


def test_checkpoint_container_roundtrip(tmp_path):
    p = tmp_path / "c.ckpt"
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(s) for s in [(3, 3, 2, 4), (4,), (2, 2)]]
    write_array_file(p, arrays)
    assert p.read_bytes()[:8] == CKPT_MAGIC
    back = read_array_file(p)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        assert b.dtype == np.float64
        assert np.array_equal(a, b)


def test_checkpoint_rejects_corrupt_header(tmp_path):
    p = tmp_path / "c.ckpt"
    write_array_file(p, [np.zeros(3)])
    blob = bytearray(p.read_bytes())
    blob[0] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_array_file(p)


def _raster_header(rank, dims):
    return RASTER_MAGIC + struct.pack(f"<II{len(dims)}I", 1, rank, *dims)


def _checkpoint_header(rank, dims):  # version 1, one array
    return CKPT_MAGIC + struct.pack(f"<III{len(dims)}I", 1, 1, rank, *dims)


@pytest.mark.parametrize("header, read", [(_raster_header, read_raster),
                                          (_checkpoint_header, read_array_file)])
@pytest.mark.parametrize("rank, dims, detail", [
    (0, (), "rank 0"),
    (5, (1,) * 5, "rank 5"),
    (3, (4,), "truncated header"),        # the file ends inside the dims
    (2, (64, 64), "truncated"),           # the payload the dims claim runs past the end
    (3, (2, 0, 2), "empty"),
])
def test_array_headers_are_checked_in_both_formats(tmp_path, header, read, rank, dims, detail):
    p = tmp_path / "a.bin"
    p.write_bytes(header(rank, dims))
    with pytest.raises(FormatError, match=detail) as got:
        read(p)
    assert got.value.path == str(p)


def test_weak_label_roundtrip(tmp_path):
    p = tmp_path / "w.weak"
    lab = WeakLabel(boxes=((2, 0, 0, 4, 4), (1, 1, 2, 3, 5)), tags=(2, 1, 2))
    write_weak_label(p, lab)
    back = read_weak_label(p)
    assert back.boxes == lab.boxes
    assert back.tags == (1, 2)


def test_weak_label_boxless_roundtrip(tmp_path):
    p = tmp_path / "w0.weak"
    lab = WeakLabel(boxes=(), tags=(3,))
    write_weak_label(p, lab)
    back = read_weak_label(p)
    assert back.boxes == ()
    assert back.tags == (3,)


def test_weak_label_requires_tags_record(tmp_path):
    p = tmp_path / "w1.weak"
    p.write_text("1 0 0 2 2\n")
    with pytest.raises(FormatError):
        read_weak_label(p)


def test_weak_label_rejects_malformed_box(tmp_path):
    p = tmp_path / "w2.weak"
    p.write_text("1 0 0 2\ntags:\n")
    with pytest.raises(FormatError):
        read_weak_label(p)


def test_label_space_roundtrip(tmp_path):
    p = tmp_path / "s.json"
    sp = LabelSpace(dataset_id="d0", classes=("void", "car", "person"),
                    supervision=PIXEL_DENSE)
    write_label_space(p, sp)
    assert read_label_space(p) == sp


def test_relations_roundtrip_and_dedup(tmp_path):
    p = tmp_path / "r.tsv"
    triples = [
        (HYPERNYM, "rider", "bicyclist"),
        (SYNONYM, "auto", "automobile"),
        (HYPERNYM, "rider", "bicyclist"),
    ]
    write_relations(p, triples)
    text = p.read_text()
    assert text.count("rider") == 1
    table = read_relations(p)
    assert table.generalizes("rider", "bicyclist")
    assert table.synonymous("automobile", "auto")


def test_relations_rejects_bad_kind(tmp_path):
    p = tmp_path / "r2.tsv"
    p.write_text("meronym\ta\tb\n")
    with pytest.raises(FormatError):
        read_relations(p)


def test_manifest_roundtrip(tmp_path):
    p = tmp_path / "m.json"
    doc = {
        "dataset_id": "d0",
        "supervision": BBOX,
        "granularity": "fine",
        "label_space": "space.json",
        "records": [["img_00000.rast", "lab_00000.weak"]],
    }
    write_json(p, doc)
    assert read_manifest(p) == doc
    # stable serialization: keys sorted, trailing newline
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index("dataset_id") < text.index("records")


def test_manifest_missing_key(tmp_path):
    p = tmp_path / "m2.json"
    p.write_text('{"dataset_id": "d0"}\n')
    with pytest.raises(FormatError):
        read_manifest(p)


def test_has_type_checks_json_values_and_their_items():
    assert has_type(3, float) and has_type(True, bool)
    assert not has_type(True, int) and not has_type(2.0, int) and not has_type(1, bool)
    assert has_type(["a", "b"], list[str]) and not has_type(["a", 1], list[str])
    assert has_type({"x": 1}, dict[str, int]) and not has_type({"x": True}, dict[str, int])
    assert not has_type({"x": 1}, list[int]) and not has_type([1], dict[str, int])
    assert has_type([["a", "b"]], list[list[str]]) and not has_type([["a", 2]], list[list[str]])


@pytest.mark.parametrize("doc, detail", [
    ([], "thing must be a JSON object"),
    ({"name": "a", "nmae": "b"}, "unknown thing keys: ['nmae']"),
    ({"sizes": [1]}, "thing missing key 'name'"),
    ({"name": "a", "sizes": [1, "2"]}, "thing key 'sizes' must be a list of integers"),
    ({"name": "a", "scale": "2"}, "thing key 'scale' must be a number, got '2'"),
])
def test_checked_fields_names_the_key(doc, detail):
    fields = {"name": (str, ...), "sizes": (list[int], []), "scale": (float, 1.0)}
    with pytest.raises(FormatError, match=re.escape(detail)):
        checked_fields(doc, fields, "thing", lambda msg: FormatError("t.json", msg))
    assert checked_fields({"name": "a", "scale": 2}, fields, "thing", ValueError) == {
        "name": "a", "sizes": [], "scale": 2}
