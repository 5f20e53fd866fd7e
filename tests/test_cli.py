import json
import logging
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from htss.cli import main
from htss.formats import read_manifest, read_raster
from htss.model import load_checkpoint


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def world_doc(seed=5, views=None):
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
        "views": views or [
            {"dataset_id": "fine_px", "supervision": "pixel_dense",
             "granularity": "fine", "count": 4},
            {"dataset_id": "coarse_px", "supervision": "pixel_coarse",
             "granularity": "coarse", "count": 4, "start_index": 4},
            {"dataset_id": "boxes", "supervision": "bbox",
             "granularity": "fine", "count": 4, "start_index": 8},
            {"dataset_id": "tags", "supervision": "image_tag",
             "granularity": "coarse", "count": 4, "start_index": 12},
        ],
    }


@pytest.fixture()
def gen_tree(tmp_path):
    world = write_json(tmp_path / "world.json", world_doc())
    cfg = write_json(tmp_path / "gen.json", {"world": world,
                                             "out": str(tmp_path / "data")})
    assert main(["gen", "--config", cfg]) == 0
    return tmp_path / "data"


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_print_config_exits_zero(capsys):
    assert main(["train", "--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["learning_rate"] == 0.2
    assert doc["refine_threshold"] == 0.9


def test_missing_config_is_config_error(capsys):
    assert main(["gen"]) == 2


def test_unknown_log_level_exits_cleanly():
    # in a fresh interpreter: under pytest the root logger has handlers
    # already, so basicConfig would not read the level at all
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, HTSS_LOG="basic_format",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "htss.cli", "gen"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    note, error = done.stderr.splitlines()
    assert note == "HTSS_LOG='basic_format' is not a log level; logging at WARNING"
    assert error.startswith("config error: ")


@pytest.mark.parametrize("value, level", [
    ("basic_format", None), ("raiseexceptions", None), ("", None),
    ("debug", "DEBUG"), ("Error", "ERROR"), ("WARNING", "WARNING")])
def test_log_level_names(value, level, monkeypatch, capsys):
    # anything but a level name (None) is WARNING, with a one-line note
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    monkeypatch.setenv("HTSS_LOG", value)
    assert main(["gen"]) == 2
    assert levels == [level or "WARNING"]
    note = f"HTSS_LOG={value!r} is not a log level; logging at WARNING\n"
    assert capsys.readouterr().err.startswith(note) == (level is None)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"wrold": "x"})
    assert main(["gen", "--config", cfg]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_removed_checkpoint_every_key_rejected(tmp_path, capsys):
    assert main(["train", "--print-config"]) == 0
    assert "checkpoint_every" not in json.loads(capsys.readouterr().out)
    cfg = write_json(tmp_path / "t.json", {"checkpoint_every": 5,
                                           "out": str(tmp_path / "run")})
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "checkpoint_every" in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key, value", [
    ("gen", "world", 5),
    ("gen", "out", 7),
    ("taxonomy", "relations", 5),
    ("taxonomy", "relations", ["relations.tsv"]),
    ("taxonomy", "partition", "no"),
    ("train", "epochs", 1.9),
    ("train", "feature_width", True),
    ("train", "quotas", {"fine_px": 2.9}),
    ("eval", "n_t", 2.5),
    ("eval", "c_values", "12"),
    ("eval", "checkpoint", 5),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, gen_tree, capsys, monkeypatch,
                                            command, key, value):
    from htss.formats import write_array_file
    ckpt = tmp_path / "zero.ckpt"  # a valid net for the fine_px atoms (cat, dog, field)
    write_array_file(ckpt, [np.zeros(s) for s in
                            [(3, 3, 2, 4), (4,), (3, 3, 4, 4), (4,), (4, 3), (3,)]])
    fine = [str(gen_tree / "fine_px_manifest.json")]
    spaces = [str(gen_tree / "fine_px_space.json")]
    relations = str(gen_tree / "relations.tsv")
    valid = {
        "gen": {"world": str(tmp_path / "world.json")},
        "taxonomy": {"label_spaces": spaces, "relations": relations},
        "train": {"manifests": fine, "relations": relations, "quotas": {"fine_px": 2},
                  "feature_width": 2},
        "eval": {"checkpoint": str(ckpt), "manifests": fine, "train_label_spaces": spaces,
                 "relations": relations},
    }[command]
    cfg = write_json(tmp_path / "bad.json", {**valid, "out": "out", key: value})
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists() and not (tmp_path / "7").exists()


def test_config_int_stands_for_float(tmp_path, gen_tree):
    cfg = write_json(tmp_path / "train.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "quotas": {"fine_px": 2}, "feature_width": 2,
        "momentum": 0, "refine_threshold": 1, "out": str(tmp_path / "run"),
    })
    assert main(["train", "--config", cfg]) == 0


@pytest.mark.parametrize("case", ["gen --seed", "train --seed", "world seed", "world list"])
def test_negative_seed_or_non_object_world_exits_2(tmp_path, gen_tree, capsys, case):
    world = tmp_path / "world.json"
    if case == "world seed":
        write_json(world, world_doc(seed=-1))
    elif case == "world list":
        write_json(world, [world_doc()])
    if case == "train --seed":
        cfg = write_json(tmp_path / "train.json", {
            "manifests": [str(gen_tree / "fine_px_manifest.json")],
            "quotas": {"fine_px": 2}, "feature_width": 2, "out": str(tmp_path / "out"),
        })
        argv = ["train", "--config", cfg, "--seed", "-1"]
    else:
        cfg = write_json(tmp_path / "gen.json", {"world": str(world),
                                                 "out": str(tmp_path / "out")})
        argv = ["gen", "--config", cfg] + (["--seed", "-3"] if case == "gen --seed" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


def _set_world_value(doc, key, value):
    if key in ("name", "signature", "noise"):
        doc["concepts"][1][key] = value
    elif key in ("count", "dataset_id"):
        doc["views"][0][key] = value
    elif key == "classes":
        doc["views"][3][key] = value
    else:
        doc[key] = value
    return doc


@pytest.mark.parametrize("key, value", [
    ("height", 8.9), ("seed", True), ("objects_max", "2"), ("count", 2.5),
    ("signature", ["1.0", 0.0]), ("noise", False), ("name", 7), ("dataset_id", 12),
    ("signature", 5), ("hierarchy", [["terrain", ["field"]], ["animal", ["cat", 9]]]),
    ("hierarchy", [["terrain", ["field"]], ["animal"]]), ("views", {"fine_px": {}}),
    ("views", ["tags"]), ("concepts", {"cat": {}}), ("classes", "animal"),
])
def test_world_value_of_wrong_type_exits_2(tmp_path, capsys, key, value):
    world = write_json(tmp_path / "world.json", _set_world_value(world_doc(), key, value))
    cfg = write_json(tmp_path / "gen.json", {"world": world, "out": str(tmp_path / "data")})
    assert main(["gen", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err and "Traceback" not in err, err
    assert not (tmp_path / "data").exists()


def test_gen_checks_every_class_selection_before_writing(tmp_path, capsys):
    doc = world_doc()
    doc["views"][-1]["classes"] = ["animal", "unicorn"]
    world = write_json(tmp_path / "world.json", doc)
    cfg = write_json(tmp_path / "gen.json", {"world": world, "out": str(tmp_path / "data")})
    assert main(["gen", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'unicorn'" in err and "Traceback" not in err, err
    assert not (tmp_path / "data").exists()


def test_malformed_config_json(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("{nope")
    assert main(["gen", "--config", str(p)]) == 2


def test_missing_world_file(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"world": str(tmp_path / "no.json")})
    assert main(["gen", "--config", cfg]) == 2


def test_gen_writes_expected_tree(gen_tree):
    names = set(tree_bytes(gen_tree))
    assert "fine_px_manifest.json" in names
    assert "relations.tsv" in names
    assert "boxes/lab_00000.weak" in names
    man = read_manifest(gen_tree / "fine_px_manifest.json")
    assert man["records"][0][0] == "fine_px/img_00000.rast"
    img = read_raster(gen_tree / "fine_px" / "img_00000.rast")
    assert img.shape == (8, 8, 2) and img.dtype == np.float32


def test_gen_rerun_is_byte_identical(tmp_path, gen_tree):
    world = write_json(tmp_path / "world2.json", world_doc())
    cfg = write_json(tmp_path / "gen2.json", {"world": world,
                                              "out": str(tmp_path / "data2")})
    assert main(["gen", "--config", cfg]) == 0
    assert tree_bytes(gen_tree) == tree_bytes(tmp_path / "data2")


def test_gen_seed_override_changes_data(tmp_path, gen_tree):
    world = write_json(tmp_path / "world3.json", world_doc())
    cfg = write_json(tmp_path / "gen3.json", {"world": world,
                                              "out": str(tmp_path / "data3")})
    assert main(["gen", "--config", cfg, "--seed", "123"]) == 0
    a = (gen_tree / "fine_px" / "img_00000.rast").read_bytes()
    b = (tmp_path / "data3" / "fine_px" / "img_00000.rast").read_bytes()
    assert a != b
    # the override comes from the command line only, never from a gen config
    cfg = write_json(tmp_path / "gen4.json", {"world": world, "seed": 123})
    assert main(["gen", "--config", cfg]) == 2


def test_taxonomy_command(tmp_path, gen_tree):
    cfg = write_json(tmp_path / "tax.json", {
        "label_spaces": [str(gen_tree / "fine_px_space.json"),
                         str(gen_tree / "coarse_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "out": str(tmp_path / "tax_out"),
    })
    assert main(["taxonomy", "--config", cfg]) == 0
    tax = json.loads((tmp_path / "tax_out" / "taxonomy.json").read_text())
    assert tax["atoms"] == ["cat", "dog", "field"]
    val = json.loads((tmp_path / "tax_out" / "validation.json").read_text())
    assert val["valid"] is True and val["violations"] == []
    grouped = tax["groups"]["coarse_px"]["animal"]
    assert grouped == ["cat", "dog"]


def test_taxonomy_partition_output(tmp_path):
    # strong parent view plus weak-only subclass boxes
    views = [
        {"dataset_id": "coarse_px", "supervision": "pixel_dense",
         "granularity": "coarse", "count": 3},
        {"dataset_id": "subboxes", "supervision": "bbox",
         "granularity": "fine", "count": 3, "classes": ["cat", "dog"]},
    ]
    world = write_json(tmp_path / "world.json", world_doc(views=views))
    gen_cfg = write_json(tmp_path / "gen.json", {"world": world,
                                                 "out": str(tmp_path / "d")})
    assert main(["gen", "--config", gen_cfg]) == 0
    cfg = write_json(tmp_path / "tax.json", {
        "label_spaces": [str(tmp_path / "d" / "coarse_px_space.json"),
                         str(tmp_path / "d" / "subboxes_space.json")],
        "relations": str(tmp_path / "d" / "relations.tsv"),
        "partition": True,
        "out": str(tmp_path / "tax_out"),
    })
    assert main(["taxonomy", "--config", cfg]) == 0
    part = json.loads((tmp_path / "tax_out" / "partition.json").read_text())
    assert part["s_set"] == ["cat", "dog"]
    assert part["p_set"] == ["animal"]
    assert part["parent_of"] == {"cat": "animal", "dog": "animal"}


def test_pseudolabel_command(tmp_path, gen_tree):
    cfg = write_json(tmp_path / "pl.json", {
        "manifests": [str(gen_tree / "boxes_manifest.json")],
        "out": str(tmp_path / "pl_out"),
    })
    assert main(["pseudolabel", "--config", cfg]) == 0
    canvases = sorted((tmp_path / "pl_out" / "boxes").glob("canvas_*.rast"))
    assert len(canvases) == 4
    probs = read_raster(canvases[0])
    assert probs.shape == (8, 8, 4)  # 3 fine classes + unlabeled
    np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)


def test_pseudolabel_rejects_pixel_dataset(tmp_path, gen_tree):
    cfg = write_json(tmp_path / "pl.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "out": str(tmp_path / "pl_out"),
    })
    assert main(["pseudolabel", "--config", cfg]) == 3


@pytest.mark.parametrize("names", [("boxes", "tags"), ("tags", "boxes"), ("tags", "fine_px")])
def test_pseudolabel_bad_manifest_writes_nothing(tmp_path, gen_tree, capsys, names):
    # the boxes manifest gets an unknown key and fine_px is pixel-supervised:
    # first or after a good manifest, either exits 3 and leaves no out/
    _add_key(gen_tree / "boxes_manifest.json", lambda d: d.update({"extra": "x"}))
    cfg = write_json(tmp_path / "pl.json", {
        "manifests": [str(gen_tree / f"{n}_manifest.json") for n in names],
        "out": str(tmp_path / "pl_out")})
    assert main(["pseudolabel", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err, err
    assert not (tmp_path / "pl_out").exists()


def test_train_and_eval_roundtrip(tmp_path, gen_tree):
    train_cfg = {
        "manifests": [str(gen_tree / "fine_px_manifest.json"),
                      str(gen_tree / "coarse_px_manifest.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "quotas": {"fine_px": 2, "coarse_px": 2},
        "learning_rate": 0.1,
        "momentum": 0.5,
        "epochs": 2,
        "feature_width": 4,
        "seed": 3,
        "out": str(tmp_path / "run"),
    }
    cfg = write_json(tmp_path / "train.json", train_cfg)
    assert main(["train", "--config", cfg]) == 0
    ckpt = tmp_path / "run" / "final.ckpt"
    params = load_checkpoint(ckpt)
    assert params.out_channels == 3  # cat, dog, field
    csv = (tmp_path / "run" / "losses.csv").read_text().splitlines()
    assert csv[0] == "step,loss"
    assert len(csv) == 1 + 2 * 2  # 4 images / quota 2 = 2 steps per epoch
    float(csv[1].split(",")[1])

    # rerun into a fresh directory: byte-identical artifacts
    cfg2 = write_json(tmp_path / "train2.json",
                      dict(train_cfg, out=str(tmp_path / "run2")))
    assert main(["train", "--config", cfg2]) == 0
    assert tree_bytes(tmp_path / "run") == tree_bytes(tmp_path / "run2")

    eval_cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(ckpt),
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json"),
                               str(gen_tree / "coarse_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "c_values": [2, 3],
        "n_t": 5,
        "out": str(tmp_path / "eval_out"),
    })
    assert main(["eval", "--config", eval_cfg]) == 0
    report = json.loads((tmp_path / "eval_out" / "report_fine_px.json").read_text())
    assert {row["name"] for row in report["classes"]} == {"cat", "dog", "field"}
    assert [k["c"] for k in report["knowledgeability"]] == [2, 3]
    summary = json.loads((tmp_path / "eval_out" / "summary.json").read_text())
    assert summary["datasets"] == ["fine_px"]
    assert 0.0 <= summary["mean_miou"] <= 1.0
    text = (tmp_path / "eval_out" / "report_fine_px.txt").read_text()
    assert "mIoU" in text

    # eval rerun byte-identical too
    eval_cfg2 = write_json(tmp_path / "eval2.json", {
        "checkpoint": str(ckpt),
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json"),
                               str(gen_tree / "coarse_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "c_values": [2, 3],
        "n_t": 5,
        "out": str(tmp_path / "eval_out2"),
    })
    assert main(["eval", "--config", eval_cfg2]) == 0
    assert tree_bytes(tmp_path / "eval_out") == tree_bytes(tmp_path / "eval_out2")


def test_eval_checkpoint_atom_mismatch(tmp_path, gen_tree):
    from htss.formats import write_array_file
    rng = np.random.default_rng(0)
    bad = tmp_path / "bad.ckpt"
    write_array_file(bad, [rng.standard_normal(s) for s in
                           [(3, 3, 2, 4), (4,), (3, 3, 4, 4), (4,), (4, 7), (7,)]])
    cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(bad),
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "out": str(tmp_path / "eval_out"),
    })
    assert main(["eval", "--config", cfg]) == 3
    assert not (tmp_path / "eval_out").exists()


def test_eval_rejects_weak_dataset(tmp_path, gen_tree):
    train_cfg = write_json(tmp_path / "t.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "quotas": {"fine_px": 2},
        "epochs": 1,
        "feature_width": 4,
        "out": str(tmp_path / "run"),
    })
    assert main(["train", "--config", train_cfg]) == 0
    cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(tmp_path / "run" / "final.ckpt"),
        "manifests": [str(gen_tree / "boxes_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")],
        "out": str(tmp_path / "eval_out"),
    })
    assert main(["eval", "--config", cfg]) == 3


def test_missing_manifest_is_data_error(tmp_path):
    cfg = write_json(tmp_path / "pl.json", {
        "manifests": [str(tmp_path / "absent.json")],
        "out": str(tmp_path / "o"),
    })
    assert main(["pseudolabel", "--config", cfg]) == 3


def _header_prefix_lengths(shapes):
    """Every length that ends a file inside one of its headers: the
    16-byte file header, then each array's rank and dims before its
    payload."""
    lengths = list(range(16))
    start = 16
    for shape in shapes:
        header = 4 + 4 * len(shape)
        lengths.extend(range(start, start + header))
        start += header + 8 * int(np.prod(shape))
    return lengths


def test_truncated_checkpoint_header_exits_3(tmp_path, gen_tree, capsys):
    from htss.formats import write_array_file
    shapes = [(3, 3, 2, 4), (4,), (3, 3, 4, 4), (4,), (4, 3), (3,)]
    full = tmp_path / "full.ckpt"
    write_array_file(full, [np.zeros(s) for s in shapes])
    blob = full.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(cut),
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "out": str(tmp_path / "eval_out"),
    })
    for n in _header_prefix_lengths(shapes):
        cut.write_bytes(blob[:n])
        assert main(["eval", "--config", cfg]) == 3, n
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err, (n, err)


def test_truncated_raster_header_exits_3(tmp_path, gen_tree, capsys):
    image = gen_tree / "boxes" / "img_00000.rast"
    blob = image.read_bytes()
    rank = int(np.frombuffer(blob[12:16], dtype="<u4")[0])
    cfg = write_json(tmp_path / "pl.json", {
        "manifests": [str(gen_tree / "boxes_manifest.json")],
        "out": str(tmp_path / "pl_out"),
    })
    for n in range(16 + 4 * rank):
        image.write_bytes(blob[:n])
        assert main(["pseudolabel", "--config", cfg]) == 3, n
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err, (n, err)


def test_checkpoint_header_bit_flips_exit_3(tmp_path, gen_tree, capsys):
    from htss.formats import write_array_file
    shapes = [(3, 3, 2, 4), (4,), (3, 3, 4, 4), (4,), (4, 3), (3,)]
    full = tmp_path / "full.ckpt"
    write_array_file(full, [np.zeros(s) for s in shapes])
    blob = full.read_bytes()
    flipped = tmp_path / "flipped.ckpt"
    cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(flipped),
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "out": str(tmp_path / "eval_out"),
    })
    rng = np.random.default_rng(61)
    for offset in _header_prefix_lengths(shapes):
        bit = int(rng.integers(8))
        data = bytearray(blob)
        data[offset] ^= 1 << bit
        flipped.write_bytes(bytes(data))
        assert main(["eval", "--config", cfg]) == 3, (offset, bit)
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err, (offset, bit, err)


def test_raster_header_bit_flips_exit_3(tmp_path, gen_tree, capsys):
    image = gen_tree / "boxes" / "img_00000.rast"
    blob = image.read_bytes()
    rank = int(np.frombuffer(blob[12:16], dtype="<u4")[0])
    cfg = write_json(tmp_path / "pl.json", {
        "manifests": [str(gen_tree / "boxes_manifest.json")],
        "out": str(tmp_path / "pl_out"),
    })
    rng = np.random.default_rng(62)
    for offset in range(16 + 4 * rank):
        bit = int(rng.integers(8))
        data = bytearray(blob)
        data[offset] ^= 1 << bit
        image.write_bytes(bytes(data))
        assert main(["pseudolabel", "--config", cfg]) == 3, (offset, bit)
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err, (offset, bit, err)


def test_raster_dims_overflowing_int64_exit_3(tmp_path, gen_tree, capsys):
    # rank 4 with dims 65536^4: the element count 2^64 wraps to 0 in int64
    image = gen_tree / "boxes" / "img_00000.rast"
    image.write_bytes(b"HTSSRAST" + struct.pack("<6I", 1, 4, *[65536] * 4))
    assert image.stat().st_size == 32
    cfg = write_json(tmp_path / "pl.json", {
        "manifests": [str(gen_tree / "boxes_manifest.json")],
        "out": str(tmp_path / "pl_out"),
    })
    assert main(["pseudolabel", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err, err


def test_checkpoint_dims_overflowing_int64_exit_3(tmp_path, gen_tree, capsys):
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(b"HTSSCKPT" + struct.pack("<7I", 1, 1, 4, *[65536] * 4))
    assert ckpt.stat().st_size == 36
    cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(ckpt),
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "out": str(tmp_path / "eval_out"),
    })
    assert main(["eval", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err, err


def test_eval_with_no_class_present_writes_null_miou(tmp_path, gen_tree):
    from htss.formats import write_raster
    from htss.model import init_micronet, save_checkpoint
    manifest = read_manifest(gen_tree / "fine_px_manifest.json")
    for _, label_rel in manifest["records"]:
        path = gen_tree / label_rel
        write_raster(path, np.zeros_like(read_raster(path)))  # all void
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(ckpt, init_micronet(2, 4, 3, seed=0))
    cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(ckpt),
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "out": str(tmp_path / "eval_out"),
    })
    assert main(["eval", "--config", cfg]) == 0

    def strict(text):
        def reject(name):
            raise AssertionError(f"non-standard JSON constant {name}")
        return json.loads(text, parse_constant=reject)

    report = strict((tmp_path / "eval_out" / "report_fine_px.json").read_text())
    assert report["miou"] is None
    assert not any(row["present"] for row in report["classes"])
    summary = strict((tmp_path / "eval_out" / "summary.json").read_text())
    assert summary["mean_miou"] is None


@pytest.mark.parametrize("dataset, record", [
    ("boxes", "1 0 0 9 4"),    # x_max beyond the 8-wide image
    ("boxes", "1 0 0 4 9"),    # y_max beyond the 8-high image
    ("boxes", "9 0 0 2 2"),    # class index beyond the label space
    ("tags", "tags: 1 9"),     # tag index beyond the label space
    ("boxes", "0 0 0 2 2"),    # void box class
    ("boxes", "1 2 0 2 2"),    # non-positive extent
    ("boxes", "1 -1 0 2 2"),   # negative coordinate
    ("tags", "tags: 0 1"),     # void tag
])
def test_weak_records_checked_at_load(tmp_path, gen_tree, capsys, dataset, record):
    label = gen_tree / dataset / "lab_00003.weak"
    label.write_text(record + ("\n" if record.startswith("tags:") else "\ntags:\n"))
    manifest = str(gen_tree / f"{dataset}_manifest.json")
    pl = write_json(tmp_path / "pl.json", {"manifests": [manifest],
                                           "out": str(tmp_path / "pl_out")})
    train = write_json(tmp_path / "train.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json"), manifest],
        "relations": str(gen_tree / "relations.tsv"),
        "quotas": {"fine_px": 1, dataset: 1},
        "feature_width": 2,
        "out": str(tmp_path / "run"),
    })
    for argv in (["pseudolabel", "--config", pl], ["train", "--config", train]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        # raised while loading, naming the file, not mid-run at canvas time
        assert "data error" in err and "lab_00003.weak" in err, err
        assert "Traceback" not in err, err
    assert not (tmp_path / "pl_out").exists()
    assert not (tmp_path / "run").exists()


def _corrupt_boxes_manifest(gen_tree, edit):
    path = gen_tree / "boxes_manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("case", [
    "one_path_record", "numeric_paths", "records_not_list", "numeric_label_space",
    "numeric_dataset_id", "absolute_record_path", "dotdot_record_path",
    "dotdot_label_space", "unknown_supervision", "not_an_object",
])
def test_malformed_manifest_exits_3(tmp_path, gen_tree, capsys, case):
    def edit(doc):
        first = doc["records"][0]
        if case == "one_path_record":
            doc["records"][0] = first[:1]
        elif case == "numeric_paths":
            doc["records"][0] = [1, 2]
        elif case == "records_not_list":
            doc["records"] = {"img": first[0], "lab": first[1]}
        elif case == "numeric_label_space":
            doc["label_space"] = 7
        elif case == "numeric_dataset_id":
            doc["dataset_id"] = 7
        elif case == "absolute_record_path":
            # the file exists; the path is refused for leaving the manifest root
            doc["records"][0] = [str(gen_tree / first[0]), first[1]]
        elif case == "dotdot_record_path":
            doc["records"][0] = [f"boxes/../{first[0]}", first[1]]
        elif case == "dotdot_label_space":
            doc["label_space"] = f"../{gen_tree.name}/{doc['label_space']}"
        elif case == "unknown_supervision":
            doc["supervision"] = ["bbox"]

    if case == "not_an_object":
        (gen_tree / "boxes_manifest.json").write_text("7\n")
    else:
        _corrupt_boxes_manifest(gen_tree, edit)
    manifest = str(gen_tree / "boxes_manifest.json")
    pl = write_json(tmp_path / "pl.json", {"manifests": [manifest],
                                           "out": str(tmp_path / "pl_out")})
    train = write_json(tmp_path / "train.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json"), manifest],
        "relations": str(gen_tree / "relations.tsv"),
        "quotas": {"fine_px": 1, "boxes": 1},
        "feature_width": 2,
        "out": str(tmp_path / "run"),
    })
    for argv in (["pseudolabel", "--config", pl], ["train", "--config", train]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert "data error" in err and "boxes_manifest.json" in err, err
        assert "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_manifest_without_quota_is_config_error(tmp_path, gen_tree, capsys):
    cfg = write_json(tmp_path / "train.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json"),
                      str(gen_tree / "coarse_px_manifest.json"),
                      str(gen_tree / "boxes_manifest.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "quotas": {"fine_px": 1},
        "feature_width": 2,
        "out": str(tmp_path / "run"),
    })
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "['boxes', 'coarse_px']" in err, err
    assert not (tmp_path / "run").exists()


def test_non_utf8_inputs_exit_cleanly(tmp_path, gen_tree, capsys):
    bad = b"\xff\xfe not utf-8\n"
    config = tmp_path / "bad_config.json"
    config.write_bytes(bad)
    assert main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err, err

    pl = write_json(tmp_path / "pl.json", {
        "manifests": [str(gen_tree / "boxes_manifest.json")],
        "out": str(tmp_path / "pl_out"),
    })
    for victim in ("boxes/lab_00002.weak", "boxes_space.json", "boxes_manifest.json"):
        (gen_tree / victim).write_bytes(bad)
        assert main(["pseudolabel", "--config", pl]) == 3, victim
        err = capsys.readouterr().err
        assert "data error" in err and victim.split("/")[-1] in err, err
        assert "Traceback" not in err, err


@pytest.mark.parametrize("command", ["taxonomy", "pseudolabel", "eval"])
def test_seed_rejected_where_no_seed_is_read(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "c.json", {})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--seed", "9"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("dataset, claimed", [
    ("fine_px", "bbox"), ("boxes", "pixel_dense")])
def test_manifest_supervision_must_match_label_space(tmp_path, gen_tree, capsys,
                                                     dataset, claimed):
    path = gen_tree / f"{dataset}_manifest.json"
    doc = json.loads(path.read_text())
    actual = doc["supervision"]
    doc["supervision"] = claimed
    path.write_text(json.dumps(doc))
    manifests = [str(gen_tree / "fine_px_manifest.json")]
    if dataset != "fine_px":
        manifests.append(str(path))
    cfg = write_json(tmp_path / "train.json", {
        "manifests": manifests,
        "relations": str(gen_tree / "relations.tsv"),
        "quotas": {"fine_px": 1, dataset: 1},
        "feature_width": 2,
        "out": str(tmp_path / "run"),
    })
    assert main(["train", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"{dataset}_manifest.json" in err, err
    assert repr(claimed) in err and repr(actual) in err, err
    assert "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, detail", [
    (["void", "cat"], "must be a JSON object"),
    ({"dataset_id": "fine_px", "supervision": "pixel_dense",
      "classes": ["void", 1, 2]}, "list of strings"),
    ({"dataset_id": "fine_px", "supervision": "pixel_dense",
      "classes": ["void", ["cat"]]}, "list of strings"),
    ({"dataset_id": "fine_px", "supervision": "pixel_dense",
      "classes": "void"}, "list of strings"),
    ({"dataset_id": 7, "supervision": "pixel_dense",
      "classes": ["void", "cat"]}, "'dataset_id' must be a string"),
    ({"dataset_id": "fine_px", "supervision": "pixel_dense",
      "classes": ["void", "cat", "cat"]}, "duplicate class names"),
    ({"dataset_id": "fine_px", "supervision": "pixel_dense",
      "classes": ["cat", "void"]}, "must reserve index 0 for 'void'"),
])
def test_malformed_label_space_exits_3(tmp_path, gen_tree, capsys, doc, detail):
    space = gen_tree / "fine_px_space.json"
    cfg = write_json(tmp_path / "tax.json", {
        "label_spaces": [str(space), str(gen_tree / "coarse_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "out": str(tmp_path / "tax_out"),
    })
    assert main(["taxonomy", "--config", cfg]) == 0  # as gen wrote it
    space.write_text(json.dumps(doc))
    assert main(["taxonomy", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "fine_px_space.json" in err and detail in err, err
    assert "Traceback" not in err, err


@pytest.mark.parametrize("classes, detail", [
    (["void", "animal", "cat", "field"], "maps atom 'cat' to two classes"),
    (["void", "cat", "dog", "bird"], "class 'bird' of dataset 'mixed' maps to no atom"),
])
def test_eval_rejects_ambiguous_or_uncovered_class(tmp_path, gen_tree, capsys,
                                                   classes, detail):
    from htss.model import init_micronet, save_checkpoint
    # the fine_px records under another label space of three classes
    write_json(gen_tree / "mixed_space.json", {
        "dataset_id": "mixed", "supervision": "pixel_dense", "classes": classes})
    manifest = read_manifest(gen_tree / "fine_px_manifest.json")
    write_json(gen_tree / "mixed_manifest.json",
               dict(manifest, dataset_id="mixed", label_space="mixed_space.json"))
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(ckpt, init_micronet(2, 4, 3, seed=0))
    cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(ckpt),
        "manifests": [str(gen_tree / "mixed_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")],
        "relations": str(gen_tree / "relations.tsv"),
        "out": str(tmp_path / "eval_out"),
    })
    assert main(["eval", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and detail in err, err
    assert "Traceback" not in err, err



def _add_key(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("where, key", [
    ("world", "box_padd"), ("concept", "colour"), ("view", "clases"),
    ("label space", "clases"), ("manifest", "notes"),
])
def test_unknown_document_key_rejected(tmp_path, gen_tree, capsys, where, key):
    if where in ("world", "concept", "view"):
        doc = world_doc()
        target = {"world": doc, "concept": doc["concepts"][1], "view": doc["views"][2]}
        target[where][key] = ["cat"] if key == "clases" else 3
        world = write_json(tmp_path / "world.json", doc)
        argv, code = ["gen", "--config", write_json(tmp_path / "gen.json", {"world": world})], 2
    elif where == "label space":
        _add_key(gen_tree / "boxes_space.json", lambda d: d.update({key: ["cat"]}))
        argv, code = ["taxonomy", "--config", write_json(tmp_path / "tax.json", {
            "label_spaces": [str(gen_tree / "boxes_space.json")]})], 3
    else:
        _add_key(gen_tree / "boxes_manifest.json", lambda d: d.update({key: "x"}))
        argv, code = ["train", "--config", write_json(tmp_path / "train.json", {
            "manifests": [str(gen_tree / "boxes_manifest.json")],
            "quotas": {"boxes": 1}})], 3
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err, err
    assert not out.exists()


def test_print_config_defaults(capsys):
    want = {
        "gen": {"world": "world.json", "out": "data"},
        "taxonomy": {"label_spaces": [], "relations": "", "partition": False,
                     "out": "taxonomy_out"},
        "pseudolabel": {"manifests": [], "out": "canvases"},
        "train": {"manifests": [], "relations": "", "quotas": {}, "learning_rate": 0.2,
                  "momentum": 0.9, "epochs": 1, "refine_threshold": 0.9,
                  "feature_width": 8, "partition": False, "seed": 0, "out": "train_out"},
        "eval": {"checkpoint": "", "manifests": [], "train_label_spaces": [],
                 "relations": "", "partition": False, "c_values": [], "n_t": 10,
                 "out": "eval_out"},
    }
    for command, defaults in want.items():
        assert main([command, "--print-config"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(defaults, indent=2, sort_keys=True) + "\n", command


@pytest.mark.parametrize("key, value, code", [
    ("epochs", 0, 2), ("refine_threshold", 1.5, 2), ("feature_width", 0, 2),
    ("quotas", {"fine_px": 99}, 3),
])
def test_failed_train_writes_nothing(tmp_path, gen_tree, capsys, key, value, code):
    cfg = write_json(tmp_path / "train.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "quotas": {"fine_px": 2}, "feature_width": 2, key: value,
        "out": str(tmp_path / "run"),
    })
    assert main(["train", "--config", cfg]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_quota_for_unlisted_dataset_is_config_error(tmp_path, gen_tree, capsys):
    # the images are never read: the quota is refused first
    (gen_tree / "fine_px" / "img_00000.rast").write_bytes(b"not a raster")
    cfg = write_json(tmp_path / "train.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "quotas": {"fine_px": 2, "nope": 1}, "feature_width": 2,
        "out": str(tmp_path / "run"),
    })
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'nope'" in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [("c_values", [0]), ("c_values", [2, -2]),
                                        ("n_t", 0)])
def test_eval_rejects_non_positive_capacity_or_threshold_count(tmp_path, gen_tree, capsys,
                                                               key, value):
    cfg = write_json(tmp_path / "eval.json", {
        "checkpoint": str(tmp_path / "absent.ckpt"),  # refused before it is opened
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")],
        key: value,
        "out": str(tmp_path / "eval_out"),
    })
    assert main(["eval", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err and "Traceback" not in err, err
    assert not (tmp_path / "eval_out").exists()


@pytest.mark.parametrize("label", [
    np.full((8, 8), 1.7, dtype=np.float32), np.ones((7, 8), dtype=np.uint16)])
def test_pixel_label_raster_checked_against_image(tmp_path, gen_tree, capsys, label):
    from htss.formats import write_raster
    write_raster(gen_tree / "fine_px" / "lab_00001.rast", label)
    cfg = write_json(tmp_path / "train.json", {
        "manifests": [str(gen_tree / "fine_px_manifest.json")],
        "quotas": {"fine_px": 2}, "feature_width": 2,
        "out": str(tmp_path / "run"),
    })
    assert main(["train", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "lab_00001.rast" in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_pixel_label_class_out_of_range_names_the_raster(tmp_path, gen_tree, capsys):
    from htss.formats import read_raster, write_raster
    manifests = [str(gen_tree / "fine_px_manifest.json")]
    train = write_json(tmp_path / "train.json", {
        "manifests": manifests, "quotas": {"fine_px": 2}, "feature_width": 2})
    assert main(["train", "--config", train, "--out", str(tmp_path / "run")]) == 0
    evaluate = write_json(tmp_path / "eval.json", {
        "checkpoint": str(tmp_path / "run" / "final.ckpt"), "manifests": manifests,
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")]})
    label = read_raster(gen_tree / "fine_px" / "lab_00001.rast")
    label[1, 2] = 999
    write_raster(gen_tree / "fine_px" / "lab_00001.rast", label)
    for argv in (["train", "--config", train], ["eval", "--config", evaluate]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3, argv
        err = capsys.readouterr().err
        assert "data error" in err and "lab_00001.rast" in err and "999" in err, err
        assert "Traceback" not in err, err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, dataset", [("train", "fine_px"), ("pseudolabel", "boxes")])
def test_image_raster_must_have_three_axes(tmp_path, gen_tree, capsys, command, dataset):
    from htss.formats import write_raster
    write_raster(gen_tree / dataset / "img_00001.rast", np.zeros(64, dtype=np.float32))
    cfg = write_json(tmp_path / "c.json", {
        "manifests": [str(gen_tree / f"{dataset}_manifest.json")],
        **({"quotas": {dataset: 2}, "feature_width": 2} if command == "train" else {}),
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "img_00001.rast" in err and "Traceback" not in err, err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_image_raster_exits_3(tmp_path, gen_tree, capsys, value):
    # refused while loading, naming the raster, not a numeric failure mid-run
    from htss.formats import write_raster
    manifests = [str(gen_tree / "fine_px_manifest.json")]
    train = write_json(tmp_path / "train.json", {
        "manifests": manifests, "quotas": {"fine_px": 2}, "feature_width": 2})
    assert main(["train", "--config", train, "--out", str(tmp_path / "run")]) == 0
    evaluate = write_json(tmp_path / "eval.json", {
        "checkpoint": str(tmp_path / "run" / "final.ckpt"), "manifests": manifests,
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")]})
    image = read_raster(gen_tree / "fine_px" / "img_00001.rast")
    image[2, 3, 1] = value
    write_raster(gen_tree / "fine_px" / "img_00001.rast", image)
    for argv in (["train", "--config", train], ["eval", "--config", evaluate]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3, argv
        err = capsys.readouterr().err
        assert "data error" in err and "img_00001.rast" in err, err
        assert "Traceback" not in err and "Warning" not in err, err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_exits_3(tmp_path, gen_tree, capsys, value):
    # refused while loading, naming the checkpoint, not a numeric failure in eval
    from htss.model import save_checkpoint
    manifests = [str(gen_tree / "fine_px_manifest.json")]
    train = write_json(tmp_path / "train.json", {
        "manifests": manifests, "quotas": {"fine_px": 2}, "feature_width": 2})
    assert main(["train", "--config", train, "--out", str(tmp_path / "run")]) == 0
    ckpt = tmp_path / "run" / "final.ckpt"
    params = load_checkpoint(ckpt)
    params.wh[0, 0] = value
    save_checkpoint(ckpt, params)
    evaluate = write_json(tmp_path / "eval.json", {
        "checkpoint": str(ckpt), "manifests": manifests,
        "train_label_spaces": [str(gen_tree / "fine_px_space.json")]})
    assert main(["eval", "--config", evaluate, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "final.ckpt" in err, err
    assert "Traceback" not in err and "Warning" not in err, err
    assert not (tmp_path / "out").exists()
