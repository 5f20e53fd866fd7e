"""Seeded inputs for the three htss pipeline workloads.

A workload is a world document for `htss gen` plus one flat JSON config
per subcommand, all written into a work directory. Everything is drawn
from the workload seed, so the same seed gives byte-identical documents;
the program under test only ever sees these files.

Why each workload exists (also recorded in BENCHMARK.json):

* dense-joint  -- the criterion-6 reference config. Tiny 20x20 images,
  six atoms: per-call numpy overhead in the model layer and canvas
  building dominates; taxonomy and lossgrad stay small. A box set that
  training never reads gives `pseudolabel` something to do.
* weak-twohead -- criterion 8 scaled to 48x48 and width 16: the conv
  GEMMs dominate, and it is the only workload with tag canvases, the
  two-head partition, the parent-gated refinement and the s head.
* many-labels  -- 330 word-like labels on 16x16 images: the cost moves
  out of the model into lossgrad (group matrices, O(HWL) canvases) and
  taxonomy (atom extraction).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("dense-joint", "weak-twohead", "many-labels")


@dataclass(frozen=True)
class Workload:
    name: str
    world: dict
    # (subcommand, config) in run order; paths are relative to the work dir
    commands: tuple[tuple[str, dict], ...]
    train_steps: int
    # public functions the traced run must enter at least once
    required_spans: tuple[str, ...]


def _steps(sizes: dict[str, int], quotas: dict[str, int], epochs: int) -> int:
    return epochs * max(math.ceil(sizes[d] / quotas[d]) for d in quotas)


# spans every workload enters: all of them train, evaluate and read rasters
_COMMON_SPANS = (
    "model.forward", "model.backward", "model.sgd_step", "model.train_loop",
    "lossgrad.batch_loss", "lossgrad.softmax_atoms", "lossgrad.group_matrix",
    "lossgrad.merge_subclass_predictions",
    "annotations.strong_to_canvas", "annotations.canvas_from_boxes",
    "taxonomy.build_semantic_atoms", "taxonomy.build_group_sets",
    "taxonomy.validate_taxonomy", "taxonomy.semantic_closure",
    "formats.read_raster", "formats.write_raster",
    "formats.read_weak_label", "formats.write_weak_label",
    "formats.read_array_file", "formats.write_array_file",
    "synthgen.generate_scene", "synthgen.emit_dataset", "synthgen.load_dataset",
    "metrics.confusion_add", "metrics.report_build",
)


def _view(dataset_id, supervision, granularity, count, start, classes=None):
    doc = {"dataset_id": dataset_id, "supervision": supervision,
           "granularity": granularity, "count": count, "start_index": start}
    if classes is not None:
        doc["classes"] = list(classes)
    return doc


def dense_joint(seed: int) -> Workload:
    """Criterion-6 config: coarse set A plus fine set B, no partition."""
    noise = 0.15
    concepts = [("grass", [0.0, 0.0, 0.0]), ("sand", [1.0, 1.0, 0.0]),
                ("cat", [1.0, 0.0, 0.0]), ("dog", [0.0, 1.0, 0.0]),
                ("bus", [0.0, 0.0, 1.0]), ("car", [1.0, 0.0, 1.0])]
    world = {
        "height": 20, "width": 20, "channels": 3,
        "concepts": [{"name": n, "signature": s, "noise": noise} for n, s in concepts],
        "hierarchy": [["terrain", ["grass", "sand"]], ["animal", ["cat", "dog"]],
                      ["vehicle", ["bus", "car"]]],
        "background": "grass",
        "objects_min": 2, "objects_max": 4, "size_min": 4, "size_max": 8,
        "seed": seed,
        "views": [
            _view("dsa", "pixel_dense", "coarse", 200, 0),
            _view("dsb", "pixel_dense", "fine", 200, 200),
            _view("evalf", "pixel_dense", "fine", 100, 5000),
            # only pseudolabel reads this set; training stays criterion 6
            _view("boxes", "bbox", "fine", 50, 6000),
        ],
    }
    quotas = {"dsa": 4, "dsb": 4}
    epochs = 4
    spaces = ["data/dsa_space.json", "data/dsb_space.json"]
    commands = (
        ("gen", {"world": "world.json", "out": "data"}),
        ("taxonomy", {"label_spaces": spaces, "relations": "data/relations.tsv",
                      "out": "taxonomy"}),
        ("pseudolabel", {"manifests": ["data/boxes_manifest.json"], "out": "canvases"}),
        ("train", {"manifests": ["data/dsa_manifest.json", "data/dsb_manifest.json"],
                   "relations": "data/relations.tsv", "quotas": quotas,
                   "learning_rate": 0.3, "momentum": 0.9, "epochs": epochs,
                   "refine_threshold": 0.9, "feature_width": 8, "seed": seed,
                   "out": "run"}),
        ("eval", {"checkpoint": "run/final.ckpt",
                  "manifests": ["data/evalf_manifest.json"],
                  "train_label_spaces": spaces, "relations": "data/relations.tsv",
                  "out": "eval"}),
    )
    return Workload("dense-joint", world, commands,
                    _steps({"dsa": 200, "dsb": 200}, quotas, epochs), _COMMON_SPANS)


def weak_twohead(seed: int) -> Workload:
    """Criterion 8 at 48x48: coarse pixels plus box and tag subclasses."""
    noise = 0.15
    sub = ["cat", "dog"]
    world = {
        "height": 48, "width": 48, "channels": 3,
        "concepts": [{"name": "field", "signature": [0.0, 0.0, 0.0], "noise": noise},
                     {"name": "cat", "signature": [1.0, 0.0, 0.0], "noise": noise},
                     {"name": "dog", "signature": [0.0, 1.0, 0.0], "noise": noise}],
        "hierarchy": [["terrain", ["field"]], ["animal", ["cat", "dog"]]],
        "background": "field",
        "objects_min": 2, "objects_max": 3, "size_min": 12, "size_max": 19,
        "seed": seed,
        "views": [
            _view("coarse_px", "pixel_coarse", "coarse", 40, 0),
            _view("boxes", "bbox", "fine", 40, 40, sub),
            _view("tags", "image_tag", "fine", 40, 80, sub),
            _view("evalc", "pixel_dense", "coarse", 24, 5000),
            # the background class covers no atom, so it stays out of this view
            _view("evalf", "pixel_dense", "fine", 24, 5000, sub),
        ],
    }
    quotas = {"coarse_px": 4, "boxes": 4, "tags": 4}
    epochs = 4
    spaces = ["data/coarse_px_space.json", "data/boxes_space.json",
              "data/tags_space.json"]
    commands = (
        ("gen", {"world": "world.json", "out": "data"}),
        ("taxonomy", {"label_spaces": spaces, "relations": "data/relations.tsv",
                      "partition": True, "out": "taxonomy"}),
        ("pseudolabel", {"manifests": ["data/boxes_manifest.json",
                                       "data/tags_manifest.json"],
                         "out": "canvases"}),
        ("train", {"manifests": ["data/coarse_px_manifest.json",
                                 "data/boxes_manifest.json", "data/tags_manifest.json"],
                   "relations": "data/relations.tsv", "quotas": quotas,
                   "learning_rate": 0.3, "momentum": 0.9, "epochs": epochs,
                   "refine_threshold": 0.7, "feature_width": 16, "partition": True,
                   "seed": seed, "out": "run"}),
        ("eval", {"checkpoint": "run/final.ckpt",
                  "manifests": ["data/evalc_manifest.json", "data/evalf_manifest.json"],
                  "train_label_spaces": spaces, "relations": "data/relations.tsv",
                  "partition": True, "out": "eval"}),
    )
    required = _COMMON_SPANS + ("annotations.canvas_from_tags", "taxonomy.partition_atoms")
    return Workload("weak-twohead", world, commands,
                    _steps({"coarse_px": 40, "boxes": 40, "tags": 40}, quotas, epochs),
                    required)


_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "st", "tr", "pl")
_VOWELS = ("a", "e", "i", "o", "u")


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                   for _ in range(rng.randint(2, 3)))


N_COARSE, PER_COARSE = 30, 10


def many_labels(seed: int) -> Workload:
    """330 word-like labels: 30 coarse parents with 10 fine children each.

    With 30 coarse classes the width-8 net learns little beyond the
    majority class in 30 steps; the workload is here for its label count,
    which sets the cost of lossgrad and taxonomy, not for its accuracy.
    """
    rng = random.Random(seed)
    names: list[str] = []
    seen = set()
    while len(names) < N_COARSE * (PER_COARSE + 1):
        w = _word(rng)
        if w not in seen:
            seen.add(w)
            names.append(w)
    coarse, fine = names[:N_COARSE], names[N_COARSE:]
    # parents sit on a 4x4x4 colour grid; children are small offsets from
    # their parent, so coarse classes are far apart and siblings barely differ
    cells = rng.sample(range(64), N_COARSE)
    concepts, hierarchy = [], []
    for p, (parent, cell) in enumerate(zip(coarse, cells)):
        centre = [(cell // 16) / 3.0, (cell // 4 % 4) / 3.0, (cell % 4) / 3.0]
        kids = fine[p * PER_COARSE:(p + 1) * PER_COARSE]
        hierarchy.append([parent, kids])
        for k, kid in enumerate(kids):
            sig = [round(c + 0.01 * (k + 1) * (i == k % 3), 4)
                   for i, c in enumerate(centre)]
            concepts.append({"name": kid, "signature": sig, "noise": 0.05})
    background = fine[0]
    half = len(fine) // 2
    order = sorted(fine)
    rng.shuffle(order)
    dense_classes = sorted(set(order[:half]) | {background})
    box_classes = sorted(set(fine) - set(dense_classes))
    world = {
        "height": 16, "width": 16, "channels": 3,
        "concepts": concepts, "hierarchy": hierarchy, "background": background,
        "objects_min": 2, "objects_max": 4, "size_min": 3, "size_max": 7,
        "seed": seed,
        "views": [
            _view("fine_px", "pixel_dense", "fine", 60, 0, dense_classes),
            _view("coarse_px", "pixel_dense", "coarse", 60, 60),
            _view("boxes", "bbox", "fine", 60, 120, box_classes),
            _view("evalc", "pixel_dense", "coarse", 60, 5000),
        ],
    }
    quotas = {"fine_px": 4, "coarse_px": 4, "boxes": 4}
    epochs = 2
    spaces = ["data/fine_px_space.json", "data/coarse_px_space.json",
              "data/boxes_space.json"]
    manifests = ["data/fine_px_manifest.json", "data/coarse_px_manifest.json",
                 "data/boxes_manifest.json"]
    commands = (
        ("gen", {"world": "world.json", "out": "data"}),
        ("taxonomy", {"label_spaces": spaces, "relations": "data/relations.tsv",
                      "out": "taxonomy"}),
        ("pseudolabel", {"manifests": ["data/boxes_manifest.json"], "out": "canvases"}),
        ("train", {"manifests": manifests, "relations": "data/relations.tsv",
                   "quotas": quotas, "learning_rate": 0.3, "momentum": 0.9,
                   "epochs": epochs, "refine_threshold": 0.9, "feature_width": 8,
                   "seed": seed, "out": "run"}),
        ("eval", {"checkpoint": "run/final.ckpt",
                  "manifests": ["data/evalc_manifest.json"],
                  "train_label_spaces": spaces, "relations": "data/relations.tsv",
                  "out": "eval"}),
    )
    required = _COMMON_SPANS + ("annotations.refine_canvas", "lossgrad.accumulate_groups")
    return Workload("many-labels", world, commands,
                    _steps({"fine_px": 60, "coarse_px": 60, "boxes": 60}, quotas, epochs),
                    required)


BUILDERS = {"dense-joint": dense_joint, "weak-twohead": weak_twohead,
            "many-labels": many_labels}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def _absolute(value, base: Path):
    """Config values naming files are made absolute under the work dir."""
    if isinstance(value, str):
        return str(base / value)
    if isinstance(value, list):
        return [str(base / v) for v in value]
    return value


PATH_KEYS = frozenset({"world", "out", "label_spaces", "relations", "manifests",
                       "checkpoint", "train_label_spaces"})


def write_documents(wl: Workload, work: Path) -> list[tuple[str, Path]]:
    """Write world.json and one config per subcommand; return (cmd, config path)."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "world.json").write_text(json.dumps(wl.world, indent=1, sort_keys=True),
                                     encoding="utf-8")
    out = []
    for cmd, cfg in wl.commands:
        doc = {k: (_absolute(v, work) if k in PATH_KEYS else v) for k, v in cfg.items()}
        path = work / f"{cmd}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        out.append((cmd, path))
    return out
