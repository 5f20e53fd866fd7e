"""Seeded synthetic worlds for end-to-end pipeline checks.

A world places axis-aligned rectangles of "fine" concepts over a
background concept; a two-level hierarchy groups fine concepts under
coarse parents. Per-pixel features are the concept's signature vector
plus seeded Gaussian noise, so a small convolutional net can separate
concepts without any pretraining.

From one world, several dataset views can be emitted: dense pixel ids
at fine or coarse granularity, bounding boxes, or image-level tags.
Boxes record pre-occlusion extents (later rectangles paint over earlier
ones). Scene content depends only on (world seed XOR scene index), so
views drawn from the same indices describe the same scenes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import formats
from .formats import checked_fields, has_type
from .annotations import StrongLabel, WeakLabel
from .errors import ConfigError, DataError, FormatError
from .model import LoadedDataset
from .taxonomy import (
    BBOX,
    HYPERNYM,
    PIXEL_KINDS,
    SUPERVISION_KINDS,
    LabelSpace,
)

FINE = "fine"
COARSE = "coarse"


# keys of the world spec documents: key -> (type, default), ... when required;
# a world spec file also lists the views to emit, which View.from_dict reads
_WORLD_FIELDS = {
    **dict.fromkeys(("height", "width", "channels", "objects_min", "objects_max",
                     "size_min", "size_max", "seed"), (int, ...)),
    "concepts": (list[dict], ...), "hierarchy": (list[list], ...),
    "background": (str, ...), "box_pad": (int, 0), "views": (list[dict], []),
}
_CONCEPT_FIELDS = {"name": (str, ...), "signature": (list[float], ...),
                   "noise": (float, ...)}
_VIEW_FIELDS = {"dataset_id": (str, ...), "supervision": (str, ...),
                "granularity": (str, ...), "count": (int, ...), "start_index": (int, 0),
                "classes": (list[str], [])}


def _hierarchy_edge(entry: list) -> tuple[str, tuple[str, ...]]:
    if not (len(entry) == 2 and has_type(entry[0], str) and has_type(entry[1], list[str])):
        raise ConfigError(f"key 'hierarchy' entries must be [coarse, [fine, ...]], "
                          f"got {entry!r}")
    return entry[0], tuple(entry[1])


@dataclass(frozen=True)
class Concept:
    name: str
    signature: tuple[float, ...]
    noise: float

    def __post_init__(self):
        if self.noise < 0.0:
            raise ConfigError(f"concept {self.name!r} has negative noise")

    @classmethod
    def from_dict(cls, doc: dict) -> "Concept":
        f = checked_fields(doc, _CONCEPT_FIELDS, "concept", ConfigError)
        return cls(f["name"], tuple(map(float, f["signature"])), float(f["noise"]))


@dataclass(frozen=True)
class WorldSpec:
    height: int
    width: int
    channels: int
    concepts: tuple[Concept, ...]
    hierarchy: tuple[tuple[str, tuple[str, ...]], ...]  # (coarse, fine children)
    background: str
    objects_min: int
    objects_max: int
    size_min: int
    size_max: int
    seed: int
    box_pad: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ConfigError("world dimensions must be positive")
        names = [c.name for c in self.concepts]
        if len(set(names)) != len(names) or not names:
            raise ConfigError("concept names must be unique and non-empty")
        for c in self.concepts:
            if len(c.signature) != self.channels:
                raise ConfigError(
                    f"concept {c.name!r} signature has {len(c.signature)} channels, "
                    f"world has {self.channels}")
        if len({c.signature for c in self.concepts}) != len(self.concepts):
            raise ConfigError("concept signatures must be pairwise distinct")
        if self.background not in names:
            raise ConfigError(f"background {self.background!r} is not a concept")
        grouped = [f for _, fs in self.hierarchy for f in fs]
        if sorted(grouped) != sorted(names):
            raise ConfigError("hierarchy must cover every fine concept exactly once")
        coarse = [p for p, _ in self.hierarchy]
        if len(set(coarse)) != len(coarse):
            raise ConfigError("duplicate coarse names in hierarchy")
        if set(coarse) & set(names):
            raise ConfigError("coarse names must not collide with fine names")
        if not 0 <= self.objects_min <= self.objects_max:
            raise ConfigError("bad object count range")
        if not 1 <= self.size_min <= self.size_max:
            raise ConfigError("bad object size range")
        if self.size_max > min(self.height, self.width):
            raise ConfigError("size_max exceeds the canvas")
        if self.box_pad < 0:
            raise ConfigError("box_pad must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"world seed must be >= 0, got {self.seed}")

    @property
    def fine_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.concepts)

    @property
    def coarse_names(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.hierarchy)

    @property
    def parent_of(self) -> dict[str, str]:
        return {f: p for p, fs in self.hierarchy for f in fs}

    @cached_property
    def scene_tables(self) -> tuple:
        """What every scene reads of the world, built once: the fine names, the
        background id, the placeable ids, and the signature and noise arrays."""
        names = self.fine_names
        signatures = np.array([c.signature for c in self.concepts], dtype=np.float64)
        noise = np.array([c.noise for c in self.concepts], dtype=np.float64)
        signatures.flags.writeable = noise.flags.writeable = False  # shared by every scene
        placeable = tuple(i + 1 for i, n in enumerate(names) if n != self.background)
        return names, names.index(self.background) + 1, placeable, signatures, noise

    @classmethod
    def from_dict(cls, doc) -> "WorldSpec":
        f = checked_fields(doc, _WORLD_FIELDS, "world spec", ConfigError)
        del f["views"]
        f["concepts"] = tuple(Concept.from_dict(c) for c in f["concepts"])
        f["hierarchy"] = tuple(_hierarchy_edge(e) for e in f["hierarchy"])
        return cls(**f)


@dataclass(frozen=True)
class SceneObject:
    concept: str
    x0: int
    y0: int
    x1: int
    y1: int


@dataclass(frozen=True)
class Scene:
    features: np.ndarray  # (H, W, C) float64
    fine_ids: np.ndarray  # (H, W) int64 into [void] + fine_names
    objects: tuple[SceneObject, ...]


def generate_scene(world: WorldSpec, index: int) -> Scene:
    """Deterministic scene for one index; RNG seeded with seed XOR index."""
    if index < 0:
        raise DataError(f"scene index must be >= 0, got {index}")
    rng = np.random.Generator(np.random.PCG64(world.seed ^ index))
    names, bg_id, placeable, signatures, noise_scale = world.scene_tables
    if not placeable and world.objects_max > 0:
        raise DataError("world has no placeable concept besides the background")

    ids = np.full((world.height, world.width), bg_id, dtype=np.int64)
    objects = []
    count = int(rng.integers(world.objects_min, world.objects_max + 1))
    for _ in range(count):
        cid = placeable[int(rng.integers(len(placeable)))]
        bw = int(rng.integers(world.size_min, world.size_max + 1))
        bh = int(rng.integers(world.size_min, world.size_max + 1))
        x0 = int(rng.integers(0, world.width - bw + 1))
        y0 = int(rng.integers(0, world.height - bh + 1))
        ids[y0:y0 + bh, x0:x0 + bw] = cid
        objects.append(SceneObject(names[cid - 1], x0, y0, x0 + bw, y0 + bh))

    base = signatures[ids - 1]
    noise = rng.standard_normal((world.height, world.width, world.channels))
    features = base + noise * noise_scale[ids - 1][:, :, None]
    return Scene(features=features, fine_ids=ids, objects=tuple(objects))


@dataclass(frozen=True)
class View:
    """One dataset to emit from a world."""

    dataset_id: str
    supervision: str
    granularity: str
    count: int
    start_index: int = 0
    classes: tuple[str, ...] | None = None  # optional subset, view-granularity names

    def __post_init__(self):
        if self.supervision not in SUPERVISION_KINDS:
            raise ConfigError(f"unknown supervision kind {self.supervision!r}")
        if self.granularity not in (FINE, COARSE):
            raise ConfigError(f"granularity must be fine or coarse, got {self.granularity!r}")
        if self.count < 1:
            raise ConfigError("view count must be >= 1")
        if self.start_index < 0:
            raise ConfigError("view start_index must be >= 0")

    @classmethod
    def from_dict(cls, doc) -> "View":
        f = checked_fields(doc, _VIEW_FIELDS, "view", ConfigError)
        return cls(**{**f, "classes": tuple(f["classes"]) or None})


def view_space(world: WorldSpec, view: View) -> LabelSpace:
    base = world.fine_names if view.granularity == FINE else world.coarse_names
    if view.classes is None:
        names = base
    else:
        unknown = set(view.classes) - set(base)
        if unknown:
            raise ConfigError(
                f"view {view.dataset_id!r} selects unknown classes {sorted(unknown)}")
        names = tuple(n for n in base if n in set(view.classes))
    return LabelSpace(dataset_id=view.dataset_id, classes=("void",) + names,
                      supervision=view.supervision)


def relation_triples(world: WorldSpec) -> list[tuple[str, str, str]]:
    """hypernym(coarse, fine) for every hierarchy edge."""
    return [(HYPERNYM, p, f) for p, fs in world.hierarchy for f in fs]


def emit_dataset(world: WorldSpec, view: View, out_dir) -> Path:
    """Write one view to disk: feature rasters, labels, the label space
    file, and a manifest with paths relative to the output directory;
    returns the manifest's path."""
    root = Path(out_dir)
    (root / view.dataset_id).mkdir(parents=True, exist_ok=True)
    space = view_space(world, view)
    # view class name -> id in the view space
    to_view = {name: i for i, name in enumerate(space.classes)}
    parent = world.parent_of
    fine_names = world.fine_names

    def view_name(fine: str) -> str:
        return fine if view.granularity == FINE else parent[fine]

    lut = np.array([0] + [to_view.get(view_name(n), 0) for n in fine_names], dtype=np.uint16)
    records = []
    for i in range(view.count):
        scene = generate_scene(world, view.start_index + i)
        img_rel = f"{view.dataset_id}/img_{i:05d}.rast"
        formats.write_raster(root / img_rel, scene.features.astype(np.float32))

        if view.supervision in PIXEL_KINDS:
            lab_rel = f"{view.dataset_id}/lab_{i:05d}.rast"
            formats.write_raster(root / lab_rel, lut[scene.fine_ids])
        elif view.supervision == BBOX:
            boxes = []
            for obj in scene.objects:
                cls = to_view.get(view_name(obj.concept))
                if cls is None:
                    continue
                pad = world.box_pad
                boxes.append((cls, max(0, obj.x0 - pad), max(0, obj.y0 - pad),
                              min(world.width, obj.x1 + pad),
                              min(world.height, obj.y1 + pad)))
            lab_rel = f"{view.dataset_id}/lab_{i:05d}.weak"
            formats.write_weak_label(root / lab_rel, WeakLabel(boxes=tuple(boxes)))
        else:  # image tags: View accepts no other supervision kind
            visible = {fine_names[v - 1] for v in np.unique(scene.fine_ids)}
            tag_ids = sorted({to_view[view_name(n)] for n in visible
                              if view_name(n) in to_view})
            lab_rel = f"{view.dataset_id}/lab_{i:05d}.weak"
            formats.write_weak_label(root / lab_rel,
                                     WeakLabel(tags=tuple(tag_ids)))
        records.append((img_rel, lab_rel))

    space_rel = f"{view.dataset_id}_space.json"
    formats.write_label_space(root / space_rel, space)
    manifest_path = root / f"{view.dataset_id}_manifest.json"
    formats.write_json(manifest_path, {
        "dataset_id": view.dataset_id,
        "supervision": view.supervision,
        "granularity": view.granularity,
        "label_space": space_rel,
        "records": [[img, lab] for img, lab in records],
    })
    return manifest_path


def load_dataset(manifest_path) -> LoadedDataset:
    """Read a manifest and pull its rasters and labels into memory."""
    path = Path(manifest_path)
    doc = formats.read_manifest(path)
    root = path.parent
    space = formats.read_label_space(root / doc["label_space"])
    if space.dataset_id != doc["dataset_id"]:
        raise DataError(
            f"manifest {doc['dataset_id']!r} points at label space "
            f"{space.dataset_id!r}")
    if space.supervision != doc["supervision"]:
        raise FormatError(
            path, f"supervision {doc['supervision']!r} disagrees with "
            f"{space.supervision!r} in its label space {doc['label_space']}")
    images = []
    labels = []
    for img_rel, lab_rel in doc["records"]:
        image = formats.read_raster(root / img_rel)
        if image.ndim != 3:
            raise FormatError(root / img_rel, f"image must be (H, W, C), got {image.shape}")
        if not np.isfinite(image).all():
            raise FormatError(root / img_rel, "image holds NaN or infinite values")
        images.append(image)
        height, width = image.shape[:2]
        if space.supervision in PIXEL_KINDS:
            ids = formats.read_raster(root / lab_rel)
            if ids.dtype != np.uint16 or ids.shape != (height, width):
                raise FormatError(root / lab_rel, f"pixel labels must be uint16 of shape "
                                  f"{(height, width)}, got {ids.dtype} {ids.shape}")
            try:
                labels.append(StrongLabel(class_ids=ids.astype(np.int64),
                                          num_classes=space.num_classes))
            except DataError as exc:
                raise FormatError(root / lab_rel, str(exc)) from None
        else:
            label = formats.read_weak_label(root / lab_rel)
            try:
                label.check_fits(height, width, space.num_classes)
            except DataError as exc:
                raise FormatError(root / lab_rel, str(exc)) from None
            labels.append(label)
    return LoadedDataset(space=space, images=images, labels=labels)
