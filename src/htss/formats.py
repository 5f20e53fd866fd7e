"""On-disk formats: rasters, checkpoints, label files, manifests.

Binary layouts are little-endian throughout.

Raster file:  magic "HTSSRAST", u32 dtype code (1 = float32, 2 =
uint16), u32 rank, rank x u32 dims, then the row-major payload.

Array container (used for checkpoints): magic "HTSSCKPT", u32 version,
u32 array count, then per array u32 rank, rank x u32 dims and a float64
payload. In both, ranks run from 1 to 4 and every dim is at least 1.

Weak label file: text, one "class_index x_min y_min x_max y_max" line
per box, then a single "tags:" line listing tag class indices.

Label spaces, manifests, taxonomy exports and reports are JSON documents,
which write_json writes with sorted keys so that a rerun writes
byte-identical files. checked_fields checks every JSON object htss reads
against a table of its keys' types.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import struct
from functools import partial
from pathlib import Path, PurePosixPath
from typing import get_args, get_origin

import numpy as np

from .annotations import WeakLabel
from .errors import DataError, FormatError
from .taxonomy import (
    RELATION_KINDS,
    SUPERVISION_KINDS,
    LabelSpace,
    RelationTable,
    Taxonomy,
)

RASTER_MAGIC = b"HTSSRAST"
CKPT_MAGIC = b"HTSSCKPT"
CKPT_VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<u2")}
_CODE_OF = {np.dtype(np.float32): 1, np.dtype(np.uint16): 2}


def write_raster(path, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    code = _CODE_OF.get(array.dtype)
    if code is None:
        raise FormatError(path, f"raster dtype must be float32 or uint16, got {array.dtype}")
    with open(path, "wb") as fh:
        fh.write(RASTER_MAGIC)
        fh.write(struct.pack("<II", code, array.ndim))
        fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
        fh.write(array.astype(_DTYPE_CODES[code], copy=False).tobytes())


def _unpack(fh, path, fmt: str) -> tuple:
    """Read and unpack one fixed-size header field group; a short read
    means the file ends inside its header."""
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise FormatError(path, "truncated header")
    return struct.unpack(fmt, raw)


def _read_array(fh, path, rank: int, dtype: np.dtype, what: str) -> np.ndarray:
    """Read rank u32 dims, each at least 1, then the row-major payload they
    size, checking that size against the bytes left in the file before
    asking for that many."""
    if not 1 <= rank <= 4:
        raise FormatError(path, f"unsupported {what} rank {rank}")
    dims = _unpack(fh, path, f"<{rank}I")
    if 0 in dims:
        raise FormatError(path, f"empty {what}: dims {dims}")
    nbytes = math.prod(dims) * dtype.itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    payload = fh.read(nbytes) if nbytes <= left else b""
    if len(payload) != nbytes:
        raise FormatError(
            path, f"truncated {what} payload: header claims {nbytes} bytes, "
            f"{left} left")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


def read_raster(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != RASTER_MAGIC:
            raise FormatError(path, f"bad raster magic {magic!r}")
        code, rank = _unpack(fh, path, "<II")
        if code not in _DTYPE_CODES:
            raise FormatError(path, f"unknown raster dtype code {code}")
        array = _read_array(fh, path, rank, _DTYPE_CODES[code], "raster")
        if fh.read(1):
            raise FormatError(path, "trailing bytes after raster payload")
    return array


def write_array_file(path, arrays: list[np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(arrays)))
        for array in arrays:
            array = np.ascontiguousarray(array, dtype="<f8")
            fh.write(struct.pack("<I", array.ndim))
            fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
            fh.write(array.tobytes())


def read_array_file(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CKPT_MAGIC:
            raise FormatError(path, f"bad checkpoint magic {magic!r}")
        version, count = _unpack(fh, path, "<II")
        if version != CKPT_VERSION:
            raise FormatError(path, f"unsupported checkpoint version {version}")
        arrays = []
        for _ in range(count):
            (rank,) = _unpack(fh, path, "<I")
            arrays.append(_read_array(fh, path, rank, np.dtype("<f8"), "checkpoint"))
        if fh.read(1):
            raise FormatError(path, "trailing bytes after checkpoint payload")
    return arrays


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(path, f"not UTF-8 text: {exc}") from None


def write_weak_label(path, label: WeakLabel) -> None:
    lines = [f"{c} {x0} {y0} {x1} {y1}" for c, x0, y0, x1, y1 in label.boxes]
    lines.append("tags: " + " ".join(str(t) for t in label.tags))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_weak_label(path) -> WeakLabel:
    boxes = []
    tags: tuple[int, ...] = ()
    saw_tags = False
    for ln, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("tags:"):
            if saw_tags:
                raise FormatError(path, f"line {ln}: duplicate tags record")
            saw_tags = True
            rest = line[len("tags:"):].split()
            try:
                tags = tuple(int(t) for t in rest)
            except ValueError:
                raise FormatError(path, f"line {ln}: non-integer tag") from None
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(path, f"line {ln}: expected 5 fields, got {len(parts)}")
        try:
            boxes.append(tuple(int(p) for p in parts))
        except ValueError:
            raise FormatError(path, f"line {ln}: non-integer box field") from None
    if not saw_tags:
        raise FormatError(path, "missing tags record")
    try:
        return WeakLabel(boxes=tuple(boxes), tags=tags)
    except DataError as exc:
        raise FormatError(path, str(exc)) from None


def has_type(value, kind) -> bool:
    """isinstance for JSON values: a bool is never a number, an int may stand
    for a float, and list[T] and dict[str, T] check each item (value) against T."""
    origin = get_origin(kind)
    if origin is not None:
        items = value.values() if isinstance(value, dict) else value
        return (isinstance(value, origin)
                and all(has_type(v, get_args(kind)[-1]) for v in items))
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


_TYPE_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean",
               list: "list", dict: "object"}


def _type_name(kind, plural: bool = False) -> str:
    """'string', 'list of strings', 'object of integers', ..."""
    origin = get_origin(kind)
    name = _TYPE_NAMES[origin or kind] + ("s" if plural else "")
    return f"{name} of {_type_name(get_args(kind)[-1], True)}" if origin else name


def checked_fields(doc, fields: dict, what: str, fail) -> dict:
    """doc as a dict of exactly the keys of fields, which maps each key to
    (kind, default); a default of ... marks a required key. fail(message)
    builds the exception for a non-object, an unknown or missing key, or a
    value of the wrong type; each message names what and the key."""
    if not isinstance(doc, dict):
        raise fail(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise fail(f"unknown {what} keys: {unknown}")
    for key, (kind, default) in fields.items():
        if key not in doc and default is ...:
            raise fail(f"{what} missing key {key!r}")
        if key in doc and not has_type(doc[key], kind):
            name = _type_name(kind)
            raise fail(f"{what} key {key!r} must be {'an' if name[0] in 'aeiou' else 'a'} "
                       f"{name}, got {reprlib.repr(doc[key])}")
    return {key: doc.get(key, default) for key, (_, default) in fields.items()}


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
                          + "\n", encoding="utf-8")


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(path, f"invalid JSON: {exc}") from None


def write_label_space(path, space: LabelSpace) -> None:
    write_json(path, {"dataset_id": space.dataset_id,
                      "supervision": space.supervision,
                      "classes": list(space.classes)})


def read_label_space(path) -> LabelSpace:
    doc = checked_fields(_load_json(path), {
        "dataset_id": (str, ...), "supervision": (str, ...), "classes": (list[str], ...),
    }, "label space", partial(FormatError, path))
    try:
        return LabelSpace(dataset_id=doc["dataset_id"], classes=tuple(doc["classes"]),
                          supervision=doc["supervision"])
    except DataError as exc:
        raise FormatError(path, str(exc)) from None


def write_relations(path, triples) -> None:
    lines = [f"{kind}\t{subject}\t{obj}" for kind, subject, obj in sorted(set(triples))]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_relations(path) -> RelationTable:
    triples = []
    for ln, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(path, f"line {ln}: expected kind<TAB>subject<TAB>object")
        kind, subject, obj = parts
        if kind not in RELATION_KINDS:
            raise FormatError(path, f"line {ln}: unknown relation kind {kind!r}")
        triples.append((kind, subject, obj))
    return RelationTable.from_triples(triples)


def write_taxonomy(path, t: Taxonomy, spaces) -> None:
    doc = {
        "atoms": list(t.atoms),
        "groups": {
            sp.dataset_id: {
                sp.classes[m]: [t.atom_name(a)
                                for a in sorted(t.groups[(sp.dataset_id, m)])]
                for m in range(sp.num_classes + 1)
            }
            for sp in spaces
        },
    }
    write_json(path, doc)


def _check_relative(path, rel: str) -> None:
    """A path named by a manifest must stay under the manifest's directory."""
    pure = PurePosixPath(rel)
    if pure.is_absolute() or ".." in pure.parts:
        raise FormatError(path, f"path {rel!r} must be relative and free of '..'")


def read_manifest(path) -> dict:
    """A manifest: string dataset_id, granularity and label_space, a known
    supervision kind, and records as [image, label] pairs of relative paths."""
    doc = checked_fields(_load_json(path), {
        "dataset_id": (str, ...), "supervision": (str, ...), "granularity": (str, ...),
        "label_space": (str, ...), "records": (list[list[str]], ...),
    }, "manifest", partial(FormatError, path))
    if doc["supervision"] not in SUPERVISION_KINDS:
        raise FormatError(path, f"unknown supervision kind {doc['supervision']!r}")
    _check_relative(path, doc["label_space"])
    for i, record in enumerate(doc["records"]):
        if len(record) != 2:
            raise FormatError(path, f"record {i} must be an [image, label] pair of paths")
        for rel in record:
            _check_relative(path, rel)
    return doc
