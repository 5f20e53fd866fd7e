"""Group-accumulated cross-entropy over semantic atoms, with exact gradients.

The classifier outputs one logit per semantic atom. For a dataset whose
class m covers the atom group G_m, the class probability is the plain
sum of the atom softmax over G_m (no renormalization: atom mass outside
every group is simply not credited to any class). The loss is
cross-entropy between the pseudo-label canvas and those accumulated
class probabilities, averaged over supervised pixels.

The gradient of that loss with respect to atom logit j at a supervised
pixel with target class m* is

    sigma_j - sigma_j * [j in G_{m*}] / s_{m*}

(extended as a convex combination over classes for soft targets). Note
this is not the simplified indicator form sigma_j - [j in G_{m*}]; the
two only coincide when every group is a singleton, where the expression
degenerates to the familiar softmax cross-entropy gradient. Finite
differences are the authority used by the test suite.

Class sums are index gathers, not products with a 0/1 group matrix.
A GroupIndex holds two padded membership tables: per class its atoms,
per atom the classes covering it, each list in ascending order and
padded with the position of a zero column appended to the gathered
array. The class sums s are built by gathering the k-th atom of every
group and adding, k = 0, 1, ...; the gradient's back-projection
sum_m [j in G_m] y_m / s_m is built the same way from the atom -> classes
table. Sums therefore run in ascending index order, and adding a padding
zero is exact. Because an atom lists every class that covers it,
overlapping groups stay exact too: nothing assumes the groups form a
partition. Per pixel, the gathers touch L*g + A*c entries, g being the
largest group and c the most classes sharing an atom; for disjoint groups
of even size that is O(A + sum_m |G_m|), so a dataset costs
O(HW * (A + sum_m |G_m|)) where the matrix products cost O(HW * A * L).
batch_loss is the one entry point: each of its items takes a GroupIndex,
which callers build once per group map with group_index (train_loop does
so per dataset) and reuse. A batch may go to batch_loss in parts, as
train_loop feeds a step one chunk at a time: each call gets the whole
batch's two supervised-pixel counts and the loss of the parts before it,
and adds its images' terms to that float in item order, so the parts give
the bits of one call over the batch.

A box or tag item's target is a PseudoCanvas (soft, gated, held as its
labeled rows). A pixel item is a chunk of k same-size StrongLabels (class
ids, 0 = void) with one (k*H, W, A) distribution raster and a GroupIndex
each. Both compute on supervised rows, the gathers, log and reduce_last per
row, so bits do not depend on the outer shape. Row losses go into a +0.0
raster, summed per image along (k, H*W) rows: each sum is numpy's pairwise
sum of that image's own raster, added in image order, the bits of k
one-image items (one sum over the chunk would pair other terms). A chunk gathers from
its raster in place, one pass per run of images of one GroupIndex, and only
the target class's atoms: with slot = id - 1, s* = sum_k
probs[class_atoms[k, slot]] in k order with padding read as +0.0, the
loss -log max(s*, 1e-12), the gradient probs * (1 - 1/s*) at the atoms
of G_slot and probs elsewhere, and +0.0 written at unsupervised pixels.
That keeps the bits of the canvas path on the one-hot canvas of the
same labels, also for overlapping groups: with y one-hot, every other
class's term there is an exact +-0.0 (log(s_m) * 0 in the loss, 0 / s_m
in the back-projection), the class sum of y is exactly 1, and adding a
signed zero to a nonzero sum, or multiplying by 1, changes no bit. At s* == 1 both give the loss -0.0.

An item has one gradient, built already divided by its normalizer n,
with the operations per element of dividing the built raster: a chunk's
probs / n overwritten with +0.0 and (probs * (1 - 1/s*)) / n, a canvas's
back / n in its rows of a zero raster. An item or image supervising no
pixel skips the loss math after the shape checks and adds nothing to the
total (its +0.0 sum would change no bit); such an item's gradient is a read-only
+0.0 view, the bits the row path gives it. Its distribution may be such
a view too (train_loop hands one): the checks read only its shape.

All math runs in float64; log arguments are clamped at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .annotations import PseudoCanvas, StrongLabel, reduce_last
from .errors import (
    IndexOutOfRange,
    NonFiniteInput,
    NoSupervisedPixels,
    ShapeMismatch,
)
from .taxonomy import PIXEL_KINDS, SUPERVISION_KINDS, AtomPartition

LOG_EPS = 1e-12

# Shape conventions: a logit raster and an atom distribution are both
# (H, W, A) float arrays; a group map is a sequence of frozensets of
# zero-based atom indices, one entry per non-void class slot.
GroupMap = Sequence[frozenset]


@dataclass(frozen=True)
class GroupIndex:
    """Padded membership tables of one group map over atom_count atoms.

    Column m of class_atoms (g, L) lists the atoms of group m in
    ascending order, column j of atom_classes (c, A) the classes covering
    atom j in ascending order; slots past the end of a list hold the
    table's column count (atom_count, resp. L), where the gather appends
    a zero column. padded tells whether class_atoms holds such a slot:
    where every group has g atoms, a pixel item's gather needs no redirect.
    """

    atom_count: int
    class_atoms: np.ndarray
    atom_classes: np.ndarray
    padded: bool

    @property
    def num_classes(self) -> int:
        return self.class_atoms.shape[1]


def softmax_atoms(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the trailing atom axis, max-shifted for
    stability. Softmax is invariant under per-pixel constant shifts."""
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NonFiniteInput("logits")
    e = logits - reduce_last(np.maximum, logits)[..., None]
    np.exp(e, out=e)  # in place: one raster beside the logits, same bits
    e /= reduce_last(np.add, e)[..., None]
    return e


def group_matrix(groups: GroupMap, atom_count: int) -> np.ndarray:
    """Indicator matrix (L, A) of a group map."""
    mat = np.zeros((len(groups), atom_count), dtype=np.float64)
    for m, g in enumerate(groups):
        for a in g:
            if not 0 <= a < atom_count:
                raise IndexOutOfRange(
                    f"group {m} references atom {a}, have {atom_count} atoms")
            mat[m, a] = 1.0
    return mat


def _member_table(member: np.ndarray) -> np.ndarray:
    """(depth, N) table whose column n lists the true entries of row n of
    an (N, K) membership matrix in ascending order, padded with K."""
    rows = [np.flatnonzero(r) for r in member]
    depth = max([len(r) for r in rows] + [1])
    table = np.full((depth, member.shape[0]), member.shape[1], dtype=np.intp)
    for n, r in enumerate(rows):
        table[:len(r), n] = r
    return table


def group_index(groups: GroupMap, atom_count: int) -> GroupIndex:
    """Membership tables of a group map; atom indices are checked by
    group_matrix."""
    member = group_matrix(groups, atom_count) > 0.0
    class_atoms = _member_table(member)
    return GroupIndex(atom_count=atom_count, class_atoms=class_atoms,
                      atom_classes=_member_table(member.T),
                      padded=bool((class_atoms == atom_count).any()))


def _gather_sum(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """out[..., n] = sum_k x[..., table[k, n]], added in k order, where
    index x.shape[-1] reads an appended zero column."""
    padded = np.concatenate((x, np.zeros(x.shape[:-1] + (1,))), axis=-1)
    # take, not padded[..., row]: the fancy-index result is not
    # C-contiguous, which slows every elementwise op that follows
    out = padded.take(table[0], axis=-1)
    for row in table[1:]:
        out += padded.take(row, axis=-1)
    return out


def _check_atom_axis(probs: np.ndarray, index: GroupIndex) -> None:
    if index.atom_count != probs.shape[-1]:
        raise ShapeMismatch(
            f"group index over {index.atom_count} atoms vs a distribution "
            f"over {probs.shape[-1]}")


def accumulate_groups(probs: np.ndarray, index: GroupIndex) -> np.ndarray:
    """Per-class probabilities as plain sums of atom probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    _check_atom_axis(probs, index)
    return _gather_sum(probs, index.class_atoms)


def _chunk_grad(probs, mask, runs, s, denom) -> np.ndarray:
    grads = np.empty(probs.size + 1)  # the last slot takes the padding entries' writes
    out = grads[:-1].reshape(probs.shape)
    np.divide(probs, denom, out=out)  # a row gather into zeros costs far more
    if s.size < mask.size:
        out[~mask] = 0.0
    scale = np.divide(1.0, s)
    np.subtract(1.0, scale, out=scale)  # 1 - 1/s*, per supervised pixel
    for run, at, parts in runs:
        grads[at] = scale[run] * parts / denom
    return out


def _chunk_terms(labels: Sequence[StrongLabel], probs: np.ndarray,
                 indexes: Sequence[GroupIndex]):
    """Checks a chunk of k same-size pixel labels, each with its GroupIndex,
    against their distributions stacked row-wise in probs (k*H, W, A); returns
    the loss sums of its images with a supervised pixel, in image order, its
    supervised pixel count and grad, where grad(denom) builds its gradient
    divided by denom."""
    if not labels or not all(isinstance(label, StrongLabel) for label in labels):
        raise ShapeMismatch(f"a pixel item's targets are StrongLabels, got {labels!r}")
    k, (h, w) = len(labels), labels[0].class_ids.shape
    probs = np.asarray(probs)  # checked by shape: a +0.0 view is never copied
    if len(indexes) != k or probs.ndim != 3 or probs.shape[:2] != (k * h, w):
        raise ShapeMismatch(f"distribution {probs.shape} vs {k} target grids ({h}, {w})")
    for label, index in zip(labels, indexes):
        if label.class_ids.shape != (h, w) or index.num_classes != label.num_classes:
            raise ShapeMismatch(f"target {label.class_ids.shape} of {label.num_classes} class "
                                f"slots, {index.num_classes} groups, in a ({h}, {w}) chunk")
        _check_atom_axis(probs, index)
    ids = np.concatenate([label.class_ids for label in labels]) if k > 1 else labels[0].class_ids
    mask = ids > 0
    rows = np.flatnonzero(mask)
    if not rows.size:
        # read-only, with no raster behind it; built on request, since a view
        # held here would outlive the chunk's backward pass
        return [], 0, lambda denom: np.broadcast_to(0.0, probs.shape)
    probs = np.ascontiguousarray(probs, dtype=np.float64)  # take reads it flat
    atoms = probs.shape[-1]
    # ends[i]: the supervised pixels of images 0..i; image i's rows are ends[i-1]:ends[i]
    ends = np.searchsorted(rows, np.arange(1, k + 1) * (h * w)).tolist() if k > 1 else [rows.size]
    slots = ids.reshape(-1).take(rows) - 1  # after the row gather: never void
    s, runs, lo = np.empty(rows.size), [], 0
    for i in range(k):  # a run: consecutive images of one GroupIndex, ending at image i
        if i + 1 < k and indexes[i + 1] is indexes[i]:
            continue
        run, index, lo = slice(lo, ends[i]), indexes[i], ends[i]
        at = index.class_atoms.take(slots[run], axis=1)  # (g, n); take: half the time of []
        real = None  # no padding slot to redirect: every entry names an atom
        if index.padded:
            real = at < atoms
            at = np.where(real, at, 0)
        at += rows[run] * atoms
        parts = np.take(probs, at)  # from the chunk's raster, flat: no copy of it
        if real is not None:
            parts[~real] = 0.0
            at[~real] = probs.size  # the gradient's sink slot
        run_s = s[run]  # parts stays the gathered atoms, for the gradient
        run_s[:] = parts[0]
        for row in parts[1:]:  # in k order (np.add.reduce sums one pixel pairwise)
            run_s += row
        runs.append((run, at, parts))
    np.maximum(s, LOG_EPS, out=s)
    losses = np.zeros(k * h * w)
    losses[rows] = -np.log(s)
    # each image's losses summed alone, the pairwise sum of its own (H, W) raster
    sums = [losses.sum()] if k == 1 else [x for x, start, end in zip(
        losses.reshape(k, -1).sum(axis=1).tolist(), [0] + ends, ends) if end > start]
    return sums, rows.size, partial(_chunk_grad, probs, mask, runs, s)


def _canvas_grad(p_rows, rows, y, s, atom_classes, shape, denom) -> np.ndarray:
    back = _gather_sum(np.divide(y, s), atom_classes)
    np.subtract(reduce_last(np.add, y)[:, None], back, out=back)
    back *= p_rows
    grads = np.zeros(shape)
    grads.reshape(-1, shape[-1])[rows] = back / denom
    return grads


def _canvas_terms(target: PseudoCanvas, probs: np.ndarray, index: GroupIndex):
    """Checks one box or tag item; returns its (H, W) unscaled losses, its
    supervised pixel count and grad, where grad(denom) builds its gradient
    divided by denom."""
    num = target.num_classes
    probs = np.asarray(probs)  # checked by shape: a +0.0 view is never copied
    if index.num_classes != num:
        raise ShapeMismatch(f"{index.num_classes} groups for {num} class slots")
    if probs.ndim != 3 or probs.shape[:2] != (target.height, target.width):
        raise ShapeMismatch(
            f"distribution {probs.shape} vs target grid "
            f"({target.height}, {target.width})")
    _check_atom_axis(probs, index)
    h, w, atoms = probs.shape
    rows = target.rows  # in row-major order
    losses = np.zeros((h, w))
    if not rows.size:
        return losses, 0, lambda denom: np.broadcast_to(0.0, (h, w, atoms))
    probs = np.ascontiguousarray(probs, dtype=np.float64)  # reshapes below are views
    p_rows = probs.reshape(-1, atoms).take(rows, axis=0)
    y = target.vectors[:, :num]
    s = _gather_sum(p_rows, index.class_atoms)
    np.maximum(s, LOG_EPS, out=s)
    terms = np.log(s)
    terms *= y
    losses.reshape(-1)[rows] = -reduce_last(np.add, terms)
    return losses, rows.size, partial(_canvas_grad, p_rows, rows, y, s, index.atom_classes,
                                      probs.shape)


def _gradients(builds: list) -> Iterator[np.ndarray]:
    """Gradients in item order, each built on request by a call that drops
    its builder, so the suspended iterator holds neither."""
    builds.reverse()  # popped in item order
    while builds:
        yield builds.pop()()


def batch_loss(items: Sequence[tuple], counts: Sequence[int] | None = None,
               total: float = 0.0) -> tuple[float, Iterator[np.ndarray]]:
    """Mixed-batch loss with per-population normalizers.

    Each item is (target, atom distribution, GroupIndex, supervision
    kind), the target a PseudoCanvas for a box or tag canvas; a chunk of
    pixel images is (their StrongLabels, their distributions stacked
    row-wise, their GroupIndexes, a pixel kind), one image also bare. A
    target of the other population raises ShapeMismatch. Pixel items share
    one normalizer (the total count of their supervised pixels across the
    batch), box/tag items share the other; the loss is the sum of both
    normalized populations. A population that contributes no supervised
    pixels simply drops out; if both are empty the batch is rejected.

    A batch may be fed in parts: counts gives the (box/tag, pixel)
    supervised-pixel counts of the whole batch, and total the loss of the
    parts before, to which each image's term is added in item order. So
    a batch fed item list by item list gets the bits of one call over all
    its items, and a chunk the bits of its images as one-image items;
    without counts, the items are the whole batch.

    Returns the loss and an iterator over the per-item logit gradients
    of it, in item order (a chunk's is one raster, stacked as its
    distribution), each built on request as a fresh array already divided
    (an item with no supervised pixel yields a read-only +0.0 view). The
    iterator releases an item's distribution once it has yielded its
    gradient; the items list is left as it was.
    """
    pieces = []
    seen = [0, 0]  # supervised pixels of the box/tag and the pixel items
    for target, probs, index, kind in items:
        strong = kind in PIXEL_KINDS
        if kind not in SUPERVISION_KINDS or isinstance(target, PseudoCanvas) == strong:
            raise ShapeMismatch(f"supervision kind {kind!r} for a {type(target).__name__}")
        if not strong:
            losses, n, grad = _canvas_terms(target, probs, index)
            sums = [losses.sum()] if n else []
        elif isinstance(target, StrongLabel):  # a chunk of one
            sums, n, grad = _chunk_terms((target,), probs, (index,))
        else:
            sums, n, grad = _chunk_terms(target, probs, index)
        seen[strong] += n
        pieces.append((sums, strong, grad))
    counts = seen if counts is None else counts
    if not any(counts):
        raise NoSupervisedPixels()

    for sums, strong, _ in pieces:  # an image of all +0.0 would change no bit: none here
        for image_sum in sums:
            total += image_sum / counts[strong]
    return float(total), _gradients([partial(grad, counts[strong]) for _, strong, grad in pieces])


def merge_subclass_predictions(ap_probs: np.ndarray, s_probs: np.ndarray,
                               part: AtomPartition) -> np.ndarray:
    """Final per-pixel atom ids from the two prediction heads.

    Argmax over the a+p head; wherever the winner is a parent atom it is
    replaced by the argmax over that parent's subclass atoms on the s
    head. Returns 1-based atom indices into the partition universe.
    """
    ap_order = part.ap_atoms
    s_order = part.s_atoms
    if ap_probs.ndim != 3 or ap_probs.shape[2] != len(ap_order):
        raise ShapeMismatch(
            f"a+p head has {ap_probs.shape} for {len(ap_order)} atoms")
    if part.p_set and (s_probs.ndim != 3 or s_probs.shape[2] != len(s_order)):
        raise ShapeMismatch(f"s head has {s_probs.shape} for {len(s_order)} atoms")
    s_pos = part.s_local()
    atom_ids = np.asarray(ap_order, dtype=np.int64)[ap_probs.argmax(axis=2)]
    for p in sorted(part.p_set):  # AtomPartition gives each parent a subclass
        where = atom_ids == p
        if not where.any():
            continue
        kids = part.children_of(p)
        cols = [s_pos[k] for k in kids]
        sub = s_probs[where][:, cols]
        atom_ids[where] = np.asarray(kids, dtype=np.int64)[sub.argmax(axis=1)]
    return atom_ids
