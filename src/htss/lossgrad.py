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
The loss functions take only a GroupIndex: callers build it once per
group map with group_index (train_loop does so per dataset) and reuse it.

A target is either a PseudoCanvas (box and tag items: soft, gated and
held as their labeled rows) or a StrongLabel (pixel labels: one class id
per pixel, 0 = void). Both compute on supervised rows only. Row losses
go into an (H, W) +0.0 raster before any sum, so batch_loss's pairwise
sum sees a full-raster pass's array, and a canvas's gradient rows into
a zero raster; its gathers, log and reduce_last act per row, so their
bits do not depend on the outer shape. A StrongLabel gathers only the
target class's atoms: with slot = id - 1, s* = sum_k
probs[class_atoms[k, slot]] in k order with padding read as +0.0, the
loss -log max(s*, 1e-12), the gradient probs * (1 - 1/s*) at the atoms
of G_slot and probs elsewhere, and +0.0 written at unsupervised pixels.
That keeps the bits of the canvas path on the one-hot canvas of the
same labels, also for overlapping groups: with y one-hot, every other
class's term there is an exact +-0.0 (log(s_m) * 0 in the loss, 0 / s_m
in the back-projection), the class sum of y is exactly 1, and adding a
signed zero to a nonzero sum, or multiplying by 1, changes no bit. At s* == 1 both give the loss -0.0.

An item whose target supervises no pixel (a box or tag canvas the
confidence gate emptied) skips the loss math after the shape checks and
gets all-zero losses and gradients, the bits the row path gives it: an
all-+0.0 item adds +0.0 to the batch total and divides to +0.0.

All math runs in float64; log arguments are clamped at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .annotations import PseudoCanvas, StrongLabel, reduce_last
from .errors import (
    IndexOutOfRange,
    MissingChildren,
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
Target = PseudoCanvas | StrongLabel


@dataclass(frozen=True)
class GroupIndex:
    """Padded membership tables of one group map over atom_count atoms.

    Column m of class_atoms (g, L) lists the atoms of group m in
    ascending order, column j of atom_classes (c, A) the classes covering
    atom j in ascending order; slots past the end of a list hold the
    table's column count (atom_count, resp. L), where the gather appends
    a zero column.
    """

    atom_count: int
    class_atoms: np.ndarray
    atom_classes: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.class_atoms.shape[1]


def softmax_atoms(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the trailing atom axis, max-shifted for
    stability. Softmax is invariant under per-pixel constant shifts."""
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NonFiniteInput("logits")
    shifted = logits - reduce_last(np.maximum, logits)[..., None]
    e = np.exp(shifted)
    return e / reduce_last(np.add, e)[..., None]


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
    return GroupIndex(atom_count=atom_count, class_atoms=_member_table(member),
                      atom_classes=_member_table(member.T))


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


def _dense_terms(target: StrongLabel, probs: np.ndarray, index: GroupIndex,
                 mask: np.ndarray):
    """Supervised rows' losses and the gradient raster of a StrongLabel
    with some supervised pixel: gathers only the target class's atoms, at
    the supervised rows only (see the module docstring). The class slot
    id - 1 is taken after the row gather, so void pixels are never indexed."""
    h, w, atoms = probs.shape
    flat = probs.reshape(-1, atoms)
    rows = np.flatnonzero(mask)
    members = index.class_atoms[:, target.class_ids.reshape(-1)[rows] - 1]  # (g, n)
    real = members < atoms
    at = np.where(real, members, 0)
    at += rows * atoms
    parts = np.take(flat, at)
    parts[~real] = 0.0
    s = parts[0]
    for row in parts[1:]:
        s += row
    np.maximum(s, LOG_EPS, out=s)
    grads = flat.copy()  # a row gather into zeros costs far more
    if rows.size < h * w:
        grads[~mask.reshape(-1)] = 0.0
    scale = np.divide(1.0, s)
    np.subtract(1.0, scale, out=scale)  # 1 - 1/s*, per supervised pixel
    at = at[real]
    grads.reshape(-1)[at] = np.broadcast_to(scale, real.shape)[real] * np.take(flat, at)
    return -np.log(s), grads.reshape(h, w, atoms)


def _pixel_terms(target: Target, probs: np.ndarray, index: GroupIndex):
    """Unscaled per-pixel losses and gradients, and the number of
    supervised pixels.

    With no supervised pixel, both are all +0.0 without the math: the
    full path zeroes every unsupervised pixel to the same bits."""
    num = target.num_classes
    probs = np.asarray(probs, dtype=np.float64)
    if index.num_classes != num:
        raise ShapeMismatch(f"{index.num_classes} groups for {num} class slots")
    if probs.ndim != 3 or probs.shape[:2] != (target.height, target.width):
        raise ShapeMismatch(
            f"distribution {probs.shape} vs target grid "
            f"({target.height}, {target.width})")
    _check_atom_axis(probs, index)
    mask = target.supervised_mask
    n = int(np.count_nonzero(mask))
    if n == 0:
        return np.zeros(mask.shape), np.zeros(probs.shape), 0
    if isinstance(target, StrongLabel):
        row_losses, grads = _dense_terms(target, probs, index, mask)
    else:  # a canvas: its rows, in row-major order
        p_rows = probs[mask]
        y = target.vectors[:, :num]
        s = _gather_sum(p_rows, index.class_atoms)
        np.maximum(s, LOG_EPS, out=s)
        terms = np.log(s)
        terms *= y
        row_losses = -reduce_last(np.add, terms)
        back = _gather_sum(np.divide(y, s, out=terms), index.atom_classes)
        np.subtract(reduce_last(np.add, y)[:, None], back, out=back)
        back *= p_rows
        grads = np.zeros(probs.shape)
        grads[mask] = back
    losses = np.zeros(mask.shape)
    losses[mask] = row_losses
    return losses, grads, n


def ce_loss_image(target: Target, probs: np.ndarray, index: GroupIndex) -> float:
    """Cross-entropy between target and accumulated class probabilities,
    averaged over supervised pixels."""
    losses, _, n = _pixel_terms(target, probs, index)
    if n == 0:
        raise NoSupervisedPixels()
    return float(losses.sum() / n)


def grad_logits(target: Target, probs: np.ndarray, index: GroupIndex) -> np.ndarray:
    """Exact gradient of ce_loss_image with respect to the atom logits."""
    _, grads, n = _pixel_terms(target, probs, index)
    if n == 0:
        raise NoSupervisedPixels()
    grads /= n
    return grads


def batch_loss(items: Sequence[tuple]) -> tuple[float, list[np.ndarray]]:
    """Mixed-batch loss with per-population normalizers.

    Each item is (target, atom distribution, GroupIndex, supervision
    kind), the target the StrongLabel itself for pixel labels and a
    PseudoCanvas for box and tag canvases. Pixel-supervised items share
    one normalizer (the total count of their supervised pixels across the
    batch), box/tag items share the other; the loss is the sum of both
    normalized populations. Returns the scalar loss and the per-item
    logit gradients of that scalar. A population that contributes no
    supervised pixels simply drops out; if both are empty the batch is
    rejected.

    An item with no supervised pixel skips the loss math and gets an
    all-+0.0 gradient, the bits the full path gives it; train_loop then
    skips its backward pass (see there why that is exact too). Each
    returned gradient is the item's own fresh array, divided in place.
    """
    per_item = []
    strong_count = 0
    weak_count = 0
    for target, probs, index, kind in items:
        if kind not in SUPERVISION_KINDS:
            raise ShapeMismatch(f"unknown supervision kind {kind!r}")
        losses, grads, n = _pixel_terms(target, probs, index)
        strong = kind in PIXEL_KINDS
        if strong:
            strong_count += n
        else:
            weak_count += n
        per_item.append((losses, grads, n, strong))
    if strong_count + weak_count == 0:
        raise NoSupervisedPixels()

    total = 0.0
    out_grads = []
    for losses, grads, n, strong in per_item:
        if n == 0:  # all +0.0, so adding or dividing would change no bit
            out_grads.append(grads)
            continue
        denom = strong_count if strong else weak_count
        total += losses.sum() / denom
        grads /= denom  # fresh per item, so dividing in place is safe
        out_grads.append(grads)
    return float(total), out_grads


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
    children = {}
    for p in sorted(part.p_set):
        kids = part.children_of(p)
        if not kids:
            raise MissingChildren(part.atom_name(p))
        children[p] = kids

    s_pos = part.s_local()
    atom_ids = np.asarray(ap_order, dtype=np.int64)[ap_probs.argmax(axis=2)]
    for p, kids in children.items():
        where = atom_ids == p
        if not where.any():
            continue
        cols = [s_pos[k] for k in kids]
        sub = s_probs[where][:, cols]
        atom_ids[where] = np.asarray(kids, dtype=np.int64)[sub.argmax(axis=1)]
    return atom_ids
