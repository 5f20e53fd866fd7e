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
train_loop feeds a step one run of chunks at a time: each call gets the
whole batch's two supervised-pixel counts and the loss of the parts
before it, and adds its items' terms to that float in item order, so the
parts give the bits of one call over the batch.

A target is either a PseudoCanvas (box and tag items: soft, gated and
held as their labeled rows) or a StrongLabel (pixel labels: one class id
per pixel, 0 = void). Both compute on supervised rows only. Row losses
go into an (H, W) +0.0 raster before any sum, so batch_loss's pairwise
sum sees a full-raster pass's array; the gathers, log and reduce_last act
per row, so their bits do not depend on the outer shape. A StrongLabel
gathers only the target class's atoms: with slot = id - 1, s* = sum_k
probs[class_atoms[k, slot]] in k order with padding read as +0.0, the
loss -log max(s*, 1e-12), the gradient probs * (1 - 1/s*) at the atoms
of G_slot and probs elsewhere, and +0.0 written at unsupervised pixels.
That keeps the bits of the canvas path on the one-hot canvas of the
same labels, also for overlapping groups: with y one-hot, every other
class's term there is an exact +-0.0 (log(s_m) * 0 in the loss, 0 / s_m
in the back-projection), the class sum of y is exactly 1, and adding a
signed zero to a nonzero sum, or multiplying by 1, changes no bit. At s* == 1 both give the loss -0.0.

A gradient is built already divided by its normalizer n, with the
operations per element of dividing the built raster: a StrongLabel's is
probs / n overwritten with +0.0 and (probs * (1 - 1/s*)) / n, a canvas's
back / n in its rows of a zero raster. An item whose target supervises
no pixel (a box or tag canvas the gate emptied) skips the loss math after
the shape checks: its losses are +0.0, adding +0.0 to a batch total, and
its gradient a read-only +0.0 view, the bits the row path gives it. Its
distribution may be such a view too (train_loop hands one): the checks
read only its shape, and it is never copied into a raster.

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
Target = PseudoCanvas | StrongLabel


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


def _dense_grad(probs, mask, at, real, parts, s, denom) -> np.ndarray:
    grads = np.empty(probs.size + 1)  # the last slot takes the padding entries' writes
    out = grads[:-1].reshape(probs.shape)
    np.divide(probs, denom, out=out)  # a row gather into zeros costs far more
    if s.size < mask.size:
        out[~mask] = 0.0
    scale = np.divide(1.0, s)
    np.subtract(1.0, scale, out=scale)  # 1 - 1/s*, per supervised pixel
    if real is not None:
        at[~real] = probs.size
    grads[at] = scale * parts / denom
    return out


def _canvas_grad(p_rows, rows, y, s, atom_classes, shape, denom) -> np.ndarray:
    back = _gather_sum(np.divide(y, s), atom_classes)
    np.subtract(reduce_last(np.add, y)[:, None], back, out=back)
    back *= p_rows
    grads = np.zeros(shape)
    grads.reshape(-1, shape[-1])[rows] = back / denom
    return grads


def _item_terms(target: Target, probs: np.ndarray, index: GroupIndex):
    """Checks one item; returns its (H, W) unscaled losses, its supervised
    pixel count and grad, where grad(denom) builds its gradient divided
    by denom."""
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
    if isinstance(target, StrongLabel):
        mask = target.supervised_mask  # a fresh comparison: taken once
        rows = np.flatnonzero(mask)
    else:  # a canvas: its rows, in row-major order
        rows = target.rows
    losses = np.zeros((h, w))
    if not rows.size:
        # read-only, with no raster behind it; built on request, since a view
        # held here would outlive the item's backward pass
        return losses, 0, lambda denom: np.broadcast_to(0.0, (h, w, atoms))
    probs = np.ascontiguousarray(probs, dtype=np.float64)  # reshapes below are views
    if isinstance(target, StrongLabel):  # slot id - 1 after the row gather: never void
        slots = target.class_ids.reshape(-1).take(rows) - 1
        at = index.class_atoms.take(slots, axis=1)  # (g, n); take: half the time of []
        real = None  # no padding slot to redirect: every entry names an atom
        if index.padded:
            real = at < atoms
            at = np.where(real, at, 0)
        at += rows * atoms
        parts = np.take(probs, at)
        if real is not None:
            parts[~real] = 0.0
        s = parts[0].copy()  # parts stays the gathered atoms, for the gradient
        for row in parts[1:]:
            s += row
        np.maximum(s, LOG_EPS, out=s)
        row_losses = -np.log(s)
        grad = partial(_dense_grad, probs, mask, at, real, parts, s)
    else:
        p_rows = probs.reshape(-1, atoms).take(rows, axis=0)
        y = target.vectors[:, :num]
        s = _gather_sum(p_rows, index.class_atoms)
        np.maximum(s, LOG_EPS, out=s)
        terms = np.log(s)
        terms *= y
        row_losses = -reduce_last(np.add, terms)
        grad = partial(_canvas_grad, p_rows, rows, y, s, index.atom_classes, probs.shape)
    losses.reshape(-1)[rows] = row_losses
    return losses, rows.size, grad


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
    kind), the target the StrongLabel itself for pixel labels and a
    PseudoCanvas for box and tag canvases. Pixel-supervised items share
    one normalizer (the total count of their supervised pixels across the
    batch), box/tag items share the other; the loss is the sum of both
    normalized populations. A population that contributes no supervised
    pixels simply drops out; if both are empty the batch is rejected.

    A batch may be fed in parts: counts gives the (box/tag, pixel)
    supervised-pixel counts of the whole batch, and total the loss of the
    parts before, to which each item's term is added in item order. So
    a batch fed item list by item list gets the bits of one call over all
    its items; without counts, the items are the whole batch.

    Returns the loss and an iterator over the per-item logit gradients
    of it, in item order, each built on request as a fresh array already
    divided (an item with no supervised pixel yields a read-only +0.0
    view). The iterator releases an item's distribution once it has
    yielded its gradient; the items list is left as it was.
    """
    pieces = []
    seen = [0, 0]  # supervised pixels of the box/tag and the pixel items
    for target, probs, index, kind in items:
        if kind not in SUPERVISION_KINDS:
            raise ShapeMismatch(f"unknown supervision kind {kind!r}")
        losses, n, grad = _item_terms(target, probs, index)
        strong = kind in PIXEL_KINDS
        seen[strong] += n
        pieces.append((losses.sum() if n else None, strong, grad))
    counts = seen if counts is None else counts
    if not any(counts):
        raise NoSupervisedPixels()

    for item_sum, strong, _ in pieces:
        if item_sum is not None:  # an item of all +0.0 would change no bit
            total += item_sum / counts[strong]
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
