"""Per-pixel classifier over atoms, its exact backward pass, and training.

The network is deliberately tiny: two 3x3 same-padding convolutions with
ReLU, then a 1x1 linear head producing one logit per output atom. All
parameters and activations are float64 and every pass is a fixed
sequence of numpy operations, so a training run is bitwise reproducible
for a given seed.

When an atom partition with weak-only subclasses is active, the head
emits logits for the a+p atoms followed by the s atoms; the two
segments are softmaxed separately.

Patch layout: _im2col writes the (H, W, C) input into a zero-bordered
(H+2, W+2, C) buffer and copies its 3x3 windows into one (H*W, 9*C)
array. The windows are one (H, W, dy, dx, C) view over the buffer with
strides (sy, sx, sy, sx, sc), built by the plain np.ndarray constructor
(about 1 us a call, against 7 us for as_strided) and only read. Row
y*W + x holds the patch centred on pixel (y, x), and column
(3*dy + dx)*C + c holds channel c at offset (dy - 1, dx - 1); this
matches the (3, 3, C, width) kernel reshaped to (9*C, width). Within one
window row the dx and C axes are adjacent in memory on both sides, so
the copy moves runs of 3*C elements.

Input gradient of conv 2: the plain form is one GEMM, dz @ W.T with W
the (9*C, width) kernel, then a scatter of each (dy, dx) column block
onto the bordered buffer. _conv_input_grad instead pads dz to rows of
W+2 pixels, the last two zero, and multiplies it by a contiguous
per-call copy of the nine (width, C) tap kernels, giving nine contiguous
(H*(W+2), C) planes. The bordered buffer is kept flat, (H+3) rows of
W+2 pixels, so tap (dy, dx) lands with one contiguous add at offset
(dy*(W+2) + dx)*C, in the plain form's (dy, dx) order: plane pixel
(y, x) goes to buffer pixel (y+dy, x+dx), and a real pixel (x < W)
never wraps past its row. Every real element is still one dot product
over width, which OpenBLAS sums in the same order for these products as
for the plain one, so each cell adds the same values in the same order.
The pad pixels add only +-0.0 terms, some wrapped into the next row or
the extra last row, and these change no bit: x + (+-0.0) is x unless x
is -0.0, and a running sum started at +0.0 never is -0.0 (IEEE addition
gives -0.0 only for -0.0 + -0.0). So the gradient keeps the plain form's
bits; the tests check this against the slice-by-slice oracle at widths
1 to 16. A one-pixel image gets only the centre tap, and there numpy
takes a vector-matrix path that sums a C-ordered kernel in another order
than the plain form's transposed one; so that case multiplies by the
transposed view kernel[1, 1].T, as the plain form does, and adds the
product to +0.0, as the buffer does. (With OpenBLAS 0.3.31 on Haswell
this holds at widths up to 16, and at multiples of 8 from 24 to 64 on
images of over 4 pixels. At other widths above 16 the plain GEMM can
differ in the last bit, and at widths 1 to 3 past a multiple of 8 a
row's sums depend on its place in the GEMM's row blocks, so padded rows
can give other bits than H*W unpadded rows: on images under 64 pixels,
and at widths 49 and 50 also at 20x20.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import formats
from .annotations import (
    gate_canvas,
    reduce_last,
    refine_canvas,
    strong_to_canvas,
    weak_canvas,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NonFiniteLoss,
    ShapeMismatch,
    StaleCache,
    UnsatisfiableQuota,
)
from .lossgrad import (
    GroupIndex,
    accumulate_groups,
    batch_loss,
    group_index,
    merge_subclass_predictions,
    softmax_atoms,
)
from .metrics import ConfusionMatrix
from .taxonomy import (
    PIXEL_KINDS,
    AtomPartition,
    DatasetGroups,
    LabelSpace,
    RelationTable,
    Taxonomy,
    build_group_sets,
    dataset_heads,
)

INIT_SCALE = 0.05


@dataclass
class MicroNetArrays:
    """The six weight-shaped arrays of the network, in checkpoint order."""

    w1: np.ndarray  # (3, 3, in_ch, width)
    b1: np.ndarray  # (width,)
    w2: np.ndarray  # (3, 3, width, width)
    b2: np.ndarray  # (width,)
    wh: np.ndarray  # (width, out_ch)
    bh: np.ndarray  # (out_ch,)

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.wh, self.bh]


@dataclass
class MicroNetParams(MicroNetArrays):
    """Weights of the two-conv-plus-head network.

    version counts in-place updates; forward caches remember the version
    they saw so a backward pass against mutated weights is rejected.
    """

    version: int = 0

    @property
    def in_channels(self) -> int:
        return self.w1.shape[2]

    @property
    def width(self) -> int:
        return self.w1.shape[3]

    @property
    def out_channels(self) -> int:
        return self.wh.shape[1]


@dataclass
class MicroNetGrads(MicroNetArrays):
    """Gradients (or momentum velocities) shaped like the weights."""

    @classmethod
    def zeros_like(cls, params: MicroNetParams) -> "MicroNetGrads":
        return cls(*(np.zeros_like(a) for a in params.arrays()))

    def iadd(self, other: "MicroNetGrads") -> None:
        for mine, theirs in zip(self.arrays(), other.arrays()):
            mine += theirs


def init_micronet(in_channels: int, width: int, out_channels: int,
                  seed: int) -> MicroNetParams:
    """Seeded uniform init in [-0.05, 0.05], drawn in a fixed order."""
    if min(in_channels, width, out_channels) < 1:
        raise ConfigError("network dimensions must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(*shape):
        return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)

    return MicroNetParams(
        w1=draw(3, 3, in_channels, width), b1=draw(width),
        w2=draw(3, 3, width, width), b2=draw(width),
        wh=draw(width, out_channels), bh=draw(out_channels))


def _im2col(x: np.ndarray) -> np.ndarray:
    """(H, W, C) -> (H*W, 9*C) patches for a 3x3 same-padding conv."""
    h, w, c = x.shape
    padded = np.zeros((h + 2, w + 2, c), dtype=np.float64)
    padded[1:-1, 1:-1, :] = x
    sy, sx, sc = padded.strides
    windows = np.ndarray((h, w, 3, 3, c), np.float64, padded, 0, (sy, sx, sy, sx, sc))
    cols = np.empty((h, w, 3, 3, c), dtype=np.float64)
    cols[...] = windows
    return cols.reshape(h * w, 9 * c)


def _conv_input_grad(dz: np.ndarray, kernel: np.ndarray, h: int, w: int) -> np.ndarray:
    """Gradient w.r.t. the (H, W, C) input of a 3x3 same-padding conv,
    given dz = d(loss)/d(output) as (H*W, width) and kernel (3, 3, C, width).

    Used for conv 2, where C == width. With C == 1 each tap's product
    would be a matrix-vector one, which BLAS sums in another order; a
    one-pixel image keeps the vector-matrix product of the plain form."""
    c, width = kernel.shape[2], kernel.shape[3]
    if h * w == 1:
        return (0.0 + dz @ kernel[1, 1].T).reshape(1, 1, c)
    tap_kernels = np.ascontiguousarray(kernel.reshape(9, c, width).transpose(0, 2, 1))
    row = w + 2
    dz_rows = np.zeros((h, row, width), dtype=np.float64)
    dz_rows[:, :w, :] = dz.reshape(h, w, width)
    taps = np.matmul(dz_rows.reshape(h * row, width), tap_kernels).reshape(9, -1)
    dflat = np.zeros((h + 3) * row * c, dtype=np.float64)
    for t in range(9):
        dy, dx = divmod(t, 3)
        start = (dy * row + dx) * c
        dflat[start:start + taps.shape[1]] += taps[t]
    return dflat.reshape(h + 3, row, c)[1:h + 1, 1:w + 1, :]


@dataclass
class ForwardCache:
    params: MicroNetParams
    version: int
    shape: tuple[int, int]
    cols1: np.ndarray
    a1: np.ndarray  # ReLU outputs: a > 0 equals z > 0, NaN included
    cols2: np.ndarray
    a2: np.ndarray


def forward(params: MicroNetParams, image: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Logit raster (H, W, out_channels) plus the cache for backward."""
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != params.in_channels:
        raise ShapeMismatch(
            f"image {x.shape} vs network expecting (H, W, {params.in_channels})")
    h, w, _ = x.shape
    cols1 = _im2col(x)
    a1 = (cols1 @ params.w1.reshape(-1, params.width)).reshape(h, w, params.width)
    a1 += params.b1  # in place on the fresh product: same sums, no temporary
    np.maximum(a1, 0.0, out=a1)
    cols2 = _im2col(a1)
    a2 = (cols2 @ params.w2.reshape(-1, params.width)).reshape(h, w, params.width)
    a2 += params.b2
    np.maximum(a2, 0.0, out=a2)
    logits = a2 @ params.wh
    logits += params.bh
    cache = ForwardCache(params=params, version=params.version, shape=(h, w),
                         cols1=cols1, a1=a1, cols2=cols2, a2=a2)
    return logits, cache


def backward(cache: ForwardCache, upstream: np.ndarray) -> MicroNetGrads:
    """Exact parameter gradients for an upstream d(loss)/d(logits)."""
    params = cache.params
    if params.version != cache.version:
        raise StaleCache()
    h, w = cache.shape
    if upstream.shape != (h, w, params.out_channels):
        raise ShapeMismatch(
            f"upstream {upstream.shape} vs logits ({h}, {w}, {params.out_channels})")
    up = np.asarray(upstream, dtype=np.float64).reshape(-1, params.out_channels)
    a2 = cache.a2.reshape(-1, params.width)

    dwh = a2.T @ up
    dbh = up.sum(axis=0)
    dz2 = up @ params.wh.T
    dz2 *= a2 > 0.0  # the ReLU mask, in place on the fresh d(loss)/d(a2)

    dw2 = (cache.cols2.T @ dz2).reshape(params.w2.shape)
    db2 = dz2.sum(axis=0)
    da1 = _conv_input_grad(dz2, params.w2, h, w)
    dz1 = (da1 * (cache.a1 > 0.0)).reshape(-1, params.width)

    dw1 = (cache.cols1.T @ dz1).reshape(params.w1.shape)
    db1 = dz1.sum(axis=0)
    return MicroNetGrads(w1=dw1, b1=db1, w2=dw2, b2=db2, wh=dwh, bh=dbh)


@dataclass
class OptimizerState:
    """Classic momentum SGD: v <- momentum * v + g; p <- p - lr * v."""

    learning_rate: float
    momentum: float = 0.0
    velocity: MicroNetGrads | None = None

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")


def sgd_step(params: MicroNetParams, grads: MicroNetGrads,
             state: OptimizerState) -> None:
    if state.velocity is None:
        state.velocity = MicroNetGrads.zeros_like(params)
    for p, g, v in zip(params.arrays(), grads.arrays(), state.velocity.arrays()):
        v *= state.momentum
        v += g
        p -= state.learning_rate * v
    params.version += 1


def save_checkpoint(path, params: MicroNetParams) -> None:
    formats.write_array_file(path, params.arrays())


def load_checkpoint(path) -> MicroNetParams:
    arrays = formats.read_array_file(path)
    if len(arrays) != 6:
        raise FormatError(path, f"checkpoint holds {len(arrays)} arrays, expected 6")
    params = MicroNetParams(*arrays)
    if params.w1.shape[:2] != (3, 3) or params.w2.shape[:2] != (3, 3):
        raise FormatError(path, "checkpoint kernel shapes are not 3x3")
    if (params.w1.shape[3] != params.width or params.w2.shape[2] != params.width
            or params.wh.shape[0] != params.width):
        raise FormatError(path, "checkpoint widths are inconsistent")
    return params


@dataclass(frozen=True)
class BatchPlan:
    """Per-dataset image quotas per step plus the run seed."""

    quotas: dict[str, int]
    seed: int

    def __post_init__(self):
        if not self.quotas:
            raise ConfigError("batch plan needs at least one dataset quota")
        for ds, q in self.quotas.items():
            if q < 1:
                raise ConfigError(f"quota for {ds!r} must be >= 1, got {q}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def derive_train_seeds(seed: int) -> tuple[int, int]:
    """Split the run seed into (init_seed, sampler_seed)."""
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


class BatchSampler:
    """Seeded shuffled cyclic draws of image indices, one stream per dataset.

    Each pass over a dataset is a fresh permutation; a tail shorter than
    the quota is discarded so one draw never repeats an index.
    """

    def __init__(self, quotas: dict[str, int], sizes: dict[str, int], seed: int):
        self.ids = sorted(quotas)
        for ds in self.ids:
            if ds not in sizes:
                raise UnsatisfiableQuota(f"dataset {ds!r} not among loaded datasets")
            if quotas[ds] > sizes[ds]:
                raise UnsatisfiableQuota(
                    f"quota {quotas[ds]} exceeds the {sizes[ds]} images of {ds!r}")
        self.quotas = dict(quotas)
        self.sizes = dict(sizes)
        children = np.random.SeedSequence(seed).spawn(len(self.ids))
        self._rngs = {ds: np.random.Generator(np.random.PCG64(child))
                      for ds, child in zip(self.ids, children)}
        self._perms = {ds: self._rngs[ds].permutation(self.sizes[ds])
                       for ds in self.ids}
        self._pos = {ds: 0 for ds in self.ids}

    @property
    def steps_per_epoch(self) -> int:
        return max(math.ceil(self.sizes[ds] / self.quotas[ds]) for ds in self.ids)

    def next_batch(self) -> dict[str, list[int]]:
        picks = {}
        for ds in self.ids:
            q = self.quotas[ds]
            if self._pos[ds] + q > self.sizes[ds]:
                self._perms[ds] = self._rngs[ds].permutation(self.sizes[ds])
                self._pos[ds] = 0
            start = self._pos[ds]
            picks[ds] = [int(i) for i in self._perms[ds][start:start + q]]
            self._pos[ds] = start + q
        return picks


@dataclass
class LoadedDataset:
    """One dataset held in memory for training or evaluation."""

    space: LabelSpace
    images: list[np.ndarray]
    labels: list  # StrongLabel (its own loss target) or WeakLabel, parallel to images

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError(
                f"dataset {self.space.dataset_id!r}: {len(self.images)} images "
                f"vs {len(self.labels)} labels")
        if not self.images:
            raise DataError(f"dataset {self.space.dataset_id!r} is empty")

    @property
    def dataset_id(self) -> str:
        return self.space.dataset_id

    @property
    def supervision(self) -> str:
        return self.space.supervision


def _dataset_predictions(ap_probs: np.ndarray, groups: GroupIndex) -> np.ndarray:
    """Prediction over one dataset's classes, per pixel or row: atom mass
    accumulated and renormalized to a proper distribution over that label
    space. Pixels whose covered mass vanishes get all-zero confidence."""
    s = accumulate_groups(ap_probs, groups)
    total = reduce_last(np.add, s)[..., None]
    out = np.zeros_like(s)
    np.divide(s, total, out=out, where=total > 1e-12)
    return out


@dataclass
class TrainResult:
    params: MicroNetParams
    losses: list[float]
    steps_per_epoch: int


def train_loop(datasets: Sequence[LoadedDataset], taxonomy: Taxonomy,
               partition: AtomPartition | None, plan: BatchPlan,
               optimizer: OptimizerState, epochs: int, refine_threshold: float,
               feature_width: int = 8) -> TrainResult:
    """Deterministic joint training over heterogeneous datasets.

    Every step draws each dataset's quota of images, runs the forward
    pass, takes each label's target (a pixel label is its own target,
    checked by one strong_to_canvas call per item; box and tag labels
    become canvases refined against the current predictions), applies the
    mixed-batch loss, backpropagates and takes one momentum-SGD step.
    An epoch is the number of steps the largest dataset needs for a full
    pass. The plan must draw at least
    one pixel-supervised dataset: box/tag canvases are gated against the
    net's own predictions, which only pixel labels anchor.

    An item whose logit gradient has no nonzero entry (a weak canvas the
    gate emptied) skips its backward pass; batch_loss already skipped
    its loss math. This keeps every bit: a zero upstream gives parameter
    gradients of +0.0 and -0.0 only, the running total starts at +0.0
    and so never holds -0.0 (IEEE addition gives -0.0 only for
    -0.0 + -0.0), and x + (+-0.0) is x. With one head (no s atoms) an
    item's gradient is its upstream as is, not copied into a zero raster.

    A box or tag item computes only on its voted rows, the pixels its raw
    canvas labels: the softmax, dataset predictions and gate run there, its
    head raster is +0.0 elsewhere, and an unvoted item skips the softmax,
    its raw canvas being its target. Same bits: softmax_atoms and reduce_last
    treat each row alike, the gate is per pixel, and batch_loss zeroes every
    unsupervised pixel. The logits stay full: the head GEMM's row count can
    change BLAS sums.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if not 0.0 <= refine_threshold <= 1.0:
        raise ConfigError(f"refine threshold must lie in [0, 1], got {refine_threshold}")
    part = partition if partition is not None else AtomPartition.trivial(taxonomy)
    by_id = {ds.dataset_id: ds for ds in datasets}
    if len(by_id) != len(datasets):
        raise DataError("duplicate dataset ids among loaded datasets")
    heads: dict[str, DatasetGroups] = {
        ds.dataset_id: dataset_heads(taxonomy, part, ds.space) for ds in datasets}

    n_ap = len(part.ap_atoms)
    n_s = len(part.s_atoms)
    in_ch = datasets[0].images[0].shape[2]
    init_seed, sample_seed = derive_train_seeds(plan.seed)
    params = init_micronet(in_ch, feature_width, n_ap + n_s, init_seed)
    sampler = BatchSampler(plan.quotas, {d: len(by_id[d].images) for d in by_id},
                           sample_seed)
    if not any(by_id[ds_id].supervision in PIXEL_KINDS for ds_id in sampler.ids):
        raise ConfigError("batch plan draws only box/tag datasets; "
                          "give a pixel-supervised dataset a quota")
    indexes = {ds_id: group_index(heads[ds_id].loss_groups,
                                  n_ap if heads[ds_id].head == "ap" else n_s)
               for ds_id in sampler.ids}

    losses: list[float] = []
    total_steps = epochs * sampler.steps_per_epoch
    for step in range(total_steps):
        picks = sampler.next_batch()
        items = []
        routes = []
        for ds_id in sampler.ids:
            ds = by_id[ds_id]
            dg = heads[ds_id]
            index = indexes[ds_id]
            num = ds.space.num_classes
            for idx in picks[ds_id]:
                logits, cache = forward(params, ds.images[idx])
                if ds.supervision in PIXEL_KINDS:
                    target = strong_to_canvas(ds.labels[idx], num)
                    head_probs = softmax_atoms(logits[:, :, :n_ap])
                else:
                    h, w = logits.shape[:2]
                    target = weak_canvas(ds.labels[idx], ds.supervision, h, w, num)
                    rows = target.voted_rows
                    head_probs = np.zeros((h, w, n_ap if dg.head == "ap" else n_s))
                    if rows.size:  # else the raw canvas is all unlabeled already
                        # voted everywhere (any tag canvas): no row gather or scatter
                        every = rows.size == h * w
                        voted = logits.reshape(h * w, -1)
                        voted = voted if every else voted.take(rows, axis=0)
                        ap_rows = softmax_atoms(voted[:, :n_ap])
                        if dg.head == "s":  # subclass votes kept, localization gated
                            parents = np.asarray(dg.parent_slots, dtype=np.int64)
                            target = gate_canvas(target, ap_rows, parents[target.voted_argmax],
                                                 refine_threshold)
                            head_rows = softmax_atoms(voted[:, n_ap:])
                        else:
                            predicted = _dataset_predictions(ap_rows, index)
                            target = refine_canvas(target, predicted, refine_threshold)
                            head_rows = ap_rows
                        head_probs.reshape(h * w, -1)[slice(None) if every else rows] = head_rows
                items.append((target, head_probs, index, ds.supervision))
                routes.append((cache, dg.head))
        loss, grads = batch_loss(items)
        if not np.isfinite(loss):
            raise NonFiniteLoss(step)
        total = MicroNetGrads.zeros_like(params)
        for (cache, head), g in zip(routes, grads):
            if not g.any():
                continue
            upstream = g  # one head: the gradient is the whole upstream
            if n_s:
                upstream = np.zeros(g.shape[:2] + (n_ap + n_s,))
                if head == "ap":
                    upstream[:, :, :n_ap] = g
                else:
                    upstream[:, :, n_ap:] = g
            total.iadd(backward(cache, upstream))
        sgd_step(params, total, optimizer)
        losses.append(loss)

    return TrainResult(params=params, losses=losses,
                       steps_per_epoch=sampler.steps_per_epoch)


def predict_atoms(params: MicroNetParams, image: np.ndarray,
                  part: AtomPartition) -> np.ndarray:
    """Per-pixel atom index (1-based, into part.atoms) for one image: the
    a+p and s heads are softmaxed separately, then merged. Raises
    DataError when the net's output width is not the a+p plus s atom
    count."""
    n_ap = len(part.ap_atoms)
    if params.out_channels != n_ap + len(part.s_atoms):
        raise DataError(
            f"net predicts {params.out_channels} atoms but the partition "
            f"needs {n_ap + len(part.s_atoms)}")
    logits, _ = forward(params, image)
    ap_probs = softmax_atoms(logits[:, :, :n_ap])
    s_probs = (softmax_atoms(logits[:, :, n_ap:]) if part.s_atoms
               else np.zeros(logits.shape[:2] + (0,)))
    return merge_subclass_predictions(ap_probs, s_probs, part)


def evaluate(params: MicroNetParams, part: AtomPartition, dataset: LoadedDataset,
             relations: RelationTable) -> ConfusionMatrix:
    """Confusion counts of a pixel-supervised dataset against the
    predicted atoms, each mapped to the class of the dataset that covers
    it (void when none does).

    Coverage is the taxonomy's: build_group_sets over the partition's
    atoms. Raises UncoveredClass when a class covers no atom, and
    DataError when two classes cover one atom or when the net's output
    width does not fit the partition (checked by predict_atoms).
    """
    space = dataset.space
    if space.supervision not in PIXEL_KINDS:
        raise DataError(
            f"evaluation dataset {space.dataset_id!r} must be pixel-supervised")
    groups = build_group_sets(part.atoms, [space], relations).groups_for(space)
    lut = np.zeros(part.atom_count + 1, dtype=np.int64)
    for m, group in enumerate(groups[1:], start=1):
        for a in sorted(group):
            if lut[a]:
                raise DataError(
                    f"evaluation space {space.dataset_id!r} maps atom "
                    f"{part.atom_name(a)!r} to two classes")
            lut[a] = m
    cm = ConfusionMatrix(space.num_classes)
    for image, label in zip(dataset.images, dataset.labels):
        cm.add(label.class_ids, lut[predict_atoms(params, image, part)])
    return cm
