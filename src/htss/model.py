"""Per-pixel classifier over atoms, its exact backward pass, and training.

The network is deliberately tiny: two 3x3 same-padding convolutions with
ReLU, then a 1x1 linear head producing one logit per output atom. All
parameters and activations are float64 and every pass is a fixed
sequence of numpy operations, so a training run is bitwise reproducible
for a given seed and BLAS thread count (OpenBLAS sums some GEMMs in
another order on one thread than on two).

When an atom partition with weak-only subclasses is active, the head
emits logits for the a+p atoms followed by the s atoms; the two
segments are softmaxed separately.

forward and backward take a chunk of n same-size images stacked row-wise
into one (n*H, W, C) image. For n > 1 the arrays below lead with an image
axis; a stacked np.matmul calls BLAS once per image and tap, so a chunk
saves numpy calls only and each image gets the bits it gets alone.
Training sizes a chunk by what it holds from forward to backward (the
conv-1 patches, both ReLU outputs, the logit and probability rasters),
which must fit L2_BYTES, a core's L2 cache.

Conv 1 runs on a patch matrix: _im2col copies the 3x3 windows of the
zero-bordered (H+2, W+2, C) input into an (H*W, 9*C) array, in runs of
3*C elements. The windows are one read-only (H, W, dy, dx, C) view made
by the np.ndarray constructor (1 us a call; as_strided takes 7 us). Row
y*W + x holds the patch centred on pixel (y, x), column (3*dy + dx)*C + c
channel c at offset (dy - 1, dx - 1): the kernel reshaped to (9*C, width).

Conv 2 has no patch matrix; it works on bordered rows. forward writes a1
into a flat zero buffer of (H+3) rows of W+2 pixels, pixel (y, x) at row
y+1, column x+1. Output position p = y*(W+2) + x reads tap (dy, dx) at
buffer pixel p + dy*(W+2) + dx, so _tap_view gives the nine tap inputs
as one read-only (3, 3, [n,] H*(W+2), C) view, with pad outputs at x = W, W+1.
forward sums the nine tap products (input times (C, width) kernel) in
(dy, dx) order, by np.add.reduce or from tap 0 + 0.0, as np.add.reduce
starts from +0.0. dW2 is the transposed view times dz padded to rows of
W+2 pixels, the last two zero (_pad_rows). _conv_input_grad adds each
product of that dz by a transposed tap kernel into a flat bordered
buffer at pixel offset dy*(W+2) + dx, in (dy, dx) order: plane pixel
(y, x) lands on buffer pixel (y+dy, x+dx), and a real pixel (x < W)
never wraps past its row. _tap_products makes the nine in one batched
matmul while their (9, [n,] H*(W+2), width) stack fits TAP_STACK_BYTES,
half of L2_BYTES, else tap by tap into one buffer: the same BLAS call per
image and tap, so the same bits. A larger stack outgrows the L2 cache, and
the adds read it back from memory (see README for timings). Pad pixels add
only +-0.0 terms, which change no bit: x + (+-0.0) is x unless x is
-0.0, and a sum started at +0.0 never is -0.0 (IEEE addition gives -0.0
only for -0.0 + -0.0). BLAS sums each element in an order that can
depend on the GEMM's shape; tests/test_model.py pins forward and
backward to the per-tap oracles of tests/oracles.py byte for byte at the
workload shapes and, with OpenBLAS 0.3.31, in the (width, image size)
cells its tables list, and bounds every other cell to a few ulp.
"""

from __future__ import annotations

import ctypes  # numpy imports it already, so this costs no start-up time
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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
L2_BYTES = 2 << 20  # a core's L2 cache (see README): a pixel chunk's arrays fit it
TAP_STACK_BYTES = L2_BYTES // 2  # largest batched conv-2 tap stack (see the module docstring)

# glibc mallopt parameters and the values train_loop and evaluate set. A
# step's (H, W, atoms) rasters and conv-2 tap arrays lie above glibc's default
# 128 KiB mmap threshold, so glibc maps each afresh and unmaps it on free (or
# trims the freed heap top), and the next step faults the pages in again.
# 32 MiB is the largest mmap threshold glibc accepts; the trim threshold keeps freed heap.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 1 << 30


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
            for image in theirs if theirs.ndim > mine.ndim else (theirs,):  # a chunk's
                mine += image


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
    """(..., H, W, C) -> (..., H*W, 9*C) patches of each image for a 3x3 same-padding conv."""
    *lead, h, w, c = x.shape
    padded = np.zeros((*lead, h + 2, w + 2, c), dtype=np.float64)
    padded[..., 1:-1, 1:-1, :] = x
    *so, sy, sx, sc = padded.strides
    windows = np.ndarray((*lead, h, w, 3, 3, c), np.float64, padded, 0, (*so, sy, sx, sy, sx, sc))
    cols = np.empty(windows.shape, dtype=np.float64)
    cols[...] = windows
    return cols.reshape(*lead, h * w, 9 * c)


def _pad_rows(x: np.ndarray, h: int, w: int) -> np.ndarray:
    """(..., H*W, C) -> (..., H*(W+2), C): each row of W pixels followed by two zero ones."""
    lead = x.shape[:-2]
    rows = np.zeros((*lead, h, w + 2, x.shape[-1]), dtype=np.float64)
    rows[..., :w, :] = x.reshape(*lead, h, w, -1)
    return rows.reshape(*lead, h * (w + 2), -1)


def _tap_view(bordered: np.ndarray, h: int, w: int) -> np.ndarray:
    """Read-only (3, 3, ..., H*(W+2), C) view of flat ((H+3)*(W+2), C) bordered
    buffers: [dy, dx, ..., p] is the pixel p + dy*(W+2) + dx of its buffer."""
    *lead, s1, s2 = bordered.strides
    return np.ndarray((3, 3, *bordered.shape[:-2], h * (w + 2), bordered.shape[-1]), np.float64,
                      bordered, 0, ((w + 2) * s1, s1, *lead, s1, s2))


def _tap_products(a: np.ndarray, b: np.ndarray, lead: tuple) -> np.ndarray | Iterator[np.ndarray]:
    """The nine (*lead, P, N) products a[dy, dx] @ b[dy, dx] in (dy, dx) order (a (*lead, P, K)
    a serves all nine): a (9, *lead, P, N) stack, or an iterator into one reused buffer."""
    p, n = a.shape[-2], b.shape[-1]
    b = b.reshape(3, 3, 1, -1, n) if lead else b  # b[dy, dx] serves every image
    if 9 * math.prod(lead) * p * n * 8 <= TAP_STACK_BYTES:
        return np.matmul(a, b).reshape(9, *lead, p, n)
    buf = np.empty((*lead, p, n), dtype=np.float64)
    return (np.matmul(a[dy, dx] if a.ndim > len(lead) + 2 else a, b[dy, dx], out=buf)
            for dy in range(3) for dx in range(3))


@functools.cache
def _tap_rows(h: int, w: int, n_lead: int) -> list[tuple]:
    """Each tap's H*(W+2) rows of a flat bordered buffer, from pixel dy*(W+2) + dx."""
    return [(slice(None),) * n_lead + (slice(start, start + h * (w + 2)),)
            for start in (dy * (w + 2) + dx for dy in range(3) for dx in range(3))]


def _conv_input_grad(dz: np.ndarray, kernel: np.ndarray, h: int, w: int) -> np.ndarray:
    """Gradient w.r.t. the (..., H, W, C) input of conv 2 (C == width), given
    dz = d(loss)/d(output) as _pad_rows gives it and kernel (3, 3, C, width).

    A one-pixel image takes only the centre tap, as kernel[1, 1].T (numpy's
    vector-matrix path sums a C-ordered kernel in another order), added to
    +0.0 as the buffer would be."""
    c = kernel.shape[2]
    lead = dz.shape[:-2]
    if h * w == 1:
        return (0.0 + dz[..., :1, :] @ kernel[1, 1].T).reshape(*lead, 1, 1, c)
    dflat = np.zeros((*lead, (h + 3) * (w + 2), c), dtype=np.float64)
    taps = _tap_products(dz, np.ascontiguousarray(kernel.transpose(0, 1, 3, 2)), lead)
    for rows, tap in zip(_tap_rows(h, w, len(lead)), taps):
        dflat[rows] += tap
    return dflat.reshape(*lead, h + 3, w + 2, c)[..., 1:h + 1, 1:w + 1, :]


@dataclass
class ForwardCache:
    params: MicroNetParams
    version: int
    shape: tuple[int, int]  # (count*H, W)
    count: int  # images; for count > 1 the arrays lead with an image axis
    cols1: np.ndarray
    a1: np.ndarray  # ReLU outputs, bordered flat: a > 0 equals z > 0, NaN included
    a2: np.ndarray


def forward(params: MicroNetParams, image: np.ndarray,
            count: int = 1) -> tuple[np.ndarray, ForwardCache]:
    """Logit raster (count*H, W, out_channels) of a chunk plus the cache for backward.

    The image may hold any real dtype (the loaded ones are float32): the
    first im2col copy, into its float64 buffer, widens it exactly."""
    x = np.asarray(image)
    if x.ndim != 3 or x.shape[2] != params.in_channels or count < 1 or x.shape[0] % count:
        raise ShapeMismatch(f"image {x.shape} vs network expecting {count} stacked "
                            f"(H, W, {params.in_channels})")
    h, w = x.shape[0] // count, x.shape[1]
    lead = (count,) if count > 1 else ()
    cols1 = _im2col(x.reshape(count, h, w, -1) if lead else x)
    z1 = cols1 @ params.w1.reshape(-1, params.width)
    z1 += params.b1  # in place on the fresh product: same sums, no temporary
    np.maximum(z1, 0.0, out=z1)
    a1 = np.zeros((*lead, (h + 3) * (w + 2), params.width), dtype=np.float64)
    a1.reshape(*lead, h + 3, w + 2, -1)[..., 1:h + 1, 1:w + 1, :] = z1.reshape(*lead, h, w, -1)
    taps = _tap_products(_tap_view(a1, h, w), params.w2, lead)
    if isinstance(taps, np.ndarray):  # one reduce call: cheaper on small images
        z2 = np.add.reduce(taps, axis=0)
    else:  # from +0.0, as np.add.reduce starts
        z2 = next(taps) + 0.0
        for tap in taps:
            z2 += tap
    z2 += params.b2
    a2 = np.maximum(z2.reshape(*lead, h, w + 2, -1)[..., :w, :], 0.0)
    logits = a2 @ params.wh
    logits += params.bh
    cache = ForwardCache(params=params, version=params.version, shape=(count * h, w),
                         count=count, cols1=cols1, a1=a1, a2=a2)
    return (logits.reshape(count * h, w, -1) if lead else logits), cache


def _column_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-2) bit for bit, faster: einsum adds rows in order as sum does on 2+ columns."""
    return np.einsum("...ij->...j", x) if x.shape[-1] > 1 else x.sum(axis=-2)


def backward(cache: ForwardCache, upstream: np.ndarray) -> MicroNetGrads:
    """Exact parameter gradients for an upstream d(loss)/d(logits), per image of a chunk."""
    params = cache.params
    if params.version != cache.version:
        raise StaleCache()
    n = cache.count
    h, w = cache.shape[0] // n, cache.shape[1]
    if upstream.shape != (n * h, w, params.out_channels):
        raise ShapeMismatch(
            f"upstream {upstream.shape} vs logits ({n * h}, {w}, {params.out_channels})")
    lead = (n,) if n > 1 else ()
    up = np.asarray(upstream, dtype=np.float64).reshape(*lead, h * w, params.out_channels)
    a2 = cache.a2.reshape(*lead, h * w, params.width)

    dwh = a2.swapaxes(-1, -2) @ up
    dbh = _column_sums(up)
    dz2 = up @ params.wh.T
    dz2 *= a2 > 0.0  # the ReLU mask, in place on the fresh d(loss)/d(a2)

    dz_rows = _pad_rows(dz2, h, w)
    dw2 = np.matmul(_tap_view(cache.a1, h, w).swapaxes(-1, -2), dz_rows)
    db2 = _column_sums(dz2)
    da1 = _conv_input_grad(dz_rows, params.w2, h, w)
    a1 = cache.a1.reshape(*lead, h + 3, w + 2, params.width)[..., 1:h + 1, 1:w + 1, :]
    dz1 = (da1 * (a1 > 0.0)).reshape(*lead, h * w, params.width)

    dw1 = (cache.cols1.swapaxes(-1, -2) @ dz1).reshape(*lead, *params.w1.shape)
    db1 = _column_sums(dz1)
    return MicroNetGrads(w1=dw1, b1=db1, w2=dw2.transpose(2, 0, 1, 3, 4) if lead else dw2,
                         b2=db2, wh=dwh, bh=dbh)


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
    if not all(np.isfinite(a).all() for a in arrays):
        raise FormatError(path, "checkpoint holds NaN or infinite values")
    dims = arrays[0].shape[2:] + arrays[4].shape[1:]  # (C, W, O) at the right ranks
    c, width, out = dims if len(dims) == 3 else (0, 0, 0)  # a wrong rank fails below
    want = [(3, 3, c, width), (width,), (3, 3, width, width), (width,), (width, out), (out,)]
    if [a.shape for a in arrays] != want:
        raise FormatError(path, f"checkpoint array shapes {[a.shape for a in arrays]} are not "
                                "(3, 3, C, W) (W,) (3, 3, W, W) (W,) (W, O) (O,)")
    return MicroNetParams(*arrays)


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
    images: list[np.ndarray]  # (H, W, C) as on disk (float32 from gen); forward widens
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


def _keep_freed_heap() -> None:
    """Make glibc keep freed memory in the process (see M_MMAP_THRESHOLD);
    a C library without mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def _image_bytes(shape: tuple[int, int], width: int, atoms: int) -> int:
    """An image's conv-2 tap stack plus its logit raster, 8*H*(9*(W+2)*width + W*atoms) bytes."""
    return 8 * shape[0] * (9 * (shape[1] + 2) * width + shape[1] * atoms)


def _chunk_bytes(shape: tuple[int, int], in_ch: int, width: int, atoms: int) -> int:
    """The bytes a pixel image holds in its chunk from forward to backward: the
    conv-1 patches, the two ReLU outputs as the cache keeps them, the logit and
    the probability raster, 8*(H*W*(9*in_ch + width + 2*atoms) + (H+3)*(W+2)*width)."""
    h, w = shape
    return 8 * (h * w * (9 * in_ch + width + 2 * atoms) + (h + 3) * (w + 2) * width)


def _plan_chunks(shapes: Sequence[tuple[int, int] | None], in_ch: int, width: int,
                 atoms: int) -> list[list[int]]:
    """Item positions of a step's chunks. shapes[i] is pixel item i's (H, W),
    None for a box or tag item, a chunk alone. Consecutive pixel items of one
    size join a chunk while their _chunk_bytes fit L2_BYTES, so what a chunk
    computes on stays in cache from its forward pass to its backward pass.
    Its conv-2 tap stack may outgrow TAP_STACK_BYTES and then goes tap by
    tap, each tap the same BLAS call per image (dense-joint: 8 images of
    182,784 bytes, one chunk with a 2.03 MB stack)."""
    chunks, used = [], 0
    for i, shape in enumerate(shapes):
        cost = shape and _chunk_bytes(shape, in_ch, width, atoms)
        if cost and chunks and shapes[chunks[-1][0]] == shape and used + cost <= L2_BYTES:
            chunks[-1].append(i)
            used += cost
        else:
            chunks.append([i])
            used = cost
    return chunks


def _plan_runs(shapes: Sequence[tuple[int, int] | None], in_ch: int, width: int,
               atoms: int) -> list[list[list[int]]]:
    """A step's chunks (_plan_chunks) in runs of consecutive chunks that share one
    batch_loss call, their backward passes run after it. A run grows while its
    pixel items' logit rasters, 8*H*W*atoms bytes an image, fit TAP_STACK_BYTES;
    an image whose _image_bytes alone outgrow it runs alone (conv 2 goes tap by
    tap, and its forward cache is as large: 1.1 MB at 48x48, width 16); a box
    or tag item adds nothing, as it holds its raster from the first pass on."""
    runs, used = [], 0
    for chunk in _plan_chunks(shapes, in_ch, width, atoms):
        shape = shapes[chunk[0]]  # one size a chunk
        size = 0
        if shape:
            size = _image_bytes(shape, width, atoms)
            if size <= TAP_STACK_BYTES:
                size = 8 * len(chunk) * shape[0] * shape[1] * atoms
        if runs and used + size <= TAP_STACK_BYTES:
            runs[-1].append(chunk)
            used += size
        else:
            runs.append([chunk])
            used = size
    return runs


def _upstream(cache: ForwardCache, grads: Iterator[np.ndarray], head: str,
              n_ap: int, n_s: int) -> np.ndarray:
    """d(loss)/d(logits) of a chunk from its images' logit gradients, in
    order: a one-head, one-image chunk's gradient itself, else each copied
    into one zero (count*H, W, atoms) raster, dropped before the next is built."""
    if not (n_s or cache.count > 1):
        return next(grads)
    h = cache.shape[0] // cache.count
    atoms = slice(None, n_ap) if head == "ap" else slice(n_ap, None)
    upstream = np.zeros((*cache.shape, n_ap + n_s))
    for k in range(cache.count):
        upstream[k * h:(k + 1) * h, :, atoms] = next(grads)
    return upstream


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
    pass. The plan must draw at least one pixel-supervised dataset: box/tag
    canvases are gated against the net's own predictions, which only pixel
    labels anchor.

    A step runs in two passes. The first builds the box and tag items:
    canvas, forward pass and gate; only an item the gate leaves rows keeps
    its cache and head raster, and the rows kept give the box/tag
    normalizer. The pixel normalizer sums per-image counts taken before
    step 1. The second pass walks the chunks (_plan_chunks: consecutive
    pixel items of one size share one forward, softmax_atoms and backward
    call while the patches, ReLU outputs and rasters they hold from forward
    to backward, _chunk_bytes of in_ch channels, fit L2_BYTES) in item
    order, in runs (_plan_runs): a run's forward passes, one batch_loss
    call with the step's counts and the loss so far, then its backward
    passes. Runs end before their pixel logit rasters would pass
    TAP_STACK_BYTES, and an image too large to chunk runs alone: large
    rasters or images stream a chunk at a time (many-labels, weak-twohead,
    each image a chunk), small ones make the step one run (dense-joint, its
    eight images one chunk), as a loss call after a backward pass runs
    slower on small items. Loss terms and parameter
    gradients add up in item order, so a step keeps the bits of one batch
    (tests/oracles.py: batched_train_oracle). NoSupervisedPixels comes
    before any backward pass, NonFiniteLoss before sgd_step.

    Nothing of a step outlives it: a run's items (targets and head rasters)
    are dropped once batch_loss returns; each logit gradient, built by
    batch_loss's iterator on request, feeds its chunk's upstream and is
    dropped before the next is requested, and the chunk's cache and
    upstream go once its backward ran: a step holds one upstream at a time.
    On glibc the loop first raises the mmap and trim thresholds (see
    M_MMAP_THRESHOLD), so the freed arrays stay on the heap for the next
    step to reuse, and the process keeps that freed heap after training.
    The two go together: freed early, the arrays' pages would go back to
    the kernel and be faulted in again; kept, later steps would stack
    their arrays above the still-live ones of the step before.

    A box or tag item left with no row (a weak canvas the gate emptied)
    keeps no forward cache and no head raster (batch_loss gets a read-only
    +0.0 view) and skips its backward pass; a pixel item with
    no supervised pixel runs it on its +0.0 gradient. Both keep every
    bit: a zero upstream gives parameter gradients of +-0.0 only, the
    running total starts at +0.0 and so never holds -0.0 (IEEE addition
    gives -0.0 only for -0.0 + -0.0), and x + (+-0.0) is x.

    A box or tag item computes only on its raw canvas's rows, the pixels
    some box or tag votes on: the softmax, dataset predictions and gate run
    there, its head raster is +0.0 elsewhere, and an unvoted item skips
    forward and softmax, its raw canvas being its target. Same bits:
    softmax_atoms and reduce_last treat each row alike, the gate is per
    pixel, and batch_loss reads the gated rows only. The logits stay full:
    the head GEMM's row count can change BLAS sums.
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
    for ds_id in sampler.ids:  # an unvoted item skips forward and its check
        if any(im.ndim != 3 or im.shape[2] != in_ch for im in by_id[ds_id].images):
            raise ShapeMismatch(f"dataset {ds_id!r} holds an image not (H, W, {in_ch})")
    indexes = {ds_id: group_index(heads[ds_id].loss_groups,
                                  n_ap if heads[ds_id].head == "ap" else n_s)
               for ds_id in sampler.ids}

    # supervised pixels of every pixel image, counted once: a step's pixel normalizer
    pixel_counts = {ds_id: [int(np.count_nonzero(label.supervised_mask))
                            for label in by_id[ds_id].labels]
                    for ds_id in sampler.ids if by_id[ds_id].supervision in PIXEL_KINDS}

    def pixel_chunk(drawn: list) -> tuple[list, ForwardCache]:
        """The items and the forward cache of a chunk of pixel items."""
        images = [ds.images[idx] for ds, idx in drawn]
        stacked = np.concatenate(images) if drawn[1:] else images[0]
        logits, cache = forward(params, stacked, len(drawn))
        targets = [strong_to_canvas(ds.labels[idx], ds.space.num_classes) for ds, idx in drawn]
        probs = softmax_atoms(logits[:, :, :n_ap])  # one call: it treats each row alike
        h = len(images[0])
        return [(target, probs[k * h:(k + 1) * h], indexes[ds.dataset_id], ds.supervision)
                for k, ((ds, _), target) in enumerate(zip(drawn, targets))], cache

    def weak_item(ds: LoadedDataset, idx: int) -> tuple[list, ForwardCache | None]:
        """A box or tag item, and its forward cache if the gate leaves it rows."""
        dg = heads[ds.dataset_id]
        index = indexes[ds.dataset_id]
        h, w = ds.images[idx].shape[:2]
        target = weak_canvas(ds.labels[idx], ds.supervision, h, w, ds.space.num_classes)
        rows = target.rows
        if rows.size:  # else the raw canvas is all unlabeled already
            logits, cache = forward(params, ds.images[idx])
            voted = logits.reshape(h * w, -1).take(rows, axis=0)
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
        atoms = n_ap if dg.head == "ap" else n_s
        if not target.rows.size:  # a +0.0 gradient: no raster, and backward never runs
            return [(target, np.broadcast_to(0.0, (h, w, atoms)), index, ds.supervision)], None
        head_probs = np.zeros((h, w, atoms))
        head_probs.reshape(h * w, -1)[rows] = head_rows
        return [(target, head_probs, index, ds.supervision)], cache

    _keep_freed_heap()
    losses: list[float] = []
    total_steps = epochs * sampler.steps_per_epoch
    for step in range(total_steps):
        picks = sampler.next_batch()
        draws = [(by_id[ds_id], idx) for ds_id in sampler.ids for idx in picks[ds_id]]
        shapes = [ds.images[idx].shape[:2] if ds.supervision in PIXEL_KINDS else None
                  for ds, idx in draws]
        weak = {i: weak_item(*draws[i]) for i, shape in enumerate(shapes) if shape is None}
        counts = (sum([items[0][0].rows.size for items, _ in weak.values()]),
                  sum([pixel_counts[ds.dataset_id][idx]
                       for (ds, idx), shape in zip(draws, shapes) if shape]))
        loss, grads = 0.0, MicroNetGrads.zeros_like(params)
        for run in _plan_runs(shapes, in_ch, feature_width, n_ap + n_s):
            parts = [weak.pop(chunk[0]) if shapes[chunk[0]] is None
                     else pixel_chunk([draws[i] for i in chunk]) for chunk in run]
            loss, item_grads = batch_loss([item for items, _ in parts for item in items],
                                          counts, loss)
            routes = [(cache, heads[draws[chunk[0]][0].dataset_id].head)
                      for chunk, (_, cache) in zip(run, parts)]
            del parts
            routes.reverse()  # popped in item order
            while routes:
                cache, head = routes.pop()
                if cache is None:  # a box or tag item without rows: its +0.0 view
                    next(item_grads)
                else:
                    grads.iadd(backward(cache, _upstream(cache, item_grads, head, n_ap, n_s)))
                del cache  # before the next run's forward passes
            del item_grads
        if not np.isfinite(loss):
            raise NonFiniteLoss(step)
        sgd_step(params, grads, optimizer)
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
    width does not fit the partition (checked by predict_atoms). Like
    train_loop, it first makes glibc keep freed heap.
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
    _keep_freed_heap()
    cm = ConfusionMatrix(space.num_classes)
    for image, label in zip(dataset.images, dataset.labels):
        cm.add(label.class_ids, lut[predict_atoms(params, image, part)])
    return cm
