import ctypes
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from htss import lossgrad, model
from htss.annotations import StrongLabel, WeakLabel
from htss.errors import (
    ConfigError,
    DataError,
    FormatError,
    NonFiniteLoss,
    NoSupervisedPixels,
    ShapeMismatch,
    StaleCache,
    UncoveredClass,
    UnsatisfiableQuota,
)
from htss.lossgrad import batch_loss
from htss.model import (
    BatchPlan,
    BatchSampler,
    LoadedDataset,
    MicroNetGrads,
    MicroNetParams,
    OptimizerState,
    _conv_input_grad,
    _im2col,
    _pad_rows,
    backward,
    derive_train_seeds,
    evaluate,
    forward,
    init_micronet,
    load_checkpoint,
    predict_atoms,
    sgd_step,
    save_checkpoint,
    train_loop,
)
from htss.taxonomy import (
    AtomPartition,
    LabelSpace,
    RelationTable,
    build_group_sets,
    build_semantic_atoms,
    partition_atoms,
)

from oracles import (
    backward_oracle,
    batched_train_oracle,
    col2im_oracle,
    fd_grad,
    forward_oracle,
    im2col_oracle,
)

# (H, W): single pixel, single row, single column, non-square both ways,
# and the two workload image sizes
PATCH_SHAPES = [(1, 1), (1, 6), (5, 1), (3, 7), (9, 4), (16, 16), (20, 20), (48, 48)]


def test_init_shapes_and_bounds():
    p = init_micronet(in_channels=3, width=5, out_channels=4, seed=0)
    assert p.w1.shape == (3, 3, 3, 5)
    assert p.w2.shape == (3, 3, 5, 5)
    assert p.wh.shape == (5, 4)
    assert p.in_channels == 3 and p.width == 5 and p.out_channels == 4
    for a in p.arrays():
        assert np.all(np.abs(a) <= 0.05)


def test_init_deterministic():
    a = init_micronet(2, 4, 3, seed=99)
    b = init_micronet(2, 4, 3, seed=99)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    c = init_micronet(2, 4, 3, seed=100)
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), c.arrays()))


def test_init_rejects_bad_dims():
    with pytest.raises(ConfigError):
        init_micronet(0, 4, 3, seed=0)


def test_forward_shapes():
    p = init_micronet(2, 4, 3, seed=1)
    logits, cache = forward(p, np.zeros((5, 7, 2)))
    assert logits.shape == (5, 7, 3)
    assert cache.shape == (5, 7)
    with pytest.raises(ShapeMismatch):
        forward(p, np.zeros((5, 7, 3)))


def test_forward_zero_weights_give_constant_logits():
    p = init_micronet(2, 4, 3, seed=1)
    for a in p.arrays():
        a[:] = 0.0
    logits, _ = forward(p, np.ones((4, 4, 2)))
    np.testing.assert_array_equal(logits, 0.0)


@pytest.mark.parametrize("width", [3, 19])
def test_backward_matches_finite_differences(width):
    # width 19 is outside EXACT_CONV1_GRADS, where only values can be checked
    rng = np.random.default_rng(55)
    p = init_micronet(in_channels=2, width=width, out_channels=4, seed=7)
    image = rng.standard_normal((5, 4, 2))
    weights = rng.standard_normal((5, 4, 4))  # fixed linear readout

    logits, cache = forward(p, image)
    grads = backward(cache, weights)

    for field in ("w1", "b1", "w2", "b2", "wh", "bh"):
        arr = getattr(p, field)

        def f(a, field=field, arr=arr):
            old = arr.copy()
            arr[:] = a
            out, _ = forward(p, image)
            arr[:] = old
            return float((out * weights).sum())

        want = fd_grad(f, arr.copy(), eps=1e-6)
        got = getattr(grads, field)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() / scale < 1e-5, field


def _signed_zeros(rng, x):
    """x with about a quarter of its entries set to -0.0 and a quarter
    to +0.0: np.array_equal cannot tell the two apart, .tobytes() can."""
    x[rng.random(x.shape) < 0.25] = -0.0
    x[rng.random(x.shape) < 0.25] = 0.0
    return x


@pytest.mark.parametrize("h, w", PATCH_SHAPES)
@pytest.mark.parametrize("c", [1, 3, 8, 16])
def test_im2col_matches_slice_oracle_bit_for_bit(h, w, c):
    rng = np.random.default_rng(1000 * h + 10 * w + c)
    x = _signed_zeros(rng, rng.standard_normal((h, w, c)))
    got = _im2col(x)
    assert got.shape == (h * w, 9 * c) and got.flags.writeable
    assert got.tobytes() == im2col_oracle(x).tobytes()


@pytest.mark.parametrize("h, w", PATCH_SHAPES)
@pytest.mark.parametrize("width", [1, 3, 8, 16])
def test_conv2_input_grad_matches_gemm_then_col2im_bit_for_bit(h, w, width):
    # conv 2 maps width channels to width channels; dz is ReLU-masked as
    # backward makes it: -0.0 where a negative gradient meets the mask,
    # +0.0 elsewhere off the mask, and whole rows of zeros
    rng = np.random.default_rng(1000 * h + 10 * w + width)
    for _ in range(3):
        da = rng.standard_normal((h * w, width))
        da[rng.random(h * w) < 0.2] = 0.0
        da[rng.random(h * w) < 0.2] = -0.0
        dz = da * (rng.random((h * w, width)) < 0.6)
        kernel = rng.standard_normal((3, 3, width, width))
        want = col2im_oracle(dz @ kernel.reshape(-1, width).T, h, w, width)
        got = _conv_input_grad(_pad_rows(dz, h, w), kernel, h, w)
        assert got.tobytes() == want.tobytes()


# Every array of forward and backward lies within this many ulp of the
# magnitude its sums reach over absolute values (the oracle run on |params|,
# |image| and |upstream|), elementwise, wherever it is not pinned byte for
# byte; 13k random draws reached 1.1.
ORACLE_ULPS = 4
ARRAY_NAMES = ("logits", "w1", "b1", "w2", "b2", "wh", "bh")


def _oracle_runs(p, image, upstream, taps):
    """[logits, w1, b1, w2, b2, wh, bh] of forward_oracle/backward_oracle."""
    return [forward_oracle(p, image, taps)[0], *backward_oracle(p, image, upstream, taps)]


def _off_bound(p, image, upstream, got, want):
    """Names of the arrays in got that are not within ORACLE_ULPS of want."""
    q = MicroNetParams(*(np.abs(a) for a in p.arrays()))
    scale = _oracle_runs(q, np.abs(image), np.abs(upstream), taps=False)
    bound = ORACLE_ULPS * np.finfo(np.float64).eps
    return [name for name, g, o, s in zip(ARRAY_NAMES, got, want, scale)
            if np.any(np.abs(g - o) > bound * s)]


@pytest.mark.parametrize("h, w, width, out", [
    (20, 20, 8, 6), (48, 48, 16, 7), (16, 16, 8, 300), (1, 1, 4, 6)])
def test_forward_and_backward_match_layer_oracle_bit_for_bit(h, w, width, out):
    # byte for byte against the tap-order oracles, at the workload shapes
    # and at one pixel, where the batched conv-2 product keeps their bits
    # up to width 4 (EXACT_CONV2_OUTPUT); within ORACLE_ULPS of the one-GEMM ones
    rng = np.random.default_rng(10 * h + out)
    p = init_micronet(3, width, out, seed=width + out)
    for _ in range(2):
        image = _signed_zeros(rng, rng.standard_normal((h, w, 3)))
        upstream = _signed_zeros(rng, rng.standard_normal((h, w, out)))
        upstream[rng.random((h, w)) < 0.3] = 0.0  # pixels without supervision
        logits, cache = forward(p, image)
        got = [logits, *backward(cache, upstream).arrays()]
        want = _oracle_runs(p, image, upstream, taps=True)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
        assert not _off_bound(p, image, upstream, got, _oracle_runs(p, image, upstream, False))


_ALL = set(range(1, 65))
_ROUND = {*range(1, 17), 21, 24, 32, 40, 48, 56, 64}
_MOD8_123 = {w for w in range(17, 65) if w % 8 in (1, 2, 3)}
# Conv widths at which forward and backward equal the tap-order oracles byte
# for byte, per image size, with OpenBLAS 0.3.31 (Haswell kernels). Each cell
# held over 16 random draws both with one BLAS thread and with two; cells
# that held under one setting only are left out: 4x4 w1 and b1 at widths
# 61-63 and 20x20 w2 at 52, 56, 60 and 64 held with two threads, not one.
# Conv 2's output, checked through the logits and the wh gradient: a batched
# tap product (and, on one pixel, the oracle's vector-matrix one) can sum a
# row in another order than the oracle's per-tap product.
EXACT_CONV2_OUTPUT = {
    (1, 1): {1, 2, 3, 4},
    (2, 3): _ALL - _MOD8_123,
    (4, 4): _ALL,
    (7, 5): _ALL - _MOD8_123,
    (8, 8): _ALL,
    (20, 20): _ALL - {49, 50},
}
# The w2 gradient: the batched product sums over H*(W+2) rows, the oracle's
# over H*W, and a one-channel conv makes each tap's product an inner one.
EXACT_CONV2_GRADS = {
    (1, 1): _ALL,
    (2, 3): _ALL,
    (4, 4): _ALL - {1},
    (7, 5): _ALL - {1},
    (8, 8): _ALL - {1},
    (20, 20): set(range(2, 48)),
}
# The w1 and b1 gradients come from the conv-2 input gradient, whose per-tap
# GEMMs (or, on one pixel, vector-matrix product) can sum a row in another
# order than the oracle's one GEMM.
EXACT_CONV1_GRADS = {
    (1, 1): set(range(1, 9)) | set(range(12, 65, 4)),
    (2, 3): _ALL - {w for w in range(17, 65) if (w - 1) % 8 < 4},
    (4, 4): _ROUND,
    (7, 5): _ROUND,
    (8, 8): _ROUND,
    (20, 20): _ROUND,
}


@pytest.mark.parametrize("h, w", list(EXACT_CONV1_GRADS))
def test_blas_envelope_of_forward_and_backward(h, w):
    # against the tap-order oracles: b2 and bh byte for byte at every width,
    # the rest in the cells of the three tables, within ORACLE_ULPS elsewhere;
    # against the one-GEMM oracles: within ORACLE_ULPS everywhere
    pinned = {"b2": _ALL, "bh": _ALL, "w2": EXACT_CONV2_GRADS[(h, w)],
              "w1": EXACT_CONV1_GRADS[(h, w)], "b1": EXACT_CONV1_GRADS[(h, w)],
              "logits": EXACT_CONV2_OUTPUT[(h, w)], "wh": EXACT_CONV2_OUTPUT[(h, w)]}
    loose, off = [], []
    for width in range(1, 65):
        rng = np.random.default_rng([0, width, h, w])
        p = init_micronet(3, width, 5, seed=width)
        image = rng.standard_normal((h, w, 3))
        upstream = rng.standard_normal((h, w, 5))
        logits, cache = forward(p, image)
        got = [logits, *backward(cache, upstream).arrays()]
        taps = _oracle_runs(p, image, upstream, taps=True)
        loose += [(width, name) for name, g, o in zip(ARRAY_NAMES, got, taps)
                  if width in pinned[name] and g.tobytes() != o.tobytes()]
        one_gemm = _oracle_runs(p, image, upstream, taps=False)
        for oracle, want in (("taps", taps), ("one GEMM", one_gemm)):
            off += [(width, name, oracle)
                    for name in _off_bound(p, image, upstream, got, want)]
    assert not loose, f"pinned arrays off the tap-order oracle at {h}x{w}: {loose}"
    assert not off, f"arrays outside {ORACLE_ULPS} ulp at {h}x{w}: {off}"


def test_float32_image_gives_the_bits_of_its_float64_copy():
    rng = np.random.default_rng(32)
    for h, w, width in [(20, 20, 8), (48, 48, 16), (1, 1, 8)]:
        p = init_micronet(3, width, 6, seed=width)
        image = rng.standard_normal((h, w, 3)).astype(np.float32)
        upstream = rng.standard_normal((h, w, 6))
        got, cache = forward(p, image)
        want, wide_cache = forward(p, image.astype(np.float64))
        assert got.tobytes() == want.tobytes()
        assert ([g.tobytes() for g in backward(cache, upstream).arrays()]
                == [g.tobytes() for g in backward(wide_cache, upstream).arrays()])


@pytest.mark.parametrize("h, w, width, out", [(20, 20, 8, 6), (48, 48, 16, 7)])
def test_zero_upstream_backward_adds_nothing(h, w, width, out):
    # train_loop skips backward for an all-zero logit gradient; that is
    # exact only if adding its +-0.0 gradients changes no byte of a total
    rng = np.random.default_rng(100 * h + width)
    p = init_micronet(3, width, out, seed=width)
    running = MicroNetGrads.zeros_like(p)
    for _ in range(3):
        _, cache = forward(p, rng.standard_normal((h, w, 3)))
        running.iadd(backward(cache, rng.standard_normal((h, w, out))))
    negative_zeros = MicroNetGrads(*(np.full_like(a, -0.0) for a in p.arrays()))
    for total in (running, MicroNetGrads.zeros_like(p)):
        before = [a.tobytes() for a in total.arrays()]
        _, cache = forward(p, rng.standard_normal((h, w, 3)))
        total.iadd(backward(cache, np.zeros((h, w, out))))
        total.iadd(negative_zeros)  # BLAS may sum zero products to -0.0
        assert [a.tobytes() for a in total.arrays()] == before


@pytest.mark.parametrize("h, w, count", [(h, w, 3) for h, w in PATCH_SHAPES] + [(20, 20, 8)],
                         ids=[f"{h}-{w}" for h, w in PATCH_SHAPES] + ["20-20-8images"])
@pytest.mark.parametrize("width", [1, 3, 8, 16, 17])
def test_chunk_forward_and_backward_equal_per_image_bit_for_bit(h, w, count, width):
    # count images stacked row-wise, the second one with a zero upstream:
    # each image's logits and parameter gradients are its own one-image
    # results byte for byte, and the chunk's gradients add into a total in
    # image order as single backward passes do
    rng = np.random.default_rng([h, w, width])
    p = init_micronet(3, width, 5, seed=width)
    images = [_signed_zeros(rng, rng.standard_normal((h, w, 3))) for _ in range(count)]
    upstreams = [_signed_zeros(rng, rng.standard_normal((h, w, 5))) for _ in range(count)]
    upstreams[1][:] = 0.0
    if count == 8:  # a dense-joint step's chunk: conv 2 tap by tap, with an image axis,
        # from width 8 on (a 2.03 MB stack there)
        assert (9 * count * h * (w + 2) * width * 8 > model.TAP_STACK_BYTES) == (width >= 8)
    logits, cache = forward(p, np.concatenate(images), count)
    assert (logits.shape == (count * h, w, 5) and cache.shape == (count * h, w)
            and cache.count == count)
    grads = backward(cache, np.concatenate(upstreams))
    chunk_total, single_total = MicroNetGrads.zeros_like(p), MicroNetGrads.zeros_like(p)
    chunk_total.iadd(grads)
    for k, (image, upstream) in enumerate(zip(images, upstreams)):
        want_logits, one = forward(p, image)
        want = backward(one, upstream)
        single_total.iadd(want)
        assert logits[k * h:(k + 1) * h].tobytes() == want_logits.tobytes()
        for got, expected in zip(grads.arrays(), want.arrays()):
            assert got[k].shape == expected.shape
            assert got[k].tobytes() == expected.tobytes()
    assert ([a.tobytes() for a in chunk_total.arrays()]
            == [a.tobytes() for a in single_total.arrays()])
    with pytest.raises(ShapeMismatch):  # count*h rows are not 7 images of one height
        forward(p, np.concatenate(images), 7)


@pytest.mark.parametrize("rows", [1, 2, 5, 256, 2304])
@pytest.mark.parametrize("cols", [1, 2, 5, 16, 330])
def test_column_sums_equal_numpy_sum_bit_for_bit(rows, cols):
    # on one image and per image of a three-image chunk, signed zeros included
    rng = np.random.default_rng([rows, cols])
    x = _signed_zeros(rng, rng.standard_normal((3, rows, cols)))
    assert model._column_sums(x[0]).tobytes() == x[0].sum(axis=0).tobytes()
    sums = model._column_sums(x)
    assert sums.shape == (3, cols)
    for k in range(3):
        assert sums[k].tobytes() == x[k].sum(axis=0).tobytes()


def test_forward_and_backward_peak_below_one_nine_tap_stack():
    # at 48x48, width 16 conv 2's nine tap products take 2.76 MB, above
    # TAP_STACK_BYTES: each pass adds them one at a time and never holds all nine
    stack_bytes = 9 * 48 * 50 * 16 * 8
    assert stack_bytes > model.TAP_STACK_BYTES
    rng = np.random.default_rng(48)
    p = init_micronet(3, 16, 7, seed=16)
    image, upstream = rng.standard_normal((48, 48, 3)), rng.standard_normal((48, 48, 7))
    tracemalloc.start()
    try:
        _, cache = forward(p, image)
        held, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(cache, upstream)
        backward_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert max(forward_peak, backward_peak) < stack_bytes, (forward_peak, backward_peak)


def test_backward_rejects_stale_cache():
    p = init_micronet(2, 3, 2, seed=3)
    _, cache = forward(p, np.zeros((3, 3, 2)))
    sgd_step(p, MicroNetGrads.zeros_like(p), OptimizerState(learning_rate=0.1))
    with pytest.raises(StaleCache):
        backward(cache, np.zeros((3, 3, 2)))


def test_backward_rejects_wrong_upstream_shape():
    p = init_micronet(2, 3, 2, seed=3)
    _, cache = forward(p, np.zeros((3, 3, 2)))
    with pytest.raises(ShapeMismatch):
        backward(cache, np.zeros((3, 3, 5)))


def test_sgd_recurrence_matches_hand_calc():
    p = init_micronet(1, 1, 1, seed=0)
    for a in p.arrays():
        a[:] = 0.0
    state = OptimizerState(learning_rate=0.1, momentum=0.5)
    g = MicroNetGrads.zeros_like(p)
    g.bh[:] = 1.0
    # v: 1, 1.5, 1.75 ; p: -0.1, -0.25, -0.425
    sgd_step(p, g, state)
    assert p.bh[0] == pytest.approx(-0.1, abs=1e-15)
    sgd_step(p, g, state)
    assert p.bh[0] == pytest.approx(-0.25, abs=1e-15)
    sgd_step(p, g, state)
    assert p.bh[0] == pytest.approx(-0.425, abs=1e-15)
    assert p.version == 3


def test_sgd_zero_momentum_is_plain_descent():
    p = init_micronet(1, 1, 1, seed=0)
    before = p.bh.copy()
    g = MicroNetGrads.zeros_like(p)
    g.bh[:] = 2.0
    sgd_step(p, g, OptimizerState(learning_rate=0.25))
    assert p.bh[0] == pytest.approx(before[0] - 0.5, abs=1e-15)


def test_optimizer_validates_hyperparameters():
    with pytest.raises(ConfigError):
        OptimizerState(learning_rate=0.0)
    with pytest.raises(ConfigError):
        OptimizerState(learning_rate=0.1, momentum=1.0)


def test_training_reduces_linear_loss():
    # drive the logits toward a fixed target with squared error
    rng = np.random.default_rng(4)
    p = init_micronet(2, 4, 3, seed=11)
    image = rng.standard_normal((6, 6, 2))
    target = rng.standard_normal((6, 6, 3))
    state = OptimizerState(learning_rate=0.2, momentum=0.5)
    values = []
    for _ in range(10):
        logits, cache = forward(p, image)
        diff = logits - target
        values.append(float((diff ** 2).mean()))
        grads = backward(cache, 2.0 * diff / diff.size)
        sgd_step(p, grads, state)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_checkpoint_roundtrip(tmp_path):
    p = init_micronet(3, 4, 5, seed=21)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, p)
    q = load_checkpoint(path)
    for a, b in zip(p.arrays(), q.arrays()):
        assert np.array_equal(a, b)
    assert q.version == 0


def test_checkpoint_rejects_inconsistent_arrays(tmp_path):
    p = init_micronet(3, 4, 5, seed=21)
    path = tmp_path / "net.ckpt"
    from htss import formats
    # head width against conv width, then w1 of rank 2, b1 (4, 2), wh of
    # rank 1, bh and b2 one entry too long, w2 one output channel too many
    for k, shape in [(4, (7, 5)), (0, (3, 3)), (1, (4, 2)), (4, (4,)), (5, (6,)),
                     (3, (5,)), (2, (3, 3, 4, 5))]:
        arrays = p.arrays()
        arrays[k] = np.zeros(shape)
        formats.write_array_file(path, arrays)
        with pytest.raises(FormatError, match="net.ckpt"):
            load_checkpoint(path)


def test_derive_train_seeds_stable_and_distinct():
    a = derive_train_seeds(0)
    assert a == derive_train_seeds(0)
    assert a != derive_train_seeds(1)
    assert a[0] != a[1]


def test_sampler_quota_checks():
    with pytest.raises(UnsatisfiableQuota):
        BatchSampler({"d0": 5}, {"d0": 3}, seed=0)
    with pytest.raises(UnsatisfiableQuota):
        BatchSampler({"d0": 1}, {"d1": 3}, seed=0)


def test_sampler_draws_are_deterministic_and_in_range():
    a = BatchSampler({"d0": 2, "d1": 1}, {"d0": 5, "d1": 3}, seed=42)
    b = BatchSampler({"d0": 2, "d1": 1}, {"d0": 5, "d1": 3}, seed=42)
    for _ in range(10):
        pa, pb = a.next_batch(), b.next_batch()
        assert pa == pb
        assert all(0 <= i < 5 for i in pa["d0"])
        assert all(0 <= i < 3 for i in pa["d1"])
        assert len(set(pa["d0"])) == 2


def test_sampler_epoch_covers_every_image():
    s = BatchSampler({"d0": 2}, {"d0": 6}, seed=7)
    seen = []
    for _ in range(s.steps_per_epoch):
        seen.extend(s.next_batch()["d0"])
    assert sorted(seen) == list(range(6))


def test_sampler_discards_short_tail():
    # 5 images, quota 2: pass yields 2+2, then the lone tail is dropped
    s = BatchSampler({"d0": 2}, {"d0": 5}, seed=7)
    assert s.steps_per_epoch == 3
    draws = [s.next_batch()["d0"] for _ in range(6)]
    counts = {}
    for d in draws:
        assert len(d) == 2
        for i in d:
            counts[i] = counts.get(i, 0) + 1
    assert set(counts) <= set(range(5))


def test_sampler_steps_per_epoch_takes_largest_dataset():
    s = BatchSampler({"d0": 2, "d1": 3}, {"d0": 10, "d1": 6}, seed=0)
    assert s.steps_per_epoch == max(math.ceil(10 / 2), math.ceil(6 / 3))


def constant_net(bias):
    """A net whose logits are `bias` at every pixel."""
    p = init_micronet(2, 3, len(bias), seed=0)
    p.wh[...] = 0.0
    p.bh[...] = bias
    return p


ANIMALS = RelationTable.from_triples([("hypernym", "animal", "cat"),
                                      ("hypernym", "animal", "dog")])
CAT_DOG_FIELD = AtomPartition(atoms=("cat", "dog", "field"),
                              a_set=frozenset({1, 2, 3}), s_set=frozenset(),
                              p_set=frozenset())


def test_predict_atoms_splits_heads_and_merges_subclasses():
    # a+p head: the parent "animal" (atom 3) alone; s head: cat, dog
    part = AtomPartition(atoms=("cat", "dog", "animal"), a_set=frozenset(),
                         s_set=frozenset({1, 2}), p_set=frozenset({3}),
                         parent_of={1: 3, 2: 3})
    image = np.zeros((2, 3, 2))
    assert np.all(predict_atoms(constant_net([0.0, 0.0, 4.0]), image, part) == 2)
    assert np.all(predict_atoms(constant_net([9.0, 4.0, 0.0]), image, part) == 1)
    assert np.all(predict_atoms(constant_net([0.0, 0.0, 4.0]), image,
                                CAT_DOG_FIELD) == 3)


def eval_dataset(classes, supervision="pixel_dense"):
    space = LabelSpace("ev", tuple(classes), supervision)
    label = (StrongLabel(class_ids=np.array([[0, 1, 2], [2, 2, 1]]),
                         num_classes=space.num_classes)
             if supervision == "pixel_dense" else WeakLabel(tags=(1,)))
    return LoadedDataset(space=space, images=[np.zeros((2, 3, 2))], labels=[label])


def test_evaluate_maps_atoms_to_covering_classes():
    ds = eval_dataset(["void", "animal", "field"])
    dog = evaluate(constant_net([0.0, 4.0, 0.0]), CAT_DOG_FIELD, ds, ANIMALS)
    np.testing.assert_array_equal(dog.counts[1:], [[0, 2, 0], [0, 3, 0]])
    field = evaluate(constant_net([0.0, 0.0, 4.0]), CAT_DOG_FIELD, ds, ANIMALS)
    np.testing.assert_array_equal(field.counts[1:], [[0, 0, 2], [0, 0, 3]])
    # an atom no class covers is predicted as void
    cats = eval_dataset(["void", "cat", "field"])
    dog = evaluate(constant_net([0.0, 4.0, 0.0]), CAT_DOG_FIELD, cats, ANIMALS)
    np.testing.assert_array_equal(dog.counts[1:], [[2, 0, 0], [3, 0, 0]])


def test_evaluate_keeps_freed_heap(monkeypatch):
    # an eval in its own process raises the glibc thresholds as training does
    calls = []
    monkeypatch.setattr(model, "_keep_freed_heap", lambda: calls.append(None))
    evaluate(constant_net([0.0, 4.0, 0.0]), CAT_DOG_FIELD,
             eval_dataset(["void", "animal", "field"]), ANIMALS)
    assert calls == [None]


def test_evaluate_rejects_weak_overlapping_and_uncovered_spaces():
    net = constant_net([0.0, 0.0, 0.0])
    with pytest.raises(DataError, match="pixel-supervised"):
        evaluate(net, CAT_DOG_FIELD, eval_dataset(["void", "cat", "dog"], "image_tag"),
                 ANIMALS)
    with pytest.raises(DataError, match="maps atom 'cat' to two classes"):
        evaluate(net, CAT_DOG_FIELD, eval_dataset(["void", "animal", "cat"]), ANIMALS)
    with pytest.raises(UncoveredClass):
        evaluate(net, CAT_DOG_FIELD, eval_dataset(["void", "cat", "bird"]), ANIMALS)


def test_evaluate_rejects_net_of_another_width():
    part = AtomPartition(atoms=("cat", "field"), a_set=frozenset({1, 2}),
                         s_set=frozenset(), p_set=frozenset())
    ds = eval_dataset(["void", "cat", "field"])
    # the strongest logit sits on a channel the partition has no atom for
    with pytest.raises(DataError, match="predicts 4 atoms but the partition needs 2"):
        evaluate(constant_net([0.0, 0.0, 0.0, 4.0]), part, ds, RelationTable.empty())


def test_train_loop_rejects_plan_without_pixel_dataset():
    spaces = [LabelSpace("px", ("void", "cat", "field"), "pixel_dense"),
              LabelSpace("boxes", ("void", "cat"), "bbox")]
    rel = RelationTable.empty()
    tax = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    images = [np.zeros((4, 4, 2))] * 2
    px = LoadedDataset(spaces[0], images,
                       [StrongLabel(np.ones((4, 4), dtype=np.int64), 2)] * 2)
    boxes = LoadedDataset(spaces[1], images, [WeakLabel(boxes=((1, 0, 0, 2, 2),))] * 2)
    for threshold in (0.0, 0.9):
        with pytest.raises(ConfigError, match="only box/tag datasets"):
            train_loop([px, boxes], tax, None, BatchPlan({"boxes": 1}, seed=0),
                       OptimizerState(learning_rate=0.1), epochs=1,
                       refine_threshold=threshold)


def test_train_loop_checks_the_channels_of_every_drawn_image():
    # a box item without a box skips forward and its channel check, so
    # train_loop checks every image of the planned datasets before step 1
    spaces = [LabelSpace("px", ("void", "cat"), "pixel_dense"),
              LabelSpace("boxes", ("void", "cat"), "bbox")]
    rel = RelationTable.empty()
    tax = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    px = LoadedDataset(spaces[0], [np.zeros((4, 4, 2))] * 2,
                       [StrongLabel(np.ones((4, 4), dtype=np.int64), 1)] * 2)
    for bad in (np.zeros((4, 4, 3)), np.zeros((4, 4))):
        boxes = LoadedDataset(spaces[1], [np.zeros((4, 4, 2)), bad], [WeakLabel()] * 2)
        with pytest.raises(ShapeMismatch, match="'boxes'"):
            train_loop([px, boxes], tax, None, BatchPlan({"px": 1, "boxes": 1}, seed=0),
                       OptimizerState(learning_rate=0.1), epochs=1, refine_threshold=0.5)


def _chunk_cost(shape, in_ch, width, atoms):
    h, w = shape
    return 8 * (h * w * (9 * in_ch + width + 2 * atoms) + (h + 3) * (w + 2) * width)


@pytest.mark.parametrize("h, w", PATCH_SHAPES)
@pytest.mark.parametrize("in_ch, width, atoms", [(3, 8, 6), (3, 16, 5), (3, 8, 300), (2, 1, 1),
                                                 (5, 17, 40)])
def test_chunk_bytes_equal_what_a_forward_pass_holds(h, w, in_ch, width, atoms):
    # the planner's per-image bytes are the arrays a pixel chunk keeps from
    # its forward pass to its backward pass: the cache's patches and ReLU
    # outputs, the logit raster and the probability raster
    p = init_micronet(in_ch, width, atoms, seed=width)
    for count in (1, 3):
        image = np.random.default_rng([h, w, count]).standard_normal((count * h, w, in_ch))
        logits, cache = forward(p, image, count)
        probs = lossgrad.softmax_atoms(logits)
        held = sum(a.nbytes for a in (cache.cols1, cache.a1, cache.a2, logits, probs))
        cost = model._chunk_bytes((h, w), in_ch, width, atoms)
        assert held == count * cost == count * _chunk_cost((h, w), in_ch, width, atoms)


def _workload_step(name):
    """A training step of a perfbench workload at seed 11: its items' shapes
    (None for box and tag items) in draw order, channels, width and atoms."""
    from htss.synthgen import View, WorldSpec, relation_triples, view_space
    from htss.taxonomy import PIXEL_KINDS
    from test_bench_contract import _load
    wl = _load("workloads").build(name, 11)
    world = WorldSpec.from_dict(wl.world)
    cfg = dict(wl.commands)["train"]
    views = {v["dataset_id"]: View.from_dict(v) for v in wl.world["views"]}
    spaces = [view_space(world, views[ds]) for ds in sorted(cfg["quotas"])]
    rel = RelationTable.from_triples(relation_triples(world))
    tax = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    atoms = len(tax.atoms)
    if cfg.get("partition"):
        part = partition_atoms(tax, spaces, rel)
        atoms = len(part.ap_atoms) + len(part.s_atoms)
    shapes = [(world.height, world.width) if space.supervision in PIXEL_KINDS else None
              for space in spaces for _ in range(cfg["quotas"][space.dataset_id])]
    return shapes, world.channels, cfg["feature_width"], atoms


def test_plan_chunks_at_the_workload_shapes():
    # dense-joint: 8 images of 20x20x3, width 8, 6 atoms, 182,784 bytes
    # each, so the step is one chunk of 8 (1.46 MB); 11 would fit L2_BYTES
    shapes, in_ch, width, atoms = _workload_step("dense-joint")
    assert shapes == [(20, 20)] * 8 and (in_ch, width, atoms) == (3, 8, 6)
    assert model._chunk_bytes((20, 20), in_ch, width, atoms) == 182_784
    assert model._plan_chunks(shapes, in_ch, width, atoms) == [list(range(8))]
    assert model._plan_chunks([(20, 20)] * 12, in_ch, width, atoms) == [
        list(range(11)), [11]]
    # weak-twohead (48x48, width 16) and many-labels (16x16, ~300 atoms) take
    # more than half of L2_BYTES an image: every item is a chunk alone
    for name in ("weak-twohead", "many-labels"):
        shapes, in_ch, width, atoms = _workload_step(name)
        assert 2 * model._chunk_bytes(next(filter(None, shapes)), in_ch, width,
                                      atoms) > model.L2_BYTES
        assert model._plan_chunks(shapes, in_ch, width, atoms) == [[i] for i in
                                                                   range(len(shapes))]
    # a box or tag item is a chunk alone and splits pixel items around it
    assert (model._plan_chunks([None, (5, 4), (5, 4), None, (5, 4), (6, 4), None], 2, 3, 4)
            == [[0], [1, 2], [3], [4], [5], [6]])


def test_plan_runs_at_the_workload_shapes():
    # a run takes chunks while its pixel logit rasters, 8*H*W*atoms bytes an
    # image, fit TAP_STACK_BYTES: dense-joint (19,200 bytes an image) makes
    # one run a step, a many-labels raster (16x16x~300: about 614 KB) runs
    # alone, box items joining the run before. A weak-twohead image (48x48,
    # width 16: 2,856,960 _image_bytes) outgrows the limit alone and runs
    # alone; the box and tag items around it form runs of their own
    shapes, in_ch, width, atoms = _workload_step("dense-joint")
    assert model._plan_runs(shapes, in_ch, width, atoms) == [[list(range(8))]]
    shapes, in_ch, width, atoms = _workload_step("weak-twohead")
    assert shapes == [None] * 4 + [(48, 48)] * 4 + [None] * 4 and width == 16
    assert model._image_bytes((48, 48), width, atoms) > model.TAP_STACK_BYTES
    assert (model._plan_runs(shapes, in_ch, width, atoms)
            == [[[0], [1], [2], [3]], [[4]], [[5]], [[6]], [[7]], [[8], [9], [10], [11]]])
    shapes, in_ch, width, atoms = _workload_step("many-labels")
    assert shapes == [None] * 4 + [(16, 16)] * 8 and atoms >= 300
    assert (model._plan_runs(shapes, in_ch, width, atoms)
            == [[[0], [1], [2], [3], [4]]] + [[[i]] for i in range(5, 12)])
    assert (model._plan_runs([None, None, (16, 16), (16, 16), None, (16, 16)], 3, 8, 300)
            == [[[0], [1], [2]], [[3], [4]], [[5]]])


def test_plan_chunks_keeps_sizes_apart_and_each_chunk_within_budget():
    rng = np.random.default_rng(23)
    sizes = [(20, 20), (16, 16), (48, 48), (5, 4), (4, 5), (1, 1), None]
    for _ in range(300):
        in_ch, width, atoms = int(rng.integers(1, 6)), int(rng.integers(1, 20)), int(
            rng.integers(1, 400))
        shapes = [sizes[k] for k in rng.integers(0, len(sizes), int(rng.integers(0, 14)))]
        chunks = model._plan_chunks(shapes, in_ch, width, atoms)
        assert [i for c in chunks for i in c] == list(range(len(shapes)))
        for chunk in chunks:
            assert len({shapes[i] for i in chunk}) == 1
            assert chunk == list(range(chunk[0], chunk[-1] + 1))
            if len(chunk) > 1:  # of pixel items, within budget
                assert shapes[chunk[0]] is not None
                costs = [_chunk_cost(shapes[i], in_ch, width, atoms) for i in chunk]
                assert sum(costs) <= model.L2_BYTES
                assert max(costs) <= model.L2_BYTES
        for a, b in zip(chunks, chunks[1:]):  # a chunk ends only where it must
            if shapes[a[0]] == shapes[b[0]] is not None:
                used = sum(_chunk_cost(shapes[i], in_ch, width, atoms) for i in a)
                assert used + _chunk_cost(shapes[b[0]], in_ch, width, atoms) > model.L2_BYTES


def _dense_joint_plan():
    """The criterion-6 training config on 16 images a dataset, 4 steps."""
    from test_acceptance import build_tax, memory_dataset, six_atom_world
    from htss.synthgen import View
    world = six_atom_world(424242)
    datasets = [memory_dataset(world, View("dsa", "pixel_dense", "coarse", 16, 0)),
                memory_dataset(world, View("dsb", "pixel_dense", "fine", 16, 200))]
    return (datasets, build_tax(world, datasets)[0], BatchPlan({"dsa": 4, "dsb": 4}, seed=0),
            0.9, 8)


def _mixed_plan(sizes, box_id, threshold):
    """Fine, coarse and box sets of 4 images of the given (H, W) sizes, the
    box set, named box_id, with two images without a box. At threshold 0.6
    the gate empties every voted box, at 0.0 it keeps them all."""
    rng = np.random.default_rng(29)
    spaces = [LabelSpace("fine", ("void", "cat", "dog", "grass"), "pixel_dense"),
              LabelSpace("coarse", ("void", "animal", "grass"), "pixel_coarse"),
              LabelSpace(box_id, ("void", "cat", "dog"), "bbox")]
    rel = RelationTable.from_triples([("hypernym", "animal", "cat"),
                                      ("hypernym", "animal", "dog")])
    tax = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    datasets = []
    for space, (h, w) in zip(spaces, sizes):
        images = [rng.random((h, w, 2)) for _ in range(4)]
        if space.supervision == "bbox":
            labels = [WeakLabel(boxes=((1, 0, 0, 3, 3), (2, 1, 1, 4, 4))), WeakLabel(),
                      WeakLabel(boxes=((2, 0, 0, 4, 4),)), WeakLabel()]
        else:
            labels = [StrongLabel(rng.integers(0, space.num_classes + 1, (h, w)),
                                  space.num_classes) for _ in images]
        datasets.append(LoadedDataset(space, images, labels))
    return datasets, tax, BatchPlan({"fine": 2, "coarse": 2, box_id: 4}, seed=3), threshold, 3


def _set_cache_bytes(monkeypatch, n):
    """Plan chunks against an n-byte L2 cache, with TAP_STACK_BYTES half of it."""
    monkeypatch.setattr(model, "L2_BYTES", n)
    monkeypatch.setattr(model, "TAP_STACK_BYTES", n // 2)


# per plan: the image count of each forward and each backward call of a
# step, and the chunks whose cache is still held when batch_loss is called:
# the rasters of a step are a few KB, so its chunks share one batch_loss call
# (one run, see _plan_runs). Items come in dataset-id order
@pytest.mark.parametrize("plan, counts, kept, held", [
    ("dense-joint", [8], [8], 1),
    # coarse, boxes, fine: the two voted boxes run forward alone in the first
    # pass, and their backward passes run between the pixel chunks', in item order
    ("boxes between pixel sets", [1, 1, 2, 2], [2, 1, 1, 2], 4),
    # boxes, coarse, fine: the gate empties the voted boxes, which drop
    # their caches; the pixel sets differ in size, so they do not share a chunk
    ("two image sizes", [1, 1, 2, 2], [2, 2], 2)])
def test_train_loop_in_chunks_equals_one_image_a_chunk(monkeypatch, plan, counts, kept, held):
    # a zero cache size makes every chunk one image and a run of its own:
    # the losses and weights must be the same byte for byte
    datasets, tax, batch, threshold, width = {
        "dense-joint": _dense_joint_plan,
        "boxes between pixel sets": lambda: _mixed_plan([(5, 4)] * 3, "dboxes", 0.0),
        "two image sizes": lambda: _mixed_plan([(4, 6), (5, 4), (4, 4)], "boxes", 0.6)}[plan]()
    calls, caches, alive, backward_calls = [], [], [], []
    real_forward, real_loss, real_backward = model.forward, model.batch_loss, model.backward

    def counting_forward(params, image, count=1):
        logits, cache = real_forward(params, image, count)
        calls.append(count)
        caches.append(weakref.ref(cache))
        return logits, cache

    def counting_loss(items, *args):
        alive.append(sum(ref() is not None for ref in caches))
        caches.clear()
        return real_loss(items, *args)

    def counting_backward(cache, upstream):
        backward_calls.append(cache.count)
        return real_backward(cache, upstream)

    def train():
        for log in (calls, alive, backward_calls):
            log.clear()
        return train_loop(datasets, tax, None, batch,
                          OptimizerState(learning_rate=0.3, momentum=0.9), epochs=2,
                          refine_threshold=threshold, feature_width=width)

    monkeypatch.setattr(model, "forward", counting_forward)
    monkeypatch.setattr(model, "batch_loss", counting_loss)
    monkeypatch.setattr(model, "backward", counting_backward)
    want = train()
    steps = len(want.losses)
    assert calls == counts * steps and backward_calls == kept * steps
    assert alive == [held] * steps
    _set_cache_bytes(monkeypatch, 0)
    got = train()
    assert calls == [1] * sum(counts) * steps and backward_calls == [1] * sum(kept) * steps
    assert got.losses == want.losses
    assert ([a.tobytes() for a in got.params.arrays()]
            == [a.tobytes() for a in want.params.arrays()])


def _two_head_world():
    """Pixel sets of two image sizes (coarse 5x4 at quota 2, so a chunk of
    two, a 5x4 set of 90 more classes, and scene 4x6), a box set and a tag
    set of the subclasses cat and dog (the s head), and the partition that
    splits them off the parent."""
    rng = np.random.default_rng(41)
    spaces = [LabelSpace("coarse", ("void", "animal", "grass"), "pixel_dense"),
              LabelSpace("many", ("void",) + tuple(f"c{k}" for k in range(90)), "pixel_dense"),
              LabelSpace("scene", ("void", "grass", "sky"), "pixel_coarse"),
              LabelSpace("boxes", ("void", "cat", "dog"), "bbox"),
              LabelSpace("tags", ("void", "cat", "dog"), "image_tag")]
    rel = RelationTable.from_triples([("hypernym", "animal", "cat"),
                                      ("hypernym", "animal", "dog")])
    tax = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(tax, spaces, rel)
    sizes = {"coarse": (5, 4), "many": (5, 4), "scene": (4, 6), "boxes": (5, 4), "tags": (4, 6)}
    weak = {"boxes": [WeakLabel(boxes=((1, 0, 0, 3, 3), (2, 1, 1, 4, 5))), WeakLabel(),
                      WeakLabel(boxes=((2, 0, 0, 4, 5),)), WeakLabel(boxes=((1, 2, 1, 4, 4),))],
            "tags": [WeakLabel(tags=(1,)), WeakLabel(tags=(2,)), WeakLabel(tags=(1, 2)),
                     WeakLabel()]}
    datasets = []
    for space in spaces:
        h, w = sizes[space.dataset_id]
        images = [rng.random((h, w, 2)) for _ in range(4)]
        labels = weak.get(space.dataset_id) or [
            StrongLabel(rng.integers(0, space.num_classes + 1, (h, w)), space.num_classes)
            for _ in images]
        datasets.append(LoadedDataset(space, images, labels))
    return datasets, tax, part, BatchPlan({"coarse": 2, "many": 1, "scene": 1, "boxes": 2,
                                                  "tags": 2}, 17)


@pytest.mark.parametrize("budget, largest_chunk, runs_per_step", [
    ("default", 3, "one"),  # rasters of a few KB: the whole step is one run
    ("two images", 2, "several"),  # each pixel chunk's loss and backward before the next
    ("zero", 1, "several")])  # one image a chunk
def test_train_loop_equals_the_batched_step_oracle(monkeypatch, budget, largest_chunk,
                                                   runs_per_step):
    # streaming a step in runs of chunks (box and tag items first, then each
    # run's forward passes, loss and backward passes) gives the losses and
    # weights of one batch a step, byte for byte: with pixel, box and tag
    # items, both heads, chunks of two images and more, two image sizes, and
    # the gate emptying voted items while it keeps the rows of others
    datasets, tax, part, plan = _two_head_world()
    atoms = len(part.ap_atoms) + len(part.s_atoms)
    assert part.s_atoms and atoms > 90
    if budget != "default":
        _set_cache_bytes(monkeypatch,
                         2 * _chunk_cost((5, 4), 2, 3, atoms) if budget == "two images" else 0)
    gated, counts, runs = [], [], []
    real_gate, real_forward, real_loss = model.gate_canvas, model.forward, model.batch_loss

    def recording_gate(canvas, probs, expected, threshold):
        out = real_gate(canvas, probs, expected, threshold)
        gated.append((canvas.rows.size, out.rows.size))
        return out

    def counting_forward(params, image, count=1):
        counts.append(count)
        return real_forward(params, image, count)

    def counting_loss(items, *args):
        runs.append(len(items))
        return real_loss(items, *args)

    def optimizer():
        return OptimizerState(learning_rate=0.3, momentum=0.9)

    monkeypatch.setattr(model, "gate_canvas", recording_gate)
    monkeypatch.setattr(model, "forward", counting_forward)
    monkeypatch.setattr(model, "batch_loss", counting_loss)
    got = train_loop(datasets, tax, part, plan, optimizer(), epochs=2,
                     refine_threshold=0.0, feature_width=3)
    steps = len(got.losses)
    assert steps == 8 and sum(runs) == 8 * steps  # every item of a step once
    assert max(counts) == largest_chunk
    assert (len(runs) == steps) == (runs_per_step == "one")
    assert any(voted and not kept for voted, kept in gated)
    assert any(kept for _, kept in gated)
    want_losses, want_params = batched_train_oracle(datasets, tax, part, plan, optimizer(),
                                                    2, 0.0, 3)
    assert got.losses == want_losses
    assert ([a.tobytes() for a in got.params.arrays()]
            == [a.tobytes() for a in want_params.arrays()])


def many_atom_training(steps, atoms=150, size=16):
    """Train a pixel plus a box dataset of `atoms` classes on size x size
    images: each (H, W, atoms) float64 raster of a step, 300 KiB at the
    defaults, lies above glibc's default 128 KiB mmap threshold."""
    names = ("void",) + tuple(f"c{k}" for k in range(atoms))
    spaces = [LabelSpace("px", names, "pixel_dense"), LabelSpace("boxes", names, "bbox")]
    rel = RelationTable.empty()
    tax = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    rng = np.random.default_rng(80)
    images = [rng.standard_normal((size, size, 3)) for _ in range(4)]
    px = LoadedDataset(spaces[0], images, [
        StrongLabel(rng.integers(0, atoms + 1, (size, size)), atoms) for _ in images])
    boxes = LoadedDataset(spaces[1], images, [
        WeakLabel(boxes=((1 + k, 0, 0, 8, 8 + k),)) for k in range(4)])
    return train_loop([px, boxes], tax, None, BatchPlan({"px": 2, "boxes": 2}, seed=5),
                      OptimizerState(learning_rate=0.1, momentum=0.5),
                      epochs=steps // 2, refine_threshold=0.0)


def _has_mallopt() -> bool:
    return hasattr(ctypes.CDLL(None), "mallopt")


def test_train_loop_frees_each_step_before_the_next(monkeypatch):
    # weak references to a step's logit gradients and head rasters must all
    # be dead by the time batch_loss is entered for the next step
    alive, entered = [], []

    def tracked(items, *args):
        entered.append(sum(ref() is not None for ref in alive))
        alive.clear()
        loss, grads = batch_loss(items, *args)
        grads = list(grads)
        alive.extend(weakref.ref(a) for a in [*grads, *(item[1] for item in items)])
        return loss, iter(grads)  # a fresh iterable: train_loop still trains

    monkeypatch.setattr(model, "batch_loss", tracked)
    many_atom_training(steps=4)
    assert entered == [0, 0, 0, 0]


class _Watched:
    """Passes a gradient iterator on. At each request it logs whether every
    gradient handed out so far is dead and, once the underlying iterator
    has moved on, whether the head rasters of those items are dead too."""

    def __init__(self, grads, dists):
        self.grads, self.dists = grads, dists
        self.handed = []
        self.log = []

    def __iter__(self):
        return self

    def __next__(self):
        grads_dead = all(ref() is None for ref in self.handed)
        try:
            g = next(self.grads)
        finally:
            dists_dead = all(ref() is None for ref in self.dists[:len(self.handed)])
            self.log.append((grads_dead, dists_dead))
        self.handed.append(weakref.ref(g))
        return g


def test_train_loop_holds_one_gradient_raster_at_a_time(monkeypatch):
    # item k's logit gradient is dead when item k+1's is requested, and its
    # head raster once the gradient iterator has moved past it. The upstream
    # a backward pass gets (a chunk's, or one item's gradient) is dead when
    # the next pass starts and takes at most TAP_STACK_BYTES, so a step
    # holds one chunk's upstream at a time
    watched, upstreams, counts = [], [], []
    real_backward = model.backward

    def watching(items, *args):
        dists = [weakref.ref(item[1]) for item in items]
        loss, grads = batch_loss(items, *args)
        watched.append(_Watched(grads, dists))
        return loss, watched[-1]

    def checking_backward(cache, upstream):
        assert all(ref() is None for ref in upstreams)
        owner = upstream if upstream.base is None else upstream.base
        assert owner.nbytes <= model.TAP_STACK_BYTES
        upstreams.append(weakref.ref(owner))
        counts.append(cache.count)
        return real_backward(cache, upstream)

    monkeypatch.setattr(model, "batch_loss", watching)
    monkeypatch.setattr(model, "backward", checking_backward)
    many_atom_training(steps=4)
    assert len(watched) == 4
    for step in watched:
        assert len(step.handed) == 4  # two pixel and two box items
        assert step.log == [(True, True)] * 4  # one request per item
    assert counts.count(2) >= 4  # each step's two pixel images share one chunk


def test_train_loop_step_peak_holds_one_chunk(monkeypatch):
    # 8 pixel items of 16x16 over 300 atoms a step, each a chunk and a run
    # of its own (a 614,400-byte logit raster): the tracemalloc peak of a
    # step, above what the step starts with, stays under one chunk's
    # rasters (logits, probabilities, gradient) plus its forward cache.
    # Holding every item's probabilities until one batch_loss call over the
    # step takes eight rasters
    atoms, size = 300, 16
    names = ("void",) + tuple(f"c{k}" for k in range(atoms))
    space = LabelSpace("px", names, "pixel_dense")
    tax = build_group_sets(build_semantic_atoms([space], RelationTable.empty()), [space],
                           RelationTable.empty())
    rng = np.random.default_rng(83)
    images = [rng.standard_normal((size, size, 3)) for _ in range(16)]
    px = LoadedDataset(space, images, [StrongLabel(rng.integers(0, atoms + 1, (size, size)),
                                                   atoms) for _ in images])
    raster = 8 * size * size * atoms
    _, cache = forward(init_micronet(3, 8, atoms, 0), images[0])
    bound = 3 * raster + cache.cols1.nbytes + cache.a1.nbytes + cache.a2.nbytes
    peaks, start = [], []
    real_sgd = model.sgd_step

    def measuring_sgd(params, grads, state):
        real_sgd(params, grads, state)
        peaks.append(tracemalloc.get_traced_memory()[1] - start[-1])
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(model, "sgd_step", measuring_sgd)
    tracemalloc.start()
    try:
        start.append(tracemalloc.get_traced_memory()[0])
        res = train_loop([px], tax, None, BatchPlan({"px": 8}, seed=2),
                         OptimizerState(learning_rate=0.1, momentum=0.5), epochs=2,
                         refine_threshold=0.5)
    finally:
        tracemalloc.stop()
    assert len(res.losses) == len(peaks) == 4
    assert max(peaks) < bound, (peaks, bound)


def test_train_loop_raises_on_a_non_finite_loss_before_the_update(monkeypatch):
    # a non-finite item loss at step 2 raises NonFiniteLoss(2) after every
    # chunk's backward pass ran, but before sgd_step: the weights keep the
    # bytes and the version step 1 left them with
    datasets, tax, plan, threshold, width = _mixed_plan([(5, 4)] * 3, "boxes", 0.0)
    made, after, steps = [], [], []
    real_init, real_sgd, real_terms = model.init_micronet, model.sgd_step, lossgrad._item_terms

    def capturing_init(*args):
        made.append(real_init(*args))
        return made[-1]

    def recording_sgd(params, grads, state):
        real_sgd(params, grads, state)
        steps.append(params.version)
        after[:] = [a.tobytes() for a in params.arrays()]

    def poisoned_terms(target, probs, index):
        losses, n, grad = real_terms(target, probs, index)
        if len(steps) == 2 and n:
            losses = np.full_like(losses, np.nan)
        return losses, n, grad

    monkeypatch.setattr(model, "init_micronet", capturing_init)
    monkeypatch.setattr(model, "sgd_step", recording_sgd)
    monkeypatch.setattr(lossgrad, "_item_terms", poisoned_terms)
    with pytest.raises(NonFiniteLoss) as err:
        train_loop(datasets, tax, None, plan, OptimizerState(learning_rate=0.3, momentum=0.9),
                   epochs=2, refine_threshold=threshold, feature_width=width)
    assert err.value.step == 2 and steps == [1, 2]
    (params,) = made
    assert params.version == 2
    assert [a.tobytes() for a in params.arrays()] == after


@pytest.mark.parametrize("budget", [None, 0])
def test_train_loop_raises_no_supervised_pixels_before_any_backward(monkeypatch, budget):
    # all-void pixel labels and a gate at 1.0 that empties every voted box:
    # the step's normalizers are both 0, known after the box items' pass, so
    # the first batch_loss call raises before any backward pass, also when
    # the step runs in several batch_loss calls (TAP_STACK_BYTES = 0)
    datasets, tax, plan, _, width = _mixed_plan([(5, 4)] * 3, "boxes", 1.0)
    for k, ds in enumerate(datasets[:2]):
        datasets[k] = LoadedDataset(ds.space, ds.images, [
            StrongLabel(np.zeros((5, 4), dtype=np.int64), ds.space.num_classes)
            for _ in ds.images])
    if budget is not None:
        monkeypatch.setattr(model, "TAP_STACK_BYTES", budget)
    backwards = []
    monkeypatch.setattr(model, "backward", lambda *args: backwards.append(args))
    with pytest.raises(NoSupervisedPixels):
        train_loop(datasets, tax, None, plan, OptimizerState(learning_rate=0.1), epochs=1,
                   refine_threshold=1.0, feature_width=width)
    assert backwards == []


def test_train_loop_trains_without_mallopt(monkeypatch):
    want = many_atom_training(steps=4)
    looked_up = []

    def c_library(name):
        looked_up.append(name)
        return types.SimpleNamespace()  # a C library without mallopt

    monkeypatch.setattr(ctypes, "CDLL", c_library)
    got = many_atom_training(steps=4)
    assert looked_up == [None]
    assert got.losses == want.losses
    assert ([a.tobytes() for a in got.params.arrays()]
            == [a.tobytes() for a in want.params.arrays()])


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_training_keeps_its_pages():
    # the second of two identical runs reuses the heap the first one freed:
    # 3-4 minor faults with glibc 2.36, against 1373-1886 with its default
    # thresholds and each step's arrays kept until the next step
    resource = pytest.importorskip("resource")
    many_atom_training(steps=12)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    many_atom_training(steps=12)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, faults
