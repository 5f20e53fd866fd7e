"""Independent oracles used by the unit and acceptance tests.

These deliberately re-derive expected values through a different route
than the library: a restart-from-scratch fixed-point scan for atom
extraction, central finite differences for gradients, a textbook
softmax cross-entropy for the singleton-group degeneracy, the
slice-by-slice patch layout the conv kernels must reproduce bit for bit,
the whole network's forward and backward pass written out of place on
that layout, the confidence gate over the full raster, and the one-hot
canvas of a pixel label, whose loss the label itself, taken as the
target, must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np


def atoms_fixed_point_oracle(names, relations):
    """Brute-force atom extraction: rescan all ordered pairs from the
    start after every removal, deleting the subject of the first pair
    where it is a hypernym/holonym of the object, or the larger name of
    the first synonym pair."""
    survivors = sorted(set(names))
    while True:
        removed = None
        for subject in list(survivors):
            for obj in list(survivors):
                if subject == obj:
                    continue
                if relations.generalizes(subject, obj):
                    removed = subject
                    break
                if relations.synonymous(subject, obj):
                    removed = max(subject, obj)
                    break
            if removed is not None:
                break
        if removed is None:
            return survivors
        survivors.remove(removed)


def partition_oracle(atoms, spaces, relations, universe):
    """Brute-force parent class name of every weak-only atom.

    Closures are fixed points over the point queries
    relations.synonymous and relations.generalizes, scanned across
    universe (every name the classes and relations mention). An atom is
    weak-only when the classes whose synonym closure holds it are all
    box/tag classes, and there is at least one. Its ancestors are the
    pixel classes whose semantic closure holds it and whose synonym
    closure does not; its parent is the smallest ancestor. Atoms are
    visited in the given order: the first weak-only atom without an
    ancestor raises NoStrongParent, and a parent name that is itself an
    atom raises DataError.
    """
    from functools import cache

    from htss.errors import DataError, NoStrongParent
    from htss.taxonomy import PIXEL_KINDS

    def fixed_point(name, related):
        seen = {name}
        while True:
            grown = {other for n in seen for other in universe if related(n, other)} - seen
            if not grown:
                return seen
            seen |= grown

    @cache
    def synonyms(name):
        return fixed_point(name, relations.synonymous)

    @cache
    def covered(name):
        return fixed_point(name, lambda a, b: (relations.generalizes(a, b)
                                               or relations.synonymous(a, b)))

    pixel_exact, weak_exact = set(), set()
    for sp in spaces:
        for cname in sp.classes[1:]:
            for atom in atoms:
                if atom in synonyms(cname):
                    (pixel_exact if sp.supervision in PIXEL_KINDS else weak_exact).add(atom)
    parents = {}
    for atom in atoms:
        if atom not in weak_exact or atom in pixel_exact:
            continue
        ancestors = set()
        for sp in spaces:
            if sp.supervision not in PIXEL_KINDS:
                continue
            for cname in sp.classes[1:]:
                if atom not in synonyms(cname) and atom in covered(cname):
                    ancestors.add(cname)
        if not ancestors:
            raise NoStrongParent(atom)
        parents[atom] = min(ancestors)
    for pname in sorted(set(parents.values())):
        if pname in atoms:
            raise DataError(f"parent class {pname!r} collides with an existing atom")
    return parents


def im2col_oracle(x):
    """(H, W, C) -> (H*W, 9*C) 3x3 same-padding patches, one (dy, dx)
    slice at a time, with columns ordered (dy, dx, c)."""
    h, w, c = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    cols = np.empty((h, w, 3, 3, c), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            cols[:, :, dy, dx, :] = padded[dy:dy + h, dx:dx + w, :]
    return cols.reshape(h * w, 9 * c)


def col2im_oracle(dcols, h, w, c):
    """Adjoint of im2col_oracle: add patch gradients back onto the image,
    one (dy, dx) slice at a time in row-major order."""
    dpadded = np.zeros((h + 2, w + 2, c), dtype=np.float64)
    d5 = dcols.reshape(h, w, 3, 3, c)
    for dy in range(3):
        for dx in range(3):
            dpadded[dy:dy + h, dx:dx + w, :] += d5[:, :, dy, dx, :]
    return dpadded[1:-1, 1:-1, :]


def forward_oracle(params, image):
    """Logits (H, W, out) of the two-conv-plus-head net, plus the layer
    values backward_oracle needs: im2col_oracle patches, out-of-place
    bias adds and ReLUs, the head applied to the (H, W, width) raster."""
    h, w, _ = image.shape
    width = params.w1.shape[3]
    cols1 = im2col_oracle(np.asarray(image, dtype=np.float64))
    z1 = cols1 @ params.w1.reshape(-1, width) + params.b1
    a1 = np.maximum(z1, 0.0).reshape(h, w, width)
    cols2 = im2col_oracle(a1)
    z2 = cols2 @ params.w2.reshape(-1, width) + params.b2
    a2 = np.maximum(z2, 0.0).reshape(h, w, width)
    logits = a2 @ params.wh + params.bh
    return logits, (cols1, z1, cols2, z2, a2)


def backward_oracle(params, image, upstream):
    """The six parameter gradients (w1, b1, w2, b2, wh, bh) for an
    upstream d(loss)/d(logits): out-of-place ReLU masks on z > 0, and
    each conv-2 input gradient as one GEMM scattered by col2im_oracle."""
    h, w, _ = image.shape
    width = params.w1.shape[3]
    _, (cols1, z1, cols2, z2, a2) = forward_oracle(params, image)
    up = np.asarray(upstream, dtype=np.float64).reshape(h * w, -1)
    dwh = a2.reshape(h * w, width).T @ up
    dbh = up.sum(axis=0)
    dz2 = (up @ params.wh.T) * (z2 > 0.0)
    dw2 = (cols2.T @ dz2).reshape(params.w2.shape)
    db2 = dz2.sum(axis=0)
    da1 = col2im_oracle(dz2 @ params.w2.reshape(-1, width).T, h, w, width)
    dz1 = da1.reshape(h * w, width) * (z1 > 0.0)
    dw1 = (cols1.T @ dz1).reshape(params.w1.shape)
    db1 = dz1.sum(axis=0)
    return [dw1, db1, dw2, db2, dwh, dbh]


def gate_full_raster_oracle(canvas_probs, probs, expected, threshold):
    """The confidence gate written over the whole raster, the authority
    for the row form of annotations.gate_canvas: probs (H, W, K) holds a
    prediction at every pixel and expected (H, W) each pixel's expected
    column. A pixel whose unlabeled slot is < 0.5 keeps its canvas row iff
    its argmax is the expected column and the probability there is
    >= threshold; every other pixel gets the unlabeled unit vector.
    Returns the gated (H, W, L+1) array."""
    num = canvas_probs.shape[2] - 1
    conf = np.take_along_axis(probs, expected[:, :, None], axis=2)[:, :, 0]
    keep = ((canvas_probs[:, :, num] < 0.5) & (probs.argmax(axis=2) == expected)
            & (conf >= threshold))
    out = np.zeros_like(canvas_probs)
    out[keep] = canvas_probs[keep]
    out[:, :, num] = np.where(keep, canvas_probs[:, :, num], 1.0)
    return out


def one_hot_canvas(label, num_classes):
    """One-hot (H, W, L+1) canvas of a StrongLabel, void pixels unlabeled:
    the canvas form of a pixel label, which the loss takes as it is."""
    from htss.annotations import PseudoCanvas
    from htss.errors import ShapeMismatch

    if num_classes != label.num_classes:
        raise ShapeMismatch(
            f"label has {label.num_classes} classes, canvas asked for {num_classes}")
    ids = label.class_ids
    slots = np.where(ids > 0, ids - 1, num_classes)
    return PseudoCanvas(np.eye(num_classes + 1, dtype=np.float64)[slots])


def fd_grad(fn, x, eps=1e-4):
    """Central finite differences of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = fn(x)
        flat[i] = keep - eps
        lo = fn(x)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def ref_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_ce_loss_grad(logits, targets, mask):
    """Plain softmax cross-entropy over pixels selected by mask.

    targets holds soft class weights over the logit axis (a one-hot row
    for hard labels). Returns the mean loss over masked pixels and its
    gradient with respect to the logits: (softmax - target) / count.
    """
    probs = ref_softmax(logits)
    count = int(mask.sum())
    losses = -(targets * np.log(np.maximum(probs, 1e-12))).sum(axis=-1)
    loss = float(losses[mask].sum() / count)
    grad = (probs - targets) * mask[..., None] / count
    return loss, grad


def random_taxonomy_instance(rng):
    """A random valid multi-dataset labeling problem.

    Builds a small concept forest (hypernym or holonym edges), adds
    synonym aliases for some nodes, then forms 1..3 label spaces whose
    classes are antichains of the forest (so classes within one dataset
    never share semantics). Returns (spaces, relation triples).
    """
    from htss.taxonomy import (
        BBOX,
        HOLONYM,
        HYPERNYM,
        IMAGE_TAG,
        PIXEL_DENSE,
        SYNONYM,
        LabelSpace,
    )

    n_roots = int(rng.integers(1, 4))
    nodes = [f"n{i}" for i in range(n_roots)]
    parent = {n: None for n in nodes}
    triples = []
    # grow children under random existing nodes
    for _ in range(int(rng.integers(0, 4))):
        if len(nodes) >= 7:
            break
        base = nodes[int(rng.integers(len(nodes)))]
        child = f"{base}c{sum(1 for n in nodes if parent.get(n) == base)}"
        kind = HYPERNYM if rng.random() < 0.7 else HOLONYM
        triples.append((kind, base, child))
        parent[child] = base
        nodes.append(child)

    alias_of = {}
    for n in list(nodes):
        if rng.random() < 0.3:
            alias = f"{n}x"
            alias_of[n] = alias
            triples.append((SYNONYM, n, alias))

    def ancestors(n):
        out = set()
        while parent.get(n) is not None:
            n = parent[n]
            out.add(n)
        return out

    n_spaces = int(rng.integers(1, 4))
    spaces = []
    total_classes = 0
    for si in range(n_spaces):
        order = list(rng.permutation(len(nodes)))
        chosen = []
        for oi in order:
            node = nodes[oi]
            if len(chosen) >= 3 or total_classes + len(chosen) >= 8:
                break
            ok = all(node not in ancestors(c) and c not in ancestors(node)
                     for c in chosen)
            if ok:
                chosen.append(node)
        if not chosen:
            chosen = [nodes[int(rng.integers(len(nodes)))]]
        names = []
        for node in chosen:
            if node in alias_of and rng.random() < 0.5:
                names.append(alias_of[node])
            else:
                names.append(node)
        total_classes += len(names)
        if si == 0:
            kind = PIXEL_DENSE
        else:
            kind = [PIXEL_DENSE, BBOX, IMAGE_TAG][int(rng.integers(3))]
        spaces.append(LabelSpace(dataset_id=f"d{si}", classes=("void",) + tuple(names),
                                 supervision=kind))
    return spaces, triples


TRAILING_LENGTHS = list(range(1, 13)) + [31, 330]


def trailing_axis_arrays(k, seed):
    """Inputs for bit checks of reductions over a trailing axis of k
    entries: a (4, 5, k) float64 array of magnitudes 1e-8 to 1e8 with
    random signs, scattered +0.0 and -0.0 and one all -0.0 row, followed
    by its head-slice views x[..., :cut] and x[..., cut:]."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], (4, 5, k)) * 10.0 ** rng.uniform(-8.0, 8.0, (4, 5, k))
    x[rng.random(x.shape) < 0.15] = 0.0
    x[rng.random(x.shape) < 0.15] = -0.0
    x[0, 0] = -0.0
    cut = (k + 1) // 2
    return [x, x[..., :cut], x[..., cut:]] if k > 1 else [x]
