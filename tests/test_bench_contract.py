"""The names perfbench relies on, checked in the unit suite.

perfbench/spans.py wraps htss functions by their home "module:qualname",
and every workload in perfbench/workloads.py lists spans its traced run
must enter. A rename or a dropped call in htss would otherwise fail only
the benchmark's traced run. Both files are read as text and executed
into throwaway modules, so nothing is written under perfbench/.
"""

import hashlib
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from htss import model
from htss.annotations import StrongLabel, WeakLabel
from htss.model import BatchPlan, LoadedDataset, OptimizerState, train_loop
from htss.taxonomy import (
    BBOX,
    HYPERNYM,
    PIXEL_COARSE,
    PIXEL_DENSE,
    LabelSpace,
    RelationTable,
    build_group_sets,
    build_semantic_atoms,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# SHA-256 of losses.csv and final.ckpt after gen and train of each workload
# at seed 11, with one BLAS thread on scipy-openblas 0.3.31
SEED_11_BITS = {
    "dense-joint": ("ed449e6b8cf24b5b3b1d197cf1eefe02e02f4ea78f8b33dc31a15d0bb46b1cfb",
                    "6a22055e268689578e0a707d894004ba226f5d2f3124268e9483bdf10f4f35bc"),
    "weak-twohead": ("6d43a6a6df8e0735f64a91f6ee3ffae19a9f1a6bb29c61c45617490410cfe3a7",
                     "6e969d2a8528239f767b93d0fef4e58b2addeb9e9f28f153018c46919dde0fef"),
    "many-labels": ("c2cb77a065f19e50db503ab483fa8edabff395f9859a81e23fedbbb09f6e31ab",
                    "b19c6fbb82d158c1099edb13ec1849c16ddb0e7f546a23271edfae86c5b84353"),
}


def _blas() -> tuple:
    """(name, version) of the BLAS numpy was built with, () if it does not say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return ()
    return blas.get("name"), str(blas.get("version"))


def _load(name):
    """Execute perfbench/<name>.py into a fresh module, writing no bytecode."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def targets():
    return _load("spans").TARGETS


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_span_home_is_an_htss_function(targets):
    assert targets
    for span, (home, *_) in targets.items():
        module_name, qualname = home.split(":")
        assert module_name.startswith("htss."), span
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{span}: {home} does not resolve"
        # a classmethod resolves to a bound method of its function
        assert inspect.isfunction(getattr(obj, "__func__", obj)), \
            f"{span}: {home} is not a function"


def test_every_required_span_is_traced(targets, workloads):
    for name in workloads.NAMES:
        required = workloads.build(name, 11).required_spans
        assert required
        missing = sorted(set(required) - set(targets))
        assert not missing, f"{name} requires untraced spans {missing}"


def test_train_loop_builds_one_target_per_pixel_item(monkeypatch):
    # annotations.strong_to_canvas is a required span: train_loop must
    # call it, through the model module's alias, once per pixel item
    rng = np.random.default_rng(97)
    spaces = [LabelSpace("fine", ("void", "cat", "dog"), PIXEL_DENSE),
              LabelSpace("coarse", ("void", "animal"), PIXEL_COARSE),
              LabelSpace("boxes", ("void", "cat", "dog"), BBOX)]
    relations = RelationTable.from_triples(
        [(HYPERNYM, "animal", "cat"), (HYPERNYM, "animal", "dog")])
    tax = build_group_sets(build_semantic_atoms(spaces, relations), spaces, relations)
    datasets = []
    for space in spaces:
        images = [rng.random((4, 3, 2)) for _ in range(4)]
        if space.supervision == BBOX:
            labels = [WeakLabel(boxes=((1, 0, 0, 2, 2),))] * 4
        else:
            labels = [StrongLabel(rng.integers(0, space.num_classes + 1, size=(4, 3)),
                                  space.num_classes) for _ in range(4)]
        datasets.append(LoadedDataset(space=space, images=images, labels=labels))
    calls = []
    real = model.strong_to_canvas

    def counting(label, num_classes):
        calls.append(num_classes)
        return real(label, num_classes)

    monkeypatch.setattr(model, "strong_to_canvas", counting)
    quotas = {"fine": 2, "coarse": 1, "boxes": 3}
    res = train_loop(datasets, tax, None, BatchPlan(quotas=quotas, seed=13),
                     OptimizerState(learning_rate=0.1), epochs=2,
                     refine_threshold=0.5, feature_width=3)
    assert len(res.losses) == 8
    assert len(calls) == 8 * (quotas["fine"] + quotas["coarse"])  # not the boxes
    assert sorted(set(calls)) == [1, 2]


def test_traced_train_loop_counts_steps_backward_passes_and_gated_rows():
    # Train a pixel set and a box set under the tracer and check its counts.
    # The tracer reads batch_loss's items after the call returns, so the
    # gradient iterator must leave them as they were. One box class: every
    # voted row predicts it with probability 1, so the gate keeps them all
    spaces = [LabelSpace("px", ("void", "cat", "dog"), PIXEL_DENSE),
              LabelSpace("boxes", ("void", "cat"), BBOX)]
    relations = RelationTable.empty()
    tax = build_group_sets(build_semantic_atoms(spaces, relations), spaces, relations)
    rng = np.random.default_rng(61)
    images = [rng.random((5, 4, 3)) for _ in range(4)]
    px = LoadedDataset(spaces[0], images, [StrongLabel(rng.integers(1, 3, (5, 4)), 2)
                                           for _ in images])
    box_labels = [WeakLabel(boxes=((1, 0, 0, 2, 3),)), WeakLabel(),
                  WeakLabel(boxes=((1, 1, 1, 4, 4),)), WeakLabel()]
    boxes = LoadedDataset(spaces[1], images, box_labels)
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        res = model.train_loop([px, boxes], tax, None, BatchPlan({"px": 1, "boxes": 4}, 3),
                               OptimizerState(learning_rate=0.1), epochs=2,
                               refine_threshold=0.5, feature_width=3)
    finally:
        tracer.uninstall()
    assert model.train_loop is train_loop
    steps = len(res.losses)
    assert steps == 8  # 4 pixel images at quota 1, two epochs
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    # batch_loss is called once a chunk: the four box items, then the pixel item
    assert calls["lossgrad.batch_loss"] == steps * 2
    # the pixel item and the two voted boxes, each a pass over one image;
    # the FLOP counter, which reads the stacked shapes, counts three images
    # each way
    assert calls["model.forward"] == calls["model.backward"] == steps * (1 + 2)
    spans = _load("spans")
    p = model.init_micronet(3, 3, res.params.out_channels, seed=0)
    per_image = (spans._forward_flops((p, images[0]), None, None)
                 + spans._backward_flops((types.SimpleNamespace(params=p, shape=(5, 4)),),
                                         None, None))
    assert tracer.counters["model.flops"] == steps * (1 + 2) * per_image
    assert tracer.counters["gate.kept_px"] == steps * (2 * 3 + 3 * 3)
    assert tracer.counters["gate.raw_px"] == steps * (2 * 3 + 3 * 3)


@pytest.mark.skipif(_blas()[:1] != ("scipy-openblas",) or not _blas()[1].startswith("0.3.31"),
                    reason=f"seed-11 bits recorded with scipy-openblas 0.3.31, not {_blas()}")
def test_workloads_train_to_their_recorded_bits(workloads, tmp_path):
    # gen then train of each workload at seed 11, through the CLI in a fresh
    # interpreter with one BLAS thread as perfbench runs them, must write the
    # recorded losses.csv and final.ckpt byte for byte
    argv = []
    for name in SEED_11_BITS:
        configs = dict(workloads.write_documents(workloads.build(name, 11), tmp_path / name))
        argv += ["gen", str(configs["gen"]), "train", str(configs["train"])]
    script = ("import sys\nfrom htss.cli import main\n"
              "for cmd, config in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    if main([cmd, '--config', config]):\n"
              "        sys.exit(f'{cmd} {config} failed')\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name, want in SEED_11_BITS.items():
        run = tmp_path / name / "run"
        got = tuple(hashlib.sha256((run / f).read_bytes()).hexdigest()
                    for f in ("losses.csv", "final.ckpt"))
        assert got == want, name
