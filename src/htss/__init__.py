"""htss: training semantic segmentation on heterogeneous datasets.

Merges conflicting dataset label spaces into a taxonomy of semantic
atoms, converts weak annotations (boxes, tags) into per-pixel
pseudo-labels, trains a small per-pixel classifier over the atoms with
exact hand-derived gradients, and evaluates with IoU, mIoU, and
Knowledgeability. Everything is seeded and deterministic.
"""

__version__ = "0.1.0"

from .annotations import (
    PseudoCanvas,
    StrongLabel,
    WeakLabel,
    canvas_from_boxes,
    canvas_from_tags,
    refine_canvas,
    strong_to_canvas,
)
from .lossgrad import (
    accumulate_groups,
    batch_loss,
    group_index,
    merge_subclass_predictions,
    softmax_atoms,
)
from .metrics import ConfusionMatrix, MetricReport, iou_per_class, knowledgeability, miou
from .model import (
    BatchPlan,
    MicroNetParams,
    OptimizerState,
    backward,
    evaluate,
    forward,
    init_micronet,
    load_checkpoint,
    predict_atoms,
    save_checkpoint,
    sgd_step,
    train_loop,
)
from .synthgen import View, WorldSpec, emit_dataset, generate_scene, load_dataset
from .taxonomy import (
    AtomPartition,
    LabelSpace,
    RelationTable,
    Taxonomy,
    build_group_sets,
    build_semantic_atoms,
    partition_atoms,
    validate_taxonomy,
)
