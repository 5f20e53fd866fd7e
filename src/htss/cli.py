"""Command-line front end: gen, taxonomy, pseudolabel, train, eval.

Every subcommand reads a flat JSON config (--config), with --out
overriding the output directory and --print-config dumping the
defaults; gen and train also take --seed, which overrides the world
spec's seed and the training seed respectively. Configs, world specs,
label spaces and manifests reject unknown keys. Outputs are
deterministic: rerunning a subcommand with the same config writes
byte-identical files; a failed gen, taxonomy, train or eval writes none.

Exit codes: 0 success, 2 config error (configs, world specs, quotas,
c_values and n_t below 1), 4 numeric failure, 3 any data error. The
HTSS_LOG environment variable sets log verbosity (DEBUG, INFO, WARNING,
..., in any case; anything else means WARNING, with a note on stderr);
logs go to stderr and never into output files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .errors import ConfigError, DataError, HTSSError, NumericError
from .metrics import MetricReport, json_number
from .model import (BatchPlan, OptimizerState, evaluate, load_checkpoint,
                    save_checkpoint, train_loop)
from .synthgen import (
    View,
    WorldSpec,
    emit_dataset,
    load_dataset,
    relation_triples,
    view_space,
)
from .annotations import weak_canvas
from .taxonomy import (
    WEAK_KINDS,
    AtomPartition,
    RelationTable,
    build_group_sets,
    build_semantic_atoms,
    partition_atoms,
    validate_taxonomy,
)

log = logging.getLogger("htss")

# per subcommand, each config key -> (type, default)
DEFAULTS: dict[str, dict] = {
    "gen": {
        "world": (str, "world.json"),
        "out": (str, "data"),
    },
    "taxonomy": {
        "label_spaces": (list[str], []),
        "relations": (str, ""),
        "partition": (bool, False),
        "out": (str, "taxonomy_out"),
    },
    "pseudolabel": {
        "manifests": (list[str], []),
        "out": (str, "canvases"),
    },
    "train": {
        "manifests": (list[str], []),
        "relations": (str, ""),
        "quotas": (dict[str, int], {}),
        "learning_rate": (float, 0.2),
        "momentum": (float, 0.9),
        "epochs": (int, 1),
        "refine_threshold": (float, 0.9),
        "feature_width": (int, 8),
        "partition": (bool, False),
        "seed": (int, 0),
        "out": (str, "train_out"),
    },
    "eval": {
        "checkpoint": (str, ""),
        "manifests": (list[str], []),
        "train_label_spaces": (list[str], []),
        "relations": (str, ""),
        "partition": (bool, False),
        "c_values": (list[int], []),
        "n_t": (int, 10),
        "out": (str, "eval_out"),
    },
}


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def _load_config(command: str, args) -> dict:
    if args.config is None:
        raise ConfigError("missing --config (use --print-config to see defaults)")
    cfg = formats.checked_fields(_read_json(args.config, "config"), DEFAULTS[command],
                                 "config", ConfigError)
    if args.out is not None:
        cfg["out"] = args.out
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def _require_paths(cfg: dict, key: str) -> list[str]:
    if not cfg[key]:
        raise ConfigError(f"config key {key!r} must be a non-empty list of paths")
    return cfg[key]


def _read_relations(path: str) -> RelationTable:
    if not path:
        return RelationTable.empty()
    return formats.read_relations(path)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(cfg: dict) -> None:
    doc = _read_json(cfg["world"], "world spec")
    world = WorldSpec.from_dict(doc)  # checks every key of doc, 'views' too
    if not doc.get("views"):
        raise ConfigError("world spec needs a non-empty 'views' list")
    if "seed" in cfg:  # only --seed sets it: a gen config has no seed key
        world = replace(world, seed=cfg["seed"])
    views = [View.from_dict(v) for v in doc["views"]]
    if len({v.dataset_id for v in views}) != len(views):
        raise ConfigError("duplicate dataset_id among views")
    for view in views:  # class selections fail here, before anything is written
        view_space(world, view)
    out = _out_dir(cfg)
    for view in views:
        manifest = emit_dataset(world, view, out)
        log.info("wrote %s", manifest.path)
    formats.write_relations(out / "relations.tsv", relation_triples(world))
    log.info("wrote %s", out / "relations.tsv")


def _build_taxonomy(spaces, relations):
    atoms = build_semantic_atoms(spaces, relations)
    return build_group_sets(atoms, spaces, relations)


def cmd_taxonomy(cfg: dict) -> None:
    spaces = [formats.read_label_space(p) for p in _require_paths(cfg, "label_spaces")]
    relations = _read_relations(cfg["relations"])
    tax = _build_taxonomy(spaces, relations)
    report = validate_taxonomy(tax, spaces)
    part = partition_atoms(tax, spaces, relations) if cfg["partition"] else None
    out = _out_dir(cfg)
    formats.write_taxonomy(out / "taxonomy.json", tax, spaces)
    formats.write_manifest(out / "validation.json", {
        "valid": report.is_valid,
        "violations": [
            {"kind": v.kind, "dataset_id": v.dataset_id, "detail": v.detail}
            for v in report.violations
        ],
    })
    if part is not None:
        formats.write_manifest(out / "partition.json", {
            "atoms": list(part.atoms),
            "a_set": [part.atom_name(i) for i in sorted(part.a_set)],
            "s_set": [part.atom_name(i) for i in sorted(part.s_set)],
            "p_set": [part.atom_name(i) for i in sorted(part.p_set)],
            "parent_of": {part.atom_name(s): part.atom_name(p)
                          for s, p in sorted(part.parent_of.items())},
        })
    log.info("taxonomy written to %s (%d atoms, valid=%s)", out, tax.atom_count,
             report.is_valid)


def cmd_pseudolabel(cfg: dict) -> None:
    datasets = [load_dataset(p) for p in _require_paths(cfg, "manifests")]
    for ds in datasets:
        if ds.supervision not in WEAK_KINDS:
            raise DataError(
                f"dataset {ds.dataset_id!r} has supervision {ds.supervision!r}; "
                "pseudolabel needs a box or tag dataset")
    # every manifest is loaded and checked first: a failed pseudolabel writes nothing
    out = _out_dir(cfg)
    for ds in datasets:
        (out / ds.dataset_id).mkdir(parents=True, exist_ok=True)
        num = ds.space.num_classes
        for i, (image, label) in enumerate(zip(ds.images, ds.labels)):
            h, w = image.shape[:2]
            canvas = weak_canvas(label, ds.supervision, h, w, num)
            formats.write_raster(out / ds.dataset_id / f"canvas_{i:05d}.rast",
                                 canvas.probs.astype(np.float32))
        log.info("wrote %d canvases for %s", len(ds.images), ds.dataset_id)


def cmd_train(cfg: dict) -> None:
    paths = _require_paths(cfg, "manifests")
    # an unquoted dataset would shape the taxonomy without ever being trained on
    ids = {formats.read_manifest(p)["dataset_id"] for p in paths}
    quoted = set(cfg["quotas"])
    if ids != quoted:
        raise ConfigError(f"'manifests' and 'quotas' must name the same datasets; no quota: "
                          f"{sorted(ids - quoted)}, no manifest: {sorted(quoted - ids)}")
    datasets = [load_dataset(p) for p in paths]
    spaces = [ds.space for ds in datasets]
    relations = _read_relations(cfg["relations"])
    tax = _build_taxonomy(spaces, relations)
    partition = partition_atoms(tax, spaces, relations) if cfg["partition"] else None
    plan = BatchPlan(quotas=cfg["quotas"], seed=cfg["seed"])
    optimizer = OptimizerState(learning_rate=cfg["learning_rate"], momentum=cfg["momentum"])
    result = train_loop(datasets, tax, partition, plan, optimizer, cfg["epochs"],
                        cfg["refine_threshold"], feature_width=cfg["feature_width"])
    # training ran to the end: a failed train leaves no output tree
    out = _out_dir(cfg)
    save_checkpoint(out / "final.ckpt", result.params)
    (out / "losses.csv").write_text("step,loss\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(result.losses)), encoding="utf-8")
    log.info("trained %d steps, final loss %.6f", len(result.losses),
             result.losses[-1])


def cmd_eval(cfg: dict) -> None:
    if not cfg["checkpoint"]:
        raise ConfigError("config key 'checkpoint' is required")
    if cfg["n_t"] < 1 or min(cfg["c_values"], default=1) < 1:
        raise ConfigError(f"config keys 'c_values' and 'n_t' must be >= 1, "
                          f"got {cfg['c_values']} and {cfg['n_t']}")
    params = load_checkpoint(cfg["checkpoint"])
    spaces = [formats.read_label_space(p)
              for p in _require_paths(cfg, "train_label_spaces")]
    relations = _read_relations(cfg["relations"])
    tax = _build_taxonomy(spaces, relations)
    part = (partition_atoms(tax, spaces, relations) if cfg["partition"]
            else AtomPartition.trivial(tax))

    reports = []
    for manifest_path in _require_paths(cfg, "manifests"):
        ds = load_dataset(manifest_path)
        cm = evaluate(params, part, ds, relations)
        reports.append(MetricReport.build(ds.dataset_id, ds.space.classes, cm,
                                          cfg["c_values"] or [ds.space.num_classes],
                                          cfg["n_t"]))
    # every manifest is evaluated first: a failed eval leaves no output tree
    out = _out_dir(cfg)
    for r in reports:
        formats.write_manifest(out / f"report_{r.dataset_id}.json", r.to_dict())
        (out / f"report_{r.dataset_id}.txt").write_text(r.to_text(), encoding="utf-8")
        log.info("%s mIoU %.4f", r.dataset_id, r.miou)
    formats.write_manifest(out / "summary.json", {
        "datasets": [r.dataset_id for r in reports],
        "mean_miou": json_number(float(np.mean([r.miou for r in reports]))),
    })


HANDLERS = {
    "gen": cmd_gen,
    "taxonomy": cmd_taxonomy,
    "pseudolabel": cmd_pseudolabel,
    "train": cmd_train,
    "eval": cmd_eval,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htss",
        description="Heterogeneous-supervision semantic segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gen": "generate synthetic dataset views from a world spec",
        "taxonomy": "merge label spaces and validate the taxonomy",
        "pseudolabel": "dump pseudo-label canvases for a weak dataset",
        "train": "train the per-pixel atom classifier",
        "eval": "evaluate a checkpoint (IoU, mIoU, Knowledgeability)",
    }
    for name in HANDLERS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", help="path to a JSON config")
        if name in ("gen", "train"):  # the subcommands that draw random numbers
            p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--print-config", action="store_true",
                       help="print the default config and exit")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("HTSS_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):  # not a level name
        print(f"HTSS_LOG={level!r} is not a log level; logging at WARNING", file=sys.stderr)
        level = "WARNING"
    logging.basicConfig(stream=sys.stderr, level=level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    if args.print_config:
        defaults = {key: d for key, (_, d) in DEFAULTS[args.command].items()}
        print(json.dumps(defaults, indent=2, sort_keys=True))
        return 0
    try:
        HANDLERS[args.command](_load_config(args.command, args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except HTSSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
