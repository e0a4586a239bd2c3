"""Command-line entry point: dataset generation, pre-training, fine-tuning,
evaluation, gradient checking, and dataset stats."""

import argparse
import json
import os
import sys

from . import blas
from . import data as data_mod
from . import evaluation
from . import objectives
from . import training
from . import transfer
from .data import DataError, SyntheticConfig
from .encoders import ModelConfig
from .model import RecModel
from .objectives import ObjectiveConfig
from .training import TrainConfig
from .transfer import BundleError, TRANSFER_MODES


class ConfigError(ValueError):
    pass


def _parse_top_blocks(v):
    if v == "all":
        return "all"
    return int(v)


# key -> (parser, default)
SCHEMA = {
    # model
    "d": (int, 32),
    "n_heads": (int, 4),
    "ffn_mult": (int, 4),
    "vocab_size": (int, 100),
    "p_max": (int, 8),
    "q": (int, 4),
    "patch_dim": (int, 6),
    "text_blocks": (int, 2),
    "vision_blocks": (int, 2),
    "user_blocks": (int, 2),
    "l_max": (int, 20),
    # training
    "learning_rate": (float, 1e-3),
    "weight_decay": (float, 0.01),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "adam_eps": (float, 1e-8),
    "max_epochs": (int, 500),
    "patience": (int, 10),
    "batch_size": (int, 16),
    "grad_clip": (float, 0.0),
    "trainable_top_blocks": (_parse_top_blocks, "all"),
    "objectives": (str, "dap,nicl,nid,rcl"),
    "shuffle_rate": (float, 0.15),
    "replace_rate": (float, 0.05),
    "rcl_pooling": (str, "mean"),
    # synthetic data
    "n_users": (int, 200),
    "n_users_target": (int, -1),  # -1: same as n_users
    "n_items": (int, 50),
    "seq_min": (int, 8),
    "seq_max": (int, 16),
    "p_min": (int, 4),
    "n_latent_styles": (int, 4),
    "n_slots": (int, 4),
    "transition_noise": (float, 0.0),
    # misc
    "seed": (int, 0),
    "min_interactions": (int, 5),
    "cold_threshold": (int, 10),
}


def parse_config(path=None, overrides=()):
    """Config file of `key = value` lines (# comments) plus overrides."""
    cfg = {k: d for k, (_, d) in SCHEMA.items()}

    def apply(key, value, origin):
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{origin}: unknown key {key!r}")
        parser = SCHEMA[key][0]
        try:
            cfg[key] = parser(value.strip())
        except ValueError:
            raise ConfigError(f"{origin}: bad value for {key!r}: {value!r}") from None

    if path:
        try:
            lines = open(path).read().splitlines()
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from None
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, value = line.split("=", 1)
            apply(key, value, f"{path}:{lineno}")
    for pair in overrides:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r}: expected key=value")
        key, value = pair.split("=", 1)
        apply(key, value, f"override {pair!r}")
    return cfg


def dump_config(cfg):
    return "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg)) + "\n"


def write_resolved_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.txt"), "w") as f:
        f.write(dump_config(cfg))


# model-size configuration key -> the ModelConfig field it sets
MODEL_KEYS = {
    "d": "d", "n_heads": "n_heads", "ffn_mult": "ffn_mult",
    "vocab_size": "vocab_size", "p_max": "p_max", "q": "q",
    "patch_dim": "patch_dim", "text_blocks": "text_blocks",
    "vision_blocks": "vision_blocks", "user_blocks": "user_blocks",
    "l_max": "L_max",
}


def model_config(cfg, modality="both"):
    return ModelConfig(**{f: cfg[k] for k, f in MODEL_KEYS.items()},
                       modality=modality)


def with_model_keys(cfg, mcfg):
    """`cfg` with its model-size keys read from `mcfg`, the configuration of
    a model loaded from a bundle, which keeps its sizes whatever `cfg` says."""
    return {**cfg, **{k: getattr(mcfg, f) for k, f in MODEL_KEYS.items()}}


def train_config(cfg):
    return TrainConfig(
        learning_rate=cfg["learning_rate"], weight_decay=cfg["weight_decay"],
        beta1=cfg["beta1"], beta2=cfg["beta2"], adam_eps=cfg["adam_eps"],
        max_epochs=cfg["max_epochs"], patience=cfg["patience"],
        B=cfg["batch_size"], L_max=cfg["l_max"], seed=cfg["seed"],
        grad_clip=cfg["grad_clip"],
        trainable_top_blocks=cfg["trainable_top_blocks"],
    )


def objective_config(cfg):
    names = [n.strip() for n in cfg["objectives"].split(",") if n.strip()]
    valid = {"dap", "vcl", "icl", "nicl", "nid", "rcl"}
    unknown = set(names) - valid
    if unknown:
        raise ConfigError(f"objectives: unknown names {sorted(unknown)}")
    contrastive = [n for n in names if n in objectives.CONTRASTIVE_VARIANTS]
    if len(contrastive) > 1:
        raise ConfigError("objectives: enable at most one of vcl/icl/nicl")
    if not names:
        raise ConfigError("objectives: enable at least one")
    return ObjectiveConfig(
        dap="dap" in names,
        contrastive=contrastive[0] if contrastive else None,
        nid="nid" in names, rcl="rcl" in names,
        shuffle_rate=cfg["shuffle_rate"], replace_rate=cfg["replace_rate"],
        rcl_pooling=cfg["rcl_pooling"],
    )


def synthetic_config(cfg):
    return SyntheticConfig(
        n_users=cfg["n_users"], n_items=cfg["n_items"],
        n_users_target=None if cfg["n_users_target"] == -1 else cfg["n_users_target"],
        L_min=cfg["seq_min"], L_max=cfg["seq_max"], vocab_size=cfg["vocab_size"],
        p_min=cfg["p_min"], p_max=cfg["p_max"], q=cfg["q"],
        patch_dim=cfg["patch_dim"], n_latent_styles=cfg["n_latent_styles"],
        n_slots=cfg["n_slots"],
        transition_noise=cfg["transition_noise"], seed=cfg["seed"],
    )


def _dataset_paths(data_dir, which):
    return (os.path.join(data_dir, f"{which}_items.tsv"),
            os.path.join(data_dir, f"{which}_interactions.tsv"))


def _load_split(cfg, data_dir, which):
    items_path, interactions_path = _dataset_paths(data_dir, which)
    dataset = data_mod.load_dataset(items_path, interactions_path)
    split = data_mod.filter_and_split(dataset, cfg["min_interactions"])
    if not split.train:
        raise DataError(f"{interactions_path}: no user keeps 3 or more interactions "
                        f"after filtering with min_interactions={cfg['min_interactions']}")
    return split


def _write_log(log, out_dir):
    with open(os.path.join(out_dir, "log.jsonl"), "w") as f:
        for entry in log:
            f.write(json.dumps(entry, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg, args):
    source, target = data_mod.generate_synthetic(synthetic_config(cfg))
    os.makedirs(args.out, exist_ok=True)
    data_mod.save_dataset(source, *_dataset_paths(args.out, "source"))
    data_mod.save_dataset(target, *_dataset_paths(args.out, "target"))
    write_resolved_config(cfg, args.out)
    print(f"wrote source ({len(source.users)} users) and target "
          f"({len(target.users)} users) datasets to {args.out}")
    return 0


def cmd_stats(cfg, args):
    present = [which for which in ("source", "target")
               if os.path.exists(_dataset_paths(args.data, which)[0])]
    if not present:
        raise DataError(f"no source or target dataset in {args.data}")
    for which in present:
        dataset = data_mod.load_dataset(*_dataset_paths(args.data, which))
        print(data_mod.stats_report(dataset, which))
    return 0


def cmd_pretrain(cfg, args):
    tcfg, ocfg = train_config(cfg), objective_config(cfg)
    split = _load_split(cfg, args.data, "source")
    model = RecModel.init(model_config(cfg), cfg["seed"])
    log = training.pretrain(model, split, tcfg, ocfg)
    os.makedirs(args.out, exist_ok=True)
    transfer.save_bundle(model, os.path.join(args.out, "pretrained.bundle"))
    _write_log(log, args.out)
    write_resolved_config(cfg, args.out)
    print(f"pretrained {len(log) - 1} epochs, "
          f"best val HR@10 {max(e['val_hr10'] for e in log):.4f}")
    return 0


def cmd_finetune(cfg, args):
    split = _load_split(cfg, args.data, "target")
    if args.bundle and args.bundle != "none":
        model = transfer.load_components(args.bundle, args.mode, cfg["seed"])
        cfg = with_model_keys(cfg, model.cfg)
    else:
        modality = transfer.MODE_MODALITY[args.mode]
        model = RecModel.init(model_config(cfg, modality), cfg["seed"])
    log = training.finetune(model, split, train_config(cfg))
    os.makedirs(args.out, exist_ok=True)
    transfer.save_bundle(model, os.path.join(args.out, "finetuned.bundle"))
    _write_log(log, args.out)
    write_resolved_config(cfg, args.out)
    print(f"finetuned {len(log) - 1} epochs, "
          f"best val HR@10 {max(e['val_hr10'] for e in log):.4f}")
    return 0


def _cmd_eval(cfg, args, cold):
    if cfg["cold_threshold"] < 0:  # before any phase runs
        raise ConfigError(f"cold threshold={cfg['cold_threshold']} must be non-negative")
    split = _load_split(cfg, args.data, args.dataset)
    model = transfer.model_from_bundle(args.bundle)
    cfg = with_model_keys(cfg, model.cfg)
    if cold:
        phases = ["cold"]
    elif args.phase == "all":
        # one model and catalog, so the three share one item index
        phases = ["valid", "test", "cold"]
    else:
        phases = [args.phase]
    lines = {}  # output file -> report lines
    for phase in phases:
        if phase == "cold":
            report = evaluation.evaluate_cold_start(
                model, split, threshold=cfg["cold_threshold"],
                dataset=args.dataset)
        else:
            report = evaluation.evaluate(model, split, phase=phase,
                                         dataset=args.dataset)
        print(report.to_text())
        name = "cold_metrics.jsonl" if phase == "cold" else "metrics.jsonl"
        lines.setdefault(name, []).append(report.to_json() + "\n")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, reports in lines.items():
            with open(os.path.join(args.out, name), "w") as f:
                f.write("".join(reports))
        write_resolved_config(cfg, args.out)
    return 0


def cmd_grad_check(cfg, args):
    from .gradcheck import run_gradient_checks
    results = run_gradient_checks(seed=cfg["seed"])
    ok = True
    for name, rel in results.items():
        passed = rel <= 1e-4
        ok = ok and passed
        print(f"{name:<8} max_rel_error={rel:.3e}  {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmrec",
        description="desk-scale multi-modal sequential recommender pipeline")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("-o", "--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a configuration key")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write synthetic source/target datasets")
    p.add_argument("--out", required=True)

    p = sub.add_parser("stats", help="dataset summary table")
    p.add_argument("--data", required=True)

    p = sub.add_parser("pretrain", help="multi-task pre-training on the source")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("finetune", help="next-item fine-tuning on the target")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bundle", default="none",
                   help="pre-trained bundle, or 'none' for from-scratch")
    p.add_argument("--mode", default="full", choices=TRANSFER_MODES)

    for name in ("evaluate", "cold-eval"):
        p = sub.add_parser(name)
        p.add_argument("--data", required=True)
        p.add_argument("--bundle", required=True)
        p.add_argument("--dataset", default="target", choices=("source", "target"))
        if name == "evaluate":
            p.add_argument("--phase", default="test", choices=("valid", "test", "all"),
                           help="'all' runs valid, test and cold-eval on one loaded model")
        p.add_argument("--out", default=None)

    sub.add_parser("grad-check", help="finite-difference check of all objectives")
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "stats": cmd_stats,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": lambda cfg, args: _cmd_eval(cfg, args, cold=False),
    "cold-eval": lambda cfg, args: _cmd_eval(cfg, args, cold=True),
    "grad-check": cmd_grad_check,
}


def run(argv):
    args = build_parser().parse_args(argv)
    cfg = parse_config(args.config, args.overrides)
    return COMMANDS[args.command](cfg, args)


def _pin_blas_to_one_thread():
    """Set the loaded OpenBLAS to one thread: at two or more, long inner
    dimensions of a product are split across threads and its last bits
    depend on the thread count. Returns False if no OpenBLAS is loaded."""
    return blas.set_threads(1)


def main(argv=None):
    if not _pin_blas_to_one_thread():
        print("warning: no OpenBLAS found to pin to one thread; results may "
              "depend on the BLAS thread count", file=sys.stderr)
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (ConfigError, DataError, BundleError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
