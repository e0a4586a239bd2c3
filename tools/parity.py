"""Byte-parity digests of one checkout, and their comparison.

    python tools/parity.py SRC OUT.json
    python tools/parity.py --compare A.json B.json

The first form imports `mmrec` from SRC/src with OpenBLAS pinned to one
thread and writes the sha256 of:
- `corr_rows` and `labels` of `corrupt_batch` on benchmark-config batches
  (B=64, L=12) at three shuffle/replace rate settings;
- the `total_loss` value, its parts and every parameter gradient on three
  transfer-config batches, and the value and gradients of `vcl` and of
  `icl` alone on each;
- the parameters after five `AdamW.step`s on seeded gradients: with no
  clip, with a clip that is active, and with one parameter whose gradient
  is None;
- the `encode_prefixes` states and the `evaluate` reports of the valid,
  test and cold prefixes on a split shaped like the benchmark's rank
  workload (5000 users, 2000 items), and on a copy of it whose catalog ids
  are spread far apart, so that the item index maps them by a sorted
  search and not by its id table; and the same on the first split with a
  user encoder of two blocks (`ub2`), whose block 0 is a full block;
- the synthetic source and target of every generator config above
  (users, styles, types, and each item's tokens and patch bytes), so the
  generator's draw sequence is pinned;
- the CLI pipeline gen-data -> pretrain -> finetune --mode full ->
  evaluate --phase all: the four data files, both bundles, both metrics
  files and both `log.jsonl` files with `seconds` left out.

It also writes every gradient and every array of prefix states to OUT.npz
beside OUT.json.

The second form prints every entry whose digest differs or is missing on
one side, and exits 1 if there is any. For a differing `grad/` or
`prefixes/` entry it also prints max|a - b| over the largest entry in A of
that loss's gradients or of those states, when both files have their
`.npz` beside them.
"""

import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

RATES = ((0.15, 0.05), (0.5, 0.3), (1.0, 1.0))
CORRUPTION_SEED, CORRUPTION_USERS, CORRUPTION_ITEMS = 7301, 1300, 200
LOSS_SEEDS, LOSS_USERS, LOSS_ITEMS = (7311, 7312, 7313), 500, 100
ADAMW_SEED, ADAMW_STEPS = 7341, 5
# (name, grad_clip, the parameter whose gradient is None)
ADAMW_RUNS = (("noclip", 0.0, None), ("clip", 1e-3, None),
              ("nograd", 0.0, "user_encoder.b0.w1"))
RANK_SEED, RANK_USERS, RANK_ITEMS, COLD_THRESHOLD = 7331, 5000, 2000, 10
CLI_CONFIG = ("n_users=300", "n_users_target=60", "n_items=40", "max_epochs=3",
              "batch_size=32", "seed=7321")


def digest(data):
    if not isinstance(data, bytes):
        data = repr((data.dtype.str, data.shape)).encode() + data.tobytes()
    return hashlib.sha256(data).hexdigest()


def synthetic(data, seed, n_users, n_items):
    return data.generate_synthetic(data.SyntheticConfig(
        n_users=n_users, n_users_target=max(2, n_users // 10), n_items=n_items,
        n_latent_styles=4, n_slots=4, transition_noise=0.1, L_min=8, L_max=12,
        vocab_size=100, p_min=4, p_max=8, q=4, patch_dim=6, seed=seed))


def source_split(data, seed, n_users, n_items):
    source, _ = synthetic(data, seed, n_users, n_items)
    return data.filter_and_split(source, min_interactions=5)


def dataset_digest(ds):
    h = hashlib.sha256(repr((ds.users, sorted(ds.styles.items()),
                             sorted(ds.types.items()))).encode())
    for idx in sorted(ds.items):
        rec = ds.items[idx]
        h.update(repr((idx, rec.tokens, rec.patches.dtype.str,
                       rec.patches.shape)).encode())
        h.update(rec.patches.tobytes())
    return h.hexdigest()


def data_digests():
    from mmrec import data
    out = {}
    for seed, n_users, n_items in (
            (CORRUPTION_SEED, CORRUPTION_USERS, CORRUPTION_ITEMS),
            *((seed, LOSS_USERS, LOSS_ITEMS) for seed in LOSS_SEEDS),
            (RANK_SEED, RANK_USERS, RANK_ITEMS)):
        for name, ds in zip(("source", "target"), synthetic(data, seed, n_users, n_items)):
            out[f"data/{seed}/{name}"] = dataset_digest(ds)
    return out


def corruption_digests():
    from mmrec import data, objectives
    split = source_split(data, CORRUPTION_SEED, CORRUPTION_USERS, CORRUPTION_ITEMS)
    out = {}
    for shuffle_rate, replace_rate in RATES:
        cfg = objectives.ObjectiveConfig(shuffle_rate=shuffle_rate,
                                         replace_rate=replace_rate)
        for b, batch in enumerate(data.make_batches(split, 64, 12, CORRUPTION_SEED)):
            ctx = objectives.BatchContext(cfg, batch)
            key = f"corrupt/{shuffle_rate}-{replace_rate}/{b}"
            out[key + "/corr_rows"] = digest(ctx.corr_rows)
            out[key + "/labels"] = digest(ctx.labels)
    return out


def transfer_config():
    from mmrec.encoders import ModelConfig
    return ModelConfig(d=32, n_heads=4, ffn_mult=2, vocab_size=100, p_max=8, q=4,
                       patch_dim=6, text_blocks=1, vision_blocks=1, fusion_blocks=1,
                       user_blocks=1, L_max=12)


def loss_digests(arrays):
    """Digests of the losses and gradients; each gradient is also put into
    `arrays` under its digest's key."""
    import numpy as np
    from mmrec import data, objectives
    from mmrec.model import RecModel
    out = {}
    for seed in LOSS_SEEDS:
        model = RecModel.init(transfer_config(), seed)
        batch = data.make_batches(source_split(data, seed, LOSS_USERS, LOSS_ITEMS), 64, 12, seed)[0]
        loss, parts = objectives.total_loss(model, batch, objectives.ObjectiveConfig())
        loss.backward()
        out[f"loss/{seed}/total"] = digest(np.float64(loss.item()))
        for name, value in parts.items():
            out[f"loss/{seed}/{name}"] = digest(np.float64(value))
        grad_digests(model, f"grad/{seed}/", out, arrays)
        # the contrastive variants that the total leaves out, each alone
        for variant in ("vcl", "icl"):
            model.zero_grad()
            loss, _ = objectives.total_loss(model, batch, objectives.ObjectiveConfig(
                dap=False, contrastive=variant, nid=False, rcl=False))
            loss.backward()
            out[f"loss/{seed}/{variant}"] = digest(np.float64(loss.item()))
            grad_digests(model, f"grad/{variant}/{seed}/", out, arrays)
    return out


def grad_digests(model, prefix, out, arrays):
    for name, t in model.named_parameters():
        if t.grad is not None:
            out[prefix + name] = digest(t.grad)
            arrays[prefix + name] = t.grad


def adamw_digests():
    import numpy as np
    from mmrec import training
    from mmrec.model import RecModel
    out = {}
    for name, grad_clip, no_grad in ADAMW_RUNS:
        params = RecModel.init(transfer_config(), ADAMW_SEED).trainable_parameters()
        opt = training.AdamW(params, training.TrainConfig(learning_rate=1e-2,
                                                          grad_clip=grad_clip))
        rng = np.random.default_rng(ADAMW_SEED)
        for _ in range(ADAMW_STEPS):
            for pname, t in params:
                t.grad = None if pname == no_grad else rng.normal(size=t.shape)
            opt.step()
        out[f"adamw/{name}"] = digest(np.concatenate([t.data.reshape(-1)
                                                      for _, t in params]))
    return out


def spread_ids(data, split):
    """`split` with catalog id i renamed 1000003 * i - 10**9: the same order,
    spanning far more ids than the item index holds values."""
    def spread(i):
        return 1000003 * i - 10**9
    return data.SplitDataset(
        items={spread(i): data.ItemRecord(spread(i), rec.tokens, rec.patches)
               for i, rec in split.items.items()},
        train=[[spread(i) for i in seq] for seq in split.train],
        valid=[spread(i) for i in split.valid], test=[spread(i) for i in split.test])


def prefix_digests(arrays):
    """Digests of the prefix states and the reports; each array of states is
    also put into `arrays` under its digest's key."""
    from mmrec import data, evaluation, transfer
    from mmrec.model import RecModel
    one_block = RecModel.init(transfer_config(), RANK_SEED)
    two_blocks = RecModel.init(dataclasses.replace(transfer_config(), user_blocks=2),
                               RANK_SEED)
    dense = source_split(data, RANK_SEED, RANK_USERS, RANK_ITEMS)
    out = {}
    for name, model, split in (("dense", one_block, dense),
                               ("spread", one_block, spread_ids(data, dense)),
                               ("ub2", two_blocks, dense)):
        index = transfer.build_item_index(model, split.items)
        cold = data.cold_item_subsequences(split, COLD_THRESHOLD)
        prefixes = {
            "valid": split.train,
            "test": [list(seq) + [v] for seq, v in zip(split.train, split.valid)],
            "cold": [p for p, _ in cold]}
        for kind, part in prefixes.items():
            states = transfer.encode_prefixes(model, part, split.items, index,
                                              model.cfg.L_max)
            out[f"prefixes/{name}/{kind}"] = digest(states)
            arrays[f"prefixes/{name}/{kind}"] = states
        reports = [evaluation.evaluate(model, split, phase=kind) for kind in ("valid", "test")]
        reports.append(evaluation.evaluate_cold_start(model, split, COLD_THRESHOLD))
        for report in reports:
            out[f"rank/{name}/{report.phase}"] = digest(report.to_json().encode())
    return out


def cli_digests():
    from mmrec import cli
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        data, pre, ft, ev = (os.path.join(tmp, d) for d in ("data", "pre", "ft", "ev"))
        config = [arg for kv in CLI_CONFIG for arg in ("-o", kv)]
        for command in (["gen-data", "--out", data],
                        ["pretrain", "--data", data, "--out", pre],
                        ["finetune", "--data", data, "--out", ft, "--mode", "full",
                         "--bundle", os.path.join(pre, "pretrained.bundle")],
                        ["evaluate", "--data", data, "--phase", "all", "--out", ev,
                         "--bundle", os.path.join(ft, "finetuned.bundle")]):
            with contextlib.redirect_stdout(sys.stderr):
                if cli.main(config + command) != 0:
                    raise SystemExit(f"mmrec {command[0]} failed")
        for path in (*(os.path.join(data, f"{which}_{part}.tsv")
                       for which in ("source", "target")
                       for part in ("items", "interactions")),
                     os.path.join(pre, "pretrained.bundle"),
                     os.path.join(ft, "finetuned.bundle"),
                     os.path.join(ev, "metrics.jsonl"),
                     os.path.join(ev, "cold_metrics.jsonl")):
            with open(path, "rb") as f:
                out["cli/" + os.path.relpath(path, tmp)] = digest(f.read())
        for run in (pre, ft):
            with open(os.path.join(run, "log.jsonl")) as f:
                entries = [{k: v for k, v in json.loads(line).items() if k != "seconds"}
                           for line in f]
            out[f"cli/{os.path.basename(run)}/log.jsonl"] = digest(
                json.dumps(entries, sort_keys=True).encode())
    return out


def write_digests(src, out_path):
    sys.path.insert(0, os.path.join(os.path.abspath(src), "src"))
    import numpy as np
    import mmrec
    arrays = {}
    out = {**corruption_digests(), **loss_digests(arrays), **adamw_digests(),
           **prefix_digests(arrays), **data_digests(), **cli_digests()}
    np.savez(arrays_path(out_path), **arrays)
    with open(out_path, "w") as f:
        json.dump({"mmrec": os.path.dirname(mmrec.__file__), "digests": out},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(out)} digests of {src} written to {out_path}")
    return 0


def arrays_path(out_path):
    return os.path.splitext(out_path)[0] + ".npz"


def load_digests(path):
    with open(path) as f:
        return json.load(f)["digests"]


def load_arrays(path):
    import numpy as np
    if not os.path.exists(arrays_path(path)):
        return {}
    with np.load(arrays_path(path)) as f:
        return dict(f)


# the key prefixes of the arrays in OUT.npz, and the name of each kind
MOVED = {"grad/": "gradient", "prefixes/": "state"}


def scale_key(key):
    """What an array's move is measured against: all the gradients of its
    loss, or the array of states itself."""
    return key.rsplit("/", 1)[0] if key.startswith("grad/") else key


def array_moves(a_path, b_path):
    """max|a - b| over the largest |entry| of the arrays of `scale_key` in
    A, for every array both `.npz` files hold."""
    import numpy as np
    a, b = load_arrays(a_path), load_arrays(b_path)
    scale = {}
    for key, x in a.items():
        scale[scale_key(key)] = max(scale.get(scale_key(key), 0.0),
                                    float(np.abs(x).max()))
    return {key: float(np.abs(x - b[key]).max()) / scale[scale_key(key)]
            for key, x in a.items() if key in b and x.shape == b[key].shape}


def compare(a_path, b_path):
    a, b = (load_digests(p) for p in (a_path, b_path))
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    moves = array_moves(a_path, b_path) if any(
        k.startswith(tuple(MOVED)) for k in differ) else {}
    for key in differ:
        print(f"differs: {key}  {a.get(key, 'missing')}  {b.get(key, 'missing')}")
        if key in moves:
            print(f"  max|a - b| / largest entry of {scale_key(key)}: {moves[key]:.3g}")
    for prefix, kind in MOVED.items():
        moved = [(moves[k], k) for k in differ if k in moves and k.startswith(prefix)]
        if moved:
            move, key = max(moved)
            print(f"largest {kind} move: {move:.3g} of the largest entry of "
                  f"{scale_key(key)} ({key})")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} digests differ")
    return 1 if differ else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) == 2 and not argv[0].startswith("-"):
        return write_digests(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
