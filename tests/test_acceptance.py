"""Acceptance suite: one test per criterion, each printing a PASS line.

The slow fixtures (the transfer experiment and the overfit run) are module
scoped and shared between criteria.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from mmrec import autodiff as ad
from mmrec import cli
from mmrec import objectives as obj
from mmrec.data import (SyntheticConfig, cold_item_subsequences,
                        filter_and_split, generate_synthetic,
                        train_item_counts)
from mmrec.encoders import ModelConfig
from mmrec.evaluation import (evaluate, evaluate_cold_start, evaluate_train,
                              rank_of_target, ranking_metrics)
from mmrec.gradcheck import CHECK_LOSSES, run_gradient_checks
from mmrec.model import RecModel
from mmrec.training import TrainConfig, finetune, pretrain
from mmrec.transfer import (TRANSFER_MODES, BundleError, load_bundle,
                            load_components, model_from_bundle,
                            predict_scores, save_bundle)
from tests.conftest import ACCEPTANCE_LINES, clone, encoded_context


def record(n, name, detail):
    line = f"criterion {n:2d} ({name}): PASS  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

SEEDS = (1, 2, 3)


def transfer_model_config():
    return ModelConfig(d=32, n_heads=4, ffn_mult=2, vocab_size=100, p_max=8,
                       q=4, patch_dim=6, text_blocks=1, vision_blocks=1,
                       fusion_blocks=1, user_blocks=1, L_max=12)


def transfer_data_config():
    return SyntheticConfig(n_users=5000, n_users_target=500, n_items=200,
                           n_latent_styles=4, n_slots=4, transition_noise=0.1,
                           L_min=8, L_max=12, vocab_size=100, p_min=4,
                           p_max=8, q=4, patch_dim=6, seed=0)


@pytest.fixture(scope="module")
def transfer_runs(tmp_path_factory):
    """Pretrain once on the source, then fine-tune full-transfer vs
    from-scratch on the disjoint-item target over three seeds."""
    root = tmp_path_factory.mktemp("transfer")
    source, target = generate_synthetic(transfer_data_config())
    src_split = filter_and_split(source, min_interactions=5)
    tgt_split = filter_and_split(target, min_interactions=5)
    assert set(src_split.items).isdisjoint(tgt_split.items)

    model = RecModel.init(transfer_model_config(), seed=0)
    pcfg = TrainConfig(learning_rate=3e-3, max_epochs=5, patience=10, B=64,
                       L_max=12, seed=0)
    pretrain(model, src_split, pcfg)
    bundle = str(root / "pretrained.bundle")
    save_bundle(model, bundle)

    runs = {"transfer": {}, "scratch": {}}
    for seed in SEEDS:
        for kind in ("transfer", "scratch"):
            if kind == "transfer":
                m = load_components(bundle, "full", fresh_init_seed=seed)
            else:
                m = RecModel.init(transfer_model_config(), seed)
            fcfg = TrainConfig(learning_rate=1e-3, max_epochs=4, patience=10,
                               B=32, L_max=12, seed=seed)
            log = finetune(m, tgt_split, fcfg)
            rep = evaluate(m, tgt_split, phase="test", ks=(10,))
            runs[kind][seed] = {
                "model": m,
                "val_curve": [e["val_hr10"] for e in log],
                "test_hr10": rep.hr[10] / 100.0,
            }
    return {"bundle": bundle, "target": target, "tgt_split": tgt_split,
            "runs": runs}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    results = run_gradient_checks(seed=0)
    elapsed = time.perf_counter() - t0
    assert set(results) == set(CHECK_LOSSES)
    for name, rel in results.items():
        assert rel <= 1e-4, f"{name}: max relative error {rel:.3e}"
    assert elapsed <= 60.0, f"gradient checks took {elapsed:.1f}s"
    worst = max(results.values())
    record(1, "gradient fidelity",
           f"7 losses, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_losses():
    from tests.test_objectives import OCFG, const_ctx

    h1 = ad.Tensor(np.ones((1, 3, 4)))
    ctx1, emb1 = const_ctx(1, 3)
    assert abs(obj.dap_loss(ctx1, emb1["e_cls"], h1).item()) < 1e-12
    assert abs(obj.contrastive_loss(ctx1, emb1, "vcl").item()) < 1e-12
    assert abs(obj.rcl_loss(h1, h1, np.ones((1, 3)), OCFG.rcl_pooling).item()) < 1e-12
    nicl = obj.contrastive_loss(ctx1, emb1, "nicl").item()
    assert abs(nicl - (-math.log(3))) < 1e-9
    head = {"W": ad.Tensor(np.zeros((3, 3))), "b": ad.Tensor(np.zeros(3))}
    nid = obj.nid_loss(ad.Tensor(np.ones((2, 3, 3))),
                       np.zeros((2, 3), dtype=np.int64), head).item()
    assert abs(nid - math.log(3)) < 1e-9
    h2 = ad.Tensor(np.ones((2, 3, 4)))
    ctx2, emb2 = const_ctx(2, 3)
    dap = obj.dap_loss(ctx2, emb2["e_cls"], h2).item()  # |N| = 3 per anchor
    assert abs(dap - math.log(4)) < 1e-9
    record(2, "closed-form losses",
           "B=1 DAP/VCL/RCL = 0, NICL = -ln3, NID = ln3, DAP = ln(|N|+1)")


def brute_force_metrics(score_rows, targets, k):
    hits, gain = 0, 0.0
    for scores, t in zip(score_rows, targets):
        t_score = scores[t]
        rank = sum(1 for s in scores if s > t_score) \
            + sum(1 for s in scores if s == t_score)  # pessimistic on ties
        if rank <= k:
            hits += 1
            gain += 1.0 / math.log2(rank + 1.0)
    return hits / len(targets), gain / len(targets)


def test_criterion_03_metric_oracle():
    rng = np.random.default_rng(0)
    cases = 0
    for n_items in (37, 400, 1000):
        smooth = rng.normal(size=(50, n_items))
        tied = np.floor(rng.normal(size=(50, n_items)) * 2.0)  # heavy ties
        for scores in (smooth, tied):
            targets = rng.integers(0, n_items, size=50)
            ranks = [rank_of_target(scores[u], int(targets[u]))
                     for u in range(50)]
            for k in (10, 20, 50):
                hr, ndcg = ranking_metrics(ranks, k)
                bhr, bndcg = brute_force_metrics(scores, targets, k)
                assert hr == bhr, (n_items, k)
                assert ndcg == pytest.approx(bndcg, abs=1e-12)
                cases += 1
    record(3, "metric oracle",
           f"{cases} HR/NDCG cells match brute-force full sort exactly")


def test_criterion_04_corruption_statistics():
    pool = list(range(1000, 1100))
    for draw in range(10_000):
        rng = np.random.default_rng(draw)
        seq = list(range(20))
        out, labels = obj.corrupt_sequence(seq, 0.15, 0.05, rng, pool)
        counts = [labels.count(c) for c in (0, 1, 2)]
        assert counts == [16, 3, 1], draw
        for p, lab in enumerate(labels):
            if lab == obj.LABEL_SHUFFLED:
                assert out[p] != seq[p], draw
            elif lab == obj.LABEL_REPLACED:
                assert out[p] in pool and out[p] not in seq, draw
            else:
                assert out[p] == seq[p], draw
    # anchor-exclusion through the batch path
    from mmrec.gradcheck import random_batch, small_config
    model = RecModel.init(small_config(), 0)
    for seed in range(50):
        batch = random_batch(small_config(), np.random.default_rng(seed),
                             B=3, L=4, n_items=10)
        ctx, _ = encoded_context(model, batch)
        rows, labels = obj.corrupt_batch(ctx, obj.ObjectiveConfig())
        for u in range(3):
            own = {int(i) for i in batch.idx[u]}
            for l in range(4):
                if labels[u, l] == obj.LABEL_REPLACED:
                    assert ctx.unique[rows[u, l]] not in own
    record(4, "corruption statistics",
           "10,000 draws: exactly 3 shuffled + 1 replaced, derangement and "
           "anchor exclusion hold")


def test_criterion_05_overfit_capability():
    scfg = SyntheticConfig(n_users=200, n_items=50, n_latent_styles=4,
                           transition_noise=0.0, L_min=8, L_max=16,
                           vocab_size=100, p_min=4, p_max=8, q=4, patch_dim=6,
                           seed=0)
    source, _ = generate_synthetic(scfg)
    split = filter_and_split(source, min_interactions=5)
    model = RecModel.init(ModelConfig(d=32, n_heads=4, ffn_mult=2,
                                      vocab_size=100, p_max=8, q=4,
                                      patch_dim=6, text_blocks=1,
                                      vision_blocks=1, fusion_blocks=1,
                                      user_blocks=1, L_max=16), seed=0)
    tcfg = TrainConfig(learning_rate=3e-3, max_epochs=60, patience=60, B=32,
                       L_max=16, seed=0)
    t0 = time.perf_counter()
    log = pretrain(model, split, tcfg)
    elapsed = time.perf_counter() - t0
    epochs = log[-1]["epoch"]
    rep = evaluate_train(model, split, ks=(10,))
    hr = rep.hr[10] / 100.0
    assert epochs <= 200
    assert elapsed <= 600.0, f"training took {elapsed:.0f}s"
    assert hr >= 0.90, f"training HR@10 = {hr:.3f}"
    record(5, "overfit capability",
           f"train HR@10 = {hr:.3f} after {epochs} epochs in {elapsed:.0f}s")


def test_criterion_06_transfer_direction_of_effect(transfer_runs):
    runs = transfer_runs["runs"]
    t_mean = np.mean([runs["transfer"][s]["test_hr10"] for s in SEEDS])
    s_mean = np.mean([runs["scratch"][s]["test_hr10"] for s in SEEDS])
    gain = (t_mean - s_mean) / s_mean
    assert gain >= 0.10, f"relative gain {gain:.1%}"
    record(6, "transfer direction-of-effect",
           f"test HR@10 transfer {t_mean:.3f} vs scratch {s_mean:.3f} "
           f"(+{gain:.0%} relative, 3 seeds)")


def test_criterion_07_versatility(transfer_runs, tmp_path):
    bundle = transfer_runs["bundle"]
    tgt_split = transfer_runs["tgt_split"]
    for mode in TRANSFER_MODES:
        m = load_components(bundle, mode, fresh_init_seed=1)
        fcfg = TrainConfig(learning_rate=1e-3, max_epochs=1, patience=10,
                           B=32, L_max=12, seed=1)
        finetune(m, tgt_split, fcfg)
        rep = evaluate(m, tgt_split, phase="test", ks=(10,))
        assert rep.count == len(tgt_split.train), mode
    # text_only predictions ignore serialized vision/fusion parameters
    base = model_from_bundle(bundle)
    other = clone(base)
    rng = np.random.default_rng(0)
    for g in ("vision_encoder", "fusion"):
        for t in other.groups[g].values():
            t.data = t.data + rng.normal(size=t.data.shape)
    perturbed = str(tmp_path / "perturbed.bundle")
    save_bundle(other, perturbed)
    m1 = load_components(bundle, "text_only", fresh_init_seed=7)
    m2 = load_components(perturbed, "text_only", fresh_init_seed=7)
    prefix = sorted(tgt_split.items)[:3]
    np.testing.assert_array_equal(
        predict_scores(m1, prefix, tgt_split.items),
        predict_scores(m2, prefix, tgt_split.items))
    record(7, "versatility",
           "all 5 transfer modes fine-tune + evaluate; text_only is "
           "bit-invariant to vision/fusion bytes")


def test_criterion_08_convergence_speed(transfer_runs):
    runs = transfer_runs["runs"]
    details = []
    for seed in SEEDS:
        s_curve = runs["scratch"][seed]["val_curve"]
        t_curve = runs["transfer"][seed]["val_curve"]
        s_best = max(s_curve)
        s_at = s_curve.index(s_best)
        t_at = next((e for e, v in enumerate(t_curve) if v >= s_best), None)
        assert t_at is not None, f"seed {seed}: transfer never reaches {s_best}"
        assert t_at < s_at, f"seed {seed}: transfer epoch {t_at} vs {s_at}"
        details.append(f"{t_at}<{s_at}")
    record(8, "convergence speed",
           f"epochs to reach scratch-best val HR@10 (transfer<scratch): "
           f"{', '.join(details)}")


def test_criterion_09_checkpoint_integrity(transfer_runs, tmp_path):
    bundle = transfer_runs["bundle"]
    items = transfer_runs["tgt_split"].items
    base = model_from_bundle(bundle)
    again = str(tmp_path / "again.bundle")
    save_bundle(base, again)
    with open(bundle, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()
    prefix = sorted(items)[:4]
    np.testing.assert_array_equal(
        predict_scores(base, prefix, items),
        predict_scores(model_from_bundle(again), prefix, items))
    raw = bytearray(open(bundle, "rb").read())
    raw[len(raw) // 2] ^= 0x01
    corrupted = tmp_path / "corrupted.bundle"
    corrupted.write_bytes(bytes(raw))
    with pytest.raises(BundleError):
        load_bundle(corrupted)
    record(9, "checkpoint integrity",
           "round-trip byte- and forward-exact; corruption rejected")


def test_criterion_10_cold_start(transfer_runs):
    # extraction matches a brute-force scan on random fixtures
    from tests.test_data import toy_dataset
    for seed in range(10):
        rng = np.random.default_rng(seed)
        users = [rng.integers(0, 15, size=10).tolist() for _ in range(30)]
        split = filter_and_split(toy_dataset(users, n_items=15))
        counts = train_item_counts(split)
        expected = []
        for u in range(len(split.train)):
            full = list(split.train[u]) + [split.valid[u], split.test[u]]
            for pos in range(1, len(full)):
                if counts[full[pos]] < 10:
                    expected.append((full[:pos], full[pos]))
        assert cold_item_subsequences(split, threshold=10) == expected

    # end-to-end: a sparse target split of the same catalog, so many items
    # fall under the 10-occurrence threshold
    cfg = transfer_data_config()
    cfg.n_users_target = 120
    _, sparse_target = generate_synthetic(cfg)
    sparse_split = filter_and_split(sparse_target, min_interactions=2)
    model = transfer_runs["runs"]["transfer"][1]["model"]
    rep = evaluate_cold_start(model, sparse_split, threshold=10, ks=(10,))
    assert rep.count > 0
    # content-blind baseline: random scores over the same cold pairs
    pairs = cold_item_subsequences(sparse_split, threshold=10)
    rng = np.random.default_rng(0)
    n = len(sparse_split.items)
    order = sorted(sparse_split.items)
    row = {c: r for r, c in enumerate(order)}
    ranks = [rank_of_target(rng.normal(size=n), row[t]) for _, t in pairs]
    base_hr, _ = ranking_metrics(ranks, 10)
    model_hr = rep.hr[10] / 100.0
    assert model_hr > base_hr, f"model {model_hr:.3f} vs random {base_hr:.3f}"
    record(10, "cold start",
           f"extraction matches brute force; cold HR@10 model "
           f"{model_hr:.3f} > random {base_hr:.3f} over {rep.count} pairs")


TINY = ["d=8", "n_heads=2", "ffn_mult=1", "vocab_size=12", "p_max=4", "q=4",
        "patch_dim=4", "text_blocks=1", "vision_blocks=1", "user_blocks=1",
        "l_max=6", "max_epochs=1", "batch_size=4", "n_users=12", "n_items=8",
        "seq_min=5", "seq_max=6", "p_min=2", "min_interactions=2", "seed=0"]


def test_criterion_11_determinism(tmp_path):
    def run(args):
        argv = []
        for kv in TINY:
            argv += ["-o", kv]
        assert cli.main(argv + args) == 0

    outs = []
    for tag in ("a", "b"):
        data = str(tmp_path / f"data_{tag}")
        pre = str(tmp_path / f"pre_{tag}")
        ft = str(tmp_path / f"ft_{tag}")
        run(["gen-data", "--out", data])
        run(["pretrain", "--data", data, "--out", pre])
        run(["finetune", "--data", data, "--out", ft,
             "--bundle", os.path.join(pre, "pretrained.bundle"),
             "--mode", "full"])
        outs.append((data, pre, ft))
    (data_a, pre_a, ft_a), (data_b, pre_b, ft_b) = outs
    for da, db, name in [(data_a, data_b, "source_items.tsv"),
                         (data_a, data_b, "source_interactions.tsv"),
                         (pre_a, pre_b, "pretrained.bundle"),
                         (ft_a, ft_b, "finetuned.bundle")]:
        with open(os.path.join(da, name), "rb") as a, \
                open(os.path.join(db, name), "rb") as b:
            assert a.read() == b.read(), name
    for da, db in ((pre_a, pre_b), (ft_a, ft_b)):
        la = [json.loads(x) for x in open(os.path.join(da, "log.jsonl"))]
        lb = [json.loads(x) for x in open(os.path.join(db, "log.jsonl"))]
        for ea, eb in zip(la, lb):
            ea.pop("seconds"), eb.pop("seconds")
            assert ea == eb
    record(11, "determinism",
           "repeated gen-data/pretrain/finetune: checkpoints byte-identical, "
           "logs value-identical")
