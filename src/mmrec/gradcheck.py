"""Finite-difference verification of every objective's parameter gradients."""

import numpy as np

from . import autodiff as ad
from . import objectives
from .data import Batch, ItemRecord
from .encoders import ModelConfig
from .model import RecModel
from .objectives import ObjectiveConfig

CHECK_LOSSES = ("dap", "vcl", "icl", "nicl", "nid", "rcl", "total")


def small_config(d=8, p=4, q=4):
    return ModelConfig(d=d, n_heads=2, ffn_mult=1, vocab_size=12, p_max=p,
                       q=q, patch_dim=4, text_blocks=1, vision_blocks=1,
                       fusion_blocks=1, user_blocks=1, L_max=4)


def random_batch(cfg, rng, B=2, L=4, n_items=6):
    items = {}
    for i in range(n_items):
        n_tok = int(rng.integers(2, cfg.p_max + 1))
        tokens = rng.integers(1, cfg.vocab_size, size=n_tok).tolist()
        patches = rng.normal(size=(cfg.q, cfg.patch_dim))
        items[i] = ItemRecord(i, tokens, patches)
    # distinct items per user so negative sets are non-empty
    idx = np.zeros((B, L), dtype=np.int64)
    for u in range(B):
        idx[u] = rng.choice(n_items, size=L, replace=False) if n_items >= L else \
            rng.integers(0, n_items, size=L)
    mask = np.ones((B, L))
    return Batch(idx=idx, mask=mask, items=items, rng_seed=int(rng.integers(2**31)))


def _loss_fn(model, batch, name):
    """Zero-argument closure evaluating loss `name` on the batch: the
    composed `total_loss`, or one objective's term on its own. The batch
    never changes, so it is corrupted on the first call only."""
    corruption = []

    def corrupt_once(ctx, cfg):
        if not corruption:
            corruption.append(objectives.corrupt_batch(ctx, cfg))
        return corruption[0]

    if name == "total":
        ocfg = ObjectiveConfig()
        return lambda: objectives.total_loss(model, batch, ocfg,
                                             corrupt=corrupt_once)[0]
    if name not in CHECK_LOSSES:
        raise ValueError(f"unknown loss {name!r}")
    only = ObjectiveConfig(
        dap=name == "dap", nid=name == "nid", rcl=name == "rcl",
        contrastive=name if name in objectives.CONTRASTIVE_VARIANTS else None)
    return lambda: objectives.objective_terms(model, batch, only,
                                              corrupt_once)[name]


def check_parameters(model, loss_fn, step=1e-5):
    """Max relative error (`autodiff.relative_error`) between analytic and
    central-difference gradients over every trainable parameter element.
    Calls `loss_fn` once, then twice per trainable element."""
    model.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for _, p in model.trainable_parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = ad.central_difference(loss_fn, p.data.reshape(-1), step)
        worst = max(worst, ad.relative_error(analytic.reshape(-1), numeric))
    return worst


def run_gradient_checks(seed=0, losses=CHECK_LOSSES, step=1e-5):
    """Returns {loss name: max relative error} on the small configuration."""
    results = {}
    for name in losses:
        rng = np.random.default_rng(seed)
        model = RecModel.init(small_config(), seed)
        batch = random_batch(model.cfg, rng)
        results[name] = check_parameters(model, _loss_fn(model, batch, name), step)
    return results
