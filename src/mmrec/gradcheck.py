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


class _StageReuse(RecModel):
    """The model, on the same parameter Tensors, whose item-encoder stages
    return their previous output when nothing they read has changed.

    A probe of `central_difference` moves one element of one group, so the
    text encoder, vision encoder and fusion outputs of the previous
    evaluation stay valid under every probe outside their own group. Each
    stage keeps its last no-grad call, keyed by the bytes of its group's
    parameters and of its inputs, so a reused output is exactly the one a
    recomputation would give. Grad-mode calls build the graph as usual.
    The user encoder reads the fused items, which almost every probe moves,
    and is not memoised."""

    def __init__(self, model):
        super().__init__(model.cfg, model.groups)
        self.last = {}  # group name -> (key, output) of its last no-grad call

    def _reuse(self, group, compute, *inputs):
        if ad.grad_enabled():
            return compute(*inputs)
        arrays = [x.data if isinstance(x, ad.Tensor) else x for x in inputs]
        key = ([p.data.tobytes() for p in self.groups[group].values()]
               + [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])
        hit = self.last.get(group)
        if hit is None or hit[0] != key:
            hit = self.last[group] = (key, compute(*inputs))
        return hit[1]

    def encode_text(self, token_ids, pad_mask):
        return self._reuse("text_encoder", super().encode_text, token_ids, pad_mask)

    def encode_vision(self, patches):
        return self._reuse("vision_encoder", super().encode_vision, patches)

    def fuse(self, text_hiddens, vision_hiddens, text_mask):
        return self._reuse("fusion", super().fuse, text_hiddens, vision_hiddens,
                           text_mask)


def _loss_fn(model, batch, name):
    """Zero-argument closure evaluating loss `name` on the batch: the
    composed `total_loss`, or `total_loss` with that objective alone. The
    batch never changes, so its context, corruption included, is built
    once, and the item encoders rerun only when a probe reaches them
    (`_StageReuse`)."""
    if name not in CHECK_LOSSES:
        raise ValueError(f"unknown loss {name!r}")
    cfg = ObjectiveConfig() if name == "total" else ObjectiveConfig(
        dap=name == "dap", nid=name == "nid", rcl=name == "rcl",
        contrastive=name if name in objectives.CONTRASTIVE_VARIANTS else None)
    ctx = objectives.BatchContext(cfg, batch)
    model = _StageReuse(model)
    return lambda: objectives.total_loss(model, batch, cfg, ctx)[0]


def check_parameters(model, loss_fn):
    """Max relative error (`autodiff.relative_error`) between analytic and
    central-difference gradients over every trainable parameter element.
    Calls `loss_fn` once, then twice per trainable element."""
    model.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for _, p in model.trainable_parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = ad.central_difference(loss_fn, p.data.reshape(-1))
        worst = max(worst, ad.relative_error(analytic.reshape(-1), numeric))
    return worst


def run_gradient_checks(seed=0, losses=CHECK_LOSSES):
    """Returns {loss name: max relative error} on the small configuration.

    `rcl` is checked on three sequences: with two, seed 0 corrupts both to
    the same rows, so the loss is exactly ln 2 and its gradient is zero."""
    results = {}
    for name in losses:
        rng = np.random.default_rng(seed)
        model = RecModel.init(small_config(), seed)
        batch = random_batch(model.cfg, rng, B=3 if name == "rcl" else 2)
        results[name] = check_parameters(model, _loss_fn(model, batch, name))
    return results
