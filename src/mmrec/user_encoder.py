"""Causal transformer over item-representation sequences (SASRec-style)."""

import numpy as np

from . import autodiff as ad
from .encoders import attention_bias, init_block, run_blocks, _gauss


def init_user_encoder(rng, cfg):
    p = {"pos": _gauss(rng, (cfg.L_max, cfg.d))}
    for i in range(cfg.user_blocks):
        p.update(init_block(rng, cfg.d, cfg.ffn_mult, f"b{i}."))
    return p


def encode_sequence(params, cfg, item_reps, seq_mask, last=False):
    """Run causally masked self-attention over (B, L, d) item representations.

    Position l attends only to positions <= l; padded positions are masked
    as keys. Returns per-position hiddens (B, L, d); values at padded
    positions are meaningless and must stay masked downstream.

    With `last=True` only each row's last real position (mask sum - 1;
    real positions must come first) is computed through the final block,
    whose keys and values still span all positions, and the result is
    (B, d).
    """
    if item_reps.shape[-1] != cfg.d:
        raise ValueError(
            f"item representations must have dimension d={cfg.d}, "
            f"got {item_reps.shape[-1]}"
        )
    length = item_reps.shape[1]
    if length > cfg.L_max:
        raise ValueError(f"sequence length {length} exceeds L_max={cfg.L_max}")
    x = ad.add(item_reps, ad.getitem(params["pos"], slice(0, length)))
    bias = attention_bias(np.asarray(seq_mask, dtype=np.float64), causal=True)
    rows = np.asarray(seq_mask).sum(axis=1).astype(np.int64) - 1 if last else None
    return run_blocks(params, cfg.user_blocks, x, bias, cfg.n_heads, rows)
