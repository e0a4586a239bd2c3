"""Item-level encoders: tiny text / vision transformers and merge-attention fusion.

Both encoders prepend a learned cls vector and add learned positional
embeddings; fusion runs `fusion_blocks` transformer layers over
[mm_cls; text hiddens; patch hiddens] and reads the item representation
off the mm_cls position, which is the only row its final layer computes.
"""

from dataclasses import dataclass, asdict, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_STD = 0.02


@dataclass
class ModelConfig:
    d: int = 32
    n_heads: int = 4
    ffn_mult: int = 4
    vocab_size: int = 1000
    p_max: int = 16
    q: int = 16
    patch_dim: int = 12
    text_blocks: int = 2
    vision_blocks: int = 2
    fusion_blocks: int = 1
    user_blocks: int = 2
    L_max: int = 20
    modality: str = "both"  # both | text | vision

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        for name in ("d", "n_heads", "ffn_mult", "vocab_size", "p_max", "q",
                     "patch_dim", "L_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be positive")
        for name in ("text_blocks", "vision_blocks", "fusion_blocks", "user_blocks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}={getattr(self, name)} must be non-negative")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.modality not in ("both", "text", "vision"):
            raise ValueError(f"unknown modality {self.modality!r}")

    def to_dict(self):
        return asdict(self)


def _gauss(rng, shape):
    return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape):
    return Tensor(np.ones(shape), requires_grad=True)


def init_block(rng, d, ffn_mult, prefix):
    h = d * ffn_mult
    p = {}
    for c in "qkvo":
        p[f"{prefix}w{c}"] = _gauss(rng, (d, d))
        if c != "k":  # softmax cancels a key bias: q·bk is the same for every key
            p[f"{prefix}b{c}"] = _zeros((d,))
    p[f"{prefix}ln1_g"] = _ones((d,))
    p[f"{prefix}ln1_b"] = _zeros((d,))
    p[f"{prefix}w1"] = _gauss(rng, (d, h))
    p[f"{prefix}b1"] = _zeros((h,))
    p[f"{prefix}w2"] = _gauss(rng, (h, d))
    p[f"{prefix}b2"] = _zeros((d,))
    p[f"{prefix}ln2_g"] = _ones((d,))
    p[f"{prefix}ln2_b"] = _zeros((d,))
    return p


def init_text_encoder(rng, cfg):
    p = {"tok_emb": _gauss(rng, (cfg.vocab_size, cfg.d)),
         "pos": _gauss(rng, (cfg.p_max + 1, cfg.d)),
         "cls": _gauss(rng, (cfg.d,))}
    for i in range(cfg.text_blocks):
        p.update(init_block(rng, cfg.d, cfg.ffn_mult, f"b{i}."))
    return p


def init_vision_encoder(rng, cfg):
    p = {"proj_w": _gauss(rng, (cfg.patch_dim, cfg.d)),
         "proj_b": _zeros((cfg.d,)),
         "pos": _gauss(rng, (cfg.q + 1, cfg.d)),
         "cls": _gauss(rng, (cfg.d,))}
    for i in range(cfg.vision_blocks):
        p.update(init_block(rng, cfg.d, cfg.ffn_mult, f"b{i}."))
    return p


def init_fusion(rng, cfg):
    p = {"mm_cls": _gauss(rng, (cfg.d,))}
    for i in range(cfg.fusion_blocks):
        p.update(init_block(rng, cfg.d, cfg.ffn_mult, f"b{i}."))
    return p


def attention_bias(key_mask, causal=False):
    """Additive attention bias from a (B, S) 0/1 key mask.

    Returns (B, 1, 1, S), or (B, 1, S, S) with the causal triangle applied.
    """
    key_mask = np.asarray(key_mask, dtype=np.float64)
    bias = (key_mask[:, None, None, :] - 1.0) * 1e9
    if causal:
        s = key_mask.shape[1]
        tri = np.triu(np.ones((s, s)), k=1) * -1e9
        bias = bias + tri[None, None, :, :]
    return bias


def transformer_block(params, prefix, x, bias, n_heads, query=None):
    """Post-LN transformer layer: x = LN(x + MHA(x)); x = LN(x + FFN(x)).

    `query`, a (B, Sq, d) subset of the rows of x, restricts the output to
    those rows: keys and values still come from all of x, and `bias` must
    then be broadcastable to (B, n_heads, Sq, S).
    """
    def p(name):
        return params[prefix + name]

    if query is None:
        query = x
    q = ad.linear(query, p("wq"), p("bq"))
    k, v = ad.linear(x, p("wk")), ad.linear(x, p("wv"), p("bv"))
    ctx = ad.linear(ad.attention(q, k, v, bias, n_heads), p("wo"), p("bo"))
    x = ad.layer_norm(ad.add(query, ctx), p("ln1_g"), p("ln1_b"))
    ff = ad.linear(ad.gelu(ad.linear(x, p("w1"), p("b1"))), p("w2"), p("b2"))
    return ad.layer_norm(ad.add(x, ff), p("ln2_g"), p("ln2_b"))


def run_blocks(params, n_blocks, x, bias, n_heads, rows=None):
    """Run blocks b0..b{n_blocks-1} over x (B, S, d).

    `rows`, one (B,) position per sequence, restricts the final block to
    those rows: its keys and values still span all of x, a causal bias is
    cut to each query's row, and the result is (B, d), or those rows of x
    when there are no blocks.
    """
    for i in range(n_blocks if rows is None else n_blocks - 1):
        x = transformer_block(params, f"b{i}.", x, bias, n_heads)
    if rows is None:
        return x
    b = np.arange(x.shape[0])
    if n_blocks == 0:
        return ad.getitem(x, (b, rows))
    query = ad.getitem(x, (b[:, None], rows[:, None]))  # (B, 1, d)
    if bias.shape[2] > 1:  # causal: keep each query's own row of the triangle
        bias = bias[b, :, rows][:, :, None]
    h = transformer_block(params, f"b{n_blocks - 1}.", x, bias, n_heads, query=query)
    return ad.reshape(h, (x.shape[0], x.shape[2]))


def _prepend_row(row, parts, key_mask):
    """Put the learned (d,) `row` in front of the (B, S_i, d) `parts`; returns
    the (B, 1 + S, d) input and its bias, in which the row is always a key
    and the (B, S) 0/1 `key_mask` masks the rest."""
    b, d = key_mask.shape[0], row.shape[-1]
    head = ad.add(ad.reshape(row, (1, 1, d)), np.zeros((b, 1, d)))
    x = ad.concat([head, *parts], axis=1)
    return x, attention_bias(np.concatenate([np.ones((b, 1)), key_mask], axis=1))


def encode_text(params, cfg, token_ids, pad_mask):
    """Encode token id batch (B, p) with 0/1 pad mask into (cls, hiddens).

    Returns cls of shape (B, d) and per-token hiddens of shape (B, p, d).
    """
    token_ids = np.asarray(token_ids)
    pad_mask = np.asarray(pad_mask, dtype=np.float64)
    if token_ids.ndim != 2 or token_ids.shape != pad_mask.shape:
        raise ValueError("token_ids and pad_mask must both be (B, p)")
    if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
        raise ValueError(
            f"token id out of vocabulary [0, {cfg.vocab_size}): "
            f"{int(token_ids.min())}..{int(token_ids.max())}"
        )
    p = token_ids.shape[1]
    if p > cfg.p_max:
        raise ValueError(f"token length {p} exceeds p_max={cfg.p_max}")
    emb = ad.add(ad.getitem(params["tok_emb"], token_ids),
                 ad.getitem(params["pos"], slice(1, p + 1)))
    cls = ad.add(params["cls"], ad.getitem(params["pos"], 0))
    x, bias = _prepend_row(cls, [emb], pad_mask)
    x = run_blocks(params, cfg.text_blocks, x, bias, cfg.n_heads)
    return ad.getitem(x, (slice(None), 0)), ad.getitem(x, (slice(None), slice(1, None)))


def encode_vision(params, cfg, patches):
    """Encode patch batch (B, q, patch_dim) into (cls, hiddens)."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 3 or patches.shape[1:] != (cfg.q, cfg.patch_dim):
        raise ValueError(
            f"patches must be (B, {cfg.q}, {cfg.patch_dim}), got {patches.shape}"
        )
    emb = ad.add(ad.linear(patches, params["proj_w"], params["proj_b"]),
                 ad.getitem(params["pos"], slice(1, cfg.q + 1)))
    cls = ad.add(params["cls"], ad.getitem(params["pos"], 0))
    x, bias = _prepend_row(cls, [emb], np.ones(patches.shape[:2]))
    x = run_blocks(params, cfg.vision_blocks, x, bias, cfg.n_heads)
    return ad.getitem(x, (slice(None), 0)), ad.getitem(x, (slice(None), slice(1, None)))


def fuse(params, cfg, text_hiddens, vision_hiddens, text_mask):
    """Merge-attention fusion; returns the mm_cls output (B, d)."""
    if text_hiddens.shape[-1] != cfg.d or vision_hiddens.shape[-1] != cfg.d:
        raise ValueError("fusion inputs must have hidden dimension d")
    key_mask = np.concatenate([np.asarray(text_mask, dtype=np.float64),
                               np.ones(vision_hiddens.shape[:2])], axis=1)
    x, bias = _prepend_row(params["mm_cls"], [text_hiddens, vision_hiddens], key_mask)
    rows = np.zeros(key_mask.shape[0], dtype=np.int64)
    return run_blocks(params, cfg.fusion_blocks, x, bias, cfg.n_heads, rows)
