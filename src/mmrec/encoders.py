"""The model's four transformer stacks: text, vision, fusion and user encoder.

Each is one `run_stack` call over its own parameter group. The text and
vision encoders prepend a learned cls row and add learned positional
embeddings; fusion runs `fusion_blocks` layers over
[mm_cls; text hiddens; patch hiddens] and reads the item representation
off the mm_cls position, the only row its final layer computes; the user
encoder is a causal (SASRec-style) stack with positions over item
representation sequences.
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


def init_stack(rng, cfg, n_blocks, **tables):
    """A stack's parameters: the named Gaussian tables, each given by its
    shape and drawn in the order given, then blocks b0..b{n_blocks-1}."""
    p = {name: _gauss(rng, shape) for name, shape in tables.items()}
    for i in range(n_blocks):
        p.update(init_block(rng, cfg.d, cfg.ffn_mult, f"b{i}."))
    return p


def attention_bias(key_mask, causal=False, s=None):
    """Additive attention bias from a (B, S) 0/1 key mask.

    Returns (B, 1, 1, S), or with `causal` (B, 1, S, S) with the causal
    triangle applied. A key mask of None stands for `s` keys that are all
    real: the bias is then the triangle alone, (1, 1, s, s), or None.
    """
    bias = None
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=np.float64)
        bias = (key_mask[:, None, None, :] - 1.0) * 1e9
        s = key_mask.shape[1]
    if causal:
        # -1e9 above the diagonal and -0.0 elsewhere
        tri = ((np.arange(s) > np.arange(s)[:, None]) * -1e9)[None, None, :, :]
        bias = tri if bias is None else bias + tri
    return bias


# a block's parameters, in the order of the block node's parents
BLOCK_PARAMS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo", "ln1_g", "ln1_b",
                "w1", "b1", "w2", "b2", "ln2_g", "ln2_b")


def transformer_block(params, prefix, x, bias, n_heads, row=None, projections=None):
    """Post-LN transformer layer: x = LN(x + MHA(x)); x = LN(x + FFN(x)).

    One autodiff node over the forward/backward pairs of `autodiff`; it
    keeps only the arrays its backward reads. `row`, one position,
    restricts the output to that row of each sequence, (B, d): keys and
    values still come from all of x, and `bias` must then be broadcastable
    to (B, n_heads, 1, S). `projections`, only under `no_grad`, are the
    block's key and value projections (k, v) of x, biases included, in
    place of the products the block would compute; queries always come
    from the query rows.
    """
    weights = [params[prefix + name] for name in BLOCK_PARAMS]
    w = {name: t.data for name, t in zip(BLOCK_PARAMS, weights)}
    xs = x.data
    at = slice(None) if row is None else slice(row, row + 1)  # the query rows
    qs = xs[:, at]
    if projections is None:
        k, v = ad.linear_forward(xs, w["wk"]), ad.linear_forward(xs, w["wv"], w["bv"])
    elif ad.grad_enabled():
        raise ValueError("a block takes given projections only under no_grad")
    else:
        k, v = projections
    q = ad.linear_forward(qs, w["wq"], w["bq"])
    a, p = ad.attention_forward(q, k, v, bias, n_heads)
    h, ln1 = ad.layer_norm_forward(qs, ad.linear_forward(a, w["wo"], w["bo"]),
                                   w["ln1_g"], w["ln1_b"])
    u = ad.linear_forward(h, w["w1"], w["b1"])
    f, t = ad.gelu_forward(u)
    out, ln2 = ad.layer_norm_forward(h, ad.linear_forward(f, w["w2"], w["b2"]),
                                     w["ln2_g"], w["ln2_b"])

    def vjp(g):
        g = g.reshape(out.shape)  # (B, 1, d) when restricted to `row`
        dr2, dln2_g, dln2_b = ad.layer_norm_backward(g, w["ln2_g"], *ln2)
        df, dw2, db2 = ad.linear_backward(dr2, f, w["w2"])
        dh, dw1, db1 = ad.linear_backward(ad.gelu_backward(df, u, t), h, w["w1"])
        dh += dr2
        dr1, dln1_g, dln1_b = ad.layer_norm_backward(dh, w["ln1_g"], *ln1)
        da, dwo, dbo = ad.linear_backward(dr1, a, w["wo"])
        dq, dk, dv = ad.attention_backward(da, q, k, v, p, n_heads)
        dqs, dwq, dbq = ad.linear_backward(dq, qs, w["wq"])
        dxs, dwk = ad.linear_backward(dk, xs, w["wk"], bias=False)
        dxv, dwv, dbv = ad.linear_backward(dv, xs, w["wv"])
        dqs += dr1
        dxs += dxv
        dxs[:, at] += dqs
        return (dxs, dwq, dbq, dwk, dwv, dbv, dwo, dbo, dln1_g, dln1_b,
                dw1, db1, dw2, db2, dln2_g, dln2_b)

    return ad._make(out if row is None else out[:, 0], (x, *weights), vjp)


def run_stack(params, cfg, n_blocks, parts, key_mask, head=None, causal=False,
              row=None, projections=None):
    """Run blocks b0..b{n_blocks-1} over the (B, S_i, d) `parts`,
    concatenated along S.

    The learned (d,) row `params[head]`, if named, goes first and is always
    a key; the (B, S) 0/1 `key_mask` (or None) masks the rest, and `causal`
    adds the triangle of `attention_bias`. A `pos` table in `params` adds
    its first rows to the whole input once, head included, or only to
    `row` when the blocks read no other row of the input. `projections`
    are block 0's, as `transformer_block` takes them.

    `row`, one position, restricts the final block to that row of each
    sequence: its keys and values still span the whole input, and the
    result is (B, d), or that row of the input when there are no blocks.
    With `causal`, `row` must be the last position, whose row of the
    triangle masks no key, so the key mask alone is its bias.
    """
    b = len(parts[0].data)
    if head is not None:
        parts = [ad.add(params[head], np.zeros((b, 1, cfg.d))), *parts]
        key_mask = np.concatenate([np.ones((b, 1)), key_mask], axis=1)
    x = ad.concat(parts, axis=1) if len(parts) > 1 else parts[0]
    pos = slice(0, x.data.shape[1])
    if row is not None and projections is not None and n_blocks == 1:
        # the one block's keys and values are given, so it reads its input
        # only at `row`: only that row is taken and positioned
        pos = slice(row, row + 1)
        x, row = ad.getitem(x, (slice(None), pos)), 0
    if "pos" in params:
        x = ad.add(x, ad.getitem(params["pos"], pos))
    if row is not None and n_blocks == 0:
        return ad.getitem(x, (slice(None), row))
    full = n_blocks if row is None else n_blocks - 1  # blocks over every row
    bias = attention_bias(key_mask, causal, x.data.shape[1]) if full else None
    for i in range(n_blocks):
        if i == full:
            bias = attention_bias(key_mask)
        x = transformer_block(params, f"b{i}.", x, bias, cfg.n_heads,
                              row=row if i == full else None,
                              projections=None if i else projections)
    return x


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
    x = run_stack(params, cfg, cfg.text_blocks,
                  [ad.getitem(params["tok_emb"], token_ids)], pad_mask, head="cls")
    return ad.getitem(x, (slice(None), 0)), ad.getitem(x, (slice(None), slice(1, None)))


def encode_vision(params, cfg, patches):
    """Encode patch batch (B, q, patch_dim) into (cls, hiddens)."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 3 or patches.shape[1:] != (cfg.q, cfg.patch_dim):
        raise ValueError(
            f"patches must be (B, {cfg.q}, {cfg.patch_dim}), got {patches.shape}"
        )
    x = run_stack(params, cfg, cfg.vision_blocks,
                  [ad.linear(patches, params["proj_w"], params["proj_b"])],
                  np.ones(patches.shape[:2]), head="cls")
    return ad.getitem(x, (slice(None), 0)), ad.getitem(x, (slice(None), slice(1, None)))


def fuse(params, cfg, text_hiddens, vision_hiddens, text_mask):
    """Merge-attention fusion; returns the mm_cls output (B, d)."""
    if text_hiddens.shape[-1] != cfg.d or vision_hiddens.shape[-1] != cfg.d:
        raise ValueError("fusion inputs must have hidden dimension d")
    key_mask = np.concatenate([np.asarray(text_mask, dtype=np.float64),
                               np.ones(vision_hiddens.shape[:2])], axis=1)
    return run_stack(params, cfg, cfg.fusion_blocks, [text_hiddens, vision_hiddens],
                     key_mask, head="mm_cls", row=0)


def first_block_projections(params, cfg, x=None, out=None):
    """The user encoder's block-0 key and value projections of the (n, d)
    rows x without biases, or with x None of the position table with
    biases, as `transformer_block` takes them: (k, v), each (n, d); None
    when there is no block. With `out`, a (2, n, d) array, each is written
    into its row of `out`. As (r + p) W + b = r W + (p W + b), the
    projections of item r at position l are, up to rounding, the sum of the
    item's row and the position's."""
    if cfg.user_blocks == 0:
        return None
    biases = x is None
    if biases:
        x = params["pos"].data
    return tuple(
        ad.linear_forward(x, params[f"b0.w{c}"].data,
                          params["b0.bv"].data if biases and c == "v" else None,  # no key bias
                          None if out is None else out[i])
        for i, c in enumerate("kv"))


def encode_sequence(params, cfg, item_reps, seq_mask, last=False, projections=None):
    """Run causally masked self-attention over (B, L, d) item representations.

    Position l attends only to positions <= l; padded positions are masked
    as keys, and a `seq_mask` of None has none. Returns per-position hiddens
    (B, L, d); values at padded positions are meaningless and must stay
    masked downstream.

    With `last=True` only the last position is computed through the final
    block, whose keys and values still span all positions, and the result
    is (B, d); every position must then be real, so `seq_mask` must be None.

    `projections`, only under `no_grad`, are block 0's key and value
    projections of the (B, L) positions, positions included, in the form
    `first_block_projections` gives them; the read path assembles them from
    per-item and per-position rows instead of projecting every occurrence.
    """
    if item_reps.shape[-1] != cfg.d:
        raise ValueError(
            f"item representations must have dimension d={cfg.d}, "
            f"got {item_reps.shape[-1]}"
        )
    length = item_reps.shape[1]
    if length > cfg.L_max:
        raise ValueError(f"sequence length {length} exceeds L_max={cfg.L_max}")
    if last and seq_mask is not None:
        raise ValueError("last=True encodes unpadded sequences: seq_mask must be None")
    return run_stack(params, cfg, cfg.user_blocks, [item_reps], seq_mask, causal=True,
                     row=length - 1 if last else None, projections=projections)
