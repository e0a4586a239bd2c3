"""Reference versions of the fused autodiff nodes, built from small nodes.

The nodes here (`exp`, `log`, `power`, `tanh`, `softmax`, `row_sum`,
`tmean`, `sub`, `matmul`, `reshape`) have no caller in the library; the
composites written with them are the oracles that the one-node
`l2_normalize`, `softmax_xent`, `objectives.gram_xent` and `linear`, the
transformer block's layer-norm and GELU pairs, and the objectives built on
them are checked against. `item_embeddings` is the per-part stack assembly that `encoders.run_stack`
replaced, and `contrastive_loss` the per-anchor product that
`objectives.gram_xent` replaced.
"""

import functools

import numpy as np

from mmrec import autodiff as ad
from mmrec.autodiff import _GELU_C
from mmrec.encoders import attention_bias, transformer_block


def _node(x, data, grad_of):
    """One-parent node whose vjp is grad_of(g)."""
    return ad._make(data, (x,), lambda g: (grad_of(g),))


def exp(x):
    x = ad.as_tensor(x)
    data = np.exp(x.data)
    return _node(x, data, lambda g: g * data)


def log(x):
    x = ad.as_tensor(x)
    return _node(x, np.log(x.data), lambda g: g / x.data)


def power(x, p):
    x = ad.as_tensor(x)
    return _node(x, x.data**p, lambda g: g * p * x.data ** (p - 1))


def tanh(x):
    x = ad.as_tensor(x)
    data = np.tanh(x.data)
    return _node(x, data, lambda g: g * (1.0 - data * data))


def softmax(x, axis=-1, in_order=False):
    """Numerically stable softmax along `axis`. With `in_order` its sum adds
    the entries one at a time in index order, as the attention pair's sum
    over keys does."""
    x = ad.as_tensor(x)
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    data = e / (np.expand_dims(functools.reduce(np.add, np.moveaxis(e, axis, 0)), axis)
                if in_order else e.sum(axis=axis, keepdims=True))
    return _node(x, data,
                 lambda g: data * (g - (g * data).sum(axis=axis, keepdims=True)))


def reshape(x, shape):
    x = ad.as_tensor(x)
    return _node(x, x.data.reshape(shape), lambda g: g.reshape(x.shape))


def matmul(a, b):
    """`a @ b` for 1-D, 2-D and batched operands; the library's products all
    go through `linear`."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)

    def vjp(g):
        if b.data.ndim == 1:
            ga = np.outer(g, b.data) if a.data.ndim == 2 else g * b.data
        else:
            ga = g @ b.data.swapaxes(-1, -2)
        if a.data.ndim == 1:
            gb = np.outer(a.data, g) if b.data.ndim == 2 else g * a.data
        else:
            gb = a.data.swapaxes(-1, -2) @ g
        return (ad._unbroadcast(np.asarray(ga), a.shape),
                ad._unbroadcast(np.asarray(gb), b.shape))

    return ad._make(a.data @ b.data, (a, b), vjp)


def row_sum(a, b=None):
    """sum(a * b) (or sum(a)) over the last axis, kept as size 1, by the
    einsum the layer-norm pair sums with."""
    if b is None:
        a = ad.as_tensor(a)
        return _node(a, np.einsum("...i->...", a.data)[..., None],
                     lambda g: np.broadcast_to(g, a.shape))
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    return ad._make(np.einsum("...i,...i->...", a.data, b.data)[..., None], (a, b),
                    lambda g: (g * b.data, g * a.data))


def sub(a, b):
    """a - b as a + b * -1; negation is exact, so it is bitwise a - b."""
    return ad.add(a, ad.mul(b, -1.0))


def tmean(x, axis=None, keepdims=False):
    x = ad.as_tensor(x)
    if axis is None:
        n = x.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([x.shape[a] for a in axes]))
    return ad.mul(ad.tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm as nine nodes; the fused node reproduces its forward
    bitwise."""
    n = x.shape[-1]
    xc = sub(x, ad.mul(row_sum(x), 1.0 / n))
    var = ad.mul(row_sum(xc, xc), 1.0 / n)
    inv = power(ad.add(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(xc, inv), gain), bias)


def gelu(x):
    """GELU as seven nodes, with the ops of `autodiff.gelu_forward` in its
    order, so its forward is bitwise the pair's."""
    x = ad.as_tensor(x)
    cube = ad.mul(ad.mul(x, x), x)
    t = tanh(ad.mul(ad.add(x, ad.mul(cube, 0.044715)), _GELU_C))
    return ad.mul(ad.mul(x, 0.5), ad.add(t, 1.0))


def l2_normalize(x, eps=1e-12):
    """Row normalization as seven nodes."""
    x = ad.as_tensor(x)
    norm = power(ad.tsum(ad.mul(x, x), axis=-1, keepdims=True), 0.5)
    guard = (norm.data >= eps).astype(np.float64)
    denom = ad.add(ad.mul(norm, guard), eps * (1.0 - guard))
    return ad.mul(x, power(denom, -1.0))


def masked_logsumexp(x, weights, axis=-1):
    """log(sum(weights * exp(x))) along `axis` as six nodes; entries of
    weight 0 are masked before exp."""
    x = ad.as_tensor(x)
    weights = np.asarray(weights, dtype=np.float64)
    keep = (weights > 0).astype(np.float64)
    shift = np.where(keep > 0, x.data, -np.inf).max(axis=axis, keepdims=True)
    z = ad.mul(sub(x, shift), keep)
    s = ad.tsum(ad.mul(exp(z), weights), axis=axis)
    return ad.add(log(s), np.squeeze(shift, axis=axis))


def softmax_xent(z, weights, positives):
    """The weighted cross-entropy as two masked log-sum-exps: one over the
    weighted columns, one over the gathered positive columns."""
    z = ad.as_tensor(z)
    pos = np.asarray(positives)
    rows = np.broadcast_to(np.arange(z.shape[0])[:, None], pos.shape)
    zp = ad.getitem(z, (rows, pos))
    return tmean(sub(masked_logsumexp(z, weights, axis=1),
                     masked_logsumexp(zp, np.ones(pos.shape), axis=1)))


def contrastive_loss(ctx, emb, variant):
    """`objectives.contrastive_loss` as a product of every anchor row with
    the two-modality table: each anchor gathered per occurrence, an
    (anchors, 2U) weight matrix and the anchors' positive columns into the
    two-log-sum-exp cross-entropy above."""
    if variant == "nicl":
        a_u, a_l = ctx.tr_u, ctx.tr_l
    else:
        a_u, a_l = ctx.occ_u, ctx.occ_l
    n_items = len(ctx.unique)
    table = ad.l2_normalize(ad.concat([emb["t_cls"], emb["v_cls"]]))
    t_rows = ctx.pos_to_row[a_u, a_l]
    anchors = np.concatenate([t_rows, t_rows + n_items])  # text, then vision
    other = np.concatenate([t_rows + n_items, t_rows])  # same item, other modality
    z = ad.linear(ad.getitem(table, anchors), ad.transpose(table, (1, 0)))
    neg = ctx.neg_weight[a_u]
    intra = np.zeros_like(neg) if variant == "vcl" else neg
    w = np.block([[intra, neg], [neg, intra]])
    w[np.arange(len(anchors)), other] += 1
    if variant == "nicl":
        t_next = ctx.pos_to_row[a_u, a_l + 1]
        v_next = t_next + n_items
        pos = np.stack([other, np.concatenate([v_next, t_next]),
                        np.concatenate([t_next, v_next])], axis=1)
    else:
        pos = other[:, None]
    return softmax_xent(z, w, pos)


def _prepend(row, parts, key_mask):
    """The learned (d,) `row` in front of the (B, S_i, d) `parts`, with a key
    mask in which the row is always a key."""
    b, d = key_mask.shape[0], row.shape[-1]
    head = ad.add(reshape(row, (1, 1, d)), np.zeros((b, 1, d)))
    return (ad.concat([head, *parts], axis=1),
            np.concatenate([np.ones((b, 1)), key_mask], axis=1))


def _blocks(params, n_blocks, x, key_mask, n_heads, row=None):
    """Blocks b0..b{n_blocks-1} over x, none of them causal; with `row`, the
    last one computes only that row of each sequence."""
    bias = attention_bias(key_mask)
    for i in range(n_blocks):
        x = transformer_block(params, f"b{i}.", x, bias, n_heads,
                              row=row if i == n_blocks - 1 else None)
    return x


def item_embeddings(model, token_ids, pad_mask, patches):
    """`RecModel.item_embeddings` with positions added to each part before
    the stack input is assembled: `tok_emb[ids] + pos[1:]` and
    `proj(patches) + pos[1:]`, with `cls + pos[0]` prepended."""
    cfg, groups = model.cfg, model.groups
    pad_mask = np.asarray(pad_mask, dtype=np.float64)

    def encode(params, emb, key_mask, n_blocks):
        emb = ad.add(emb, ad.getitem(params["pos"], slice(1, emb.shape[1] + 1)))
        cls = ad.add(params["cls"], ad.getitem(params["pos"], 0))
        x, mask = _prepend(cls, [emb], key_mask)
        x = _blocks(params, n_blocks, x, mask, cfg.n_heads)
        return ad.getitem(x, (slice(None), 0)), ad.getitem(x, (slice(None), slice(1, None)))

    out = {}
    if cfg.modality in ("both", "text"):
        p = groups["text_encoder"]
        out["t_cls"], t_hid = encode(p, ad.getitem(p["tok_emb"], token_ids), pad_mask,
                                     cfg.text_blocks)
    if cfg.modality in ("both", "vision"):
        p = groups["vision_encoder"]
        out["v_cls"], v_hid = encode(p, ad.linear(patches, p["proj_w"], p["proj_b"]),
                                     np.ones(patches.shape[:2]), cfg.vision_blocks)
    if cfg.modality == "both":
        p = groups["fusion"]
        x, mask = _prepend(p["mm_cls"], [t_hid, v_hid],
                           np.concatenate([pad_mask, np.ones(v_hid.shape[:2])], axis=1))
        out["e_cls"] = _blocks(p, cfg.fusion_blocks, x, mask, cfg.n_heads, row=0)
    else:
        out["e_cls"] = out["t_cls" if cfg.modality == "text" else "v_cls"]
    return out
