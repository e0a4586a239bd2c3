import functools

import numpy as np
import pytest

from mmrec import autodiff as ad
from mmrec import encoders as enc
from mmrec.encoders import ModelConfig
from mmrec.model import RecModel

from . import composites as C


@pytest.fixture
def model():
    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=2, vocab_size=20, p_max=4,
                      q=16, patch_dim=12, text_blocks=2, vision_blocks=2,
                      user_blocks=1, L_max=6)
    return RecModel.init(cfg, seed=0)


def test_text_output_shapes(model):
    ids = np.array([[1, 2, 3, 0], [4, 5, 0, 0]])
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=float)
    cls, hid = model.encode_text(ids, mask)
    assert cls.shape == (2, 8)
    assert hid.shape == (2, 4, 8)


def test_text_padded_content_irrelevant(model):
    ids = np.array([[1, 2, 3, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 0.0]])
    cls1, hid1 = model.encode_text(ids, mask)
    ids2 = ids.copy()
    ids2[0, 3] = 17  # different id in the padded slot
    cls2, hid2 = model.encode_text(ids2, mask)
    np.testing.assert_array_equal(cls1.data, cls2.data)
    np.testing.assert_array_equal(hid1.data[:, :3], hid2.data[:, :3])


def test_text_rejects_out_of_vocab(model):
    ids = np.array([[1, 99, 3, 0]])
    mask = np.ones((1, 4))
    with pytest.raises(ValueError, match="vocabulary"):
        model.encode_text(ids, mask)


def fd_check_param(model, param, loss_fn, step=1e-5, tol=1e-4):
    """Central-difference check of loss_fn's gradient w.r.t. one parameter."""
    model.zero_grad()
    loss_fn().backward()
    analytic = param.grad if param.grad is not None else np.zeros_like(param.data)
    numeric = ad.central_difference(loss_fn, param.data.reshape(-1), step)
    assert ad.relative_error(analytic.reshape(-1), numeric) <= tol


def test_text_cls_gradient_matches_finite_differences(model):
    ids = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    mask = np.ones((2, 4))
    readout = np.random.default_rng(0).normal(size=8)

    def loss():
        cls, _hid = model.encode_text(ids, mask)
        return ad.tsum(C.matmul(cls, readout))

    fd_check_param(model, model.groups["text_encoder"]["tok_emb"], loss)


def test_vision_output_shapes(model):
    rng = np.random.default_rng(0)
    patches = rng.normal(size=(3, 16, 12))
    cls, hid = model.encode_vision(patches)
    assert cls.shape == (3, 8)
    assert hid.shape == (3, 16, 8)


def test_vision_rejects_wrong_patch_grid(model):
    with pytest.raises(ValueError, match="patches"):
        model.encode_vision(np.zeros((1, 5, 12)))
    with pytest.raises(ValueError, match="patches"):
        model.encode_vision(np.zeros((1, 16, 3)))


def test_vision_deterministic(model):
    patches = np.random.default_rng(1).normal(size=(2, 16, 12))
    a, _ = model.encode_vision(patches)
    b, _ = model.encode_vision(patches)
    np.testing.assert_array_equal(a.data, b.data)


def test_vision_patch_order_matters(model):
    rng = np.random.default_rng(2)
    patches = rng.normal(size=(1, 16, 12))
    cls1, _ = model.encode_vision(patches)
    cls2, _ = model.encode_vision(patches[:, ::-1])
    assert not np.allclose(cls1.data, cls2.data)


def test_fusion_shape_and_position_count(model):
    rng = np.random.default_rng(3)
    t_hid = ad.Tensor(rng.normal(size=(2, 4, 8)))
    v_hid = ad.Tensor(rng.normal(size=(2, 16, 8)))
    mask = np.ones((2, 4))
    e = model.fuse(t_hid, v_hid, mask)
    assert e.shape == (2, 8)


def test_fusion_ignores_masked_text(model):
    rng = np.random.default_rng(4)
    t_hid = ad.Tensor(rng.normal(size=(1, 4, 8)))
    v_hid = ad.Tensor(rng.normal(size=(1, 16, 8)))
    mask = np.zeros((1, 4))
    e1 = model.fuse(t_hid, v_hid, mask)
    t_hid2 = ad.Tensor(rng.normal(size=(1, 4, 8)))  # perturb masked hiddens
    e2 = model.fuse(t_hid2, v_hid, mask)
    np.testing.assert_array_equal(e1.data, e2.data)


def test_fusion_rejects_dimension_mismatch(model):
    with pytest.raises(ValueError, match="dimension"):
        model.fuse(ad.Tensor(np.zeros((1, 4, 5))),
                   ad.Tensor(np.zeros((1, 16, 8))), np.ones((1, 4)))


def test_fusion_gradient_wrt_mm_cls(model):
    rng = np.random.default_rng(5)
    t_hid = ad.Tensor(rng.normal(size=(1, 4, 8)))
    v_hid = ad.Tensor(rng.normal(size=(1, 16, 8)))
    mask = np.ones((1, 4))
    readout = rng.normal(size=8)

    def loss():
        e = model.fuse(t_hid, v_hid, mask)
        return ad.tsum(C.matmul(e, readout))

    fd_check_param(model, model.groups["fusion"]["mm_cls"], loss)


def test_frozen_blocks_receive_zero_gradient(model):
    model.set_trainable_top_blocks(1)
    ids = np.array([[1, 2, 3, 4]])
    mask = np.ones((1, 4))
    model.zero_grad()
    cls, _ = model.encode_text(ids, mask)
    ad.tsum(ad.mul(cls, cls)).backward()
    te = model.groups["text_encoder"]
    assert te["b0.wq"].grad is None  # frozen bottom block
    assert te["tok_emb"].grad is None  # embeddings freeze with the bottom
    assert te["b1.wq"].grad is not None  # trainable top block
    model.set_trainable_top_blocks("all")
    assert te["b0.wq"].requires_grad


def test_trainable_top_blocks_bounds(model):
    with pytest.raises(ValueError, match="trainable_top_blocks"):
        model.set_trainable_top_blocks(3)
    with pytest.raises(ValueError, match="trainable_top_blocks"):
        model.set_trainable_top_blocks(0)


def test_config_rejects_bad_head_split():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(d=10, n_heads=4)


@pytest.mark.parametrize("kwargs", [dict(d="8"), dict(d=8.0), dict(n_heads=True),
                                    dict(d=0), dict(n_heads=0), dict(d=-4, n_heads=-2),
                                    dict(vocab_size="20"), dict(vocab_size=-1),
                                    dict(ffn_mult=0), dict(p_max=0), dict(q=0),
                                    dict(patch_dim=0), dict(L_max=0),
                                    dict(text_blocks=-1), dict(vision_blocks=-1),
                                    dict(fusion_blocks=-1), dict(user_blocks=-1)])
def test_config_rejects_non_integer_or_non_positive(kwargs):
    with pytest.raises(ValueError):
        ModelConfig(**{"d": 8, "n_heads": 2, **kwargs})


@pytest.mark.parametrize("field", ["text_blocks", "vision_blocks", "fusion_blocks",
                                   "user_blocks"])
def test_config_zero_blocks_runs_forward_and_backward(field):
    from mmrec import objectives as obj
    from mmrec.gradcheck import random_batch

    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=1, vocab_size=12, p_max=4, q=4,
                      patch_dim=4, L_max=4, **{field: 0})
    model = RecModel.init(cfg, 0)
    batch = random_batch(cfg, np.random.default_rng(0), B=3, L=4, n_items=12)
    total, parts = obj.total_loss(model, batch, obj.ObjectiveConfig())
    total.backward()
    assert all(np.isfinite(v) for v in parts.values())
    assert all(np.isfinite(t.grad).all() for _, t in model.named_parameters()
               if t.grad is not None)


def _composite_block(params, prefix, x, bias, n_heads):
    """The transformer layer written with one primitive per op (per-head
    reshape/transpose, softmax summing its keys in key order, composite
    layer norm and GELU): the reference the block node must reproduce."""
    from .composites import gelu, layer_norm, softmax

    b, s, d = x.shape
    dh = d // n_heads

    def proj(t, w, bb=None):
        out = C.matmul(t, params[prefix + w])
        return out if bb is None else ad.add(out, params[prefix + bb])

    def heads(t):
        return ad.transpose(C.reshape(t, (b, s, n_heads, dh)), (0, 2, 1, 3))

    q, k, v = (heads(proj(x, "wq", "bq")), heads(proj(x, "wk")),
               heads(proj(x, "wv", "bv")))
    scores = ad.mul(C.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = softmax(ad.add(scores, bias), axis=-1, in_order=True)
    ctx = C.reshape(ad.transpose(C.matmul(attn, v), (0, 2, 1, 3)), (b, s, d))
    x = layer_norm(ad.add(x, proj(ctx, "wo", "bo")),
                   params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    ff = proj(gelu(proj(x, "w1", "b1")), "w2", "b2")
    return layer_norm(ad.add(x, ff), params[prefix + "ln2_g"], params[prefix + "ln2_b"])


@pytest.mark.parametrize("causal", [False, True])
def test_transformer_block_matches_composite(causal):
    rng = np.random.default_rng(6)
    params = enc.init_block(rng, 8, 2, "b0.")
    for t in params.values():  # move gains and biases off their 1/0 init
        t.data = t.data + rng.normal(size=t.shape) * 0.1
    # 5 keys, and 11, where the softmax's sum over keys in key order differs
    # from a pairwise one
    masks = [np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 1, 1, 0]]),
             np.array([[1] * 11, [1] * 8 + [0] * 3, [1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1]])]
    for key_mask in masks:
        x0 = rng.normal(size=(3, key_mask.shape[1], 8))
        bias = enc.attention_bias(key_mask, causal=causal)
        weights = rng.normal(size=x0.shape)
        runs = []
        for block in (enc.transformer_block, _composite_block):
            x = ad.Tensor(x0.copy(), requires_grad=True)
            for t in params.values():
                t.zero_grad()
            out = block(params, "b0.", x, bias, 2)
            ad.tsum(ad.mul(out, weights)).backward()
            runs.append((out.data, {"x": x.grad, **{n: t.grad for n, t in params.items()}}))
        (got, got_g), (want, want_g) = runs
        assert got.tobytes() == want.tobytes()
        for name, w in want_g.items():
            np.testing.assert_allclose(got_g[name], w, rtol=0,
                                       atol=1e-12 * np.abs(w).max(), err_msg=name)


def test_block_is_one_node(model):
    # over every row, and restricted to one row
    from mmrec.autodiff import _toposort

    x = ad.Tensor(np.zeros((2, 3, 8)), requires_grad=True)
    params = model.groups["user_encoder"]
    for row, shape in ((None, (2, 3, 8)), (1, (2, 8))):
        out = enc.transformer_block(params, "b0.", x, enc.attention_bias(np.ones((2, 3))),
                                    2, row=row)
        assert out.shape == shape
        inner = [n for n in _toposort(out) if n._backward is not None]
        assert inner == [out]
        assert out._parents == (x, *(params["b0." + n] for n in enc.BLOCK_PARAMS))


@pytest.mark.parametrize("row", [None, 1], ids=["all_rows", "query_rows"])
def test_gradient_check_block_node(row):
    # padded keys and a causal bias; with `row`, the node over that row of
    # every sequence, whose bias is the key mask alone
    rng = np.random.default_rng(40)
    params = enc.init_block(rng, 8, 2, "b0.")
    for t in params.values():  # move gains and biases off their 1/0 init
        t.data = t.data + rng.normal(size=t.shape) * 0.1
    x = ad.Tensor(rng.normal(size=(3, 5, 8)), requires_grad=True)
    key_mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 1, 0, 0, 0]])
    bias = enc.attention_bias(key_mask, causal=row is None)
    weights = rng.normal(size=(3, 5, 8) if row is None else (3, 8))

    def block():
        return enc.transformer_block(params, "b0.", x, bias, 2, row=row)

    def loss():
        return ad.tsum(ad.mul(block(), weights))

    assert len(block()._parents) == 16
    loss().backward()
    if row is not None:
        # x's gradient at the query row and at another real key, through
        # the keys and values alone, are both checked
        assert np.abs(x.grad[:, row]).min() > 0 and np.abs(x.grad[:, 0]).min() > 0
    for name, t in [("x", x), *params.items()]:
        numeric = ad.central_difference(loss, t.data.reshape(-1))
        assert ad.relative_error(t.grad.reshape(-1), numeric) <= 1e-4, name


def test_last_rows_key_mask_is_their_causal_row_bitwise():
    # a query at its sequence's last real key gets the same attention from
    # the key mask alone as from its row of the causal bias, where the key
    # mask and the triangle both give -2e9
    rng = np.random.default_rng(41)
    key_mask = np.array([[1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 0]])
    last = key_mask.sum(axis=1) - 1
    row = enc.attention_bias(key_mask, causal=True)[np.arange(3), :, last][:, :, None]
    assert (row == -2e9).any()
    q, k, v = rng.normal(size=(3, 1, 8)), rng.normal(size=(3, 6, 8)), rng.normal(size=(3, 6, 8))
    got = ad.attention_forward(q, k, v, enc.attention_bias(key_mask), 2)
    want = ad.attention_forward(q, k, v, row, 2)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_causal_bias_is_the_triu_triangle_bitwise():
    # the comparison triangle against `np.triu` of ones, signed zeros
    # included, with every key real and with the last keys padded
    for s in range(1, 13):
        triu = (np.triu(np.ones((s, s)), k=1) * -1e9)[None, None, :, :]
        for n_real in sorted({s, max(1, s - 3)}):
            key_mask = np.zeros((2, s))
            key_mask[:, :n_real] = 1.0
            want = (key_mask[:, None, None, :] - 1.0) * 1e9 + triu
            got = enc.attention_bias(key_mask, causal=True)
            assert got.shape == (2, 1, s, s)
            assert got.tobytes() == want.tobytes()


def _full_row_fuse(params, cfg, text_hiddens, vision_hiddens, text_mask):
    """Fusion with every block run over all 1 + p + q rows, reading mm_cls
    off row 0: the reference for the row-restricted final block."""
    b = text_hiddens.shape[0]
    mm = ad.add(C.reshape(params["mm_cls"], (1, 1, cfg.d)), np.zeros((b, 1, cfg.d)))
    x = ad.concat([mm, text_hiddens, vision_hiddens], axis=1)
    key_mask = np.concatenate([np.ones((b, 1)), text_mask,
                               np.ones(vision_hiddens.shape[:2])], axis=1)
    bias = enc.attention_bias(key_mask)
    for i in range(cfg.fusion_blocks):
        x = enc.transformer_block(params, f"b{i}.", x, bias, cfg.n_heads)
    return ad.getitem(x, (slice(None), 0))


def _fusion_model(blocks):
    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=2, vocab_size=20, p_max=4, q=5,
                      patch_dim=3, text_blocks=1, vision_blocks=1,
                      fusion_blocks=blocks, user_blocks=1, L_max=6)
    model = RecModel.init(cfg, seed=20 + blocks)
    rng = np.random.default_rng(blocks)
    for group in ("text_encoder", "vision_encoder", "fusion"):
        for t in model.groups[group].values():  # move gains and biases off 1/0
            t.data = t.data + rng.normal(size=t.shape) * 0.1
    return model


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_fusion_final_block_matches_full_row_fusion(blocks):
    model = _fusion_model(blocks)
    rng = np.random.default_rng(30 + blocks)
    ids = rng.integers(1, 20, size=(5, 4))
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0],
                     [1, 0, 0, 0]], dtype=float)
    patches = rng.normal(size=(5, 5, 3))
    weights = rng.normal(size=(5, 8))
    fusions = (model.fuse,
               lambda t, v, m: _full_row_fuse(model.groups["fusion"], model.cfg, t, v, m))
    runs = []
    for fuse in fusions:
        model.zero_grad()
        _, t_hid = model.encode_text(ids, mask)
        _, v_hid = model.encode_vision(patches)
        e_cls = fuse(t_hid, v_hid, mask)
        ad.tsum(ad.mul(e_cls, weights)).backward()
        runs.append((e_cls.data, {n: t.grad for n, t in model.named_parameters()
                                  if n.split(".")[0] in ("text_encoder",
                                                         "vision_encoder", "fusion")}))
    (got, got_g), (want, want_g) = runs
    assert got.shape == (5, 8)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    assert got_g.keys() == want_g.keys()
    for name, w in want_g.items():
        assert (got_g[name] is None) == (w is None), name
        if w is None:
            continue
        np.testing.assert_allclose(got_g[name], w, rtol=0,
                                   atol=1e-12 * np.abs(w).max(), err_msg=name)


def test_final_fusion_block_attends_with_one_query_row(monkeypatch):
    model = _fusion_model(2)
    query_shapes = []
    attention_forward = ad.attention_forward

    def recording_attention(q, k, v, bias, n_heads):
        query_shapes.append(q.shape)
        return attention_forward(q, k, v, bias, n_heads)

    monkeypatch.setattr(ad, "attention_forward", recording_attention)
    rng = np.random.default_rng(7)
    t_hid = ad.Tensor(rng.normal(size=(3, 4, 8)))
    v_hid = ad.Tensor(rng.normal(size=(3, 5, 8)))
    e_cls = model.fuse(t_hid, v_hid, np.ones((3, 4)))
    assert e_cls.shape == (3, 8)
    assert query_shapes == [(3, 10, 8), (3, 1, 8)]


@pytest.mark.parametrize("modality", ["both", "text", "vision"])
def test_item_embeddings_match_per_part_assembly(modality):
    # one `pos` addition over the assembled input, head row included, is
    # bitwise the per-part additions it replaced, forward and backward
    from .composites import item_embeddings

    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=2, vocab_size=20, p_max=5, q=4,
                      patch_dim=3, text_blocks=2, vision_blocks=1, fusion_blocks=1,
                      user_blocks=1, L_max=6, modality=modality)
    model = RecModel.init(cfg, seed=3)
    rng = np.random.default_rng(4)
    for _, t in model.named_parameters():  # move gains and biases off 1/0
        t.data = t.data + rng.normal(size=t.shape) * 0.1
    ids = rng.integers(0, 20, size=(4, 4))
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]], dtype=float)
    patches = rng.normal(size=(4, 4, 3))
    weights = {k: rng.normal(size=(4, 8)) for k in ("t_cls", "v_cls", "e_cls")}
    runs = []
    for embed in (model.item_embeddings, lambda *a: item_embeddings(model, *a)):
        model.zero_grad()
        out = embed(ids, mask, patches)
        readout = [ad.tsum(ad.mul(out[k], weights[k])) for k in sorted(out)]
        functools.reduce(ad.add, readout).backward()
        runs.append(({k: v.data for k, v in out.items()},
                     {n: t.grad for n, t in model.named_parameters()}))
    (got, got_g), (want, want_g) = runs
    assert got.keys() == want.keys() and got_g.keys() == want_g.keys()
    for k, w in want.items():
        np.testing.assert_array_equal(got[k], w, err_msg=k)
    for name, w in want_g.items():
        assert (got_g[name] is None) == (w is None), name
        if w is not None:
            np.testing.assert_array_equal(got_g[name], w, err_msg=name)


# ---------------------------------------------------------------------------
# user encoder
# ---------------------------------------------------------------------------

@pytest.fixture
def user_model():
    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=2, vocab_size=20, p_max=4,
                      q=4, patch_dim=4, text_blocks=1, vision_blocks=1,
                      user_blocks=2, L_max=6)
    return RecModel.init(cfg, seed=1)


def test_output_shape(user_model):
    reps = ad.Tensor(np.random.default_rng(0).normal(size=(1, 5, 8)))
    h = user_model.encode_sequence(reps, np.ones((1, 5)))
    assert h.shape == (1, 5, 8)


def test_causality_suffix_perturbation(user_model):
    rng = np.random.default_rng(1)
    base = rng.normal(size=(1, 5, 8))
    mask = np.ones((1, 5))
    h1 = user_model.encode_sequence(ad.Tensor(base), mask)
    pert = base.copy()
    pert[0, 3] += rng.normal(size=8)  # perturb item at position 4 (index 3)
    h2 = user_model.encode_sequence(ad.Tensor(pert), mask)
    np.testing.assert_array_equal(h1.data[0, :3], h2.data[0, :3])
    assert not np.allclose(h1.data[0, 3], h2.data[0, 3])


def test_position_embeddings_break_order_symmetry(user_model):
    rng = np.random.default_rng(2)
    base = rng.normal(size=(1, 4, 8))
    swapped = base.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    mask = np.ones((1, 4))
    h1 = user_model.encode_sequence(ad.Tensor(base), mask)
    h2 = user_model.encode_sequence(ad.Tensor(swapped), mask)
    assert not np.allclose(h1.data[0, 1], h2.data[0, 1])


def test_padded_keys_do_not_influence_real_positions(user_model):
    rng = np.random.default_rng(3)
    base = rng.normal(size=(1, 5, 8))
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    h1 = user_model.encode_sequence(ad.Tensor(base), mask)
    pert = base.copy()
    pert[0, 3:] = rng.normal(size=(2, 8))
    h2 = user_model.encode_sequence(ad.Tensor(pert), mask)
    np.testing.assert_array_equal(h1.data[0, :3], h2.data[0, :3])


def test_rejects_dimension_mismatch(user_model):
    with pytest.raises(ValueError, match="dimension"):
        user_model.encode_sequence(ad.Tensor(np.zeros((1, 4, 5))), np.ones((1, 4)))


def test_rejects_overlong_sequence(user_model):
    with pytest.raises(ValueError, match="L_max"):
        user_model.encode_sequence(ad.Tensor(np.zeros((1, 7, 8))), np.ones((1, 7)))


def test_deterministic(user_model):
    reps = np.random.default_rng(4).normal(size=(2, 4, 8))
    mask = np.ones((2, 4))
    h1 = user_model.encode_sequence(ad.Tensor(reps), mask)
    h2 = user_model.encode_sequence(ad.Tensor(reps), mask)
    np.testing.assert_array_equal(h1.data, h2.data)


def _model_with_blocks(n):
    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=2, vocab_size=20, p_max=4,
                      q=4, patch_dim=4, text_blocks=1, vision_blocks=1,
                      user_blocks=n, L_max=6)
    return RecModel.init(cfg, seed=n + 5)


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_last_position_matches_full_path(blocks):
    model = _model_with_blocks(blocks)
    rng = np.random.default_rng(blocks)
    for length in (6, 1, 3, 5, 2):  # each in its own unpadded call; 6 fills L_max
        reps = ad.Tensor(rng.normal(size=(3, length, 8)))
        with ad.no_grad():
            full = model.encode_sequence(reps, None).data
            last = model.encode_sequence(reps, None, last=True).data
        assert last.shape == (3, 8)
        np.testing.assert_allclose(last, full[:, -1], rtol=0, atol=1e-12)


def test_last_position_takes_no_mask():
    model = _model_with_blocks(1)
    with pytest.raises(ValueError, match="seq_mask must be None"):
        model.encode_sequence(ad.Tensor(np.zeros((2, 3, 8))), np.ones((2, 3)), last=True)


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_encode_prefixes_matches_full_path_with_truncation(blocks):
    from mmrec import transfer
    from mmrec.transfer import ItemIndex

    model = _model_with_blocks(blocks)
    rng = np.random.default_rng(10 + blocks)
    reps = rng.normal(size=(9, 8))
    index = ItemIndex(list(range(9)), reps, model.first_block_projections(reps))
    # lengths 1..9 against L_max=6: the longer prefixes are truncated
    prefixes = [rng.integers(0, 9, size=n).tolist() for n in range(1, 10)]
    got = transfer.encode_prefixes(model, prefixes, None, index, 6)
    for prefix, state in zip(prefixes, got):
        kept = prefix[-6:]
        reps = ad.Tensor(index.reps[kept][None])
        with ad.no_grad():
            full = model.encode_sequence(reps, np.ones((1, len(kept)))).data
        np.testing.assert_allclose(state, full[0, -1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_index_projections_give_the_states_of_projecting_each_call(blocks):
    # an index built from the model stores block 0's item key and value
    # projections, which give the states of projecting its reps in the call
    from mmrec import transfer
    from mmrec.data import ItemRecord

    model = _model_with_blocks(blocks)
    rng = np.random.default_rng(20 + blocks)
    items = {i: ItemRecord(i, rng.integers(1, 20, size=3).tolist(),
                           rng.normal(size=(4, 4))) for i in range(9)}
    index = transfer.build_item_index(model, items)
    assert (index.projections is None) == (blocks == 0)
    if blocks:
        assert len(index.projections) == 2  # (k, v): queries come from the query rows
    bare = transfer.ItemIndex(index.order, index.reps,
                              model.first_block_projections(index.reps))
    prefixes = [rng.integers(0, 9, size=n).tolist() for n in (1, 3, 3, 6, 8)]
    got = transfer.encode_prefixes(model, prefixes, items, index, 6)
    want = transfer.encode_prefixes(model, prefixes, items, bare, 6)
    assert got.tobytes() == want.tobytes()


def test_block_takes_given_projections_only_without_gradients(model):
    params = model.groups["user_encoder"]
    x = ad.Tensor(np.zeros((2, 3, 8)))
    projections = (np.zeros((2, 3, 8)), np.zeros((2, 3, 8)))
    bias = enc.attention_bias(None, causal=True, s=3)
    with pytest.raises(ValueError, match="only under no_grad"):
        enc.transformer_block(params, "b0.", x, bias, 2, projections=projections)
    with ad.no_grad():
        out = enc.transformer_block(params, "b0.", x, bias, 2, projections=projections)
    assert out.shape == (2, 3, 8) and not out.requires_grad
