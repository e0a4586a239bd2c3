import math

import numpy as np
import pytest

from mmrec import autodiff as ad
from mmrec import objectives as obj
from mmrec.data import Batch, ItemRecord
from mmrec.gradcheck import random_batch, small_config
from mmrec.model import RecModel
from mmrec.objectives import (LABEL_REPLACED, LABEL_SHUFFLED,
                              LABEL_UNCHANGED, ObjectiveConfig)

from . import composites as C
from .conftest import encoded_context
from .test_autodiff import _scaled, forward_backward, gradient_check


class ConstModel:
    """Stub whose item embeddings are all equal; isolates loss arithmetic."""

    class cfg:
        modality = "both"
        d = 4

    def item_embeddings(self, ids, mask, patches):
        n = ids.shape[0]
        e = ad.Tensor(np.ones((n, 4)))
        return {"t_cls": e, "v_cls": e, "e_cls": e}

    def encode_sequence(self, reps, mask):
        return reps


def const_batch(B, L, seed=0):
    items = {i: ItemRecord(i, [1], np.zeros((1, 1))) for i in range(B * L)}
    idx = np.arange(B * L).reshape(B, L)
    return Batch(idx=idx, mask=np.ones((B, L)), items=items, rng_seed=seed)


def const_ctx(B, L):
    return encoded_context(ConstModel(), const_batch(B, L))


OCFG = ObjectiveConfig()


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_dap_b1_is_zero():
    ctx, emb = const_ctx(1, 3)
    h = ad.Tensor(np.ones((1, 3, 4)))
    assert obj.dap_loss(ctx, emb["e_cls"], h).item() == pytest.approx(0.0, abs=1e-12)


def test_dap_all_equal_is_log_negatives_plus_one():
    ctx, emb = const_ctx(2, 3)
    h = ad.Tensor(np.ones((2, 3, 4)))
    # each anchor sees the 3 items of the other user as negatives
    assert obj.dap_loss(ctx, emb["e_cls"], h).item() == pytest.approx(math.log(4), abs=1e-9)


def test_dap_rejects_empty_transitions():
    ctx, emb = const_ctx(2, 1)
    with pytest.raises(ValueError, match="transitions"):
        obj.dap_loss(ctx, emb["e_cls"], ad.Tensor(np.ones((2, 1, 4))))


def test_vcl_b1_is_zero():
    ctx, emb = const_ctx(1, 3)
    assert obj.contrastive_loss(ctx, emb, "vcl").item() == pytest.approx(0.0, abs=1e-12)


def test_nicl_b1_all_equal_is_minus_log3():
    ctx, emb = const_ctx(1, 3)
    loss = obj.contrastive_loss(ctx, emb, "nicl").item()
    assert loss == pytest.approx(-math.log(3), abs=1e-9)


def test_nicl_b1_never_positive():
    # numerator contains the denominator's positive plus two nonneg terms
    cfg = small_config()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = RecModel.init(cfg, seed)
        batch = random_batch(cfg, rng, B=1, L=4)
        ctx, emb = encoded_context(model, batch)
        assert obj.contrastive_loss(ctx, emb, "nicl").item() <= 1e-12


def test_nicl_rejects_short_sequences():
    ctx, emb = const_ctx(2, 1)
    with pytest.raises(ValueError, match="length"):
        obj.contrastive_loss(ctx, emb, "nicl")


def test_nid_zero_head_is_log3():
    rng = np.random.default_rng(0)
    h = ad.Tensor(rng.normal(size=(2, 4, 3)))
    labels = np.zeros((2, 4), dtype=np.int64)
    head = {"W": ad.Tensor(np.zeros((3, 3))), "b": ad.Tensor(np.zeros(3))}
    assert obj.nid_loss(h, labels, head).item() == pytest.approx(math.log(3), abs=1e-9)


def test_nid_perfect_head_loss_near_zero():
    # hiddens one-hot on the true class, head scaled up: loss -> 0
    labels = np.array([[0, 1, 2, 0]])
    h = np.zeros((1, 4, 3))
    for pos, lab in enumerate(labels[0]):
        h[0, pos, lab] = 1.0
    head = {"W": ad.Tensor(np.eye(3) * 50.0), "b": ad.Tensor(np.zeros(3))}
    assert obj.nid_loss(ad.Tensor(h), labels, head).item() < 1e-9


def test_rcl_b1_is_zero():
    h = ad.Tensor(np.random.default_rng(0).normal(size=(1, 3, 4)))
    assert obj.rcl_loss(h, h, np.ones((1, 3)), "mean").item() == pytest.approx(0.0, abs=1e-12)


def test_rcl_identical_users_is_log_b():
    h = ad.Tensor(np.ones((3, 2, 4)))
    loss = obj.rcl_loss(h, h, np.ones((3, 2)), "mean").item()
    assert loss == pytest.approx(math.log(3), abs=1e-9)


def test_rcl_last_pooling_is_mean_over_the_last_rows():
    # ragged: full, half and one-item sequences
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
    users, last = np.arange(3), np.array([3, 1, 0])
    rng = np.random.default_rng(16)
    h, hc = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 4, 5))
    full = [ad.Tensor(x, requires_grad=True) for x in (h, hc)]
    rows = [ad.Tensor(x[users, last][:, None], requires_grad=True) for x in (h, hc)]
    got = obj.rcl_loss(*full, mask, "last")
    want = obj.rcl_loss(*rows, np.ones((3, 1)), "mean")
    assert got.item() == want.item()
    got.backward()
    want.backward()
    for f, r in zip(full, rows):
        expected = np.zeros_like(f.data)
        expected[users, last] = r.grad[:, 0]
        assert f.grad.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# independent scalar enumeration oracles
# ---------------------------------------------------------------------------

@pytest.fixture
def pipeline():
    cfg = small_config()
    rng = np.random.default_rng(42)
    model = RecModel.init(cfg, 42)
    batch = random_batch(cfg, rng, B=2, L=3, n_items=6)
    ctx, emb = encoded_context(model, batch)
    reps = ad.getitem(emb["e_cls"], ctx.pos_to_row)
    hiddens = model.encode_sequence(reps, batch.mask)
    return model, batch, ctx, emb, hiddens


def occurrence_list(batch):
    occ = []
    for u in range(batch.idx.shape[0]):
        for l in range(batch.idx.shape[1]):
            if batch.mask[u, l] > 0:
                occ.append((u, int(batch.idx[u, l])))
    return occ


def negatives_for(batch, u):
    own = {int(i) for i, m in zip(batch.idx[u], batch.mask[u]) if m > 0}
    return [(k, it) for k, it in occurrence_list(batch) if k != u and it not in own]


def test_dap_matches_scalar_enumeration(pipeline):
    model, batch, ctx, emb, hiddens = pipeline
    e = {int(c): emb["e_cls"].data[r] for r, c in enumerate(ctx.unique)}
    h = hiddens.data
    total, count = 0.0, 0
    for u in range(2):
        for l in range(2):
            pos = math.exp(float(h[u, l] @ e[int(batch.idx[u, l + 1])]))
            den = pos
            for _, it in negatives_for(batch, u):
                den += math.exp(float(h[u, l] @ e[it]))
            total += -math.log(pos / den)
            count += 1
    expected = total / count
    assert obj.dap_loss(ctx, emb["e_cls"], hiddens).item() == pytest.approx(expected, rel=1e-10)


def _normalized(ctx, emb, key):
    arr = emb[key].data
    return {int(c): arr[r] / np.linalg.norm(arr[r]) for r, c in enumerate(ctx.unique)}


def test_nicl_matches_scalar_enumeration(pipeline):
    model, batch, ctx, emb, _ = pipeline
    t = _normalized(ctx, emb, "t_cls")
    v = _normalized(ctx, emb, "v_cls")

    def delta(a, b):
        return math.exp(float(a @ b))

    total, count = 0.0, 0
    for u in range(2):
        for l in range(2):
            cur = int(batch.idx[u, l])
            nxt = int(batch.idx[u, l + 1])
            negs = negatives_for(batch, u)
            num_tv = delta(t[cur], v[cur]) + delta(t[cur], v[nxt]) + delta(t[cur], t[nxt])
            den_tv = delta(t[cur], v[cur]) + sum(delta(t[cur], v[it]) for _, it in negs) \
                + sum(delta(t[cur], t[it]) for _, it in negs)
            num_vt = delta(v[cur], t[cur]) + delta(v[cur], t[nxt]) + delta(v[cur], v[nxt])
            den_vt = delta(v[cur], t[cur]) + sum(delta(v[cur], t[it]) for _, it in negs) \
                + sum(delta(v[cur], v[it]) for _, it in negs)
            total += (-math.log(num_tv / den_tv) - math.log(num_vt / den_vt)) / 2.0
            count += 1
    expected = total / count
    got = obj.contrastive_loss(ctx, emb, "nicl").item()
    assert got == pytest.approx(expected, rel=1e-10)


def test_vcl_icl_match_scalar_enumeration(pipeline):
    model, batch, ctx, emb, _ = pipeline
    t = _normalized(ctx, emb, "t_cls")
    v = _normalized(ctx, emb, "v_cls")

    def delta(a, b):
        return math.exp(float(a @ b))

    for variant in ("vcl", "icl"):
        total, count = 0.0, 0
        for u in range(2):
            for l in range(3):
                cur = int(batch.idx[u, l])
                negs = negatives_for(batch, u)
                den_tv = delta(t[cur], v[cur]) + sum(delta(t[cur], v[it]) for _, it in negs)
                den_vt = delta(v[cur], t[cur]) + sum(delta(v[cur], t[it]) for _, it in negs)
                if variant == "icl":
                    den_tv += sum(delta(t[cur], t[it]) for _, it in negs)
                    den_vt += sum(delta(v[cur], v[it]) for _, it in negs)
                total += (-math.log(delta(t[cur], v[cur]) / den_tv)
                          - math.log(delta(v[cur], t[cur]) / den_vt)) / 2.0
                count += 1
        expected = total / count
        got = obj.contrastive_loss(ctx, emb, variant).item()
        assert got == pytest.approx(expected, rel=1e-10), variant


def test_nid_matches_scalar_enumeration(pipeline):
    model, batch, ctx, emb, _ = pipeline
    corr_rows, labels = obj.corrupt_batch(ctx, OCFG)
    corr_reps = ad.getitem(emb["e_cls"], corr_rows)
    corr_h = model.encode_sequence(corr_reps, batch.mask)
    W = model.groups["nid_head"]["W"].data
    b = model.groups["nid_head"]["b"].data
    total, count = 0.0, 0
    for u in range(2):
        for l in range(3):
            scores = np.maximum(corr_h.data[u, l] @ W + b, 0.0)
            p = np.exp(scores - scores.max())
            p /= p.sum()
            total += -math.log(p[labels[u, l]])
            count += 1
    expected = total / count
    got = obj.nid_loss(corr_h, labels, model.groups["nid_head"]).item()
    assert got == pytest.approx(expected, rel=1e-10)


def test_rcl_matches_scalar_enumeration():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(3, 4, 4))
    hc = rng.normal(size=(3, 4, 4))
    mask = np.ones((3, 4))
    pooled = h.mean(axis=1)
    pooled_c = hc.mean(axis=1)
    total = 0.0
    for u in range(3):
        pos = math.exp(float(pooled[u] @ pooled_c[u]))
        den = sum(math.exp(float(pooled[u] @ pooled_c[k])) for k in range(3))
        total += -math.log(pos / den)
    expected = total / 3
    got = obj.rcl_loss(ad.Tensor(h), ad.Tensor(hc), mask, "mean").item()
    assert got == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def test_corruption_counts_l20():
    assert obj.corruption_counts(20, 0.15, 0.05) == (3, 1)


def test_corruption_zero_rates_identity():
    rng = np.random.default_rng(0)
    seq = list(range(10))
    out, labels = obj.corrupt_sequence(seq, 0.0, 0.0, rng, [99])
    assert out == seq
    assert labels == [LABEL_UNCHANGED] * 10


def test_corruption_rejects_bad_rates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="rates"):
        obj.corrupt_sequence(list(range(5)), 1.5, 0.0, rng, [99])


def test_corruption_histogram_and_derangement():
    pool = list(range(100, 120))
    for seed in range(500):
        rng = np.random.default_rng(seed)
        seq = list(range(20))
        out, labels = obj.corrupt_sequence(seq, 0.15, 0.05, rng, pool)
        hist = [labels.count(c) for c in (0, 1, 2)]
        assert hist == [16, 3, 1]
        for p, lab in enumerate(labels):
            if lab == LABEL_SHUFFLED:
                assert out[p] != seq[p]  # derangement: no fixed points
            if lab == LABEL_REPLACED:
                assert out[p] in pool
            if lab == LABEL_UNCHANGED:
                assert out[p] == seq[p]
        sh = [p for p, lab in enumerate(labels) if lab == LABEL_SHUFFLED]
        assert sorted(out[p] for p in sh) == sorted(seq[p] for p in sh)


def test_corruption_short_sequence_reduces_replacement_first():
    # L=2: shuffle count bumps to 2 (a swap), leaving no room to replace
    rng = np.random.default_rng(1)
    out, labels = obj.corrupt_sequence([7, 8], 0.15, 0.05, rng, [99])
    assert sorted(out) == [7, 8]
    assert labels == [LABEL_SHUFFLED, LABEL_SHUFFLED]


def test_corrupt_batch_reproducible_and_order_invariant():
    cfg = small_config()
    model = RecModel.init(cfg, 3)
    rng = np.random.default_rng(3)
    batch = random_batch(cfg, rng, B=3, L=4, n_items=12)
    ctx, _ = encoded_context(model, batch)
    rows1, labels1 = obj.corrupt_batch(ctx, OCFG)
    rows2, labels2 = obj.corrupt_batch(ctx, OCFG)
    np.testing.assert_array_equal(rows1, rows2)
    np.testing.assert_array_equal(labels1, labels2)
    perm = [2, 0, 1]
    pbatch = Batch(idx=batch.idx[perm], mask=batch.mask[perm],
                   items=batch.items, rng_seed=batch.rng_seed)
    pctx, _ = encoded_context(model, pbatch)
    prows, plabels = obj.corrupt_batch(pctx, OCFG)
    np.testing.assert_array_equal(plabels, labels1[perm])
    np.testing.assert_array_equal(prows, rows1[perm])  # same unique-item table


@pytest.mark.parametrize("nid, rcl", [(False, False), (True, False), (False, True)])
def test_context_holds_the_corruption_only_for_nid_or_rcl(nid, rcl):
    cfg = small_config()
    batch = random_batch(cfg, np.random.default_rng(3), B=3, L=4, n_items=12)
    ocfg = ObjectiveConfig(nid=nid, rcl=rcl)
    ctx = obj.BatchContext(ocfg, batch)
    if nid or rcl:
        rows, labels = obj.corrupt_batch(ctx, ocfg)
        np.testing.assert_array_equal(ctx.corr_rows, rows)
        np.testing.assert_array_equal(ctx.labels, labels)
    else:
        assert not hasattr(ctx, "corr_rows") and not hasattr(ctx, "labels")
    assert not hasattr(ctx, "emb")  # the model is not read


def test_replaced_items_never_from_anchor_user():
    cfg = small_config()
    model = RecModel.init(cfg, 4)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        batch = random_batch(cfg, rng, B=3, L=4, n_items=12)
        ctx, _ = encoded_context(model, batch)
        rows, labels = obj.corrupt_batch(ctx, OCFG)
        unique = ctx.unique
        for u in range(3):
            own = set(int(i) for i in batch.idx[u])
            for l in range(4):
                if labels[u, l] == LABEL_REPLACED:
                    assert unique[rows[u, l]] not in own


# ---------------------------------------------------------------------------
# negative sets and composition
# ---------------------------------------------------------------------------

def test_negative_set_exclusion_exhaustive():
    cfg = small_config()
    model = RecModel.init(cfg, 5)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # overlapping items across users to exercise the exclusion rule
        batch = random_batch(cfg, rng, B=3, L=4, n_items=5)
        ctx, _ = encoded_context(model, batch)
        unique = [int(c) for c in ctx.unique]
        assert unique == sorted({int(i) for i in batch.idx.reshape(-1)})
        for u in range(3):
            own = {int(i) for i in batch.idx[u]}
            # neg_weight[u, i] counts the occurrences n of item i that are
            # legal negatives for u: occ_u[n] != u and the item is not u's
            expected = np.zeros(len(unique), dtype=np.int64)
            for n in range(len(ctx.occ_u)):
                it = int(batch.idx[ctx.occ_u[n], ctx.occ_l[n]])
                if ctx.occ_u[n] != u and it not in own:
                    expected[unique.index(it)] += 1
            np.testing.assert_array_equal(ctx.neg_weight[u], expected)


# ---------------------------------------------------------------------------
# occurrence-level oracle: every anchor scored against every in-batch
# occurrence with a 0/1 mask, as the losses were computed before they
# scored each unique item once with its occurrence count as weight
# ---------------------------------------------------------------------------

def occurrence_negatives(ctx):
    """allowed[u, n] = 1 iff occurrence n is another user's and its item is
    not in u's sequence; plus each occurrence's row in the unique table."""
    idx, real = ctx.batch.idx, ctx.batch.mask > 0
    occ_item = idx[ctx.occ_u, ctx.occ_l]
    allowed = np.zeros((ctx.B, len(ctx.occ_u)))
    for u in range(ctx.B):
        own = set(int(i) for i in idx[u][real[u]])
        ok = (ctx.occ_u != u) & np.array([int(it) not in own for it in occ_item])
        allowed[u, ok] = 1.0
    return allowed, ctx.pos_to_row[ctx.occ_u, ctx.occ_l]


def occurrence_dap_loss(ctx, e, hiddens):
    allowed, occ_row = occurrence_negatives(ctx)
    h = ad.getitem(hiddens, (ctx.tr_u, ctx.tr_l))
    pos = ad.getitem(e, ctx.pos_to_row[ctx.tr_u, ctx.tr_l + 1])
    e_occ = ad.getitem(e, occ_row)
    pos_score = ad.tsum(ad.mul(h, pos), axis=-1)
    neg_scores = C.matmul(h, ad.transpose(e_occ, (1, 0)))
    z = ad.concat([C.reshape(pos_score, (-1, 1)), neg_scores], axis=1)
    m = np.concatenate([np.ones((len(ctx.tr_u), 1)), allowed[ctx.tr_u]], axis=1)
    lse = C.masked_logsumexp(z, m, axis=1)
    return C.tmean(C.sub(lse, pos_score))


def occurrence_contrastive_loss(ctx, emb, variant):
    all_allowed, occ_row = occurrence_negatives(ctx)
    tn = C.l2_normalize(emb["t_cls"])
    vn = C.l2_normalize(emb["v_cls"])
    t_occ = ad.getitem(tn, occ_row)
    v_occ = ad.getitem(vn, occ_row)
    if variant == "nicl":
        a_u, a_l = ctx.tr_u, ctx.tr_l
    else:
        a_u, a_l = ctx.occ_u, ctx.occ_l
    rows = ctx.pos_to_row[a_u, a_l]
    n_anchor = len(a_u)
    allowed = all_allowed[a_u]

    def one_side(anchor_tab, other_tab, same_occ, other_occ):
        a = ad.getitem(anchor_tab, rows)
        pos = ad.tsum(ad.mul(a, ad.getitem(other_tab, rows)), axis=-1)
        pos = C.reshape(pos, (-1, 1))
        inter = C.matmul(a, ad.transpose(other_occ, (1, 0)))
        cols = [pos, inter]
        masks = [np.ones((n_anchor, 1)), allowed]
        if variant in ("icl", "nicl"):
            intra = C.matmul(a, ad.transpose(same_occ, (1, 0)))
            cols.append(intra)
            masks.append(allowed)
        den = C.masked_logsumexp(ad.concat(cols, axis=1),
                                 np.concatenate(masks, axis=1), axis=1)
        if variant == "nicl":
            nrows = ctx.pos_to_row[a_u, a_l + 1]
            nxt_other = ad.tsum(ad.mul(a, ad.getitem(other_tab, nrows)), axis=-1)
            nxt_same = ad.tsum(ad.mul(a, ad.getitem(anchor_tab, nrows)), axis=-1)
            numz = ad.concat([pos, C.reshape(nxt_other, (-1, 1)),
                              C.reshape(nxt_same, (-1, 1))], axis=1)
            num = C.masked_logsumexp(numz, np.ones((n_anchor, 3)), axis=1)
        else:
            num = C.reshape(pos, (-1,))
        return C.sub(den, num)

    tv = one_side(tn, vn, t_occ, v_occ)
    vt = one_side(vn, tn, v_occ, t_occ)
    return C.tmean(ad.mul(ad.add(tv, vt), 0.5))


def occurrence_corrupt_batch(ctx, cfg):
    """Returns (rows, labels, per-user pools) built from the sorted list of
    every legal occurrence's item."""
    batch = ctx.batch
    corr_rows = ctx.pos_to_row.copy()
    labels = np.full(batch.idx.shape, obj.LABEL_PAD, dtype=np.int64)
    row_of = {int(c): r for r, c in enumerate(ctx.unique)}
    pools = []
    for u in range(ctx.B):
        length = int(batch.mask[u].sum())
        seq = [int(i) for i in batch.idx[u, :length]]
        own = set(seq)
        pool = sorted(int(it) for n, it in
                      enumerate(batch.idx[ctx.occ_u, ctx.occ_l])
                      if ctx.occ_u[n] != u and int(it) not in own)
        pools.append(pool)
        rng = np.random.default_rng(np.random.SeedSequence([batch.rng_seed] + seq))
        corrupted, labs = obj.corrupt_sequence(
            seq, cfg.shuffle_rate, cfg.replace_rate, rng, pool)
        corr_rows[u, :length] = [row_of[c] for c in corrupted]
        labels[u, :length] = labs
    return corr_rows, labels, pools


def parity_case(kind, seed):
    cfg = small_config()
    model = RecModel.init(cfg, seed)
    rng = np.random.default_rng(seed)
    if kind == "random":
        return model, random_batch(cfg, rng, B=3, L=4, n_items=12)
    if kind == "duplicates":
        return model, random_batch(cfg, rng, B=4, L=4, n_items=3)
    # user 0 holds every unique item (its rows have only the positive
    # column); user 1 repeats an item; user 2 ends in a padded slot
    batch = random_batch(cfg, rng, B=3, L=4, n_items=4)
    batch.idx[:] = [[0, 1, 2, 3], [1, 2, 1, 3], [3, 0, 0, 0]]
    batch.mask[2, 3] = 0.0
    return model, batch


def loss_and_grads(model, batch, loss_of):
    model.zero_grad()
    loss = loss_of(*encoded_context(model, batch))
    loss.backward()
    return loss.item(), {n: t.grad.copy() for n, t in model.named_parameters()
                         if t.grad is not None}


PARITY_CASES = [(kind, seed) for kind in ("random", "duplicates", "holds_all")
                for seed in range(3)]


@pytest.mark.parametrize("kind, seed", PARITY_CASES)
@pytest.mark.parametrize("name", ["dap", "vcl", "icl", "nicl"])
def test_unique_item_losses_match_occurrence_oracle(kind, seed, name):
    model, batch = parity_case(kind, seed)

    def hiddens(ctx, emb):
        reps = ad.getitem(emb["e_cls"], ctx.pos_to_row)
        return model.encode_sequence(reps, batch.mask)

    if name == "dap":
        new = lambda ctx, emb: obj.dap_loss(ctx, emb["e_cls"], hiddens(ctx, emb))
        old = lambda ctx, emb: occurrence_dap_loss(ctx, emb["e_cls"], hiddens(ctx, emb))
    else:
        new = lambda ctx, emb: obj.contrastive_loss(ctx, emb, name)
        old = lambda ctx, emb: occurrence_contrastive_loss(ctx, emb, name)
    got, got_g = loss_and_grads(model, batch, new)
    want, want_g = loss_and_grads(model, batch, old)
    assert got == pytest.approx(want, rel=0, abs=1e-12)
    assert got_g.keys() == want_g.keys()
    # 1e-12 of the loss's largest gradient entry: arrays whose gradient
    # nearly cancels (l2_normalize projects out a mostly radial gradient;
    # key biases are exactly zero) carry rounding noise at that scale
    scale = max(np.abs(g).max() for g in want_g.values())
    for n in want_g:
        np.testing.assert_allclose(got_g[n], want_g[n], rtol=0, atol=1e-12 * scale,
                                   err_msg=n)


@pytest.mark.parametrize("kind, seed", PARITY_CASES)
def test_corrupt_batch_matches_occurrence_oracle(kind, seed, monkeypatch):
    model, batch = parity_case(kind, seed)
    ctx, _ = encoded_context(model, batch)
    calls, draw = [], obj._draw_corruption

    def recording(rng, length, shuffle_rate, replace_rate, pool_size):
        out = draw(rng, length, shuffle_rate, replace_rate, pool_size)
        calls.append((length, pool_size, out))
        return out

    for ocfg in (OCFG, ObjectiveConfig(shuffle_rate=0.5, replace_rate=0.3),
                 ObjectiveConfig(shuffle_rate=1.0, replace_rate=1.0)):
        want_rows, want_labels, want_pools = occurrence_corrupt_batch(ctx, ocfg)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(obj, "_draw_corruption", recording)
            rows, labels = obj.corrupt_batch(ctx, ocfg)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(labels, want_labels)
        # one draw per user, from a pool of the oracle pool's size; each
        # replaced slot holds the oracle pool's item at its drawn index (the
        # rows index the unique-item table, the oracle's pools hold catalog ids)
        assert len(calls) == len(want_pools)
        replaced = 0
        for u, ((length, pool_size, (chosen, n_sh, _, picks)), want) in enumerate(
                zip(calls, want_pools)):
            assert (length, pool_size) == (int(batch.mask[u].sum()), len(want))
            for slot, j in zip(chosen[n_sh:], picks):
                assert labels[u, slot] == obj.LABEL_REPLACED
                assert ctx.unique[rows[u, slot]] == want[j]
                replaced += 1
        assert replaced == np.count_nonzero(labels == obj.LABEL_REPLACED)


# ---------------------------------------------------------------------------
# the contrastive Gram node against the per-anchor product it replaced
# (`composites.contrastive_loss`)
# ---------------------------------------------------------------------------

def repeated_positives_case():
    """User 0 repeats item 0 back to back, so its first transition's
    positives list the other modality's row twice and the anchor's own row,
    which has negative weight 0; item 0 occurs three times, so user 1 weighs
    it 3; user 2 ends in a padded slot."""
    cfg = small_config()
    model = RecModel.init(cfg, 31)
    batch = random_batch(cfg, np.random.default_rng(31), B=3, L=4, n_items=6)
    batch.idx[:] = [[0, 0, 1, 2], [1, 3, 3, 4], [5, 2, 0, 0]]
    batch.mask[2, 3] = 0.0
    return model, batch


def contrastive_leaves(emb):
    return [ad.Tensor(emb[k].data.copy(), requires_grad=True) for k in ("t_cls", "v_cls")]


def test_gram_xent_is_one_node_over_its_table():
    model, batch = repeated_positives_case()
    ctx, emb = encoded_context(model, batch)
    table = ad.Tensor(np.ones((2 * len(ctx.unique), 8)) / 8, requires_grad=True)
    out = obj.gram_xent(table, ctx.contrastive_anchors("nicl"), intra=True)
    assert out.shape == () and out._parents == (table,)


def test_context_builds_each_variants_anchors_once():
    model, batch = repeated_positives_case()
    ctx = obj.BatchContext(ObjectiveConfig(contrastive="icl", nid=False, rcl=False), batch)
    assert not ctx._anchors  # nothing is built before a loss asks
    icl = ctx.contrastive_anchors("icl")
    assert ctx.contrastive_anchors("icl") is icl
    assert len(icl.user_at) == 2 * len(ctx.occ_u)
    assert len(ctx.contrastive_anchors("nicl").user_at) == 2 * len(ctx.tr_u)


@pytest.mark.parametrize("name", obj.CONTRASTIVE_VARIANTS)
def test_gradient_check_gram_xent_with_repeated_and_unweighted_positives(name):
    model, batch = repeated_positives_case()
    ctx, emb = encoded_context(model, batch)
    anchors = ctx.contrastive_anchors(name)
    if name == "nicl":
        # the first anchor, item 0 in text row 0, lists vision row n twice
        # and then its own row, which user 0 weighs 0 as a negative
        n = len(ctx.unique)
        assert list(anchors.pos_at[0]) == [n, n, 0] and anchors.negatives[0, 0] == 0
    report = gradient_check(
        _scaled(lambda t, v: obj.contrastive_loss(ctx, {"t_cls": t, "v_cls": v}, name)),
        contrastive_leaves(emb))
    assert report["passed"], report


@pytest.mark.parametrize("name", obj.CONTRASTIVE_VARIANTS)
def test_gram_xent_matches_the_per_anchor_product_with_repeated_positives(name):
    model, batch = repeated_positives_case()
    ctx, emb = encoded_context(model, batch)
    (got, got_g), (want, want_g) = [
        forward_backward(_scaled(lambda t, v, f=f: f(ctx, {"t_cls": t, "v_cls": v}, name)),
                         contrastive_leaves(emb))
        for f in (obj.contrastive_loss, C.contrastive_loss)]
    assert got.item() == pytest.approx(want.item(), rel=0, abs=1e-12)
    scale = max(np.abs(g).max() for g in want_g)
    for a, b in zip(got_g, want_g):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * scale)


def _pretrain_shaped_model_and_batch():
    """The transfer config and a 64-sequence batch shaped like the
    benchmark's pretrain batches: 200 catalog items and sequences of 8 to 12,
    so about 180 unique items, 440 transitions and 500 real positions."""
    from mmrec import data

    model, _ = _transfer_model_and_batch()
    source, _ = data.generate_synthetic(data.SyntheticConfig(
        n_users=200, n_users_target=20, n_items=200, n_latent_styles=4, n_slots=4,
        transition_noise=0.1, L_min=8, L_max=12, vocab_size=100, p_min=4, p_max=8,
        q=4, patch_dim=6, seed=0))
    batch = data.make_batches(data.filter_and_split(source, min_interactions=5),
                              64, 12, 0)[0]
    return model, batch


@pytest.fixture(scope="module")
def pretrain_shaped():
    return _pretrain_shaped_model_and_batch()


@pytest.mark.parametrize("name", obj.CONTRASTIVE_VARIANTS)
def test_gram_xent_matches_the_per_anchor_product_at_transfer_scale(name, pretrain_shaped):
    # compares the gradients of the loss's inputs, the two modalities'
    # embeddings. Through the encoders, vcl's parameter gradients nearly
    # cancel at this scale, so any two summation orders differ there by a
    # few 1e-12 of the largest entry: 3.6e-12 between the per-anchor product
    # and the occurrence oracle
    model, batch = pretrain_shaped
    ctx, emb = encoded_context(model, batch)
    assert (batch.idx.shape[0], len(ctx.unique), len(ctx.tr_u)) == (64, 182, 440)
    (got, got_g), (want, want_g) = [
        forward_backward(lambda t, v, f=f: f(ctx, {"t_cls": t, "v_cls": v}, name),
                         contrastive_leaves(emb))
        for f in (obj.contrastive_loss, C.contrastive_loss)]
    assert got.item() == pytest.approx(want.item(), rel=0, abs=1e-12)
    scale = max(np.abs(g).max() for g in want_g)
    for a, b in zip(got_g, want_g):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * scale)


def test_total_is_sum_of_components():
    cfg = small_config()
    model = RecModel.init(cfg, 6)
    batch = random_batch(cfg, np.random.default_rng(6), B=2, L=4)
    total, parts = obj.total_loss(model, batch, OCFG)
    assert total.item() == pytest.approx(sum(parts.values()), abs=1e-12)
    assert set(parts) == {"dap", "nicl", "nid", "rcl"}


SINGLE_OBJECTIVES = ("dap", "vcl", "icl", "nicl", "nid", "rcl")


def only(name):
    return ObjectiveConfig(
        dap=name == "dap", nid=name == "nid", rcl=name == "rcl",
        contrastive=name if name in obj.CONTRASTIVE_VARIANTS else None)


@pytest.mark.parametrize("name", SINGLE_OBJECTIVES)
def test_objective_terms_single_objective_returns_its_key(name):
    cfg = small_config()
    model = RecModel.init(cfg, 11)
    batch = random_batch(cfg, np.random.default_rng(11), B=2, L=4)
    assert list(obj.total_loss(model, batch, only(name))[1]) == [name]


def test_total_is_left_fold_of_terms_bitwise():
    cfg = small_config()
    model = RecModel.init(cfg, 12)
    batch = random_batch(cfg, np.random.default_rng(12), B=3, L=4, n_items=12)
    terms = obj.total_loss(model, batch, OCFG)[1]
    assert list(terms) == ["dap", "nicl", "nid", "rcl"]
    v = list(terms.values())
    total, parts = obj.total_loss(model, batch, OCFG)
    assert total.item() == ((v[0] + v[1]) + v[2]) + v[3]
    assert parts == dict(zip(terms, v))


def test_objective_terms_rejects_empty_config():
    cfg = small_config()
    model = RecModel.init(cfg, 13)
    batch = random_batch(cfg, np.random.default_rng(13), B=2, L=4)
    none = ObjectiveConfig(dap=False, contrastive=None, nid=False, rcl=False)
    with pytest.raises(ValueError, match="no objectives"):
        obj.total_loss(model, batch, none)


@pytest.mark.parametrize("name, sequences", [
    ("vcl", 0), ("icl", 0), ("nicl", 0), ("dap", 1), ("nid", 1), ("rcl", 2)])
def test_objective_terms_encodes_only_the_sequences_it_needs(name, sequences):
    cfg = small_config()
    model = RecModel.init(cfg, 14)
    batch = random_batch(cfg, np.random.default_rng(14), B=2, L=4)
    encode, calls = model.encode_sequence, []
    model.encode_sequence = lambda *args: calls.append(1) or encode(*args)
    obj.total_loss(model, batch, only(name))
    assert len(calls) == sequences


def test_total_dap_only_equals_dap():
    cfg = small_config()
    model = RecModel.init(cfg, 7)
    batch = random_batch(cfg, np.random.default_rng(7), B=2, L=4)
    total, parts = obj.total_loss(model, batch, obj.dap_only())
    assert set(parts) == {"dap"}
    assert total.item() == pytest.approx(parts["dap"], abs=1e-15)


def test_total_b1_components():
    cfg = small_config()
    model = RecModel.init(cfg, 8)
    batch = random_batch(cfg, np.random.default_rng(8), B=1, L=4)
    total, parts = obj.total_loss(model, batch, OCFG)
    assert parts["dap"] == pytest.approx(0.0, abs=1e-12)
    assert parts["rcl"] == pytest.approx(0.0, abs=1e-12)
    assert total.item() == pytest.approx(parts["nicl"] + parts["nid"], abs=1e-12)


def test_losses_invariant_to_user_order():
    cfg = small_config()
    model = RecModel.init(cfg, 9)
    batch = random_batch(cfg, np.random.default_rng(9), B=3, L=4, n_items=12)
    total, parts = obj.total_loss(model, batch, OCFG)
    perm = [1, 2, 0]
    pbatch = Batch(idx=batch.idx[perm], mask=batch.mask[perm],
                   items=batch.items, rng_seed=batch.rng_seed)
    ptotal, pparts = obj.total_loss(model, pbatch, OCFG)
    for k in parts:
        assert pparts[k] == pytest.approx(parts[k], abs=1e-10)


def test_nid_head_gets_no_gradient_from_dap_and_nicl():
    cfg = small_config()
    model = RecModel.init(cfg, 10)
    batch = random_batch(cfg, np.random.default_rng(10), B=2, L=4)
    model.zero_grad()
    cfg_no_denoise = ObjectiveConfig(nid=False, rcl=False)
    total, _ = obj.total_loss(model, batch, cfg_no_denoise)
    total.backward()
    assert model.groups["nid_head"]["W"].grad is None
    assert model.groups["nid_head"]["b"].grad is None


# ---------------------------------------------------------------------------
# graph size
# ---------------------------------------------------------------------------

def _inner_nodes(out):
    from mmrec.autodiff import _toposort

    return [n for n in _toposort(out) if n._backward is not None]


@pytest.mark.parametrize("name, nodes", [
    ("dap", 4), ("vcl", 3), ("icl", 3), ("nicl", 3), ("nid", 4), ("rcl", 9)])
def test_objective_is_one_xent_node_over_few_nodes(name, nodes):
    # from leaf embeddings and hiddens: dap gathers, scores and takes the
    # cross-entropy; the contrastive family normalizes one two-modality
    # table and takes the cross-entropy of its Gram matrix; rcl mean-pools
    # both sides
    cfg = small_config()
    model = RecModel.init(cfg, 15)
    batch = random_batch(cfg, np.random.default_rng(15), B=3, L=4)
    ctx, emb = encoded_context(model, batch)
    emb = {k: ad.Tensor(t.data, requires_grad=True) for k, t in emb.items()}
    h, hc = (ad.Tensor(np.ones((3, 4, cfg.d)), requires_grad=True) for _ in range(2))
    if name == "dap":
        loss = obj.dap_loss(ctx, emb["e_cls"], h)
    elif name == "nid":
        _, labels = obj.corrupt_batch(ctx, OCFG)
        loss = obj.nid_loss(hc, labels, model.groups["nid_head"])
    elif name == "rcl":
        loss = obj.rcl_loss(h, hc, batch.mask, "mean")
    else:
        loss = obj.contrastive_loss(ctx, emb, name)
    terminal = "gram_xent." if name in obj.CONTRASTIVE_VARIANTS else "softmax_xent."
    assert loss._backward.__qualname__.startswith(terminal)
    assert len(_inner_nodes(loss)) == nodes


def _transfer_model_and_batch():
    """The acceptance transfer config (d=32, L=12) and a 64-sequence batch."""
    from mmrec import data
    from mmrec.encoders import ModelConfig

    cfg = ModelConfig(d=32, n_heads=4, ffn_mult=2, vocab_size=100, p_max=8,
                      q=4, patch_dim=6, text_blocks=1, vision_blocks=1,
                      fusion_blocks=1, user_blocks=1, L_max=12)
    source, _ = data.generate_synthetic(data.SyntheticConfig(
        n_users=80, n_items=60, L_min=8, L_max=12, n_latent_styles=4, seed=0))
    batch = data.make_batches(data.filter_and_split(source, min_interactions=5),
                              64, 12, 0)[0]
    assert batch.idx.shape[0] == 64
    return RecModel.init(cfg, 0), batch


def test_total_loss_on_a_transfer_batch_is_at_most_134_nodes():
    from mmrec.autodiff import _toposort

    total, _ = obj.total_loss(*_transfer_model_and_batch(), OCFG)
    # every node, parameters included (282 when each objective was composed
    # from small nodes, 196 when each encoder added its own positions, 192
    # when a transformer block was twelve nodes, 137 with one node a block;
    # 134 since the contrastive loss is one node over its table)
    assert len(_toposort(total)) <= 134


# ---------------------------------------------------------------------------
# memory: backward frees the graph it passes
# ---------------------------------------------------------------------------

def test_backward_frees_every_interior_node():
    from mmrec.autodiff import _toposort

    cfg = small_config()
    model = RecModel.init(cfg, 16)
    batch = random_batch(cfg, np.random.default_rng(16), B=3)
    total, _ = obj.total_loss(model, batch, OCFG)
    interior = [n for n in _toposort(total) if n._parents]
    total.backward()
    assert all(n.grad is None and n._backward is None for n in interior)
    assert all(p.grad is not None for _, p in model.trainable_parameters())


def test_a_held_context_keeps_no_node_of_its_last_graph():
    """After `backward` and `del loss`, a context the caller still holds,
    as the gradient check does, keeps no interior node of the graph alive."""
    import gc
    import weakref

    from mmrec.autodiff import _toposort

    cfg = small_config()
    model = RecModel.init(cfg, 16)
    batch = random_batch(cfg, np.random.default_rng(16), B=3)
    ctx = obj.BatchContext(OCFG, batch)
    total, _ = obj.total_loss(model, batch, OCFG, ctx)
    interior = [weakref.ref(n) for n in _toposort(total) if n._parents]
    total.backward()
    del total
    gc.collect()
    assert interior and not [ref for ref in interior if ref() is not None]


def test_backward_on_a_transfer_batch_peaks_near_the_forward_graph():
    """NumPy reports its buffers to tracemalloc. Backward frees each node's
    gradient and forward intermediates as it passes, so it peaks little
    above the memory live when it starts (about 1.7x when nothing was
    freed until the root was dropped)."""
    import tracemalloc

    model, batch = _transfer_model_and_batch()
    tracemalloc.start()
    try:
        total, _ = obj.total_loss(model, batch, OCFG)
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        total.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * live, (peak, live)
