"""Training objectives: next-item prediction with in-batch negatives,
the cross-modal contrastive family, sequence corruption with noised-item
detection, and the corrupted-vs-original sequence contrast."""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import data

LABEL_UNCHANGED = 0
LABEL_SHUFFLED = 1
LABEL_REPLACED = 2
LABEL_PAD = -1

CONTRASTIVE_VARIANTS = ("vcl", "icl", "nicl")


@dataclass
class ObjectiveConfig:
    dap: bool = True
    contrastive: str = "nicl"  # vcl | icl | nicl | None
    nid: bool = True
    rcl: bool = True
    shuffle_rate: float = 0.15
    replace_rate: float = 0.05
    rcl_pooling: str = "mean"  # mean | last

    def __post_init__(self):
        if self.contrastive is not None and self.contrastive not in CONTRASTIVE_VARIANTS:
            raise ValueError(f"unknown contrastive variant {self.contrastive!r}")
        if self.rcl_pooling not in ("mean", "last"):
            raise ValueError(f"unknown pooling {self.rcl_pooling!r}")
        for name in ("shuffle_rate", "replace_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name}={getattr(self, name)} must lie in [0, 1]")


def dap_only():
    return ObjectiveConfig(dap=True, contrastive=None, nid=False, rcl=False)


# ---------------------------------------------------------------------------
# batch feature assembly
# ---------------------------------------------------------------------------

def pack_item_features(items, catalog_indices):
    """Pad token/patch features of the given items into dense arrays.

    Returns (token_ids (n, p), pad_mask (n, p), patches (n, q, patch_dim)).
    """
    recs = [items[i] for i in catalog_indices]
    ids, mask = data.pad([r.tokens for r in recs], data.PAD_TOKEN)
    patches = np.stack([r.patches for r in recs])
    return ids, mask, patches


class BatchContext:
    """Everything the losses read that depends on the batch alone:
    occurrence bookkeeping, the unique items' packed features, per-user
    negative weights, transitions, the contrastive anchors (built on first
    use) and, when nid or rcl is on, the corruption."""

    def __init__(self, cfg, batch):
        self.batch = batch
        idx, mask = batch.idx, batch.mask
        self.B = len(idx)
        real = mask > 0
        # occurrences: every real (u, l) slot, in row-major order
        self.occ_u, self.occ_l = np.nonzero(real)
        self.unique, occ_row = np.unique(idx[real], return_inverse=True)
        # (B, L) map into the unique-item table; padded slots point at row 0
        self.pos_to_row = np.zeros_like(idx)
        self.pos_to_row[real] = occ_row
        self.features = pack_item_features(batch.items, self.unique.tolist())
        # neg_weight[u, i]: legal negative occurrences of unique item i for
        # anchors of user u: its batch count if u's sequence lacks i (then
        # every occurrence is another user's), else 0
        held = np.zeros((self.B, len(self.unique)), dtype=bool)
        held[self.occ_u, occ_row] = True
        counts = np.bincount(occ_row, minlength=len(self.unique))
        self.neg_weight = np.where(held, 0, counts)
        # transitions: positions (u, l) whose successor (u, l+1) is real
        trans = real[:, :-1] & real[:, 1:]
        self.tr_u, self.tr_l = np.nonzero(trans)
        self._anchors = {}
        if cfg.nid or cfg.rcl:
            self.corr_rows, self.labels = corrupt_batch(self, cfg)

    def contrastive_anchors(self, variant):
        """The `Anchors` of `contrastive_loss(..., variant)`, built on the
        first call for each variant, so that repeated evaluations of the
        batch reuse them. nicl anchors every transition, vcl and icl every
        real position; each anchor gives a text row, then its vision row, of
        the (2U, d) two-modality table."""
        if variant not in self._anchors:
            n, b = len(self.unique), self.B
            a_u, a_l = (self.tr_u, self.tr_l) if variant == "nicl" else (self.occ_u, self.occ_l)
            t_rows = self.pos_to_row[a_u, a_l]
            rows = np.concatenate([t_rows, t_rows + n])
            other = np.concatenate([t_rows + n, t_rows])  # same item, other modality
            pos = [other]
            if variant == "nicl":  # the next item's rows, other modality then own
                t_next = self.pos_to_row[a_u, a_l + 1]
                pos += [np.concatenate([t_next + n, t_next]), np.concatenate([t_next, t_next + n])]
            self._anchors[variant] = Anchors(
                rows * b + np.concatenate([a_u, a_u]), rows * (2 * n) + other,
                rows[:, None] * (2 * n) + np.stack(pos, axis=1),
                self.neg_weight.astype(np.float64))
        return self._anchors[variant]


class Anchors(NamedTuple):
    """The anchor rows of one contrastive variant, as flat positions: of
    (table row, user) in a (2U, B) array, and of (table row, other
    modality's row) and (table row, each positive's row) in the (2U, 2U)
    Gram matrix; and the (B, U) negative weights as floats."""
    user_at: np.ndarray
    other_at: np.ndarray
    pos_at: np.ndarray
    negatives: np.ndarray


# ---------------------------------------------------------------------------
# DAP
# ---------------------------------------------------------------------------

def dap_loss(ctx, e, hiddens):
    """Next-item cross-entropy of `hiddens` against `e`, the unique items'
    embeddings, averaged over all real transitions. Each unique item is
    scored once and weighted by its count of legal negative occurrences
    (`BatchContext.neg_weight`); the next item's column gets weight 1."""
    if len(ctx.tr_u) == 0:
        raise ValueError("batch has no valid transitions")
    h = ad.getitem(hiddens, (ctx.tr_u, ctx.tr_l))  # (T, d)
    z = ad.linear(h, ad.transpose(e, (1, 0)))  # (T, U)
    nxt = ctx.pos_to_row[ctx.tr_u, ctx.tr_l + 1]
    w = ctx.neg_weight[ctx.tr_u]
    w[np.arange(len(nxt)), nxt] += 1
    return ad.softmax_xent(z, w, nxt)


# ---------------------------------------------------------------------------
# contrastive family
# ---------------------------------------------------------------------------

def contrastive_loss(ctx, emb, variant):
    """Cross-modal contrast between normalized `emb["t_cls"]` and `emb["v_cls"]`.

    "vcl" uses inter-modality negatives only, "icl" adds intra-modality
    negatives, "nicl" further adds the next item's embeddings (both
    modalities) as positives and is averaged over transitions; vcl/icl
    average over all real positions. Negatives are the unique items,
    weighted as in `dap_loss`. Both directions (text anchors against
    vision positives and the reverse) are anchor rows of one table of both
    modalities, and the loss is their mean.
    """
    if variant not in CONTRASTIVE_VARIANTS:
        raise ValueError(f"unknown contrastive variant {variant!r}")
    if "t_cls" not in emb or "v_cls" not in emb:
        raise ValueError("contrastive objectives need both modalities")
    if variant == "nicl" and len(ctx.tr_u) == 0:
        raise ValueError("nicl needs sequences of length >= 2")
    # rows 0..U-1 hold the text embeddings, rows U..2U-1 the vision ones
    table = ad.l2_normalize(ad.concat([emb["t_cls"], emb["v_cls"]]))
    return gram_xent(table, ctx.contrastive_anchors(variant), intra=variant != "vcl")


def gram_xent(table, anchors, intra):
    """The contrastive cross-entropy over the rows of the (2U, d) `table`
    (text rows, then vision rows), as one node: the mean over the anchor
    rows of `anchors` (`BatchContext.contrastive_anchors`), each with table
    row a and user u, of

        log(sum_c w_u[c] exp Z[a, c] + exp Z[a, other]) - log sum_p exp Z[a, p]

    where Z = table table^T, `other` is the anchor item's row in the other
    modality and p runs over the anchor's positives (a repeated one counts
    twice). w_u holds u's negative weights on the other modality's half of
    the columns and, with `intra`, on both halves.

    Z and exp(Z) are computed once over the 2U unique rows; rows have norm
    at most 1, so |Z| <= 1 and exp needs no shift. Every anchor's weighted
    sum is read from one product of exp(Z)'s negative columns with the
    (B, U) weights. The backward folds the anchors into one (2U, 2U)
    gradient dZ and returns (dZ + dZ^T) table."""
    t, n, w = table.data, len(table.data) // 2, anchors.negatives
    e = t @ t.T
    np.exp(e, out=e)
    # each row's negative columns: the other half, plus its own with intra
    f = e[:, :n] + e[:, n:] if intra else np.concatenate([e[:n, n:], e[n:, :n]])
    e_other, e_pos = e.reshape(-1)[anchors.other_at], e.reshape(-1)[anchors.pos_at]
    den = (f @ w.T).reshape(-1)[anchors.user_at] + e_other
    num = e_pos.sum(axis=1)

    def vjp(g):
        q = g / (len(den) * den)  # d loss / d den
        # the q of every (row, user) pair, times the weights
        df = np.bincount(anchors.user_at, q, minlength=len(t) * len(w)).reshape(len(t), -1) @ w
        # dz: d loss / d exp(Z), then d loss / d Z
        if intra:
            dz = np.empty_like(e)
            dz[:, :n] = dz[:, n:] = df
        else:
            dz = np.zeros_like(e)
            dz[:n, n:], dz[n:, :n] = df[:n], df[n:]
        np.add.at(dz.reshape(-1), anchors.other_at, q)
        np.add.at(dz.reshape(-1), anchors.pos_at, (-g / (len(den) * num))[:, None])
        dz *= e
        return (np.add(dz, dz.T, out=e) @ t,)  # e's last read is the line above

    return ad._make((np.log(den) - np.log(num)).mean(), (table,), vjp)


# ---------------------------------------------------------------------------
# corruption + NID + RCL
# ---------------------------------------------------------------------------

def corruption_counts(length, shuffle_rate, replace_rate):
    """Number of shuffled / replaced positions for a sequence of `length`.

    A derangement needs at least two positions, so a shuffle count of one
    is bumped to two; replacement count is reduced before shuffle count when
    the sequence is too short to keep the two sets disjoint.
    """
    if not 0.0 <= shuffle_rate <= 1.0 or not 0.0 <= replace_rate <= 1.0:
        raise ValueError("corruption rates must lie in [0, 1]")
    n_sh = math.ceil(shuffle_rate * length)
    n_rep = math.ceil(replace_rate * length)
    if n_sh == 1:
        n_sh = 2 if length >= 2 else 0
    n_rep = min(n_rep, max(0, length - n_sh))
    return n_sh, n_rep


def _derangement(rng, n):
    while True:
        perm = rng.permutation(n)
        if n < 2 or all(p != i for i, p in enumerate(perm.tolist())):
            return perm


def _draw_corruption(rng, length, shuffle_rate, replace_rate, pool_size):
    """The generator calls of one sequence's corruption, the only ones of
    `corrupt_sequence` and `corrupt_batch`, in their fixed order: n_sh + n_rep
    distinct positions, the first n_sh to shuffle and the rest to replace, a
    derangement of the shuffled ones, then one pool index per replaced
    position (none from an empty pool). Returns (positions, n_sh,
    derangement, pool indices)."""
    if length < 2:
        raise ValueError("corruption needs sequences of length >= 2")
    n_sh, n_rep = corruption_counts(length, shuffle_rate, replace_rate)
    n_rep = n_rep if pool_size else 0
    chosen = rng.choice(length, size=n_sh + n_rep, replace=False)  # size 0 draws nothing
    perm = _derangement(rng, n_sh) if n_sh else chosen[:0]
    return chosen, n_sh, perm, [rng.integers(pool_size) for _ in range(n_rep)]


def corrupt_sequence(seq, shuffle_rate, replace_rate, rng, replacement_pool):
    """Corrupt one sequence: derange a shuffled subset, replace a disjoint
    subset from `replacement_pool` (other users' items, anchor-excluded).

    Returns (corrupted sequence, labels) with labels 0/1/2 per position.
    """
    chosen, n_sh, perm, picks = _draw_corruption(
        rng, len(seq), shuffle_rate, replace_rate, len(replacement_pool))
    out = list(seq)
    labels = [LABEL_UNCHANGED] * len(seq)
    sh_pos = np.sort(chosen[:n_sh])
    for dst, src in zip(sh_pos, sh_pos[perm]):
        out[dst], labels[dst] = seq[src], LABEL_SHUFFLED
    for p, j in zip(chosen[n_sh:], picks):
        out[p], labels[p] = int(replacement_pool[j]), LABEL_REPLACED
    return out, labels


def corrupt_batch(ctx, cfg):
    """Corrupt every sequence in the batch as `corrupt_sequence` does. Each
    user's generator is keyed by the batch seed and the user's own sequence,
    and its pool is every other user's item as often as it occurs, in row
    order, so the corruption is invariant to the ordering of users. Only the
    draws run per user.

    Returns (corrupted row map (B, L) into the unique-item table,
    labels (B, L) with LABEL_PAD at padded slots).
    """
    batch, (b, width), n_rows = ctx.batch, ctx.batch.idx.shape, ctx.neg_weight.shape[1]
    lengths = batch.mask.sum(axis=1).astype(np.int64)
    # user u's pool index j is the row whose weight spans start[u] + j in
    # the running sum of every user's weights
    cum = np.cumsum(ctx.neg_weight)
    start = np.concatenate([[0], cum[n_rows - 1::n_rows]])
    chosen, n_sh, perm, picks = zip(*[_draw_corruption(
        np.random.default_rng(np.random.SeedSequence([batch.rng_seed] + seq[:n])),
        n, cfg.shuffle_rate, cfg.replace_rate, pool_size) for seq, n, pool_size in
        zip(batch.idx.tolist(), lengths.tolist(), np.diff(start).tolist())])
    n_sh, users = np.array(n_sh), np.arange(b)
    # the shuffled slots as flat (u, l) indices, sorted, and their sources
    dst = np.sort(np.repeat(users * width, n_sh)
                  + np.concatenate([c[:k] for c, k in zip(chosen, n_sh)]))
    src = dst[np.concatenate(perm) + np.repeat(np.cumsum(n_sh) - n_sh, n_sh)]
    rep_u = np.repeat(users, [len(p) for p in picks])
    rep_l = np.concatenate([c[k:] for c, k in zip(chosen, n_sh)])
    pick = start[rep_u] + np.array([j for p in picks for j in p], dtype=np.int64)
    corr_rows = ctx.pos_to_row.copy()
    labels = np.where(np.arange(width) < lengths[:, None], LABEL_UNCHANGED, LABEL_PAD)
    corr_rows.reshape(-1)[dst] = ctx.pos_to_row.reshape(-1)[src]
    labels.reshape(-1)[dst] = LABEL_SHUFFLED
    corr_rows[rep_u, rep_l] = np.searchsorted(cum, pick, side="right") - rep_u * n_rows
    labels[rep_u, rep_l] = LABEL_REPLACED
    return corr_rows, labels


def nid_loss(corrupted_hiddens, labels, head):
    """3-way corruption classification; scores are ReLU(hW + b) passed
    through softmax, averaged over real positions."""
    real = np.nonzero(labels != LABEL_PAD)
    h = ad.getitem(corrupted_hiddens, real)  # (n_real, d)
    logits = ad.relu(ad.linear(h, head["W"], head["b"]))
    return ad.softmax_xent(logits, np.ones(logits.shape), labels[real])


def _pool(hiddens, mask, how):
    mask3 = mask[:, :, None]
    if how == "mean":
        summed = ad.tsum(ad.mul(hiddens, mask3), axis=1)
        return ad.mul(summed, (1.0 / mask.sum(axis=1))[:, None])
    last = mask.sum(axis=1).astype(np.int64) - 1
    return ad.getitem(hiddens, (np.arange(mask.shape[0]), last))


def rcl_loss(original_hiddens, corrupted_hiddens, seq_mask, pooling):
    """Contrast each user's pooled sequence against its corrupted twin,
    with other users' corrupted sequences as negatives ("mean" or "last" pooling)."""
    b = seq_mask.shape[0]
    if b < 1:
        raise ValueError("rcl needs at least one sequence")
    hu = _pool(original_hiddens, seq_mask, pooling)
    hc = _pool(corrupted_hiddens, seq_mask, pooling)
    scores = ad.linear(hu, ad.transpose(hc, (1, 0)))
    return ad.softmax_xent(scores, np.ones((b, b)), np.arange(b))


# ---------------------------------------------------------------------------
# total
# ---------------------------------------------------------------------------

def total_loss(model, batch, cfg, ctx=None):
    """Run the enabled objectives on a batch and add them left to right in
    the order dap, contrastive, nid, rcl; one enabled objective is returned
    as its own Tensor.

    Items are encoded once per call. The clean sequence is encoded only
    when dap or rcl needs it, the corrupted one only for nid or rcl. `ctx`
    is `BatchContext(cfg, batch)`, built here unless passed, e.g. to reuse
    one over repeated evaluations of an unchanged batch.

    Returns (total Tensor, {objective name: float value}).
    """
    if ctx is None:
        ctx = BatchContext(cfg, batch)
    emb = model.item_embeddings(*ctx.features)
    e = emb["e_cls"]
    if cfg.dap or cfg.rcl:
        hiddens = model.encode_sequence(ad.getitem(e, ctx.pos_to_row), batch.mask)
    terms = {}
    if cfg.dap:
        terms["dap"] = dap_loss(ctx, e, hiddens)
    if cfg.contrastive is not None:
        terms[cfg.contrastive] = contrastive_loss(ctx, emb, cfg.contrastive)
    if cfg.nid or cfg.rcl:
        corr_hiddens = model.encode_sequence(ad.getitem(e, ctx.corr_rows), batch.mask)
        if cfg.nid:
            terms["nid"] = nid_loss(corr_hiddens, ctx.labels, model.groups["nid_head"])
        if cfg.rcl:
            terms["rcl"] = rcl_loss(hiddens, corr_hiddens, batch.mask, cfg.rcl_pooling)
    if not terms:
        raise ValueError("no objectives enabled")
    total = functools.reduce(ad.add, terms.values())
    return total, {name: t.item() for name, t in terms.items()}
