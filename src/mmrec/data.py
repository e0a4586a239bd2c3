"""Dataset ingestion, filtering, leave-one-out splitting, batching, and the
synthetic multi-modal generator with a planted style-transition chain."""

from dataclasses import dataclass
from itertools import chain

import numpy as np

PAD_TOKEN = 0  # reserved text token id
PAD_ITEM = -1  # padding value in batched index arrays


@dataclass
class ItemRecord:
    catalog_index: int
    tokens: list  # token ids, 1 <= len <= p_max, no PAD_TOKEN entries
    patches: np.ndarray  # (q, patch_dim)


@dataclass
class Dataset:
    items: dict  # catalog_index -> ItemRecord
    users: list  # list of interaction sequences (catalog indices, in order)
    styles: dict = None  # synthetic only: catalog_index -> latent style
    types: dict = None  # synthetic only: catalog_index -> (style, slot)

    @property
    def q(self):
        return next(iter(self.items.values())).patches.shape[0]

    @property
    def patch_dim(self):
        return next(iter(self.items.values())).patches.shape[1]

    def n_actions(self):
        return sum(len(s) for s in self.users)


@dataclass
class SplitDataset:
    items: dict
    train: list  # per-user training prefix
    valid: list  # per-user validation target (second-to-last item)
    test: list  # per-user test target (last item)


@dataclass
class Batch:
    idx: np.ndarray  # (B, L) catalog indices, PAD_ITEM at padded slots
    mask: np.ndarray  # (B, L) float 0/1
    items: dict  # catalog_index -> ItemRecord (shared reference)
    rng_seed: int  # drives corruption for this batch

    @property
    def size(self):
        return self.idx.shape[0]


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def save_dataset(dataset, items_path, interactions_path):
    q, pd = dataset.q, dataset.patch_dim
    with open(items_path, "w") as f:
        f.write(f"#meta q={q} patch_dim={pd}\n")
        for idx in sorted(dataset.items):
            rec = dataset.items[idx]
            toks = " ".join(str(t) for t in rec.tokens)
            vals = " ".join(repr(float(v)) for v in rec.patches.reshape(-1))
            f.write(f"{idx}\t{toks}\t{vals}\n")
    with open(interactions_path, "w") as f:
        for uid, seq in enumerate(dataset.users):
            f.write(f"{uid}\t{' '.join(str(i) for i in seq)}\n")


def _open(path):
    try:
        return open(path)
    except OSError as e:
        raise DataError(f"cannot read data file {path}: {e}") from None


def load_dataset(items_path, interactions_path):
    items = {}
    q = pd = None
    with _open(items_path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#meta"):
                try:
                    meta = dict(kv.split("=") for kv in line.split()[1:])
                    q, pd = int(meta["q"]), int(meta["patch_dim"])
                except (KeyError, ValueError):
                    raise DataError(f"{items_path}:{lineno}: #meta header needs "
                                    f"integer q= and patch_dim=, got {line!r}") from None
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{items_path}:{lineno}: expected 3 tab-separated fields")
            try:
                idx = int(parts[0])
                tokens = [int(t) for t in parts[1].split()]
                vals = np.array([float(v) for v in parts[2].split()])
            except ValueError as e:
                raise DataError(f"{items_path}:{lineno}: {e}") from None
            if q is None:
                raise DataError(f"{items_path}: missing #meta header")
            if vals.size != q * pd:
                raise DataError(
                    f"{items_path}:{lineno}: expected {q * pd} patch values, got {vals.size}"
                )
            if idx in items:
                raise DataError(f"{items_path}:{lineno}: duplicate catalog index {idx}")
            if not tokens:
                raise DataError(f"{items_path}:{lineno}: item has no tokens")
            if min(tokens) < 1:
                raise DataError(f"{items_path}:{lineno}: token id {min(tokens)} is below 1 "
                                f"({PAD_TOKEN} is the padding id)")
            if not np.isfinite(vals).all():
                raise DataError(f"{items_path}:{lineno}: patch values must be finite")
            items[idx] = ItemRecord(idx, tokens, vals.reshape(q, pd))
    users = []
    with _open(interactions_path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(
                    f"{interactions_path}:{lineno}: expected 2 tab-separated fields"
                )
            try:
                seq = [int(i) for i in parts[1].split()]
            except ValueError as e:
                raise DataError(f"{interactions_path}:{lineno}: {e}") from None
            for i in seq:
                if i not in items:
                    raise DataError(
                        f"{interactions_path}:{lineno}: unknown catalog index {i}"
                    )
            users.append(seq)
    return Dataset(items=items, users=users)


# ---------------------------------------------------------------------------
# filtering and splitting
# ---------------------------------------------------------------------------

def filter_and_split(dataset, min_interactions=5):
    """Iteratively drop users/items below the interaction threshold, then
    assign last item -> test, second-to-last -> validation per user."""
    users = [list(s) for s in dataset.users]
    while True:
        counts = {}
        for seq in users:
            for i in seq:
                counts[i] = counts.get(i, 0) + 1
        bad_items = {i for i, c in counts.items() if c < min_interactions}
        new_users = []
        for seq in users:
            seq = [i for i in seq if i not in bad_items]
            if len(seq) >= min_interactions:
                new_users.append(seq)
        stable = not bad_items and len(new_users) == len(users)
        users = new_users
        if stable:
            break
    kept = {i for seq in users for i in seq}
    items = {i: dataset.items[i] for i in kept}
    train, valid, test = [], [], []
    for seq in users:
        if len(seq) < 3:
            continue  # cannot produce train + valid + test
        train.append(seq[:-2])
        valid.append(seq[-2])
        test.append(seq[-1])
    return SplitDataset(items=items, train=train, valid=valid, test=test)


def pad(seqs, fill):
    """Right-pad ragged integer sequences into (n, longest) arrays: the int64
    values with `fill` past each row's end, and a float 0/1 mask of the
    real slots."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    real = np.arange(lengths.max(initial=0)) < lengths[:, None]
    values = np.full(real.shape, fill, dtype=np.int64)
    values[real] = np.fromiter(chain.from_iterable(seqs), dtype=np.int64,
                               count=int(lengths.sum()))
    return values, real.astype(np.float64)


def make_batches(split, B, L_max, seed):
    """Shuffle users by seed, truncate to the last L_max items, right-pad,
    and group into batches of at most B users."""
    if B < 2:
        raise DataError("batch size < 2 leaves contrastive negative sets empty")
    if L_max < 1:  # seq[-L_max:] would keep whole sequences, or cut their heads
        raise DataError(f"L_max={L_max} must be at least 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(split.train))
    batches = []
    for bi, start in enumerate(range(0, len(order), B)):
        idx, mask = pad([split.train[u][-L_max:] for u in order[start:start + B]],
                        PAD_ITEM)
        rng_seed = int(np.random.SeedSequence([seed, bi]).generate_state(1)[0])
        batches.append(Batch(idx=idx, mask=mask, items=split.items, rng_seed=rng_seed))
    return batches


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

@dataclass
class SyntheticConfig:
    n_users: int = 200
    n_items: int = 50
    n_users_target: int = None  # defaults to n_users
    L_min: int = 8
    L_max: int = 16
    vocab_size: int = 100
    p_min: int = 4
    p_max: int = 8
    q: int = 4
    patch_dim: int = 6
    n_latent_styles: int = 4
    n_slots: int = 4  # content sub-clusters per style, shared across datasets
    transition_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        styles = self.n_latent_styles
        for ok, message in (
                (styles >= 2, "n_latent_styles must be >= 2"),
                (self.n_slots >= 1, "n_slots must be >= 1"),
                (0.0 <= self.transition_noise <= 1.0, "transition_noise must lie in [0, 1]"),
                # every style needs an item and a vocabulary id; id 0 is padding
                (self.n_items >= styles,
                 f"n_items={self.n_items} must be >= n_latent_styles={styles}"),
                (self.vocab_size > styles,
                 f"vocab_size={self.vocab_size} must be > n_latent_styles={styles}"),
                (self.L_min <= self.L_max, f"L_min={self.L_min} must be <= L_max={self.L_max}"),
                (self.L_min >= 1, f"L_min={self.L_min} must be >= 1"),
                (1 <= self.p_min <= self.p_max,
                 f"p_min={self.p_min} must lie in [1, p_max={self.p_max}]"),
                (self.q >= 1, f"q={self.q} must be >= 1"),
                (self.patch_dim >= 1, f"patch_dim={self.patch_dim} must be >= 1"),
                (self.n_users >= 0, f"n_users={self.n_users} must be >= 0"),
                (self.n_users_target is None or self.n_users_target >= 0,
                 f"n_users_target={self.n_users_target} must be >= 0")):
            if not ok:
                raise DataError(message)
        if self.n_users_target is None:
            self.n_users_target = self.n_users


def planted_transition_matrix(n_styles):
    """The planted style chain: deterministic cycle s -> (s+1) mod S."""
    m = np.zeros((n_styles, n_styles))
    for s in range(n_styles):
        m[s, (s + 1) % n_styles] = 1.0
    return m


def _effective_slots(cfg):
    """Slots per style, bounded so every (style, slot) type is populated and
    owns at least one vocabulary id."""
    style_width = (cfg.vocab_size - 1) // cfg.n_latent_styles  # id 0 is pad
    return max(1, min(cfg.n_slots, style_width,
                      cfg.n_items // cfg.n_latent_styles))


def _type_vocab_band(cfg, style, slot, n_slots):
    usable = cfg.vocab_size - 1  # id 0 reserved for padding
    style_width = usable // cfg.n_latent_styles
    slot_width = style_width // n_slots
    lo = 1 + style * style_width + slot * slot_width
    return lo, lo + slot_width


def _generate_one(cfg, rng, offset, n_users, patch_means, slot_perm):
    n_slots = len(slot_perm)
    s_of = {}
    items = {}
    by_type = {(s, j): [] for s in range(cfg.n_latent_styles)
               for j in range(n_slots)}
    type_of = {}
    for local in range(cfg.n_items):
        idx = offset + local
        style = local % cfg.n_latent_styles
        slot = (local // cfg.n_latent_styles) % n_slots
        s_of[idx] = style
        type_of[idx] = (style, slot)
        by_type[style, slot].append(idx)
        lo, hi = _type_vocab_band(cfg, style, slot, n_slots)
        n_tok = int(rng.integers(cfg.p_min, cfg.p_max + 1))
        tokens = rng.integers(lo, hi, size=n_tok).tolist()
        patches = patch_means[style, slot] + 0.25 * rng.normal(size=(cfg.q, cfg.patch_dim))
        items[idx] = ItemRecord(idx, tokens, patches)

    # the successor type (style+1, slot_perm[slot]) is a shared function of
    # the current item's content type, so the content-level transition
    # structure is identical across datasets; the item within the successor
    # type is drawn uniformly at every step
    successors = {idx: by_type[(style + 1) % cfg.n_latent_styles, int(slot_perm[slot])]
                  for idx, (style, slot) in type_of.items()}
    users = []
    for _ in range(n_users):
        length = int(rng.integers(cfg.L_min, cfg.L_max + 1))
        seq = [offset + int(rng.integers(cfg.n_items))]
        for _ in range(length - 1):
            if rng.random() < cfg.transition_noise:
                seq.append(offset + int(rng.integers(cfg.n_items)))
            else:
                pool = successors[seq[-1]]
                seq.append(pool[rng.integers(len(pool))])
        users.append(seq)
    return Dataset(items=items, users=users, styles=s_of, types=type_of)


def generate_synthetic(cfg):
    """Build (source, target) datasets with disjoint item sets.

    Content structure (per-type vocabulary bands and patch-cluster means),
    the style chain, and the slot-level successor permutation are shared
    between the two, so knowledge transfers only through item content.
    """
    n_slots = _effective_slots(cfg)
    style_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    patch_means = style_rng.normal(
        0.0, 1.0, size=(cfg.n_latent_styles, n_slots, cfg.q, cfg.patch_dim))
    slot_perm = style_rng.permutation(n_slots)
    src_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    tgt_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    source = _generate_one(cfg, src_rng, 0, cfg.n_users, patch_means, slot_perm)
    target = _generate_one(cfg, tgt_rng, cfg.n_items, cfg.n_users_target,
                           patch_means, slot_perm)
    return source, target


# ---------------------------------------------------------------------------
# cold-start extraction and stats
# ---------------------------------------------------------------------------

def train_item_counts(split):
    counts = {i: 0 for i in split.items}
    for seq in split.train:
        for i in seq:
            counts[i] += 1
    return counts


def cold_item_subsequences(split, threshold=10):
    """All (prefix, cold target) pairs over the full user sequences.

    An item is cold when it occurs strictly fewer than `threshold` times in
    the training sequences. Every occurrence at position >= 2 of a user's
    full (train + valid + test) sequence yields one pair.
    """
    if threshold < 0:
        raise DataError(f"cold threshold={threshold} must be non-negative")
    train = split.train
    lengths = np.fromiter(map(len, train), dtype=np.int64, count=len(train))
    # the full sequences, concatenated: user u's occupies slots
    # begin[u] .. end[u] - 1, its train prefix then its valid and test items
    end = np.cumsum(lengths + 2)
    begin = end - lengths - 2
    train_slots = (np.arange(int(lengths.sum()))
                   + 2 * np.repeat(np.arange(len(train)), lengths))
    flat = np.empty(len(train_slots) + 2 * len(train), dtype=np.int64)
    flat[train_slots] = np.fromiter(chain.from_iterable(train), dtype=np.int64,
                                    count=len(train_slots))
    flat[end - 2] = split.valid
    flat[end - 1] = split.test
    # each slot's item's number of training occurrences
    unique, slot_item = np.unique(flat, return_inverse=True)
    seen = np.bincount(slot_item[train_slots], minlength=len(unique))[slot_item]
    slot_begin = np.repeat(begin, lengths + 2)
    cold = np.nonzero((np.arange(len(flat)) > slot_begin) & (seen < threshold))[0]
    return [(flat[b:j].tolist(), target) for b, j, target in
            zip(slot_begin[cold].tolist(), cold.tolist(), flat[cold].tolist())]


def stats_report(dataset, name="dataset"):
    n_users = len(dataset.users)
    n_items = len(dataset.items)
    n_actions = dataset.n_actions()
    avg_len = n_actions / n_users if n_users else 0.0
    sparsity = 1.0 - n_actions / (n_users * n_items) if n_users and n_items else 0.0
    lines = [
        f"{'dataset':<12}{'#users':>10}{'#items':>10}{'#actions':>10}"
        f"{'avg.length':>12}{'sparsity':>10}",
        f"{name:<12}{n_users:>10}{n_items:>10}{n_actions:>10}"
        f"{avg_len:>12.2f}{sparsity * 100:>9.2f}%",
    ]
    return "\n".join(lines)
