import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmrec import data as D
from mmrec.data import (DataError, Dataset, ItemRecord, SplitDataset,
                        SyntheticConfig, cold_item_subsequences, filter_and_split,
                        generate_synthetic, load_dataset, make_batches,
                        planted_transition_matrix, save_dataset,
                        stats_report, train_item_counts)


def toy_dataset(users, n_items=None):
    if n_items is None:
        n_items = max(i for s in users for i in s) + 1
    items = {i: ItemRecord(i, [i + 1], np.full((2, 3), float(i)))
             for i in range(n_items)}
    return Dataset(items=items, users=[list(s) for s in users])


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    items = {i: ItemRecord(i, rng.integers(1, 9, size=3).tolist(),
                           rng.normal(size=(2, 3))) for i in range(4)}
    ds = Dataset(items=items, users=[[0, 1, 2], [3, 2, 1, 0]])
    ip, xp = tmp_path / "items.tsv", tmp_path / "inter.tsv"
    save_dataset(ds, ip, xp)
    back = load_dataset(ip, xp)
    assert back.users == ds.users
    assert back.q == 2 and back.patch_dim == 3
    for i in items:
        assert back.items[i].tokens == items[i].tokens
        np.testing.assert_array_equal(back.items[i].patches, items[i].patches)


def test_save_is_byte_deterministic(tmp_path):
    src, _ = generate_synthetic(SyntheticConfig(n_users=5, n_items=8, seed=3))
    paths = []
    for tag in ("a", "b"):
        ip, xp = tmp_path / f"i{tag}.tsv", tmp_path / f"x{tag}.tsv"
        save_dataset(src, ip, xp)
        paths.append((ip.read_bytes(), xp.read_bytes()))
    assert paths[0] == paths[1]


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_rejects_malformed_with_line_numbers(tmp_path):
    inter = write(tmp_path / "x.tsv", "0\t0 1\n")
    good_head = "#meta q=1 patch_dim=2\n"
    cases = [
        (good_head + "0\t1 2\t0.0 0.0\nbadline\n", "3"),
        (good_head + "0\t1 2\t0.0\n", "patch values"),
        (good_head + "0\t1 2\t0.0 0.0\n0\t3\t0.0 0.0\n", "duplicate"),
        (good_head + "0\t\t0.0 0.0\n", "no tokens"),
        ("0\t1 2\t0.0 0.0\n", "#meta"),
        (good_head + "0\tx y\t0.0 0.0\n", "2"),
        (good_head + "0\t1 0\t0.0 0.0\n", "i.tsv:2: token id 0 is below 1"),
        (good_head + "0\t-2 1\t0.0 0.0\n", "i.tsv:2: token id -2 is below 1"),
        (good_head + "0\t1 2\t0.0 nan\n", "i.tsv:2: patch values must be finite"),
        (good_head + "0\t1 2\tinf 0.0\n", "i.tsv:2: patch values must be finite"),
        (good_head + "0\t1 2\t0.0 -inf\n", "i.tsv:2: patch values must be finite"),
    ]
    for text, needle in cases:
        ip = write(tmp_path / "i.tsv", text)
        with pytest.raises(DataError, match=needle):
            load_dataset(ip, inter)


@pytest.mark.parametrize("head", ["#meta patch_dim=2",  # no q=
                                  "#meta q=1 patch_dim",  # a bare token
                                  "#meta q=one patch_dim=2"])  # not an integer
def test_malformed_meta_header_exits_1_naming_path_and_line(tmp_path, capsys, head):
    from mmrec.cli import main

    write(tmp_path / "source_items.tsv", head + "\n0\t1 2\t0.0 0.0\n")
    write(tmp_path / "source_interactions.tsv", "0\t0\n")
    assert main(["stats", "--data", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{os.path.join(tmp_path, 'source_items.tsv')}:1: #meta header" in err


def test_pretrain_on_a_padding_token_exits_1_naming_path_and_line(tmp_path, capsys):
    from mmrec.cli import main

    write(tmp_path / "source_items.tsv", "#meta q=1 patch_dim=2\n0\t0 1\t0.0 0.0\n")
    write(tmp_path / "source_interactions.tsv", "0\t0\n")
    assert main(["pretrain", "--data", str(tmp_path), "--out",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{os.path.join(tmp_path, 'source_items.tsv')}:2: token id 0" in err


def test_load_rejects_dangling_interaction_index(tmp_path):
    ip = write(tmp_path / "i.tsv", "#meta q=1 patch_dim=1\n0\t1\t0.5\n")
    xp = write(tmp_path / "x.tsv", "0\t0 7\n")
    with pytest.raises(DataError, match="x.tsv:1.*unknown catalog index 7"):
        load_dataset(ip, xp)


# ---------------------------------------------------------------------------
# filtering and splitting
# ---------------------------------------------------------------------------

def brute_force_filter(users, k):
    """Reference fixed point: repeat single passes until nothing changes."""
    users = [list(s) for s in users]
    while True:
        counts = {}
        for s in users:
            for i in s:
                counts[i] = counts.get(i, 0) + 1
        nxt = []
        for s in users:
            s = [i for i in s if counts[i] >= k]
            if len(s) >= k:
                nxt.append(s)
        if nxt == users:
            return users
        users = nxt


@pytest.mark.parametrize("seed", range(5))
def test_filter_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    users = [rng.integers(0, 12, size=rng.integers(3, 12)).tolist()
             for _ in range(20)]
    ds = toy_dataset(users, n_items=12)
    split = filter_and_split(ds, min_interactions=5)
    expected = [s for s in brute_force_filter(users, 5) if len(s) >= 3]
    got = [t + [v, w] for t, v, w in zip(split.train, split.valid, split.test)]
    assert got == expected
    kept = {i for s in expected for i in s}
    assert set(split.items) == kept


def test_filter_idempotent():
    rng = np.random.default_rng(9)
    users = [rng.integers(0, 10, size=8).tolist() for _ in range(15)]
    s1 = filter_and_split(toy_dataset(users, n_items=10))
    again = [t + [v, w] for t, v, w in zip(s1.train, s1.valid, s1.test)]
    s2 = filter_and_split(toy_dataset(again, n_items=10))
    assert s2.train == s1.train and s2.valid == s1.valid and s2.test == s1.test


def test_filter_cascade_removes_item_then_user():
    # item 9 appears 4 times (< 5): dropping it shortens user 4 below 5,
    # whose removal starves nothing else
    users = [[0, 1, 2, 3, 9], [0, 1, 2, 3, 9], [0, 1, 2, 3, 9],
             [0, 1, 2, 3, 0], [9, 1, 2, 3, 0]]
    split = filter_and_split(toy_dataset(users, n_items=10), min_interactions=5)
    assert 9 not in split.items
    for t, v, w in zip(split.train, split.valid, split.test):
        assert 9 not in t + [v, w]


def test_split_assigns_last_two_items():
    users = [[0, 1, 2, 3, 4]] * 5
    split = filter_and_split(toy_dataset(users), min_interactions=5)
    assert split.train[0] == [0, 1, 2]
    assert split.valid[0] == 3
    assert split.test[0] == 4


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@given(st.lists(st.lists(st.integers(-2**63, 2**63 - 1), max_size=6), max_size=5),
       st.integers(-3, 3))
def test_pad_matches_fill_loop(seqs, fill):
    values, mask = D.pad(seqs, fill)
    width = max((len(s) for s in seqs), default=0)
    want_values = np.full((len(seqs), width), fill, dtype=np.int64)
    want_mask = np.zeros((len(seqs), width))
    for r, seq in enumerate(seqs):
        want_values[r, : len(seq)] = seq
        want_mask[r, : len(seq)] = 1.0
    assert values.dtype == np.int64 and mask.dtype == np.float64
    np.testing.assert_array_equal(values, want_values)
    np.testing.assert_array_equal(mask, want_mask)


def small_split():
    users = [[0, 1, 2, 3, 4]] * 3 + [[4, 3, 2, 1, 0]] * 2
    return filter_and_split(toy_dataset(users), min_interactions=5)


def test_batching_counts_and_padding():
    split = small_split()  # 5 users, train length 3 each
    batches = make_batches(split, B=2, L_max=4, seed=0)
    assert [b.size for b in batches] == [2, 2, 1]
    for b in batches:
        assert b.idx.shape == b.mask.shape
        assert np.all((b.idx == D.PAD_ITEM) == (b.mask == 0))


def test_batching_truncates_to_last_l_max():
    users = [[0, 1, 2, 3, 4, 0, 1, 2]] * 5
    split = filter_and_split(toy_dataset(users), min_interactions=5)
    assert split.train[0] == [0, 1, 2, 3, 4, 0]
    batches = make_batches(split, B=5, L_max=4, seed=0)
    np.testing.assert_array_equal(batches[0].idx[0], [2, 3, 4, 0])


def test_batching_seed_determinism():
    split = small_split()
    a = make_batches(split, B=2, L_max=4, seed=7)
    b = make_batches(split, B=2, L_max=4, seed=7)
    c = make_batches(split, B=2, L_max=4, seed=8)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.idx, y.idx)
        assert x.rng_seed == y.rng_seed
    assert any(not np.array_equal(x.idx, y.idx) or x.rng_seed != y.rng_seed
               for x, y in zip(a, c))


def test_batching_rejects_singleton_unless_allowed():
    split = small_split()
    with pytest.raises(DataError, match="batch size"):
        make_batches(split, B=1, L_max=4, seed=0)


@pytest.mark.parametrize("L_max", [0, -1])
def test_batching_rejects_l_max_below_one(L_max):
    # slicing seq[-L_max:] would keep whole sequences at 0 (seq[0:]) and
    # drop the first item at -1 (seq[1:])
    with pytest.raises(DataError, match=f"L_max={L_max}"):
        make_batches(small_split(), 4, L_max, 0)


def test_batches_cover_every_user_once():
    split = small_split()
    batches = make_batches(split, B=2, L_max=4, seed=3)
    rows = [tuple(b.idx[r][b.mask[r] > 0]) for b in batches for r in range(b.size)]
    assert sorted(rows) == sorted(tuple(s) for s in split.train)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_planted_matrix_is_cyclic():
    m = planted_transition_matrix(4)
    np.testing.assert_array_equal(m.sum(axis=1), 1.0)
    for s in range(4):
        assert m[s, (s + 1) % 4] == 1.0


def test_synthetic_disjoint_catalogs_and_structure():
    cfg = SyntheticConfig(n_users=20, n_items=12, seed=1)
    src, tgt = generate_synthetic(cfg)
    assert set(src.items).isdisjoint(tgt.items)
    assert len(src.items) == len(tgt.items) == 12
    for ds in (src, tgt):
        for seq in ds.users:
            assert all(i in ds.items for i in seq)
        for rec in ds.items.values():
            assert rec.patches.shape == (cfg.q, cfg.patch_dim)
            assert all(1 <= t < cfg.vocab_size for t in rec.tokens)
            assert cfg.p_min <= len(rec.tokens) <= cfg.p_max


def test_synthetic_noise_zero_respects_style_chain():
    cfg = SyntheticConfig(n_users=30, n_items=16, seed=2, transition_noise=0.0)
    src, tgt = generate_synthetic(cfg)
    for ds in (src, tgt):
        for seq in ds.users:
            for a, b in zip(seq, seq[1:]):
                assert ds.styles[b] == (ds.styles[a] + 1) % cfg.n_latent_styles


def test_synthetic_successor_type_is_deterministic_at_noise_zero():
    cfg = SyntheticConfig(n_users=50, n_items=16, seed=4, transition_noise=0.0)
    src, _ = generate_synthetic(cfg)
    succ_type = {}
    for seq in src.users:
        for a, b in zip(seq, seq[1:]):
            assert succ_type.setdefault(a, src.types[b]) == src.types[b]


def test_synthetic_types_shared_across_datasets():
    cfg = SyntheticConfig(n_users=20, n_items=16, seed=8)
    src, tgt = generate_synthetic(cfg)
    # local index -> type layout is identical; target is offset by n_items
    for local in range(16):
        assert src.types[local] == tgt.types[local + 16]
        assert src.styles[local] == src.types[local][0]


def test_synthetic_empirical_transition_matrix():
    cfg = SyntheticConfig(n_users=800, n_items=40, L_min=12, L_max=16,
                          seed=5, transition_noise=0.2)
    src, _ = generate_synthetic(cfg)
    S = cfg.n_latent_styles
    counts = np.zeros((S, S))
    for seq in src.users:
        for a, b in zip(seq, seq[1:]):
            counts[src.styles[a], src.styles[b]] += 1
    empirical = counts / counts.sum(axis=1, keepdims=True)
    # noisy steps land uniformly over styles (items split evenly)
    expected = 0.8 * planted_transition_matrix(S) + 0.2 / S
    assert np.abs(empirical - expected).max() < 0.02


def test_synthetic_bit_reproducible():
    cfg = SyntheticConfig(n_users=10, n_items=8, seed=6)
    a_src, a_tgt = generate_synthetic(cfg)
    b_src, b_tgt = generate_synthetic(SyntheticConfig(n_users=10, n_items=8, seed=6))
    for a, b in ((a_src, b_src), (a_tgt, b_tgt)):
        assert a.users == b.users
        for i in a.items:
            assert a.items[i].tokens == b.items[i].tokens
            np.testing.assert_array_equal(a.items[i].patches, b.items[i].patches)


def dataset_digest(ds):
    """sha256 of a dataset's users, styles, types, and each item's tokens and
    patch bytes, in catalog order."""
    h = hashlib.sha256(repr((ds.users, sorted(ds.styles.items()),
                             sorted(ds.types.items()))).encode())
    for idx in sorted(ds.items):
        rec = ds.items[idx]
        h.update(repr((idx, rec.tokens, rec.patches.dtype.str,
                       rec.patches.shape)).encode())
        h.update(rec.patches.tobytes())
    return h.hexdigest()


# Digests of the generator's output, so any change to its draw sequence
# (the order or kind of the draws it asks of the generator) shows here.
PINNED_SYNTHETIC = {
    "noise_0": (
        dict(n_users=40, n_items=24, transition_noise=0.0, seed=11),
        "1e7f602cdfb2ba23e51b7c31fb6d9392fe858999467ec7dd265bf6b7d05d552d",
        "13c42fa0b1b8e4bcb207807b85c0a344c72b6655d94770b0caa01175728040d6"),
    "noise_0.1_fewer_target_users": (
        dict(n_users=60, n_users_target=17, n_items=40, transition_noise=0.1, seed=12),
        "a090cd3f4f20e1acee596ba3fb3ac71a496cc5f5c7ff517f4f09f068de747817",
        "f825dce47e2700bd69fc8d9a3cbef73b00f68fd13f4119bd9551ddf7f7bdb0eb"),
    "noise_1": (
        dict(n_users=30, n_items=20, transition_noise=1.0, seed=13),
        "b4a32ca3e68978677b0c3d02f97091504e329f087827893398c950fb0eae2dcf",
        "c426bbcc9a52993633d927439048efdcbec8ea3f3399b55df99bc4572a4a5e85"),
    "n_slots_clamped": (
        dict(n_users=50, n_items=40, n_slots=9, vocab_size=13, p_min=1, p_max=3,
             transition_noise=0.5, seed=14),
        "c5ea8fce3b7f132f9d600b07d7c810f885232bdf0e14fa92526ec5e297d19a4a",
        "24ea0ec3a06c169a3a8316e9f1aa372780292ec673a2542efebc31ca06ba8481"),
    "one_slot_short_users": (
        dict(n_users=25, n_items=10, n_slots=1, L_min=1, L_max=3, p_min=1, p_max=1,
             q=2, patch_dim=3, seed=15),
        "bbd11c087287362f673a2a6c72508c0ece31625ee6d460647f7dee3396f94248",
        "6564b87dc5bcb7f44769170165493305634dd8c6ec409dc1bebdf2ffc4b02f89"),
    "rank_workload": (
        dict(n_users=5000, n_users_target=500, n_items=2000, n_latent_styles=4,
             n_slots=4, transition_noise=0.1, L_min=8, L_max=12, vocab_size=100,
             p_min=4, p_max=8, q=4, patch_dim=6, seed=1401),
        "09404076039dee7ebc63bcfd2ab99c40d31a872ad4862767da74309655141b98",
        "c3a245db157fb29964d1fa95aa713216d1283cd21fb7dc085a195b41e9b1b167"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SYNTHETIC))
def test_synthetic_bytes_are_pinned(name):
    kwargs, source_sha, target_sha = PINNED_SYNTHETIC[name]
    source, target = generate_synthetic(SyntheticConfig(**kwargs))
    assert (dataset_digest(source), dataset_digest(target)) == (source_sha, target_sha)


def test_synthetic_rejects_bad_config():
    with pytest.raises(DataError, match="n_latent_styles"):
        SyntheticConfig(n_latent_styles=1)
    with pytest.raises(DataError, match="transition_noise"):
        SyntheticConfig(transition_noise=1.5)


@pytest.mark.parametrize("kwargs, message", [
    (dict(p_min=0), r"p_min=0 must lie in \[1, p_max=8\]"),
    (dict(L_min=0, L_max=0), "L_min=0 must be >= 1"),
    (dict(L_min=-3), "L_min=-3 must be >= 1"),
    (dict(n_users=-1), "n_users=-1 must be >= 0"),
    (dict(n_users_target=-1), "n_users_target=-1 must be >= 0"),
    (dict(q=0), "q=0 must be >= 1"),
    (dict(patch_dim=0), "patch_dim=0 must be >= 1"),
], ids=["p_min_0", "L_min_0", "L_min_negative", "n_users_negative",
        "n_users_target_negative", "q_0", "patch_dim_0"])
def test_synthetic_rejects_what_it_cannot_generate(kwargs, message):
    # an item needs a token and a patch of at least one value, a user an
    # item, and a user count is a count
    with pytest.raises(DataError, match=message):
        SyntheticConfig(**kwargs)


def test_synthetic_smallest_honoured_config():
    source, target = generate_synthetic(SyntheticConfig(
        n_users=0, n_users_target=3, n_items=4, L_min=1, L_max=1, p_min=1, p_max=1))
    assert source.users == []
    assert len(target.users) == 3 and all(len(seq) == 1 for seq in target.users)
    assert all(len(rec.tokens) == 1 for rec in target.items.values())


# ---------------------------------------------------------------------------
# cold-start extraction
# ---------------------------------------------------------------------------

def _cold_pairs_loop(split, threshold):
    """Reference pairs: one count lookup per position of each full sequence."""
    counts = train_item_counts(split)
    pairs = []
    for u, seq in enumerate(split.train):
        full = list(seq) + [split.valid[u], split.test[u]]
        for pos in range(1, len(full)):
            if counts.get(full[pos], 0) < threshold:
                pairs.append((full[:pos], full[pos]))
    return pairs


def test_cold_extraction_matches_brute_force():
    rng = np.random.default_rng(11)
    users = [rng.integers(0, 15, size=10).tolist() for _ in range(25)]
    split = filter_and_split(toy_dataset(users, n_items=15))
    threshold = 10
    counts = train_item_counts(split)
    expected = _cold_pairs_loop(split, threshold)
    got = cold_item_subsequences(split, threshold=threshold)
    assert got == expected
    assert expected  # fixture really exercises the cold branch
    for prefix, target in got:
        assert len(prefix) >= 1
        assert counts[target] < threshold


def test_cold_threshold_boundaries():
    users = [[0, 1, 2, 3, 4]] * 5  # every item occurs 5x overall, 3x in train
    split = filter_and_split(toy_dataset(users), min_interactions=5)
    assert cold_item_subsequences(split, threshold=0) == []
    with pytest.raises(DataError, match="non-negative"):
        cold_item_subsequences(split, threshold=-1)
    # items 3 and 4 never occur in train (they are the valid/test targets),
    # so they are cold under any positive threshold
    pairs = cold_item_subsequences(split, threshold=1)
    assert sorted({t for _, t in pairs}) == [3, 4]
    assert len(pairs) == 5 * 2
    # items 0/1/2 occur 5x in train: cold once the threshold exceeds 5
    pairs = cold_item_subsequences(split, threshold=6)
    assert len(pairs) == 5 * 4  # every non-initial position of every user


@pytest.mark.parametrize("seed", range(6))
def test_cold_pairs_equal_the_per_position_loop(seed):
    rng = np.random.default_rng(seed)
    catalog = (rng.permutation(40) * 1000 - 7000).tolist()  # sparse ids, some < 0
    trained, held_out = catalog[:30], catalog[30:]
    n_users = int(rng.integers(1, 25))
    train = [rng.choice(trained, size=int(rng.integers(0, 9))).tolist()
             for _ in range(n_users)]
    # valid/test items come from the whole catalog, and at least one of them
    # never occurs in training
    valid, test = (rng.choice(catalog, size=n_users).tolist() for _ in range(2))
    test[0] = held_out[0]
    split = SplitDataset(items={i: None for i in catalog}, train=train,
                         valid=valid, test=test)
    top = max(train_item_counts(split).values())
    for threshold in (0, 1, 3, top + 1):
        got = cold_item_subsequences(split, threshold)
        assert got == _cold_pairs_loop(split, threshold)
        for prefix, target in got:
            assert type(target) is int and all(type(i) is int for i in prefix)
    assert len(cold_item_subsequences(split, top + 1)) == sum(
        len(seq) + 1 for seq in train)


def test_cold_pairs_of_an_empty_split():
    split = SplitDataset(items={}, train=[], valid=[], test=[])
    assert cold_item_subsequences(split, 10) == []


def test_stats_report_columns():
    ds = toy_dataset([[0, 1, 2], [2, 1, 0, 1]])
    text = stats_report(ds, name="toy")
    assert "#users" in text and "toy" in text
    assert f"{2:>10}" in text.splitlines()[1]
