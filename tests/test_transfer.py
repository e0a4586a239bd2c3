import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmrec import autodiff as ad
from mmrec import evaluation
from mmrec import transfer as tr
from mmrec.data import (ItemRecord, SplitDataset, SyntheticConfig,
                        filter_and_split, generate_synthetic)
from mmrec.encoders import ModelConfig
from mmrec.evaluation import evaluate
from mmrec.gradcheck import random_batch, small_config
from mmrec.model import RecModel
from mmrec.transfer import (LOADED_GROUPS, MODE_MODALITY, TRANSFER_MODES,
                            BundleError, ItemIndex, build_item_index,
                            load_bundle, load_components, model_from_bundle,
                            predict_scores, save_bundle)

from .conftest import clone, with_l_max


@pytest.fixture
def model():
    return RecModel.init(small_config(), seed=0)


@pytest.fixture
def items():
    rng = np.random.default_rng(0)
    return {i: ItemRecord(i, rng.integers(1, 12, size=3).tolist(),
                          rng.normal(size=(4, 4))) for i in range(7)}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_save_byte_identical(model, tmp_path):
    p1, p2 = tmp_path / "a.bundle", tmp_path / "b.bundle"
    save_bundle(model, p1)
    back = model_from_bundle(p1)
    save_bundle(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_restores_every_parameter(model, tmp_path):
    path = tmp_path / "m.bundle"
    save_bundle(model, path)
    back = model_from_bundle(path)
    assert back.cfg == model.cfg
    for (n1, t1), (n2, t2) in zip(model.named_parameters(), back.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)


def test_forward_bit_identical_after_round_trip(model, items, tmp_path):
    path = tmp_path / "m.bundle"
    save_bundle(model, path)
    back = model_from_bundle(path)
    prefix = [0, 3, 5]
    np.testing.assert_array_equal(predict_scores(model, prefix, items),
                                  predict_scores(back, prefix, items))


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.bundle"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(BundleError, match="magic"):
        load_bundle(path)


def test_rejects_corrupted_payload(model, tmp_path):
    path = tmp_path / "m.bundle"
    save_bundle(model, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleError, match="checksum"):
        load_bundle(path)


def test_rejects_truncated_file(model, tmp_path):
    path = tmp_path / "m.bundle"
    save_bundle(model, path)
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(BundleError):
        load_bundle(path)


def write_signed(path, manifest, payload=b""):
    """A bundle with the given manifest (dict or raw bytes) and a valid sha256."""
    mbytes = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    path.write_bytes(tr.MAGIC + len(mbytes).to_bytes(8, "little") + mbytes + payload
                     + hashlib.sha256(mbytes + payload).digest())


def resign_with_config(src, dst, **extra):
    """Copy the bundle at `src` to `dst` with `extra` keys added to its config."""
    raw = src.read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    manifest = json.loads(raw[16 : 16 + n])
    manifest["config"].update(extra)
    write_signed(dst, manifest, raw[16 + n : -32])


# a damage to a bundle of n bytes: ("cut", f) keeps its first floor(f * n)
# bytes, ("flip", f) inverts bit floor(f * 8n); f in [0, 1) serves any n
DAMAGE = st.one_of(
    st.tuples(st.just("cut"), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))


def damaged(raw, damage):
    """`raw` with one `DAMAGE` applied."""
    how, at = damage
    if how == "cut":
        return raw[: int(at * len(raw))]
    bit = int(at * 8 * len(raw))
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(DAMAGE)
def test_truncated_or_bit_flipped_bundle_raises_bundle_error(damage):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bundle"
        save_bundle(RecModel.init(small_config(d=2, p=2, q=2), seed=0), path)
        path.write_bytes(damaged(path.read_bytes(), damage))
        with pytest.raises(BundleError):
            load_bundle(path)


def test_legacy_dropout_key_loads(model, tmp_path):
    save_bundle(model, tmp_path / "m.bundle")
    resign_with_config(tmp_path / "m.bundle", tmp_path / "legacy.bundle", dropout=0.0)
    cfg, _ = load_bundle(tmp_path / "legacy.bundle")
    assert "dropout" not in cfg
    back, want = model_from_bundle(tmp_path / "legacy.bundle").snapshot(), model.snapshot()
    assert back.keys() == want.keys()
    assert all(np.array_equal(back[k], want[k]) for k in want)


def write_with_key_bias(model, path):
    """`model` in the layout that carried an attention key bias: a zero (d,)
    `b{i}.bk` beside each block's `wk`, in manifest and payload alike."""
    groups = {g: {p: t.data for p, t in group.items()} for g, group in model.groups.items()}
    for group in groups.values():
        group.update({p[:-2] + "bk": np.zeros(model.cfg.d) for p in list(group)
                      if p.endswith(".wk")})
    manifest = {"format_version": tr.FORMAT_VERSION, "config": model.cfg.to_dict(),
                "groups": {g: {p: list(a.shape) for p, a in groups[g].items()}
                           for g in groups}}
    write_signed(path, manifest, b"".join(groups[g][p].tobytes() for g in sorted(groups)
                                          for p in sorted(groups[g])))


def test_bundle_with_key_bias_loads_with_it_ignored(model, items, tmp_path):
    legacy, current = tmp_path / "legacy.bundle", tmp_path / "m.bundle"
    write_with_key_bias(model, legacy)
    _, groups = load_bundle(legacy)
    assert all("b0.bk" in groups[g] for g in ("text_encoder", "vision_encoder",
                                              "fusion", "user_encoder"))
    save_bundle(model, current)
    prefix = [0, 3, 5]
    want = predict_scores(model, prefix, items)
    for back in (model_from_bundle(legacy),
                 load_components(legacy, "full", fresh_init_seed=9)):
        assert not any(n.endswith("bk") for n, _ in back.named_parameters())
        assert predict_scores(back, prefix, items).tobytes() == want.tobytes()
        save_bundle(back, tmp_path / "again.bundle")
        assert (tmp_path / "again.bundle").read_bytes() == current.read_bytes()


def test_unknown_config_key_rejected(model, tmp_path):
    save_bundle(model, tmp_path / "m.bundle")
    resign_with_config(tmp_path / "m.bundle", tmp_path / "bogus.bundle", bogus=1)
    with pytest.raises(BundleError, match="bogus"):
        load_bundle(tmp_path / "bogus.bundle")


@pytest.mark.parametrize("manifest", [
    b"{not json", b"\xff\xfe", b"[1, 2]",
    {"config": {}, "groups": {}},
    {"format_version": 1, "groups": {}},
    {"format_version": 1, "config": [], "groups": {}},
    {"format_version": 1, "config": {}, "groups": {"fusion": 3}},
])
def test_malformed_manifest_rejected(manifest, tmp_path):
    write_signed(tmp_path / "m.bundle", manifest)
    with pytest.raises(BundleError, match="manifest"):
        load_bundle(tmp_path / "m.bundle")


@pytest.mark.parametrize("shape", ["abc", [1.5, 2], [2, -1], [True, 2], 7])
def test_non_integer_shape_rejected(model, tmp_path, shape):
    save_bundle(model, tmp_path / "m.bundle")
    raw = (tmp_path / "m.bundle").read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    manifest = json.loads(raw[16 : 16 + n])
    manifest["groups"]["nid_head"]["b"] = shape
    write_signed(tmp_path / "bad.bundle", manifest, raw[16 + n : -32])
    with pytest.raises(BundleError, match="nid_head.b"):
        load_bundle(tmp_path / "bad.bundle")


def test_payload_shorter_than_manifest_rejected(model, tmp_path):
    save_bundle(model, tmp_path / "m.bundle")
    raw = (tmp_path / "m.bundle").read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    write_signed(tmp_path / "short.bundle", json.loads(raw[16 : 16 + n]),
                 raw[16 + n : -40])
    with pytest.raises(BundleError, match="payload"):
        load_bundle(tmp_path / "short.bundle")


@pytest.mark.parametrize("bad", [dict(d="8"), dict(n_heads=0), dict(d=8.5),
                                 dict(vocab_size=None), dict(vocab_size=-1),
                                 dict(ffn_mult=0), dict(user_blocks=-1)])
def test_mistyped_config_value_rejected(model, tmp_path, bad):
    save_bundle(model, tmp_path / "m.bundle")
    resign_with_config(tmp_path / "m.bundle", tmp_path / "bad.bundle", **bad)
    with pytest.raises(BundleError, match="config"):
        load_bundle(tmp_path / "bad.bundle")


def test_exact_reload_names_missing_parameter(model, tmp_path):
    save_bundle(model, tmp_path / "m.bundle")
    raw = (tmp_path / "m.bundle").read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    manifest = json.loads(raw[16 : 16 + n])
    del manifest["groups"]["nid_head"]["b"]  # 3 floats; trim the payload to match
    write_signed(tmp_path / "bad.bundle", manifest, raw[16 + n : -32 - 3 * 8])
    with pytest.raises(BundleError, match="lacks parameter 'b'"):
        model_from_bundle(tmp_path / "bad.bundle")


# ---------------------------------------------------------------------------
# transfer modes
# ---------------------------------------------------------------------------

def test_mode_tables_are_consistent():
    assert set(TRANSFER_MODES) == set(LOADED_GROUPS) == set(MODE_MODALITY)
    assert set(LOADED_GROUPS["full"]) == {
        "text_encoder", "vision_encoder", "fusion", "user_encoder", "nid_head"}
    assert LOADED_GROUPS["user_encoder"] == ("user_encoder",)
    assert "vision_encoder" not in LOADED_GROUPS["text_only"]
    assert "text_encoder" not in LOADED_GROUPS["vision_only"]
    # load_components copies each loaded group into the model it builds
    for mode in TRANSFER_MODES:
        cfg = dataclasses.replace(small_config(), modality=MODE_MODALITY[mode])
        assert set(LOADED_GROUPS[mode]) <= set(RecModel.init(cfg, 0).groups), mode


def test_unknown_mode_rejected(model, tmp_path):
    path = tmp_path / "m.bundle"
    save_bundle(model, path)
    with pytest.raises(BundleError, match="mode"):
        load_components(path, "everything", fresh_init_seed=0)


@pytest.mark.parametrize("mode", TRANSFER_MODES)
def test_loaded_groups_copied_and_others_fresh(model, tmp_path, mode):
    path = tmp_path / "m.bundle"
    save_bundle(model, path)
    out = load_components(path, mode, fresh_init_seed=99)
    assert out.cfg.modality == MODE_MODALITY[mode]
    fresh = RecModel.init(out.cfg, 99)
    for gname, group in out.groups.items():
        for pname, t in group.items():
            if gname in LOADED_GROUPS[mode]:
                np.testing.assert_array_equal(t.data, model.groups[gname][pname].data)
            else:
                np.testing.assert_array_equal(t.data, fresh.groups[gname][pname].data)


def test_text_only_model_has_no_vision_parameters(model, tmp_path):
    path = tmp_path / "m.bundle"
    save_bundle(model, path)
    out = load_components(path, "text_only", fresh_init_seed=0)
    assert "vision_encoder" not in out.groups
    assert "fusion" not in out.groups
    vis = load_components(path, "vision_only", fresh_init_seed=0)
    assert "text_encoder" not in vis.groups


def test_text_only_ignores_vision_bytes(model, items, tmp_path):
    # perturb the serialized vision/fusion arrays: a text_only model built
    # from either bundle must behave identically
    p1, p2 = tmp_path / "a.bundle", tmp_path / "b.bundle"
    save_bundle(model, p1)
    other = clone(model)
    rng = np.random.default_rng(1)
    for g in ("vision_encoder", "fusion"):
        for t in other.groups[g].values():
            t.data = t.data + rng.normal(size=t.data.shape)
    save_bundle(other, p2)
    m1 = load_components(p1, "text_only", fresh_init_seed=5)
    m2 = load_components(p2, "text_only", fresh_init_seed=5)
    prefix = [1, 2, 4]
    np.testing.assert_array_equal(predict_scores(m1, prefix, items),
                                  predict_scores(m2, prefix, items))


def test_missing_group_rejected(model, tmp_path):
    text_cfg = small_config()
    text_cfg.modality = "text"
    text_model = RecModel.init(text_cfg, 0)
    path = tmp_path / "t.bundle"
    save_bundle(text_model, path)
    with pytest.raises(BundleError, match="vision_encoder"):
        load_components(path, "vision_only", fresh_init_seed=0)


def test_shape_mismatch_names_parameter(model, tmp_path):
    # tamper with the manifest so the declared width disagrees with the
    # stored arrays; the loader must name the offending parameter
    import hashlib
    import json

    path = tmp_path / "m.bundle"
    save_bundle(model, path)
    raw = path.read_bytes()
    mlen = int.from_bytes(raw[8:16], "little")
    manifest = json.loads(raw[16:16 + mlen])
    manifest["config"]["d"] = 16
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    payload = raw[16 + mlen:-32]
    digest = hashlib.sha256(mbytes + payload).digest()
    bad = tmp_path / "bad.bundle"
    bad.write_bytes(raw[:8] + len(mbytes).to_bytes(8, "little")
                    + mbytes + payload + digest)
    with pytest.raises(BundleError, match=r"shape mismatch in \w+\.\w+"):
        load_components(bad, "full", fresh_init_seed=0)


# ---------------------------------------------------------------------------
# catalog scoring
# ---------------------------------------------------------------------------

def test_predict_scores_is_distribution(model, items):
    scores = predict_scores(model, [0, 1, 2], items)
    assert scores.shape == (7,)
    assert np.all(scores > 0)
    assert scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_duplicate_items_score_equally(model, items):
    items = dict(items)
    items[7] = ItemRecord(7, list(items[2].tokens), items[2].patches.copy())
    scores = predict_scores(model, [0, 1], items)
    assert scores[2] == pytest.approx(scores[7], abs=1e-12)


def test_softmax_preserves_logit_order(model, items):
    index = tr.item_index(model, items)
    h = tr.encode_prefixes(model, [[0, 1, 2]], items, index, 4)[0]
    logits = index.reps @ h
    scores = predict_scores(model, [0, 1, 2], items)
    assert tr.item_index(model, items) is index  # predict_scores scored with it
    assert np.array_equal(np.argsort(logits), np.argsort(scores))


def test_index_reused_when_fresh(model, items):
    calls = {"n": 0}
    orig = model.item_embeddings

    def counting(*a, **kw):
        calls["n"] += 1
        return orig(*a, **kw)

    model.item_embeddings = counting
    index = tr.item_index(model, items)
    assert calls["n"] == 1  # one chunk
    predict_scores(model, [0, 1], items)
    predict_scores(model, [2, 3], items)
    assert calls["n"] == 1  # cache hit: items never re-encoded
    assert tr.item_index(model, items) is index
    model.load_snapshot(model.snapshot())  # new arrays, the same bytes
    assert tr.item_index(model, items) is index


def test_index_rebuilt_after_parameter_update(model, items):
    index = tr.item_index(model, items)
    model.groups["fusion"]["mm_cls"].data += 0.1  # in place, with no signal
    scores = predict_scores(model, [0, 1], items)
    rebuilt = tr.item_index(model, items)
    assert rebuilt is not index
    assert not np.array_equal(rebuilt.reps, index.reps)
    fresh = predict_scores(clone(model), [0, 1], items)  # a clone starts uncached
    np.testing.assert_array_equal(scores, fresh)


def test_index_matches_unchunked_encoding(model, items, monkeypatch):
    monkeypatch.setattr(tr, "INDEX_CHUNK", 2)
    a = build_item_index(model, items)
    monkeypatch.setattr(tr, "INDEX_CHUNK", 1000)
    b = build_item_index(model, items)
    np.testing.assert_array_equal(a.reps, b.reps)
    assert a.order == sorted(items)


def index_chunk_differences():
    """(catalog, chunk, rows) for each `INDEX_CHUNK` in 3, 256 and 1000 whose
    index reps differ from those at 2 in `rows` rows, over the small
    config's 7-item catalog and a 257-item transfer-config catalog with 4
    to 8 tokens per item."""
    rng = np.random.default_rng(0)  # the `items` fixture
    small = {i: ItemRecord(i, rng.integers(1, 12, size=3).tolist(),
                           rng.normal(size=(4, 4))) for i in range(7)}
    rng = np.random.default_rng(26)
    large = {i: ItemRecord(i, rng.integers(1, 100, size=rng.integers(4, 9)).tolist(),
                           rng.normal(size=(4, 6))) for i in range(257)}
    catalogs = {"small": (RecModel.init(small_config(), seed=4), small),
                "transfer": (RecModel.init(transfer_config(), seed=26), large)}
    differences = []
    for name, (model, items) in catalogs.items():
        reps = {}
        for chunk in (2, 3, 256, 1000):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tr, "INDEX_CHUNK", chunk)
                reps[chunk] = build_item_index(model, items).reps
        for chunk in (3, 256, 1000):
            rows = int((reps[chunk] != reps[2]).any(axis=1).sum())
            if rows:
                differences.append((name, chunk, rows))
    return differences


@pytest.mark.parametrize("threads", [1, 2])
def test_index_is_invariant_to_its_chunking(threads):
    if threads > (os.cpu_count() or 1):
        pytest.skip("one CPU core: OpenBLAS runs one thread here")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    run = subprocess.run(
        [sys.executable, "-c", "from tests.test_transfer import "
         "index_chunk_differences as f; print(f())"],
        env=env, cwd=root, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["[]"]


def test_index_holds_read_only_projections_of_its_reps(model, items):
    index = build_item_index(model, items)
    k, v = index.projections  # queries come from the query rows
    params = model.groups["user_encoder"]
    for table, name in ((k, "b0.wk"), (v, "b0.wv")):
        assert table.tobytes() == ad.linear_forward(index.reps, params[name].data).tobytes()
    for table in (index.reps, k, v):
        assert not table.flags.writeable


def test_predict_rejects_empty_inputs(model, items):
    with pytest.raises(ValueError, match="prefix"):
        predict_scores(model, [], items)
    with pytest.raises(ValueError, match="catalog"):
        predict_scores(model, [0], {})


def test_encode_prefixes_truncates_to_l_max(model, items):
    index = build_item_index(model, items)
    long = [0, 1, 2, 3, 4, 5]
    a = tr.encode_prefixes(model, [long], items, index, L_max=4)
    b = tr.encode_prefixes(model, [long[-4:]], items, index, L_max=4)
    np.testing.assert_array_equal(a, b)


def test_l_max_above_the_models_is_rejected(model, items):
    with pytest.raises(ValueError, match="L_max=5 exceeds the model's L_max=4"):
        tr.encode_prefixes(model, [[0, 1]], items, build_item_index(model, items),
                           L_max=5)


def test_predict_scores_cuts_prefixes_to_the_models_l_max(model, items):
    """A model with the first 3 rows of another's position table scores a
    long prefix as both score its last 3 items."""
    short = with_l_max(model, 3)
    want = predict_scores(model, [2, 3, 4], items)
    np.testing.assert_array_equal(predict_scores(short, [0, 1, 2, 3, 4], items), want)
    np.testing.assert_array_equal(predict_scores(short, [2, 3, 4], items), want)


def test_out_of_catalog_prefix_item_named(model, items):
    with pytest.raises(ValueError, match="999"):
        predict_scores(model, [999], items)
    with pytest.raises(ValueError, match="999 is not in the catalog"):
        tr.encode_prefixes(model, [[0, 1], [2, 999]], items,
                           build_item_index(model, items), L_max=4)
    with pytest.raises(ValueError, match="-1 is not in the catalog"):
        predict_scores(model, [0, -1], items)
    gap = {i: rec for i, rec in items.items() if i != 3}  # 3 lies inside the range
    with pytest.raises(ValueError, match="3 is not in the catalog"):
        predict_scores(model, [2, 3, 4], gap)


def searchsorted_rows(order, ids, kind):
    """The index rows of `ids` by a search of the sorted catalog, the one
    mapping `ItemIndex.rows` had before its id table."""
    ids = np.asarray(ids, dtype=np.int64)
    ordered = np.asarray(order, dtype=np.int64)
    rows = np.searchsorted(ordered, ids).clip(max=len(ordered) - 1)
    missing = ordered[rows] != ids
    if missing.any():
        raise ValueError(f"{kind} item {int(ids[missing][0])!r} is not in the catalog")
    return rows


@pytest.mark.parametrize("order, d, table", [
    ([0, 1, 2, 4, 5, 9, 10, 13], 2, True),  # dense with gaps
    ([-7, -3, -2, 0, 4], 4, True),  # negative ids
    ([0, 5], 3, True),  # span 6 = reps.size: the largest table
    ([0, 6], 3, False),  # span 7 > reps.size
    ([-10**12, -4, 3, 5, 10**12], 4, False),  # sparse ids
])
def test_item_index_rows_match_a_sorted_search(order, d, table):
    index = ItemIndex(order, np.zeros((len(order), d)), None)
    assert (index._table is not None) == table  # the path this case runs
    rng = np.random.default_rng(len(order))
    ids = rng.choice(order, size=(6, 7))
    got = index.rows(ids, "prefix")
    assert got.dtype == np.int64 and got.shape == ids.shape
    np.testing.assert_array_equal(got, searchsorted_rows(order, ids, "prefix"))
    np.testing.assert_array_equal(index.rows(list(order), "target"), np.arange(len(order)))
    info = np.iinfo(np.int64)
    # each catalog id's neighbours and each gap's midpoint that are not ids,
    # which include the ids just below the minimum and above the maximum
    near = {o + s for o in order for s in (-1, 1)}
    near |= {(a + b) // 2 for a, b in zip(order, order[1:])}
    for bad in [info.min, info.max, *sorted(near - set(order))]:
        ids[2, 3] = bad
        message = f"target item {bad} is not in the catalog"
        with pytest.raises(ValueError, match=message):
            searchsorted_rows(order, ids, "target")
        with pytest.raises(ValueError, match=message):
            index.rows(ids, "target")


def transfer_config():
    return ModelConfig(d=32, n_heads=4, ffn_mult=2, vocab_size=100, p_max=8,
                       q=4, patch_dim=6, text_blocks=1, vision_blocks=1,
                       fusion_blocks=1, user_blocks=1, L_max=12)


@pytest.mark.parametrize("chunk", [1, 3, 128, 256])
def test_encode_prefixes_states_are_invariant_to_chunk_and_order(chunk, monkeypatch):
    """Each prefix is encoded at its own length, in blocks of two or more
    rows, so its state has the same bits whatever the block size and
    whatever the order of the other prefixes."""
    cfg = transfer_config()
    model = RecModel.init(cfg, seed=5)
    rng = np.random.default_rng(5)
    items = {i: ItemRecord(i, rng.integers(1, 100, size=4).tolist(),
                           rng.normal(size=(4, 6))) for i in range(0, 80, 2)}
    index = build_item_index(model, items)
    # 2 to 15 items, so some are cut, and one lone prefix of length 1
    prefixes = [rng.choice(index.order, size=rng.integers(2, 16)).tolist()
                for _ in range(300)]
    prefixes[7] = [index.order[3]]
    want = tr.encode_prefixes(model, prefixes, items, index, cfg.L_max)
    monkeypatch.setattr(tr, "PREFIX_CHUNK", chunk)
    assert tr.encode_prefixes(model, prefixes, items, index, cfg.L_max).tobytes() == \
        want.tobytes()
    perm = rng.permutation(len(prefixes))
    got = tr.encode_prefixes(model, [prefixes[i] for i in perm], items, index, cfg.L_max)
    assert got.tobytes() == want[perm].tobytes()


def test_lone_prefix_state_is_its_state_among_5000(monkeypatch):
    """The state `predict_scores` encodes for one prefix has the bits of the
    state `evaluate` ranks for it among 5000 others."""
    split = filter_and_split(generate_synthetic(SyntheticConfig(
        n_users=5000, n_users_target=500, n_items=2000, n_latent_styles=4,
        n_slots=4, transition_noise=0.1, L_min=8, L_max=12, vocab_size=100,
        p_min=4, p_max=8, q=4, patch_dim=6, seed=24))[0], min_interactions=5)
    model = RecModel.init(transfer_config(), seed=24)
    states, encode = [], tr.encode_prefixes
    monkeypatch.setattr(tr, "encode_prefixes",
                        lambda *args: states.append(encode(*args)) or states[-1])
    evaluate(model, split, phase="valid")
    (batched,) = states
    assert len(batched) == len(split.train) > 4900
    lengths = [len(seq) for seq in split.train]
    # the first user of each length, then a spread of others
    users = sorted({lengths.index(n) for n in set(lengths)} | set(range(0, 5000, 250)))
    for u in users:
        predict_scores(model, split.train[u], split.items)
        assert states.pop()[0].tobytes() == batched[u].tobytes(), u


def every_row_to_the_exact_pass(states, targets, reps, cap):
    """A `_screen` that settles no row."""
    return np.full(len(states), cap), np.arange(len(states))


def record_exact_scores(mp):
    """Send every row to the exact pass and return the dict it fills with
    each row's score row. The exact blocks may run on several threads and
    finish in any order, so a score row is keyed by its row in the block
    that scored it."""
    rows = {}
    current = threading.local()  # the block this thread runs
    each_block, rank = tr.for_each_block, evaluation.ranks_of_targets

    def for_each_block(fn, blocks):
        def run(block):
            current.block = block
            fn(block)
        each_block(run, blocks)

    def ranks_of_targets(scores, targets):
        rows.update(zip(current.block.tolist(), scores))
        return rank(scores, targets)

    mp.setattr(evaluation, "_screen", every_row_to_the_exact_pass)
    mp.setattr(tr, "for_each_block", for_each_block)
    mp.setattr(evaluation, "ranks_of_targets", ranks_of_targets)
    return rows


def predict_scores_unlike_evaluate():
    """The users among 301 over 2000 items whose `predict_scores` is not
    bitwise the softmax of the score row `evaluate` ranks for them, with
    every row sent to the exact pass (`record_exact_scores`) on two
    workers."""
    rng = np.random.default_rng(25)
    items = {i: ItemRecord(i, rng.integers(1, 100, size=rng.integers(4, 9)).tolist(),
                           rng.normal(size=(4, 6))) for i in range(2000)}
    split = SplitDataset(
        items=items, train=[rng.integers(0, 2000, size=n).tolist()
                            for n in rng.integers(1, 16, size=301)],
        valid=rng.integers(0, 2000, size=301).tolist(), test=[0] * 301)
    model = RecModel.init(transfer_config(), seed=25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "_workers", lambda: 2)  # helpers run at any BLAS thread count
        rows = record_exact_scores(mp)
        assert evaluate(model, split, phase="valid").count == len(rows) == 301
    bad = []
    for u, row in sorted(rows.items()):
        shifted = np.exp(row - row.max())
        want = shifted / shifted.sum()
        if predict_scores(model, split.train[u], split.items).tobytes() != want.tobytes():
            bad.append(u)
    return bad


@pytest.mark.parametrize("threads", [1, 2])
def test_predict_scores_is_the_softmax_of_the_row_evaluate_scores(threads):
    if threads > (os.cpu_count() or 1):
        pytest.skip("one CPU core: OpenBLAS runs one thread here")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    run = subprocess.run(
        [sys.executable, "-c", "from tests.test_transfer import "
         "predict_scores_unlike_evaluate as f; print(f())"],
        env=env, cwd=root, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["[]"]


@pytest.mark.parametrize("prefixes, L_max, message", [
    ([[0, 1], [], [2]], 4, "prefix 1 is empty"),
    ([[], []], 4, "prefix 0 is empty"),
    ([[0, 1]], 0, "L_max=0 must be positive"),
    ([[0, 1]], -1, "L_max=-1 must be positive"),
], ids=["empty_among_others", "only_empty", "l_max_0", "l_max_negative"])
def test_encode_prefixes_rejects_bad_input(model, items, prefixes, L_max, message):
    with pytest.raises(ValueError, match=message):
        tr.encode_prefixes(model, prefixes, items, build_item_index(model, items), L_max)


def test_encode_prefixes_matches_full_path_at_transfer_scale():
    """Last-position prefix states equal the last real rows of the full
    per-position pass on the acceptance transfer config (d=32, 4 heads,
    L_max=12), over padded, mixed-length and truncated prefixes that span
    more than one prefix chunk."""
    cfg = ModelConfig(d=32, n_heads=4, ffn_mult=2, vocab_size=100, p_max=8,
                      q=4, patch_dim=6, text_blocks=1, vision_blocks=1,
                      fusion_blocks=1, user_blocks=1, L_max=12)
    model = RecModel.init(cfg, seed=3)
    rng = np.random.default_rng(3)
    items = {i: ItemRecord(i, rng.integers(1, 100, size=rng.integers(4, 9)).tolist(),
                           rng.normal(size=(4, 6))) for i in range(40)}
    index = build_item_index(model, items)
    prefixes = [rng.integers(0, 40, size=rng.integers(1, 16)).tolist()
                for _ in range(300)]
    got = tr.encode_prefixes(model, prefixes, items, index, cfg.L_max)
    kept = [p[-cfg.L_max:] for p in prefixes]
    rows = np.zeros((len(kept), cfg.L_max), dtype=np.int64)
    mask = np.zeros((len(kept), cfg.L_max))
    for r, p in enumerate(kept):
        rows[r, : len(p)] = [index.row_of[i] for i in p]
        mask[r, : len(p)] = 1.0
    with ad.no_grad():
        full = model.encode_sequence(ad.Tensor(index.reps[rows]), mask).data
    want = full[np.arange(len(kept)), mask.sum(axis=1).astype(np.int64) - 1]
    assert {len(p) for p in kept} == set(range(1, 13))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# row-parallel blocks
# ---------------------------------------------------------------------------

def read_path_at(model, split, workers):
    """The valid, test and cold reports, the index they ranked with, the
    valid prefixes' states and their capped ranks, with the screen on and
    with every row sent to the exact pass, and the exact pass's score rows,
    computed on `workers` threads, as bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "_workers", lambda: workers)
        model.index_cache = None
        out = {"reports": "\n".join([
            evaluate(model, split, phase="valid").to_json(),
            evaluate(model, split, phase="test").to_json(),
            evaluation.evaluate_cold_start(model, split, threshold=3).to_json()])}
        index = tr.item_index(model, split.items)
        out["reps"] = index.reps.tobytes()
        out["projections"] = b"".join(p.tobytes() for p in index.projections)
        states = tr.encode_prefixes(model, split.train, split.items, index,
                                    model.cfg.L_max)
        out["states"] = states.tobytes()
        targets = index.rows(split.valid, "target")
        out["ranks"] = evaluation.capped_ranks(states, targets, index.reps, 51).tobytes()
        scores = record_exact_scores(mp)
        out["exact_ranks"] = evaluation.capped_ranks(
            states, targets, index.reps, len(index.order) + 1).tobytes()
        out["exact_scores"] = np.array([scores[u] for u in range(len(states))]).tobytes()
    return out


def worker_count_differences():
    """(catalog size, workers, output) for each read-path output computed on
    2 or 3 threads that differs from its bits on one, over catalogs of
    2000, 1999 and 700 items with 700 users each; the screen takes 256 rows
    at a time so that it has more than one slice."""
    differences = []
    for n_items in (2000, 1999, 700):
        rng = np.random.default_rng(n_items)
        items = {i: ItemRecord(i, rng.integers(1, 100, size=rng.integers(4, 9)).tolist(),
                               rng.normal(size=(4, 6))) for i in range(n_items)}
        split = SplitDataset(
            items=items, train=[rng.integers(0, n_items, size=n).tolist()
                                for n in rng.integers(1, 16, size=700)],
            valid=rng.integers(0, n_items, size=700).tolist(),
            test=rng.integers(0, n_items, size=700).tolist())
        model = RecModel.init(transfer_config(), seed=n_items)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_SCREEN_ROWS", 256)
            want = read_path_at(model, split, 1)
            for workers in (2, 3):
                got = read_path_at(model, split, workers)
                differences += [(n_items, workers, k) for k in want if got[k] != want[k]]
    return differences


@pytest.mark.parametrize("threads", [1, 2])
def test_read_path_bits_do_not_depend_on_the_worker_count(threads):
    if threads > (os.cpu_count() or 1):
        pytest.skip("one CPU core: OpenBLAS runs one thread here")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    run = subprocess.run(
        [sys.executable, "-c", "from tests.test_transfer import "
         "worker_count_differences as f; print(f())"],
        env=env, cwd=root, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["[]"]


def small_split(n, seed):
    rng = np.random.default_rng(seed)
    items = {i: ItemRecord(i, rng.integers(1, 100, size=4).tolist(),
                           rng.normal(size=(4, 6))) for i in range(n)}
    return SplitDataset(items=items,
                        train=[rng.integers(0, n, size=5).tolist() for _ in range(n)],
                        valid=list(range(n)), test=list(range(n)))


def test_evaluate_under_grad_records_no_node(monkeypatch):
    model = RecModel.init(transfer_config(), seed=3)
    nodes, make = [], ad._make

    def recording_make(data, parents, vjp):
        out = make(data, parents, vjp)
        if out._backward is not None:
            nodes.append(out)
        return out

    monkeypatch.setattr(tr, "_workers", lambda: 2)
    monkeypatch.setattr(ad, "_make", recording_make)
    assert ad.grad_enabled()
    assert evaluate(model, small_split(600, 3), phase="valid").count == 600
    assert ad.grad_enabled() and not nodes
    assert all(p.requires_grad for _, p in model.named_parameters())


def test_every_thread_runs_its_blocks_under_no_grad(monkeypatch):
    monkeypatch.setattr(tr, "_workers", lambda: 3)
    seen = []

    def fn(block):
        seen.append((threading.get_ident(), ad.grad_enabled()))
        time.sleep(0.002)

    tr.for_each_block(fn, list(range(200)))
    assert len(seen) == 200 and len({t for t, _ in seen}) > 1
    assert not any(enabled for _, enabled in seen) and ad.grad_enabled()


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_a_block_error_is_raised_in_the_caller_and_stops_the_blocks(where, monkeypatch):
    """Once a helper thread has run a block, the first block that `where`
    runs raises. The error reaches the caller, every other block that
    started has finished, and none starts after."""
    monkeypatch.setattr(tr, "_workers", lambda: 3)
    caller, helper_ran = threading.current_thread(), threading.Event()
    started, finished = [], []

    def fn(block):
        on_caller = threading.current_thread() is caller
        if not on_caller:
            helper_ran.set()
        started.append(block)
        if helper_ran.is_set() and on_caller == (where == "caller"):
            raise KeyError(f"block {block}")
        time.sleep(0.002)
        finished.append(block)

    with pytest.raises(KeyError, match="block"):
        tr.for_each_block(fn, list(range(2000)))
    counts = len(started), len(finished)
    time.sleep(0.05)
    assert (len(started), len(finished)) == counts
    assert len(finished) == len(started) - 1 < 1999


def test_one_usable_core_starts_no_thread(monkeypatch):
    monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: {0})
    model, split = RecModel.init(transfer_config(), seed=4), small_split(600, 4)
    before = threading.active_count()
    evaluate(model, split, phase="valid")
    assert threading.active_count() == before


@pytest.mark.parametrize("blas_threads,workers", [
    (None, 4), (1, 4), (2, 2), (3, 1), (4, 1), (8, 1)])
def test_workers_and_blas_threads_share_the_cores(blas_threads, workers, monkeypatch):
    monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(tr.blas, "threads", lambda: blas_threads)
    assert tr._workers() == workers


@pytest.mark.parametrize("threads", [1, 2])
def test_workers_follow_the_loaded_openblas(threads):
    """In a process whose OpenBLAS starts at `threads` threads, the worker
    count is the cores divided by that until the CLI's pin sets it to one."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    run = subprocess.run(
        [sys.executable, "-c", "import os; from mmrec import blas, cli, transfer as tr; "
         "print(blas.threads(), tr._workers(), len(os.sched_getaffinity(0))); "
         "print(cli._pin_blas_to_one_thread(), blas.threads(), tr._workers())"],
        env=env, cwd=root, capture_output=True, text=True, check=True)
    first, pinned = (line.split() for line in run.stdout.splitlines())
    if first[0] == "None":
        pytest.skip("numpy here does not load OpenBLAS")
    cores = int(first[2])
    assert first[:2] == [str(threads), str(max(1, cores // threads))]
    assert pinned == ["True", "1", str(cores)]


def test_every_block_runs_once_on_more_threads_than_cores(monkeypatch):
    workers = 4 * (os.cpu_count() or 1)
    monkeypatch.setattr(tr, "_workers", lambda: workers)
    counts = np.zeros(5000, dtype=np.int64)
    idents = set()

    def fn(block):
        idents.add(threading.get_ident())
        counts[block] += 1  # each block owns its entries
        time.sleep(1e-4)  # long enough for every helper thread to start

    blocks = np.array_split(np.arange(5000), 2500)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=tr.for_each_block, args=(fn, blocks))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert (counts == 1).all() and len(idents) > 1
