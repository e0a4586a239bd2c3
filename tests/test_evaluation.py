import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmrec import autodiff as ad
from mmrec import evaluation, transfer
from mmrec.data import (ItemRecord, SplitDataset, SyntheticConfig,
                        cold_item_subsequences, filter_and_split,
                        generate_synthetic)
from mmrec.evaluation import (MetricsReport, capped_ranks, evaluate,
                              evaluate_cold_start, evaluate_train, rank_of_target,
                              ranking_metrics, ranks_of_targets)
from mmrec.gradcheck import small_config
from mmrec.model import RecModel

from .conftest import clone, with_l_max


# ---------------------------------------------------------------------------
# rank and metric primitives
# ---------------------------------------------------------------------------

def test_rank_oracle_simple():
    scores = np.array([0.1, 0.9, 0.5, 0.3])
    assert rank_of_target(scores, 1) == 1
    assert rank_of_target(scores, 2) == 2
    assert rank_of_target(scores, 3) == 3
    assert rank_of_target(scores, 0) == 4


def test_rank_pessimistic_on_ties():
    scores = np.array([0.5, 0.5, 0.5, 0.1])
    # every tied competitor counts as ranked above the target
    assert rank_of_target(scores, 0) == 3
    assert rank_of_target(scores, 3) == 4


def test_rank_rejects_bad_row():
    with pytest.raises(ValueError, match="target row"):
        rank_of_target(np.array([1.0, 2.0]), 2)


@pytest.mark.parametrize("chunk", [1, 3, 512])
def test_ranks_of_targets_matches_counting_loop(chunk):
    """Whole-matrix ranks match a counting loop, and so do ranks taken over
    row blocks of `chunk` rows, as the blocked scoring in evaluation takes
    them; 1100 rows end in a partial block for every chunk size."""
    rng = np.random.default_rng(8)
    # scores from few distinct values, so most targets have ties
    scores = rng.integers(0, 5, size=(1100, 7)).astype(np.float64)
    rows = rng.integers(0, 7, size=1100)
    want = [1 + int((s > s[r]).sum()) + int((s == s[r]).sum()) - 1
            for s, r in zip(scores, rows)]
    assert ranks_of_targets(scores, rows).tolist() == want
    blocked = [ranks_of_targets(scores[i:i + chunk], rows[i:i + chunk])
               for i in range(0, len(rows), chunk)]
    assert np.concatenate(blocked).tolist() == want


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=29),
       st.integers(min_value=0, max_value=10**6))
def test_rank_matches_sorting(n, row, seed):
    row %= n
    scores = np.random.default_rng(seed).normal(size=n)
    got = rank_of_target(scores, row)
    order = np.argsort(-scores, kind="stable")
    # with distinct scores (a.s. for gaussians) rank is the sorted position
    assert got == int(np.where(order == row)[0][0]) + 1


def test_ndcg_closed_forms():
    hr, ndcg = ranking_metrics([1], 10)
    assert (hr, ndcg) == (1.0, 1.0)
    hr, ndcg = ranking_metrics([3], 10)
    assert ndcg == pytest.approx(1.0 / math.log2(4.0), abs=1e-12)
    hr, ndcg = ranking_metrics([11], 10)
    assert (hr, ndcg) == (0.0, 0.0)
    hr, ndcg = ranking_metrics([1, 3, 11], 10)
    assert hr == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert ndcg == pytest.approx((1.0 + 0.5) / 3.0, abs=1e-12)


def test_ranking_metrics_guards():
    with pytest.raises(ValueError, match="k"):
        ranking_metrics([1], 0)
    with pytest.raises(ValueError, match="1-based"):
        ranking_metrics([0, 2], 10)
    assert ranking_metrics([], 10) == (0.0, 0.0)


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=30))
def test_metric_bounds_and_monotonicity(ranks):
    prev_hr = prev_ndcg = 0.0
    for k in (1, 5, 10, 50, 100):
        hr, ndcg = ranking_metrics(ranks, k)
        assert 0.0 <= ndcg <= hr <= 1.0
        assert hr >= prev_hr and ndcg >= prev_ndcg
        prev_hr, prev_ndcg = hr, ndcg


def test_report_serialization_round_trip():
    rep = MetricsReport(ks=(10, 20), hr={10: 50.0, 20: 75.0},
                        ndcg={10: 30.0, 20: 40.0}, count=4,
                        dataset="toy", phase="test")
    text = rep.to_text()
    assert "HR" in text and "@10" in text and "toy" in text
    import json
    back = json.loads(rep.to_json())
    assert back["hr"]["20"] == 75.0 and back["count"] == 4


# ---------------------------------------------------------------------------
# full evaluation vs a brute-force reimplementation
# ---------------------------------------------------------------------------

def tiny_split(seed=0):
    scfg = SyntheticConfig(n_users=10, n_items=8, L_min=5, L_max=6,
                           vocab_size=12, p_min=2, p_max=4, q=4, patch_dim=4,
                           seed=seed)
    source, _ = generate_synthetic(scfg)
    return filter_and_split(source, min_interactions=2)


def leave_one_out_pairs(split, phase):
    return [(list(seq) + ([split.valid[u]] if phase == "test" else []),
             split.test[u] if phase == "test" else split.valid[u])
            for u, seq in enumerate(split.train)]


def brute_force_ranks(model, pairs, items):
    order = sorted(items)
    ranks = []
    for prefix, target in pairs:
        scores = transfer.predict_scores(model, list(prefix), items)
        t = scores[order.index(target)]
        ranks.append(1 + sum(1 for s in scores if s > t)
                     + sum(1 for s in scores if s == t) - 1)
    return ranks


@pytest.mark.parametrize("phase", ["valid", "test"])
def test_evaluate_matches_brute_force(phase):
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    report = evaluate(model, split, phase=phase, ks=(1, 3, 5))
    ranks = brute_force_ranks(model, leave_one_out_pairs(split, phase), split.items)
    for k in (1, 3, 5):
        hr = 100.0 * sum(r <= k for r in ranks) / len(ranks)
        ndcg = 100.0 * sum(1.0 / math.log2(r + 1) for r in ranks if r <= k) / len(ranks)
        assert report.hr[k] == pytest.approx(hr, abs=1e-9)
        assert report.ndcg[k] == pytest.approx(ndcg, abs=1e-9)
    assert report.count == len(split.train)


def test_evaluate_rejects_unknown_phase():
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    with pytest.raises(ValueError, match="phase"):
        evaluate(model, split, phase="final")


def test_evaluate_cuts_prefixes_to_the_models_l_max():
    """A model with the first 3 rows of another's position table reports on
    long prefixes what both report on the same prefixes cut to 3 items."""
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    short = with_l_max(model, 3)
    assert max(len(s) for s in split.train) > 3
    for phase, keep in (("valid", 3), ("test", 2)):  # test prefixes end in valid
        cut = SplitDataset(items=split.items, train=[s[-keep:] for s in split.train],
                           valid=split.valid, test=split.test)
        want = report_key(evaluate(model, cut, phase=phase))
        assert report_key(evaluate(short, split, phase=phase)) == want
        assert report_key(evaluate(short, cut, phase=phase)) == want


def test_evaluate_leaves_model_untouched():
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    before = model.snapshot()
    evaluate(model, split, ks=(10,))
    after = model.snapshot()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_evaluate_train_counts_all_transitions():
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    report = evaluate_train(model, split, ks=(5,))
    assert report.count == sum(len(s) - 1 for s in split.train)


# ---------------------------------------------------------------------------
# blocked scoring: bounded memory, the full matrix's ranks
# ---------------------------------------------------------------------------

def full_matrix_ranks(model, pairs, items):
    """The ranks that one unblocked (pairs, catalog) score matrix gives."""
    index = transfer.build_item_index(model, items)
    states = transfer.encode_prefixes(model, [p for p, _ in pairs], items, index,
                                      model.cfg.L_max)
    scores = states @ index.reps.T
    return [int((s >= s[index.row_of[t]]).sum()) for s, (_, t) in zip(scores, pairs)]


def full_matrix_report(model, pairs, items, like):
    """The report, shaped as `like`, that the full matrix's ranks give."""
    return evaluation._aggregate(full_matrix_ranks(model, pairs, items), like.ks,
                                 like.dataset, like.phase)


@pytest.mark.parametrize("chunk", [1, 3, 128])
def test_rank_pairs_blocks_match_full_matrix(chunk, monkeypatch):
    """Blocked scoring reports exactly what one full score matrix reports, for
    pair counts of 1 (mod chunk) and for a single pair, screened out or
    tied with a twin of its target. The exact blocks sum to the count of
    rows the screen leaves to them (a lone row counts twice), every pair
    screened out ranks below max(ks) in the full matrix and every pair it
    settles has that matrix's rank, no block has one row, and none has more
    than max(chunk, 3)."""
    source, _ = generate_synthetic(SyntheticConfig(
        n_users=420, n_items=120, L_min=5, L_max=8, vocab_size=12, p_min=2,
        p_max=4, q=4, patch_dim=4, seed=3))
    whole = filter_and_split(source, min_interactions=2)

    def first_users(n):
        return SplitDataset(items=whole.items, train=whole.train[:n],
                            valid=whole.valid[:n], test=whole.test[:n])

    split = first_users(3 * 128 + 1)  # 1 (mod 3) and 1 (mod 128)
    assert len(split.train) == 3 * 128 + 1
    cold = cold_item_subsequences(split, 10)
    assert len(cold) > 1
    model = RecModel.init(small_config(), 0)
    monkeypatch.setattr(evaluation, "_RANK_CHUNK", chunk)
    blocks, rank = [], evaluation.ranks_of_targets
    monkeypatch.setattr(evaluation, "ranks_of_targets",
                        lambda s, t: blocks.append(len(s)) or rank(s, t))
    screened, screen = [], evaluation._screen
    monkeypatch.setattr(evaluation, "_screen",
                        lambda *a: screened.append(screen(*a)) or screened[-1])
    # a single pair whose target has a twin in the catalog: the tie leaves
    # it to the exact pass, which scores it as a two-row block
    valid_ranks = full_matrix_ranks(model, leave_one_out_pairs(split, "valid"),
                                    split.items)
    best = int(np.argmin(valid_ranks))
    twin, target = max(whole.items) + 1, whole.items[whole.valid[best]]
    tied = SplitDataset(items={**whole.items, twin: ItemRecord(
                            twin, target.tokens, target.patches)},
                        train=[whole.train[best]], valid=[whole.valid[best]],
                        test=[whole.test[best]])
    cases = [(evaluate, s, {"phase": phase}, leave_one_out_pairs(s, phase))
             for s in (split, first_users(1), tied) for phase in ("valid", "test")]
    cases.append((evaluate_cold_start, split, {}, cold))
    lone_rows = 0
    for fn, s, kw, pairs in cases:
        blocks.clear()
        screened.clear()
        report = fn(model, s, **kw)
        assert len(pairs) == report.count
        ranks, exact = screened[0]
        assert sum(blocks) == len(exact) + (len(exact) == 1)
        full = np.array(full_matrix_ranks(model, pairs, s.items))
        cap = max(report.ks) + 1
        settled = np.setdiff1d(np.arange(len(pairs)), exact)
        assert (full[settled][ranks[settled] == cap] > max(report.ks)).all()
        assert ranks[settled].tolist() == np.minimum(full[settled], cap).tolist()
        assert all(2 <= b <= max(chunk, 3) for b in blocks)
        lone_rows += len(exact) == 1
        want = full_matrix_report(model, pairs, s.items, report)
        assert report_key(report) == report_key(want)  # HR and NDCG exact
    assert lone_rows >= 1  # the single pair's repeated row ran


def rank_pairs_peak(n_pairs, n_items, monkeypatch):
    """The tracemalloc peak of `_rank_pairs` in `evaluate(valid)` of
    `n_pairs` random users over `n_items` items; NumPy reports its buffers
    to tracemalloc."""
    rng = np.random.default_rng(0)
    items = {i: ItemRecord(i, rng.integers(1, 12, size=3).tolist(),
                           rng.normal(size=(4, 4))) for i in range(n_items)}
    split = SplitDataset(
        items=items,
        train=[rng.choice(n_items, size=4, replace=False).tolist()
               for _ in range(n_pairs)],
        valid=rng.integers(0, n_items, size=n_pairs).tolist(),
        test=rng.integers(0, n_items, size=n_pairs).tolist())
    model = RecModel.init(small_config(), 0)
    transfer.item_index(model, split.items)  # the cached index is not counted
    peaks, rank_pairs = [], evaluation._rank_pairs

    def traced(*args):
        tracemalloc.start()
        try:
            return rank_pairs(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(evaluation, "_rank_pairs", traced)
    assert evaluate(model, split, phase="valid").count == n_pairs
    return peaks[0]


def test_rank_pairs_peak_memory_is_a_fraction_of_the_score_matrix(monkeypatch):
    """Ranking 1000 pairs against 1500 items peaks below a quarter of one
    (pairs, catalog) float64 matrix."""
    assert rank_pairs_peak(1000, 1500, monkeypatch) < 1000 * 1500 * 8 / 4


def test_rank_pairs_peak_memory_stays_flat_at_four_times_the_pairs(monkeypatch):
    """4000 pairs against 1500 items peak below an eighth of the score
    matrix, 6 MB, which a screen of all rows at once breaks: its (256, 4000)
    scores alone are 8 MB."""
    assert rank_pairs_peak(4000, 1500, monkeypatch) < 4000 * 1500 * 8 / 8


# ---------------------------------------------------------------------------
# capped ranks: min(rank, cap) from a screen and an exact pass
# ---------------------------------------------------------------------------

def near_tie_catalog(cap, n_rows=300, d=32, n_items=704, seed=0):
    """States and a shuffled catalog in which every row's target has
    `n_above` items clearly above it and `n_near` copies of it with every
    coordinate moved by one to four ulps, whose scores lie within a few
    ulps of the target's either way. Each row's rank then turns on how its
    dot products round and straddles `cap`. The other items lie clearly
    below."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=d)
    states = base + rng.normal(size=(n_rows, d))
    up = base / np.linalg.norm(base)  # every state scores clearly along it
    target = rng.normal(size=d)
    n_near = min(30, 2 * (cap - 1))
    n_above = cap - 1 - n_near // 2
    ulps = rng.integers(1, 5, size=(n_near, d)) * rng.choice([-1, 1], size=(n_near, d))
    near = target + ulps * np.spacing(target)
    steps = rng.uniform(0.5, 2.0, size=(n_items - 1 - n_near, 1))
    steps[n_above:] *= -1
    reps = np.concatenate([target[None], near, target + steps * up])
    perm = rng.permutation(n_items)
    return states, np.full(n_rows, np.argsort(perm)[0]), reps[perm]


def full_capped(states, targets, reps, cap):
    return np.minimum(ranks_of_targets(states @ reps.T, targets), cap)


@pytest.mark.parametrize("screen_rows", [7, 1024])
@pytest.mark.parametrize("ks", [(1,), (10,), (10, 20, 50), (10, 100)])
def test_capped_ranks_match_the_full_product_on_near_ties(ks, screen_rows,
                                                          monkeypatch):
    """min(rank, max(ks) + 1) equals the full product's on rows whose
    near-ties fall on both sides of the cap, and so does every report."""
    monkeypatch.setattr(evaluation, "_SCREEN_ROWS", screen_rows)
    cap = max(ks) + 1
    states, targets, reps = near_tie_catalog(cap)
    full = ranks_of_targets(states @ reps.T, targets)
    assert (full < cap).any() and (full >= cap).any()
    assert len(set(full.tolist())) >= 3  # the near-ties order differently by row
    got = capped_ranks(states, targets, reps, cap)
    assert got.tolist() == np.minimum(full, cap).tolist()
    want = evaluation._aggregate(full, ks, "", "valid")
    assert report_key(evaluation._aggregate(got, ks, "", "valid")) == report_key(want)


def test_capped_rank_of_a_single_state():
    """One state that survives the screen has the rank of its row in the
    product over all states (its near-ties round as they do there), and an
    exact tie is never counted by the screen: a zero state ties its target
    with every item, so in a catalog of max(ks) items it ranks max(ks).
    No state gives no rank."""
    states, targets, reps = near_tie_catalog(51)
    got = [capped_ranks(states[i:i + 1], targets[i:i + 1], reps, 51)[0]
           for i in range(40)]
    want = full_capped(states, targets, reps, 51)[:40].tolist()
    assert got == want and min(want) < 51
    reps = np.random.default_rng(1).normal(size=(10, 4))
    assert capped_ranks(np.zeros((1, 4)), np.array([3]), reps, 11).tolist() == [10]
    assert capped_ranks(np.zeros((2, 4)), np.array([3, 0]), reps, 11).tolist() == [10, 10]
    assert capped_ranks(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), reps, 11).size == 0


def test_capped_ranks_with_no_row_and_with_every_row_surviving(monkeypatch):
    states, targets, reps = near_tie_catalog(51)
    scores = states @ reps.T
    full = ranks_of_targets(scores, targets)
    blocks, rank = [], evaluation.ranks_of_targets
    monkeypatch.setattr(evaluation, "ranks_of_targets",
                        lambda s, t: blocks.append(len(s)) or rank(s, t))
    # every target the row's lowest-scoring item: no exact pass at all
    lowest = np.argmin(scores, axis=1)
    assert capped_ranks(states, lowest, reps, 51).tolist() == [51] * len(states)
    assert blocks == []
    # the rows that rank below the cap all survive; their near-ties leave
    # every one to the exact pass
    hit = np.flatnonzero(full < 51)
    assert 1 < len(hit) < len(states)
    _, exact = evaluation._screen(states[hit], targets[hit], reps, 51)
    assert exact.tolist() == list(range(len(hit)))
    assert capped_ranks(states[hit], targets[hit], reps, 51).tolist() == \
        full[hit].tolist()
    # a cap above the catalog keeps every row and every rank
    assert capped_ranks(states, targets, reps, len(reps) + 1).tolist() == \
        full.tolist()


def test_screen_settles_rows_without_near_ties(monkeypatch):
    """With no score near any target's, the screen ranks every row itself:
    nothing reaches the exact pass, and every rank is the full product's."""
    rng = np.random.default_rng(2)
    states, reps = rng.normal(size=(60, 8)), rng.normal(size=(600, 8))
    targets = rng.integers(0, 600, size=60)
    full = ranks_of_targets(states @ reps.T, targets)
    blocks, rank = [], evaluation.ranks_of_targets
    monkeypatch.setattr(evaluation, "ranks_of_targets",
                        lambda s, t: blocks.append(len(s)) or rank(s, t))
    for cap in (11, 51, 601):
        assert capped_ranks(states, targets, reps, cap).tolist() == \
            np.minimum(full, cap).tolist()
    assert blocks == [] and full.min() < 11 and full.max() > 51


def test_evaluate_rejects_a_non_finite_user_state():
    """A NaN state ranks 0 in `ranks_of_targets`, which the metrics reject;
    the screen never drops it, even with a cap below the catalog size."""

    class NanState(OracleModel):
        def encode_sequence(self, reps, mask, last=False, projections=None):
            h = _states(np.roll(reps.data, 1, axis=-1), mask, last).data
            h[0] = np.nan
            return ad.Tensor(h)

    with pytest.raises(ValueError, match="ranks are 1-based"):
        evaluate(NanState(6), oracle_split(), phase="valid", ks=(1,))


def test_evaluate_names_a_target_outside_the_catalog():
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    missing = max(split.items) + 7
    bad = SplitDataset(items=split.items, train=split.train,
                       valid=split.valid[:-1] + [missing], test=split.test)
    with pytest.raises(ValueError, match=f"target item {missing} is not in the catalog"):
        evaluate(model, bad, phase="valid")


# ---------------------------------------------------------------------------
# item-index cache: one build per (parameters, catalog)
# ---------------------------------------------------------------------------

def count_builds(monkeypatch):
    built, build = [], transfer.build_item_index
    monkeypatch.setattr(transfer, "build_item_index",
                        lambda *args: built.append(1) or build(*args))
    return built


def report_key(report):
    return report.count, report.hr, report.ndcg


def assert_matches_fresh_model(model, split, tmp_path, **kw):
    """`evaluate` on `model` equals it on a model loaded from a bundle of the
    same parameters, and so does the index it scored with."""
    path = tmp_path / "fresh.bundle"
    transfer.save_bundle(model, path)
    fresh = transfer.model_from_bundle(path)
    assert report_key(evaluate(model, split, **kw)) == \
        report_key(evaluate(fresh, split, **kw))
    got = transfer.item_index(model, split.items)
    want = transfer.item_index(fresh, split.items)
    assert got.reps.tobytes() == want.reps.tobytes()


def test_one_index_build_serves_valid_test_and_cold(monkeypatch):
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    built = count_builds(monkeypatch)
    evaluate(model, split, phase="valid")
    evaluate(model, split, phase="test")
    assert evaluate_cold_start(model, split, threshold=100).count > 0
    evaluate_train(model, split)
    assert len(built) == 1


def test_index_rebuilt_after_each_training_step(monkeypatch, tmp_path):
    from mmrec import training

    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    built = count_builds(monkeypatch)
    validations, reps, validation_hr = [], set(), training._validation_hr

    def checked(m, s):
        validations.append(len(built))
        assert_matches_fresh_model(m, s, tmp_path, phase="valid", ks=(10,))
        reps.add(transfer.item_index(m, s.items).reps.tobytes())
        return validation_hr(m, s)

    monkeypatch.setattr(training, "_validation_hr", checked)
    cfg = training.TrainConfig(learning_rate=0.05, max_epochs=2, patience=10, B=4,
                               L_max=4, seed=0)
    training.finetune(model, split, cfg)
    assert len(validations) == 3
    # each validation after epoch 0 follows AdamW steps: it rebuilt the
    # model's index (one build) and the fresh model's (one more)
    assert np.diff(validations).tolist() == [2, 2]
    assert len(reps) == 3  # the steps moved the item representations


def test_index_rebuilt_after_load_snapshot(monkeypatch, tmp_path):
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    other = RecModel.init(small_config(), 1).snapshot()
    evaluate(model, split)
    built = count_builds(monkeypatch)
    model.load_snapshot(other)
    assert_matches_fresh_model(model, split, tmp_path)
    assert len(built) == 2  # the model's rebuild and the fresh model's build


def test_index_rebuilt_after_unsignalled_writes(monkeypatch):
    """A parameter written in place, then AdamW steps taken outside the
    training loop: each write alone rebuilds the index, and `evaluate`
    equals it on a clone, which starts uncached."""
    from mmrec import objectives, training
    from mmrec.data import make_batches

    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    first = transfer.item_index(model, split.items)
    built = count_builds(monkeypatch)

    def assert_matches_clone():
        twin = clone(model)
        for phase in ("valid", "test"):
            assert report_key(evaluate(model, split, phase=phase)) == \
                report_key(evaluate(twin, split, phase=phase))
        got = transfer.item_index(model, split.items)
        assert got.reps.tobytes() == \
            transfer.item_index(twin, split.items).reps.tobytes()
        return got

    model.groups["text_encoder"]["tok_emb"].data[1:] *= 1.5
    written = assert_matches_clone()
    assert len(built) == 2  # the model's rebuild and the clone's build
    assert written.reps.tobytes() != first.reps.tobytes()

    opt = training.AdamW(model.trainable_parameters(),
                         training.TrainConfig(learning_rate=0.05))
    for batch in make_batches(split, 4, 4, seed=0):
        model.zero_grad()
        objectives.total_loss(model, batch, objectives.dap_only())[0].backward()
        opt.step()
    stepped = assert_matches_clone()
    assert len(built) == 4
    assert stepped.reps.tobytes() != written.reps.tobytes()


def test_index_rebuilt_for_another_catalog_object(monkeypatch, tmp_path):
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    evaluate(model, split)
    built = count_builds(monkeypatch)
    items = dict(split.items)
    first = min(items)
    items[first] = ItemRecord(first, [1, 2], items[first].patches + 1.0)
    changed = SplitDataset(items=items, train=split.train, valid=split.valid,
                           test=split.test)
    assert_matches_fresh_model(model, changed, tmp_path)
    assert len(built) == 2


def test_clone_does_not_share_the_index(monkeypatch):
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    index = transfer.item_index(model, split.items)
    twin = clone(model)
    assert twin.index_cache is None
    built = count_builds(monkeypatch)
    assert transfer.item_index(twin, split.items) is not index
    assert len(built) == 1
    assert transfer.item_index(model, split.items) is index


# ---------------------------------------------------------------------------
# oracle model: a scorer that always ranks the true successor first
# ---------------------------------------------------------------------------

class OracleModel:
    """Items are one-hot; the user state is the one-hot of the successor of
    the last item under the cyclic map i -> i+1 mod n."""

    index_cache = None

    def __init__(self, n):
        self.n = n

        class cfg:
            d = n
            p_max = 1
            L_max = 10
            modality = "both"

        self.cfg = cfg

    def named_parameters(self):
        return iter(())

    def first_block_projections(self, x=None, out=None):
        return None  # no user blocks

    def item_embeddings(self, ids, mask, patches):
        reps = np.zeros((ids.shape[0], self.n))
        reps[np.arange(ids.shape[0]), ids[:, 0] - 1] = 1.0
        return {"e_cls": ad.Tensor(reps)}

    def encode_sequence(self, reps, mask, last=False, projections=None):
        return _states(np.roll(reps.data, 1, axis=-1), mask, last)


def _states(h, mask, last):
    """Per-position states (B, L, n), or with `last` each row's state at its
    last position (B, n), as `RecModel.encode_sequence` returns."""
    return ad.Tensor(h[:, -1] if last else h)


def oracle_split(n=6, users=5):
    items = {i: ItemRecord(i, [i + 1], np.zeros((1, 1))) for i in range(n)}
    train, valid, test = [], [], []
    for u in range(users):
        seq = [(u + j) % n for j in range(5)]
        train.append(seq[:-2])
        valid.append(seq[-2])
        test.append(seq[-1])
    return SplitDataset(items=items, train=train, valid=valid, test=test)


def test_oracle_model_scores_perfectly():
    split = oracle_split()
    model = OracleModel(6)
    for phase in ("valid", "test"):
        report = evaluate(model, split, phase=phase, ks=(1, 10))
        assert report.hr[1] == 100.0
        assert report.ndcg[10] == 100.0


def test_anti_oracle_model_never_hits():
    split = oracle_split()

    class AntiOracle(OracleModel):
        def encode_sequence(self, reps, mask, last=False, projections=None):
            return _states(np.roll(reps.data, 3, axis=-1), mask, last)  # wrong successor

    report = evaluate(AntiOracle(6), split, phase="test", ks=(1,))
    assert report.hr[1] == 0.0


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

def test_cold_start_empty_set_gives_zero_report():
    split = tiny_split()
    model = RecModel.init(small_config(), 0)
    report = evaluate_cold_start(model, split, threshold=0, ks=(10,))
    assert report.count == 0
    assert report.hr[10] == 0.0 and report.ndcg[10] == 0.0
    assert report.phase == "cold"


def test_cold_start_oracle_hits_every_cold_target():
    split = oracle_split()
    report = evaluate_cold_start(OracleModel(6), split, threshold=100, ks=(1,))
    assert report.count > 0
    assert report.hr[1] == 100.0
