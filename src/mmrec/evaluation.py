"""Full-catalog leave-one-out ranking evaluation: HR@k / NDCG@k, plus the
cold-start variant over rare-item sub-sequences."""

import json
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import transfer

DEFAULT_KS = (10, 20, 50)
_RANK_CHUNK = 128  # most score rows per exact-pass block: 2 MB at 2000 items
_SCREEN_ROWS = 1024  # most rows screened at once
_SCREEN_COLS = 256  # items per screen block (uint16 counts): 1024 x 256 scores is 2 MB


@dataclass
class MetricsReport:
    ks: tuple
    hr: dict  # k -> percentage
    ndcg: dict  # k -> percentage
    count: int
    dataset: str = ""
    phase: str = ""

    def to_text(self):
        header = f"{'metric':<10}" + "".join(f"{'@' + str(k):>10}" for k in self.ks)
        hr_row = f"{'HR':<10}" + "".join(f"{self.hr[k]:>10.4f}" for k in self.ks)
        nd_row = f"{'NDCG':<10}" + "".join(f"{self.ndcg[k]:>10.4f}" for k in self.ks)
        tail = f"evaluated users: {self.count}  dataset: {self.dataset}  phase: {self.phase}"
        return "\n".join([header, hr_row, nd_row, tail])

    def to_json(self):
        return json.dumps({
            "ks": list(self.ks), "hr": {str(k): self.hr[k] for k in self.ks},
            "ndcg": {str(k): self.ndcg[k] for k in self.ks},
            "count": self.count, "dataset": self.dataset, "phase": self.phase,
        }, sort_keys=True)


def ranks_of_targets(scores, target_rows):
    """1-based full-catalog rank of `target_rows[i]` in each row `scores[i]`:
    the number of scores >= the target's, so ties rank the target below its
    equals."""
    scores = np.asarray(scores)
    target = scores[np.arange(len(scores)), np.asarray(target_rows, dtype=np.int64)]
    return np.count_nonzero(scores >= target[:, None], axis=1)


def rank_of_target(scores, target_row):
    """1-based full-catalog rank; ties rank the target below its equals."""
    scores = np.asarray(scores)
    if not 0 <= target_row < len(scores):
        raise ValueError(f"target row {target_row} outside catalog of {len(scores)}")
    return int(ranks_of_targets(scores[None, :], [target_row])[0])


def ranking_metrics(ranks, k):
    """(HR@k, NDCG@k) as fractions over the given 1-based ranks."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = np.asarray(ranks)
    if len(ranks) == 0:
        return 0.0, 0.0
    if ranks.min() < 1:
        raise ValueError("ranks are 1-based")
    hit = ranks <= k
    hr = float(hit.mean())
    ndcg = float(np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0).mean())
    return hr, ndcg


def _aggregate(ranks, ks, dataset, phase):
    hr, ndcg = {}, {}
    for k in ks:
        h, n = ranking_metrics(ranks, k)
        hr[k] = 100.0 * h
        ndcg[k] = 100.0 * n
    return MetricsReport(ks=tuple(ks), hr=hr, ndcg=ndcg, count=len(ranks),
                         dataset=dataset, phase=phase)


def _screen(states, targets, reps, cap):
    """`(ranks, exact)`: `min(rank, cap)` for every row the screen settles,
    and the sorted indices of the rows it leaves to the exact pass.

    Each row's target score t is a row-wise dot product. The row is then
    scored against `_SCREEN_COLS` items at a time. Against a rounding
    margin m, an item scored above t + m is above the target in any
    summation order of the same products, and one scored below t - m is
    below it. One plus the count above is therefore a lower bound on the
    rank, and a row leaves with rank `cap` once that bound reaches `cap`. A
    row that stays to the last item with only its target inside
    [t - m, t + m] has exactly that rank. The rest, whose ranks turn on how
    near-ties round, go to the exact pass. m = 8 * gamma_K * |s_i| *
    max_j |r_j| with gamma_K = K u / (1 - K u) for K = d and unit roundoff
    u (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    section 3.1): each of the four scores compared, screened or full, item
    or target, is within gamma_K * |s_i| * |r_j| of the exact dot product,
    and the factor 2 on top absorbs the rounding of the norms, the margin
    and the thresholds. An exact tie with the target is never counted
    above it, a non-finite state or item leaves its row to the exact pass,
    and the bound assumes no product underflows or overflows. Rows are
    screened `_SCREEN_ROWS` at a time, so no screen buffer is larger than
    one exact-pass block, and the slices run on `transfer.for_each_block`'s
    threads."""
    u = np.finfo(np.float64).eps / 2
    K = reps.shape[1]
    scale = 8 * (K * u / (1 - K * u)) * np.linalg.norm(reps, axis=1).max()
    ranks = np.full(len(states), cap, dtype=np.int64)
    starts = range(0, len(states), _SCREEN_ROWS)
    exact = [None] * len(starts)  # each slice's rows left to the exact pass

    def screen(start):
        s = states[start : start + _SCREEN_ROWS]
        score = np.einsum("ij,ij->i", s, reps[targets[start : start + _SCREEN_ROWS]])
        margin = scale * np.linalg.norm(s, axis=1)
        hi, lo = score + margin, score - margin
        above = np.zeros(len(s), dtype=np.int64)  # items scored above hi
        reach = np.zeros(len(s), dtype=np.int64)  # items scored at or above lo
        active = np.flatnonzero(above + 1 < cap)
        for c in range(0, len(reps), _SCREEN_COLS):
            if not len(active):
                break
            # (items, rows): each row's counts are sums down a column
            scores = reps[c : c + _SCREEN_COLS] @ s[active].T
            above[active] += (scores > hi[active]).sum(axis=0, dtype=np.uint16)
            reach[active] += (scores >= lo[active]).sum(axis=0, dtype=np.uint16)
            active = active[above[active] + 1 < cap]
        settled = (reach[active] == above[active] + 1) & np.isfinite(
            hi[active]) & np.isfinite(lo[active])  # only the target is near
        ranks[start + active[settled]] = above[active[settled]] + 1
        exact[start // _SCREEN_ROWS] = start + active[~settled]

    transfer.for_each_block(screen, starts)
    return ranks, np.concatenate([np.zeros(0, dtype=np.int64), *exact])


def capped_ranks(states, targets, reps, cap):
    """`min(rank, cap)` of item row `targets[i]` for the user state
    `states[i]` against the catalog `reps`, where rank is what
    `ranks_of_targets(states @ reps.T, targets)` gives.

    `_screen` settles every row whose rank is surely at least `cap` or has
    no near-tie with its target; the rest are ranked exactly by
    `ranks_of_targets` over full-row products in the blocks of
    `transfer.row_blocks`, of at most `_RANK_CHUNK` rows and never one, so
    every exact score has the bits of one full product. The blocks run on
    `transfer.for_each_block`'s threads."""
    ranks, exact = _screen(states, targets, reps, cap)

    def rank(rows):
        ranks[rows] = np.minimum(
            ranks_of_targets(states[rows] @ reps.T, targets[rows]), cap)

    transfer.for_each_block(rank, transfer.row_blocks(exact, _RANK_CHUNK))
    return ranks


def _rank_pairs(model, prefixes, targets, items, ks, dataset, phase):
    """Score and rank each target after its prefix, cut to the model's
    `L_max`. Ranks are read only through `rank <= k`, so each is capped at
    `max(ks) + 1` (`capped_ranks`) and no (pairs, catalog) matrix is built."""
    if not len(prefixes):
        return _aggregate([], ks, dataset, phase)
    index = transfer.item_index(model, items)
    states = transfer.encode_prefixes(model, prefixes, items, index, model.cfg.L_max)
    rows = index.rows(targets, "target")
    ranks = capped_ranks(states, rows, index.reps, max(ks, default=0) + 1)
    return _aggregate(ranks, ks, dataset, phase)


def _unzip(pairs):
    return [p for p, _ in pairs], [t for _, t in pairs]


def evaluate(model, split, phase="test", ks=DEFAULT_KS, dataset=""):
    """Leave-one-out evaluation against the full catalog.

    phase "valid" scores the validation target given the training prefix;
    phase "test" appends the validation item to the prefix and scores the
    test target.
    """
    if phase == "valid":
        prefixes, targets = split.train, split.valid
    elif phase == "test":
        prefixes = [list(seq) + [v] for seq, v in zip(split.train, split.valid)]
        targets = split.test
    else:
        raise ValueError(f"unknown phase {phase!r}")
    return _rank_pairs(model, prefixes, targets, split.items, ks, dataset, phase)


def evaluate_train(model, split, ks=(10,)):
    """HR/NDCG over all training-set transitions (overfit diagnostics)."""
    pairs = [(seq[:pos], seq[pos]) for seq in split.train for pos in range(1, len(seq))]
    return _rank_pairs(model, *_unzip(pairs), split.items, ks, "", "train")


def evaluate_cold_start(model, split, threshold=10, ks=DEFAULT_KS, dataset=""):
    """Evaluation restricted to sub-sequences ending at a cold item.

    An empty cold set yields an all-zero report with count 0.
    """
    pairs = data_mod.cold_item_subsequences(split, threshold)
    return _rank_pairs(model, *_unzip(pairs), split.items, ks, dataset, "cold")
