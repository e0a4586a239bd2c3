"""Full-catalog leave-one-out ranking evaluation: HR@k / NDCG@k, plus the
cold-start variant over rare-item sub-sequences."""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import transfer

DEFAULT_KS = (10, 20, 50)
_RANK_CHUNK = 128  # most score rows per block in _rank_pairs: 2 MB at 2000 items


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


def _rank_pairs(model, pairs, items, ks, dataset, phase):
    """Score and rank the pairs, each prefix cut to the model's `L_max`, in
    blocks of at most `_RANK_CHUNK` rows, so no (pairs, catalog) matrix is
    built. No block has one row unless there is one pair: NumPy computes a
    one-row product with gemv, which rounds differently from the GEMM that
    gives larger blocks the full product's bits."""
    if not pairs:
        return _aggregate([], ks, dataset, phase)
    index = transfer.item_index(model, items)
    states = transfer.encode_prefixes(model, [p for p, _ in pairs], items, index,
                                      model.cfg.L_max)
    targets = np.fromiter((index.row_of[t] for _, t in pairs), dtype=np.int64,
                          count=len(pairs))
    n_blocks = max(1, min(math.ceil(len(pairs) / _RANK_CHUNK), len(pairs) // 2))
    ranks = np.concatenate([
        ranks_of_targets(block @ index.reps.T, rows)
        for block, rows in zip(np.array_split(states, n_blocks),
                               np.array_split(targets, n_blocks))])
    return _aggregate(ranks, ks, dataset, phase)


def evaluate(model, split, phase="test", ks=DEFAULT_KS, dataset=""):
    """Leave-one-out evaluation against the full catalog.

    phase "valid" scores the validation target given the training prefix;
    phase "test" appends the validation item to the prefix and scores the
    test target.
    """
    if phase not in ("valid", "test"):
        raise ValueError(f"unknown phase {phase!r}")
    pairs = []
    for u, seq in enumerate(split.train):
        if phase == "valid":
            pairs.append((list(seq), split.valid[u]))
        else:
            pairs.append((list(seq) + [split.valid[u]], split.test[u]))
    return _rank_pairs(model, pairs, split.items, ks, dataset, phase)


def evaluate_train(model, split, ks=(10,)):
    """HR/NDCG over all training-set transitions (overfit diagnostics)."""
    pairs = []
    for seq in split.train:
        for pos in range(1, len(seq)):
            pairs.append((seq[:pos], seq[pos]))
    return _rank_pairs(model, pairs, split.items, ks, "", "train")


def evaluate_cold_start(model, split, threshold=10, ks=DEFAULT_KS, dataset=""):
    """Evaluation restricted to sub-sequences ending at a cold item.

    An empty cold set yields an all-zero report with count 0.
    """
    pairs = data_mod.cold_item_subsequences(split, threshold)
    return _rank_pairs(model, pairs, split.items, ks, dataset, "cold")
