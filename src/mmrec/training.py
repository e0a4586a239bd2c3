"""Optimizer and the pre-training / fine-tuning loops with early stopping."""

import ctypes
import math
import time
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import evaluation
from . import objectives
from .objectives import ObjectiveConfig


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    max_epochs: int = 500
    patience: int = 10
    B: int = 16
    L_max: int = 20
    seed: int = 0
    grad_clip: float = 0.0  # global-norm clip, 0 disables
    trainable_top_blocks: object = "all"

    def __post_init__(self):
        # `not 0 <= x < inf` also rejects NaN
        for name in ("learning_rate", "weight_decay", "adam_eps", "max_epochs",
                     "grad_clip"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name}={getattr(self, name)} must be finite and non-negative")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name}={getattr(self, name)} must lie in [0, 1)")
        if not self.patience >= 1:
            raise ValueError(f"patience={self.patience} must be >= 1")
        if not self.B >= 2:  # in-batch negatives need a second sequence
            raise ValueError(f"batch size B={self.B} must be >= 2")


class NonFiniteGradient(RuntimeError):
    pass


class AdamW:
    """Decoupled weight decay: p <- p - lr*(m_hat/(sqrt(v_hat)+eps)) - lr*wd*p,
    over one flat buffer whose views the parameters' arrays become (so write
    them in place); the clip norm still sums per array, in parameter order."""

    def __init__(self, params, cfg):
        self.params = list(params)  # [(name, Tensor)]
        self.cfg = cfg
        self.t = 0
        ends = np.cumsum([p.data.size for _, p in self.params]).tolist()
        self.spans = [slice(end - p.data.size, end) for (_, p), end in zip(self.params, ends)]
        self.flat = np.concatenate([p.data.reshape(-1) for _, p in self.params] or [[]])
        self.m, self.v, self.grad = (np.zeros_like(self.flat) for _ in range(3))
        for (_, p), span in zip(self.params, self.spans):
            p.data = self.flat[span].reshape(p.data.shape)

    def step(self):
        c = self.cfg
        g, p, m, v = self.grad, self.flat, self.m, self.v
        for (_, t), span in zip(self.params, self.spans):
            g[span] = 0.0 if t.grad is None else t.grad.reshape(-1)
        if not np.isfinite(g).all():
            name = next(n for (n, _), span in zip(self.params, self.spans)
                        if not np.isfinite(g[span]).all())
            raise NonFiniteGradient(f"non-finite gradient for {name}")
        if c.grad_clip > 0.0:
            total = np.sqrt(sum(float((g[span] * g[span]).sum()) for span in self.spans))
            if total > c.grad_clip:
                g *= c.grad_clip / total
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        m *= c.beta1
        m += (1.0 - c.beta1) * g
        v *= c.beta2
        v += (1.0 - c.beta2) * g * g
        p -= c.learning_rate * ((m / bc1) / (np.sqrt(v / bc2) + c.adam_eps))
        p -= c.learning_rate * c.weight_decay * p


def should_stop(history, patience):
    """True iff the best validation value is more than `patience` epochs old."""
    if patience < 1:
        raise ValueError("patience must be >= 1")
    if not history:
        raise ValueError("history must be non-empty")
    best = int(np.argmax(history))
    return (len(history) - 1 - best) >= patience


def _epoch_seed(seed, epoch):
    return int(np.random.SeedSequence([seed, epoch]).generate_state(1)[0])


def _validation_hr(model, split):
    report = evaluation.evaluate(model, split, phase="valid", ks=(10,))
    return report.hr[10] / 100.0, report.ndcg[10] / 100.0


def _keep_freed_memory_mapped():
    """Have glibc keep freed memory mapped (malloc.h: M_MMAP_THRESHOLD -3,
    M_TRIM_THRESHOLD -1). Backward frees each step's graph; under glibc's
    default thresholds the next step page-faults it back in, about 3900
    minor faults, a tenth of the step time, per 64-sequence pretrain step."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc-style mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 1 << 30)


def _run_training(model, split, tcfg, ocfg, log_label):
    if tcfg.L_max > model.cfg.L_max:
        raise ValueError(f"TrainConfig.L_max={tcfg.L_max} exceeds the model's "
                         f"L_max={model.cfg.L_max}")
    if tcfg.trainable_top_blocks != "all":
        model.set_trainable_top_blocks(tcfg.trainable_top_blocks)
    opt = AdamW(model.trainable_parameters(), tcfg)
    _keep_freed_memory_mapped()
    log = []
    t0 = time.perf_counter()
    hr0, ndcg0 = _validation_hr(model, split)
    history = [hr0]
    best = model.snapshot()
    log.append({"label": log_label, "epoch": 0, "losses": {},
                "val_hr10": hr0, "val_ndcg10": ndcg0,
                "seconds": time.perf_counter() - t0})
    for epoch in range(1, tcfg.max_epochs + 1):
        batches = data_mod.make_batches(split, tcfg.B, tcfg.L_max,
                                        _epoch_seed(tcfg.seed, epoch))
        sums, n = {}, 0
        for batch in batches:
            model.zero_grad()
            loss, parts = objectives.total_loss(model, batch, ocfg)
            loss.backward()
            del loss  # frees the forward arrays: no graph outlives its step
            opt.step()
            for k, val in parts.items():
                sums[k] = sums.get(k, 0.0) + val
            n += 1
        hr, ndcg = _validation_hr(model, split)
        history.append(hr)
        # argmax keeps the first best epoch; only a strict improvement re-snapshots
        if int(np.argmax(history)) == len(history) - 1:
            best = model.snapshot()
        log.append({"label": log_label, "epoch": epoch,
                    "losses": {k: v / n for k, v in sums.items()},
                    "val_hr10": hr, "val_ndcg10": ndcg,
                    "seconds": time.perf_counter() - t0})
        if should_stop(history, tcfg.patience):
            break
    model.load_snapshot(best)
    return log


def pretrain(model, source_split, tcfg, ocfg=None):
    """Multi-task pre-training; returns the per-epoch log. The model ends
    at its best-validation snapshot."""
    ocfg = ocfg or ObjectiveConfig()
    if ocfg.nid or ocfg.rcl:  # both read a corrupted copy of every sequence
        for u, seq in enumerate(source_split.train):
            if len(seq) < 2:
                raise ValueError(
                    f"training user {u} has a sequence of length {len(seq)}, but nid "
                    "and rcl corrupt sequences of length >= 2; filtering with "
                    "min_interactions >= 4 leaves every user at least 2 items")
    return _run_training(model, source_split, tcfg, ocfg, "pretrain")


def finetune(model, target_split, tcfg):
    """Fine-tune with the next-item objective only (single-task)."""
    return _run_training(model, target_split, tcfg, objectives.dap_only(), "finetune")
