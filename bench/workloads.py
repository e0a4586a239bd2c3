"""The three workloads. Each has a set-up, one timed unit of work, the
boundary hooks that time its ops, and the checks of its outputs.

A unit is the smallest piece of work whose repetition keeps the mix of ops
fixed: one pretrain epoch, one valid/test/cold ranking cycle, one gradient
check. The timed phase runs whole units, so every per-op figure is the same
whether a run fits one unit or several.
"""

import math
import os
import time
from types import SimpleNamespace as State

import numpy as np

from mmrec import data, evaluation, gradcheck, objectives, training, transfer
from mmrec.encoders import ModelConfig
from mmrec.model import RecModel

PRETRAIN_TERMS = ("dap", "nicl", "nid", "rcl")
GRADCHECK_LOSS = "total"
GRADCHECK_BOUND = 1e-4  # criterion 1
RANK_KINDS = ("valid", "test", "cold")
COLD_THRESHOLD = 10
NDCG_TOL = 1e-10  # percent units, i.e. 1e-12 on the fraction (criterion 3)


class Ops:
    """Boundary timestamps of the ops of one timed phase, with each op's
    outcome. `current` is the op in flight; the tracer tags spans with it."""

    def __init__(self):
        self.start, self.end, self.ok = [], [], []
        self.current = None
        self.work = 0  # sequences, prefixes or loss evaluations

    def __len__(self):
        return len(self.start)

    def begin(self):
        self.current = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self.ok.append(True)

    def finish(self, ok=True):
        self.end[self.current] = time.perf_counter()
        self.ok[self.current] = self.ok[self.current] and ok
        self.current = None

    def abort(self):
        if self.current is not None:
            self.finish(False)

    def mark_failed(self, i):
        self.ok[i] = False

    def latencies_ms(self):
        return [(e - s) * 1e3 for s, e in zip(self.start, self.end)]

    def failed(self):
        return sum(not ok for ok in self.ok)


def transfer_model_config():
    """The acceptance transfer config: d=32, one block per encoder, L=12."""
    return ModelConfig(d=32, n_heads=4, ffn_mult=2, vocab_size=100, p_max=8,
                       q=4, patch_dim=6, text_blocks=1, vision_blocks=1,
                       fusion_blocks=1, user_blocks=1, L_max=12)


def synthetic_config(seed, n_users, n_items):
    return data.SyntheticConfig(
        n_users=n_users, n_users_target=max(2, n_users // 10), n_items=n_items,
        n_latent_styles=4, n_slots=4, transition_noise=0.1, L_min=8, L_max=12,
        vocab_size=100, p_min=4, p_max=8, q=4, patch_dim=6, seed=seed)


def source_split(seed, n_users, n_items):
    source, _ = data.generate_synthetic(synthetic_config(seed, n_users, n_items))
    return data.filter_and_split(source, min_interactions=5)


class Workload:
    def shrink(self, patches):
        """Patches that make the tiny variant smaller than set-up can."""

    def hook(self, patches, ops):
        """Patches that time the ops the program makes on its own."""


# ---------------------------------------------------------------------------
# pretrain: the write path
# ---------------------------------------------------------------------------

class Pretrain(Workload):
    """`training.pretrain` one epoch per unit on 64-sequence batches with all
    four objectives. One op is one train step, timed from the
    `objectives.total_loss` call to the return of `AdamW.step`."""

    name = "pretrain"
    work_unit = "sequences"

    def __init__(self, tiny):
        self.n_users, self.n_items = (320, 100) if tiny else (5000, 200)

    def setup(self, seed, workdir):
        split = source_split(seed, self.n_users, self.n_items)
        model = RecModel.init(transfer_model_config(), seed)
        tcfg = training.TrainConfig(learning_rate=3e-3, max_epochs=1,
                                    patience=10, B=64, L_max=12, seed=seed)
        # warm-up: one forward and backward, no parameter update
        batch = data.make_batches(split, tcfg.B, tcfg.L_max, seed)[0]
        loss, _ = objectives.total_loss(model, batch, objectives.ObjectiveConfig())
        loss.backward()
        model.zero_grad()
        return State(split=split, model=model, tcfg=tcfg, val_hr10=[])

    def hook(self, patches, ops):
        total_loss = objectives.total_loss
        step = training.AdamW.step
        size = [0]  # sequences in the step in flight

        def timed_total_loss(model, batch, cfg, rng=None):
            ops.begin()
            loss, parts = total_loss(model, batch, cfg, rng)
            if sorted(parts) != sorted(PRETRAIN_TERMS) or not all(
                    math.isfinite(v) for v in parts.values()):
                ops.mark_failed(ops.current)
            size[0] = batch.size
            return loss, parts

        def timed_step(opt):
            try:
                step(opt)
            except training.NonFiniteGradient:
                ops.finish(False)
                raise
            ops.work += size[0]
            ops.finish()

        patches.set(objectives, "total_loss", timed_total_loss)
        patches.set(training.AdamW, "step", timed_step)

    def unit(self, st, ops):
        first = len(ops)
        log = training.pretrain(st.model, st.split, st.tcfg)
        hr = log[-1]["val_hr10"]
        st.val_hr10.append(hr)
        # the epoch's output check: validation HR@10 beats the random rate
        if len(ops) > first and not hr > 10.0 / len(st.split.items):
            ops.mark_failed(len(ops) - 1)

    def verify(self, st):
        return {"val_hr10": st.val_hr10,
                "random_hr10": 10.0 / len(st.split.items),
                "catalog": len(st.split.items), "users": len(st.split.train)}


# ---------------------------------------------------------------------------
# rank: the read path
# ---------------------------------------------------------------------------

class Rank(Workload):
    """Full-catalog ranking with a model loaded by `model_from_bundle`. A unit
    is evaluate(valid), evaluate(test) and evaluate_cold_start; one op is
    one of these calls."""

    name = "rank"
    work_unit = "prefixes"

    def __init__(self, tiny):
        self.n_users, self.n_items = (300, 300) if tiny else (5000, 2000)

    def setup(self, seed, workdir):
        split = source_split(seed, self.n_users, self.n_items)
        path = os.path.join(workdir, "rank.bundle")
        transfer.save_bundle(RecModel.init(transfer_model_config(), seed), path)
        model = transfer.model_from_bundle(path)
        os.remove(path)
        # warm-up: the cheapest op
        evaluation.evaluate_cold_start(model, split, threshold=COLD_THRESHOLD)
        return State(split=split, model=model, reports=[])

    def call(self, st, kind):
        if kind == "cold":
            return evaluation.evaluate_cold_start(st.model, st.split,
                                                  threshold=COLD_THRESHOLD)
        return evaluation.evaluate(st.model, st.split, phase=kind)

    def unit(self, st, ops):
        for kind in RANK_KINDS:
            ops.begin()
            report = self.call(st, kind)
            ops.finish()
            ops.work += report.count
            st.reports.append((ops, len(ops) - 1, kind, report))

    def verify(self, st):
        """Every call's HR/NDCG equal a full-sort oracle with pessimistic
        ties (criterion 3's rule), and repeats of a call are identical."""
        oracles = {kind: self.oracle(st, kind) for kind in RANK_KINDS}
        first = {}
        mismatched = 0
        for ops, i, kind, rep in st.reports:
            key = (rep.count, rep.hr, rep.ndcg)
            oracle = oracles[kind]
            good = (rep.count == oracle["count"]
                    and all(rep.hr[k] == oracle["hr"][k] for k in rep.ks)
                    and all(abs(rep.ndcg[k] - oracle["ndcg"][k]) <= NDCG_TOL
                            for k in rep.ks)
                    and first.setdefault(kind, key) == key)
            if not good:
                ops.mark_failed(i)
                mismatched += 1
        return {"oracle_mismatches": mismatched, "calls": len(st.reports),
                "oracle_hr10": {k: o["hr"][10] for k, o in oracles.items()},
                "pairs": {k: o["count"] for k, o in oracles.items()},
                "catalog": len(st.split.items)}

    def oracle(self, st, kind):
        split, model = st.split, st.model
        if kind == "cold":
            pairs = data.cold_item_subsequences(split, COLD_THRESHOLD)
        else:
            pairs = [(list(seq) + ([] if kind == "valid" else [split.valid[u]]),
                      split.valid[u] if kind == "valid" else split.test[u])
                     for u, seq in enumerate(split.train)]
        index = transfer.build_item_index(model, split.items)
        states = transfer.encode_prefixes(model, [p for p, _ in pairs],
                                          split.items, index, model.cfg.L_max)
        scores = states @ index.reps.T
        n_items = scores.shape[1]
        ranks = []
        for row, (_, target) in zip(scores, pairs):
            ordered = np.sort(row)  # full sort; equal scores rank above the target
            ranks.append(n_items - int(np.searchsorted(
                ordered, row[index.row_of[target]], side="left")))
        ranks = np.asarray(ranks)
        hr, ndcg = {}, {}
        for k in evaluation.DEFAULT_KS:
            hit = ranks <= k
            hr[k] = 100.0 * float(hit.mean()) if len(ranks) else 0.0
            ndcg[k] = (100.0 * float(np.where(hit, 1.0 / np.log2(ranks + 1.0),
                                              0.0).mean())
                       if len(ranks) else 0.0)
        return {"count": len(pairs), "hr": hr, "ndcg": ndcg}


# ---------------------------------------------------------------------------
# gradcheck: many tiny graphs, per-node Python overhead
# ---------------------------------------------------------------------------

class Gradcheck(Workload):
    """`gradcheck.run_gradient_checks` of the composed loss on the small
    config. One op is one loss evaluation: (1 + 2 * trainable elements) per
    check."""

    name = "gradcheck"
    work_unit = "loss evaluations"

    def __init__(self, tiny):
        # the test shrinks the small config so that a check takes a second
        self.small = dict(d=2, p=2, q=2) if tiny else {}

    def shrink(self, patches):
        if self.small:
            small_config = gradcheck.small_config
            patches.set(gradcheck, "small_config",
                        lambda: small_config(**self.small))

    def setup(self, seed, workdir):
        cfg = gradcheck.small_config()
        model = RecModel.init(cfg, seed)
        batch = gradcheck.random_batch(cfg, np.random.default_rng(seed))
        # warm-up: one forward and backward of the composed loss
        loss, _ = objectives.total_loss(model, batch, objectives.ObjectiveConfig())
        loss.backward()
        n = sum(p.data.size for _, p in model.trainable_parameters())
        return State(seed=seed, evals_per_check=1 + 2 * n, errors=[])

    def hook(self, patches, ops):
        loss_fn = gradcheck._loss_fn

        def timed_loss_fn(model, batch, name):
            fn = loss_fn(model, batch, name)

            def timed():
                ops.begin()
                try:
                    out = fn()
                except Exception:
                    ops.finish(False)
                    raise
                ops.work += 1
                ops.finish(math.isfinite(out.item()))
                return out

            return timed

        patches.set(gradcheck, "_loss_fn", timed_loss_fn)

    def unit(self, st, ops):
        first = len(ops)
        err = gradcheck.run_gradient_checks(st.seed, losses=(GRADCHECK_LOSS,))
        err = float(err[GRADCHECK_LOSS])
        st.errors.append(err)
        if len(ops) > first and (not err <= GRADCHECK_BOUND
                                 or len(ops) - first != st.evals_per_check):
            ops.mark_failed(len(ops) - 1)

    def verify(self, st):
        return {"loss": GRADCHECK_LOSS, "max_rel_errors": st.errors,
                "bound": GRADCHECK_BOUND,
                "evals_per_check": st.evals_per_check}


WORKLOADS = {w.name: w for w in (Pretrain, Rank, Gradcheck)}
