"""Spans around the public functions of each mmrec layer, installed from
outside the program by patching module and class attributes.

A span records its name, start, end, parent span and the op in flight. Spans
stay in memory until the run ends; self time (a span minus its child spans)
and the per-layer metrics are derived afterwards.
"""

import time
from collections import defaultdict

import numpy as np

from mmrec import (autodiff, data, evaluation, gradcheck, objectives, training,
                   transfer)
from mmrec.model import RecModel

LAYERS = ("data", "autodiff", "encoders", "user_encoder", "objectives",
          "training", "transfer", "evaluation", "gradcheck")


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _graph_nodes(loss):
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _count_nodes(counts, args, kwargs):
    counts["autodiff.nodes"] += _graph_nodes(args[0])


def _count_items(counts, args, kwargs):
    counts["encoders.items"] += len(_arg(args, kwargs, 1, "token_ids"))


def _count_seqs(counts, args, kwargs):
    counts["user_encoder.seqs"] += _arg(args, kwargs, 1, "item_reps").shape[0]


def _count_occurrences(counts, args, kwargs):
    batch = _arg(args, kwargs, 2, "batch")
    real = batch.mask > 0
    counts["objectives.occurrences"] += int(real.sum())
    counts["objectives.unique_items"] += len(np.unique(batch.idx[real]))


def _count_index_items(counts, args, kwargs):
    counts["transfer.index_items"] += len(_arg(args, kwargs, 1, "items"))


def _count_prefixes(counts, args, kwargs):
    counts["transfer.prefixes"] += len(_arg(args, kwargs, 1, "prefixes"))


# (owner, attribute, span name, counter). The span name's first part is the
# layer. RecModel is only a container: its forwards count as encoders and
# user_encoder, its snapshots as training.
TARGETS = (
    (data, "generate_synthetic", "data.setup", None),
    (data, "filter_and_split", "data.setup", None),
    (data, "make_batches", "data.make_batches", None),
    (data, "cold_item_subsequences", "data.cold_pairs", None),
    (autodiff.Tensor, "backward", "autodiff.backward", _count_nodes),
    (RecModel, "item_embeddings", "encoders.items", _count_items),
    (RecModel, "encode_text", "encoders.text", None),
    (RecModel, "encode_vision", "encoders.vision", None),
    (RecModel, "fuse", "encoders.fusion", None),
    (RecModel, "encode_sequence", "user_encoder", _count_seqs),
    (objectives.BatchContext, "__init__", "objectives.context", _count_occurrences),
    (objectives, "dap_loss", "objectives.dap", None),
    (objectives, "contrastive_loss", "objectives.contrastive", None),
    (objectives, "corrupt_batch", "objectives.corrupt", None),
    (objectives, "nid_loss", "objectives.nid", None),
    (objectives, "rcl_loss", "objectives.rcl", None),
    (objectives, "total_loss", "objectives.total", None),
    (training, "pretrain", "training.pretrain", None),
    (training.AdamW, "step", "training.adamw", None),
    (RecModel, "snapshot", "training.snapshot", None),
    (RecModel, "load_snapshot", "training.snapshot", None),
    (transfer, "save_bundle", "transfer.bundle_save", None),
    (transfer, "load_bundle", "transfer.bundle_load", None),
    (transfer, "model_from_bundle", "transfer.model_from_bundle", None),
    (transfer, "build_item_index", "transfer.index", _count_index_items),
    (transfer, "encode_prefixes", "transfer.prefixes", _count_prefixes),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "evaluate_cold_start", "evaluation.evaluate", None),
    (evaluation, "rank_of_target", "evaluation.rank", None),
    (gradcheck, "run_gradient_checks", "gradcheck.check", None),
    (gradcheck, "check_parameters", "gradcheck.check_parameters", None),
)


class Tracer:
    """Collects spans while installed. `ops.current` tags each span with the
    op in flight (None between ops)."""

    def __init__(self, ops):
        self.ops = ops
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index, op index]
        self.stack = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)

    def install(self, patches):
        for owner, attr, name, counter in TARGETS:
            patches.set(owner, attr, self._wrap(vars(owner)[attr], name, counter))

    def _wrap(self, fn, name, counter):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.ops.current]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[layer] += 1
                if isinstance(exc, training.NonFiniteGradient):
                    self.counts["training.rejected_steps"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs)
            return out

        return traced

    def collect(self):
        out = (self.spans, dict(self.counts), dict(self.errors))
        self.reset()
        return out


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans, i, name):
    """True if an ancestor of span i is called `name`."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def per_layer(setup_trace, phase_trace, ops, tp_untraced, tp_traced):
    """The per-layer metrics of one traced run: {name: (value, unit)}."""
    s_spans, _, _ = setup_trace
    spans, counts, errors = phase_trace
    own = self_times(spans)
    s_own = self_times(s_spans)

    self_s = defaultdict(float)
    calls = defaultdict(int)
    for s, t in zip(spans, own):
        self_s[s[0]] += t
        calls[s[0]] += 1
    setup_self = defaultdict(float)
    for s, t in zip(s_spans, s_own):
        setup_self[s[0]] += t

    n_ops = max(1, len(ops))
    epochs = calls["data.make_batches"]

    def per_op_ms(name):
        return self_s[name] * 1e3 / n_ops

    def per_epoch_ms(seconds):
        return seconds * 1e3 / epochs if epochs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    validation_s = sum(s[2] - s[1] for i, s in enumerate(spans)
                       if s[0] == "evaluation.evaluate"
                       and _under(spans, i, "training.pretrain"))
    contexts_in_evals = sum(1 for i, s in enumerate(spans)
                            if s[0] == "objectives.context" and s[4] is not None
                            and _under(spans, i, "gradcheck.check"))
    covered = sum(t for s, t in zip(spans, own) if s[4] is not None)
    op_time = sum(e - s for s, e in zip(ops.start, ops.end))
    checks = [s[2] - s[1] for s in spans if s[0] == "gradcheck.check"]

    m = {
        "data.setup_s": (setup_self["data.setup"], "s"),
        "data.make_batches_ms": (per_epoch_ms(self_s["data.make_batches"]), "ms"),
        "data.cold_pairs_ms": (per_op_ms("data.cold_pairs"), "ms"),
        "encoders.text_ms": (per_op_ms("encoders.text"), "ms"),
        "encoders.vision_ms": (per_op_ms("encoders.vision"), "ms"),
        "encoders.fusion_ms": (per_op_ms("encoders.fusion"), "ms"),
        "encoders.items": (counts.get("encoders.items", 0) / n_ops, "count"),
        "user_encoder.ms": (per_op_ms("user_encoder"), "ms"),
        "user_encoder.calls": (calls["user_encoder"] / n_ops, "count"),
        "user_encoder.seqs": (counts.get("user_encoder.seqs", 0) / n_ops, "count"),
        "objectives.context_ms": (per_op_ms("objectives.context"), "ms"),
        "objectives.dap_ms": (per_op_ms("objectives.dap"), "ms"),
        "objectives.contrastive_ms": (per_op_ms("objectives.contrastive"), "ms"),
        "objectives.corrupt_ms": (per_op_ms("objectives.corrupt"), "ms"),
        "objectives.nid_ms": (per_op_ms("objectives.nid"), "ms"),
        "objectives.rcl_ms": (per_op_ms("objectives.rcl"), "ms"),
        "objectives.total_self_ms": (per_op_ms("objectives.total"), "ms"),
        "objectives.occ_per_unique": (ratio(counts.get("objectives.occurrences", 0),
                                            counts.get("objectives.unique_items", 0)),
                                      "ratio"),
        "autodiff.backward_ms": (per_op_ms("autodiff.backward"), "ms"),
        "autodiff.nodes": (ratio(counts.get("autodiff.nodes", 0),
                                 calls["autodiff.backward"]), "count"),
        "training.adamw_ms": (per_op_ms("training.adamw"), "ms"),
        "training.validation_ms": (per_epoch_ms(validation_s), "ms"),
        "training.snapshot_ms": (per_epoch_ms(self_s["training.snapshot"]), "ms"),
        "training.rejected_steps": (counts.get("training.rejected_steps", 0), "count"),
        "transfer.index_ms": (per_op_ms("transfer.index"), "ms"),
        "transfer.index_builds": (calls["transfer.index"] / n_ops, "count"),
        "transfer.index_items": (counts.get("transfer.index_items", 0) / n_ops, "count"),
        "transfer.prefixes_ms": (per_op_ms("transfer.prefixes"), "ms"),
        "transfer.prefixes": (counts.get("transfer.prefixes", 0) / n_ops, "count"),
        "transfer.bundle_load_ms": (setup_self["transfer.bundle_load"] * 1e3, "ms"),
        "transfer.bundle_save_ms": (setup_self["transfer.bundle_save"] * 1e3, "ms"),
        "evaluation.rank_ms": (per_op_ms("evaluation.rank"), "ms"),
        "evaluation.rank_calls": (calls["evaluation.rank"] / n_ops, "count"),
        "evaluation.self_ms": (per_op_ms("evaluation.evaluate"), "ms"),
        "gradcheck.check_s.total": (ratio(sum(checks), len(checks)), "s"),
        "gradcheck.contexts_per_eval": (ratio(contexts_in_evals, len(ops)), "count"),
        "trace.overhead": (tp_untraced - tp_traced, "1/s"),
        "trace.overhead_pct": (100.0 * ratio(tp_untraced - tp_traced, tp_untraced), "%"),
        "trace.coverage_pct": (100.0 * ratio(covered, op_time), "%"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    return m
