import os
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmrec import objectives, training
from mmrec.autodiff import Tensor
from mmrec.data import (DataError, SyntheticConfig, filter_and_split,
                        generate_synthetic)
from mmrec.encoders import ModelConfig
from mmrec.evaluation import evaluate
from mmrec.model import RecModel
from mmrec.training import (AdamW, NonFiniteGradient, TrainConfig, finetune,
                            pretrain, should_stop)

from .conftest import clone, with_l_max


def opt_for(params, **kw):
    defaults = dict(learning_rate=0.1, weight_decay=0.0, max_epochs=1)
    defaults.update(kw)
    return AdamW(params, TrainConfig(**defaults))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def test_zero_gradient_is_fixed_point():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt_for([("p", p)]).step()
    np.testing.assert_array_equal(p.data, before)


def test_decay_only_closed_form():
    p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt_for([("p", p)], learning_rate=0.1, weight_decay=0.5).step()
    np.testing.assert_allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.5),
                               atol=1e-15)


def test_three_step_scalar_recursion_oracle():
    lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
    grads = [0.3, -1.2, 0.7]
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = opt_for([("p", p)], learning_rate=lr, weight_decay=wd,
                  beta1=b1, beta2=b2, adam_eps=eps)
    # independent reimplementation of the update recursion
    x, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        x = x - lr * mh / (np.sqrt(vh) + eps)
        x = x - lr * wd * x
        p.grad = np.array([g])
        opt.step()
        assert p.data[0] == pytest.approx(x, rel=1e-14)


def test_first_step_is_signed_unit_update():
    # at t=1 with eps -> 0, m_hat/sqrt(v_hat) = sign(g)
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    p.grad = np.array([3.7, -0.002])
    opt_for([("p", p)], learning_rate=0.1, adam_eps=0.0).step()
    np.testing.assert_allclose(p.data, [-0.1, 0.1], atol=1e-12)


def test_non_finite_gradient_rejected_before_any_update():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.5])
    q.grad = np.array([np.nan])
    opt = opt_for([("p", p), ("q", q)])
    with pytest.raises(NonFiniteGradient, match="q"):
        opt.step()
    assert p.data[0] == 1.0 and q.data[0] == 2.0
    assert opt.t == 0


def test_grad_clip_matches_rescaled_gradient():
    g = np.array([3.0, 4.0])  # norm 5, clip at 1 -> g/5
    p1 = Tensor(np.zeros(2), requires_grad=True)
    p1.grad = g.copy()
    opt_for([("p", p1)], grad_clip=1.0).step()
    p2 = Tensor(np.zeros(2), requires_grad=True)
    p2.grad = g / 5.0
    opt_for([("p", p2)]).step()
    np.testing.assert_allclose(p1.data, p2.data, atol=1e-15)


def test_grad_clip_inactive_below_threshold():
    p1 = Tensor(np.zeros(2), requires_grad=True)
    p1.grad = np.array([0.3, 0.4])
    opt_for([("p", p1)], grad_clip=1.0).step()
    p2 = Tensor(np.zeros(2), requires_grad=True)
    p2.grad = np.array([0.3, 0.4])
    opt_for([("p", p2)]).step()
    np.testing.assert_array_equal(p1.data, p2.data)


def reference_adamw(arrays, grads_per_step, cfg):
    """AdamW one parameter array at a time, in a loop: the reference the
    flat-buffer step must match bitwise. A gradient of None counts as 0."""
    data = {n: a.copy() for n, a in arrays.items()}
    state = {n: (np.zeros_like(a), np.zeros_like(a)) for n, a in data.items()}
    for t, grads in enumerate(grads_per_step, 1):
        gs = {n: np.zeros_like(a) if grads[n] is None else grads[n] for n, a in data.items()}
        if cfg.grad_clip > 0.0:
            total = np.sqrt(sum(float((g * g).sum()) for g in gs.values()))
            if total > cfg.grad_clip:
                gs = {n: g * (cfg.grad_clip / total) for n, g in gs.items()}
        bc1, bc2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
        for n, g in gs.items():
            m, v = state[n]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            data[n] -= cfg.learning_rate * ((m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps))
            data[n] -= cfg.learning_rate * cfg.weight_decay * data[n]
    return data


@pytest.mark.parametrize("grad_clip", [0.0, 0.5])
def test_flat_step_matches_the_per_array_loop_bitwise(grad_clip):
    rng = np.random.default_rng(31)
    arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4),
              "t": rng.normal(size=(2, 3, 2))}
    # "b" has no gradient on the second step, after one on the first
    grads = [{n: rng.normal(size=a.shape) for n, a in arrays.items()} for _ in range(4)]
    grads[1]["b"] = None
    params = [(n, Tensor(a.copy(), requires_grad=True)) for n, a in arrays.items()]
    opt = opt_for(params, learning_rate=0.01, weight_decay=0.1, grad_clip=grad_clip)
    for step in grads:
        for n, p in params:
            p.grad = step[n]
        opt.step()
    want = reference_adamw(arrays, grads, opt.cfg)
    for n, p in params:
        assert p.data.shape == arrays[n].shape
        assert p.data.tobytes() == want[n].tobytes(), n


def test_load_snapshot_writes_into_the_arrays_the_optimizer_steps():
    model, _ = tiny_setup()
    opt = AdamW(model.trainable_parameters(), tcfg(learning_rate=0.1, weight_decay=0.5))
    snap = RecModel.init(model.cfg, 1).snapshot()
    model.load_snapshot(snap)
    opt.step()  # no gradients: the decay alone moves every parameter
    for name, p in model.trainable_parameters():
        np.testing.assert_array_equal(p.data, snap[name] - 0.05 * snap[name], err_msg=name)


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------

def test_should_stop_examples():
    assert not should_stop([0.1], 2)
    assert not should_stop([0.1, 0.2, 0.15], 2)
    assert should_stop([0.1, 0.2, 0.15, 0.12], 2)
    assert should_stop([0.3, 0.2, 0.2], 2)  # ties do not reset the clock
    assert not should_stop([0.1, 0.2, 0.3], 1)


def test_should_stop_rejects_bad_arguments():
    with pytest.raises(ValueError):
        should_stop([0.1], 0)
    with pytest.raises(ValueError):
        should_stop([], 3)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
       st.integers(min_value=1, max_value=5))
def test_should_stop_matches_definition(history, patience):
    best = history.index(max(history))
    assert should_stop(history, patience) == (len(history) - 1 - best >= patience)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def tiny_setup(seed=0, text_blocks=1, vision_blocks=1):
    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=1, vocab_size=12, p_max=4,
                      q=4, patch_dim=4, text_blocks=text_blocks,
                      vision_blocks=vision_blocks, fusion_blocks=1,
                      user_blocks=1, L_max=6)
    scfg = SyntheticConfig(n_users=12, n_items=8, L_min=5, L_max=6,
                           vocab_size=12, p_min=2, p_max=4, q=4, patch_dim=4,
                           seed=seed)
    source, _ = generate_synthetic(scfg)
    split = filter_and_split(source, min_interactions=2)
    assert split.train  # the fixture must survive filtering
    model = RecModel.init(cfg, seed)
    return model, split


def tcfg(**kw):
    defaults = dict(learning_rate=1e-3, max_epochs=2, patience=10, B=4,
                    L_max=6, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_pretrain_log_structure_and_epoch_zero():
    model, split = tiny_setup()
    log = pretrain(model, split, tcfg())
    assert [e["epoch"] for e in log] == [0, 1, 2]
    assert log[0]["losses"] == {}
    assert set(log[1]["losses"]) == {"dap", "nicl", "nid", "rcl"}
    for e in log:
        assert e["label"] == "pretrain"
        assert 0.0 <= e["val_hr10"] <= 1.0
        assert e["seconds"] >= 0.0


def test_l_max_above_the_models_is_rejected_before_epoch_zero(monkeypatch):
    from mmrec import training

    model, split = tiny_setup()
    monkeypatch.setattr(training, "_validation_hr", lambda *a: pytest.fail(
        "validation ran"))
    with pytest.raises(ValueError, match="L_max=7 exceeds the model's L_max=6"):
        pretrain(model, split, tcfg(L_max=7))


@pytest.mark.parametrize("objectives_on", ["dap,nid", "dap,rcl"])
def test_one_item_sequence_is_rejected_before_epoch_zero(monkeypatch, objectives_on):
    model, split = tiny_setup()
    split.train[3] = split.train[3][:1]
    ocfg = objectives.ObjectiveConfig(contrastive=None, nid="nid" in objectives_on,
                                      rcl="rcl" in objectives_on)
    validated = []
    monkeypatch.setattr(training, "_validation_hr",
                        lambda *a: validated.append(1) or (0.0, 0.0))
    with pytest.raises(ValueError, match="training user 3 has a sequence of length 1"):
        pretrain(model, split, tcfg(), ocfg)
    assert not validated
    # without nid and rcl nothing is corrupted, so the split trains
    assert len(pretrain(model, split, tcfg(), objectives.dap_only())) == 3
    assert len(validated) == 3


def test_l_max_below_one_is_rejected():
    model, split = tiny_setup()
    with pytest.raises(DataError, match="L_max=0"):
        pretrain(model, split, tcfg(L_max=0))


def test_validation_reads_the_models_l_max_not_the_batches():
    """A `TrainConfig.L_max` below the model's cuts training batches only:
    epoch 0 logs the HR@10 that `evaluate` reports for the initial model,
    which on this split differs from the HR@10 of prefixes cut to 2 items."""
    model, _ = tiny_setup()
    source, _ = generate_synthetic(SyntheticConfig(
        n_users=40, n_items=30, L_min=5, L_max=6, vocab_size=12, p_min=2,
        p_max=4, q=4, patch_dim=4, seed=0))
    split = filter_and_split(source, min_interactions=2)
    initial = clone(model)
    hr10 = evaluate(initial, split, phase="valid", ks=(10,)).hr[10] / 100
    assert hr10 != evaluate(with_l_max(initial, 2), split, phase="valid",
                            ks=(10,)).hr[10] / 100
    log = pretrain(model, split, tcfg(L_max=2, max_epochs=1))
    assert log[0]["val_hr10"] == hr10


def test_training_is_reproducible():
    snaps = []
    for _ in range(2):
        model, split = tiny_setup()
        pretrain(model, split, tcfg())
        snaps.append(model.snapshot())
    for k in snaps[0]:
        np.testing.assert_array_equal(snaps[0][k], snaps[1][k])


def test_training_changes_trainable_parameters():
    model, split = tiny_setup()
    before = model.snapshot()
    log = pretrain(model, split, tcfg())
    best_epoch = int(np.argmax([e["val_hr10"] for e in log]))
    if best_epoch > 0:
        after = model.snapshot()
        assert any(not np.array_equal(before[k], after[k]) for k in before)


def test_model_ends_at_best_validation_snapshot():
    from mmrec.training import _validation_hr
    model, split = tiny_setup(seed=1)
    cfg = tcfg(max_epochs=3, learning_rate=1e-2)
    log = pretrain(model, split, cfg)
    hr, _ = _validation_hr(model, split)
    assert hr == pytest.approx(max(e["val_hr10"] for e in log), abs=1e-12)


def test_max_epochs_zero_leaves_model_untouched():
    model, split = tiny_setup()
    before = model.snapshot()
    log = pretrain(model, split, tcfg(max_epochs=0))
    assert len(log) == 1 and log[0]["epoch"] == 0
    after = model.snapshot()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_finetune_uses_single_objective():
    model, split = tiny_setup()
    log = finetune(model, split, tcfg())
    assert set(log[1]["losses"]) == {"dap"}
    assert log[1]["label"] == "finetune"


def test_frozen_parameters_stay_bit_identical_under_updates():
    from mmrec.data import make_batches
    from mmrec.objectives import dap_only, total_loss

    model, split = tiny_setup(text_blocks=2, vision_blocks=2)
    model.set_trainable_top_blocks(1)
    frozen_names = ("text_encoder.tok_emb", "text_encoder.b0.wq",
                    "vision_encoder.proj_w")
    before = model.snapshot()
    opt = AdamW(model.trainable_parameters(), tcfg(learning_rate=1e-2))
    for batch in make_batches(split, 4, 6, seed=0):
        model.zero_grad()
        loss, _ = total_loss(model, batch, dap_only())
        loss.backward()
        opt.step()
    after = model.snapshot()
    for name in frozen_names:
        np.testing.assert_array_equal(before[name], after[name])
    assert not np.array_equal(before["text_encoder.b1.wq"],
                              after["text_encoder.b1.wq"])
    assert not np.array_equal(before["user_encoder.b0.wq"],
                              after["user_encoder.b0.wq"])


def test_finetune_applies_freezing():
    model, split = tiny_setup(text_blocks=2, vision_blocks=2)
    finetune(model, split, tcfg(trainable_top_blocks=1))
    assert not model.groups["text_encoder"]["tok_emb"].requires_grad
    assert not model.groups["text_encoder"]["b0.wq"].requires_grad
    assert model.groups["text_encoder"]["b1.wq"].requires_grad


def test_pretrain_applies_freezing():
    model, split = tiny_setup(text_blocks=2, vision_blocks=2)
    before = model.snapshot()
    # keep the last epoch's parameters, not the best-validation snapshot
    model.load_snapshot = lambda snapshot: None
    pretrain(model, split, tcfg(trainable_top_blocks=1))
    after = model.snapshot()
    assert before["text_encoder.tok_emb"].tobytes() == after["text_encoder.tok_emb"].tobytes()
    assert before["text_encoder.b1.wq"].tobytes() != after["text_encoder.b1.wq"].tobytes()


def test_early_stopping_truncates_run():
    model, split = tiny_setup()
    # patience 1 with a tiny learning rate: validation cannot improve past
    # its plateau, so the loop must stop well before max_epochs
    log = pretrain(model, split, tcfg(max_epochs=50, patience=1,
                                      learning_rate=1e-6))
    assert log[-1]["epoch"] < 50
    hrs = [e["val_hr10"] for e in log]
    assert len(hrs) - 1 - int(np.argmax(hrs)) >= 1


def test_no_loss_graph_outlives_its_step(monkeypatch):
    """Every earlier loss is dead when a step's `total_loss` starts and when
    a validation starts, so a step holds at most one graph."""
    model, split = tiny_setup()
    losses, alive = [], []
    total_loss, validation_hr = objectives.total_loss, training._validation_hr

    def check():
        alive.append(sum(ref() is not None for ref in losses))

    def tracked_total_loss(*args, **kwargs):
        check()
        loss, parts = total_loss(*args, **kwargs)
        losses.append(weakref.ref(loss))
        return loss, parts

    def tracked_validation_hr(*args):
        check()
        return validation_hr(*args)

    monkeypatch.setattr(objectives, "total_loss", tracked_total_loss)
    monkeypatch.setattr(training, "_validation_hr", tracked_validation_hr)
    pretrain(model, split, tcfg(max_epochs=2))
    assert len(losses) >= 4 and len(alive) == len(losses) + 3
    assert not any(alive)


_FAULTS_PER_STEP = """
import resource
import numpy as np
from mmrec import data, objectives, training
from mmrec.encoders import ModelConfig
from mmrec.model import RecModel

cfg = ModelConfig(d=32, n_heads=4, ffn_mult=2, vocab_size=100, p_max=8, q=4,
                  patch_dim=6, text_blocks=1, vision_blocks=1, fusion_blocks=1,
                  user_blocks=1, L_max=12)
source, _ = data.generate_synthetic(data.SyntheticConfig(
    n_users=600, n_items=100, L_min=8, L_max=12, n_latent_styles=4, seed=0))
faults, total_loss = [], objectives.total_loss

def counted(*args, **kwargs):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return total_loss(*args, **kwargs)

objectives.total_loss = counted
training.pretrain(RecModel.init(cfg, 0), data.filter_and_split(source, 5),
                  training.TrainConfig(max_epochs=1, B=64, L_max=12))
print(int(np.median(np.diff(faults)[2:])))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's heap trimming")
def test_steady_train_steps_fault_in_no_new_memory():
    """Backward frees each step's graph, and training keeps that memory
    mapped for the next step: with glibc's default thresholds a step on
    the transfer config page-faults about 3900 pages back in."""
    src = os.path.dirname(os.path.dirname(training.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 100
