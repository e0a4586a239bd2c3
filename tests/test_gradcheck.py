import numpy as np
import pytest

from mmrec import autodiff as ad
from mmrec import encoders as enc
from mmrec import gradcheck
from mmrec import objectives as obj
from mmrec.gradcheck import CHECK_LOSSES, random_batch, small_config
from mmrec.model import RecModel
from mmrec.objectives import ObjectiveConfig

from .conftest import clone


def model_and_batch(seed=0, **small):
    cfg = small_config(**small)
    model = RecModel.init(cfg, seed)
    return model, random_batch(cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("top_blocks", ["all", 1])
def test_check_parameters_evaluates_once_plus_twice_per_trainable_element(top_blocks):
    model, batch = model_and_batch(d=2, p=2, q=2)
    model.set_trainable_top_blocks(top_blocks)
    n = sum(p.data.size for _, p in model.trainable_parameters())
    loss_fn, calls = gradcheck._loss_fn(model, batch, "nid"), []
    before = model.snapshot()
    err = gradcheck.check_parameters(model, lambda: calls.append(1) or loss_fn())
    assert len(calls) == 1 + 2 * n
    assert err <= 1e-4
    after = model.snapshot()
    assert all(before[k].tobytes() == after[k].tobytes() for k in before)


@pytest.mark.parametrize("name", [n for n in CHECK_LOSSES if n != "total"])
def test_single_loss_equals_its_term_in_the_full_pipeline(name):
    model, batch = model_and_batch(seed=1)
    full = ObjectiveConfig(contrastive=name if name in obj.CONTRASTIVE_VARIANTS else "nicl")
    want = obj.total_loss(model, batch, full)[1][name]
    assert gradcheck._loss_fn(model, batch, name)().item() == want


@pytest.mark.parametrize("name", CHECK_LOSSES)
def test_total_loss_fn_encodes_the_batch_once(name, monkeypatch):
    model, batch = model_and_batch(seed=2, d=2, p=2, q=2)
    fresh = obj.total_loss(model, batch, ObjectiveConfig())[0].item()
    built, corrupted, draw = [], [], obj._draw_corruption

    class Counted(obj.BatchContext):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(obj, "BatchContext", Counted)
    monkeypatch.setattr(obj, "_draw_corruption",
                        lambda *args: corrupted.append(1) or draw(*args))
    loss_fn = gradcheck._loss_fn(model, batch, name)
    loss = loss_fn()
    assert gradcheck.check_parameters(model, loss_fn) <= 1e-4
    # one context, and so one corruption, for the whole check
    assert len(built) == 1
    assert len(corrupted) == (batch.size if name in ("total", "nid", "rcl") else 0)
    if name == "total":
        assert loss.item() == fresh


def test_unknown_loss_rejected():
    model, batch = model_and_batch()
    with pytest.raises(ValueError, match="unknown loss"):
        gradcheck._loss_fn(model, batch, "bogus")


def test_total_check_corrupts_each_sequence_once(monkeypatch):
    model, batch = model_and_batch(d=2, p=2, q=2)
    model.set_trainable_top_blocks(1)
    n = sum(p.data.size for _, p in model.trainable_parameters())
    draw, corrupted = obj._draw_corruption, []
    monkeypatch.setattr(obj, "_draw_corruption",
                        lambda *args: corrupted.append(1) or draw(*args))
    loss_fn, calls = gradcheck._loss_fn(model, batch, "total"), []
    gradcheck.check_parameters(model, lambda: calls.append(1) or loss_fn())
    assert n > 0 and len(calls) == 1 + 2 * n
    # once per sequence of the batch, not once per sequence and evaluation
    assert len(corrupted) == batch.size
    fresh = obj.total_loss(model, batch, ObjectiveConfig())[0].item()
    assert loss_fn().item() == fresh and len(corrupted) == 2 * batch.size


def test_reused_stages_give_the_values_of_a_fresh_model():
    model, batch = model_and_batch(d=2, p=2, q=2)
    loss_fn, pairs = gradcheck._loss_fn(model, batch, "total"), []

    def recorded():
        # corruption is a function of the batch alone, so a fresh
        # `total_loss` draws the one the closure keeps
        fresh = obj.total_loss(clone(model), batch, ObjectiveConfig())[0]
        out = loss_fn()
        pairs.append((out.data.tobytes(), fresh.data.tobytes()))
        return out

    n = sum(p.data.size for _, p in model.trainable_parameters())
    gradcheck.check_parameters(model, recorded)
    assert len(pairs) == 1 + 2 * n
    assert all(got == want for got, want in pairs)


def test_item_encoders_rerun_only_when_a_probe_reaches_them(monkeypatch):
    model, batch = model_and_batch(d=2, p=2, q=2)
    runs = {"text_encoder": 0, "vision_encoder": 0}
    for group, name in (("text_encoder", "encode_text"),
                        ("vision_encoder", "encode_vision")):
        def counted(*args, _group=group, _run=getattr(enc, name)):
            runs[_group] += not ad.grad_enabled()
            return _run(*args)
        monkeypatch.setattr(enc, name, counted)
    gradcheck.check_parameters(model, gradcheck._loss_fn(model, batch, "total"))
    for group, count in runs.items():
        n = sum(p.data.size for p in model.groups[group].values())
        # probes only, not the analytic pass: twice per own element, once on
        # entering and once on leaving the group
        assert 2 * n <= count <= 2 * n + 2, group


def test_grad_mode_after_probes_matches_a_fresh_model():
    model, batch = model_and_batch(d=2, p=2, q=2)
    fresh = clone(model)
    loss_fn = gradcheck._loss_fn(model, batch, "total")
    flat = model.groups["user_encoder"]["pos"].data.reshape(-1)
    ad.central_difference(loss_fn, flat[:2])  # fills every stage's memo
    model.zero_grad()
    loss_fn().backward()
    obj.total_loss(fresh, batch, ObjectiveConfig())[0].backward()
    want = dict(fresh.named_parameters())
    for name, p in model.named_parameters():
        assert p.grad is not None and want[name].grad is not None, name
        assert p.grad.tobytes() == want[name].grad.tobytes(), name


def test_rcl_check_verifies_a_nonzero_gradient(monkeypatch):
    seen = []

    def analytic(model, loss_fn):
        model.zero_grad()
        loss_fn().backward()
        seen.append(max(float(np.abs(p.grad).max())
                        for _, p in model.trainable_parameters()
                        if p.grad is not None))
        return 0.0

    monkeypatch.setattr(gradcheck, "check_parameters", analytic)
    gradcheck.run_gradient_checks(seed=0, losses=("rcl",))
    assert seen[0] > 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_parameter_array_receives_gradient(seed):
    # a parameter whose gradient is rounding noise changes no output, and
    # its central differences would compare noise with noise
    model = RecModel.init(small_config(), seed)
    batch = random_batch(model.cfg, np.random.default_rng(seed), B=3)
    obj.total_loss(model, batch, ObjectiveConfig())[0].backward()
    largest = {name: float(np.abs(p.grad).max()) if p.grad is not None else 0.0
               for name, p in model.named_parameters()}
    scale = max(largest.values())
    inert = {name: g / scale for name, g in largest.items() if g <= 1e-15 * scale}
    assert not inert, inert
