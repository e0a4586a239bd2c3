import numpy as np
import pytest

from mmrec import gradcheck
from mmrec import objectives as obj
from mmrec.gradcheck import CHECK_LOSSES, random_batch, small_config
from mmrec.model import RecModel
from mmrec.objectives import ObjectiveConfig


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
    want = obj.objective_terms(model, batch, full)[name].item()
    assert gradcheck._loss_fn(model, batch, name)().item() == want


def test_total_loss_fn_encodes_the_batch_once(monkeypatch):
    model, batch = model_and_batch(seed=2)
    built = []

    class Counted(obj.BatchContext):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(obj, "BatchContext", Counted)
    loss = gradcheck._loss_fn(model, batch, "total")()
    assert len(built) == 1
    assert loss.item() == obj.total_loss(model, batch, ObjectiveConfig())[0].item()


def test_unknown_loss_rejected():
    model, batch = model_and_batch()
    with pytest.raises(ValueError, match="unknown loss"):
        gradcheck._loss_fn(model, batch, "bogus")


def test_total_check_corrupts_each_sequence_once(monkeypatch):
    model, batch = model_and_batch(d=2, p=2, q=2)
    model.set_trainable_top_blocks(1)
    n = sum(p.data.size for _, p in model.trainable_parameters())
    corrupt_sequence, corrupted = obj.corrupt_sequence, []
    monkeypatch.setattr(obj, "corrupt_sequence",
                        lambda *args: corrupted.append(1) or corrupt_sequence(*args))
    loss_fn, calls = gradcheck._loss_fn(model, batch, "total"), []
    gradcheck.check_parameters(model, lambda: calls.append(1) or loss_fn())
    assert n > 0 and len(calls) == 1 + 2 * n
    # once per sequence of the batch, not once per sequence and evaluation
    assert len(corrupted) == batch.size
    fresh = obj.total_loss(model, batch, ObjectiveConfig())[0].item()
    assert loss_fn().item() == fresh and len(corrupted) == 2 * batch.size
