import numpy as np
import pytest

from mmrec import autodiff as ad
from mmrec.encoders import ModelConfig
from mmrec.model import RecModel


@pytest.fixture
def model():
    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=2, vocab_size=20, p_max=4,
                      q=4, patch_dim=4, text_blocks=1, vision_blocks=1,
                      user_blocks=2, L_max=6)
    return RecModel.init(cfg, seed=1)


def test_output_shape(model):
    reps = ad.Tensor(np.random.default_rng(0).normal(size=(1, 5, 8)))
    h = model.encode_sequence(reps, np.ones((1, 5)))
    assert h.shape == (1, 5, 8)


def test_causality_suffix_perturbation(model):
    rng = np.random.default_rng(1)
    base = rng.normal(size=(1, 5, 8))
    mask = np.ones((1, 5))
    h1 = model.encode_sequence(ad.Tensor(base), mask)
    pert = base.copy()
    pert[0, 3] += rng.normal(size=8)  # perturb item at position 4 (index 3)
    h2 = model.encode_sequence(ad.Tensor(pert), mask)
    np.testing.assert_array_equal(h1.data[0, :3], h2.data[0, :3])
    assert not np.allclose(h1.data[0, 3], h2.data[0, 3])


def test_position_embeddings_break_order_symmetry(model):
    rng = np.random.default_rng(2)
    base = rng.normal(size=(1, 4, 8))
    swapped = base.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    mask = np.ones((1, 4))
    h1 = model.encode_sequence(ad.Tensor(base), mask)
    h2 = model.encode_sequence(ad.Tensor(swapped), mask)
    assert not np.allclose(h1.data[0, 1], h2.data[0, 1])


def test_padded_keys_do_not_influence_real_positions(model):
    rng = np.random.default_rng(3)
    base = rng.normal(size=(1, 5, 8))
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    h1 = model.encode_sequence(ad.Tensor(base), mask)
    pert = base.copy()
    pert[0, 3:] = rng.normal(size=(2, 8))
    h2 = model.encode_sequence(ad.Tensor(pert), mask)
    np.testing.assert_array_equal(h1.data[0, :3], h2.data[0, :3])


def test_rejects_dimension_mismatch(model):
    with pytest.raises(ValueError, match="dimension"):
        model.encode_sequence(ad.Tensor(np.zeros((1, 4, 5))), np.ones((1, 4)))


def test_rejects_overlong_sequence(model):
    with pytest.raises(ValueError, match="L_max"):
        model.encode_sequence(ad.Tensor(np.zeros((1, 7, 8))), np.ones((1, 7)))


def test_deterministic(model):
    reps = np.random.default_rng(4).normal(size=(2, 4, 8))
    mask = np.ones((2, 4))
    h1 = model.encode_sequence(ad.Tensor(reps), mask)
    h2 = model.encode_sequence(ad.Tensor(reps), mask)
    np.testing.assert_array_equal(h1.data, h2.data)


def _model_with_blocks(n):
    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=2, vocab_size=20, p_max=4,
                      q=4, patch_dim=4, text_blocks=1, vision_blocks=1,
                      user_blocks=n, L_max=6)
    return RecModel.init(cfg, seed=n + 5)


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_last_position_matches_full_path(blocks):
    model = _model_with_blocks(blocks)
    rng = np.random.default_rng(blocks)
    lengths = [6, 1, 3, 5, 2]  # one row fills L_max, the others are padded
    reps = rng.normal(size=(len(lengths), 6, 8))
    mask = np.zeros((len(lengths), 6))
    for r, n in enumerate(lengths):
        mask[r, :n] = 1.0
    with ad.no_grad():
        full = model.encode_sequence(ad.Tensor(reps), mask).data
        last = model.encode_sequence(ad.Tensor(reps), mask, last=True).data
    assert last.shape == (len(lengths), 8)
    want = full[np.arange(len(lengths)), np.array(lengths) - 1]
    np.testing.assert_allclose(last, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_encode_prefixes_matches_full_path_with_truncation(blocks):
    from mmrec import transfer
    from mmrec.transfer import ItemIndex

    model = _model_with_blocks(blocks)
    rng = np.random.default_rng(10 + blocks)
    index = ItemIndex(list(range(9)), rng.normal(size=(9, 8)))
    # lengths 1..9 against L_max=6: the longer prefixes are truncated
    prefixes = [rng.integers(0, 9, size=n).tolist() for n in range(1, 10)]
    got = transfer.encode_prefixes(model, prefixes, None, index, 6)
    for prefix, state in zip(prefixes, got):
        kept = prefix[-6:]
        reps = ad.Tensor(index.reps[kept][None])
        with ad.no_grad():
            full = model.encode_sequence(reps, np.ones((1, len(kept)))).data
        np.testing.assert_allclose(state, full[0, -1], rtol=0, atol=1e-12)
