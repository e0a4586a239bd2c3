import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmrec import autodiff as ad
from mmrec.autodiff import Tensor
from mmrec.encoders import BLOCK_PARAMS, attention_bias, transformer_block

from . import composites as C


def rand(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# the transformer block's forward/backward pairs, each wrapped as one node so
# that they are checked like the primitives

def gelu(x):
    x = ad.as_tensor(x)
    out, t = ad.gelu_forward(x.data)
    return ad._make(out, (x,), lambda g: (ad.gelu_backward(g, x.data, t),))


def layer_norm(x, residual, gain, bias):
    """The layer norm of x + residual."""
    inputs = tuple(ad.as_tensor(t) for t in (x, residual, gain, bias))
    out, saved = ad.layer_norm_forward(*(t.data for t in inputs))

    def vjp(g):
        ds, dgain, dbias = ad.layer_norm_backward(g, inputs[2].data, *saved)
        return ds, ds, dgain, dbias

    return ad._make(out, inputs, vjp)


def attention(q, k, v, bias, n_heads):
    q, k, v = (ad.as_tensor(t) for t in (q, k, v))
    out, p = ad.attention_forward(q.data, k.data, v.data, bias, n_heads)
    return ad._make(out, (q, k, v), lambda g: ad.attention_backward(
        g, q.data, k.data, v.data, p, n_heads))


def forward_backward(program, inputs):
    """Evaluate the scalar `program(*inputs)` and backpropagate; returns the
    value and the gradient of every input (zeros where none reached it)."""
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()
    out = program(*inputs)
    out.backward()
    return out, [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]


def gradient_check(program, point, step=1e-5, tol=1e-4):
    """Analytic gradients of the scalar `program(*point)` against central
    differences, with each input perturbed in place: the largest relative
    error (`ad.relative_error`) per input and overall, and whether all are
    within `tol`."""
    tensors = [ad.as_tensor(p) for p in point]
    _, grads = forward_backward(program, tensors)
    errors = []
    for t, analytic in zip(tensors, grads):
        flat = t.data.reshape(-1)
        assert np.shares_memory(flat, t.data)
        numeric = ad.central_difference(lambda: program(*tensors), flat, step)
        errors.append(ad.relative_error(analytic.reshape(-1), numeric))
    return {"errors": errors, "max_rel_error": max(errors),
            "passed": all(e <= tol for e in errors)}


def test_square_value_and_gradient():
    x = Tensor(3.0, requires_grad=True)
    y = ad.mul(x, x)
    y.backward()
    assert y.item() == 9.0
    assert x.grad == pytest.approx(6.0)


def test_uniform_softmax_cross_entropy():
    logits = Tensor(np.zeros((1, 3)), requires_grad=True)
    loss = ad.softmax_xent(logits, np.ones((1, 3)), [0])
    loss.backward()
    assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)
    np.testing.assert_allclose(logits.grad, [[1 / 3 - 1.0, 1 / 3, 1 / 3]], atol=1e-12)


def test_softmax_rows_normalized():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)) * 10)
    y = C.softmax(x, axis=-1)
    assert np.all(y.data >= 0)
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((3, 8), 4.2))
    y = layer_norm(x, np.zeros((3, 8)), Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_allclose(y.data, 0.0, atol=1e-12)


def test_l2_normalize_345():
    v = ad.l2_normalize(Tensor(np.array([3.0, 4.0])))
    np.testing.assert_allclose(v.data, [0.6, 0.8], atol=1e-12)


def test_l2_normalize_unit_vector_fixed_point():
    u = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(ad.l2_normalize(Tensor(u)).data, u, atol=1e-12)


def test_l2_normalize_zero_vector():
    z = ad.l2_normalize(Tensor(np.zeros(4)))
    np.testing.assert_allclose(z.data, 0.0)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=8))
def test_l2_normalize_output_norm(vals):
    v = np.array(vals)
    out = ad.l2_normalize(Tensor(v)).data
    n = np.linalg.norm(v)
    if n >= 1e-12:
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_masked_positions_contribute_nothing():
    rng = np.random.default_rng(1)
    x = rand(rng, 4, 6)
    mask = np.zeros((4, 6))
    mask[:, :3] = 1.0
    out = ad.tsum(ad.mul(x, mask))
    out.backward()
    x2 = Tensor(x.data.copy())
    x2.data[:, 3:] = 99.0
    out2 = ad.tsum(ad.mul(x2, mask))
    assert out.item() == out2.item()
    np.testing.assert_array_equal(x.grad[:, 3:], 0.0)


def test_masked_logsumexp_ignores_huge_excluded_entries():
    # softmax_xent masks excluded entries before exp, so a huge excluded
    # score neither overflows nor receives gradient
    x = Tensor(np.array([[0.0, 1.0, 1e4]]), requires_grad=True)
    out = ad.softmax_xent(x, np.array([[1.0, 1.0, 0.0]]), [0])
    assert out.item() == pytest.approx(np.log(np.exp(0.0) + np.exp(1.0)), abs=1e-12)
    out.backward()
    assert x.grad[0, 2] == 0.0
    assert np.all(np.isfinite(x.grad))


def test_forward_backward_random_graph_matches_finite_differences():
    rng = np.random.default_rng(7)

    def program(a, w1, w2, w3):
        h = gelu(C.matmul(a, w1))
        h = ad.relu(C.matmul(h, w2))
        h = C.softmax(C.matmul(h, w3), axis=-1)
        return ad.tsum(ad.mul(h, C.log(ad.add(ad.mul(h, h), 0.1))))

    point = [rand(rng, 3, 8), rand(rng, 8, 8), rand(rng, 8, 8), rand(rng, 8, 8)]
    report = gradient_check(program, point, step=1e-5, tol=1e-4)
    assert report["passed"], report


def test_forward_backward_rejects_non_scalar():
    with pytest.raises(ValueError, match="scalar"):
        forward_backward(lambda x: ad.mul(x, 2.0),
                         [Tensor(np.ones(3), requires_grad=True)])


def test_gradient_check_linear_map_exact():
    w = np.arange(6.0).reshape(2, 3)
    report = gradient_check(
        lambda x: ad.tsum(C.matmul(x, w)),
        [Tensor(np.ones(2), requires_grad=True)])
    assert report["max_rel_error"] < 1e-10


def test_gradient_check_flags_corrupted_rule():
    def bad_square(x):
        out = ad.mul(x, x)
        orig = out._backward

        def corrupted(g):
            return orig(g * 2.0)  # deliberately wrong scale

        out._backward = corrupted
        return out

    report = gradient_check(bad_square, [Tensor(3.0, requires_grad=True)])
    assert not report["passed"]


def test_forward_backward_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))

    def program(x):
        return ad.tsum(C.softmax(C.matmul(x, x), axis=-1))

    v1, g1 = forward_backward(program, [Tensor(a.copy(), requires_grad=True)])
    v2, g2 = forward_backward(program, [Tensor(a.copy(), requires_grad=True)])
    assert v1.item() == v2.item()
    np.testing.assert_array_equal(g1[0], g2[0])


def test_primitive_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    cases = [
        lambda x: ad.tsum(ad.relu(x)),
        lambda x: ad.tsum(gelu(x)),
        lambda x: ad.tsum(C.exp(x)),
        lambda x: ad.tsum(C.log(ad.add(ad.mul(x, x), 1.0))),
        lambda x: ad.tsum(C.softmax(x, axis=-1)),
        lambda x: ad.tsum(layer_norm(x, np.zeros((4, 5)), np.ones(5), np.zeros(5))),
        lambda x: ad.tsum(ad.l2_normalize(x)),
        lambda x: C.tmean(ad.mul(x, x), axis=0),
        lambda x: ad.softmax_xent(x, np.ones((4, 5)), [0, 1, 4, 4]),
        lambda x: ad.tsum(ad.concat([x, ad.mul(x, 2.0)], axis=1)),
        lambda x: ad.tsum(ad.getitem(x, np.array([0, 1, 1, 2]))),
        lambda x: ad.tsum(ad.transpose(C.reshape(x, (5, 4)), (1, 0))),
    ]
    for fn in cases:
        x = rand(rng, 4, 5)
        report = gradient_check(lambda t, f=fn: ad.tsum(f(t)), [x])
        assert report["passed"], report


def _reference_finite_difference(program, inputs, index, step=1e-5):
    """Central differences with copies of every input, as a loop written
    independently of `ad.central_difference`."""
    base = [t.data.copy() for t in inputs]
    g = np.zeros_like(base[index])
    flat, gflat = base[index].reshape(-1), g.reshape(-1)
    with ad.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = program(*[Tensor(b) for b in base]).item()
            flat[i] = orig - step
            lo = program(*[Tensor(b) for b in base]).item()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
    return g


@pytest.mark.parametrize("shape", [(), (3,), (2, 4)])
def test_finite_difference_matches_reference_loop_bitwise(shape):
    rng = np.random.default_rng(5)

    def program(x, w):
        return ad.tsum(ad.mul(gelu(ad.mul(x, w)), C.softmax(ad.mul(x, x), axis=-1)))

    inputs = [Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape))]
    before = [t.data.copy() for t in inputs]
    for index in range(2):
        flat = inputs[index].data.reshape(-1)
        assert np.shares_memory(flat, inputs[index].data)
        got = ad.central_difference(lambda: program(*inputs), flat)
        want = _reference_finite_difference(program, inputs, index)
        assert got.shape == flat.shape
        assert got.tobytes() == want.reshape(-1).tobytes()
    for t, b in zip(inputs, before):
        assert t.data.tobytes() == b.tobytes()


def test_central_difference_restores_and_counts_calls():
    x = np.array([1.0, -2.0, 0.5])
    calls = []

    def fn():
        calls.append(1)
        return Tensor((x ** 3).sum())

    g = ad.central_difference(fn, x, step=1e-4)
    assert len(calls) == 2 * x.size
    np.testing.assert_array_equal(x, [1.0, -2.0, 0.5])
    np.testing.assert_allclose(g, 3 * x ** 2, rtol=1e-7)


def test_relative_error_floors_denominator():
    assert ad.relative_error(np.zeros(0), np.zeros(0)) == 0.0
    # near zero the floor makes the comparison absolute: 1e-6 / 1e-3
    assert ad.relative_error(np.array([1e-6]), np.array([0.0])) == pytest.approx(1e-3)
    assert ad.relative_error(np.array([2.0, 1.0]), np.array([1.0, 1.0])) == 0.5


# ---------------------------------------------------------------------------
# fused primitives
# ---------------------------------------------------------------------------

def _readout(fn, shape, seed=0):
    """Scalar program sum(fn(*inputs) * R) with a fixed random R, so every
    output element carries a distinct weight into the gradient."""
    weights = np.random.default_rng(seed).normal(size=shape)
    return lambda *ts: ad.tsum(ad.mul(fn(*ts), weights))


def _assert_parity(fused, composite, arrays, out_shape):
    """Fused and composite forwards are bitwise equal; their gradients agree
    to 1e-12 of each gradient's largest entry."""
    got_v, got_g = forward_backward(_readout(fused, out_shape),
                                    [Tensor(a.copy()) for a in arrays])
    want_v, want_g = forward_backward(_readout(composite, out_shape),
                                      [Tensor(a.copy()) for a in arrays])
    assert fused(*[Tensor(a) for a in arrays]).data.tobytes() == \
        composite(*[Tensor(a) for a in arrays]).data.tobytes()
    assert got_v.item() == want_v.item()
    for g, w in zip(got_g, want_g):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
def test_gradient_check_linear(x_shape):
    rng = np.random.default_rng(13)
    point = [rand(rng, *x_shape), rand(rng, 4, 3), rand(rng, 3)]
    report = gradient_check(_readout(ad.linear, x_shape[:-1] + (3,)), point)
    assert report["passed"], report


def test_linear_matches_matmul_plus_bias():
    rng = np.random.default_rng(14)
    arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)]
    _assert_parity(ad.linear, lambda x, w, b: ad.add(C.matmul(x, w), b),
                   arrays, (2, 3, 3))
    # the losses' score products: 2-D, no bias, a transposed view as weight,
    # bitwise equal in the forward and in both gradients
    x, y = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    results = []
    for product in (ad.linear, C.matmul):
        program = _readout(lambda a, b: product(a, ad.transpose(b, (1, 0))), (5, 6))
        out, grads = forward_backward(program, [Tensor(x.copy()), Tensor(y.copy())])
        scores = product(Tensor(x), ad.transpose(Tensor(y), (1, 0))).data
        results.append([a.tobytes() for a in (scores, out.data, *grads)])
    assert results[0] == results[1]


def test_gradient_check_layer_norm():
    rng = np.random.default_rng(15)
    point = [rand(rng, 2, 3, 6), rand(rng, 2, 3, 6), rand(rng, 6), rand(rng, 6)]
    report = gradient_check(_readout(layer_norm, (2, 3, 6)), point)
    assert report["passed"], report


def test_layer_norm_matches_composite():
    # the residual add folded into the pair is the composite's add node
    rng = np.random.default_rng(16)
    arrays = [rng.normal(size=(3, 5, 8)) * 3 + 1, rng.normal(size=(3, 5, 8)),
              rng.normal(size=8), rng.normal(size=8)]
    _assert_parity(layer_norm, lambda x, r, g, b: C.layer_norm(ad.add(x, r), g, b),
                   arrays, (3, 5, 8))


def _key_mask():
    return np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])


@pytest.mark.parametrize("causal", [False, True])
def test_gradient_check_attention(causal):
    rng = np.random.default_rng(17)
    bias = attention_bias(_key_mask(), causal=causal)
    point = [rand(rng, 2, 4, 6) for _ in range(3)]
    program = _readout(lambda q, k, v: attention(q, k, v, bias, 2), (2, 4, 6))
    report = gradient_check(program, point)
    assert report["passed"], report


def test_gradient_check_attention_one_query_row():
    rng = np.random.default_rng(21)
    key_mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0]])
    last = np.array([3, 1])  # query positions; the causal row hides later keys
    bias = attention_bias(key_mask, causal=True)[np.arange(2), :, last][:, :, None]
    point = [rand(rng, 2, 1, 6), rand(rng, 2, 5, 6), rand(rng, 2, 5, 6)]
    program = _readout(lambda q, k, v: attention(q, k, v, bias, 2), (2, 1, 6))
    report = gradient_check(program, point)
    assert report["passed"], report


def test_attention_query_rows_match_full_attention_rows():
    rng = np.random.default_rng(22)
    q, k, v = (rng.normal(size=(2, 5, 6)) for _ in range(3))
    key_mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0]])
    bias = attention_bias(key_mask, causal=True)
    rows, pos = np.arange(2), np.array([3, 2])
    full = attention(q, k, v, bias, 2).data[rows, pos]
    one = attention(q[rows, pos][:, None], k, v, bias[rows, :, pos][:, :, None], 2)
    assert one.shape == (2, 1, 6)
    np.testing.assert_allclose(one.data[:, 0], full, rtol=0, atol=1e-14)


def test_attention_ignores_masked_keys():
    rng = np.random.default_rng(18)
    q, k, v = (rand(rng, 2, 4, 6) for _ in range(3))
    out = attention(q, k, v, attention_bias(_key_mask()), 3)
    ad.tsum(ad.mul(out, rng.normal(size=(2, 4, 6)))).backward()
    # padded keys (user 0 slot 3, user 1 slots 2-3) get no gradient
    for grad in (k.grad, v.grad):
        assert not grad[0, 3].any() and not grad[1, 2:].any()


def test_attention_probabilities_do_not_depend_on_where_masked_keys_sit():
    # the softmax sums the keys in key order, so a masked key's exact 0 keeps
    # the real keys' probabilities bitwise, whether masked keys follow the
    # real ones or sit between them, as padded text does in fusion's
    # [mm_cls; text; patches] layout; 8 to 13 real keys, where a pairwise
    # sum over the last axis would group its terms by width
    rng = np.random.default_rng(23)
    text, patches, d, n_heads = 8, 4, 8, 2
    for n_text in (8, 5, 3):
        n_real = 1 + n_text + patches
        q = rng.normal(size=(1, 6, d))
        k, v = rng.normal(size=(2, 1, n_real, d))
        _, want = ad.attention_forward(q, k, v, attention_bias(np.ones((1, n_real))),
                                       n_heads)
        # real keys then 5 masked ones
        k_tail, v_tail = (np.concatenate([t, rng.normal(size=(1, 5, d))], axis=1)
                          for t in (k, v))
        tail_mask = np.concatenate([np.ones((1, n_real)), np.zeros((1, 5))], axis=1)
        _, tail = ad.attention_forward(q, k_tail, v_tail, attention_bias(tail_mask),
                                       n_heads)
        # mm_cls, the real text, its padding, then the patches
        pad = text - n_text
        k_fused, v_fused = (np.concatenate([t[:, :1 + n_text], rng.normal(size=(1, pad, d)),
                                            t[:, 1 + n_text:]], axis=1) for t in (k, v))
        fused_mask = np.concatenate([np.ones((1, 1 + n_text)), np.zeros((1, pad)),
                                     np.ones((1, patches))], axis=1)
        _, fused = ad.attention_forward(q, k_fused, v_fused, attention_bias(fused_mask),
                                        n_heads)
        real = fused_mask[0] > 0
        assert tail[..., :n_real].tobytes() == want.tobytes()
        assert fused[..., real].tobytes() == want.tobytes()
        assert not tail[..., n_real:].any() and not fused[..., ~real].any()


# softmax_xent: one positive per row, of weight 0 in rows 0 and 3 of the
# masks below (the contrastive node's positives with several columns per
# row are tested in test_objectives)
XENT_POSITIVES = np.array([1, 2, 4, 0])


def _scaled(fn):
    """fn's scalar times a constant, so the backward sees g != 1."""
    return lambda *ts: ad.mul(fn(*ts), 1.7)


def test_gradient_check_masked_logsumexp():
    rng = np.random.default_rng(19)
    mask = np.array([[1.0, 0.0, 1.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0, 0.0],
                     [1.0, 1.0, 1.0, 1.0, 1.0],
                     [0.0, 1.0, 0.0, 1.0, 1.0]])
    report = gradient_check(
        _scaled(lambda x: ad.softmax_xent(x, mask, XENT_POSITIVES)), [rand(rng, 4, 5)])
    assert report["passed"], report


@pytest.mark.parametrize("scale_exp", [-1, 0, 1])
def test_masked_logsumexp_matches_composite(scale_exp):
    # softmax_xent against its two-log-sum-exp composite, for scores of
    # scale 0.1, 1 and 10: values and gradients agree to 1e-12
    rng = np.random.default_rng(20)
    x = rng.normal(size=(5, 6)) * 4 * 10.0**scale_exp
    weights = (rng.random(size=(5, 6)) < 0.6) * rng.integers(1, 4, size=(5, 6))
    weights[:, 0] = 1  # every row keeps an entry
    positives = rng.integers(0, 6, size=5)
    (got_v, (got_g,)), (want_v, (want_g,)) = [
        forward_backward(_scaled(lambda t, f=f, p=p: f(t, weights, p)), [Tensor(x.copy())])
        for f, p in ((ad.softmax_xent, positives), (C.softmax_xent, positives[:, None]))]
    assert got_v.item() == pytest.approx(want_v.item(), rel=1e-12, abs=0)
    np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-12 * np.abs(want_g).max())


def test_gradient_check_masked_logsumexp_weights():
    rng = np.random.default_rng(24)
    weights = np.array([[1.0, 0.0, 2.0, 3.5, 0.0],
                        [0.0, 0.0, 3.5, 0.0, 0.0],
                        [2.0, 1.0, 3.5, 2.0, 1.0],
                        [0.0, 3.5, 0.0, 1.0, 2.0]])
    report = gradient_check(
        _scaled(lambda x: ad.softmax_xent(x, weights, XENT_POSITIVES)), [rand(rng, 4, 5)])
    assert report["passed"], report


def _old_masked_logsumexp_forward(x, mask, axis=-1):
    """The 0/1-mask forward before weights were admitted: exp of the
    shifted scores times the mask, times the mask again."""
    mask = np.asarray(mask, dtype=np.float64)
    shift = np.where(mask > 0, x, -np.inf).max(axis=axis, keepdims=True)
    e = np.exp((x - shift) * mask) * mask
    return np.log(e.sum(axis=axis)) + np.squeeze(shift, axis=axis)


@pytest.mark.parametrize("pos_weight", [0, 1])
def test_masked_logsumexp_01_forward_matches_old_bitwise(pos_weight):
    # with 0/1 weights, softmax_xent is the old masked log-sum-exp of the
    # scores minus the one of the positive, averaged over rows; each row's
    # positive column has mask entry `pos_weight`
    rng = np.random.default_rng(22)
    rows = np.arange(7)
    for _ in range(20):
        x = rng.normal(size=(7, 9)) * 5
        mask = (rng.random(size=(7, 9)) < 0.5).astype(np.float64)
        pos = rng.integers(1, 9, size=7)
        mask[:, 0] = 1.0
        mask[rows, pos] = pos_weight
        lse_pos = _old_masked_logsumexp_forward(x[rows, pos][:, None], np.ones((7, 1)), axis=1)
        want = (_old_masked_logsumexp_forward(x, mask, axis=1) - lse_pos).mean()
        got = ad.softmax_xent(Tensor(x), mask, pos).data
        assert got.tobytes() == np.float64(want).tobytes()


def test_masked_logsumexp_weight_counts_repeated_entries():
    # weight c on a column gives the same loss, and the same gradient, as
    # c copies of the column with weight 1
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4, 3)) * 3
    w = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 1.0], [0.0, 0.0, 2.0], [1.0, 1.0, 1.0]])
    pos = np.array([0, 2, 1, 1])
    repeated = np.repeat(x, 3, axis=1)  # column c at 3c, 3c + 1 and 3c + 2
    ones = np.concatenate([np.arange(3) < w[:, [c]] for c in range(3)], axis=1)
    got_v, (got_g,) = forward_backward(
        lambda t: ad.softmax_xent(t, w, pos), [Tensor(x)])
    want_v, (want_g,) = forward_backward(
        lambda t: ad.softmax_xent(t, ones, 3 * pos), [Tensor(repeated)])
    assert got_v.item() == pytest.approx(want_v.item(), rel=1e-15, abs=0)
    np.testing.assert_allclose(got_g, want_g.reshape(4, 3, 3).sum(axis=2),
                               rtol=1e-15, atol=1e-16)


def test_softmax_xent_is_one_node():
    x = Tensor(np.zeros((4, 5)), requires_grad=True)
    out = ad.softmax_xent(x, np.ones((4, 5)), XENT_POSITIVES)
    assert out.shape == () and out._parents == (x,)


def test_softmax_xent_rejects_a_column_of_positives():
    # an (R, 1) index would broadcast against the rows to (R, R)
    with pytest.raises(ValueError, match="one positive per row"):
        ad.softmax_xent(Tensor(np.zeros((4, 5))), np.ones((4, 5)), XENT_POSITIVES[:, None])


def _with_small_row(seed):
    x = np.random.default_rng(seed).normal(size=(4, 5))
    x[1] *= 1e-2  # a row of norm about 0.02
    return x


def test_gradient_check_l2_normalize():
    report = gradient_check(_readout(ad.l2_normalize, (4, 5)),
                            [Tensor(_with_small_row(25))])
    assert report["passed"], report


def test_gradient_check_l2_normalize_guarded_rows():
    # rows of norm below eps are x / eps; a step of 1e-15 keeps them there
    x = np.random.default_rng(27).normal(size=(2, 3)) * 1e-13
    x[1] = 0.0
    report = gradient_check(_readout(ad.l2_normalize, (2, 3)), [Tensor(x)], step=1e-15)
    assert report["passed"], report


def test_l2_normalize_matches_composite():
    x = _with_small_row(26)
    x[3] = 0.0  # a guarded row
    assert ad.l2_normalize(Tensor(x)).data.tobytes() == \
        C.l2_normalize(Tensor(x)).data.tobytes()
    got_v, (got_g,) = forward_backward(_readout(ad.l2_normalize, (4, 5)),
                                       [Tensor(x.copy())])
    with np.errstate(divide="ignore", invalid="ignore"):
        want_v, (want_g,) = forward_backward(_readout(C.l2_normalize, (4, 5)),
                                             [Tensor(x.copy())])
    assert got_v.item() == want_v.item()
    np.testing.assert_allclose(got_g[:3], want_g[:3], rtol=0,
                               atol=1e-12 * np.abs(want_g[:3]).max())
    # on the zero row the composite's norm gradient is 0 * inf; the node's
    # is the readout weight over eps
    assert np.isnan(want_g[3]).all()
    readout = np.random.default_rng(0).normal(size=(4, 5))
    np.testing.assert_array_equal(got_g[3], readout[3] * (1.0 / 1e-12))


@pytest.mark.parametrize("sum_z_first", [True, False])
def test_shared_gradient_array_is_not_aliased(sum_z_first):
    # add hands the same incoming gradient to both parents; a first write
    # that kept that array would let a's later accumulation leak into b
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    terms = [ad.tsum(ad.add(a, b)), ad.tsum(ad.mul(a, 3.0))]
    if not sum_z_first:
        terms.reverse()
    ad.add(*terms).backward()
    np.testing.assert_array_equal(a.grad, 4.0)
    np.testing.assert_array_equal(b.grad, 1.0)


def test_gelu_matches_cube_closed_form():
    c = np.sqrt(2.0 / np.pi)
    v = np.random.default_rng(21).normal(size=2000) * 3
    x = Tensor(v.copy(), requires_grad=True)
    y = gelu(x)
    ad.tsum(y).backward()
    t = np.tanh(c * (v + 0.044715 * v**3))
    value = 0.5 * v * (1.0 + t)
    slope = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * v**2)
    # relative to max(|f|, |v|): for negative v, 1 + t cancels, and an ulp
    # of the argument is a large share of the tiny result
    np.testing.assert_array_less(np.abs(y.data - value),
                                 1e-15 * np.maximum(np.abs(value), np.abs(v)) + 1e-300)
    np.testing.assert_array_less(np.abs(x.grad - slope),
                                 1e-15 * np.maximum(np.abs(slope), 1.0))


# ---------------------------------------------------------------------------
# the node constructor: every primitive is a forward plus a vjp
# ---------------------------------------------------------------------------

# name -> (primitive over Tensors, shapes of its Tensor inputs)
PRIMITIVES = {
    "add": (ad.add, [(3, 4), (4,)]),
    "mul": (ad.mul, [(3, 4), (3, 1)]),
    "matmul": (C.matmul, [(3, 4), (4, 2)]),
    "relu": (ad.relu, [(3, 4)]),
    "gelu": (gelu, [(3, 4)]),
    "tsum": (lambda x: ad.tsum(x, axis=1), [(3, 4)]),
    "layer_norm": (layer_norm, [(3, 4), (3, 4), (4,), (4,)]),
    "linear": (ad.linear, [(2, 3, 4), (4, 2), (2,)]),
    "attention": (lambda q, k, v: attention(q, k, v, attention_bias(_key_mask()), 2),
                  [(2, 4, 6)] * 3),
    "transformer_block": (lambda x, *ws: transformer_block(
        dict(zip(BLOCK_PARAMS, ws)), "", x, attention_bias(_key_mask(), causal=True), 2),
        [(2, 4, 6), (6, 6), (6,), (6, 6), (6, 6), (6,), (6, 6), (6,), (6,), (6,),
         (6, 12), (12,), (12, 6), (6,), (6,), (6,)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), [(3, 4), (3, 2)]),
    "reshape": (lambda x: C.reshape(x, (4, 3)), [(3, 4)]),
    "transpose": (lambda x: ad.transpose(x, (1, 0)), [(3, 4)]),
    "getitem": (lambda x: ad.getitem(x, np.array([2, 0, 2])), [(3, 4)]),
    "l2_normalize": (ad.l2_normalize, [(3, 4)]),
    "softmax_xent": (lambda z: ad.softmax_xent(z, np.ones((3, 4)), [0, 3, 3]),
                     [(3, 4)]),
}


def _primitive_inputs(name):
    rng = np.random.default_rng(len(name))
    return [rng.normal(size=s) for s in PRIMITIVES[name][1]]


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_untracked_primitive_output_is_a_constant_leaf(name):
    fn = PRIMITIVES[name][0]
    arrays = _primitive_inputs(name)
    tracked = fn(*[Tensor(a, requires_grad=True) for a in arrays])
    assert len(tracked._parents) == len(arrays) and tracked._backward is not None
    with ad.no_grad():
        off = fn(*[Tensor(a, requires_grad=True) for a in arrays])
    constant = fn(*[Tensor(a) for a in arrays])
    for out in (off, constant):
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert out.data.tobytes() == tracked.data.tobytes()


def test_no_grad_holds_only_in_the_thread_that_entered_it():
    entered, release, seen = threading.Event(), threading.Event(), []

    def hold():
        with ad.no_grad():
            seen.append(ad.grad_enabled())
            entered.set()
            release.wait(timeout=30)

    other = threading.Thread(target=hold)
    other.start()
    try:
        assert entered.wait(timeout=30)
        assert seen == [False]
        assert ad.grad_enabled()
        x = Tensor(np.ones(3), requires_grad=True)
        y = ad.add(x, x)
        assert y.requires_grad and y._parents == (x, x)
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_vjp_returns_one_gradient_per_parent(name):
    # a vjp returns its gradients and writes none: the sweep's `_accum` is
    # the only writer of a tracked tensor's gradient
    fn = PRIMITIVES[name][0]
    out = fn(*[Tensor(a, requires_grad=True) for a in _primitive_inputs(name)])
    grads = out._backward(np.ones_like(out.data))
    assert len(grads) == len(out._parents)
    for p, g in zip(out._parents, grads):
        assert p.grad is None
        assert g is None or np.shape(g) == p.shape
        assert g is not None or not p.requires_grad


@pytest.mark.parametrize("build", [
    lambda x, c: ad.mul(x, c),
    lambda x, c: ad.linear(c, x, np.ones(3)),
    lambda x, c: ad.add(x, np.zeros((3, 3))),
], ids=["mul", "linear", "add"])
def test_constant_parent_of_tracked_node_gets_no_gradient(build):
    # the vjp computes a gradient for every parent; the sweep drops those of
    # constants
    rng = np.random.default_rng(28)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    out = build(x, rng.normal(size=(3, 3)))
    ad.tsum(out).backward()
    constants = [p for p in out._parents if p is not x]
    assert x.grad is not None and constants
    assert all(p.grad is None for p in constants)


# index into a (6, 4, 3) array -> how getitem's vjp scatters it
SCATTER_INDICES = {
    # integer arrays alone: one np.bincount over the flat positions
    "repeated_rows": (np.array([2, 0, 2, 2, 5, 2, 0, 2, 2, 2, 1, 2]), "bincount"),
    "rows_2d": (np.array([[1, 1, 3], [1, 4, 1]]), "bincount"),
    "pairs": ((np.array([0, 5, 0, 0, 2, 0]), np.array([3, 1, 3, 3, 0, 3])), "bincount"),
    "broadcast": ((np.arange(6)[:, None], np.array([3, 0, 3, 1, 2, 3])[:, None]),
                  "bincount"),
    "negative": (np.array([-1, 5, -6, 0, -1, 3]), "bincount"),
    "negative_pairs": ((np.array([-1, 5, -6, 0]), np.array([-4, 0, 3, -1])), "bincount"),
    "unsigned": (np.array([4, 4, 1, 4], dtype=np.uint32), "bincount"),
    # ints and slices: one view of a zeros array
    "slice": (slice(1, 5), "basic"),
    "int_and_slice": ((slice(None), 2), "basic"),
    "int": (3, "basic"),
    "slices": ((slice(None), slice(1, None)), "basic"),
    # an array mixed with a slice: rejected at the forward
    "mixed": ((slice(None), np.array([0, 2, 2])), "rejected"),
}


@pytest.mark.parametrize("held", [False, True], ids=["new", "held"])
@pytest.mark.parametrize("name", sorted(SCATTER_INDICES))
def test_getitem_scatter_matches_add_at_bitwise(name, held):
    # the vjp returns np.add.at's scatter into zeros, bitwise, and leaves the
    # parent's gradient alone; the sweep adds the scatter to a gradient the
    # parent already holds; a mixed index has no scatter and raises
    index, form = SCATTER_INDICES[name]
    rng = np.random.default_rng(32)
    x = Tensor(rng.normal(size=(6, 4, 3)), requires_grad=True)
    if form == "rejected":
        x.grad = np.ones(x.shape) if held else None
        with pytest.raises(ValueError, match="integer arrays alone"):
            ad.getitem(x, index)
        assert (x.grad is None) == (not held)
        assert not held or (x.grad == 1.0).all()
        return
    out = ad.getitem(x, index)
    assert out.data.tobytes() == x.data[index].tobytes()
    readout = rng.normal(size=out.shape) * 10.0 ** rng.integers(-8, 8, size=out.shape)
    readout.reshape(-1)[0] = -0.0
    scatter = np.zeros(x.shape)
    np.add.at(scatter, index, readout)
    prior = rng.normal(size=x.shape)
    x.grad = prior.copy() if held else None
    (dx,) = out._backward(readout)  # the vjp alone
    assert dx.tobytes() == scatter.tobytes()
    assert (x.grad is None) == (not held)
    assert not held or x.grad.tobytes() == prior.tobytes()
    ad.tsum(ad.mul(ad.getitem(x, index), readout)).backward()
    want = prior + scatter if held else scatter
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("index", [
    (slice(None), np.array([0, 2, 2])),
    (np.array([0, 2, 2]), 1),
    (np.array([0, 2]), [1, 1]),
    np.array([True, False, True, False, False, True]),
], ids=["array_slice", "array_int", "array_list", "bool"])
def test_getitem_rejects_a_mixed_index(index):
    x = Tensor(np.ones((6, 4, 3)), requires_grad=True)
    with pytest.raises(ValueError, match="integer arrays alone"):
        ad.getitem(x, index)


@pytest.mark.parametrize("index", [
    (slice(None), np.array([0, 2, 2])),
    np.array([True, False, True, False, False, True]),
    np.array([0.0, 2.0]),
    [0, 2],
    2.0,
], ids=["array_slice", "bool_array", "float_array", "list", "float"])
def test_getitem_rejects_the_same_indices_under_no_grad(index):
    # the index is checked whether or not the call records a node
    x = Tensor(np.ones((6, 4, 3)), requires_grad=True)
    with pytest.raises(ValueError, match="integer arrays alone"):
        ad.getitem(x, index)
    with ad.no_grad(), pytest.raises(ValueError, match="integer arrays alone"):
        ad.getitem(x, index)


def test_getitem_scatter_form_follows_the_index(monkeypatch):
    # integer arrays scatter with one np.bincount and basic indices with
    # none; no index reaches np.add.at
    calls = []

    class RecordingAdd:
        @staticmethod
        def at(*args):
            calls.append("add.at")
            np.add.at(*args)

    class Numpy:  # numpy as autodiff sees it, with np.add.at and np.bincount recorded
        add = RecordingAdd

        @staticmethod
        def bincount(*args, **kwargs):
            calls.append("bincount")
            return np.bincount(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(ad, "np", Numpy())
    for name, (index, form) in SCATTER_INDICES.items():
        if form == "rejected":
            continue
        calls.clear()
        x = Tensor(np.ones((6, 4, 3)), requires_grad=True)
        ad.tsum(ad.getitem(x, index)).backward()
        assert calls == (["bincount"] if form == "bincount" else []), name


@pytest.mark.parametrize("d_in, d_out", [(32, 32), (32, 64), (64, 32)])
def test_linear_row_bits_do_not_depend_on_the_row_count(d_in, d_out):
    # the transfer config's widths (d = 32, ffn_mult = 2): the first m rows
    # of a 1536-row product have the bits of an m-row product
    rng = np.random.default_rng(d_in + d_out)
    x, w, b = (rng.normal(size=s) for s in ((1536, d_in), (d_in, d_out), (d_out,)))
    full = ad.linear_forward(x, w, b)
    differ = [m for m in range(2, 1537)
              if ad.linear_forward(x[:m], w, b).tobytes() != full[:m].tobytes()]
    assert differ == []


# ---------------------------------------------------------------------------
# a graph is backpropagated once
# ---------------------------------------------------------------------------

def _gelu_layer(rng):
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    return w, b, gelu(ad.linear(rng.normal(size=(5, 3)), w, b))


def _assert_raises_and_keeps(loss, params):
    held = [p.grad for p in params]
    want = [g.tobytes() for g in held]
    with pytest.raises(RuntimeError, match="already been backpropagated"):
        loss.backward()
    assert all(p.grad is g for p, g in zip(params, held))
    assert [g.tobytes() for g in held] == want


def test_second_backward_raises_and_leaves_gradients_unchanged():
    w, b, h = _gelu_layer(np.random.default_rng(30))
    loss = ad.tsum(h)
    loss.backward()
    _assert_raises_and_keeps(loss, [w, b])


def test_backward_through_a_freed_node_raises():
    # a new loss over a node of a backpropagated graph reaches freed vjps,
    # and would otherwise give gradients from its new nodes alone
    w, b, h = _gelu_layer(np.random.default_rng(31))
    ad.tsum(h).backward()
    _assert_raises_and_keeps(ad.tsum(ad.mul(h, h)), [w, b])
