import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmrec import autodiff as ad
from mmrec.autodiff import Tensor


def rand(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def test_square_value_and_gradient():
    x = Tensor(3.0, requires_grad=True)
    y = ad.mul(x, x)
    y.backward()
    assert y.item() == 9.0
    assert x.grad == pytest.approx(6.0)


def test_uniform_softmax_cross_entropy():
    logits = Tensor(np.zeros(3), requires_grad=True)
    p = ad.softmax(logits)
    loss = ad.mul(ad.log(ad.getitem(p, 0)), -1.0)
    loss.backward()
    assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)
    onehot = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(logits.grad, p.data - onehot, atol=1e-12)


def test_softmax_rows_normalized():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)) * 10)
    y = ad.softmax(x, axis=-1)
    assert np.all(y.data >= 0)
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((3, 8), 4.2))
    y = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
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
    x = Tensor(np.array([[0.0, 1.0, 1e8]]), requires_grad=True)
    mask = np.array([[1.0, 1.0, 0.0]])
    out = ad.masked_logsumexp(x, mask, axis=1)
    expected = np.log(np.exp(0.0) + np.exp(1.0))
    assert out.item() == pytest.approx(expected, abs=1e-12)
    ad.tsum(out).backward()
    assert x.grad[0, 2] == 0.0
    assert np.all(np.isfinite(x.grad))


def test_forward_backward_random_graph_matches_finite_differences():
    rng = np.random.default_rng(7)

    def program(a, w1, w2, w3):
        h = ad.gelu(ad.matmul(a, w1))
        h = ad.relu(ad.matmul(h, w2))
        h = ad.softmax(ad.matmul(h, w3), axis=-1)
        return ad.tsum(ad.mul(h, ad.log(ad.add(ad.mul(h, h), 0.1))))

    point = [rand(rng, 3, 8), rand(rng, 8, 8), rand(rng, 8, 8), rand(rng, 8, 8)]
    report = ad.gradient_check(program, point, step=1e-5, tol=1e-4)
    assert report["passed"], report


def test_forward_backward_rejects_non_scalar():
    with pytest.raises(ValueError, match="scalar"):
        ad.forward_backward(lambda x: ad.mul(x, 2.0),
                            [Tensor(np.ones(3), requires_grad=True)])


def test_gradient_check_linear_map_exact():
    w = np.arange(6.0).reshape(2, 3)
    report = ad.gradient_check(
        lambda x: ad.tsum(ad.matmul(x, w)),
        [Tensor(np.ones(2), requires_grad=True)])
    assert report["max_rel_error"] < 1e-10


def test_gradient_check_flags_corrupted_rule():
    def bad_square(x):
        out = ad.mul(x, x)
        orig = out._backward

        def corrupted(g):
            orig(g * 2.0)  # deliberately wrong scale

        out._backward = corrupted
        return out

    report = ad.gradient_check(bad_square, [Tensor(3.0, requires_grad=True)])
    assert not report["passed"]


def test_gradient_check_rejects_bad_step_and_tol():
    point = [Tensor(1.0, requires_grad=True)]
    with pytest.raises(ValueError):
        ad.gradient_check(lambda x: ad.mul(x, x), point, step=0.0)
    with pytest.raises(ValueError):
        ad.gradient_check(lambda x: ad.mul(x, x), point, tol=-1.0)


def test_forward_backward_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))

    def program(x):
        return ad.tsum(ad.softmax(ad.matmul(x, x), axis=-1))

    v1, g1 = ad.forward_backward(program, [Tensor(a.copy(), requires_grad=True)])
    v2, g2 = ad.forward_backward(program, [Tensor(a.copy(), requires_grad=True)])
    assert v1.item() == v2.item()
    np.testing.assert_array_equal(g1[0], g2[0])


def test_primitive_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    cases = [
        lambda x: ad.tsum(ad.relu(x)),
        lambda x: ad.tsum(ad.gelu(x)),
        lambda x: ad.tsum(ad.exp(x)),
        lambda x: ad.tsum(ad.log(ad.add(ad.mul(x, x), 1.0))),
        lambda x: ad.tsum(ad.softmax(x, axis=-1)),
        lambda x: ad.tsum(ad.layer_norm(x, np.ones(5), np.zeros(5))),
        lambda x: ad.tsum(ad.l2_normalize(x)),
        lambda x: ad.tmean(ad.mul(x, x), axis=0),
        lambda x: ad.tsum(ad.concat([x, ad.mul(x, 2.0)], axis=1)),
        lambda x: ad.tsum(ad.embedding(x, np.array([0, 1, 1, 2]))),
        lambda x: ad.tsum(ad.transpose(ad.reshape(x, (5, 4)), (1, 0))),
    ]
    for fn in cases:
        x = rand(rng, 4, 5)
        report = ad.gradient_check(lambda t, f=fn: ad.tsum(f(t)), [x])
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
        return ad.tsum(ad.mul(ad.gelu(ad.mul(x, w)), ad.softmax(ad.mul(x, x), axis=-1)))

    inputs = [Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape))]
    before = [t.data.copy() for t in inputs]
    for index in range(2):
        got = ad.finite_difference(program, inputs, index)
        want = _reference_finite_difference(program, inputs, index)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()
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
