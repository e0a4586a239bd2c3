"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation is its output plus a vector-Jacobian product (vjp): `_make`
records the parents and the vjp on the output tensor, and `backward()` runs
a topological sweep from a scalar loss that adds each returned gradient into
its parent. The sweep frees each interior node's gradient and vjp (and with
it every forward array the vjp kept) once the vjp has run, so a graph can be
backpropagated only once. All math is double precision and single-threaded,
so results are bit-reproducible.
"""

import math
from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure forward evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled():
    """False inside `no_grad`, where operations record no graph."""
    return _GRAD_ENABLED


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        # the first write copies: a vjp may return the same array for
        # several parents, or a view of its own incoming gradient
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape))
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Add d(self)/d(leaf) into the `grad` of every tracked leaf. Each
        interior node's `grad` and vjp are set to None once its vjp has run;
        its `_parents` stay, so the graph's shape can still be walked."""
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar terminal, got shape {self.shape}"
            )
        order = _toposort(self)
        if any(node._parents and node._backward is None for node in order):
            raise RuntimeError(
                "backward() over a graph that has already been backpropagated: "
                "its vjps are freed; build the loss again")
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                grads = node._backward(node.grad)
                node.grad = node._backward = None
                for parent, g in zip(node._parents, grads, strict=True):
                    if g is not None and parent.requires_grad:
                        parent._accum(g)

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _tracked(*tensors):
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def _make(data, parents, vjp):
    """The output `data` of an op on the Tensors `parents`: a constant when
    no parent is tracked, otherwise a node whose `vjp(g)` maps the output's
    gradient to one gradient per parent (None adds nothing)."""
    if not _tracked(*parents):
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._backward = vjp
    return out


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def relu(x):
    x = as_tensor(x)
    return _make(np.maximum(x.data, 0.0), (x,),
                 lambda g: (g * (x.data > 0.0).astype(np.float64),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """GELU, tanh approximation."""
    x = as_tensor(x)
    v = x.data
    v2 = v * v  # float `v**3` has no fast path in numpy and is ~100x slower
    inner = _GELU_C * (v + 0.044715 * (v2 * v))
    t = np.tanh(inner)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * v2)
        return (g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner),)

    return _make(0.5 * v * (1.0 + t), (x,), vjp)


def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape),)

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    One node. The backward is the derivative of the computed forward:
    dxc = inv * (dxhat - xhat * mean(dxhat * xhat)), dx = dxc - mean(dxc).
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    inv_n = 1.0 / x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * inv_n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_n
    inv = (var + eps) ** -0.5
    xhat = xc * inv

    def vjp(g):
        dxhat = g * gain.data
        dxc = inv * (dxhat - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True)
                                     * inv_n))
        return (dxc - dxc.sum(axis=-1, keepdims=True) * inv_n,
                _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape))

    return _make(xhat * gain.data + bias.data, (x, gain, bias), vjp)


def linear(x, w, b=None):
    """`x @ w + b` over the last axis of x, as one node. w is (d_in, d_out)
    and b, when given, is (d_out,). The forward and the weight gradient are
    each a single GEMM over all leading axes of x, so a row's output does not
    depend on how many rows share the call (a batched one-row matmul rounds
    differently)."""
    x, w = as_tensor(x), as_tensor(w)
    data = (x.data.reshape(-1, x.shape[-1]) @ w.data).reshape(*x.shape[:-1], -1)
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        data += b.data
        parents += (b,)

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = (g @ w.data.T, x.data.reshape(-1, x.shape[-1]).T @ g2)
        return grads if b is None else grads + (g2.sum(axis=0),)

    return _make(data, parents, vjp)


def attention(q, k, v, bias, n_heads):
    """Multi-head scaled dot-product attention of (B, Sq, d) queries over
    (B, S, d) keys and values; Sq may be smaller than S.

    `bias` is a constant additive mask broadcastable to (B, n_heads, Sq, S).
    Head split, scaling, softmax, `@ v` and head merge are one node; the
    backward uses the softmax-Jacobian identity
    dS = P * (dP - rowsum(dP * P)).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    b, _, d = q.shape
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def heads(t):  # (B, S, d) -> (B, h, S, dh)
        return t.reshape(b, t.shape[1], n_heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # (B, h, S, dh) -> (B, S, d)
        return t.transpose(0, 2, 1, 3).reshape(b, t.shape[2], d)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    z = (qh @ kh.transpose(0, 1, 3, 2)) * scale + bias
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        gh = heads(g)
        dp = gh @ vh.transpose(0, 1, 3, 2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        ds *= scale
        return (merge(ds @ kh),
                merge((qh.transpose(0, 1, 3, 2) @ ds).transpose(0, 1, 3, 2)),
                merge(p.transpose(0, 1, 3, 2) @ gh))

    return _make(merge(p @ vh), (q, k, v), vjp)


def concat(tensors, axis=0):
    tensors = tuple(as_tensor(t) for t in tensors)
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: np.split(g, np.cumsum([t.shape[axis] for t in tensors])[:-1],
                                    axis=axis))


def reshape(x, shape):
    x = as_tensor(x)
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def transpose(x, axes):
    x = as_tensor(x)
    return _make(x.data.transpose(axes), (x,),
                 lambda g: (g.transpose(np.argsort(axes)),))


def getitem(x, index):
    """Basic slicing / integer-array indexing with scatter-add gradient. The
    scatter adds into `x.grad` in place, in index order, and returns None."""
    x = as_tensor(x)

    def vjp(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, index, g)
        return (None,)

    return _make(x.data[index], (x,), vjp)


def l2_normalize(x, eps=1e-12):
    """Scale rows of x (last axis) to unit length; a row whose norm is below
    `eps` is divided by `eps` instead. One node; the backward is
    (g - y * rowsum(g * y)) / norm, and g / eps on the guarded rows."""
    x = as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    guard = norm >= eps
    inv = 1.0 / np.where(guard, norm, eps)
    data = x.data * inv
    return _make(data, (x,), lambda g: (
        inv * (g - data * ((g * data).sum(axis=-1, keepdims=True) * guard)),))


def softmax_xent(z, weights, positives):
    """Softmax cross-entropy of the rows of the (R, C) scores z, as one node:
    mean over rows r of log sum_c w[r, c] exp z[r, c] - log sum_j exp z[r, pos[r, j]].

    `weights` is a constant non-negative (R, C) array: weight n counts a
    column n times and 0 excludes it; every row needs a positive weight.
    `positives` is an (R, k) integer array of column indices, and a column
    listed twice counts twice. The backward is g * (softmax_w - softmax_pos) / R.
    """
    z = as_tensor(z)
    w = np.asarray(weights, dtype=np.float64)
    rows, pos = np.arange(z.shape[0])[:, None], np.asarray(positives)
    keep = w > 0
    shift = np.where(keep, z.data, -np.inf).max(axis=1, keepdims=True)
    # masking inside exp keeps excluded (possibly huge) entries from overflowing
    e = np.exp((z.data - shift) * keep) * w
    s = e.sum(axis=1, keepdims=True)
    zp = z.data[rows, pos]
    pshift = zp.max(axis=1, keepdims=True)
    ep = np.exp(zp - pshift)
    sp = ep.sum(axis=1, keepdims=True)

    def vjp(g):
        d = e / s
        np.add.at(d, (rows, pos), -(ep / sp))
        return (d * (g / len(d)),)

    return _make(((np.log(s) + shift) - (np.log(sp) + pshift)).mean(), (z,), vjp)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_difference(fn, flat, step=1e-5):
    """Central-difference derivatives of the scalar `fn()` with respect to
    each element of `flat`, a flat view of data `fn` reads. Each element is
    perturbed in place and restored; `fn` runs twice per element."""
    g = np.zeros(flat.size)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = fn().item()
            flat[i] = orig - step
            lo = fn().item()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
    return g


def relative_error(analytic, numeric):
    """Max of |a - n| / max(|a|, |n|, 1e-3), 0.0 for empty arrays; the floor
    compares near-zero gradients on an absolute scale."""
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))
