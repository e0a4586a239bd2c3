"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records its parents and a backward closure on the output
tensor; `backward()` runs a topological sweep from a scalar loss. All math
is double precision and single-threaded, so results are bit-reproducible.
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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
        # the first write copies: backward closures may hand the same array
        # to several parents, or a view of their own incoming gradient
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape))
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar terminal, got shape {self.shape}"
            )
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

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


def _make(data, parents, backward):
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._backward = backward
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
    data = a.data + b.data
    if not _tracked(a, b):
        return Tensor(data)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _make(data, (a, b), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    if not _tracked(a, b):
        return Tensor(data)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), bw)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data
    if not _tracked(a, b):
        return Tensor(data)

    def bw(g):
        if a.requires_grad:
            if b.data.ndim == 1:
                ga = np.outer(g, b.data) if a.data.ndim == 2 else g * b.data
            else:
                ga = g @ b.data.swapaxes(-1, -2)
            a._accum(_unbroadcast(np.asarray(ga), a.shape))
        if b.requires_grad:
            if a.data.ndim == 1:
                gb = np.outer(a.data, g) if b.data.ndim == 2 else g * a.data
            else:
                gb = a.data.swapaxes(-1, -2) @ g
            b._accum(_unbroadcast(np.asarray(gb), b.shape))

    return _make(data, (a, b), bw)


def relu(x):
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)
    if not _tracked(x):
        return Tensor(data)
    mask = (x.data > 0.0).astype(np.float64)

    def bw(g):
        x._accum(g * mask)

    return _make(data, (x,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """GELU, tanh approximation."""
    x = as_tensor(x)
    v = x.data
    v2 = v * v  # float `v**3` has no fast path in numpy and is ~100x slower
    inner = _GELU_C * (v + 0.044715 * (v2 * v))
    t = np.tanh(inner)
    data = 0.5 * v * (1.0 + t)
    if not _tracked(x):
        return Tensor(data)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * v2)
        dx = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
        x._accum(g * dx)

    return _make(data, (x,), bw)


def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    if not _tracked(x):
        return Tensor(data)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accum(np.broadcast_to(g, x.shape))

    return _make(data, (x,), bw)


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
    data = xhat * gain.data + bias.data
    if not _tracked(x, gain, bias):
        return Tensor(data)

    def bw(g):
        if x.requires_grad:
            dxhat = g * gain.data
            dxc = inv * (dxhat - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True)
                                         * inv_n))
            x._accum(dxc - dxc.sum(axis=-1, keepdims=True) * inv_n)
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape))

    return _make(data, (x, gain, bias), bw)


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
    if not _tracked(*parents):
        return Tensor(data)

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(x.data.reshape(-1, x.shape[-1]).T @ g2)
        if b is not None and b.requires_grad:
            b._accum(g2.sum(axis=0))

    return _make(data, parents, bw)


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
    data = merge(p @ vh)
    if not _tracked(q, k, v):
        return Tensor(data)

    def bw(g):
        gh = heads(g)
        if v.requires_grad:
            v._accum(merge(p.transpose(0, 1, 3, 2) @ gh))
        if q.requires_grad or k.requires_grad:
            dp = gh @ vh.transpose(0, 1, 3, 2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            ds *= scale
            if q.requires_grad:
                q._accum(merge(ds @ kh))
            if k.requires_grad:
                k._accum(merge((qh.transpose(0, 1, 3, 2) @ ds).transpose(0, 1, 3, 2)))

    return _make(data, (q, k, v), bw)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _tracked(*tensors):
        return Tensor(data)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return _make(data, tuple(tensors), bw)


def reshape(x, shape):
    x = as_tensor(x)
    data = x.data.reshape(shape)
    if not _tracked(x):
        return Tensor(data)

    def bw(g):
        x._accum(g.reshape(x.shape))

    return _make(data, (x,), bw)


def transpose(x, axes):
    x = as_tensor(x)
    data = x.data.transpose(axes)
    if not _tracked(x):
        return Tensor(data)
    inv = np.argsort(axes)

    def bw(g):
        x._accum(g.transpose(inv))

    return _make(data, (x,), bw)


def getitem(x, index):
    """Basic slicing / integer-array indexing with scatter-add gradient."""
    x = as_tensor(x)
    data = x.data[index]
    if not _tracked(x):
        return Tensor(data)

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, index, g)

    return _make(data, (x,), bw)


def l2_normalize(x, eps=1e-12):
    """Scale rows of x (last axis) to unit length; a row whose norm is below
    `eps` is divided by `eps` instead. One node; the backward is
    (g - y * rowsum(g * y)) / norm, and g / eps on the guarded rows."""
    x = as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    guard = norm >= eps
    inv = 1.0 / np.where(guard, norm, eps)
    data = x.data * inv
    if not _tracked(x):
        return Tensor(data)

    def bw(g):
        x._accum(inv * (g - data * ((g * data).sum(axis=-1, keepdims=True) * guard)))

    return _make(data, (x,), bw)


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
    data = ((np.log(s) + shift) - (np.log(sp) + pshift)).mean()
    if not _tracked(z):
        return Tensor(data)

    def bw(g):
        d = e / s
        np.add.at(d, (rows, pos), -(ep / sp))
        z._accum(d * (g / len(d)))

    return _make(data, (z,), bw)


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
