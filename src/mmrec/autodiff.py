"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation is its output plus a vector-Jacobian product (vjp): `_make`
records the parents and the vjp on the output tensor, and `backward()` runs
a topological sweep from a scalar loss that adds each returned gradient into
its parent. The sweep frees each interior node's gradient and vjp (and with
it every forward array the vjp kept) once the vjp has run, so a graph can be
backpropagated only once. The transformer block's math (`linear`,
`attention`, `layer_norm`, `gelu`) is in pure-numpy forward/backward pairs,
which the `linear` node and the block node (`encoders.transformer_block`)
share. All math is double precision and single-threaded, so results are
bit-reproducible.
"""

import math
import threading
from contextlib import contextmanager

import numpy as np


class _GradMode(threading.local):
    enabled = True  # each thread starts with recording on


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording in this thread inside the block."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def grad_enabled():
    """False inside this thread's `no_grad`, where operations record no graph."""
    return _grad_mode.enabled


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
    return _grad_mode.enabled and any(t.requires_grad for t in tensors)


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
# forward/backward pairs: pure numpy, shared by `linear` and the transformer
# block node (`encoders.transformer_block`); each forward returns what its
# backward reads besides its inputs. Row sums (the layer norm's, and the
# backwards') use `np.einsum`, which over short rows is 3-4x faster than
# `ndarray.sum` and, unlike a BLAS product with ones, does not depend on
# the BLAS thread count.
# ---------------------------------------------------------------------------

def _sum_rows(a, b=None):
    """sum(a * b) (or sum(a)) over the last axis, keeping it as size 1."""
    return (np.einsum("...i->...", a) if b is None else
            np.einsum("...i,...i->...", a, b))[..., None]


def linear_forward(x, w, b=None, out=None):
    """`x @ w + b` over the last axis of x: one GEMM over all leading axes,
    written into `out` when it is given (a C-contiguous array of the
    result's shape).

    Whether a row's output has the same bits however many rows share the
    call depends on the widths. Measured with OpenBLAS 0.3.31 at one and two
    threads, over 2 to 1536 rows from 32- and 64-wide inputs: output widths
    16, 24, 32, 40, 48 and 64 keep them; 3, 9, 36 and 44 do not, nor 12 and
    20 from a 64-wide input. A one-row call takes another kernel."""
    if out is None:
        out = (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], -1)
    else:
        np.matmul(x.reshape(-1, x.shape[-1]), w, out=out.reshape(-1, out.shape[-1]))
    if b is not None:
        out += b
    return out


def linear_backward(g, x, w, bias=True):
    """Gradients of `linear_forward` for x, w and, with `bias`, b: each one
    2-D product or column sum over all leading axes."""
    g2 = g.reshape(-1, g.shape[-1])
    grads = ((g2 @ w.T).reshape(x.shape), x.reshape(-1, x.shape[-1]).T @ g2)
    return (*grads, np.einsum("ij->j", g2)) if bias else grads


def _heads(t, n_heads):  # (B, S, d) -> (B, h, S, dh)
    b, s, d = t.shape
    return t.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def attention_forward(q, k, v, bias, n_heads):
    """Multi-head scaled dot-product attention of (B, Sq, d) queries over
    (B, S, d) keys and values; Sq may be smaller than S. `bias` is a 4-D
    additive mask broadcastable to (B, n_heads, Sq, S), or None for none.
    Returns the output and the softmax probabilities P. The softmax runs
    key-major, on (S, B, h, Sq), so its max and sum over keys are
    elementwise sweeps and the sum adds keys in key order: a masked key's
    exact 0 moves no bit."""
    qh, kh, vh = (_heads(t, n_heads) for t in (q, k, v))
    z = np.multiply((qh @ kh.transpose(0, 1, 3, 2)).transpose(3, 0, 1, 2),
                    1.0 / math.sqrt(qh.shape[-1]), order="C")
    if bias is not None:
        z += bias.transpose(3, 0, 1, 2)
    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    p = np.empty(qh.shape[:3] + z.shape[:1])
    np.divide(z, np.add.reduce(z), out=p.transpose(3, 0, 1, 2))
    out = np.empty_like(q)
    np.matmul(p, vh, out=_heads(out, n_heads))
    return out, p


def attention_backward(g, q, k, v, p, n_heads):
    """Gradients of `attention_forward` for q, k and v, through the
    softmax-Jacobian identity dS = P * (dP - rowsum(dP * P)); each product
    writes its heads straight into the (B, S, d) gradient."""
    qh, kh, vh, gh = (_heads(t, n_heads) for t in (q, k, v, g))
    ds = gh @ vh.transpose(0, 1, 3, 2)  # dP, made dS in place
    ds -= _sum_rows(ds, p)
    ds *= p
    ds *= 1.0 / math.sqrt(qh.shape[-1])
    dq, dk, dv = (np.empty_like(t) for t in (q, k, v))
    np.matmul(ds, kh, out=_heads(dq, n_heads))
    np.matmul(ds.transpose(0, 1, 3, 2), qh, out=_heads(dk, n_heads))
    np.matmul(p.transpose(0, 1, 3, 2), gh, out=_heads(dv, n_heads))
    return dq, dk, dv


def layer_norm_forward(x, residual, gain, bias):
    """Layer norm of `x + residual` over the last axis, to zero mean and unit
    variance (eps 1e-5), then `* gain + bias`. Returns the output and
    (xhat, inv), the normalized input and its inverse standard deviation."""
    s = x + residual
    inv_n = 1.0 / s.shape[-1]
    xc = s - _sum_rows(s) * inv_n
    inv = (_sum_rows(xc, xc) * inv_n + 1e-5) ** -0.5
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def layer_norm_backward(g, gain, xhat, inv):
    """Gradients of `layer_norm_forward` for `x + residual` (and so for each
    of the two), gain and bias: dxc = inv * (dxhat - xhat * mean(dxhat * xhat)),
    dx = dxc - mean(dxc)."""
    d = xhat.shape[-1]
    inv_n = 1.0 / d
    dxhat = g * gain
    dxc = xhat * (_sum_rows(dxhat, xhat) * inv_n)
    np.subtract(dxhat, dxc, out=dxc)
    dxc *= inv
    dxc -= _sum_rows(dxc) * inv_n
    g2 = g.reshape(-1, d)
    return dxc, np.einsum("ij,ij->j", g2, xhat.reshape(-1, d)), np.einsum("ij->j", g2)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_forward(v):
    """GELU, tanh approximation. Returns the output and the tanh t, which
    the backward reads with v."""
    # float `v**3` has no fast path in numpy and is ~100x slower than v*v*v
    t = np.tanh(_GELU_C * (v + 0.044715 * ((v * v) * v)))
    return 0.5 * v * (1.0 + t), t


def gelu_backward(g, v, t):
    """Gradient of `gelu_forward` for v:
    g * (0.5 * (1 + t) + 0.5 * v * (1 - t * t) * c * (1 + 3 * 0.044715 * v * v)),
    computed in place in that order."""
    dinner = v * v
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= _GELU_C
    dt = t * t
    np.subtract(1.0, dt, out=dt)
    dt *= 0.5 * v
    dt *= dinner
    out = t + 1.0
    out *= 0.5
    out += dt
    out *= g
    return out


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


def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape),)

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def linear(x, w, b=None):
    """`x @ w + b` over the last axis of x as one node over `linear_forward`
    and `linear_backward`. w is (d_in, d_out) and b, when given, is (d_out,)."""
    x, w = as_tensor(x), as_tensor(w)
    if b is None:
        return _make(linear_forward(x.data, w.data), (x, w),
                     lambda g: linear_backward(g, x.data, w.data, bias=False))
    b = as_tensor(b)
    return _make(linear_forward(x.data, w.data, b.data), (x, w, b),
                 lambda g: linear_backward(g, x.data, w.data))


def concat(tensors, axis=0):
    tensors = tuple(as_tensor(t) for t in tensors)
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: np.split(g, np.cumsum([t.shape[axis] for t in tensors])[:-1],
                                    axis=axis))


def transpose(x, axes):
    x = as_tensor(x)
    return _make(x.data.transpose(axes), (x,),
                 lambda g: (g.transpose(np.argsort(axes)),))


def getitem(x, index):
    """Basic slicing or integer-array indexing, with a scatter-add gradient:
    the vjp returns a new array of x's shape with the bits of `np.add.at`
    into zeros. A basic index (ints and slices) adds the incoming gradient
    into its one view of that array; an index of integer arrays alone is one
    `np.bincount` over the flat positions. Any other index, such as arrays
    mixed with ints or slices, is a ValueError."""
    x = as_tensor(x)
    parts = index if isinstance(index, tuple) else (index,)
    arrays = all(isinstance(i, np.ndarray) and i.dtype.kind in "iu" for i in parts)
    if not (arrays or all(isinstance(i, (int, np.integer, slice)) for i in parts)):
        raise ValueError("getitem takes ints and slices, or integer arrays alone, "
                         f"not {index!r}")

    def vjp(g):
        if not arrays:
            dx = np.zeros_like(x.data)
            dx[index] += g
            return (dx,)
        # the forward bounds-checked the index, so wrapping only maps the
        # negative entries, as numpy indexing does
        rows = np.ravel_multi_index(parts, x.shape[:len(parts)], mode="wrap")
        width = math.prod(x.shape[len(parts):])
        flat = (rows.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        return (np.bincount(flat, weights=g.reshape(-1),
                            minlength=x.data.size).reshape(x.shape),)

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
    mean over rows r of log sum_c w[r, c] exp z[r, c] - z[r, pos[r]].

    `weights` is a constant non-negative (R, C) array: weight n counts a
    column n times and 0 excludes it; every row needs a positive weight.
    `positives` is an (R,) integer array, one column index per row. The
    backward is g * (softmax_w - onehot_pos) / R.
    """
    z = as_tensor(z)
    w = np.asarray(weights, dtype=np.float64)
    rows, pos = np.arange(z.shape[0]), np.asarray(positives)
    if pos.shape != rows.shape:
        raise ValueError(f"softmax_xent needs one positive per row, got {pos.shape}")
    keep = w > 0
    shift = np.where(keep, z.data, -np.inf).max(axis=1, keepdims=True)
    # masking inside exp keeps excluded (possibly huge) entries from overflowing
    e = np.exp((z.data - shift) * keep) * w
    s = e.sum(axis=1, keepdims=True)

    def vjp(g):
        d = e / s
        d[rows, pos] -= 1.0
        return (d * (g / len(d)),)

    return _make(((np.log(s) + shift) - z.data[rows, pos][:, None]).mean(), (z,), vjp)


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
