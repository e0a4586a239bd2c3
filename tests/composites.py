"""Reference versions of the fused autodiff nodes, built from small nodes.

The elementwise nodes here (`exp`, `log`, `power`, `softmax`, `tmean`, `sub`)
have no caller in the library; the composites written with them are the
oracles that the one-node `layer_norm`, `l2_normalize` and `softmax_xent` and
the objectives built on them are checked against.
"""

import numpy as np

from mmrec import autodiff as ad


def _node(x, data, grad_of):
    """One-parent node whose vjp is grad_of(g)."""
    return ad._make(data, (x,), lambda g: (grad_of(g),))


def exp(x):
    x = ad.as_tensor(x)
    data = np.exp(x.data)
    return _node(x, data, lambda g: g * data)


def log(x):
    x = ad.as_tensor(x)
    return _node(x, np.log(x.data), lambda g: g / x.data)


def power(x, p):
    x = ad.as_tensor(x)
    return _node(x, x.data**p, lambda g: g * p * x.data ** (p - 1))


def softmax(x, axis=-1):
    """Numerically stable softmax along `axis`."""
    x = ad.as_tensor(x)
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    data = e / e.sum(axis=axis, keepdims=True)
    return _node(x, data,
                 lambda g: data * (g - (g * data).sum(axis=axis, keepdims=True)))


def sub(a, b):
    """a - b as a + b * -1; negation is exact, so it is bitwise a - b."""
    return ad.add(a, ad.mul(b, -1.0))


def tmean(x, axis=None, keepdims=False):
    x = ad.as_tensor(x)
    if axis is None:
        n = x.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([x.shape[a] for a in axes]))
    return ad.mul(ad.tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm as nine nodes; the fused node reproduces its forward
    bitwise."""
    mu = tmean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = tmean(ad.mul(xc, xc), axis=-1, keepdims=True)
    inv = power(ad.add(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(xc, inv), gain), bias)


def l2_normalize(x, eps=1e-12):
    """Row normalization as seven nodes."""
    x = ad.as_tensor(x)
    norm = power(ad.tsum(ad.mul(x, x), axis=-1, keepdims=True), 0.5)
    guard = (norm.data >= eps).astype(np.float64)
    denom = ad.add(ad.mul(norm, guard), eps * (1.0 - guard))
    return ad.mul(x, power(denom, -1.0))


def masked_logsumexp(x, weights, axis=-1):
    """log(sum(weights * exp(x))) along `axis` as six nodes; entries of
    weight 0 are masked before exp."""
    x = ad.as_tensor(x)
    weights = np.asarray(weights, dtype=np.float64)
    keep = (weights > 0).astype(np.float64)
    shift = np.where(keep > 0, x.data, -np.inf).max(axis=axis, keepdims=True)
    z = ad.mul(sub(x, shift), keep)
    s = ad.tsum(ad.mul(exp(z), weights), axis=axis)
    return ad.add(log(s), np.squeeze(shift, axis=axis))


def softmax_xent(z, weights, positives):
    """The weighted cross-entropy as two masked log-sum-exps: one over the
    weighted columns, one over the gathered positive columns."""
    z = ad.as_tensor(z)
    pos = np.asarray(positives)
    rows = np.broadcast_to(np.arange(z.shape[0])[:, None], pos.shape)
    zp = ad.getitem(z, (rows, pos))
    return tmean(sub(masked_logsumexp(z, weights, axis=1),
                     masked_logsumexp(zp, np.ones(pos.shape), axis=1)))
