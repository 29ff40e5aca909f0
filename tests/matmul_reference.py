"""Per-sample-loop matrix product, the reference ``autodiff.matmul`` is held to.

One 2-D product per broadcast index of the leading axes, so it shares no
code path with the folded or broadcast GEMMs it checks.
"""

import numpy as np

from stgnn import autodiff as ad


def _source(index, shape):
    """The leading index of the operand of ``shape`` that broadcast ``index`` reads."""
    lead = shape[:-2]
    own = index[len(index) - len(lead):]
    return tuple(i if n > 1 else 0 for i, n in zip(own, lead))


def reference_matmul(a, b, g=None):
    """``a @ b`` and, given the upstream ``g``, the a and b gradients of
    sum((a @ b) * g), one sample at a time."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    wide_a = np.broadcast_to(a, lead + a.shape[-2:])
    wide_b = np.broadcast_to(b, lead + b.shape[-2:])
    dtype = np.result_type(a, b)
    out = np.empty(lead + (a.shape[-2], b.shape[-1]), dtype=dtype)
    ga = np.zeros(a.shape, dtype=dtype)
    gb = np.zeros(b.shape, dtype=dtype)
    for index in np.ndindex(*lead):
        out[index] = wide_a[index] @ wide_b[index]
        if g is not None:
            ga[_source(index, a.shape)] += g[index] @ wide_b[index].T
            gb[_source(index, b.shape)] += wide_a[index].T @ g[index]
    return out, ga, gb


def loop_matmul(a, b):
    """A tape op with ``autodiff.matmul``'s contract, built on ``reference_matmul``."""
    a, b = ad._pair(a, b)
    out, _, _ = reference_matmul(a.data, b.data)

    def backward_fn(g):
        _, ga, gb = reference_matmul(a.data, b.data, g)
        ad._accumulate(a, ga)
        ad._accumulate(b, gb)

    return ad._make(out, (a, b), backward_fn)
