"""Reverse-mode autodiff over dense numpy buffers.

Results are computed eagerly while a tape of backward closures is recorded
on the output tensors; ``Tensor.backward()`` replays the tape in reverse
topological order. Training runs in float32; switch to float64 (see
``default_dtype``) when comparing analytic gradients against central finite
differences.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, GeometryError, ShapeError

_DTYPES = {"f32": np.float32, "f64": np.float64}
_state = {"dtype": np.float32}


def set_default_dtype(name: str) -> None:
    """Select the element type ("f32" or "f64") for newly created tensors."""
    if name not in _DTYPES:
        raise ContractError(f"unknown dtype {name!r}; expected one of {sorted(_DTYPES)}")
    _state["dtype"] = _DTYPES[name]


def get_default_dtype():
    return _state["dtype"]


@contextlib.contextmanager
def default_dtype(name: str):
    """Temporarily switch the default element type."""
    previous = _state["dtype"]
    set_default_dtype(name)
    try:
        yield
    finally:
        _state["dtype"] = previous


class Tensor:
    """Dense array plus optional gradient and the tape edge that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _state["dtype"])
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def backward(self) -> None:
        """Populate ``grad`` on every reachable tensor that requires it."""
        if self.data.size != 1:
            raise ContractError("backward() expects a scalar loss")
        if not self.requires_grad:
            return
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def as_tensor(value, like: Tensor | None = None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    dtype = like.data.dtype if like is not None else _state["dtype"]
    return Tensor(value, requires_grad=False, dtype=dtype)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor):
        return a, as_tensor(b, like=a)
    if isinstance(b, Tensor):
        return as_tensor(a, like=b), b
    return as_tensor(a), as_tensor(b)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Add ``grad`` into ``t.grad``. A ``fresh`` gradient was allocated by the
    caller, which keeps no other use of it, so it becomes ``t.grad`` uncopied."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if fresh and grad.dtype == t.data.dtype:
            t.grad = grad
        else:
            t.grad = np.array(grad, dtype=t.data.dtype)
    else:
        t.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data - b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data * b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data / b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward_fn)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward_fn(g):
        _accumulate(a, g * data)

    return _make(data, (a,), backward_fn)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def backward_fn(g):
        _accumulate(a, g / a.data)

    return _make(data, (a,), backward_fn)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward_fn(g):
        _accumulate(a, g * 0.5 / data)

    return _make(data, (a,), backward_fn)


def square(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        _accumulate(a, g * 2.0 * a.data)

    return _make(a.data * a.data, (a,), backward_fn)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient is zero outside the window."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)

    def backward_fn(g):
        _accumulate(a, g * ((a.data >= lo) & (a.data <= hi)))

    return _make(data, (a,), backward_fn)


# shape manipulation --------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward_fn(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(data, (a,), backward_fn)


def flatten_rows(a) -> Tensor:
    """Collapse everything after the leading axis into one dimension."""
    a = as_tensor(a)
    return reshape(a, (a.data.shape[0], -1))


def transpose_last2(a) -> Tensor:
    a = as_tensor(a)
    data = np.swapaxes(a.data, -1, -2)

    def backward_fn(g):
        _accumulate(a, np.swapaxes(g, -1, -2))

    return _make(data, (a,), backward_fn)


def concat(parts: Iterable, axis: int = -1) -> Tensor:
    ts = [as_tensor(p) for p in parts]
    data = np.concatenate([t.data for t in ts], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def backward_fn(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _make(data, tuple(ts), backward_fn)


# reductions ----------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims))

    def backward_fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return _make(data, (a,), backward_fn)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = np.asarray(a.data.mean(axis=axis, keepdims=keepdims))
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))

    def backward_fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape) / count)

    return _make(data, (a,), backward_fn)


# linear algebra ------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting the leading ones.

    When ``b`` is 2-D (a weight every sample shares), the leading axes of
    ``a`` fold into rows, ``a.reshape(-1, K)``: the forward, the input
    gradient ``g @ bᵀ`` and the weight gradient ``rowsᵀ @ g`` are one GEMM
    each, and no per-sample weight-gradient stack is built. Products of two
    stacks use numpy's broadcast matmul and sum the broadcast gradient back.
    """
    a, b = _pair(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul expects operands with at least two dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 2:
        inner, cols = b.data.shape
        data = (a.data.reshape(-1, inner) @ b.data).reshape(a.data.shape[:-1] + (cols,))

        def fold_backward(g):
            g2 = g.reshape(-1, cols)
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape), fresh=True)
            if b.requires_grad:
                # rows rebuilt rather than kept: a copy when ``a`` is a strided view
                _accumulate(b, a.data.reshape(-1, inner).T @ g2, fresh=True)

        return _make(data, (a, b), fold_backward)
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(data, (a, b), backward_fn)


# activations ---------------------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0)

    def backward_fn(g):
        _accumulate(a, g * (a.data > 0))

    return _make(data, (a,), backward_fn)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    data = data.astype(x.dtype, copy=False)

    def backward_fn(g):
        _accumulate(a, g * data * (1.0 - data))

    return _make(data, (a,), backward_fn)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis; every row of the output sums to one."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _make(data, (a,), backward_fn)


def dropout(a, rate: float, rng: np.random.Generator | None = None, train: bool = False) -> Tensor:
    """Inverted-scaling dropout; identity when ``train`` is off or rate is 0."""
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1); got {rate}")
    if not train or rate == 0.0:
        return a
    if rng is None:
        raise ContractError("dropout in train mode needs a random generator")
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype)
    keep /= np.asarray(1.0 - rate, dtype=a.data.dtype)

    def backward_fn(g):
        _accumulate(a, g * keep)

    return _make(a.data * keep, (a,), backward_fn)


# structured layers ---------------------------------------------------------


def conv_output_length(length: int, kernel: int, stride: int, pad_total: int, dilation: int) -> int:
    return (length + pad_total - dilation * (kernel - 1) - 1) // stride + 1


def _taps(length: int, kernel: int, stride: int, dilation: int, pad_left: int, l_out: int):
    """For each kernel tap k that reads real input (not padding): k, the output
    steps that read it, and the input positions they read, in order."""
    for k in range(kernel):
        offset = k * dilation - pad_left  # input position read by output step 0
        first = max(0, -(offset // stride))
        stop = min(l_out, (length - 1 - offset) // stride + 1)
        if stop > first:
            start = first * stride + offset
            yield k, slice(first, stop), slice(start, start + (stop - first - 1) * stride + 1, stride)


def conv1d(x, weight, bias=None, stride: int = 1, padding=0, dilation: int = 1,
           causal: bool = False) -> Tensor:
    """1D convolution over (batch, channels, length) input.

    ``padding`` is symmetric when an int, or an explicit (left, right) pair.
    ``causal=True`` overrides it with a left-only pad of (kernel-1)*dilation,
    so output position t never sees inputs mapped after t.

    The work runs channel-major: each pass is one GEMM against the
    (C_in*K, B*L_out) columns of the input (zero where a tap reads padding),
    and the output is a (B, C_out, L_out) view of a (C_out, B, L_out) array,
    so a following per-channel reduction reads contiguous memory.
    """
    x = as_tensor(x)
    weight = as_tensor(weight, like=x)
    if x.data.ndim != 3 or weight.data.ndim != 3:
        raise ShapeError("conv1d expects input (B, C_in, L) and weight (C_out, C_in, K)")
    batch, c_in, length = x.data.shape
    c_out, c_in_w, kernel = weight.data.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv1d channel mismatch: input has {c_in}, weight expects {c_in_w}")
    if kernel < 1 or stride < 1 or dilation < 1:
        raise ContractError("kernel, stride and dilation must all be >= 1")
    if causal:
        pad_left, pad_right = (kernel - 1) * dilation, 0
    elif isinstance(padding, tuple):
        pad_left, pad_right = padding
    else:
        pad_left = pad_right = int(padding)
    if pad_left < 0 or pad_right < 0:
        raise ContractError(f"conv1d padding must be non-negative; got ({pad_left}, {pad_right})")
    l_out = conv_output_length(length, kernel, stride, pad_left + pad_right, dilation)
    if l_out <= 0:
        raise GeometryError(f"conv1d output length {l_out} for L={length}, K={kernel}, "
                            f"stride={stride}, pad=({pad_left},{pad_right}), dilation={dilation}")
    taps = list(_taps(length, kernel, stride, dilation, pad_left, l_out))

    def columns() -> np.ndarray:
        cols = np.zeros((c_in, kernel, batch, l_out), dtype=x.data.dtype)
        x_cm = x.data.swapaxes(0, 1)
        for k, steps, positions in taps:
            cols[:, k, :, steps] = x_cm[:, :, positions]
        return cols.reshape(c_in * kernel, batch * l_out)

    w2 = weight.data.reshape(c_out, c_in * kernel)
    out = w2 @ columns()

    b_t = None
    if bias is not None:
        b_t = as_tensor(bias, like=x)
        if b_t.data.shape != (c_out,):
            raise ShapeError(f"conv1d bias must have shape ({c_out},)")
        out += b_t.data[:, None]

    parents = (x, weight) if b_t is None else (x, weight, b_t)

    def backward_fn(g):
        g2 = g.swapaxes(0, 1).reshape(c_out, batch * l_out)
        if weight.requires_grad:
            # rebuilt rather than kept: the columns are K times the input
            _accumulate(weight, (g2 @ columns().T).reshape(c_out, c_in, kernel), fresh=True)
        if b_t is not None and b_t.requires_grad:
            _accumulate(b_t, g2.sum(axis=1), fresh=True)
        if x.requires_grad:
            spread = (w2.T @ g2).reshape(c_in, kernel, batch, l_out)
            grad = np.zeros((c_in, batch, length), dtype=spread.dtype)
            for k, steps, positions in taps:
                grad[:, :, positions] += spread[:, k, :, steps]
            _accumulate(x, grad.swapaxes(0, 1), fresh=True)

    return _make(out.reshape(c_out, batch, l_out).swapaxes(0, 1), parents, backward_fn)


def batchnorm1d(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
                train: bool, eps: float = 1e-5, momentum: float = 0.1) -> Tensor:
    """Per-channel normalization over batch (and time, for 3D input).

    Train mode uses batch statistics and updates the running buffers in
    place; eval mode normalizes with the running statistics. The work runs
    on (C, values) rows, which are contiguous when the input is the
    channel-major output of ``conv1d``.
    """
    x = as_tensor(x)
    gamma = as_tensor(gamma, like=x)
    beta = as_tensor(beta, like=x)
    if x.data.ndim not in (2, 3):
        raise ShapeError("batchnorm1d expects (B, C) or (B, C, L) input")
    channels = x.data.shape[1]
    if gamma.data.shape != (channels,) or beta.data.shape != (channels,):
        raise ShapeError(f"gamma/beta must have shape ({channels},)")
    # (C, B[, L]) -> (C, count): a view for channel-major input and for 2D input
    layout = x.data.swapaxes(0, 1).shape
    rows = x.data.swapaxes(0, 1).reshape(channels, -1)
    count = rows.shape[1]
    if train:
        if count < 2:
            raise ContractError("batch statistics need at least two values per channel")
        mu = rows.mean(axis=1)
        xhat = rows - mu[:, None]
        out = np.square(xhat)  # holds the squares, then the output
        var = out.mean(axis=1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var * (count / (count - 1))
    else:
        var = running_var
        xhat = rows - running_mean[:, None]
        out = np.empty_like(xhat)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv[:, None]
    np.multiply(xhat, gamma.data[:, None], out=out)
    out += beta.data[:, None]

    def backward_fn(g):
        g_rows = g.swapaxes(0, 1).reshape(channels, -1)
        # the two reductions every gradient is built from
        sum_g = g_rows.sum(axis=1)
        gx = np.multiply(g_rows, xhat)
        sum_gx = gx.sum(axis=1)
        if gamma.requires_grad:
            _accumulate(gamma, sum_gx, fresh=True)
        if beta.requires_grad:
            _accumulate(beta, sum_g, fresh=True)
        if x.requires_grad:
            scale = (gamma.data * inv)[:, None]
            if train:
                np.multiply(xhat, (-sum_gx / count)[:, None], out=gx)
                gx += g_rows
                gx -= (sum_g / count)[:, None]
                gx *= scale
            else:
                np.multiply(g_rows, scale, out=gx)
            _accumulate(x, gx.reshape(layout).swapaxes(0, 1), fresh=True)

    return _make(out.reshape(layout).swapaxes(0, 1), (x, gamma, beta), backward_fn)


def weight_norm(direction, gain, eps: float = 1e-12) -> Tensor:
    """Reparameterize a weight as gain * direction / ||direction|| per output channel.

    The norm is taken over all axes but the first; ``eps`` guards a
    zero-norm direction row.
    """
    direction = as_tensor(direction)
    gain = as_tensor(gain, like=direction)
    if direction.data.ndim < 2:
        raise ShapeError("weight_norm expects a direction with at least two dimensions")
    if gain.data.shape != (direction.data.shape[0],):
        raise ShapeError("gain must hold one scalar per output channel")
    axes = tuple(range(1, direction.data.ndim))
    norm = add(sqrt(tsum(square(direction), axis=axes, keepdims=True)), eps)
    gain_col = reshape(gain, (direction.data.shape[0],) + (1,) * (direction.data.ndim - 1))
    return mul(direction, div(gain_col, norm))
