"""Reverse-mode autodiff over dense numpy buffers.

Results are computed eagerly while a tape of backward closures is recorded
on the output tensors; ``Tensor.backward()`` replays the tape in reverse
topological order and consumes it as it goes. ``conv_bn_relu`` is a CNN
encoder block as one op whose node keeps only its output and two floats per
channel: its backward recomputes the conv from the block input.
``temporal_block`` is a TCN residual block as one op whose node keeps its
output and two bool masks. ``sage_layer`` is a GraphSAGE layer as one op
whose node keeps only its output: its backward recomputes ``A·h``. A forward
that nothing will differentiate runs under ``no_tape()``. Training runs in
float32; switch to float64 (see ``default_dtype``) when comparing analytic
gradients against central finite differences.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, GeometryError, ShapeError

_DTYPES = {"f32": np.float32, "f64": np.float64}
_state = {"dtype": np.float32, "tape": True}


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


class no_tape:
    """Context manager that records no tape: results computed inside never
    require a gradient, so each intermediate is freed as soon as its
    consumer has run. It is a class because perfbench's tracer times every
    public function of this module as a tape op."""

    def __enter__(self) -> None:
        self._previous = _state["tape"]
        _state["tape"] = False

    def __exit__(self, *exc_info) -> None:
        _state["tape"] = self._previous


def _consumed(grad: np.ndarray) -> None:
    """Stands in for the closure of a tape node that ``backward`` already ran."""
    raise ContractError("tape already consumed")


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

    def item(self) -> float:
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf that requires it.

        The walk consumes the tape: once a node's closure has run, the node
        drops its closure, its parents and its ``grad``, so each activation is
        freed as soon as no closure still to run reads it. Afterwards only
        the leaves and this loss hold a ``grad``, and the loss holds no
        activations. A walk that reaches a consumed node raises
        ``ContractError`` before running any closure. The gradient a closure
        receives is its node's own: no other node or leaf holds it, since
        ``_accumulate`` copies unless its caller hands over a ``fresh`` array
        it keeps no other use of. So a closure may overwrite it or hand it on.
        """
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
            if node._backward is _consumed:
                raise ContractError("tape already consumed")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = _consumed
                node._parents = ()
                node.grad = None
        self.grad = np.ones_like(self.data)  # the walk's own may have been handed on

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
    if _state["tape"] and any(p.requires_grad for p in parents):
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
        _accumulate(a, g.reshape(a.data.shape), fresh=True)  # ``g`` is this node's own

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


def _fold_backward(a: Tensor, b: Tensor, g2: np.ndarray) -> None:
    """The gradients of ``a.reshape(-1, K) @ b`` for a 2-D ``b``, given the product's
    gradient ``g2``, (rows, cols): one GEMM each."""
    rows = a.data.reshape(-1, b.data.shape[0])  # rebuilt rather than kept: a copy for a strided view
    if a.requires_grad:
        # in the memory order of ``rows``: a flattened time-major conv output gets a
        # time-major gradient, which the conv's backward reads without a copy
        ga = g2 @ b.data.T if rows.flags.c_contiguous else (b.data @ g2.T).T
        _accumulate(a, ga.reshape(a.data.shape), fresh=True)
    if b.requires_grad:
        _accumulate(b, rows.T @ g2, fresh=True)


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

        def backward_fn(g):
            _fold_backward(a, b, g.reshape(-1, cols))

        return _make(data, (a, b), backward_fn)
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
    e = np.exp(-np.abs(x))
    data = np.where(x >= 0, 1.0, e) / (1.0 + e)
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


def _keep_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator | None,
               train: bool) -> np.ndarray | None:
    """Dropout's keep mask over ``shape``, True where a value survives, from one
    uniform draw per value in C order; None when dropout is the identity (``train``
    off or rate 0), which draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1); got {rate}")
    if not train or rate == 0.0:
        return None
    if rng is None:
        raise ContractError("dropout in train mode needs a random generator")
    return rng.random(shape) >= rate


def dropout(a, rate: float, rng: np.random.Generator | None = None, train: bool = False) -> Tensor:
    """Inverted-scaling dropout; identity when ``train`` is off or rate is 0."""
    a = as_tensor(a)
    keep = _keep_mask(a.data.shape, rate, rng, train)
    if keep is None:
        return a
    keep = keep.astype(a.data.dtype)
    keep /= np.asarray(1.0 - rate, dtype=a.data.dtype)

    def backward_fn(g):
        _accumulate(a, g * keep)

    return _make(a.data * keep, (a,), backward_fn)


# structured layers ---------------------------------------------------------


def conv_output_length(length: int, kernel: int, stride: int, pad_total: int, dilation: int) -> int:
    return (length + pad_total - dilation * (kernel - 1) - 1) // stride + 1


def _taps(length: int, kernel: int, stride: int, dilation: int, pad_left: int, l_out: int):
    """For each kernel tap k that reads real input: k, the input step that output step 0
    reads through it, and the output steps [first, stop) that read real input through
    it. A tap that reads only padding adds nothing, so it gets no columns and no GEMM."""
    for k in range(kernel):
        offset = k * dilation - pad_left
        first = max(0, -(offset // stride))
        stop = min(l_out, (length - 1 - offset) // stride + 1)
        if stop > first:
            yield k, offset, first, stop


def _tap_spans(taps, stride: int, t0: int, t1: int):
    """For the j-th of ``taps`` over output steps [t0, t1): j, the chunk steps [lo, hi)
    that read real input through it, and the input step that chunk step ``lo`` reads."""
    for j, (_, offset, first, stop) in enumerate(taps):
        a, b = min(max(first, t0), t1), min(max(stop, t0), t1)
        yield j, a - t0, b - t0, a * stride + offset


_CHUNK = 1 << 20  # column elements per output-time chunk: 4 MB of f32, built and used in cache


def _scratch(size: int, dtype) -> np.ndarray:
    """Uninitialised scratch for one conv pass, which dies with the pass; tests
    substitute NaN-filled arrays to catch entries read before they are written."""
    return np.empty(size, dtype)


def _chunks(c_in: int, kernel: int, live: int, batch: int, l_out: int, dtype):
    """Yield (t0, t1, block) for the output-time chunks [t0, t1) of a conv, each with a
    (C_in, live, t1-t0, B) view of one scratch array for the ``live`` taps that read real
    input. The chunk length is set by the full ``kernel``, so skipping taps moves no chunk
    boundary and no sum. Last chunk first, so every input step's gradient adds its taps
    in ascending order."""
    step = max(1, _CHUNK // (c_in * kernel * batch))
    flat = _scratch(c_in * live * min(step, l_out) * batch, dtype)
    for t0 in reversed(range(0, l_out, step)):
        t1 = min(t0 + step, l_out)
        yield t0, t1, flat[:c_in * live * (t1 - t0) * batch].reshape(c_in, live, t1 - t0, batch)


def _columns(xt: np.ndarray, taps, stride: int, t0: int, t1: int, block: np.ndarray) -> None:
    """Fill ``block`` with the columns of ``taps`` for output steps [t0, t1) of time-major
    (C_in, L, B) input, zero where a tap reads padding: each tap copies whole B-long input
    rows."""
    for j, lo, hi, i in _tap_spans(taps, stride, t0, t1):
        block[:, j, :lo] = 0
        block[:, j, hi:] = 0
        block[:, j, lo:hi] = xt[:, i::stride][:, :hi - lo]


def _conv_forward(x, weight, bias, stride: int, padding: int, dilation: int, causal: bool):
    """Validate a conv1d call and run its GEMMs: the time-major (C_out, L_out, B)
    result, the tape parents (x, weight[, bias]), and the ``_taps``."""
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
    elif padding < 0:
        raise ContractError(f"conv1d padding must be non-negative; got {padding}")
    else:
        pad_left = pad_right = int(padding)
    l_out = conv_output_length(length, kernel, stride, pad_left + pad_right, dilation)
    if l_out <= 0:
        raise GeometryError(f"conv1d output length {l_out} for L={length}, K={kernel}, "
                            f"stride={stride}, pad=({pad_left},{pad_right}), dilation={dilation}")
    parents = (x, weight)
    if bias is not None:
        parents += (as_tensor(bias, like=x),)
        if parents[2].data.shape != (c_out,):
            raise ShapeError(f"conv1d bias must have shape ({c_out},)")
    taps = list(_taps(length, kernel, stride, dilation, pad_left, l_out))
    xt = np.ascontiguousarray(x.data.transpose(1, 2, 0))  # no copy for a conv output
    w2 = weight.data[:, :, [k for k, *_ in taps]].reshape(c_out, -1)
    out = np.empty((c_out, l_out * batch), np.result_type(w2, xt))
    for t0, t1, block in _chunks(c_in, kernel, len(taps), batch, l_out, out.dtype):
        _columns(xt, taps, stride, t0, t1, block)
        rows = out[:, t0 * batch:t1 * batch]
        np.matmul(w2, block.reshape(-1, (t1 - t0) * batch), out=rows)
        if bias is not None:
            rows += parents[2].data[:, None]
    return out.reshape(c_out, l_out, batch), parents, taps


def _conv_backward(g: np.ndarray, parents: tuple[Tensor, ...], taps, stride: int) -> None:
    """Accumulate the conv gradients from the time-major (C_out, L_out, B) output
    gradient, one output-time chunk at a time in one scratch array: the chunk's columns
    for ``grad_w += g Colsᵀ``, then ``spread`` = Wᵀ g over them, whose rows each tap adds
    into its input steps of the time-major input gradient."""
    x, weight, *bias = parents
    c_out, c_in, kernel = weight.data.shape
    batch, _, length = x.data.shape
    l_out = g.shape[1]
    g2 = np.ascontiguousarray(g).reshape(c_out, l_out * batch)
    if bias and bias[0].requires_grad:
        _accumulate(bias[0], g2.sum(axis=1), fresh=True)
    live = [k for k, *_ in taps]
    w2 = weight.data[:, :, live].reshape(c_out, -1)
    if weight.requires_grad:
        xt = np.ascontiguousarray(x.data.transpose(1, 2, 0))
        grad_w = np.zeros(w2.shape, g2.dtype)
    if x.requires_grad:
        grad = np.zeros((c_in, length, batch), g2.dtype)
    for t0, t1, block in _chunks(c_in, kernel, len(live), batch, l_out, g2.dtype):
        g_chunk = g2[:, t0 * batch:t1 * batch]
        cols = block.reshape(-1, (t1 - t0) * batch)
        if weight.requires_grad:
            _columns(xt, taps, stride, t0, t1, block)
            grad_w += g_chunk @ cols.T
        if x.requires_grad:
            np.matmul(w2.T, g_chunk, out=cols)  # ``spread`` replaces the columns
            for j, lo, hi, i in _tap_spans(taps, stride, t0, t1):
                grad[:, i::stride][:, :hi - lo] += block[:, j, lo:hi]
    if weight.requires_grad:
        full = np.zeros(weight.data.shape, g2.dtype)  # a tap that reads only padding gets 0
        full[:, :, live] = grad_w.reshape(c_out, c_in, len(live))
        _accumulate(weight, full, fresh=True)
    if x.requires_grad:
        _accumulate(x, grad.transpose(2, 0, 1), fresh=True)


def conv1d(x, weight, bias=None, stride: int = 1, padding: int = 0, dilation: int = 1,
           causal: bool = False) -> Tensor:
    """1D convolution over (batch, channels, length) input.

    ``padding`` zeros are added at each end. ``causal=True`` overrides it with
    a left-only pad of (kernel-1)*dilation, so output position t never sees
    inputs mapped after t.

    The work runs time-major: the output is a (B, C_out, L_out) view of a
    (C_out, L_out, B) array, so each (channel, step) row holds B contiguous
    samples and a following per-channel reduction reads contiguous memory.
    Each pass runs over chunks of output steps, one GEMM per chunk against its
    (C_in*K, steps*B) columns (zero where a tap reads padding; a tap that reads
    only padding has no columns and its weight gradient is 0); a chunk's
    columns and the backward's ``spread`` (Wᵀ g) share one cache-sized array.
    """
    out, parents, taps = _conv_forward(x, weight, bias, stride, padding, dilation, causal)

    def backward_fn(g):
        _conv_backward(g.transpose(1, 2, 0), parents, taps, stride)

    return _make(out.transpose(2, 0, 1), parents, backward_fn)


_ROWS = 1 << 18  # elements per group of whole channel rows: 1 MB of f32, normalized in cache


def _row_groups(*arrays: np.ndarray) -> list[slice]:
    """Groups of whole channel rows of about ``_ROWS`` elements each, over (C, values)
    arrays. A reduction over a contiguous row is the same pairwise sum in any group, so
    the bytes do not depend on the grouping; strided rows (a transposed 2-D input) sum
    in memory order, which a narrower group could change, so they run as one group."""
    channels, count = arrays[0].shape
    step = channels
    if all(a.flags.c_contiguous for a in arrays):
        step = max(1, _ROWS // count)
    return [slice(c0, c0 + step) for c0 in range(0, channels, step)]


def _normalize_rows(rows: np.ndarray, out: np.ndarray, gamma: Tensor, beta: Tensor,
                    running_mean, running_var, train: bool, eps: float, momentum: float,
                    relu: bool):
    """Batchnorm of (C, values) rows into ``out``, which may be ``rows`` itself: each
    group of rows is centred into ``out``, squared into a group-sized temporary for its
    variance, scaled to ``xhat`` and overwritten with γ·xhat+β (and its ReLU). Returns
    the mean and 1/std it used, which the backward rebuilds ``xhat`` from; train mode
    updates the running buffers."""
    channels, count = rows.shape
    if gamma.data.shape != (channels,) or beta.data.shape != (channels,):
        raise ShapeError(f"gamma/beta must have shape ({channels},)")
    if train and count < 2:
        raise ContractError("batch statistics need at least two values per channel")
    if train:
        mu, var = np.empty(channels, rows.dtype), np.empty(channels, rows.dtype)
    else:
        mu, var = running_mean.copy(), running_var
    inv = np.empty_like(var)
    for sl in _row_groups(rows, out):
        if train:
            mu[sl] = rows[sl].mean(axis=1)
        r = np.subtract(rows[sl], mu[sl, None], out=out[sl])
        if train:
            var[sl] = np.square(r).mean(axis=1)
        inv[sl] = 1.0 / np.sqrt(var[sl] + eps)
        r *= inv[sl, None]
        r *= gamma.data[sl, None]
        r += beta.data[sl, None]
        if relu:
            np.maximum(r, 0, out=r)
    if train:
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var * (count / (count - 1))
    return mu, inv


def _normalize_rows_backward(rows: np.ndarray, g_rows: np.ndarray, y_rows: np.ndarray | None,
                             mu: np.ndarray, inv: np.ndarray, gamma: Tensor, beta: Tensor,
                             train: bool) -> None:
    """From the rows the forward normalized, rebuild each group's ``xhat`` with the
    saved ``mu`` and ``inv``; mask ``g_rows`` by ``y_rows > 0`` for a ReLU output;
    accumulate the γ and β gradients; and overwrite ``g_rows`` with the input gradient.
    ``xhat`` and the product for Σg·xhat are group-sized temporaries."""
    channels, count = g_rows.shape
    sum_g, sum_gx = np.empty(channels, g_rows.dtype), np.empty(channels, g_rows.dtype)
    scale = gamma.data * inv
    arrays = (rows, g_rows) if y_rows is None else (rows, g_rows, y_rows)
    for sl in _row_groups(*arrays):
        xhat, g = np.subtract(rows[sl], mu[sl, None], out=np.empty_like(rows[sl])), g_rows[sl]
        xhat *= inv[sl, None]  # as the forward rounded it, in the dtype of ``rows``
        if y_rows is not None:
            g *= y_rows[sl] > 0
        # the two reductions every gradient is built from
        sum_g[sl] = g.sum(axis=1)
        sum_gx[sl] = np.multiply(g, xhat).sum(axis=1)
        if train:
            xhat *= (-sum_gx[sl] / count)[:, None]
            g += xhat
            g -= (sum_g[sl] / count)[:, None]
        g *= scale[sl, None]
    if gamma.requires_grad:
        _accumulate(gamma, sum_gx, fresh=True)
    if beta.requires_grad:
        _accumulate(beta, sum_g, fresh=True)


BN_EPS = 1e-5
BN_MOMENTUM = 0.1
WEIGHT_NORM_EPS = 1e-12


def batchnorm1d(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
                train: bool, eps: float = BN_EPS, momentum: float = BN_MOMENTUM) -> Tensor:
    """Per-channel normalization over batch (and time, for 3D input).

    Train mode uses batch statistics and updates the running buffers in
    place; eval mode normalizes with the running statistics. The work runs
    on (C, values) rows in (C, [L,] B) order, which are contiguous when the
    input is the time-major output of ``conv1d``. The node keeps only its
    output and the per-channel mean and 1/std: the backward rebuilds ``xhat``
    from the input, which is a tape parent.
    """
    x = as_tensor(x)
    gamma = as_tensor(gamma, like=x)
    beta = as_tensor(beta, like=x)
    if x.data.ndim not in (2, 3):
        raise ShapeError("batchnorm1d expects (B, C) or (B, C, L) input")
    layout = np.moveaxis(x.data, 0, -1).shape

    def as_rows(a):  # (C, [L,] B) -> (C, count): a view for time-major input and for 2D input
        return np.moveaxis(a, 0, -1).reshape(layout[0], -1)

    rows = as_rows(x.data)
    out = np.empty_like(rows)  # in the memory order of ``rows``
    mu, inv = _normalize_rows(rows, out, gamma, beta, running_mean, running_var, train, eps,
                              momentum, False)

    def backward_fn(g):
        g_rows = as_rows(g)  # ``g`` is this node's own
        _normalize_rows_backward(as_rows(x.data), g_rows, None, mu, inv, gamma, beta, train)
        _accumulate(x, np.moveaxis(g_rows.reshape(layout), -1, 0), fresh=True)

    return _make(np.moveaxis(out.reshape(layout), -1, 0), (x, gamma, beta), backward_fn)


def conv_bn_relu(x, weight, bias, gamma, beta, running_mean: np.ndarray,
                 running_var: np.ndarray, train: bool, stride: int = 1, padding=0) -> Tensor:
    """``relu(batchnorm1d(conv1d(x, weight, bias, stride, padding), ...))`` as one
    tape op, bit-for-bit: the same arithmetic in the same order, run in place over
    groups of channel rows, so the conv result is overwritten by the block output and
    the op allocates one activation-sized array. The node keeps only that output and
    the per-channel mean and 1/std (copies of the running statistics in eval mode).
    Its backward recomputes the conv from the block input, a tape parent, rebuilds
    ``xhat`` from it, takes the ReLU mask from the output and writes the input
    gradient of the batchnorm into ``g``'s own buffer; the recomputed conv is freed
    before the conv's backward runs (recompute rather than store: Chen et al. 2016,
    arXiv:1604.06174). Its conv is ``conv1d``'s. In train mode the batchnorm removes
    the conv bias, so its gradient is exactly 0, not the roundoff of a sum that
    cancels, which Adam would scale to full-size steps."""
    conv, conv_parents, taps = _conv_forward(x, weight, bias, stride, padding, 1, False)
    gamma = as_tensor(gamma, like=conv_parents[0])
    beta = as_tensor(beta, like=conv_parents[0])
    y_rows = conv.reshape(conv.shape[0], -1)
    mu, inv = _normalize_rows(y_rows, y_rows, gamma, beta, running_mean, running_var, train,
                              BN_EPS, BN_MOMENTUM, True)

    def backward_fn(g):
        # ``g`` is this node's own (see ``Tensor.backward``); a time-major one is not copied
        g_rows = np.ascontiguousarray(g.transpose(1, 2, 0)).reshape(y_rows.shape)
        # the recomputed conv is bound to no name here, so it dies before the conv's backward
        _normalize_rows_backward(
            _conv_forward(*conv_parents[:2], bias, stride, padding, 1, False)[0]
            .reshape(y_rows.shape), g_rows, y_rows, mu, inv, gamma, beta, train)
        _conv_backward(g_rows.reshape(conv.shape), conv_parents[:2] if train else conv_parents,
                       taps, stride)
        if train and len(conv_parents) == 3:
            _accumulate(conv_parents[2], np.zeros_like(conv_parents[2].data), fresh=True)

    return _make(conv.transpose(2, 0, 1), conv_parents + (gamma, beta), backward_fn)


def temporal_block(x, weight, bias, down_weight, down_bias, dilation: int, rate: float,
                   rng: np.random.Generator | None, train: bool, stride: int = 1) -> Tensor:
    """A TCN residual block, ``relu(add(dropout(relu(conv1d(x, weight, bias, stride,
    dilation=dilation, causal=True)), rate, rng, train), conv1d(x, down_weight, down_bias,
    stride)))``, as one tape op, bit-for-bit: the same arithmetic in the same order, run
    in place on the time-major causal conv result, which becomes the block output. The
    keep mask is drawn as ``dropout`` draws it, so the generator advances alike. The node
    keeps the output, a bool mask of ``conv > 0`` and, only when dropout is on, the bool
    keep mask. Its backward masks ``g`` in place by ``output > 0`` for the 1x1 ``down``
    conv's backward, then by the keep mask, the dropout scale and the conv mask for the
    causal conv's; nothing is recomputed. Both convs are ``conv1d``'s."""
    out, conv_parents, taps = _conv_forward(x, weight, bias, stride, 0, dilation, True)
    positive = out > 0
    np.maximum(out, 0, out=out)
    keep = _keep_mask((out.shape[2],) + out.shape[:2], rate, rng, train)  # (B, C, L) order
    if keep is not None:
        keep = np.ascontiguousarray(keep.transpose(1, 2, 0))
        scale = np.asarray(1.0, out.dtype) / np.asarray(1.0 - rate, out.dtype)  # as ``dropout``'s
        out *= keep
        out *= scale
    down, down_parents, down_taps = _conv_forward(x, down_weight, down_bias, stride, 0, 1, False)
    out += down
    np.maximum(out, 0, out=out)

    def backward_fn(g):
        # ``g`` is this node's own (see ``Tensor.backward``); a time-major one is not copied
        g = np.ascontiguousarray(g.transpose(1, 2, 0))
        g *= out > 0
        _conv_backward(g, down_parents, down_taps, stride)
        if keep is not None:
            g *= keep
            g *= scale
        g *= positive
        _conv_backward(g, conv_parents, taps, stride)

    return _make(out.transpose(2, 0, 1), conv_parents + down_parents[1:], backward_fn)


def sage_layer(h, adjacency, degree, w_self, w_neigh, bias) -> Tensor:
    """A GraphSAGE layer, ``relu(add(add(matmul(h, w_self), matmul(div(matmul(adjacency,
    h), add(degree, degree == 0)), w_neigh)), bias))``, as one tape op, bit-for-bit: the
    same arithmetic in the same order, summed in place into the self product, which
    becomes the output. ``degree`` is the adjacency's row sum, (..., N, 1), a tape parent
    of its own; a row of zero degree divides by 1, so its neighbour term is zero. The node
    keeps only its output. Its backward takes the ReLU mask from the output and recomputes
    ``A·h`` and the neighbour mean, one (N, N) x (N, F) product per sample; its self term
    is ``matmul``'s."""
    h = as_tensor(h)
    adjacency, degree, w_self, w_neigh, bias = (
        as_tensor(t, like=h) for t in (adjacency, degree, w_self, w_neigh, bias))
    n, inner = h.data.shape[-2:]
    if adjacency.data.shape[-2:] != (n, n) or degree.data.shape[-2:] != (n, 1):
        raise ShapeError(f"sage_layer needs (..., {n}, {n}) adjacency and (..., {n}, 1) "
                         f"degree for {h.data.shape} node features")
    cols = w_self.data.shape[1]

    def neighbour_mean():
        denom = degree.data + (degree.data == 0)
        ah = adjacency.data @ h.data
        return ah, denom, ah / denom

    out = h.data.reshape(-1, inner) @ w_self.data
    out += neighbour_mean()[2].reshape(-1, inner) @ w_neigh.data
    out += bias.data
    np.maximum(out, 0, out=out)
    out = out.reshape(h.data.shape[:-1] + (cols,))

    def backward_fn(g):
        g *= out > 0  # ``g`` is this node's own (see ``Tensor.backward``)
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
        ah, denom, neigh = neighbour_mean()
        g2 = g.reshape(-1, cols)
        _accumulate(w_neigh, neigh.reshape(-1, inner).T @ g2, fresh=True)
        g_neigh = (g2 @ w_neigh.data.T).reshape(neigh.shape)
        _fold_backward(h, w_self, g2)  # the self term, fresh
        if degree.requires_grad:
            _accumulate(degree, _unbroadcast(-g_neigh * ah / (denom * denom),
                                             degree.data.shape), fresh=True)
        g_ah = g_neigh / denom
        if adjacency.requires_grad:
            _accumulate(adjacency, _unbroadcast(g_ah @ np.swapaxes(h.data, -1, -2),
                                                adjacency.data.shape))
        if h.requires_grad:
            _accumulate(h, _unbroadcast(np.swapaxes(adjacency.data, -1, -2) @ g_ah,
                                        h.data.shape))

    return _make(out, (h, adjacency, degree, w_self, w_neigh, bias), backward_fn)


def weight_norm(direction, gain) -> Tensor:
    """Reparameterize a weight as gain * direction / ||direction|| per output channel.

    The norm is taken over all axes but the first; ``WEIGHT_NORM_EPS`` guards
    a zero-norm direction row.
    """
    direction = as_tensor(direction)
    gain = as_tensor(gain, like=direction)
    if direction.data.ndim < 2:
        raise ShapeError("weight_norm expects a direction with at least two dimensions")
    if gain.data.shape != (direction.data.shape[0],):
        raise ShapeError("gain must hold one scalar per output channel")
    axes = tuple(range(1, direction.data.ndim))
    norm = add(sqrt(tsum(square(direction), axis=axes, keepdims=True)), WEIGHT_NORM_EPS)
    gain_col = reshape(gain, (direction.data.shape[0],) + (1,) * (direction.data.ndim - 1))
    return mul(direction, div(gain_col, norm))
