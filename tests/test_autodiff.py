"""Primitive semantics and finite-difference gradient checks for the core."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gradcheck import TOLERANCE, gradcheck, random_projection_loss
from matmul_reference import reference_matmul

from stgnn import autodiff as ad
from stgnn.autodiff import Tensor, conv_output_length
from stgnn.errors import ContractError, GeometryError, ShapeError
from stgnn.evaluation import TrainSettings, _batch_loss, predict_scores
from stgnn.models import ModelSpec, bce_loss, build_model
from stgnn.nn import Adam


@pytest.fixture(autouse=True)
def float64_mode():
    with ad.default_dtype("f64"):
        yield


def safe_normal(rng, shape, margin=1e-3):
    """Normal draws pushed away from zero so relu/clip kinks never straddle h."""
    x = rng.normal(size=shape)
    return x + np.sign(x) * margin


# conv1d ----------------------------------------------------------------------


def test_conv1d_moving_sum():
    x = Tensor([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
    w = Tensor([[[1.0, 1.0, 1.0]]])
    out = ad.conv1d(x, w, Tensor([0.0]))
    np.testing.assert_allclose(out.numpy(), [[[6.0, 9.0, 12.0]]])


def test_conv1d_halves_length_with_kernel7_pad3_stride2():
    x = Tensor(np.zeros((1, 1, 1200)))
    w = Tensor(np.zeros((1, 1, 7)))
    out = ad.conv1d(x, w, stride=2, padding=3)
    assert out.shape == (1, 1, 600)


def test_conv1d_dilation_skips_timesteps():
    x = Tensor([[[1.0, 2.0, 3.0, 4.0]]])
    w = Tensor([[[1.0, 1.0]]])
    out = ad.conv1d(x, w, dilation=2)
    np.testing.assert_allclose(out.numpy(), [[[4.0, 6.0]]])


def test_conv1d_causal_pads_left_only():
    # with causal padding the first output sees only the first input
    x = Tensor([[[1.0, 0.0, 0.0, 0.0]]])
    w = Tensor([[[1.0, 1.0, 1.0]]])
    out = ad.conv1d(x, w, causal=True)
    assert out.shape == (1, 1, 4)
    assert out.numpy()[0, 0, 0] == 1.0  # only x[0] contributes at t=0


def test_conv1d_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 3))))


def test_conv1d_empty_output_raises():
    with pytest.raises(GeometryError):
        ad.conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 7))))


def test_conv1d_length_formula_exhaustive():
    for length in range(1, 33):
        for kernel in range(1, 8):
            for stride in range(1, 4):
                for dilation in range(1, 5):
                    for pad in range(0, 3):
                        expected = conv_output_length(length, kernel, stride, 2 * pad, dilation)
                        x = Tensor(np.zeros((1, 1, length)))
                        w = Tensor(np.zeros((1, 1, kernel)))
                        if expected <= 0:
                            with pytest.raises(GeometryError):
                                ad.conv1d(x, w, stride=stride, padding=pad, dilation=dilation)
                        else:
                            out = ad.conv1d(x, w, stride=stride, padding=pad, dilation=dilation)
                            assert out.shape[2] == expected


@pytest.mark.parametrize("kwargs", [
    {"stride": 1, "padding": 0, "dilation": 1},
    {"stride": 2, "padding": 3, "dilation": 1},
    {"stride": 2, "padding": 0, "dilation": 2},
    {"stride": 1, "padding": 2, "dilation": 3},
    {"stride": 2, "dilation": 2, "causal": True},
])
def test_conv1d_gradients(kwargs):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 2, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        loss = random_projection_loss(lambda: ad.conv1d(x, w, b, **kwargs), rng)
        assert gradcheck(loss, [x, w, b]) < TOLERANCE


# conv1d against a direct nested loop ---------------------------------------------

# the float64_mode fixture holds for every example of a test
PROPERTY = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_conv1d(x, w, b, g, stride, pad_left, pad_right, dilation):
    """Output and the x, W, b gradients of sum(out * g), one product at a time."""
    batch, c_in, length = x.shape
    c_out, _, kernel = w.shape
    l_out = conv_output_length(length, kernel, stride, pad_left + pad_right, dilation)
    out = np.zeros((batch, c_out, l_out))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for n in range(batch):
        for o in range(c_out):
            for t in range(l_out):
                out[n, o, t] = b[o]
                for c in range(c_in):
                    for k in range(kernel):
                        i = t * stride + k * dilation - pad_left
                        if 0 <= i < length:
                            out[n, o, t] += w[o, c, k] * x[n, c, i]
                            gx[n, c, i] += w[o, c, k] * g[n, o, t]
                            gw[o, c, k] += x[n, c, i] * g[n, o, t]
    return out, gx, gw, g.sum(axis=(0, 2))


@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    dilation = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["int", "causal"]))
    if mode == "int":
        padding = draw(st.integers(0, 4))
        pads = (padding, padding)
    else:
        padding = 0
        pads = ((kernel - 1) * dilation, 0)
    span = (kernel - 1) * dilation + 1
    length = draw(st.integers(max(1, span - sum(pads)), span - sum(pads) + 12))
    return {
        "shape": (draw(st.integers(1, 3)), draw(st.sampled_from([1, 1, 2, 3])), length),
        "c_out": draw(st.integers(1, 3)), "kernel": kernel,
        "kwargs": {"stride": stride, "dilation": dilation, "padding": padding,
                   "causal": mode == "causal"},
        "pads": pads, "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _conv_inputs(case):
    rng = np.random.default_rng(case["seed"])
    batch, c_in, length = case["shape"]
    x = rng.normal(size=(batch, c_in, length))
    w = rng.normal(size=(case["c_out"], c_in, case["kernel"]))
    return x, w, rng.normal(size=case["c_out"])


def _conv_with_grads(x_data, w_data, b_data, kwargs, g=None):
    x, w, b = (Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data))
    out = ad.conv1d(x, w, b, **kwargs)
    if g is None:
        g = np.random.default_rng(0).normal(size=out.shape)
    ad.tsum(ad.mul(out, Tensor(g))).backward()
    return out.numpy(), x.grad, w.grad, b.grad, g


def nan_buffers(monkeypatch):
    """Make every conv scratch array start out NaN, so any column or ``spread``
    entry a conv reads without writing it first shows in its results.
    Returns a check that the conv used one."""
    allocated = []

    def scratch(size, dtype):
        allocated.append(size)
        return np.full(size, np.nan, dtype)

    monkeypatch.setattr(ad, "_scratch", scratch)
    return lambda: bool(allocated)


def in_both_chunkings(monkeypatch, check):
    """Run ``check`` with the real chunk size, then with one output step per chunk,
    which puts chunk boundaries inside cases that fit one chunk at the real size."""
    check()
    with monkeypatch.context() as patch:
        patch.setattr(ad, "_CHUNK", 1)
        check()


def in_small_row_groups(monkeypatch, check):
    """Run ``check`` with the real row-group size, then with one channel row per
    group, so batchnorm over more than one channel splits into several groups."""
    check()
    with monkeypatch.context() as patch:
        patch.setattr(ad, "_ROWS", 1)
        check()


# taps that read only padding: every tap (int padding) and the first two (causal)
@example(case={"shape": (2, 2, 1), "c_out": 2, "kernel": 2, "pads": (3, 3), "seed": 0,
               "kwargs": {"stride": 1, "dilation": 4, "padding": 3, "causal": False}})
@example(case={"shape": (2, 3, 3), "c_out": 2, "kernel": 3, "pads": (8, 0), "seed": 1,
               "kwargs": {"stride": 2, "dilation": 4, "padding": 0, "causal": True}})
@PROPERTY
@given(case=conv_cases())
def test_conv1d_matches_nested_loop_reference(case, monkeypatch):
    x, w, b = _conv_inputs(case)
    used_nan_buffers = nan_buffers(monkeypatch)

    def check():
        out, gx, gw, gb, g = _conv_with_grads(x, w, b, case["kwargs"])
        assert used_nan_buffers()
        expected = reference_conv1d(x, w, b, g, case["kwargs"]["stride"], *case["pads"],
                                    case["kwargs"]["dilation"])
        for got, want in zip((out, gx, gw, gb), expected):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    in_both_chunkings(monkeypatch, check)


@PROPERTY
@given(conv_cases())
def test_conv1d_transposed_view_input_matches_contiguous(case):
    x, w, b = _conv_inputs(case)
    view = np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)  # channel-major memory
    assert not view.flags.c_contiguous or min(x.shape[:2]) == 1
    contiguous = _conv_with_grads(x, w, b, case["kwargs"])
    strided = _conv_with_grads(view, w, b, case["kwargs"], g=contiguous[-1])
    for got, want in zip(strided, contiguous):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv1d_rejects_negative_padding():
    with pytest.raises(ContractError):
        ad.conv1d(Tensor(np.zeros((1, 1, 8))), Tensor(np.zeros((1, 1, 3))), padding=-1)


# batchnorm ---------------------------------------------------------------------


def _bn_buffers(channels):
    return np.zeros(channels), np.ones(channels)


def test_batchnorm_normalizes_pair():
    rm, rv = _bn_buffers(1)
    x = Tensor([[1.0], [3.0]])
    out = ad.batchnorm1d(x, Tensor([1.0]), Tensor([0.0]), rm, rv, train=True, eps=0.0)
    np.testing.assert_allclose(out.numpy(), [[-1.0], [1.0]])


def test_batchnorm_affine_transform():
    rm, rv = _bn_buffers(1)
    x = Tensor([[1.0], [3.0]])
    out = ad.batchnorm1d(x, Tensor([2.0]), Tensor([5.0]), rm, rv, train=True, eps=0.0)
    np.testing.assert_allclose(out.numpy(), [[3.0], [7.0]])


def test_batchnorm_train_output_statistics():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(2.0, 3.0, size=(4, 3, 8)))
    rm, rv = _bn_buffers(3)
    out = ad.batchnorm1d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv,
                         train=True, eps=0.0).numpy()
    np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-5)


def test_batchnorm_degenerate_batch_raises():
    rm, rv = _bn_buffers(2)
    with pytest.raises(ContractError):
        ad.batchnorm1d(Tensor(np.zeros((1, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       rm, rv, train=True)


def test_batchnorm_eval_uses_running_stats():
    rm = np.array([1.0])
    rv = np.array([4.0])
    x = Tensor([[3.0], [5.0]])
    out = ad.batchnorm1d(x, Tensor([1.0]), Tensor([0.0]), rm, rv, train=False, eps=0.0)
    np.testing.assert_allclose(out.numpy(), [[1.0], [2.0]])


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_gradients(train):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        gamma = Tensor(rng.normal(size=2), requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)
        rm = rng.normal(size=2)
        rv = rng.uniform(0.5, 2.0, size=2)
        loss = random_projection_loss(
            lambda: ad.batchnorm1d(x, gamma, beta, rm, rv, train=train), rng)
        assert gradcheck(loss, [x, gamma, beta]) < TOLERANCE


# batchnorm1d against the textbook formulas -----------------------------------------


def reference_batchnorm1d(x, gamma, beta, rm, rv, g, train, eps=1e-5, momentum=0.1):
    """Ioffe & Szegedy (2015): output, x/gamma/beta gradients of sum(out * g) by
    the chain rule through the batch mean and variance, and the new buffers."""
    axes = (0,) if x.ndim == 2 else (0, 2)
    shape = (1, -1) + (1,) * (x.ndim - 2)
    n = x.size // x.shape[1]
    if train:
        mu, var = x.mean(axis=axes), x.var(axis=axes)
        rm = (1 - momentum) * rm + momentum * mu
        rv = (1 - momentum) * rv + momentum * var * n / (n - 1)
    else:
        mu, var = rm, rv
    std = np.sqrt(var + eps).reshape(shape)
    centered = x - mu.reshape(shape)
    xhat = centered / std
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    dxhat = g * gamma.reshape(shape)
    if train:
        dvar = (dxhat * centered).sum(axis=axes) * -0.5 * (var + eps) ** -1.5
        dmu = (-dxhat / std).sum(axis=axes) + dvar * (-2.0 * centered).mean(axis=axes)
        gx = dxhat / std + dvar.reshape(shape) * 2.0 * centered / n + dmu.reshape(shape) / n
    else:
        gx = dxhat / std
    return out, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes), rm, rv


@st.composite
def batchnorm_cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    shape = (draw(st.integers(2, 5)), draw(st.integers(1, 4)))
    if ndim == 3:
        shape += (draw(st.integers(1, 6)),)
    return {"shape": shape, "train": draw(st.booleans()),
            "seed": draw(st.integers(0, 2**32 - 1))}


def _bn_inputs(case):
    rng = np.random.default_rng(case["seed"])
    channels = case["shape"][1]
    return (rng.normal(1.0, 2.0, size=case["shape"]), rng.normal(size=channels),
            rng.normal(size=channels), rng.normal(size=channels),
            rng.uniform(0.5, 2.0, size=channels))


def _bn_with_grads(x_data, gamma_data, beta_data, rm, rv, train, g=None):
    x, gamma, beta = (Tensor(a, requires_grad=True) for a in (x_data, gamma_data, beta_data))
    out = ad.batchnorm1d(x, gamma, beta, rm, rv, train=train)
    if g is None:
        g = np.random.default_rng(1).normal(size=out.shape)
    ad.tsum(ad.mul(out, Tensor(g))).backward()
    return out.numpy(), x.grad, gamma.grad, beta.grad, rm, rv, g


@PROPERTY
@given(batchnorm_cases())
def test_batchnorm_matches_textbook_formulas(case):
    x, gamma, beta, rm, rv = _bn_inputs(case)
    got = _bn_with_grads(x, gamma, beta, rm.copy(), rv.copy(), case["train"])
    expected = reference_batchnorm1d(x, gamma, beta, rm, rv, got[-1], case["train"])
    for value, want in zip(got, expected):
        np.testing.assert_allclose(value, want, rtol=1e-9, atol=1e-9)


@PROPERTY
@given(batchnorm_cases())
def test_batchnorm_transposed_view_input_matches_contiguous(case):
    x, gamma, beta, rm, rv = _bn_inputs(case)
    view = np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)  # channel-major memory
    contiguous = _bn_with_grads(x, gamma, beta, rm.copy(), rv.copy(), case["train"])
    strided = _bn_with_grads(view, gamma, beta, rm.copy(), rv.copy(), case["train"],
                             g=contiguous[-1])
    for got, want in zip(strided, contiguous):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# conv_bn_relu against the three ops it fuses ---------------------------------------


@st.composite
def conv_bn_relu_cases(draw):
    kernel = draw(st.integers(1, 7))
    return {"batch": draw(st.integers(1, 4)), "c_in": draw(st.integers(1, 5)),
            "c_out": draw(st.integers(1, 6)), "kernel": kernel,
            "length": draw(st.integers(kernel, kernel + 12)),
            "stride": draw(st.integers(1, 3)), "padding": draw(st.integers(0, 3)),
            "train": draw(st.booleans()), "dtype": draw(st.sampled_from(["f32", "f64"])),
            "x_grad": draw(st.booleans()), "seed": draw(st.integers(0, 2**32 - 1))}


def _block_with_grads(case, fused):
    """Output, running buffers after the call, and x/W/b/γ/β gradients of one block."""
    rng = np.random.default_rng(case["seed"])
    c_out = case["c_out"]
    with ad.default_dtype(case["dtype"]):
        x = Tensor(rng.normal(size=(case["batch"], case["c_in"], case["length"])),
                   requires_grad=case["x_grad"])
        w, b, gamma, beta = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in
                             ((c_out, case["c_in"], case["kernel"]), c_out, c_out, c_out))
        dtype = ad.get_default_dtype()
        rm = rng.normal(size=c_out).astype(dtype)
        rv = rng.uniform(0.5, 2.0, size=c_out).astype(dtype)
        conv = {"stride": case["stride"], "padding": case["padding"]}
        if fused:
            out = ad.conv_bn_relu(x, w, b, gamma, beta, rm, rv, case["train"], **conv)
        else:
            # train-mode batchnorm removes the bias, which the fused op's exact 0 reflects
            bias = Tensor(b.data) if case["train"] else b
            out = ad.relu(ad.batchnorm1d(ad.conv1d(x, w, bias, **conv), gamma, beta, rm, rv,
                                         train=case["train"]))
            if case["train"]:
                b.grad = np.zeros_like(b.data)
        probe = Tensor(np.random.default_rng(case["seed"] + 1).normal(size=out.shape))
        ad.tsum(ad.mul(out, probe)).backward()
    return [out.data, rm, rv] + [t.grad for t in (x, w, b, gamma, beta)]


@PROPERTY
@given(case=conv_bn_relu_cases())
def test_conv_bn_relu_is_bit_equal_to_relu_batchnorm_conv(case, monkeypatch):
    l_out = conv_output_length(case["length"], case["kernel"], case["stride"],
                               2 * case["padding"], 1)
    if case["train"] and case["batch"] * l_out < 2:
        for fused in (True, False):
            with pytest.raises(ContractError, match="two values per channel"):
                _block_with_grads(case, fused)
        return
    want = _block_with_grads(case, fused=False)

    def check():
        got = _block_with_grads(case, fused=True)
        assert (got[3] is None) == (want[3] is None) == (not case["x_grad"])
        for value, expected in zip(got, want):
            if expected is not None:
                assert (value.dtype, value.shape) == (expected.dtype, expected.shape)
                assert value.tobytes() == expected.tobytes()

    in_small_row_groups(monkeypatch, check)


def reference_conv_bn_relu(case):
    """``_block_with_grads`` for the fused block, with the conv and its
    gradients from the nested loop and batchnorm and ReLU as separate ops."""
    rng = np.random.default_rng(case["seed"])
    c_out, stride, pad = case["c_out"], case["stride"], case["padding"]
    x = rng.normal(size=(case["batch"], case["c_in"], case["length"]))
    w, b, gamma, beta = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in
                         ((c_out, case["c_in"], case["kernel"]), c_out, c_out, c_out))
    rm = rng.normal(size=c_out)
    rv = rng.uniform(0.5, 2.0, size=c_out)
    l_out = conv_output_length(case["length"], case["kernel"], stride, 2 * pad, 1)
    no_grad = np.zeros((case["batch"], c_out, l_out))
    conv = Tensor(reference_conv1d(x, w.data, b.data, no_grad, stride, pad, pad, 1)[0],
                  requires_grad=True)
    out = ad.relu(ad.batchnorm1d(conv, gamma, beta, rm, rv, train=case["train"]))
    probe = Tensor(np.random.default_rng(case["seed"] + 1).normal(size=out.shape))
    ad.tsum(ad.mul(out, probe)).backward()
    _, gx, gw, gb = reference_conv1d(x, w.data, b.data, conv.grad, stride, pad, pad, 1)
    if case["train"]:
        gb = np.zeros_like(gb)
    return [out.data, rm, rv, gx if case["x_grad"] else None, gw, gb, gamma.grad, beta.grad]


# the only tap reads only padding
@example(case={"batch": 2, "c_in": 2, "c_out": 2, "kernel": 1, "length": 1, "stride": 2,
               "padding": 3, "train": False, "dtype": "f64", "x_grad": True, "seed": 0})
@PROPERTY
@given(case=conv_bn_relu_cases())
def test_conv_bn_relu_matches_nested_loop_conv_then_batchnorm_and_relu(case, monkeypatch):
    case = {**case, "dtype": "f64"}
    l_out = conv_output_length(case["length"], case["kernel"], case["stride"],
                               2 * case["padding"], 1)
    if case["train"] and case["batch"] * l_out < 2:
        return
    used_nan_buffers = nan_buffers(monkeypatch)
    expected = reference_conv_bn_relu(case)

    def check():
        got = _block_with_grads(case, fused=True)
        assert used_nan_buffers()
        for value, want in zip(got, expected):
            if want is None:
                assert value is None
            else:
                np.testing.assert_allclose(value, want, rtol=1e-10, atol=1e-10)

    in_both_chunkings(monkeypatch, lambda: in_small_row_groups(monkeypatch, check))


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_conv_bn_relu_train_mode_bias_gradient_is_exactly_zero(dtype):
    rng = np.random.default_rng(4)
    with ad.default_dtype(dtype):
        x = Tensor(rng.normal(size=(4, 3, 20)))
        w = Tensor(rng.normal(size=(5, 3, 7)), requires_grad=True)
        b, gamma, beta = (Tensor(rng.normal(size=5), requires_grad=True) for _ in range(3))
        for train in (True, False):
            rm, rv = np.zeros(5, w.data.dtype), np.ones(5, w.data.dtype)
            out = ad.conv_bn_relu(x, w, b, gamma, beta, rm, rv, train, stride=2, padding=3)
            b.grad = None
            ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
            assert b.grad.dtype == w.data.dtype
            assert not b.grad.any() if train else b.grad.all()


def test_no_conv_scratch_outlives_a_training_step_or_a_scoring_pass(monkeypatch):
    """Each conv pass allocates one chunk-sized scratch array and drops it when
    it returns, so neither a step nor a large scoring pass leaves one to hold."""
    alive, sizes = [], []

    def scratch(size, dtype):
        array = np.empty(size, dtype)
        alive.append(weakref.ref(array))
        sizes.append(size)
        return array

    def no_scratch_left():
        return all(ref() is None for ref in alive)

    monkeypatch.setattr(ad, "_scratch", scratch)
    monkeypatch.setattr(ad, "_CHUNK", 4096)
    rng = np.random.default_rng(0)
    model = build_model(ModelSpec.from_name("mean_CNN", seed=1), 6, 64)
    features = rng.normal(size=(32, 6, 64))
    labels = np.arange(4) % 2

    def step():
        bce_loss(model(features[:4], None, train=True)[0], labels).backward()
        model.zero_grad()

    step()
    assert sizes and no_scratch_left()
    predict_scores(model, features, None)
    assert no_scratch_left()
    step()
    assert no_scratch_left()
    # chunk-sized: at most one output step of the last block when scoring 32 samples
    assert max(sizes) <= 32 * 7 * (32 * 6)


def test_eval_block_backward_uses_the_statistics_saved_by_its_forward():
    """An eval-mode node rebuilds ``xhat`` in its backward. A train-mode forward
    between its forward and its backward moves the running buffers, which must
    not reach its gradients."""
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 2, 15)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2, 5)), requires_grad=True)
    b, gamma, beta = (Tensor(rng.normal(size=4), requires_grad=True) for _ in range(3))
    probe = Tensor(rng.normal(size=(3, 4, 8)))
    other = rng.normal(3.0, 2.0, size=(3, 2, 15))

    def eval_gradients(train_forward_between):
        rm, rv = np.zeros(4), np.ones(4)
        loss = ad.tsum(ad.mul(ad.conv_bn_relu(x, w, b, gamma, beta, rm, rv, False, stride=2,
                                              padding=2), probe))
        if train_forward_between:
            ad.conv_bn_relu(other, w, b, gamma, beta, rm, rv, True, stride=2, padding=2)
            assert rm.any() and (rv != 1).all()
        for t in (x, w, b, gamma, beta):
            t.grad = None
        loss.backward()
        return [t.grad.tobytes() for t in (x, w, b, gamma, beta)]

    assert eval_gradients(True) == eval_gradients(False)


def test_backward_frees_each_recomputed_conv_before_its_conv_gradient(monkeypatch):
    """Each block's backward recomputes its conv output, and drops it before the
    conv's backward allocates the input gradient; no recomputed array outlives
    ``Tensor.backward``."""
    forward, backward = ad._conv_forward, ad._conv_backward
    recomputed, all_freed_at_conv_backward = [], []
    in_backward = False

    def recording_forward(*args):
        result = forward(*args)
        if in_backward:
            recomputed.append(weakref.ref(result[0].base))
        return result

    def checking_backward(*args):
        all_freed_at_conv_backward.append(all(ref() is None for ref in recomputed))
        return backward(*args)

    monkeypatch.setattr(ad, "_conv_forward", recording_forward)
    monkeypatch.setattr(ad, "_conv_backward", checking_backward)
    model = build_model(ModelSpec.from_name("mean_CNN", seed=1), 6, 64)
    features = np.random.default_rng(0).normal(size=(4, 6, 64))
    loss = bce_loss(model(features, None, train=True)[0], np.arange(4) % 2)
    in_backward = True
    loss.backward()
    assert len(recomputed) == len(all_freed_at_conv_backward) == 4
    assert all(all_freed_at_conv_backward)
    assert all(ref() is None for ref in recomputed)


@pytest.mark.parametrize("train", [True, False])
def test_conv_bn_relu_gradients(train):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 2, 9)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b, gamma, beta = (Tensor(rng.normal(size=3), requires_grad=True) for _ in range(3))
        rm = rng.normal(size=3)
        rv = rng.uniform(0.5, 2.0, size=3)
        loss = random_projection_loss(
            lambda: ad.conv_bn_relu(x, w, b, gamma, beta, rm, rv, train, stride=2, padding=1),
            rng)
        assert gradcheck(loss, [x, w, b, gamma, beta]) < TOLERANCE


# weight norm -------------------------------------------------------------------


def test_weight_norm_unit_direction():
    out = ad.weight_norm(Tensor([[3.0, 4.0]]), Tensor([1.0]))
    np.testing.assert_allclose(out.numpy(), [[0.6, 0.8]], atol=1e-9)


def test_weight_norm_gain_scales():
    out = ad.weight_norm(Tensor([[3.0, 4.0]]), Tensor([10.0]))
    np.testing.assert_allclose(out.numpy(), [[6.0, 8.0]], atol=1e-8)


def test_weight_norm_zero_direction_guarded():
    out = ad.weight_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(2)))
    assert np.all(np.isfinite(out.numpy()))


def test_weight_norm_gradients():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        v = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
        loss = random_projection_loss(lambda: ad.weight_norm(v, g), rng)
        assert gradcheck(loss, [v, g]) < TOLERANCE


# simple primitives -------------------------------------------------------------


def test_softmax_rows_symmetric():
    np.testing.assert_allclose(ad.softmax_rows(Tensor([0.0, 0.0])).numpy(), [0.5, 0.5])


def test_softmax_rows_properties():
    rng = np.random.default_rng(0)
    out = ad.softmax_rows(Tensor(rng.normal(size=(5, 7)))).numpy()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(out > 0) and np.all(out < 1)


def test_relu_values():
    np.testing.assert_allclose(ad.relu(Tensor([-1.0, 2.0])).numpy(), [0.0, 2.0])


def test_dropout_rate_zero_is_identity():
    x = Tensor([1.0, 2.0])
    assert ad.dropout(x, 0.0, train=True) is x


def test_dropout_eval_is_identity():
    x = Tensor([1.0, 2.0])
    assert ad.dropout(x, 0.5, rng=np.random.default_rng(0), train=False) is x


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones(10000))
    out = ad.dropout(x, 0.4, rng=rng, train=True).numpy()
    kept = out != 0
    np.testing.assert_allclose(out[kept], 1.0 / 0.6)
    assert abs(kept.mean() - 0.6) < 0.03


def test_dropout_invalid_rate():
    with pytest.raises(ContractError):
        ad.dropout(Tensor([1.0]), 1.0, train=True)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


# matmul against a per-sample loop -------------------------------------------------

# which operands require a gradient; with neither there is no tape to check
GRAD_FLAGS = [(True, True), (True, False), (False, True)]


@st.composite
def stack_times_weight_cases(draw):
    return {
        "lead": tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))),  # rank 3 or 4
        "n": draw(st.integers(1, 4)), "k": draw(st.integers(1, 4)), "m": draw(st.integers(1, 4)),
        "transposed": draw(st.booleans()),
        "upstream": draw(st.sampled_from(["dense", "broadcast"])),
        "grads": draw(st.sampled_from(GRAD_FLAGS)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _matmul_with_grads(a_data, b_data, grads, g):
    """Run matmul and hand its backward the upstream gradient ``g``."""
    a = Tensor(a_data, requires_grad=grads[0])
    b = Tensor(b_data, requires_grad=grads[1])
    out = ad.matmul(a, b)
    out._backward(g)
    return out.numpy(), a.grad, b.grad


def _assert_matches_reference(got, a_data, b_data, grads, g):
    out, ga, gb = got
    want_out, want_ga, want_gb = reference_matmul(a_data, b_data, g)
    np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
    for flag, grad, want in zip(grads, (ga, gb), (want_ga, want_gb)):
        if flag:
            assert grad.shape == want.shape
            np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12)
        else:
            assert grad is None


@PROPERTY
@given(stack_times_weight_cases())
def test_matmul_stack_times_weight_matches_per_sample_loop(case):
    rng = np.random.default_rng(case["seed"])
    lead, n, k = case["lead"], case["n"], case["k"]
    a_data = rng.normal(size=lead + (n, k))
    if case["transposed"]:  # the strided view transpose_last2 makes
        a_data = np.ascontiguousarray(np.swapaxes(a_data, -1, -2)).swapaxes(-1, -2)
        assert not a_data.flags.c_contiguous or min(n, k) == 1
    b_data = rng.normal(size=(k, case["m"]))
    out_shape = lead + (n, case["m"])
    if case["upstream"] == "dense":
        g = rng.normal(size=out_shape)
    else:  # read-only, as tsum's backward hands it over
        g = np.broadcast_to(rng.normal(size=out_shape[1:]), out_shape)
    got = _matmul_with_grads(a_data, b_data, case["grads"], g)
    _assert_matches_reference(got, a_data, b_data, case["grads"], g)


# leading shapes of (a, b) off the stack-times-weight rule, and 2-D @ 2-D
OTHER_LEADS = [((), ()), ((3,), (3,)), ((2, 3), (2, 3)), ((), (3,)), ((1,), (3,)),
               ((3,), (1,)), ((2, 1), (3,))]


@PROPERTY
@given(st.sampled_from(OTHER_LEADS), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(GRAD_FLAGS), st.integers(0, 2**32 - 1))
def test_matmul_other_shapes_match_per_sample_loop(leads, n, k, m, grads, seed):
    rng = np.random.default_rng(seed)
    a_data = rng.normal(size=leads[0] + (n, k))
    b_data = rng.normal(size=leads[1] + (k, m))
    g = rng.normal(size=np.broadcast_shapes(leads[0], leads[1]) + (n, m))
    got = _matmul_with_grads(a_data, b_data, grads, g)
    _assert_matches_reference(got, a_data, b_data, grads, g)
    if leads == ((), ()):  # one GEMM per pass, as plain numpy computes it
        out, ga, gb = got
        assert out.tobytes() == (a_data @ b_data).tobytes()
        assert grads[0] is False or ga.tobytes() == (g @ b_data.T).tobytes()
        assert grads[1] is False or gb.tobytes() == (a_data.T @ g).tobytes()


def test_flattened_time_major_input_gets_a_time_major_gradient():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 5, 6)).transpose(2, 0, 1), requires_grad=True)
    w = Tensor(rng.normal(size=(20, 3)), requires_grad=True)
    g = rng.normal(size=(6, 3))
    ad.tsum(ad.mul(ad.matmul(ad.flatten_rows(x), w), Tensor(g))).backward()
    assert x.grad.transpose(1, 2, 0).flags.c_contiguous  # no transposing copy
    np.testing.assert_allclose(x.grad, (g @ w.data.T).reshape(x.data.shape), rtol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.reshape(6, 20).T @ g, rtol=1e-12)


def test_matmul_weight_gradient_builds_no_per_sample_stack():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(32, 20, 256)))
    w = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
    out = ad.matmul(x, w)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.grad.shape == (256, 256)
    assert peak < 32 * 256 * 256 * w.data.itemsize


# backward mechanics --------------------------------------------------------------


def test_backward_square():
    w = Tensor(3.0, requires_grad=True)
    loss = ad.mul(w, w)
    loss.backward()
    np.testing.assert_allclose(w.grad, 6.0)


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        ad.mul(w, w).backward()


def test_detached_inputs_receive_no_grad():
    w = Tensor(3.0, requires_grad=True)
    frozen = Tensor(w.data)
    loss = ad.mul(ad.mul(w, w), frozen)
    loss.backward()
    assert frozen.grad is None
    np.testing.assert_allclose(w.grad, 18.0)


def test_grad_accumulates_over_reuse():
    w = Tensor(2.0, requires_grad=True)
    loss = ad.add(ad.mul(w, w), w)  # w^2 + w -> 2w + 1 = 5
    loss.backward()
    np.testing.assert_allclose(w.grad, 5.0)


def retaining_backward(self):
    """``Tensor.backward`` without the tape release: every node keeps its
    closure, parents and ``grad`` until the loss is dropped."""
    order, seen, stack = [], set(), [(self, False)]
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


def ring_batch(b, n):
    ring = np.roll(np.eye(n, dtype=np.float32), 1, axis=1)
    return np.tile(ring + ring.T, (b, 1, 1))


def one_step_loss(model, seed=0, weights=(1.0, 1.0)):
    """The training loss of one (4, N, T) batch, built by ``_batch_loss`` with
    the (link, entropy) pooling weights ``weights``."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(4, model.n_nodes, model.input_length)).astype(np.float32)
    labels = np.array([0.0, 1.0, 1.0, 0.0])
    settings = TrainSettings(lr=1e-3, weight_decay=0.0, dropout=0.0, epochs=1, batch_size=4,
                             link_weight=weights[0], entropy_weight=weights[1])
    loss, _ = _batch_loss(model, features, ring_batch(4, model.n_nodes), labels, settings,
                          train=True)
    return loss


def interior_activations(loss):
    """Weak references to the array data of every tape node behind ``loss``
    (a full reduction holds a numpy scalar, which takes no weak reference)."""
    refs, seen, stack = [], {id(loss)}, list(loss._parents)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            if isinstance(node.data, np.ndarray):
                refs.append(weakref.ref(node.data))
            stack.extend(node._parents)
    return refs


def test_backward_frees_every_activation_while_the_loss_is_still_bound():
    model = build_model(ModelSpec.from_name("mean_CNN", seed=1), 6, 32)
    loss = one_step_loss(model)
    activations = interior_activations(loss)
    assert len(activations) > 20 and all(ref() is not None for ref in activations)
    loss.backward()
    assert [ref() for ref in activations if ref() is not None] == []
    assert loss.grad == 1.0 and loss._parents == ()
    assert all(p.grad is not None for p in model.parameters())


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("name", ["mean_CNN", "mean_CNN_GCN5", "diff5_TCN"])
def test_consuming_backward_leaves_every_gradient_byte_equal(name, dtype, monkeypatch):
    def step_gradients():
        with ad.default_dtype(dtype):
            model = build_model(ModelSpec.from_name(name, seed=4), 6, 32)
            one_step_loss(model, seed=2).backward()
        return {key: p.grad.tobytes() for key, p in model.named_parameters()}

    consumed = step_gradients()
    monkeypatch.setattr(Tensor, "backward", retaining_backward)
    assert step_gradients() == consumed


@pytest.mark.parametrize("name,weights", [
    pytest.param(name, weights, id=name + suffix)
    for name in ["mean_CNN", "mean_CNN_GCN5", "mean_TCN", "diff5_CNN", "diff5_TCN"]
    for weights, suffix in [((0.0, 0.0), ""), ((1.0, 0.5), "-weighted"),
                            ((1.0, 0.0), "-link"), ((0.0, 0.5), "-entropy")]])
def test_every_closure_gets_a_gradient_no_other_node_or_parameter_holds(name, weights,
                                                                         monkeypatch):
    """The rule ``Tensor.backward`` states and ``conv_bn_relu`` relies on to
    mask its incoming gradient in place, over one full training step; and
    that step records only nodes backward reaches, so every closure runs."""
    nodes, checked = [], []
    make = ad._make

    def checking_make(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        if out._backward is not None:
            def closure(g, out=out, run=out._backward):
                held = [n.grad for n in nodes if n is not out and n.grad is not None]
                held += [p.grad for p in params if p.grad is not None]
                assert not any(np.shares_memory(g, other) for other in held)
                checked.append(out)
                run(g)

            out._backward = closure
            nodes.append(out)
        return out

    monkeypatch.setattr(ad, "_make", checking_make)
    with ad.default_dtype("f32"):
        model = build_model(ModelSpec.from_name(name, seed=3), 6, 32)
        params = model.parameters()
        optimizer = Adam(params, lr=1e-3)
        loss = one_step_loss(model, weights=weights)
        model.zero_grad()
        loss.backward()
        optimizer.step()
    assert len(checked) > 20
    assert sorted(map(id, checked)) == sorted(map(id, nodes))


def test_backward_through_a_consumed_tape_raises_and_changes_nothing():
    w = Tensor(3.0, requires_grad=True)
    v = Tensor(2.0, requires_grad=True)
    square = ad.mul(w, w)
    loss = ad.mul(square, w)
    loss.backward()
    with pytest.raises(ContractError, match="tape already consumed"):
        loss.backward()
    with pytest.raises(ContractError, match="tape already consumed"):
        ad.mul(square, v).backward()  # a new loss over a consumed node
    np.testing.assert_allclose(w.grad, 27.0)
    assert v.grad is None  # the refused walk ran no closure


def test_no_tape_records_nothing_and_is_restored_after_an_exception():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_tape():
            out = ad.relu(ad.mul(w, w))
            assert (out.requires_grad, out._backward, out._parents) == (False, None, ())
            with ad.no_tape():
                pass
            assert not ad.mul(w, w).requires_grad  # leaving the inner block kept no-tape
            raise RuntimeError("inside")
    out = ad.mul(w, w)
    assert out.requires_grad and out._backward is not None


# gradient checks for the remaining primitives -------------------------------------

# leaf tensors per op, and the op applied to them (rebuilt on every evaluation)
LEAVES = {
    "add": lambda rng: [Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True),
                        Tensor(rng.normal(size=(3, 2)), requires_grad=True)],
    "sub": lambda rng: LEAVES["add"](rng),
    "mul": lambda rng: LEAVES["add"](rng),
    "div": lambda rng: LEAVES["add"](rng),
    "matmul": lambda rng: [Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True),
                           Tensor(rng.normal(size=(2, 3)), requires_grad=True)],
    "relu": lambda rng: [Tensor(safe_normal(rng, (4, 3, 2)), requires_grad=True)],
    "sigmoid": lambda rng: [Tensor(rng.normal(size=(4, 3)), requires_grad=True)],
    "softmax_rows": lambda rng: [Tensor(rng.normal(size=(4, 5)), requires_grad=True)],
    "log": lambda rng: [Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)],
    "sqrt": lambda rng: [Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)],
    "sum": lambda rng: [Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)],
    "mean": lambda rng: [Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)],
    "reshape": lambda rng: [Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)],
    "transpose": lambda rng: [Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)],
    "concat": lambda rng: [Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                           Tensor(rng.normal(size=(3, 4)), requires_grad=True)],
    "clip": lambda rng: [Tensor(safe_normal(rng, (4, 3), margin=0.01), requires_grad=True)],
}

APPLY = {
    "add": lambda t: ad.add(t[0], t[1]),
    "sub": lambda t: ad.sub(t[0], t[1]),
    "mul": lambda t: ad.mul(t[0], t[1]),
    "div": lambda t: ad.div(t[0], ad.add(ad.square(t[1]), 0.5)),
    "matmul": lambda t: ad.matmul(t[0], t[1]),
    "relu": lambda t: ad.relu(t[0]),
    "sigmoid": lambda t: ad.sigmoid(t[0]),
    "softmax_rows": lambda t: ad.softmax_rows(t[0]),
    "log": lambda t: ad.log(t[0]),
    "sqrt": lambda t: ad.sqrt(t[0]),
    "sum": lambda t: ad.tsum(t[0], axis=1, keepdims=True),
    "mean": lambda t: ad.tmean(t[0], axis=(0, 2)),
    "reshape": lambda t: ad.reshape(t[0], (6, 4)),
    "transpose": lambda t: ad.transpose_last2(t[0]),
    "concat": lambda t: ad.concat([t[0], t[1]], axis=1),
    "clip": lambda t: ad.clip(t[0], -0.8, 0.8),
}


@pytest.mark.parametrize("name", sorted(APPLY))
def test_primitive_gradients(name):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        wrt = LEAVES[name](rng)
        loss_fn = random_projection_loss(lambda: APPLY[name](wrt), rng)
        assert gradcheck(loss_fn, wrt) < TOLERANCE


def test_dropout_gradient_with_fixed_mask():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        probe = rng.normal(size=(4, 5))

        def loss_fn():
            masked = ad.dropout(x, 0.4, rng=np.random.default_rng(seed + 1), train=True)
            return ad.tsum(ad.mul(masked, ad.as_tensor(probe, like=masked)))

        assert gradcheck(loss_fn, [x]) < TOLERANCE
