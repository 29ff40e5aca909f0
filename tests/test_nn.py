"""Layer containers, initialization and the Adam optimiser."""

import numpy as np
import pytest

from gradcheck import TOLERANCE, gradcheck, random_projection_loss

from stgnn import autodiff as ad
from stgnn.autodiff import Tensor
from stgnn.errors import ShapeError
from stgnn.nn import (Adam, BatchNorm1d, Conv1d, Dropout, Linear, Module,
                      WeightNormConv1d)


def test_module_discovers_parameters_in_order():
    class Toy(Module):
        def __init__(self):
            self.first = Tensor([1.0], requires_grad=True)
            self.inner = Linear(2, 3, np.random.default_rng(0))
            self.stack = [Linear(2, 2, np.random.default_rng(1)) for _ in range(2)]

    names = [name for name, _ in Toy().named_parameters()]
    assert names == ["first", "inner.weight", "inner.bias",
                     "stack.0.weight", "stack.0.bias", "stack.1.weight", "stack.1.bias"]


def test_state_dict_round_trip():
    layer = Linear(3, 2, np.random.default_rng(0))
    state = layer.state_dict()
    layer.weight.data += 1.0
    layer.load_state_dict(state)
    np.testing.assert_array_equal(layer.weight.data, state["weight"])


def test_load_state_dict_rejects_wrong_keys():
    layer = Linear(3, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer.load_state_dict({"weight": np.zeros((3, 2))})


def test_batchnorm_state_includes_running_stats():
    bn = BatchNorm1d(4)
    keys = set(bn.state_dict())
    assert keys == {"gamma", "beta", "running_mean", "running_var"}
    assert bn.parameter_count() == 8


def test_linear_init():
    rng = np.random.default_rng(0)
    layer = Linear(16, 8, rng)
    bound = 1.0 / np.sqrt(16)
    assert np.all(np.abs(layer.weight.data) <= bound)
    np.testing.assert_array_equal(layer.bias.data, 0.0)


def test_conv_init_normal_and_zero_bias():
    layer = Conv1d(4, 8, 7, np.random.default_rng(0))
    assert abs(float(layer.weight.data.std()) - 0.01) < 0.002
    np.testing.assert_array_equal(layer.bias.data, 0.0)


def test_weight_norm_conv_adds_one_gain_per_channel():
    rng = np.random.default_rng(0)
    raw = Conv1d(4, 8, 7, rng)
    normed = WeightNormConv1d(4, 8, 7, np.random.default_rng(0))
    assert normed.parameter_count() == raw.parameter_count() + 8


def test_weight_norm_conv_starts_at_raw_weight():
    wn = WeightNormConv1d(2, 3, 5, np.random.default_rng(0))
    effective = ad.weight_norm(wn.direction, wn.gain).numpy()
    np.testing.assert_allclose(effective, wn.direction.data, rtol=1e-5)


def test_linear_gradients():
    with ad.default_dtype("f64"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            layer = Linear(3, 2, rng)
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            loss_fn = random_projection_loss(lambda: layer(x), rng)
            assert gradcheck(loss_fn, [x, layer.weight, layer.bias]) < TOLERANCE


def test_dropout_layer_uses_shared_generator():
    rng = np.random.default_rng(0)
    drop = Dropout(0.5, rng)
    a = drop(Tensor(np.ones(100)), train=True).numpy()
    b = drop(Tensor(np.ones(100)), train=True).numpy()
    assert not np.array_equal(a, b)  # generator advances between calls


# Adam ---------------------------------------------------------------------------


def test_adam_first_step_is_minus_lr():
    theta = Tensor(np.zeros(1), requires_grad=True)
    opt = Adam([theta], lr=0.1)
    theta.grad = np.ones(1)
    opt.step()
    np.testing.assert_allclose(theta.data, -0.1, atol=1e-6)


def test_adam_zero_grad_keeps_params():
    theta = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = Adam([theta], lr=0.1)
    theta.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(theta.data, np.array([1.5, -2.0], dtype=theta.data.dtype))


def test_adam_decoupled_weight_decay_only():
    theta = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([theta], lr=0.1, weight_decay=0.5)
    theta.grad = np.zeros(1)
    opt.step()
    np.testing.assert_allclose(theta.data, 0.95, atol=1e-7)


def test_adam_rejects_shape_mismatch():
    theta = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([theta])
    theta.grad = np.ones(3)
    with pytest.raises(ShapeError):
        opt.step()


def test_adam_missing_grad_steps_as_zero_and_decays_moments():
    stepped = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    idle = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt_a, opt_b = Adam([stepped], lr=0.1), Adam([idle], lr=0.1)
    stepped.grad = idle.grad = np.array([1.0, -3.0])
    opt_a.step()
    opt_b.step()
    stepped.grad = np.zeros(2)
    idle.grad = None
    opt_a.step()
    opt_b.step()
    np.testing.assert_array_equal(idle.data, stepped.data)
    np.testing.assert_array_equal(opt_b.first_moment[0], opt_a.first_moment[0])
    np.testing.assert_array_equal(opt_b.second_moment[0], opt_a.second_moment[0])
    # the moments decayed by one factor of beta: 0.1 * g -> 0.09 * g
    np.testing.assert_allclose(opt_b.first_moment[0], 0.09 * np.array([1.0, -3.0]))
    np.testing.assert_allclose(opt_b.second_moment[0], 0.001 * 0.999 * np.array([1.0, 9.0]))


def test_adam_step_counter_increases():
    theta = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([theta], lr=0.01)
    for expected in (1, 2, 3):
        theta.grad = np.ones(1)
        opt.step()
        assert opt.steps == expected


def test_adam_trajectory_is_deterministic():
    def run():
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        opt = Adam([w], lr=1e-3, weight_decay=0.01)
        for step in range(5):
            x = Tensor(rng.normal(size=(4, 3)))
            loss = ad.tmean(ad.square(ad.matmul(x, w)))
            w.grad = None
            loss.backward()
            opt.step()
        return w.data.copy()

    np.testing.assert_array_equal(run(), run())
