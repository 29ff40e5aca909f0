"""Parameter containers, layers and the Adam optimiser."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


class Module:
    """Minimal parameter container; members are discovered by attribute scan.

    Attribute insertion order fixes the parameter order, so two modules built
    the same way enumerate identically. Non-trainable state (running
    statistics) is declared per class via ``_buffers``.
    """

    _buffers: tuple[str, ...] = ()

    def named_parameters(self):
        for kind, name, value in _iter_members(self, ""):
            if kind == "param":
                yield name, value

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self):
        for kind, name, value in _iter_members(self, ""):
            if kind == "buffer":
                yield name, value

    def parameter_count(self) -> int:
        """Trainable scalars, including weight-norm gains and batchnorm affine
        parameters, excluding running statistics."""
        return sum(p.data.size for _, p in self.named_parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        expected = set(own) | set(buffers)
        if expected != set(state):
            missing = expected - set(state)
            extra = set(state) - expected
            raise ShapeError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(extra)}")
        for name, value in state.items():
            target = own[name].data if name in own else buffers[name]
            if target.shape != value.shape:
                raise ShapeError(f"shape mismatch for {name}: {target.shape} vs {value.shape}")
            np.copyto(target, value)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


def _iter_members(module: Module, prefix: str):
    for key, value in vars(module).items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, Tensor) and value.requires_grad:
            yield "param", path, value
        elif isinstance(value, Module):
            yield from _iter_members(value, path)
        elif isinstance(value, (list, tuple)):
            for idx, item in enumerate(value):
                if isinstance(item, Module):
                    yield from _iter_members(item, f"{path}.{idx}")
    for key in module._buffers:
        path = f"{prefix}.{key}" if prefix else key
        yield "buffer", path, getattr(module, key)


def uniform_fan_in(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Affine map x @ W + b with uniform fan-in weight init and zero bias."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = Tensor(uniform_fan_in(rng, in_features, (in_features, out_features)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x) -> Tensor:
        return ad.add(ad.matmul(x, self.weight), self.bias)


CONV_WEIGHT_STD = 0.01


class Conv1d(Module):
    """Parameters of a 1D convolution: weights drawn from N(0, 0.01^2), zero bias.
    The encoder block that owns it runs the convolution inside its fused op."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0):
        self.weight = Tensor(rng.normal(0.0, CONV_WEIGHT_STD,
                                        size=(out_channels, in_channels, kernel_size)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.stride = stride
        self.padding = padding


class WeightNormConv1d(Module):
    """Parameters of a causal convolution whose weight is gain * direction /
    ||direction|| per filter.

    The gain starts at the direction's norm so the initial effective weight
    equals the raw N(0, 0.01^2) draw.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, dilation: int = 1):
        v = rng.normal(0.0, CONV_WEIGHT_STD, size=(out_channels, in_channels, kernel_size))
        self.direction = Tensor(v, requires_grad=True)
        self.gain = Tensor(np.sqrt((v * v).sum(axis=(1, 2))), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.stride = stride
        self.dilation = dilation

    def weight(self) -> Tensor:
        """The effective weight, taped back to the direction and the gain."""
        return ad.weight_norm(self.direction, self.gain)


class BatchNorm1d(Module):
    _buffers = ("running_mean", "running_var")

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=ad.get_default_dtype())
        self.running_var = np.ones(channels, dtype=ad.get_default_dtype())

    def __call__(self, x, train: bool) -> Tensor:
        return ad.batchnorm1d(x, self.gamma, self.beta, self.running_mean,
                              self.running_var, train=train)


class Dropout(Module):
    def __init__(self, rate: float, rng: np.random.Generator):
        self.rate = rate
        self.rng = rng

    def __call__(self, x, train: bool) -> Tensor:
        return ad.dropout(x, self.rate, rng=self.rng, train=train)


# optimiser -------------------------------------------------------------------


BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over one ordered parameter list, updated in place.

    Weight decay is decoupled: lr * wd * theta is added to the update rather
    than folded into the gradient. A parameter without a gradient is stepped
    as if its gradient were zero, so its moments still decay.
    """

    def __init__(self, params, lr: float = 1e-4, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]
        self.steps = 0

    def step(self) -> None:
        self.steps += 1
        c1 = 1.0 - BETA1 ** self.steps
        c2 = 1.0 - BETA2 ** self.steps
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError("gradient shape does not match parameter")
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update
