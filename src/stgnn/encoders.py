"""Temporal encoders: compress each node's timeseries to a 256-dim embedding.

Both variants stack four strided convolutional blocks (channels 1, 8, 16,
32, 64; kernel 7; stride 2) that halve the length at every layer, then
flatten and project to the embedding width. The plain CNN uses symmetric
padding with batch normalization, each block one ``autodiff.conv_bn_relu``
tape op; the causal variant uses left-only padding with dilations 1, 2, 4,
8, weight-normalized filters and a strided 1x1 residual projection per block,
each block one ``autodiff.temporal_block`` tape op.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, conv_output_length
from .errors import ConfigError, GeometryError
from .nn import BatchNorm1d, Conv1d, Linear, Module, WeightNormConv1d

CHANNELS = (1, 8, 16, 32, 64)
KERNEL = 7
STRIDE = 2
SYMMETRIC_PAD = 3
TCN_DILATIONS = (1, 2, 4, 8)
EMBED_DIM = 256
MIN_LENGTH = 16


def encoder_lengths(input_length: int, causal: bool) -> list[int]:
    """Per-block output lengths for a given input length."""
    if input_length < MIN_LENGTH:
        raise GeometryError(f"input length {input_length} is too short; need >= {MIN_LENGTH}")
    lengths = []
    length = input_length
    for i in range(4):
        if causal:
            dilation = TCN_DILATIONS[i]
            pad = (KERNEL - 1) * dilation
            length = conv_output_length(length, KERNEL, STRIDE, pad, dilation)
        else:
            length = conv_output_length(length, KERNEL, STRIDE, 2 * SYMMETRIC_PAD, 1)
        if length < 1:
            raise GeometryError(f"encoder geometry collapses at block {i} for T={input_length}")
        lengths.append(length)
    return lengths


class CnnEncoder(Module):
    """Four (conv -> batchnorm -> relu) blocks, flatten, linear to 256. Each
    block is one ``ad.conv_bn_relu`` op over its ``Conv1d`` and ``BatchNorm1d``."""

    def __init__(self, input_length: int, rng: np.random.Generator):
        self.lengths = encoder_lengths(input_length, causal=False)
        self.input_length = input_length
        self.convs = [Conv1d(CHANNELS[i], CHANNELS[i + 1], KERNEL, rng,
                             stride=STRIDE, padding=SYMMETRIC_PAD) for i in range(4)]
        self.norms = [BatchNorm1d(CHANNELS[i + 1]) for i in range(4)]
        self.project = Linear(CHANNELS[-1] * self.lengths[-1], EMBED_DIM, rng)

    def block_activations(self, x, train: bool = False) -> list[Tensor]:
        acts = []
        h = x
        for conv, bn in zip(self.convs, self.norms):
            h = ad.conv_bn_relu(h, conv.weight, conv.bias, bn.gamma, bn.beta, bn.running_mean,
                                bn.running_var, train, conv.stride, conv.padding)
            acts.append(h)
        return acts

    def __call__(self, x, train: bool) -> Tensor:
        h = self.block_activations(x, train=train)[-1]
        return self.project(ad.flatten_rows(h))


class TemporalBlock(Module):
    """relu(dropout(relu(weight-normalized causal conv)) + strided 1x1 ``down`` conv),
    one ``ad.temporal_block`` op over its ``WeightNormConv1d`` and ``Conv1d``. The
    dropout masks come from the model's generator, which also drew the weights."""

    def __init__(self, in_channels: int, out_channels: int, dilation: int,
                 rng: np.random.Generator, dropout: float):
        self.conv = WeightNormConv1d(in_channels, out_channels, KERNEL, rng,
                                     stride=STRIDE, dilation=dilation)
        self.down = Conv1d(in_channels, out_channels, 1, rng, stride=STRIDE)
        self.dropout = dropout
        self.rng = rng

    def __call__(self, x, train: bool) -> Tensor:
        return ad.temporal_block(x, self.conv.weight(), self.conv.bias, self.down.weight,
                                 self.down.bias, self.conv.dilation, self.dropout, self.rng,
                                 train, self.conv.stride)


class TcnEncoder(Module):
    """Four causal residual blocks with dilations 1, 2, 4, 8, flatten, linear."""

    def __init__(self, input_length: int, rng: np.random.Generator, dropout: float = 0.0):
        self.lengths = encoder_lengths(input_length, causal=True)
        self.input_length = input_length
        self.blocks = [TemporalBlock(CHANNELS[i], CHANNELS[i + 1], TCN_DILATIONS[i],
                                     rng, dropout) for i in range(4)]
        self.project = Linear(CHANNELS[-1] * self.lengths[-1], EMBED_DIM, rng)

    def block_activations(self, x, train: bool = False) -> list[Tensor]:
        acts = []
        h = x
        for block in self.blocks:
            h = block(h, train=train)
            acts.append(h)
        return acts

    def __call__(self, x, train: bool) -> Tensor:
        h = self.block_activations(x, train=train)[-1]
        return self.project(ad.flatten_rows(h))


def build_encoder(kind: str, input_length: int, rng: np.random.Generator,
                  dropout: float = 0.0) -> Module:
    if kind == "cnn":
        return CnnEncoder(input_length, rng)
    if kind == "tcn":
        return TcnEncoder(input_length, rng, dropout=dropout)
    raise ConfigError(f"unknown encoder kind {kind!r}")
