"""Spatial layers: degree-normalized graph convolution, mean pooling,
GraphSAGE message passing, the two-level differentiable pooling stack and,
from the (A, S, Sᵀ) of its levels, DiffPool's optional link and entropy terms.

All layers operate on batched dense inputs: node features (B, N, F) and
adjacency (B, N, N). Graphs never exchange information across the batch
axis because every matrix product is per-sample.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .nn import BatchNorm1d, Linear, Module, uniform_fan_in


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of adjacency-with-self-loops.

    Accepts (N, N) or (B, N, N); validates symmetry and a zero diagonal.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ContractError("adjacency must be symmetric")
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    if np.any(diag != 0):
        raise ContractError("adjacency must have a zero diagonal")
    with_loops = a + np.eye(a.shape[-1])
    inv_sqrt_deg = 1.0 / np.sqrt(with_loops.sum(axis=-1))
    out = with_loops * inv_sqrt_deg[..., :, None] * inv_sqrt_deg[..., None, :]
    return out


class GCNLayer(Module):
    """H' = relu(D^{-1/2} (A+I) D^{-1/2} H W + b)."""

    def __init__(self, features: int, rng: np.random.Generator):
        self.weight = Tensor(uniform_fan_in(rng, features, (features, features)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(features), requires_grad=True)

    def __call__(self, h, operator) -> Tensor:
        return ad.relu(ad.add(ad.matmul(ad.matmul(operator, h), self.weight), self.bias))


def global_mean_pool(h) -> Tensor:
    """Average node features: (..., N, F) -> (..., F)."""
    return ad.tmean(h, axis=-2)


class GraphSAGELayer(Module):
    """h'_v = relu(W_self h_v + W_neigh mean_{u in N(v)} h_u + b).

    The neighbor mean generalizes to weighted adjacency as a row-normalized
    product; rows with zero degree contribute a zero neighbor term. The
    degree is a ``tsum`` node of its own and the rest is one tape op,
    ``autodiff.sage_layer``, which keeps only the layer output and recomputes
    ``A·h`` in its backward.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.w_self = Tensor(uniform_fan_in(rng, in_features, (in_features, out_features)),
                             requires_grad=True)
        self.w_neigh = Tensor(uniform_fan_in(rng, in_features, (in_features, out_features)),
                              requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, h, adjacency) -> Tensor:
        adjacency = ad.as_tensor(adjacency, like=h if isinstance(h, Tensor) else None)
        degree = ad.tsum(adjacency, axis=-1, keepdims=True)
        return ad.sage_layer(h, adjacency, degree, self.w_self, self.w_neigh, self.bias)


class SageTower(Module):
    """Three GraphSAGE layers with batchnorm, concatenated and projected.

    The skip connection concatenates all three layer outputs and maps them
    to ``out_features`` with a single linear layer.
    """

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 rng: np.random.Generator):
        self.layers = [GraphSAGELayer(in_features, hidden, rng),
                       GraphSAGELayer(hidden, hidden, rng),
                       GraphSAGELayer(hidden, hidden, rng)]
        self.norms = [BatchNorm1d(hidden) for _ in range(3)]
        self.project = Linear(3 * hidden, out_features, rng)

    def __call__(self, h, adjacency, train: bool) -> Tensor:
        outputs = []
        current = h
        for layer, norm in zip(self.layers, self.norms):
            current = layer(current, adjacency)
            current = _norm_nodes(norm, current, train)
            outputs.append(current)
        return self.project(ad.concat(outputs, axis=-1))


def _norm_nodes(norm: BatchNorm1d, h: Tensor, train: bool) -> Tensor:
    """Batch-normalize (B, N, F) node features per feature channel."""
    b, n, f = h.data.shape
    flat = ad.reshape(h, (b * n, f))
    return ad.reshape(norm(flat, train=train), (b, n, f))


class DiffPoolLevel(Module):
    """One differentiable pooling step: embed, assign, coarsen.

    Z comes from the embedding tower; S is the row-softmax of the assignment
    tower. Returns X' = Sᵀ Z, S and the one Sᵀ node that every product with
    Sᵀ shares.
    """

    def __init__(self, in_features: int, n_clusters: int, rng: np.random.Generator,
                 hidden: int = 256, out_features: int = 256):
        if n_clusters < 1:
            raise ConfigError("pooling needs at least one cluster")
        self.embed = SageTower(in_features, hidden, out_features, rng)
        self.assign = SageTower(in_features, hidden, n_clusters, rng)

    def __call__(self, x, adjacency, train: bool):
        z = self.embed(x, adjacency, train=train)
        s = ad.softmax_rows(self.assign(x, adjacency, train=train))
        s_t = ad.transpose_last2(s)
        return ad.matmul(s_t, z), s, s_t


POOL_LEVELS = 2
POOL_RATIO = 0.25


def cluster_schedule(n_nodes: int) -> list[int]:
    """Cluster counts per level: ceil(ratio * previous), strictly decreasing."""
    counts = []
    previous = n_nodes
    for _ in range(POOL_LEVELS):
        current = math.ceil(POOL_RATIO * previous)
        if not 1 <= current < previous:
            raise ConfigError(f"cluster schedule cannot shrink {previous} nodes "
                              f"(needs more nodes for {POOL_LEVELS} pooling levels)")
        counts.append(current)
        previous = current
    return counts


class DiffPoolStack(Module):
    """Two pooling levels. Returns the pooled features and each level's
    (A, S, Sᵀ); A' = Sᵀ A S is built only for a level that reads it."""

    def __init__(self, n_nodes: int, features: int, rng: np.random.Generator):
        self.schedule = cluster_schedule(n_nodes)
        self.levels = [DiffPoolLevel(features, clusters, rng, hidden=features,
                                     out_features=features) for clusters in self.schedule]

    def __call__(self, x, adjacency, train: bool):
        levels = []
        for level in self.levels:
            if levels:
                a, s, s_t = levels[-1]
                adjacency = ad.matmul(ad.matmul(s_t, a), s)
            x, s, s_t = level(x, adjacency, train=train)
            levels.append((adjacency, s, s_t))
        return x, levels


def link_loss(levels) -> Tensor:
    """The link loss ||A - S Sᵀ||_F / n² (one norm over the batch), summed over levels."""
    terms = []
    for adjacency, s, s_t in levels:
        n = s.data.shape[-2]
        residual = ad.sub(adjacency, ad.matmul(s, s_t))
        terms.append(ad.div(ad.sqrt(ad.tsum(ad.square(residual))), float(n * n)))
    return functools.reduce(ad.add, terms)


def entropy_loss(levels) -> Tensor:
    """The mean row entropy of S, summed over the levels."""
    terms = [ad.neg(ad.tmean(ad.tsum(ad.mul(s, ad.log(ad.clip(s, 1e-12, 1.0))), axis=-1)))
             for _, s, _ in levels]
    return functools.reduce(ad.add, terms)
