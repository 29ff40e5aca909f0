"""Assemble architecture variants and define the training objective.

A model is: per-node temporal encoder -> optional graph convolution ->
(global mean pool | two-level differentiable pooling) -> dropout -> linear
-> sigmoid. Variants are named by pooling ("mean" or "diff<threshold>"),
encoder ("CNN"/"TCN"), an optional "GCN<threshold>" part and a "64split"
suffix when sessions are cut into 16 windows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import EMBED_DIM, build_encoder
from .errors import ConfigError, ShapeError
from .graph import DiffPoolStack, GCNLayer, global_mean_pool, normalized_adjacency
from .nn import Dropout, Linear, Module


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one architecture variant."""

    encoder: str = "cnn"          # cnn | tcn
    use_gcn: bool = False
    pooling: str = "mean"         # mean | diffpool
    threshold_percent: int = 5
    windows_per_scan: int = 1
    dropout: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.encoder not in ("cnn", "tcn"):
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        if self.pooling not in ("mean", "diffpool"):
            raise ConfigError(f"unknown pooling {self.pooling!r}")
        if self.threshold_percent not in (5, 20):
            raise ConfigError("threshold_percent must be 5 or 20")
        if self.windows_per_scan not in (1, 16):
            raise ConfigError("windows_per_scan must be 1 or 16")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")

    @property
    def needs_graph(self) -> bool:
        """Whether the variant reads a per-sample adjacency."""
        return self.use_gcn or self.pooling == "diffpool"

    def name(self) -> str:
        if self.pooling == "diffpool":
            parts = [f"diff{self.threshold_percent}", self.encoder.upper()]
            if self.use_gcn:
                parts.append("GCN")
        else:
            parts = ["mean", self.encoder.upper()]
            if self.use_gcn:
                parts.append(f"GCN{self.threshold_percent}")
        if self.windows_per_scan == 16:
            parts.append("64split")
        return "_".join(parts)

    @classmethod
    def from_name(cls, name: str, threshold_percent: int | None = None,
                  seed: int = 0) -> "ModelSpec":
        """Parse a model name like mean_CNN_GCN5, diff20_TCN or mean_CNN_64split.

        A threshold embedded in the name wins over the ``threshold_percent``
        argument; without either, 5 is assumed.
        """
        tokens = name.split("_")
        if len(tokens) < 2:
            raise ConfigError(f"cannot parse model name {name!r}")
        pool_tok = tokens.pop(0)
        embedded: int | None = None
        if pool_tok == "mean":
            pooling = "mean"
        else:
            m = re.fullmatch(r"diff(\d+)?", pool_tok)
            if not m:
                raise ConfigError(f"cannot parse pooling token {pool_tok!r} in {name!r}")
            pooling = "diffpool"
            if m.group(1):
                embedded = int(m.group(1))
        enc_tok = tokens.pop(0).lower()
        if enc_tok not in ("cnn", "tcn"):
            raise ConfigError(f"cannot parse encoder token {enc_tok!r} in {name!r}")
        use_gcn = False
        windows = 1
        for tok in tokens:
            m = re.fullmatch(r"GCN(\d+)?", tok)
            if m:
                use_gcn = True
                if m.group(1):
                    embedded = int(m.group(1))
            elif tok == "64split":
                windows = 16
            elif tok == "4split":
                windows = 1
            else:
                raise ConfigError(f"unknown token {tok!r} in model name {name!r}")
        percent = embedded if embedded is not None else (
            threshold_percent if threshold_percent is not None else 5)
        spec = cls(encoder=enc_tok, use_gcn=use_gcn, pooling=pooling,
                   threshold_percent=percent, windows_per_scan=windows, seed=seed)
        spec.validate()
        return spec


class PredictionHead(Module):
    """dropout -> linear 256 -> 1 -> sigmoid."""

    def __init__(self, dropout: float, rng: np.random.Generator):
        self.drop = Dropout(dropout, rng)
        self.linear = Linear(EMBED_DIM, 1, rng)

    def __call__(self, z, train: bool) -> Tensor:
        logits = self.linear(self.drop(z, train=train))
        return ad.reshape(ad.sigmoid(logits), (logits.data.shape[0],))


class GraphClassifier(Module):
    """Full pipeline over a batch of graph samples."""

    def __init__(self, spec: ModelSpec, n_nodes: int, input_length: int):
        spec.validate()
        if n_nodes < 1:
            raise ConfigError(f"a graph needs at least one node; got {n_nodes}")
        self.spec = spec
        self.n_nodes = n_nodes
        self.input_length = input_length
        # one generator drives init and dropout masks; construction order is
        # fixed, so identical seeds give bit-identical parameter trajectories
        rng = np.random.default_rng(spec.seed)
        self.encoder = build_encoder(spec.encoder, input_length, rng, dropout=spec.dropout)
        self.gcn = GCNLayer(EMBED_DIM, rng) if spec.use_gcn else None
        self.pool = DiffPoolStack(n_nodes, EMBED_DIM, rng) if spec.pooling == "diffpool" else None
        self.head = PredictionHead(spec.dropout, rng)

    def forward(self, features: np.ndarray, adjacency: np.ndarray | None,
                train: bool) -> tuple[Tensor, list]:
        """Map (B, N, T) features and (B, N, N) adjacency to probabilities.

        Returns per-sample probability of the positive class plus the
        DiffPool levels' (A, S, Sᵀ) for the pooling losses ([] for mean pooling).
        """
        features = np.asarray(features)
        if features.ndim != 3:
            raise ShapeError("features must have shape (B, N, T)")
        b, n, t = features.shape
        if n != self.n_nodes or t != self.input_length:
            raise ShapeError(f"expected (*, {self.n_nodes}, {self.input_length}) features; "
                             f"got {features.shape}")
        if self.spec.needs_graph:
            if adjacency is None:
                raise ShapeError("this variant needs an adjacency batch")
            adjacency = np.asarray(adjacency)
            if adjacency.shape != (b, n, n):
                raise ShapeError(f"adjacency must have shape ({b}, {n}, {n})")

        x = Tensor(features.reshape(b * n, 1, t))
        h = self.encoder(x, train=train)
        h = ad.reshape(h, (b, n, EMBED_DIM))
        if self.gcn is not None:
            operator = Tensor(normalized_adjacency(adjacency))
            h = self.gcn(h, operator)
        levels = []
        if self.pool is not None:
            h, levels = self.pool(h, Tensor(np.asarray(adjacency)), train=train)
        z = global_mean_pool(h)
        return self.head(z, train=train), levels

    def __call__(self, features, adjacency, train: bool):
        return self.forward(features, adjacency, train=train)


def build_model(spec: ModelSpec, n_nodes: int, input_length: int) -> GraphClassifier:
    return GraphClassifier(spec, n_nodes, input_length)


def bce_loss(probabilities: Tensor, labels, weights: np.ndarray | None = None) -> Tensor:
    """Mean binary cross-entropy with probabilities clamped away from {0, 1}.

    With (rows, columns) ``weights`` it is instead each column's weighted sum
    over the rows, one loss per column: a column whose weights are 1/n on n
    rows and 0 elsewhere holds the mean loss over those n rows.
    """
    p = ad.clip(probabilities, 1e-7, 1.0 - 1e-7)
    y = ad.as_tensor(labels, like=p)
    positive = ad.mul(y, ad.log(p))
    negative = ad.mul(ad.sub(1.0, y), ad.log(ad.sub(1.0, p)))
    if weights is None:
        return ad.neg(ad.tmean(ad.add(positive, negative)))
    return ad.neg(ad.tsum(ad.mul(ad.add(positive, negative), weights), axis=0))

