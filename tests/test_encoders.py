"""Temporal encoders: geometry, causality, batch independence, gradients."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import TOLERANCE, gradcheck, random_projection_loss

from stgnn import autodiff as ad
from stgnn.autodiff import Tensor
from stgnn.encoders import CnnEncoder, TcnEncoder, TemporalBlock, encoder_lengths
from stgnn.errors import GeometryError
from stgnn.models import ModelSpec, bce_loss, build_model
from stgnn.nn import Adam


def test_cnn_lengths_full_session():
    assert encoder_lengths(1200, causal=False) == [600, 300, 150, 75]


def test_cnn_lengths_short_window():
    assert encoder_lengths(75, causal=False) == [38, 19, 10, 5]


def test_tcn_lengths_match_cnn():
    assert encoder_lengths(1200, causal=True) == [600, 300, 150, 75]
    assert encoder_lengths(75, causal=True) == [38, 19, 10, 5]


def test_encoder_rejects_tiny_input():
    with pytest.raises(GeometryError):
        encoder_lengths(8, causal=False)


def test_cnn_parameter_count_at_full_length():
    enc = CnnEncoder(1200, np.random.default_rng(0))
    # convs 18,992 + batchnorm 240 + linear (64*75)*256 + 256
    assert enc.parameter_count() == 18_992 + 240 + 1_229_056


def test_cnn_output_shape():
    enc = CnnEncoder(64, np.random.default_rng(0))
    out = enc(Tensor(np.random.default_rng(1).normal(size=(6, 1, 64)).astype(np.float32)),
              train=False)
    assert out.shape == (6, 256)


def test_tcn_output_shape():
    enc = TcnEncoder(64, np.random.default_rng(0))
    out = enc(Tensor(np.random.default_rng(1).normal(size=(6, 1, 64)).astype(np.float32)),
              train=False)
    assert out.shape == (6, 256)


def test_tcn_zero_input_embedding_is_projection_bias():
    enc = TcnEncoder(64, np.random.default_rng(0))
    out = enc(Tensor(np.zeros((2, 1, 64), dtype=np.float32)), train=False)
    np.testing.assert_allclose(out.numpy(), np.tile(enc.project.bias.data, (2, 1)))


def tcn_block_reach(position: int, depth: int) -> int:
    """Latest input index that can influence a block output at ``position``."""
    return position * (2 ** depth)


def test_tcn_causality_blockwise():
    with ad.default_dtype("f64"):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            enc = TcnEncoder(64, np.random.default_rng(1000 + seed))
            x = rng.normal(size=(1, 1, 64))
            t = int(rng.integers(1, 64))
            bumped = x.copy()
            bumped[0, 0, t] += 1.0
            base = enc.block_activations(Tensor(x), train=False)
            diff = enc.block_activations(Tensor(bumped), train=False)
            for depth, (a, b) in enumerate(zip(base, diff), start=1):
                changed = np.any(a.numpy() != b.numpy(), axis=(0, 1))
                for pos in np.nonzero(changed)[0]:
                    assert tcn_block_reach(int(pos), depth) >= t, \
                        f"block {depth} position {pos} changed but cannot see input {t}"


def test_tcn_prefix_positions_bitwise_stable():
    # changing one input timestep leaves every output position that cannot
    # reach it bitwise unchanged, in every block
    with ad.default_dtype("f64"):
        rng = np.random.default_rng(0)
        enc = TcnEncoder(64, np.random.default_rng(7))
        x = rng.normal(size=(2, 1, 64))
        t = 48
        bumped = x.copy()
        bumped[:, :, t] += 3.0
        base = enc.block_activations(Tensor(x), train=False)
        diff = enc.block_activations(Tensor(bumped), train=False)
        for depth, (a, b) in enumerate(zip(base, diff), start=1):
            length = a.shape[2]
            cutoff = next((p for p in range(length) if tcn_block_reach(p, depth) >= t), length)
            np.testing.assert_array_equal(a.numpy()[:, :, :cutoff], b.numpy()[:, :, :cutoff])
            assert np.any(a.numpy()[:, :, cutoff:] != b.numpy()[:, :, cutoff:])


@pytest.mark.parametrize("encoder_cls", [CnnEncoder, TcnEncoder])
def test_eval_output_independent_of_batch_composition(encoder_cls):
    rng = np.random.default_rng(0)
    enc = encoder_cls(32, np.random.default_rng(1))
    rows = rng.normal(size=(5, 1, 32)).astype(np.float32)
    full = enc(Tensor(rows), train=False).numpy()
    single = enc(Tensor(rows[2:3]), train=False).numpy()
    np.testing.assert_allclose(full[2], single[0], atol=1e-6)


def test_cnn_train_mode_updates_running_stats():
    enc = CnnEncoder(32, np.random.default_rng(0))
    before = enc.norms[0].running_mean.copy()
    enc(Tensor(np.random.default_rng(1).normal(size=(4, 1, 32)).astype(np.float32)),
        train=True)
    assert not np.array_equal(before, enc.norms[0].running_mean)


@pytest.mark.parametrize("encoder_cls", [CnnEncoder, TcnEncoder])
def test_encoder_end_to_end_gradients(encoder_cls):
    # re-draw parameters at O(1) scale: the production 0.01-std init shrinks
    # deep activations below the finite-difference step, straddling relu kinks
    with ad.default_dtype("f64"):
        rng = np.random.default_rng(0)
        enc = encoder_cls(16, np.random.default_rng(3))
        for _, p in enc.named_parameters():
            p.data = rng.normal(0.0, 0.5, size=p.data.shape)
        x = Tensor(rng.normal(size=(2, 1, 16)), requires_grad=True)
        loss_fn = random_projection_loss(lambda: enc(x, train=True), rng)
        params = [x] + enc.parameters()
        assert gradcheck(loss_fn, params, sample=6, rng=rng) < TOLERANCE


# the fused block op against the three ops it replaces -----------------------------


def composed_block_activations(self, x, train: bool = False):
    """``CnnEncoder.block_activations`` as separate conv1d, batchnorm1d and relu ops.
    In train mode the bias is a constant, since the batchnorm removes it: the fused
    op gives it an exact zero gradient, which Adam steps like no gradient."""
    acts, h = [], x
    for conv, norm in zip(self.convs, self.norms):
        bias = Tensor(conv.bias.data) if train else conv.bias
        h = ad.conv1d(h, conv.weight, bias, stride=conv.stride, padding=conv.padding)
        h = ad.relu(norm(h, train=train))
        acts.append(h)
    return acts


def training_step_state(name, dtype, steps=2, dropout=0.0):
    """Gradients, running buffers and eval scores after each of a few Adam steps."""
    rng = np.random.default_rng(5)
    with ad.default_dtype(dtype):
        model = build_model(replace(ModelSpec.from_name(name, seed=2), dropout=dropout), 6, 64)
        optimizer = Adam(model.parameters(), lr=1e-2)
        states = []
        for _ in range(steps):
            features = rng.normal(size=(5, 6, 64)).astype(np.float32)
            adjacency = np.tile(1 - np.eye(6, dtype=np.float32), (5, 1, 1))
            probs, _ = model(features, adjacency, train=True)
            model.zero_grad()
            bce_loss(probs, np.array([0.0, 1.0, 1.0, 0.0, 1.0])).backward()
            optimizer.step()
            with ad.no_tape():
                scores = model(features, adjacency, train=False)[0].numpy()
            grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad
                     for k, p in model.named_parameters()}
            states.append({**{k: g.tobytes() for k, g in grads.items()},
                           **{k: b.tobytes() for k, b in model.named_buffers()},
                           "scores": scores.tobytes()})
    return states


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("name", ["mean_CNN", "mean_CNN_GCN5"])
def test_fused_blocks_train_bit_for_bit_like_the_three_ops(name, dtype, monkeypatch):
    fused = training_step_state(name, dtype)
    with monkeypatch.context() as patch:
        # 960, 480, 240 and 120 values per channel: 1, 3, 6 and 12 rows a group
        patch.setattr(ad, "_ROWS", 1500)
        assert training_step_state(name, dtype) == fused
    monkeypatch.setattr(CnnEncoder, "block_activations", composed_block_activations)
    assert training_step_state(name, dtype) == fused


def test_cnn_encoder_state_names_are_its_modules():
    # the fused op reads parameters and buffers from the Conv1d and BatchNorm1d modules
    enc = CnnEncoder(64, np.random.default_rng(0))
    assert set(enc.state_dict()) == (
        {f"convs.{i}.{name}" for i in range(4) for name in ("weight", "bias")}
        | {f"norms.{i}.{name}" for i in range(4)
           for name in ("gamma", "beta", "running_mean", "running_var")}
        | {"project.weight", "project.bias"})


def traced_step_bytes(model, features, labels):
    """Bytes a training forward leaves held, and the peak above that base during backward."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = bce_loss(model(features, None, train=True)[0], labels)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return held, peak


def test_fused_blocks_hold_about_a_third_of_the_three_ops_tape(monkeypatch):
    # each block keeps only its output (0.37 held, 0.72 peak); the three ops keep
    # the conv, batchnorm and ReLU outputs, so a block that kept its conv output or
    # xhat again (0.68 held, 0.91 peak) fails both bounds
    features = np.random.default_rng(0).normal(size=(8, 6, 256)).astype(np.float32)
    labels = np.arange(8) % 2

    def measure():
        model = build_model(ModelSpec.from_name("mean_CNN", seed=1), 6, 256)
        return traced_step_bytes(model, features, labels)

    fused_held, fused_peak = measure()
    monkeypatch.setattr(CnnEncoder, "block_activations", composed_block_activations)
    composed_held, composed_peak = measure()
    assert fused_held <= 0.4 * composed_held
    assert fused_peak <= 0.8 * composed_peak


# the fused TCN block op against the six ops it replaces ----------------------------


def composed_temporal_block(self, x, train: bool):
    """``TemporalBlock.__call__`` as separate conv1d, relu, dropout, conv1d, add and
    relu ops, drawing the dropout mask from the same generator."""
    conv, down = self.conv, self.down
    h = ad.conv1d(x, conv.weight(), conv.bias, stride=conv.stride, dilation=conv.dilation,
                  causal=True)
    h = ad.dropout(ad.relu(h), self.dropout, rng=self.rng, train=train)
    return ad.relu(ad.add(h, ad.conv1d(x, down.weight, down.bias, stride=down.stride)))


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("name", ["mean_TCN", "diff5_TCN"])
def test_fused_temporal_blocks_train_bit_for_bit_like_the_six_ops(name, dtype, dropout,
                                                                   monkeypatch):
    # the scores come from eval mode; with dropout on, the head's masks are drawn after
    # the blocks', so a block that advanced the generator differently changes them too
    fused = training_step_state(name, dtype, dropout=dropout)
    monkeypatch.setattr(TemporalBlock, "__call__", composed_temporal_block)
    assert training_step_state(name, dtype, dropout=dropout) == fused


def test_temporal_block_gradients_with_dropout():
    with ad.default_dtype("f64"):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(2, 3, 16)), requires_grad=True)
            weight = Tensor(rng.normal(size=(4, 3, 7)), requires_grad=True)
            down = Tensor(rng.normal(size=(4, 3, 1)), requires_grad=True)
            bias, down_bias = (Tensor(rng.normal(size=4), requires_grad=True) for _ in "ab")

            def block():  # a fresh generator per call, so every evaluation drops alike
                return ad.temporal_block(x, weight, bias, down, down_bias, 2, 0.4,
                                         np.random.default_rng(seed + 1), True, 2)

            loss_fn = random_projection_loss(block, rng)
            assert gradcheck(loss_fn, [x, weight, bias, down, down_bias]) < TOLERANCE


def tape_tensors(loss: Tensor) -> int:
    """Tensors a backward pass from ``loss`` would reach, leaves included."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_fused_temporal_blocks_hold_under_a_third_of_the_six_ops_tape(monkeypatch):
    # each block keeps its output and a one-byte mask per value (0.30 held); the six
    # ops keep five float activations, so a block that also kept its conv output
    # (0.44 held) fails the bound; and the tape holds four tensors fewer per block
    features = np.random.default_rng(0).normal(size=(8, 6, 256)).astype(np.float32)
    labels = np.arange(8) % 2

    def model():
        return build_model(ModelSpec.from_name("mean_TCN", seed=1), 6, 256)

    def count():
        return tape_tensors(bce_loss(model()(features, None, train=True)[0], labels))

    fused_held, _ = traced_step_bytes(model(), features, labels)
    fused_tensors = count()
    monkeypatch.setattr(TemporalBlock, "__call__", composed_temporal_block)
    composed_held, _ = traced_step_bytes(model(), features, labels)
    assert fused_held <= 0.35 * composed_held
    assert count() - fused_tensors == 4 * 4


def test_tcn_encoder_state_names_are_its_modules():
    # the fused op reads parameters from each block's WeightNormConv1d and Conv1d
    enc = TcnEncoder(64, np.random.default_rng(0))
    assert set(enc.state_dict()) == (
        {f"blocks.{i}.conv.{name}" for i in range(4) for name in ("direction", "gain", "bias")}
        | {f"blocks.{i}.down.{name}" for i in range(4) for name in ("weight", "bias")}
        | {"project.weight", "project.bias"})


def test_tcn_block_4_builds_columns_only_for_taps_that_read_input(monkeypatch):
    """At T=160 block 4's causal conv (input length 20, dilation 8, left pad 48) reads
    only padding through its first four taps, so each of its passes builds columns for
    the other three: its scratch is 3/7 of the full kernel's."""
    sizes = []

    def scratch(size, dtype):
        sizes.append(size)
        return np.empty(size, dtype)

    monkeypatch.setattr(ad, "_scratch", scratch)
    batch = 4
    enc = TcnEncoder(160, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(batch, 1, 160)))
    ad.tsum(enc(x, train=True)).backward()
    full = 32 * 7 * enc.lengths[3] * batch
    # each block's causal conv, then its 1x1 down conv; the backward runs them in reverse
    forward, backward = sizes[:8], sizes[8:]
    assert forward[6] == backward[1] == full * 3 // 7
    assert forward[4] == backward[3] == 16 * 7 * enc.lengths[2] * batch  # block 3: all 7 taps
