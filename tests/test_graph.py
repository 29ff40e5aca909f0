"""Graph layers: normalization, message passing, pooling, permutation behavior."""

import tracemalloc

import numpy as np
import pytest

from gradcheck import TOLERANCE, gradcheck, random_projection_loss

from stgnn import autodiff as ad
from stgnn.autodiff import Tensor
from stgnn.errors import ConfigError, ContractError, ShapeError
from stgnn.evaluation import TrainSettings, _batch_loss
from stgnn.graph import (DiffPoolLevel, DiffPoolStack, GCNLayer, GraphSAGELayer,
                         SageTower, cluster_schedule, entropy_loss, global_mean_pool, link_loss,
                         normalized_adjacency)
from stgnn.models import ModelSpec, bce_loss, build_model
from stgnn.nn import Adam


def ring(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return a


# normalization and GCN -----------------------------------------------------------


def test_normalized_adjacency_isolated_node():
    np.testing.assert_allclose(normalized_adjacency(np.zeros((1, 1))), [[1.0]])


def test_normalized_adjacency_two_connected_nodes():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(normalized_adjacency(a), [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("n", range(3, 11))
def test_normalized_adjacency_ring_entries(n):
    # every node in a ring has degree 2, so all nonzero entries are 1/3
    op = normalized_adjacency(ring(n))
    expected = (ring(n) + np.eye(n)) / 3.0
    np.testing.assert_allclose(op, expected, atol=1e-12)


def test_normalized_adjacency_rejects_asymmetry():
    a = np.zeros((3, 3))
    a[0, 1] = 1
    with pytest.raises(ContractError):
        normalized_adjacency(a)


def test_normalized_adjacency_rejects_self_loops():
    with pytest.raises(ContractError):
        normalized_adjacency(np.eye(2))


def gcn_layer(weight, bias) -> GCNLayer:
    layer = GCNLayer(len(bias), np.random.default_rng(0))
    layer.weight, layer.bias = Tensor(weight), Tensor(bias)
    return layer


def test_gcn_isolated_node_reduces_to_dense_layer():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    h = Tensor(rng.normal(size=(1, 4)))
    out = gcn_layer(w, b)(h, Tensor(normalized_adjacency(np.zeros((1, 1)))))
    expected = np.maximum(h.numpy() @ w.astype(np.float32) + b.astype(np.float32), 0)
    np.testing.assert_allclose(out.numpy(), expected, rtol=1e-6)


def test_gcn_complete_graph_averages_rows():
    n = 5
    rng = np.random.default_rng(1)
    h = Tensor(np.abs(rng.normal(size=(n, 3))))
    operator = Tensor(normalized_adjacency(1.0 - np.eye(n)))
    out = gcn_layer(np.eye(3), np.zeros(3))(h, operator)
    mean_row = h.numpy().mean(axis=0)
    np.testing.assert_allclose(out.numpy(), np.tile(mean_row, (n, 1)), rtol=1e-6)


def test_gcn_layer_parameter_count():
    assert GCNLayer(256, np.random.default_rng(0)).parameter_count() == 65_792


def test_gcn_is_permutation_equivariant():
    rng = np.random.default_rng(2)
    with ad.default_dtype("f64"):
        layer = GCNLayer(3, np.random.default_rng(3))
        h = rng.normal(size=(6, 3))
        a = ring(6)
        perm = rng.permutation(6)
        out = layer(Tensor(h), Tensor(normalized_adjacency(a))).numpy()
        out_p = layer(Tensor(h[perm]),
                      Tensor(normalized_adjacency(a[np.ix_(perm, perm)]))).numpy()
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_gcn_gradients():
    with ad.default_dtype("f64"):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            layer = GCNLayer(3, np.random.default_rng(seed + 100))
            h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            op = Tensor(normalized_adjacency(ring(4)))
            loss_fn = random_projection_loss(lambda: layer(h, op), rng)
            assert gradcheck(loss_fn, [h, layer.weight, layer.bias]) < TOLERANCE


# mean pooling ---------------------------------------------------------------------


def test_global_mean_pool_values():
    out = global_mean_pool(Tensor([[1.0, 3.0], [3.0, 5.0]]))
    np.testing.assert_allclose(out.numpy(), [2.0, 4.0])


def test_global_mean_pool_single_node_identity():
    out = global_mean_pool(Tensor([[1.5, -2.0]]))
    np.testing.assert_allclose(out.numpy(), [1.5, -2.0])


def test_global_mean_pool_permutation_invariant():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(3, 7, 4))
    perm = rng.permutation(7)
    np.testing.assert_array_equal(global_mean_pool(Tensor(h)).numpy(),
                                  global_mean_pool(Tensor(h)).numpy())
    np.testing.assert_allclose(global_mean_pool(Tensor(h[:, perm])).numpy(),
                               global_mean_pool(Tensor(h)).numpy(), atol=1e-6)


# GraphSAGE ------------------------------------------------------------------------


def test_sage_isolated_node_uses_zero_neighbor_term():
    rng = np.random.default_rng(0)
    layer = GraphSAGELayer(3, 2, np.random.default_rng(1))
    h = Tensor(rng.normal(size=(1, 3)))
    out = layer(h, Tensor(np.zeros((1, 1))))
    expected = np.maximum(h.numpy() @ layer.w_self.data + layer.bias.data, 0)
    np.testing.assert_allclose(out.numpy(), expected, rtol=1e-6)


def test_sage_two_node_clique_sums_self_and_neighbor():
    layer = GraphSAGELayer(3, 3, np.random.default_rng(0))
    layer.w_self.data = np.eye(3, dtype=layer.w_self.data.dtype)
    layer.w_neigh.data = np.eye(3, dtype=layer.w_neigh.data.dtype)
    layer.bias.data[:] = 0
    h = np.abs(np.random.default_rng(1).normal(size=(2, 3))).astype(np.float32)
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
    out = layer(Tensor(h), Tensor(a)).numpy()
    np.testing.assert_allclose(out, h + h[::-1], rtol=1e-6)


def test_sage_zero_weights_broadcast_bias():
    layer = GraphSAGELayer(3, 2, np.random.default_rng(0))
    layer.w_self.data[:] = 0
    layer.w_neigh.data[:] = 0
    layer.bias.data = np.array([0.5, -1.0], dtype=layer.bias.data.dtype)
    out = layer(Tensor(np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32)),
                Tensor(ring(4).astype(np.float32))).numpy()
    np.testing.assert_allclose(out, np.tile([0.5, 0.0], (4, 1)))


def test_sage_gradients_including_weighted_adjacency():
    with ad.default_dtype("f64"):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            layer = GraphSAGELayer(3, 2, np.random.default_rng(seed + 50))
            h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            a = Tensor(np.abs(rng.normal(size=(4, 4))) + 0.1, requires_grad=True)
            loss_fn = random_projection_loss(lambda: layer(h, a), rng)
            wrt = [h, a, layer.w_self, layer.w_neigh, layer.bias]
            assert gradcheck(loss_fn, wrt) < TOLERANCE


@pytest.mark.parametrize("batch", [(), (2,)])
def test_sage_layer_gradients_with_adjacency_and_degree_taped(batch):
    # at level 2 the adjacency Sᵀ A S and its row sum both carry a gradient; here the
    # degree is an input of its own, kept away from 0, where the op takes 1 instead
    with ad.default_dtype("f64"):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            h = Tensor(rng.normal(size=batch + (4, 3)), requires_grad=True)
            a = Tensor(rng.normal(size=batch + (4, 4)), requires_grad=True)
            degree = Tensor(rng.uniform(0.5, 2.0, size=batch + (4, 1)), requires_grad=True)
            weights = [Tensor(rng.normal(size=shape), requires_grad=True)
                       for shape in ((3, 2), (3, 2), (2,))]
            loss_fn = random_projection_loss(lambda: ad.sage_layer(h, a, degree, *weights), rng)
            assert gradcheck(loss_fn, [h, a, degree] + weights) < TOLERANCE


def test_sage_layer_rejects_adjacency_or_degree_of_another_node_count():
    h, w, b = Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
    for a, degree in (((3, 3), (4, 1)), ((4, 4), (3, 1)), ((4, 4), (4,))):
        with pytest.raises(ShapeError):
            ad.sage_layer(h, Tensor(np.ones(a)), Tensor(np.ones(degree)), w, w, b)


# the fused GraphSAGE op against the ops it replaces --------------------------------


def composed_sage_layer(self, h, adjacency):
    """``GraphSAGELayer.__call__`` as separate tsum, matmul, add, div and relu ops."""
    adjacency = ad.as_tensor(adjacency, like=h if isinstance(h, Tensor) else None)
    degree = ad.tsum(adjacency, axis=-1, keepdims=True)
    zero_rows = (degree.data == 0).astype(degree.data.dtype)
    neigh = ad.div(ad.matmul(adjacency, h),
                   ad.add(degree, Tensor(zero_rows, dtype=degree.data.dtype)))
    combined = ad.add(ad.matmul(h, self.w_self), ad.matmul(neigh, self.w_neigh))
    return ad.relu(ad.add(combined, self.bias))


def sage_graph_batch(rng, b, n, t):
    """Features, a symmetric weighted adjacency whose node 3 has no edge, and labels."""
    features = rng.normal(size=(b, n, t)).astype(np.float32)
    adjacency = np.abs(rng.normal(size=(b, n, n))).astype(np.float32)
    adjacency += adjacency.transpose(0, 2, 1)
    adjacency *= 1 - np.eye(n, dtype=np.float32)
    adjacency[:, 3, :] = adjacency[:, :, 3] = 0
    return features, adjacency, np.arange(b) % 2


def diffpool_training_state(dtype, link_weight, entropy_weight):
    """Gradients and parameters after each of 3 Adam steps of a whole ``diff5_TCN``
    (train, eval and train mode, with the aux terms taped when weighted), then the
    running buffers and eval-mode scores."""
    rng = np.random.default_rng(5)
    settings = TrainSettings(lr=1e-2, weight_decay=0.0, dropout=0.0, epochs=1, batch_size=5,
                             link_weight=link_weight, entropy_weight=entropy_weight)
    with ad.default_dtype(dtype):
        model = build_model(ModelSpec.from_name("diff5_TCN", seed=2), 8, 64)
        optimizer = Adam(model.parameters(), lr=1e-2)
        states = []
        for train in (True, False, True):
            batch = sage_graph_batch(rng, 5, 8, 64)
            _batch_loss(model, *batch, settings, train=train)[0].backward()
            optimizer.step()
            states.append({k: (p.grad.tobytes(), p.data.tobytes())
                           for k, p in model.named_parameters()})
            model.zero_grad()
        with ad.no_tape():
            scores = model(*batch[:2], train=False)[0].numpy()
        states.append({**{k: b.tobytes() for k, b in model.named_buffers()},
                       "scores": scores.tobytes()})
    return states


@pytest.mark.parametrize("aux", [(0.0, 0.0), (1.0, 0.5)])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_sage_layer_trains_diff5_tcn_bit_for_bit_like_the_composed_ops(dtype, aux,
                                                                       monkeypatch):
    fused = diffpool_training_state(dtype, *aux)
    monkeypatch.setattr(GraphSAGELayer, "__call__", composed_sage_layer)
    assert diffpool_training_state(dtype, *aux) == fused


def diffpool_step(b, n, t):
    """The loss of one default ``diff5_TCN`` training forward, and the bytes its tape holds."""
    batch = sage_graph_batch(np.random.default_rng(0), b, n, t)
    model = build_model(ModelSpec.from_name("diff5_TCN", seed=1), n, t)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = bce_loss(model(*batch[:2], train=True)[0], batch[2])
        return loss, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_sage_layer_holds_under_0_55_of_the_composed_tape(monkeypatch):
    # each tower layer keeps only its output (0.47 of the composed tape at B=32, N=20,
    # T=160); the composed ops also keep A·h, the neighbour mean, both weight products,
    # their sum and the sum plus bias
    fused_held = diffpool_step(32, 20, 160)[1]
    monkeypatch.setattr(GraphSAGELayer, "__call__", composed_sage_layer)
    assert fused_held <= 0.55 * diffpool_step(32, 20, 160)[1]


def tape_nodes(loss: Tensor) -> int:
    """Nodes with a backward closure that a backward pass from ``loss`` would run."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


def test_diff5_tcn_step_tape_has_78_nodes_fewer_than_the_composed_ops(monkeypatch):
    # per tower layer, tsum plus sage_layer replace nine ops at level 2; at level 1 the
    # adjacency is data, so tsum records no node and one replaces seven: 6 * (7 + 6)
    fused = tape_nodes(diffpool_step(4, 20, 160)[0])
    monkeypatch.setattr(GraphSAGELayer, "__call__", composed_sage_layer)
    assert (fused, tape_nodes(diffpool_step(4, 20, 160)[0])) == (124, 124 + 78)


# DiffPool --------------------------------------------------------------------------


def test_cluster_schedule_from_fifty_nodes():
    assert cluster_schedule(50) == [13, 4]


def test_cluster_schedule_rejects_collapse():
    with pytest.raises(ConfigError):
        cluster_schedule(4)


def test_diffpool_single_cluster_sums_embeddings():
    rng = np.random.default_rng(0)
    level = DiffPoolLevel(3, 1, np.random.default_rng(1), hidden=4, out_features=3)
    x = Tensor(rng.normal(size=(1, 5, 3)).astype(np.float32))
    a = Tensor(ring(5)[None].astype(np.float32))
    pooled_x, s, s_t = level(x, a, train=False)
    z = level.embed(x, a, train=False)
    np.testing.assert_allclose(pooled_x.numpy()[0, 0], z.numpy()[0].sum(axis=0), rtol=1e-5)
    np.testing.assert_array_equal(s_t.numpy(), np.swapaxes(s.numpy(), -1, -2))
    entropy = entropy_loss([(a, s, s_t)])
    assert entropy.item() == pytest.approx(0.0, abs=1e-6)  # softmax over one logit


def test_diffpool_assignments_are_row_stochastic():
    rng = np.random.default_rng(0)
    level = DiffPoolLevel(3, 4, np.random.default_rng(2), hidden=8, out_features=3)
    x = Tensor(rng.normal(size=(2, 9, 3)).astype(np.float32))
    a = Tensor(np.stack([ring(9), ring(9)]).astype(np.float32))
    s = ad.softmax_rows(level.assign(x, a, train=False))
    np.testing.assert_allclose(s.numpy().sum(axis=-1), 1.0, atol=1e-6)


def test_diffpool_pooled_adjacency_stays_symmetric():
    rng = np.random.default_rng(3)
    stack = DiffPoolStack(12, 3, np.random.default_rng(4))
    x = Tensor(rng.normal(size=(2, 12, 3)).astype(np.float32))
    a = Tensor(np.stack([ring(12), ring(12)]).astype(np.float32))
    _, levels = stack(x, a, train=False)
    (first, s, _), (pooled_a, _, _) = levels
    assert first is a
    s = s.numpy()
    np.testing.assert_allclose(pooled_a.numpy(), np.swapaxes(s, -1, -2) @ a.numpy() @ s,
                               rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(pooled_a.numpy(),
                               np.swapaxes(pooled_a.numpy(), -1, -2), atol=1e-5)


def test_diffpool_link_loss_is_one_frobenius_norm_over_the_batch():
    """Pinned: the link loss takes one norm over the whole batch, not a mean
    of per-graph norms, so two copies of one graph give sqrt(2) times its loss."""
    def link_of(x, a):
        _, s, s_t = level(Tensor(x), Tensor(a), train=False)
        return link_loss([(Tensor(a), s, s_t)])

    with ad.default_dtype("f64"):
        level = DiffPoolLevel(3, 2, np.random.default_rng(5), hidden=4, out_features=3)
        x = np.random.default_rng(6).normal(size=(1, 7, 3))
        single = link_of(x, ring(7)[None])
        pair = link_of(np.concatenate([x, x]), np.stack([ring(7)] * 2))
    assert abs(pair.item() - np.sqrt(2.0) * single.item()) <= 1e-12


def test_diffpool_stack_two_levels():
    stack = DiffPoolStack(50, 8, np.random.default_rng(0))
    assert stack.schedule == [13, 4]
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 50, 8)).astype(np.float32))
    a = Tensor(np.stack([ring(50), ring(50)]).astype(np.float32))
    pooled, levels = stack(x, a, train=False)
    assert pooled.shape == (2, 4, 8)
    assert [(a.shape, s.shape) for a, s, _ in levels] == [((2, 50, 50), (2, 50, 13)),
                                                         ((2, 13, 13), (2, 13, 4))]
    link, entropy = link_loss(levels), entropy_loss(levels)
    assert np.isfinite(link.item()) and np.isfinite(entropy.item())


def test_diffpool_level_gradients():
    with ad.default_dtype("f64"):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            level = DiffPoolLevel(3, 2, np.random.default_rng(seed + 10),
                                  hidden=4, out_features=3)
            for _, p in level.named_parameters():
                p.data = rng.normal(0.0, 0.5, size=p.data.shape)
            x = Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
            a = Tensor(ring(5)[None])

            def loss_fn():
                px, s, s_t = level(x, a, train=False)
                pa = ad.matmul(ad.matmul(s_t, a), s)
                link, ent = link_loss([(a, s, s_t)]), entropy_loss([(a, s, s_t)])
                return ad.add(ad.add(ad.tmean(ad.square(px)), ad.tmean(ad.square(pa))),
                              ad.add(link, ent))

            wrt = [x] + level.parameters()
            assert gradcheck(loss_fn, wrt, sample=8, rng=rng) < TOLERANCE


def test_sage_tower_batchnorm_runs_in_both_modes():
    tower = SageTower(3, 4, 5, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 6, 3)).astype(np.float32))
    a = Tensor(np.stack([ring(6), ring(6)]).astype(np.float32))
    out_train = tower(x, a, train=True)
    out_eval = tower(x, a, train=False)
    assert out_train.shape == out_eval.shape == (2, 6, 5)
