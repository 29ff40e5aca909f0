"""Graph layers: normalization, message passing, pooling, permutation behavior."""

import numpy as np
import pytest

from gradcheck import TOLERANCE, gradcheck, random_projection_loss

from stgnn import autodiff as ad
from stgnn.autodiff import Tensor
from stgnn.errors import ConfigError, ContractError
from stgnn.graph import (DiffPoolLevel, DiffPoolStack, GCNLayer, GraphSAGELayer,
                         SageTower, cluster_schedule, entropy_loss, global_mean_pool, link_loss,
                         normalized_adjacency)


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
