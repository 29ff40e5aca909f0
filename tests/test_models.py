"""Architecture assembly, objective, parameter counting, naming."""

import numpy as np
import pytest

from gradcheck import TOLERANCE, gradcheck
from matmul_reference import loop_matmul

from stgnn import autodiff as ad
from stgnn.autodiff import Tensor
from stgnn.encoders import encoder_lengths
from stgnn.errors import ConfigError, ShapeError
from stgnn.graph import entropy_loss, link_loss
from stgnn.models import ModelSpec, bce_loss, build_model
from stgnn.nn import Adam


def ring_batch(b, n):
    a = np.zeros((n, n), dtype=np.float32)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return np.tile(a, (b, 1, 1))


def random_batch(b, n, t, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(b, n, t)).astype(np.float32)
    labels = (rng.random(b) > 0.5).astype(np.float32)
    return features, ring_batch(b, n), labels


# naming ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,fields", [
    ("mean_CNN", ("cnn", False, "mean", 1)),
    ("mean_TCN", ("tcn", False, "mean", 1)),
    ("mean_CNN_GCN5", ("cnn", True, "mean", 1)),
    ("mean_CNN_GCN20", ("cnn", True, "mean", 1)),
    ("mean_TCN_GCN5", ("tcn", True, "mean", 1)),
    ("diff5_CNN", ("cnn", False, "diffpool", 1)),
    ("diff20_CNN_GCN", ("cnn", True, "diffpool", 1)),
    ("mean_CNN_64split", ("cnn", False, "mean", 16)),
])
def test_model_names_round_trip(name, fields):
    spec = ModelSpec.from_name(name)
    assert (spec.encoder, spec.use_gcn, spec.pooling, spec.windows_per_scan) == fields
    assert spec.name() == name


def test_threshold_flag_fills_unnumbered_gcn():
    spec = ModelSpec.from_name("mean_CNN_GCN", threshold_percent=20)
    assert spec.threshold_percent == 20
    assert spec.name() == "mean_CNN_GCN20"


def test_embedded_threshold_wins_over_flag():
    spec = ModelSpec.from_name("diff20_CNN", threshold_percent=5)
    assert spec.threshold_percent == 20


def test_unknown_name_rejected():
    with pytest.raises(ConfigError):
        ModelSpec.from_name("mean_LSTM")
    with pytest.raises(ConfigError):
        ModelSpec.from_name("mean_CNN_extra")


# composition ------------------------------------------------------------------------


def test_mean_cnn_has_no_graph_components():
    model = build_model(ModelSpec.from_name("mean_CNN"), n_nodes=6, input_length=32)
    assert model.gcn is None and model.pool is None


def test_diff_gcn_has_both_components():
    model = build_model(ModelSpec.from_name("diff5_CNN_GCN"), n_nodes=6, input_length=32)
    assert model.gcn is not None and model.pool is not None


def test_same_seed_gives_identical_parameters():
    spec = ModelSpec.from_name("mean_CNN_GCN5")
    a = build_model(spec, 6, 32)
    b = build_model(spec, 6, 32)
    for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert name_a == name_b
        np.testing.assert_array_equal(pa.data, pb.data)


# parameter counts --------------------------------------------------------------------


def test_parameter_count_oracles():
    assert build_model(ModelSpec.from_name("mean_CNN"), 50, 1200).parameter_count() == 1_248_545
    gcn = build_model(ModelSpec.from_name("mean_CNN_GCN5"), 50, 1200)
    assert gcn.parameter_count() == 1_314_337
    assert build_model(ModelSpec.from_name("mean_CNN"), 50, 75).parameter_count() == 101_665


@pytest.mark.parametrize("t", [75, 160, 320, 1200])
def test_gcn_delta_is_constant(t):
    plain = build_model(ModelSpec.from_name("mean_CNN"), 50, t).parameter_count()
    gcn = build_model(ModelSpec.from_name("mean_CNN_GCN5"), 50, t).parameter_count()
    assert gcn - plain == 65_792


@pytest.mark.parametrize("t", [75, 160, 1200])
def test_mean_cnn_count_formula(t):
    final_len = encoder_lengths(t, causal=False)[-1]
    expected = 19_232 + (64 * final_len) * 256 + 256 + 257
    assert build_model(ModelSpec.from_name("mean_CNN"), 50, t).parameter_count() == expected


def test_head_parameter_count():
    model = build_model(ModelSpec.from_name("mean_CNN"), 6, 32)
    head_params = sum(p.data.size for name, p in model.named_parameters()
                      if name.startswith("head."))
    assert head_params == 257


# forward ------------------------------------------------------------------------------


def test_zero_weight_head_outputs_half():
    model = build_model(ModelSpec.from_name("mean_CNN"), 5, 32)
    model.head.linear.weight.data[:] = 0
    model.head.linear.bias.data[:] = 0
    features, adj, _ = random_batch(3, 5, 32)
    probs, _ = model(features, None, train=False)
    np.testing.assert_allclose(probs.numpy(), 0.5)


@pytest.mark.parametrize("name", ["mean_CNN", "mean_TCN_GCN5", "diff5_CNN", "diff5_CNN_GCN"])
def test_forward_outputs_probabilities(name):
    model = build_model(ModelSpec.from_name(name), 6, 32)
    features, adj, _ = random_batch(4, 6, 32, seed=1)
    probs, levels = model(features, adj, train=False)
    assert probs.shape == (4,)
    assert np.all(probs.numpy() > 0) and np.all(probs.numpy() < 1)
    assert len(levels) == (2 if name.startswith("diff") else 0)


def test_eval_output_independent_of_batch():
    model = build_model(ModelSpec.from_name("mean_CNN_GCN5"), 6, 32)
    features, adj, _ = random_batch(5, 6, 32, seed=2)
    full, _ = model(features, adj, train=False)
    one, _ = model(features[3:4], adj[3:4], train=False)
    np.testing.assert_allclose(full.numpy()[3], one.numpy()[0], atol=1e-6)


def test_forward_rejects_wrong_shapes():
    model = build_model(ModelSpec.from_name("mean_CNN_GCN5"), 6, 32)
    features, adj, _ = random_batch(2, 6, 32)
    with pytest.raises(ShapeError):
        model(features[:, :, :16], adj, train=False)
    with pytest.raises(ShapeError):
        model(features, adj[:1], train=False)
    with pytest.raises(ShapeError):
        model(features, None, train=False)


def test_mean_pool_model_is_permutation_consistent():
    model = build_model(ModelSpec.from_name("mean_CNN_GCN5"), 6, 32)
    features, adj, _ = random_batch(3, 6, 32, seed=3)
    rng = np.random.default_rng(4)
    perm = rng.permutation(6)
    probs, _ = model(features, adj, train=False)
    probs_p, _ = model(features[:, perm, :], adj[:, perm][:, :, perm], train=False)
    np.testing.assert_allclose(probs_p.numpy(), probs.numpy(), atol=1e-5)


# loss ----------------------------------------------------------------------------------


def test_bce_at_half_is_ln2():
    loss = bce_loss(Tensor([0.5]), np.array([1.0]))
    assert loss.item() == pytest.approx(np.log(2.0), rel=1e-6)


def test_bce_perfect_prediction_is_tiny():
    loss = bce_loss(Tensor([1.0, 0.0]), np.array([1.0, 0.0]))
    assert loss.item() < 1e-5


def test_bce_gradient():
    with ad.default_dtype("f64"):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            logits = Tensor(rng.normal(size=6), requires_grad=True)
            labels = (rng.random(6) > 0.5).astype(np.float64)

            def loss_fn():
                return bce_loss(ad.sigmoid(logits), labels)

            assert gradcheck(loss_fn, [logits]) < TOLERANCE


def test_one_adam_step_decreases_loss():
    wins = 0
    for seed in range(100):
        spec = ModelSpec(encoder="cnn", seed=seed)
        model = build_model(spec, 3, 16)
        features, adj, labels = random_batch(8, 3, 16, seed=seed)
        optimizer = Adam(model.parameters(), lr=1e-4)

        def loss_value():
            probs, _ = model(features, None, train=True)
            return bce_loss(probs, labels)

        before = loss_value()
        model.zero_grad()
        before.backward()
        optimizer.step()
        after = loss_value()
        if after.item() < before.item():
            wins += 1
    assert wins >= 95


# stacked matmul at model level ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["diff5_TCN", "mean_CNN_GCN5"])
def test_models_agree_with_a_per_sample_loop_matmul(name, monkeypatch):
    """One f64 forward and backward through the folded ``autodiff.matmul``
    against the same model run through a per-sample-loop product."""

    def loss_and_gradients():
        model = build_model(ModelSpec.from_name(name, seed=2), 8, 32)
        features, adj, labels = random_batch(4, 8, 32, seed=7)
        probs, levels = model(features, adj, train=True)
        loss = bce_loss(probs, labels)
        if levels:
            loss = ad.add(loss, ad.add(link_loss(levels), entropy_loss(levels)))
        loss.backward()
        return loss.item(), {key: p.grad for key, p in model.named_parameters()}

    calls = []

    def counted_loop_matmul(a, b):
        calls.append(None)
        return loop_matmul(a, b)

    with ad.default_dtype("f64"):
        folded_loss, folded = loss_and_gradients()
        monkeypatch.setattr(ad, "matmul", counted_loop_matmul)
        looped_loss, looped = loss_and_gradients()
    assert calls
    assert folded_loss == pytest.approx(looped_loss, rel=1e-12, abs=0)
    assert folded.keys() == looped.keys()
    for key, grad in looped.items():  # relative to the parameter's largest gradient
        assert np.max(np.abs(folded[key] - grad)) <= 1e-12 * np.max(np.abs(grad)), key
