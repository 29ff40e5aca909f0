"""Fold planning, metrics, grid search, baseline and experiment orchestration."""

import contextlib
import io
import os
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgnn.errors import ConfigError, HarnessError, MetricError
from stgnn import autodiff as ad
from stgnn import evaluation, prep
from stgnn.evaluation import (ExperimentConfig, FoldPlan, HyperGrid, HyperPoint,
                              assert_no_leakage, baseline_flat_correlation,
                              compute_metrics, default_batch_size, derived_seed,
                              flat_correlation_features, plan_folds, run_experiment,
                              select_grid_winner, train_classifier, GridRecord,
                              TrainOutcome, TrainSettings)
from stgnn.models import ModelSpec, bce_loss, build_model
from stgnn.prep import GraphSample, prepare_graph_samples
from stgnn.synth import SynthConfig, generate, generate_dataset


def fake_samples(labels_by_subject: dict[str, int], per_subject: int = 2):
    return [GraphSample(subject_id=sid, label=label, features=np.zeros((2, 4), dtype=np.float32),
                        adjacency=np.zeros((2, 2), dtype=np.float32))
            for sid, label in labels_by_subject.items() for _ in range(per_subject)]


# fold planning -----------------------------------------------------------------


def test_plan_folds_balanced_ten_subjects():
    labels = {f"s{i}": i % 2 for i in range(10)}
    plan = plan_folds(fake_samples(labels), k=5, seed=0)
    for fold in range(5):
        members = plan.test_subjects(fold)
        assert len(members) == 2
        assert sorted(labels[s] for s in members) == [0, 1]


def test_plan_folds_is_a_partition():
    labels = {f"s{i}": i % 2 for i in range(20)}
    plan = plan_folds(fake_samples(labels), k=5, seed=3)
    all_subjects = set()
    for fold in range(5):
        members = plan.test_subjects(fold)
        assert not (members & all_subjects)
        all_subjects |= members
    assert all_subjects == set(labels)


def test_plan_folds_inner_split_disjoint_and_stratified():
    labels = {f"s{i}": i % 2 for i in range(30)}
    plan = plan_folds(fake_samples(labels), k=5, seed=1)
    for fold in range(5):
        train = plan.inner_subjects(fold, "train")
        val = plan.inner_subjects(fold, "val")
        test = plan.test_subjects(fold)
        assert not (train & val) and not (train & test) and not (val & test)
        assert train | val == set(labels) - test
        assert {labels[s] for s in val} == {0, 1}  # both classes held out


def test_plan_folds_class_proportions_over_seeds():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n0 = 5 * int(rng.integers(2, 9))
        n1 = 5 * int(rng.integers(2, 9))
        labels = {f"a{i}": 0 for i in range(n0)}
        labels.update({f"b{i}": 1 for i in range(n1)})
        plan = plan_folds(fake_samples(labels, per_subject=1), k=5, seed=seed)
        global_p = n1 / (n0 + n1)
        for fold in range(5):
            members = plan.test_subjects(fold)
            p = sum(labels[s] for s in members) / len(members)
            assert abs(p - global_p) <= 0.05 + 1e-9


def test_plan_folds_needs_enough_subjects():
    labels = {"a": 0, "b": 0, "c": 1, "d": 1}
    with pytest.raises(ConfigError):
        plan_folds(fake_samples(labels), k=5, seed=0)


def test_leakage_guard_detects_corruption():
    labels = {f"s{i}": i % 2 for i in range(10)}
    plan = plan_folds(fake_samples(labels), k=5, seed=0)
    leaked = FoldPlan(k=plan.k, folds=plan.folds,
                      inner={f: dict(v) for f, v in plan.inner.items()})
    victim = next(iter(plan.test_subjects(0)))
    leaked.inner[0][victim] = "train"
    assert_no_leakage(plan, 0)
    with pytest.raises(HarnessError):
        assert_no_leakage(leaked, 0)


# metrics ------------------------------------------------------------------------


def test_metrics_perfect_separation():
    report = compute_metrics([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert report.auc == 1.0
    assert report.sensitivity == 1.0
    assert report.specificity == 1.0


def test_metrics_all_tied_scores():
    report = compute_metrics([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0])
    assert report.auc == 0.5


def pairwise_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_matches_pairwise_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        report = compute_metrics(scores, labels)
        assert abs(report.auc - pairwise_auc(scores, labels)) < 1e-12


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.random(30)
    labels = rng.integers(0, 2, size=30)
    labels[0], labels[1] = 0, 1
    base = compute_metrics(scores, labels).auc
    warped = compute_metrics(np.exp(3.0 * scores), labels).auc
    assert abs(base - warped) < 1e-12


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(2)
    scores = np.round(rng.random(25), 1)
    labels = rng.integers(0, 2, size=25)
    labels[0], labels[1] = 0, 1
    roc = compute_metrics(scores, labels).roc
    assert roc[0][1:] == (0.0, 0.0)
    assert roc[-1][1:] == (1.0, 1.0)
    fprs = [p[1] for p in roc]
    tprs = [p[2] for p in roc]
    assert all(a <= b for a, b in zip(fprs, fprs[1:]))
    assert all(a <= b for a, b in zip(tprs, tprs[1:]))


def test_metrics_require_both_classes():
    with pytest.raises(MetricError):
        compute_metrics([0.1, 0.9], [1, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite_scores(bad):
    # a NaN score once made the tie loops spin forever, since NaN != NaN
    with pytest.raises(MetricError, match="finite"):
        compute_metrics([0.2, bad, 0.7, 0.4], [0, 1, 1, 0])


@st.composite
def scored_labels(draw):
    """Both classes present; scores from a handful of values, so most tie."""
    n = draw(st.integers(2, 40))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if len(set(labels)) == 1:
        labels[0] = 1 - labels[0]
    levels = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=4))
    scores = [draw(st.sampled_from(levels)) for _ in range(n)]
    return np.array(scores), np.array(labels)


@settings(max_examples=200, deadline=None)
@given(scored_labels())
def test_auc_matches_pairwise_brute_force_under_heavy_ties(case):
    scores, labels = case
    assert compute_metrics(scores, labels).auc == pytest.approx(pairwise_auc(scores, labels),
                                                               abs=1e-12)


def threshold_roc(scores, labels):
    """One point per distinct score, counting every sample scored at or above it."""
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    roc = [(float(scores.max()) + 1.0, 0.0, 0.0)]
    for value in sorted(set(scores.tolist()), reverse=True):
        above = scores >= value
        roc.append((value, int(np.sum(above & (labels != 1))) / n_neg,
                    int(np.sum(above & (labels == 1))) / n_pos))
    return roc


@settings(max_examples=200, deadline=None)
@given(scored_labels())
def test_roc_matches_per_threshold_counts_under_heavy_ties(case):
    scores, labels = case
    assert compute_metrics(scores, labels).roc == threshold_roc(scores, labels)


@settings(max_examples=100, deadline=None)
@given(scored_labels(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_any_non_finite_score_raises(case, bad, data):
    scores, labels = case
    scores[data.draw(st.integers(0, len(scores) - 1))] = bad
    with pytest.raises(MetricError, match="finite"):
        compute_metrics(scores, labels)


# grid machinery --------------------------------------------------------------------


def test_default_grid_has_27_points():
    assert len(HyperGrid().points()) == 27


def test_default_batch_sizes():
    assert default_batch_size(ModelSpec(encoder="cnn")) == 500
    assert default_batch_size(ModelSpec(encoder="tcn")) == 400
    assert default_batch_size(ModelSpec(encoder="cnn", windows_per_scan=16)) == 1000


def test_select_grid_winner_prefers_first_on_tie():
    point = HyperPoint(0.0, 1e-3, 0.0)
    outcome = lambda loss: TrainOutcome({}, 0, loss, [], [], failed=False)
    records = [GridRecord(0, point, outcome(0.4)), GridRecord(1, point, outcome(0.4))]
    assert select_grid_winner(records).index == 0


def test_select_grid_winner_skips_failures():
    point = HyperPoint(0.0, 1e-3, 0.0)
    records = [GridRecord(0, point, TrainOutcome(None, -1, np.inf, [], [], failed=True)),
               GridRecord(1, point, TrainOutcome({}, 0, 0.7, [], [], failed=False))]
    assert select_grid_winner(records).index == 1


def test_select_grid_winner_all_failed_raises():
    point = HyperPoint(0.0, 1e-3, 0.0)
    records = [GridRecord(0, point, TrainOutcome(None, -1, np.inf, [], [], failed=True))]
    with pytest.raises(HarnessError):
        select_grid_winner(records)


def test_all_failed_error_names_every_point_and_its_reason():
    failed = lambda epoch, why: TrainOutcome(None, -1, np.inf, [], [], failed=True,
                                             failed_epoch=epoch, failure=why)
    records = [GridRecord(0, HyperPoint(0.0, 1e-3, 0.0),
                          failed(2, "non-finite training loss at batch start 8")),
               GridRecord(1, HyperPoint(0.5, 1e-4, 0.0), failed(0, "non-finite validation loss"))]
    with pytest.raises(HarnessError) as caught:
        select_grid_winner(records)
    message = str(caught.value)
    assert "point 0 {'dropout': 0.0, 'lr': 0.001, 'weight_decay': 0.0}: " \
           "non-finite training loss at batch start 8 in epoch 2" in message
    assert "point 1 {'dropout': 0.5, 'lr': 0.0001, 'weight_decay': 0.0}: " \
           "non-finite validation loss in epoch 0" in message


def _tiny_training():
    rng = np.random.default_rng(0)
    labels = np.arange(12) % 2
    data = (rng.normal(size=(12, 3, 16)).astype(np.float32), None, labels.astype(np.float32))
    settings = TrainSettings(lr=1e-3, weight_decay=0.0, dropout=0.0, epochs=3, batch_size=4)
    return train_classifier(ModelSpec(encoder="cnn"), data, np.arange(12), np.arange(4),
                            settings, seed=1)


def test_training_releases_each_step_tape_before_the_next_forward(monkeypatch):
    build_model = evaluation.build_model
    steps = []  # weak references to each training step's output probabilities

    class Recording:
        def __init__(self, model):
            self.model = model

        def __getattr__(self, name):
            return getattr(self.model, name)

        def __call__(self, features, adjacency, train):
            if train and steps:
                assert steps[-1]() is None, f"step {len(steps) - 1}'s tape is still alive"
            probs, levels = self.model(features, adjacency, train=train)
            if train:
                steps.append(weakref.ref(probs.data))
            return probs, levels

    monkeypatch.setattr(evaluation, "build_model", lambda *args: Recording(build_model(*args)))
    outcome = _tiny_training()
    assert not outcome.failed
    assert len(steps) == 9  # 3 epochs of 3 batches


@pytest.mark.parametrize("name", ["mean_CNN", "mean_CNN_GCN5", "diff5_TCN"])
def test_scoring_records_no_tape_and_matches_a_tape_forward(name, monkeypatch):
    rng = np.random.default_rng(3)
    features = rng.normal(size=(7, 6, 32)).astype(np.float32)
    ring = np.roll(np.eye(6, dtype=np.float32), 1, axis=1)
    adjacency = np.tile(ring + ring.T, (7, 1, 1))
    labels = (np.arange(7) % 2).astype(np.float32)
    settings = TrainSettings(lr=1e-3, weight_decay=0.0, dropout=0.0, epochs=1, batch_size=4,
                             link_weight=0.5, entropy_weight=0.25)
    model = build_model(ModelSpec.from_name(name, seed=5), 6, 32)
    model(features, adjacency, train=True)  # move the batchnorm buffers off their start
    outputs = []

    def recorded(features, adjacency, train):
        probs, levels = model(features, adjacency, train=train)
        outputs.append(probs)
        return probs, levels

    def score():
        outputs.clear()
        return (evaluation.predict_scores(recorded, features, adjacency, chunk=3),
                evaluation.evaluate_loss(recorded, features, adjacency, labels, settings,
                                         chunk=3))

    scores, loss = score()
    assert len(outputs) == 6
    assert all((p.requires_grad, p._backward, p._parents) == (False, None, ()) for p in outputs)
    monkeypatch.setattr(ad, "no_tape", contextlib.nullcontext)
    tape_scores, tape_loss = score()
    assert all(p.requires_grad and p._backward is not None for p in outputs)
    assert scores.tobytes() == tape_scores.tobytes()
    assert loss == tape_loss


def test_unweighted_pooling_terms_are_logged_without_a_tape_and_change_nothing(monkeypatch):
    """At weights (0, 0) the DiffPool terms are built under ``no_tape``: the
    step's gradients and logged terms equal those of a step that tapes them."""
    rng = np.random.default_rng(3)
    features = rng.normal(size=(4, 6, 32)).astype(np.float32)
    ring = np.roll(np.eye(6, dtype=np.float32), 1, axis=1)
    adjacency = np.tile(ring + ring.T, (4, 1, 1))
    labels = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.float32)
    settings = TrainSettings(lr=1e-3, weight_decay=0.0, dropout=0.0, epochs=1, batch_size=4)

    def step():
        model = build_model(ModelSpec.from_name("diff5_TCN", seed=5), 6, 32)
        loss, logged = evaluation._batch_loss(model, features, adjacency, labels, settings,
                                              train=True)
        loss.backward()
        grads = {key: p.grad.tobytes() for key, p in model.named_parameters()}
        return grads, {key: np.float64(value).tobytes() for key, value in logged.items()}

    untaped = step()
    monkeypatch.setattr(ad, "no_tape", contextlib.nullcontext)
    assert step() == untaped


@pytest.mark.parametrize("weights,taped", [((0.0, 0.0), []), ((1.0, 0.0), ["link"]),
                                           ((0.0, 0.5), ["entropy"])])
def test_pooling_terms_are_built_only_where_read_and_taped_only_where_weighted(
        weights, taped, monkeypatch):
    """Training logs both DiffPool terms and tapes only a weighted one;
    ``evaluate_loss`` reads only the loss, so it builds only weighted terms."""
    rng = np.random.default_rng(3)
    features = rng.normal(size=(4, 6, 32)).astype(np.float32)
    ring = np.roll(np.eye(6, dtype=np.float32), 1, axis=1)
    adjacency = np.tile(ring + ring.T, (4, 1, 1))
    labels = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.float32)
    settings = TrainSettings(lr=1e-3, weight_decay=0.0, dropout=0.0, epochs=1, batch_size=4,
                             link_weight=weights[0], entropy_weight=weights[1])
    model = build_model(ModelSpec.from_name("diff5_TCN", seed=5), 6, 32)
    built = []
    for name in ("link", "entropy"):
        def term(levels, name=name, build=getattr(evaluation, f"{name}_loss")):
            out = build(levels)
            built.append((name, out.requires_grad))
            return out

        monkeypatch.setattr(evaluation, f"{name}_loss", term)
    evaluation._batch_loss(model, features, adjacency, labels, settings, train=True)
    assert built == [("link", "link" in taped), ("entropy", "entropy" in taped)]
    built.clear()
    evaluation.evaluate_loss(model, features, adjacency, labels, settings, chunk=2)
    assert built == [(name, False) for name in taped for _ in range(2)]


def test_baseline_scores_each_test_fold_without_a_tape(monkeypatch):
    sigmoid = ad.sigmoid
    taped = []

    def recording_sigmoid(a):
        out = sigmoid(a)
        taped.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "sigmoid", recording_sigmoid)
    samples = synth_samples(n_subjects=8)
    baseline_flat_correlation(samples, plan_folds(samples, k=2, seed=0), binarize=False)
    fold = [True] * evaluation.BASELINE_EPOCHS + [False]  # train every epoch, then score
    assert taped == fold * 2


def test_failed_training_records_epoch_and_batch_start(monkeypatch):
    calls = []

    def loss_that_turns_nan(probabilities, labels):
        calls.append(None)  # 3 training batches and 1 validation pass per epoch
        loss = bce_loss(probabilities, labels)
        return ad.mul(loss, np.nan) if len(calls) == 6 else loss

    monkeypatch.setattr(evaluation, "bce_loss", loss_that_turns_nan)
    outcome = _tiny_training()
    assert outcome.failed and outcome.state is None
    assert (outcome.failed_epoch, outcome.failure) == (1, "non-finite training loss at batch start 4")
    assert len(outcome.train_curve) == 1


def test_failed_validation_records_epoch(monkeypatch):
    losses = iter([0.7, np.nan])
    monkeypatch.setattr(evaluation, "evaluate_loss", lambda *args, **kwargs: next(losses))
    outcome = _tiny_training()
    assert outcome.failed
    assert (outcome.failed_epoch, outcome.failure) == (1, "non-finite validation loss")
    assert outcome.val_curve[0] == 0.7 and np.isnan(outcome.val_curve[1])


def test_training_that_diverges_everywhere_names_the_reason(tiny_manifest, monkeypatch):
    monkeypatch.setattr(evaluation, "bce_loss",
                        lambda probabilities, labels: ad.mul(bce_loss(probabilities, labels),
                                                             np.inf))
    with pytest.raises(HarnessError, match="every grid point failed: point 0 .*: non-finite "
                                           "training loss at batch start 0 in epoch 0"):
        run_experiment(tiny_config(tiny_manifest))


# baseline ----------------------------------------------------------------------------


def synth_samples(n_subjects=12, nodes=15, length=128, effect=1.0, seed=0,
                  threshold=20):
    records = generate(SynthConfig(n_subjects=n_subjects, n_nodes=nodes,
                                   session_length=length, n_sessions=2,
                                   effect_size=effect, seed=seed))
    return prepare_graph_samples(records, windows_per_scan=1,
                                 threshold_percent=threshold, balance_seed=0)


def test_flat_features_triangle_length():
    samples = fake_samples({"a": 0, "b": 1}, per_subject=1)
    for s in samples:
        s.features = np.random.default_rng(0).normal(size=(3, 16)).astype(np.float32)
    table = flat_correlation_features(samples, binarize=False)
    assert table.shape == (2, 3)


def test_flat_features_binarized_are_binary():
    samples = synth_samples(n_subjects=4)
    table = flat_correlation_features(samples, binarize=True)
    assert set(np.unique(table)) <= {0.0, 1.0}
    assert table.shape[1] == 15 * 14 // 2


def test_baseline_separates_covariance_signal():
    samples = synth_samples(n_subjects=12, effect=1.0)
    plan = plan_folds(samples, k=2, seed=0)
    reports = baseline_flat_correlation(samples, plan, binarize=False, seed=0)
    mean_auc = np.mean([r.auc for r in reports])
    assert mean_auc >= 0.9


# run_experiment ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinydata")
    config = SynthConfig(n_subjects=8, n_nodes=6, session_length=64, n_sessions=2,
                         effect_size=1.0, seed=11)
    return generate_dataset(config, out)


def tiny_config(manifest, **overrides) -> ExperimentConfig:
    base = dict(manifest=str(manifest), model="mean_CNN", threshold_percent=20,
                windows_per_scan=1, k_folds=2, seed=5,
                grid=HyperGrid.fast(lr=1e-3, epochs=2, batch_size=8))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_document_shape(tiny_manifest):
    doc = run_experiment(tiny_config(tiny_manifest))
    assert doc["config"]["model"] == "mean_CNN"
    assert doc["config"]["adjacency_scope"] == "per_window"
    assert len(doc["folds"]) == 2
    for report in doc["folds"]:
        assert 0.0 <= report["auc"] <= 1.0
        assert len(report["train_curve"]) == 2
        assert report["roc"][0][1:] == [0.0, 0.0]
    assert doc["wall_clock_seconds"] > 0


def test_run_experiment_aggregate_matches_folds(tiny_manifest):
    doc = run_experiment(tiny_config(tiny_manifest))
    aucs = np.array([f["auc"] for f in doc["folds"]])
    assert doc["aggregate"]["auc"]["mean"] == pytest.approx(aucs.mean(), abs=1e-12)
    assert doc["aggregate"]["auc"]["sd"] == pytest.approx(aucs.std(ddof=1), abs=1e-12)


def test_run_experiment_deterministic(tiny_manifest):
    doc_a = run_experiment(tiny_config(tiny_manifest))
    doc_b = run_experiment(tiny_config(tiny_manifest))
    doc_a["wall_clock_seconds"] = doc_b["wall_clock_seconds"] = None
    assert doc_a == doc_b


def test_run_experiment_baseline_path(tiny_manifest):
    doc = run_experiment(tiny_config(tiny_manifest, model="logreg_bin"))
    assert doc["config"]["model"] == "logreg_bin_4split"
    assert len(doc["folds"]) == 2
    assert doc["folds"][0]["hyperparameters"]["binarize"] is True


# a learnable and an effectively frozen learning rate
TWO_POINT_GRID = HyperGrid(dropouts=(0.0,), learning_rates=(1e-2, 1e-7), weight_decays=(0.0,),
                           epochs=3, batch_size=8)


def test_run_experiment_single_point_grid_selects_it(tiny_manifest):
    doc = run_experiment(tiny_config(tiny_manifest, grid=HyperGrid.fast(lr=1e-2, epochs=2,
                                                                        batch_size=8)))
    for report in doc["folds"]:
        assert report["hyperparameters"] == HyperPoint(0.0, 1e-2, 0.0).to_dict()


def test_run_experiment_selects_lowest_validation_loss(tiny_manifest, monkeypatch):
    trained = {}
    train_classifier = evaluation.train_classifier

    def recording_train_classifier(spec, data, train_index, val_index, settings, seed):
        outcome = train_classifier(spec, data, train_index, val_index, settings, seed)
        trained[seed] = (settings.lr, outcome.best_val_loss)
        return outcome

    monkeypatch.setattr(evaluation, "train_classifier", recording_train_classifier)
    config = tiny_config(tiny_manifest, grid=TWO_POINT_GRID)
    doc = run_experiment(config)
    assert len(trained) == 4  # 2 folds x 2 grid points, one training each
    for report in doc["folds"]:
        # (lr, loss) per grid point, in grid order; the first of equal losses wins
        by_point = [trained[derived_seed(config.seed, report["fold"], index)]
                    for index in range(2)]
        assert [lr for lr, _ in by_point] == [1e-2, 1e-7]
        lr, loss = min(by_point, key=lambda entry: entry[1])
        assert (report["hyperparameters"]["lr"], report["best_val_loss"]) == (lr, loss)


def test_run_experiment_parallel_matches_sequential(tiny_manifest):
    cases = [
        ("mean_CNN", "f32", {}),
        # adjacency crosses the process boundary, two trainings per fold
        ("mean_CNN_GCN20", "f32", {"grid": TWO_POINT_GRID}),
        # workers must run in the caller's dtype
        ("mean_CNN", "f64", {}),
    ]
    for model, precision, overrides in cases:
        with ad.default_dtype(precision):
            seq = run_experiment(tiny_config(tiny_manifest, model=model, **overrides))
            par = run_experiment(tiny_config(tiny_manifest, model=model, jobs=2, **overrides))
        seq["wall_clock_seconds"] = par["wall_clock_seconds"] = None
        assert seq == par, (model, precision)


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: runs the initializer and every
    task in this process and records what the pool was given."""

    def __init__(self, pools: list, max_workers: int, mp_context, initializer, initargs):
        pools.append(self)
        self.max_workers = max_workers
        self.start_method = mp_context.get_start_method()
        self.initargs = initargs
        self.tasks: list = []
        ad.set_default_dtype("f32")  # what a fresh interpreter would start with
        initializer(*initargs)
        self.dtype = ad.get_default_dtype()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, keys):
        keys = list(keys)
        self.tasks.extend(keys)
        return map(fn, keys)


def test_pool_is_capped_at_the_trainings_and_gets_fold_index_tasks(tiny_manifest,
                                                                    monkeypatch):
    pools: list[RecordingPool] = []
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor",
                        lambda **kwargs: RecordingPool(pools, **kwargs))
    with ad.default_dtype("f64"):
        par = run_experiment(tiny_config(tiny_manifest, grid=TWO_POINT_GRID, jobs=64))
        seq = run_experiment(tiny_config(tiny_manifest, grid=TWO_POINT_GRID))
    (pool,) = pools
    assert pool.max_workers == 4  # 2 folds x 2 grid points
    assert pool.start_method == "spawn"  # workers inherit nothing but the initializer's data
    assert pool.tasks == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert pool.dtype is np.float64
    par["wall_clock_seconds"] = seq["wall_clock_seconds"] = None
    assert par == seq


def pickled_arrays(obj) -> list[np.ndarray]:
    """Every ndarray that pickling ``obj`` writes, which is what a spawned
    worker unpickles; an array reached twice is written once."""
    found = {}

    class Recorder(pickle.Pickler):
        def persistent_id(self, item):
            if isinstance(item, np.ndarray):
                found[id(item)] = item
            return None  # pickle it as usual

    Recorder(io.BytesIO()).dump(obj)
    return list(found.values())


def test_pool_workers_get_one_sample_stack_and_the_fold_rows(tiny_manifest, monkeypatch):
    pools: list[RecordingPool] = []
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor",
                        lambda **kwargs: RecordingPool(pools, **kwargs))
    run_experiment(tiny_config(tiny_manifest, model="mean_CNN_GCN20", grid=TWO_POINT_GRID,
                               jobs=2))
    (pool,) = pools
    arrays = pickled_arrays(pool.initargs)
    rows = [a for a in arrays if a.dtype.kind == "i"]
    stack = [a for a in arrays if a.dtype.kind != "i"]
    n = len(next(a for a in stack if a.ndim == 3))
    # features (nodes x timesteps), adjacency and labels, once: no per-fold copy
    assert sorted(a.shape for a in stack) == [(n,), (n, 6, 6), (n, 6, 64)]
    assert sum(a.nbytes for a in arrays) == \
        n * (6 * 64 + 6 * 6 + 1) * 4 + sum(a.nbytes for a in rows)
    # train, val and test rows of two folds: each sample in one role per fold
    assert len(rows) == 2 * 3
    assert np.bincount(np.concatenate(rows), minlength=n).tolist() == [2] * n


class StopRun(Exception):
    pass


def test_run_holds_the_dataset_at_most_three_times_before_training(tmp_path, monkeypatch):
    manifest = generate_dataset(SynthConfig(n_subjects=16, n_nodes=20, session_length=400,
                                            n_sessions=4, seed=2), tmp_path)
    feature_bytes = 16 * 4 * 20 * 400 * 4  # one float32 window per session
    heap = []

    def first_training(*args, **kwargs):
        heap.append(tracemalloc.get_traced_memory()[0])
        raise StopRun

    monkeypatch.setattr(evaluation, "train_classifier", first_training)
    tracemalloc.start()
    try:
        with pytest.raises(StopRun):
            run_experiment(tiny_config(manifest, model="mean_CNN", k_folds=5))
    finally:
        tracemalloc.stop()
    (live,) = heap
    assert live <= 3 * feature_bytes, live / feature_bytes


def test_spawned_workers_share_the_cores_as_blas_threads(monkeypatch):
    for name in evaluation.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # set by the user: left alone
    before = dict(os.environ)
    with evaluation._spawn_pool(2) as pool:
        seen = list(pool.map(os.getenv, evaluation.BLAS_THREAD_VARIABLES))
    share = str(max(1, len(os.sched_getaffinity(0)) // 2))
    assert seen == [share, share, "3"]
    assert dict(os.environ) == before


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_experiment_rejects_jobs_below_one(tiny_manifest, jobs):
    with pytest.raises(ConfigError, match="jobs must be at least 1"):
        run_experiment(tiny_config(tiny_manifest, jobs=jobs))


@pytest.mark.parametrize("model,flag,percent", [("mean_CNN_GCN5", 20, 5),
                                                ("diff20_CNN", 5, 20)])
def test_threshold_in_model_name_builds_and_reports_the_graphs(tiny_manifest, monkeypatch,
                                                               model, flag, percent):
    received = set()
    window_adjacency = prep.window_adjacency

    def recording_window_adjacency(sample, threshold_percent):
        received.add(threshold_percent)
        return window_adjacency(sample, threshold_percent)

    monkeypatch.setattr(prep, "window_adjacency", recording_window_adjacency)
    doc = run_experiment(tiny_config(tiny_manifest, model=model, threshold_percent=flag,
                                     grid=HyperGrid.fast(epochs=1, batch_size=8)))
    assert received == {percent}
    assert doc["config"]["model"] == model
    assert doc["config"]["threshold_percent"] == percent


def test_run_experiment_gcn_variant(tiny_manifest):
    doc = run_experiment(tiny_config(tiny_manifest, model="mean_CNN_GCN", threshold_percent=20))
    assert doc["config"]["model"] == "mean_CNN_GCN20"
    assert len(doc["folds"]) == 2


def test_run_experiment_logs_aux_losses_for_diffpool(tiny_manifest):
    doc = run_experiment(tiny_config(tiny_manifest, model="diff20_CNN"))
    fold = doc["folds"][0]
    assert len(fold["link_curve"]) == len(fold["train_curve"])
    assert any(v > 0 for v in fold["link_curve"])
    assert any(v > 0 for v in fold["entropy_curve"])


def test_run_experiment_64split_windows(tmp_path):
    config = SynthConfig(n_subjects=8, n_nodes=6, session_length=512, n_sessions=1,
                         effect_size=1.0, seed=2)
    manifest = generate_dataset(config, tmp_path)
    doc = run_experiment(tiny_config(manifest, model="mean_CNN_64split",
                                     windows_per_scan=16))
    assert doc["config"]["model"] == "mean_CNN_64split"
    assert doc["config"]["windows_per_scan"] == 16
    # 8 subjects x 1 session x 16 windows; two folds of 4 subjects each
    assert len(doc["folds"]) == 2


def test_run_experiment_tcn_variant(tiny_manifest):
    doc = run_experiment(tiny_config(tiny_manifest, model="mean_TCN"))
    assert doc["config"]["model"] == "mean_TCN"
    assert all(0.0 <= f["auc"] <= 1.0 for f in doc["folds"])


def test_effect_zero_dataset_scores_at_chance(tmp_path):
    config = SynthConfig(n_subjects=20, n_nodes=8, session_length=96, n_sessions=4,
                         effect_size=0.0, seed=11)
    manifest = generate_dataset(config, tmp_path)
    doc = run_experiment(ExperimentConfig(
        manifest=str(manifest), model="mean_CNN", threshold_percent=20,
        k_folds=5, seed=11, grid=HyperGrid.fast(epochs=5, batch_size=16)))
    assert 0.40 <= doc["aggregate"]["auc"]["mean"] <= 0.60


def test_select_final_epoch_keeps_last_state(tiny_manifest):
    best = run_experiment(tiny_config(tiny_manifest))
    final = run_experiment(tiny_config(tiny_manifest, select_final_epoch=True))
    for report in final["folds"]:
        assert report["best_epoch"] == len(report["val_curve"]) - 1
        assert report["best_val_loss"] == report["val_curve"][-1]
    # best-epoch selection reports the minimum of the curve instead
    for report in best["folds"]:
        assert report["best_val_loss"] == min(report["val_curve"])


@pytest.mark.parametrize("model,per_window", [
    ("logreg", 1), ("mean_CNN_GCN5", 1), ("mean_CNN", 0)])
def test_ledoit_wolf_runs_once_per_window_that_needs_it(tiny_manifest, monkeypatch,
                                                         model, per_window):
    calls = {"ledoit_wolf": 0, "windows": 0}
    ledoit_wolf, window_split = prep.ledoit_wolf_covariance, prep.window_split

    def counted_ledoit_wolf(data):
        calls["ledoit_wolf"] += 1
        return ledoit_wolf(data)

    def counted_window_split(record, windows_per_scan):
        windows = window_split(record, windows_per_scan)
        calls["windows"] += len(windows)
        return windows

    monkeypatch.setattr(prep, "ledoit_wolf_covariance", counted_ledoit_wolf)
    monkeypatch.setattr(prep, "window_split", counted_window_split)
    run_experiment(tiny_config(tiny_manifest, model=model, threshold_percent=5,
                               grid=HyperGrid.fast(epochs=1, batch_size=8)))
    assert calls["windows"] == 16  # 8 subjects x 2 sessions
    assert calls["ledoit_wolf"] == per_window * calls["windows"]
