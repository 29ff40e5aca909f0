"""Fold planning, metrics, grid search, baseline and experiment orchestration."""

import contextlib
import io
import multiprocessing
import os
import pickle
import platform
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgnn.errors import ConfigError, HarnessError, MetricError
from stgnn import autodiff as ad
from stgnn import evaluation, prep
from stgnn.autodiff import Tensor
from stgnn.evaluation import (ROLES, ExperimentConfig, HyperGrid, HyperPoint,
                              baseline_flat_correlation,
                              compute_metrics, default_batch_size, derived_rng, derived_seed,
                              flat_correlation_features, plan_folds, run_experiment,
                              select_grid_winner, train_classifier, GridRecord,
                              TrainOutcome, TrainSettings)
from stgnn.models import ModelSpec, bce_loss, build_model
from stgnn.nn import Adam, Linear
from stgnn.prep import prepare_graph_samples, stack_samples
from stgnn.synth import SynthConfig, generate, generate_dataset


def subject_rows(labels_by_subject: dict[str, int], per_subject: int = 2):
    """Each sample's subject and label, as ``stack_samples`` returns them."""
    subjects = [sid for sid in labels_by_subject for _ in range(per_subject)]
    return subjects, [labels_by_subject[sid] for sid in subjects]


# fold planning -----------------------------------------------------------------


def subjects_by_role(plan, subjects) -> list[dict[str, set[str]]]:
    """Each fold's subjects per role, read from the rows ``plan_folds`` returned."""
    subjects = np.asarray(subjects)
    return [{role: set(subjects[rows[role]].tolist()) for role in ROLES} for rows in plan]


def test_plan_folds_balanced_ten_subjects():
    labels = {f"s{i}": i % 2 for i in range(10)}
    subjects, sample_labels = subject_rows(labels)
    plan = plan_folds(subjects, sample_labels, k=5, seed=0)
    assert len(plan) == 5
    for roles in subjects_by_role(plan, subjects):
        assert len(roles["test"]) == 2
        assert sorted(labels[s] for s in roles["test"]) == [0, 1]


def test_plan_folds_is_a_partition():
    labels = {f"s{i}": i % 2 for i in range(20)}
    subjects, sample_labels = subject_rows(labels)
    all_subjects = set()
    for roles in subjects_by_role(plan_folds(subjects, sample_labels, k=5, seed=3), subjects):
        assert not (roles["test"] & all_subjects)
        all_subjects |= roles["test"]
    assert all_subjects == set(labels)


def test_plan_folds_inner_split_disjoint_and_stratified():
    labels = {f"s{i}": i % 2 for i in range(30)}
    subjects, sample_labels = subject_rows(labels)
    for roles in subjects_by_role(plan_folds(subjects, sample_labels, k=5, seed=1), subjects):
        train, val, test = (roles[role] for role in ("train", "val", "test"))
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
        subjects, sample_labels = subject_rows(labels, per_subject=1)
        plan = plan_folds(subjects, sample_labels, k=5, seed=seed)
        global_p = n1 / (n0 + n1)
        for roles in subjects_by_role(plan, subjects):
            p = sum(labels[s] for s in roles["test"]) / len(roles["test"])
            assert abs(p - global_p) <= 0.05 + 1e-9


def test_plan_folds_needs_enough_subjects():
    labels = {"a": 0, "b": 0, "c": 1, "d": 1}
    with pytest.raises(ConfigError):
        plan_folds(*subject_rows(labels), k=5, seed=0)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_plan_folds_rows_keep_subjects_whole_with_both_classes_in_every_role(k, data, seed):
    counts = [data.draw(st.integers(k, k + 8), label=f"subjects of class {c}") for c in (0, 1)]
    pairs = [(f"c{label}s{i}", label) for label, count in enumerate(counts)
             for i in range(count)
             for _ in range(data.draw(st.integers(1, 3), label="rows per subject"))]
    pairs = data.draw(st.permutations(pairs), label="row order")
    subjects, labels = map(np.asarray, zip(*pairs))
    # a fold's test rows take at most ceil(count / k) subjects of a class, and the inner
    # split holds out at least one of the rest, which must leave one for training
    if any(count - -(-count // k) < 2 for count in counts):
        with pytest.raises(ConfigError, match=r"fold \d+ leaves class [01] no training subject"):
            plan_folds(subjects.tolist(), labels, k=k, seed=seed)
        return
    plan = plan_folds(subjects.tolist(), labels, k=k, seed=seed)
    assert len(plan) == k
    tested = []
    for rows in plan:
        assert list(rows) == list(ROLES)
        for role in ROLES:
            assert rows[role].dtype.kind == "i" and np.all(np.diff(rows[role]) > 0)
            assert set(labels[rows[role]].tolist()) == {0, 1}
        # disjoint and covering every row
        assert np.array_equal(np.sort(np.concatenate(list(rows.values()))),
                              np.arange(len(subjects)))
        role_of = {}
        for role in ROLES:
            for sid in subjects[rows[role]].tolist():
                assert role_of.setdefault(sid, role) == role
        tested += set(subjects[rows["test"]].tolist())
    assert sorted(tested) == sorted(set(subjects.tolist()))  # each subject in test once


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


class Recording:
    """A model ``train_classifier`` built, which calls ``before(model)`` as each training
    forward starts and ``after(probabilities)`` as it ends."""

    def __init__(self, model, before, after=lambda probs: None):
        self.model, self.before, self.after = model, before, after

    def __getattr__(self, name):
        return getattr(self.model, name)

    def __call__(self, features, adjacency, train):
        if train:
            self.before(self.model)
        probs, levels = self.model(features, adjacency, train=train)
        if train:
            self.after(probs)
        return probs, levels


def record_training(monkeypatch, before, after=lambda probs: None):
    build_model = evaluation.build_model
    monkeypatch.setattr(evaluation, "build_model",
                        lambda *args: Recording(build_model(*args), before, after))
    outcome = _tiny_training()
    assert not outcome.failed


def test_training_releases_each_step_tape_before_the_next_forward(monkeypatch):
    steps = []  # weak references to each training step's output probabilities

    def before(model):
        if steps:
            assert steps[-1]() is None, f"step {len(steps) - 1}'s tape is still alive"

    record_training(monkeypatch, before, lambda probs: steps.append(weakref.ref(probs.data)))
    assert len(steps) == 9  # 3 epochs of 3 batches


def test_training_forward_starts_with_no_parameter_gradient(monkeypatch):
    held = []  # parameters holding a gradient as each training forward starts
    record_training(monkeypatch,
                    lambda model: held.append(sum(p.grad is not None for p in model.parameters())))
    assert held == [0] * 9  # 3 epochs of 3 batches


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
                evaluation.evaluate_loss(recorded, (features, adjacency, labels),
                                         np.arange(7), settings, chunk=3))

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
    evaluation.evaluate_loss(model, (features, adjacency, labels), np.arange(4), settings,
                             chunk=2)
    assert built == [(name, False) for name in taped for _ in range(2)]


def test_baseline_scores_each_test_fold_without_a_tape(monkeypatch):
    sigmoid = ad.sigmoid
    taped = []

    def recording_sigmoid(a):
        out = sigmoid(a)
        taped.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "sigmoid", recording_sigmoid)
    features, adjacency, labels, subjects = synth_stack(n_subjects=8)
    baseline_flat_correlation((features, adjacency, labels),
                              plan_folds(subjects, labels, k=2), binarize=False)
    # every fold trains in each epoch's one tape, then one untaped pass scores them all
    assert taped == [True] * evaluation.BASELINE_EPOCHS + [False]


def test_failed_training_records_epoch_and_batch_start(monkeypatch):
    calls = []

    def loss_that_turns_nan(probabilities, labels):
        calls.append(None)  # 3 training batches and 1 validation pass per epoch
        loss = bce_loss(probabilities, labels)
        return ad.mul(loss, np.nan) if len(calls) == 6 else loss

    monkeypatch.setattr(evaluation, "bce_loss", loss_that_turns_nan)
    outcome = _tiny_training()
    assert outcome.failed and outcome.model is None
    assert (outcome.failed_epoch, outcome.failure) == (1, "non-finite training loss at batch start 4")
    assert len(outcome.train_curve) == 1


def test_failed_validation_records_epoch(monkeypatch):
    losses = iter([0.7, np.nan])
    monkeypatch.setattr(evaluation, "evaluate_loss", lambda *args, **kwargs: next(losses))
    outcome = _tiny_training()
    assert outcome.failed
    assert (outcome.failed_epoch, outcome.failure) == (1, "non-finite validation loss")
    assert outcome.val_curve[0] == 0.7 and np.isnan(outcome.val_curve[1])


def held_out_training(monkeypatch, select_final_epoch=False):
    """Train on 8 rows and validate on 4 others, recording the model's state
    at each validation; the validation losses read (0.5, 0.3, 0.4), so the
    best epoch is 1 and the last is 2."""
    rng = np.random.default_rng(0)
    data = (rng.normal(size=(12, 3, 16)).astype(np.float32), None,
            (np.arange(12) % 2).astype(np.float32))
    settings = TrainSettings(lr=1e-2, weight_decay=0.0, dropout=0.0, epochs=3, batch_size=4,
                             select_final_epoch=select_final_epoch)
    states = []
    losses = iter([0.5, 0.3, 0.4])
    evaluate_loss = evaluation.evaluate_loss

    def recording_evaluate_loss(model, *args, **kwargs):
        evaluate_loss(model, *args, **kwargs)
        states.append(model.state_dict())
        return next(losses)

    monkeypatch.setattr(evaluation, "evaluate_loss", recording_evaluate_loss)
    outcome = train_classifier(ModelSpec(encoder="cnn"), data, np.arange(8), np.arange(8, 12),
                               settings, seed=1)
    assert not outcome.failed
    return outcome, states


def same_state(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[key].tobytes() == b[key].tobytes() for key in a)


@pytest.mark.parametrize("select_final_epoch,epoch", [(False, 1), (True, 2)])
def test_training_returns_its_model_at_the_selected_epoch(monkeypatch, select_final_epoch,
                                                          epoch):
    outcome, states = held_out_training(monkeypatch, select_final_epoch)
    assert outcome.best_epoch == epoch
    assert not same_state(states[1], states[2])  # so the returned state tells them apart
    assert same_state(outcome.model.state_dict(), states[epoch])


def test_no_validation_copy_outlives_its_evaluate_loss_call(monkeypatch):
    gathered = []  # a weak reference to each array gathered from the validation rows
    evaluated = []  # how many of them are alive as each evaluate_loss call returns
    take, evaluate_loss = evaluation._take, evaluation.evaluate_loss

    def recording_take(data, rows):
        out = take(data, rows)
        if isinstance(rows, np.ndarray) and np.all(rows >= 8):  # rows 8 to 11 validate
            gathered.extend(weakref.ref(array) for array in out if array is not None)
        return out

    def recording_evaluate_loss(*args, **kwargs):
        loss = evaluate_loss(*args, **kwargs)
        evaluated.append(sum(ref() is not None for ref in gathered))
        return loss

    monkeypatch.setattr(evaluation, "_take", recording_take)
    monkeypatch.setattr(evaluation, "evaluate_loss", recording_evaluate_loss)
    held_out_training(monkeypatch)
    assert gathered and evaluated == [0, 0, 0]


def test_training_that_diverges_everywhere_names_the_reason(tiny_manifest, monkeypatch):
    monkeypatch.setattr(evaluation, "bce_loss",
                        lambda probabilities, labels: ad.mul(bce_loss(probabilities, labels),
                                                             np.inf))
    with pytest.raises(HarnessError, match="every grid point failed: point 0 .*: non-finite "
                                           "training loss at batch start 0 in epoch 0"):
        run_experiment(tiny_config(tiny_manifest))


# baseline ----------------------------------------------------------------------------


def synth_stack(n_subjects=12, nodes=15, length=128, effect=1.0, seed=0, threshold=20):
    """(features, adjacency, labels, subjects) of a synthetic dataset."""
    records = generate(SynthConfig(n_subjects=n_subjects, n_nodes=nodes,
                                   session_length=length, n_sessions=2,
                                   effect_size=effect, seed=seed))
    return stack_samples(prepare_graph_samples(records, windows_per_scan=1,
                                               threshold_percent=threshold, balance_seed=0))


def test_flat_features_triangle_length():
    features = np.random.default_rng(0).normal(size=(2, 3, 16)).astype(np.float32)
    table = flat_correlation_features(features, binarize=False)
    assert table.shape == (2, 3)


def test_flat_features_binarized_are_binary():
    features = synth_stack(n_subjects=4)[0]
    table = flat_correlation_features(features, binarize=True)
    assert set(np.unique(table)) <= {0.0, 1.0}
    assert table.shape[1] == 15 * 14 // 2


def per_fold_baseline(data, rows, binarize: bool, seed: int = 0):
    """The baseline trained one fold at a time, each on its own copy of its
    train and val rows: the reference for the batched baseline. Returns each
    fold's train curve and metrics."""
    features, _, labels = data
    table = flat_correlation_features(features, binarize=binarize)
    folds = []
    for fold, fold_rows in enumerate(rows):
        train = np.union1d(fold_rows["train"], fold_rows["val"])
        test = fold_rows["test"]
        linear = Linear(table.shape[1], 1, derived_rng(seed, 0xBA5E, fold))
        optimizer = Adam([linear.weight, linear.bias], lr=evaluation.BASELINE_LR,
                         weight_decay=evaluation.BASELINE_WEIGHT_DECAY)
        x_train, y_train = Tensor(table[train]), labels[train]
        curve = []
        for _ in range(evaluation.BASELINE_EPOCHS):
            probs = ad.reshape(ad.sigmoid(linear(x_train)), (len(train),))
            loss = bce_loss(probs, y_train)
            curve.append(loss.item())
            linear.zero_grad()
            loss.backward()
            optimizer.step()
        with ad.no_tape():
            scores = ad.sigmoid(linear(Tensor(table[test]))).numpy()[:, 0]
        folds.append((curve, compute_metrics(scores, labels[test])))
    return folds


@pytest.mark.parametrize("binarize", [False, True])
@pytest.mark.parametrize("k", [2, 5])
def test_batched_baseline_agrees_with_one_model_per_fold_in_f64(k, binarize):
    with ad.default_dtype("f64"):
        features, adjacency, labels, subjects = synth_stack(n_subjects=20, effect=0.5)
        rows = plan_folds(subjects, labels, k=k, seed=2)
        reports = baseline_flat_correlation((features, adjacency, labels), rows,
                                            binarize=binarize, seed=3)
        reference = per_fold_baseline((features, adjacency, labels), rows, binarize, seed=3)
    assert len(reports) == k
    for report, (curve, metrics) in zip(reports, reference):
        np.testing.assert_allclose(report.train_curve, curve, rtol=1e-12, atol=0)
        assert (report.auc, report.sensitivity, report.specificity) == \
            (metrics.auc, metrics.sensitivity, metrics.specificity)


def test_batched_baseline_fold_ignores_its_test_labels(monkeypatch):
    """Fold 0's column shares each epoch's GEMM with the other folds, whose
    training rows hold its test rows: flipping those labels moves the other
    folds but leaves fold 0's train curve and test scores bit for bit."""
    scored = []
    compute = evaluation.compute_metrics

    def recording_compute_metrics(scores, labels):
        scored.append(np.array(scores))
        return compute(scores, labels)

    monkeypatch.setattr(evaluation, "compute_metrics", recording_compute_metrics)
    features, adjacency, labels, subjects = synth_stack(n_subjects=12)
    rows = plan_folds(subjects, labels, k=3)
    flipped = labels.copy()
    flipped[rows[0]["test"]] = 1 - flipped[rows[0]["test"]]
    runs = []
    for run_labels in (labels, flipped):
        scored.clear()
        runs.append((baseline_flat_correlation((features, adjacency, run_labels), rows,
                                               binarize=False), list(scored)))
    (plain, plain_scores), (flip, flip_scores) = runs
    assert plain[0].train_curve == flip[0].train_curve
    assert plain_scores[0].dtype == np.float32
    assert plain_scores[0].tobytes() == flip_scores[0].tobytes()
    assert plain[1].train_curve != flip[1].train_curve  # the flipped rows train fold 1


@pytest.mark.parametrize("k", [2, 5])
def test_baseline_steps_adam_once_per_epoch_for_any_fold_count(k, monkeypatch):
    steps = []
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self: (steps.append(None), step(self)))
    features, adjacency, labels, subjects = synth_stack(n_subjects=10)
    baseline_flat_correlation((features, adjacency, labels),
                              plan_folds(subjects, labels, k=k), binarize=False)
    assert len(steps) == evaluation.BASELINE_EPOCHS


def test_baseline_separates_covariance_signal():
    features, adjacency, labels, subjects = synth_stack(n_subjects=12, effect=1.0)
    reports = baseline_flat_correlation((features, adjacency, labels),
                                        plan_folds(subjects, labels, k=2), binarize=False, seed=0)
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
                grid=replace(HyperGrid.fast(lr=1e-3), epochs=2, batch_size=8))
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
    doc = run_experiment(tiny_config(tiny_manifest, grid=replace(HyperGrid.fast(lr=1e-2),
                                                                    epochs=2, batch_size=8)))
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


def test_run_experiment_builds_one_model_per_grid_point(tiny_manifest, monkeypatch):
    built = []
    build_model = evaluation.build_model

    def counted_build_model(spec, *shape):
        built.append((spec.seed, spec.dropout))
        return build_model(spec, *shape)

    monkeypatch.setattr(evaluation, "build_model", counted_build_model)
    config = tiny_config(tiny_manifest, grid=TWO_POINT_GRID)
    run_experiment(config)
    # 2 folds x 2 grid points, each built once, by its training; scoring builds none
    assert built == [(derived_seed(config.seed, fold, index), 0.0)
                     for fold in range(2) for index in range(2)]


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

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass  # nothing is queued: a task runs when its result is read

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


def test_run_holds_only_the_sample_stack_before_training(tmp_path, monkeypatch):
    manifest = generate_dataset(SynthConfig(n_subjects=16, n_nodes=20, session_length=400,
                                            n_sessions=4, seed=2), tmp_path)
    feature_bytes = 16 * 4 * 20 * 400 * 4  # one float32 window per session
    heap = []

    def first_training(*args, **kwargs):
        heap.append(tracemalloc.get_traced_memory()[0])
        raise StopRun

    monkeypatch.setattr(evaluation, "train_classifier", first_training)
    config = tiny_config(manifest, model="mean_CNN", k_folds=5)
    with pytest.raises(StopRun):
        run_experiment(config)  # imports what the run imports lazily, so the count is the run's
    tracemalloc.start()
    try:
        with pytest.raises(StopRun):
            run_experiment(config)
    finally:
        tracemalloc.stop()
    live = heap[-1]
    # the stack alone is 1.0 times the features; with the per-window samples kept it was 2.0
    assert live <= 1.1 * feature_bytes, live / feature_bytes


def test_all_failed_fold_stops_the_run_before_the_next_fold_trains(tiny_manifest, monkeypatch):
    trained = []

    def failing_training(spec, data, train_index, val_index, settings, seed):
        trained.append(seed)
        return TrainOutcome(None, -1, np.inf, [], [], failed=True, failed_epoch=0,
                            failure="non-finite validation loss")

    monkeypatch.setattr(evaluation, "train_classifier", failing_training)
    config = tiny_config(tiny_manifest, grid=TWO_POINT_GRID)
    with pytest.raises(HarnessError, match="every grid point failed: point 0 .* point 1 "):
        run_experiment(config)
    assert trained == [derived_seed(config.seed, 0, index) for index in range(2)]


def test_pool_cancels_queued_tasks_when_the_block_raises():
    started = time.monotonic()
    with pytest.raises(StopRun):
        with evaluation._spawn_pool(2) as pool:
            futures = [pool.submit(time.sleep, 1.0) for _ in range(12)]
            raise StopRun
    elapsed = time.monotonic() - started
    # the 2 running tasks and the one in the call queue finish; the rest never start
    assert sum(future.cancelled() for future in futures) >= 12 - 3
    assert elapsed < 12 * 1.0 / 2, elapsed  # all 12 would take 6 s on 2 workers


def test_a_worker_importing_its_parents_script_starts_no_pool(monkeypatch):
    constructed = []
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor",
                        lambda **kwargs: constructed.append(kwargs))
    monkeypatch.setattr(multiprocessing.current_process(), "_inheriting", True, raising=False)
    environ = dict(os.environ)
    with pytest.raises(HarnessError, match="while it imports its parent's main script"):
        with evaluation._spawn_pool(2):
            pass
    assert constructed == []
    assert dict(os.environ) == environ


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_keeps_no_state_but_the_running_winners(tiny_manifest, monkeypatch, jobs):
    pools: list[RecordingPool] = []
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor",
                        lambda **kwargs: RecordingPool(pools, **kwargs))
    models = []  # a weak reference to each returned model
    alive = []  # how many earlier models are alive as each training starts
    train_classifier = evaluation.train_classifier

    def recording_train_classifier(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in models))
        outcome = train_classifier(*args, **kwargs)
        models.append(weakref.ref(outcome.model))
        return outcome

    monkeypatch.setattr(evaluation, "train_classifier", recording_train_classifier)
    grid = HyperGrid(dropouts=(0.0,), learning_rates=(1e-2, 1e-7, 1e-3), weight_decays=(0.0,),
                     epochs=2, batch_size=8)
    run_experiment(tiny_config(tiny_manifest, grid=grid, jobs=jobs))
    assert len(pools) == (jobs > 1)
    # 2 folds x 3 points: each fold's first training starts with nothing from
    # the last fold, and the later ones with only the fold's running winner
    assert alive == [0, 1, 1] * 2
    assert [ref() for ref in models] == [None] * 6


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


SRC = Path(__file__).resolve().parent.parent / "src"

SECOND_RUN_FAULTS = """
import resource, sys
from dataclasses import replace
from stgnn.evaluation import ExperimentConfig, HyperGrid, run_experiment
from stgnn.synth import SynthConfig, generate_dataset

manifest = generate_dataset(SynthConfig(n_subjects=10, n_nodes=8, session_length=160,
                                        n_sessions=4, seed=7), sys.argv[1])
config = ExperimentConfig(manifest=str(manifest), model="mean_CNN_GCN5", seed=7,
                          grid=replace(HyperGrid.fast(), epochs=1))
run_experiment(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_a_second_run_in_one_process_reuses_the_heap(tmp_path):
    """Every training step frees its tape at the top of the heap. Kept, those pages
    serve the next step; trimmed, the next step faults them back in, 6.8k to 7.8k
    minor faults for this second run (5 folds x 1 epoch), against under 100 kept."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SECOND_RUN_FAULTS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) < 1000


class RecordingLibc:
    """Stands in for ``ctypes.CDLL(None)``: records each ``mallopt`` call."""

    def __init__(self, calls: list):
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        self.mallopt = mallopt


def test_grid_workers_keep_the_heap(monkeypatch):
    calls = []
    monkeypatch.setattr(evaluation.ctypes, "CDLL", lambda name: RecordingLibc(calls))
    monkeypatch.setattr(evaluation, "_grid_context", {})
    with ad.default_dtype("f32"):
        evaluation._install_grid_context(None, [], None, None, "f64")
    # the mmap threshold at glibc's 64-bit ceiling of 32 MiB, and trimming off
    assert calls == [(-3, 32 << 20), (-1, -1)]


def missing_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [missing_libc, lambda name: object()],
                         ids=["no-library", "no-mallopt"])
def test_a_run_without_mallopt_completes(tiny_manifest, monkeypatch, cdll):
    monkeypatch.setattr(evaluation.ctypes, "CDLL", cdll)
    doc = run_experiment(tiny_config(tiny_manifest))
    assert len(doc["folds"]) == 2


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

    def recording_window_adjacency(window, threshold_percent):
        received.add(threshold_percent)
        return window_adjacency(window, threshold_percent)

    monkeypatch.setattr(prep, "window_adjacency", recording_window_adjacency)
    doc = run_experiment(tiny_config(tiny_manifest, model=model, threshold_percent=flag,
                                     grid=replace(HyperGrid.fast(), epochs=1, batch_size=8)))
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
        k_folds=5, seed=11, grid=replace(HyperGrid.fast(), epochs=5, batch_size=16)))
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
                               grid=replace(HyperGrid.fast(), epochs=1, batch_size=8)))
    assert calls["windows"] == 16  # 8 subjects x 2 sessions
    assert calls["ledoit_wolf"] == per_window * calls["windows"]
